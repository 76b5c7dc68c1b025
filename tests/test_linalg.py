"""The sparse-accumulate helper, the polynomial sum built on it, the dense
elimination and the unit-pivot sparse elimination, and guards that each
stays the only one."""

import ast
import re
from functools import reduce
from itertools import permutations
from math import comb
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qrea
from qrea import coeff
from qrea.coeff import LP_ONE, LP_Q, LaurentPoly, NotAUnit, RatFunc
from qrea.linalg import (add_term, determinant, echelon, invert_matrix,
                         sparse_row_reduce)
from qrea.qmatrix import (NCPoly, degree_dimension, derive_rewrite_system,
                          exchange_relations, sum_terms)
from qrea.rea import reflection_slot_vectors

# Few keys and small coefficients, so that terms collide and cancel often.
_laurent = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2),
                           max_size=2).map(LaurentPoly)
# The units +-q^k, drawn often so that some spans reduce with unit leads.
_units = st.builds(lambda s, k: LaurentPoly({k: s}), st.sampled_from([1, -1]),
                   st.integers(-2, 2))
_den = st.sampled_from([{0: 1}, {0: 1, 1: -1}, {0: 1, 2: 1}]).map(LaurentPoly)
_ratfunc = st.builds(RatFunc, _laurent, _den)
_pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))
_words = st.lists(st.integers(0, 3), max_size=2).map(tuple)


@st.composite
def _cancelling_terms(draw, keys, scalars=_ratfunc):
    """A shuffled list of (key, scalar) terms, RatFunc by default, in which
    some terms come with their negatives, so that whole keys sum to zero."""
    terms = draw(st.lists(st.tuples(keys, scalars), max_size=10))
    flips = draw(st.lists(st.booleans(), min_size=len(terms),
                          max_size=len(terms)))
    negated = [(k, -c) for (k, c), flip in zip(terms, flips) if flip]
    return draw(st.permutations(terms + negated))


def _naive_sum(terms):
    sums = {}
    for k, c in terms:
        sums[k] = sums[k] + c if k in sums else c
    return {k: c for k, c in sums.items() if not c.is_zero()}


def _accumulate(terms):
    out = {}
    for k, c in terms:
        add_term(out, k, c)
    return out


@settings(max_examples=100, deadline=None)
@given(_cancelling_terms(_pairs), st.randoms(use_true_random=False))
def test_add_term_is_the_filtered_naive_sum(terms, rnd):
    out = _accumulate(terms)
    assert out == _naive_sum(terms)
    assert not any(c.is_zero() for c in out.values())
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert _accumulate(shuffled) == out


@settings(max_examples=50, deadline=None)
@given(_cancelling_terms(_words, _laurent),
       _cancelling_terms(_words, _laurent), st.randoms(use_true_random=False))
def test_sum_terms_and_mul_against_naive_sums(a_terms, b_terms, rnd):
    """sum_terms of c * (w b) over the (w, c) of a_terms, c a LaurentPoly,
    is a * b: the naive sum of the expanded products, with no zero stored,
    in any term order, and with the memoised values it read left as they
    were.  An NCPoly stores the dict it is given."""
    # a leading coefficient 1, where a sum could hand out its first summand
    a_terms = [((), LP_ONE)] + a_terms
    b_coeffs = _naive_sum(b_terms)
    b = NCPoly(2, b_coeffs)
    assert b.coeffs is b_coeffs
    memo = {}

    def times_b(w):
        if w not in memo:
            memo[w] = NCPoly(2, {w: LP_ONE}) * b
        return memo[w]

    naive = _naive_sum([(w + wb, c * cb) for w, c in a_terms
                        for wb, cb in b.coeffs.items()])
    terms = [(c, (w,)) for w, c in a_terms]
    total = sum_terms(2, terms, times_b)
    assert total.N == 2 and total.coeffs == naive
    assert not any(c.is_zero() for c in total.coeffs.values())
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert sum_terms(2, shuffled, times_b) == total
    assert sum_terms(2, terms + [(-c, w) for c, w in shuffled],
                     times_b).is_zero()
    assert sum_terms(2, [], times_b) == NCPoly(2)
    for w, p in memo.items():
        assert p.coeffs == {w + wb: cb for wb, cb in b.coeffs.items()}
        assert p is not total and p.coeffs is not total.coeffs
    a = NCPoly(2, _naive_sum(a_terms))
    assert (a * b).coeffs == naive


# `s = out.get(key, LP_ZERO) + c`, the accumulate step add_term replaces.
# LaurentPoly's own exponent loops add plain numbers and do not match.
_ACCUMULATE_IDIOM = re.compile(
    r"\.get\([^()]*,\s*(?:\w+\.)?(?:LP_ZERO|RF_ZERO|GR0)\)\s*[-+]")


def test_no_hand_written_accumulate_loops():
    hits = []
    for path in sorted(Path(qrea.__file__).parent.glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), start=1):
            if _ACCUMULATE_IDIOM.search(line):
                hits.append(f"{path.name}:{n}: {line.strip()}")
    assert not hits, "use linalg.add_term:\n" + "\n".join(hits)


_ints = st.integers(-3, 3)


@st.composite
def _integer_matrices(draw, square=False):
    """A rows x cols integer matrix, wide, tall or square, half of them the
    product of a rows x k and a k x cols matrix, so of rank at most k."""
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 6))

    def block(r, c):
        return draw(st.lists(st.lists(_ints, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if draw(st.booleans()):
        return block(rows, cols)
    k = draw(st.integers(0, min(rows, cols) - 1))
    a, b = block(rows, k), block(k, cols)
    return [[sum(a[i][x] * b[x][j] for x in range(k)) for j in range(cols)]
            for i in range(rows)]


def _leibniz(m):
    """The determinant as the signed sum over permutations, the oracle."""
    n = len(m)
    terms = []
    for perm in permutations(range(n)):
        term = reduce(mul, (m[i][perm[i]] for i in range(n)))
        odd = sum(perm[a] > perm[b] for a in range(n)
                  for b in range(a + 1, n)) % 2
        terms.append(-term if odd else term)
    return reduce(add, terms)


def _numpy_rank(m):
    """The rank of an integer matrix in floating point, the oracle: the
    nonzero singular values of these small integer matrices lie far above
    numpy's default tolerance, and rounding errors far below it."""
    return int(np.linalg.matrix_rank(np.array(m, dtype=float))) if m[0] else 0


@settings(max_examples=150, deadline=None)
@given(_integer_matrices(square=True))
def test_elimination_on_integers_against_numpy(m):
    """The determinant against _leibniz and numpy; echelon leaves a row of
    m without a pivot exactly when m is singular, and then invert_matrix
    raises; otherwise invert_matrix returns a two-sided inverse of m."""
    n = len(m)
    det = determinant(m)
    assert type(det) is int and det == _leibniz(m)
    assert abs(det - np.linalg.det(np.array(m, dtype=float))) <= 1e-6 * max(
        1, abs(det))
    pivots = echelon(m)[1]
    assert len(pivots) == _numpy_rank(m)
    if len(pivots) < n:
        assert det == 0
        with pytest.raises(ValueError):
            invert_matrix(m)
        return
    inv = invert_matrix(m)
    for a, b in ((inv, m), (m, inv)):
        for i in range(n):
            for j in range(n):
                assert sum(a[i][k] * b[k][j] for k in range(n)) == (i == j)


@settings(max_examples=200, deadline=None)
@given(_integer_matrices())
def test_echelon_pivots_are_the_lex_first_independent_columns(m):
    """On integer matrices, rectangular and rank-deficient: the pivot
    columns are those independent of the columns before them (numpy prefix
    ranks), m comes back as a row echelon form over Z of the same row span,
    and the determinant of a square matrix is the Leibniz sum."""
    reduced, pivots, det = echelon(m)
    ranks = [0] + [_numpy_rank([row[:c] for row in m])
                   for c in range(1, len(m[0]) + 1)]
    assert pivots == [c for c in range(len(m[0])) if ranks[c + 1] > ranks[c]]
    # each pivot row is zero left of its pivot, and the rows without a
    # pivot are zero; every entry stays an integer
    for i, row in enumerate(reduced):
        assert all(type(e) is int for e in row)
        if i < len(pivots):
            assert not any(row[:pivots[i]]) and row[pivots[i]]
        else:
            assert not any(row)
    # the reduced rows span no more than m's: stacked, the rank stays
    assert _numpy_rank(m + reduced) == len(pivots)
    assert det == (_leibniz(m) if len(m) == len(m[0]) else None)


def _rank_at(vectors, q0):
    """The rank over Q of sparse vectors (key 0..3 -> LaurentPoly, exponents
    at least -2) at the integer q = q0, by echelon over Z: each entry times
    q0^2 is an integer."""
    rows = [[int(v[k].evaluate(q0) * q0 ** 2) if k in v else 0
             for k in range(4)] for v in vectors]
    return len(echelon(rows)[1]) if rows else 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 3), _units | _laurent,
                                max_size=4),
                max_size=5))
def test_sparse_row_reduce_unit_pivots_or_not_a_unit(vectors):
    """Over LaurentPoly, either every pivot leads its vector with one and
    the pivot count is the rank over Q(q), or the reduction meets a lead
    that is no unit and raises.  The rank over Q(q) is the largest rank at
    an integer q0: with each entry times q^2, every minor of these at most
    4 x 4 matrices is a polynomial of degree at most 16, so a nonzero minor
    is nonzero at one of 17 points q0."""
    vectors = [{k: c for k, c in v.items() if not c.is_zero()}
               for v in vectors]
    try:
        pivots = sparse_row_reduce(vectors)
    except NotAUnit:
        return
    assert len(pivots) == max(_rank_at(vectors, q0) for q0 in range(2, 19))
    for lead, vec in pivots.items():
        assert max(vec) == lead and not any(c.is_zero() for c in vec.values())
        assert vec[lead].is_one()


def test_sparse_row_reduce_census_of_the_program_spans():
    """Every span the program reduces has unit leads: the exchange
    relations at N = 1..5 and the reflection equation at N = 1..4 give
    N^2 (N^2 - 1) / 2 rules, and the degree-d spans the PBW dimensions."""
    for N in range(1, 6):
        rules = derive_rewrite_system(N, exchange_relations(N)).rules
        assert len(rules) == N * N * (N * N - 1) // 2, N
        if N <= 4:
            slots = list(reflection_slot_vectors(N).values())
            assert len(derive_rewrite_system(N, slots).rules) == len(rules)
    for N, d in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)):
        rw = derive_rewrite_system(N, exchange_relations(N))
        assert degree_dimension(N, rw, d) == comb(N * N + d - 1, d), (N, d)


def test_sparse_row_reduce_raises_at_a_lead_that_is_no_unit():
    # the second vector minus the first leaves (1 + q) at key 0
    vectors = [{1: LP_ONE, 0: -LP_Q}, {1: LP_ONE, 0: LP_ONE}]
    with pytest.raises(NotAUnit) as exc:
        sparse_row_reduce(vectors)
    assert exc.value.args[0] == LP_ONE + LP_Q


# The row operation of a dense elimination: an entry updated in place,
# `row[j] = row[j] - f * pe`, `row[j] -= f * pe` or, fraction-free,
# `row[j] = p * row[j] - f * pe`, or a whole row at once,
# `[e - f * pe for e, pe in zip(...)]`, fraction-free `[p * e - f * pe ...]`
# or with the Bareiss division `[(p * e - f * pe) // d ...]`.
_ROW_OPERATION = re.compile(
    r"(\w+\[\w+\])\s*=\s*\(?(?:\w+\s*\*\s*)?\1\s*-\s*\w+\s*\*\s*\w+"
    r"|\w+\[\w+\]\s*-=\s*\w+\s*\*\s*\w+"
    r"|\w+\s*-\s*\w+\s*\*\s*\w+\)?(?:\s*//?\s*\w+)?"
    r"\s+for\s+\w+,\s*\w+\s+in\s+zip\(")


def test_one_dense_elimination():
    hits = []
    for path in sorted(Path(qrea.__file__).parent.glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), start=1):
            if _ROW_OPERATION.search(line):
                hits.append(f"{path.name}:{n}")
    assert len(hits) == 1 and hits[0].startswith("linalg.py:"), \
        "use linalg.echelon:\n" + "\n".join(hits)
    classical = (Path(qrea.__file__).parent / "classical.py").read_text()
    # the minor expansion and a separate numeric inverse are gone
    for name in ("permutations", "np.linalg.inv", "np.linalg.det"):
        assert name not in classical, name


def test_one_braid_kernel():
    """The bicharacter and twisted-product tables come from the braid move,
    not from a dense solve, and no module keeps a second braid operator."""
    src = Path(qrea.__file__).parent
    for name in ("braiding.py", "qmatrix.py", "rea.py"):
        text = (src / name).read_text()
        for solve in ("echelon", "invert_matrix"):
            assert solve not in text, f"{name} uses {solve}"
    braid_classes = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and "Braid" in node.name:
                braid_classes.append(f"{path.name}:{node.name}")
    assert braid_classes == ["braiding.py:WedgeBraidTable"], braid_classes


def test_one_accumulator():
    """Every polynomial sum goes through qmatrix.sum_terms, and LaurentPoly
    is over Z, so RatFunc clears no Fraction denominators."""
    for name in ("__add__", "__sub__", "scale", "zero"):
        assert name not in vars(NCPoly), f"NCPoly.{name}"
    src = Path(qrea.__file__).parent
    for name in ("qmatrix.py", "rea.py"):
        assert ".scale(" not in (src / name).read_text(), name
    assert not hasattr(coeff, "_dense_times")
