"""The sparse-accumulate helper, and a guard that it stays the only one."""

import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

import qrea
from qrea.coeff import LaurentPoly, RatFunc
from qrea.linalg import add_term
from qrea.qmatrix import NCPoly

# Few keys and small coefficients, so that terms collide and cancel often.
_laurent = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2),
                           max_size=2).map(LaurentPoly)
_den = st.sampled_from([{0: 1}, {0: 1, 1: -1}, {0: 1, 2: 1}]).map(LaurentPoly)
_ratfunc = st.builds(RatFunc, _laurent, _den)
_pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))
_words = st.lists(st.integers(0, 3), max_size=2).map(tuple)


@st.composite
def _cancelling_terms(draw, keys):
    """A shuffled list of (key, RatFunc) terms in which some terms come
    with their negatives, so that whole keys sum to zero."""
    terms = draw(st.lists(st.tuples(keys, _ratfunc), max_size=10))
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
@given(_cancelling_terms(_words), _cancelling_terms(_words))
def test_ncpoly_add_and_mul_against_naive_sums(a_terms, b_terms):
    a = NCPoly(2, _naive_sum(a_terms))
    b = NCPoly(2, _naive_sum(b_terms))
    assert (a + b).coeffs == _naive_sum([*a.coeffs.items(),
                                         *b.coeffs.items()])
    assert (a - a).is_zero()
    assert (a * b).coeffs == _naive_sum(
        [(wa + wb, ca * cb) for wa, ca in a.coeffs.items()
         for wb, cb in b.coeffs.items()])


# `s = out.get(key, RF_ZERO) + c`, the accumulate step add_term replaces.
# LaurentPoly's own exponent loops add plain numbers and do not match.
_ACCUMULATE_IDIOM = re.compile(
    r"\.get\([^()]*,\s*(?:\w+\.)?(?:RF_ZERO|GR0)\)\s*[-+]")


def test_no_hand_written_accumulate_loops():
    hits = []
    for path in sorted(Path(qrea.__file__).parent.glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), start=1):
            if _ACCUMULATE_IDIOM.search(line):
                hits.append(f"{path.name}:{n}: {line.strip()}")
    assert not hits, "use linalg.add_term:\n" + "\n".join(hits)
