import hashlib
import json
import random
from fractions import Fraction as F
from functools import reduce
from itertools import combinations, product
from math import lcm
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrea import classical
from qrea.classical import (GaussRat, HermitianMatrix, NotTriangular,
                            ShapeMatrix, SignMismatch, bracket_at,
                            build_leaf_point, charpoly, clear_denominators,
                            congruence, decompose, eigenvalue_signs,
                            gr_identity, jacobi_check,
                            leaf_tangency_check, minors,
                            poisson_bracket_coeffs, power_sums,
                            random_compatible_weights, random_exact_hermitian,
                            random_shape, random_triangular, reduced_shape,
                            shape_of, tn_invariance_check)
from qrea.coeff import Random
from qrea.linalg import add_term, echelon
from test_linalg import _leibniz
from test_suite_mutations import fresh_memos, perturbed_bracket, row_test


def G(re, im=0):
    return GaussRat(F(re), F(im))


def H(rows):
    return HermitianMatrix([[G(*e) if isinstance(e, tuple) else G(e)
                             for e in row] for row in rows])


def gr_matmul(a, b):
    """The product of two matrices, lists of rows of GaussRat: the dense
    reference for congruence and orbit_tangents."""
    cols = list(zip(*b))
    return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]


def support(S):
    """The points of a ShapeMatrix with a nonzero slot."""
    return tuple(i for i in range(1, S.N + 1) if S.u[i - 1] is not None)


def shape_rank(S):
    """The rank of the matrix of a ShapeMatrix: the size of its support."""
    return len(support(S))


def rank(rows):
    """The rank over Q(i) of a GaussRat matrix, the oracle of shape_rank
    and of the tangency ranks.  At the Gaussian-integer multiple A + iB of
    the matrix, rank_C(A + iB) is half the rank over Z of the realification
    [[A, -B], [B, A]], taken by echelon."""
    D = lcm(*(e.d for row in rows for e in row))
    a = [[e.a * (D // e.d) for e in row] for row in rows]
    b = [[e.b * (D // e.d) for e in row] for row in rows]
    real = ([ra + [-x for x in rb] for ra, rb in zip(a, b)]
            + [rb + ra for ra, rb in zip(a, b)])
    return len(echelon(real)[1]) // 2


def gr_conj_t(a):
    """The conjugate transpose of a GaussRat matrix: with gr_matmul, the
    dense reference for congruence."""
    return [[a[j][i].conj() for j in range(len(a))] for i in range(len(a[0]))]


def shape_matrix(S):
    """S as a HermitianMatrix: column i holds u_i, each slot its canonical
    ray, in row tau(i)."""
    ent = [[G(0)] * S.N for _ in range(S.N)]
    for i, (t, ui) in enumerate(zip(S.tau, S.u)):
        if ui is not None:
            ent[t - 1][i] = ui
    return HermitianMatrix(ent)


def _numeric(z):
    """The entries of z as a numpy array: the floating-point oracle."""
    return np.array([[complex(e.re, e.im) for e in row] for row in z.entries])


def test_shape_of_diagonal():
    s = shape_of(H([[5, 0, 0], [0, -2, 0], [0, 0, 0]]))
    assert s.tau == (1, 2, 3)
    assert s.u[0] == G(1) and s.u[1] == G(-1) and s.u[2] is None


def test_shape_of_antidiagonal():
    # the matrix [[0, i], [-i, 0]] is its own shape: column 1 holds u_1 = -i
    s = shape_of(H([[0, (0, 1)], [(0, -1), 0]]))
    assert s.tau == (2, 1)
    assert s.u[0] == G(0, -1) and s.u[1] == G(0, 1)


def test_shape_matrix_is_its_own_shape():
    rng = random.Random(31)
    for _ in range(40):
        S = random_shape(rng.randint(1, 4), rng)
        z = shape_matrix(S)
        assert shape_of(z) == S


def test_generate_and_recover_roundtrip():
    rng = random.Random(77)
    for _ in range(100):
        N = rng.randint(1, 4)
        S = random_shape(N, rng)
        t = random_triangular(N, rng)
        z = gr_matmul(gr_conj_t(t), gr_matmul(shape_matrix(S).entries, t))
        assert congruence(t, shape_matrix(S).entries) == z
        assert shape_of(HermitianMatrix(z)) == S


def test_draw_streams_are_pinned():
    # the random exact draws, and how many rng calls they take, for n = 1..4
    # and seeds 0..49: one rng per (n, seed) draws z, t and a shape in turn,
    # then one more float; the digest was taken from draws built through
    # Fraction, so building them from ints changes no draw, and the
    # suites' generator, coeff.Random, draws what random.Random draws
    for generator in (random.Random, Random):
        out = []
        for n in range(1, 5):
            for seed in range(50):
                rng = generator(seed)
                z = random_exact_hermitian(n, rng)
                t = random_triangular(n, rng)
                S = random_shape(n, rng)
                out.append({"n": n, "seed": seed, "z": z.to_json(),
                            "t": [[e.to_json() for e in row] for row in t],
                            "shape": S.to_json(), "next": rng.random()})
        digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "ca6a1d22ee52a4f052c725e0c9cd7f83c60f671317918c5411a4ed666b82c148"
        ), generator


def test_rank_zero():
    s = shape_of(H([[0, 0], [0, 0]]))
    assert shape_rank(s) == 0 and s.tau == (1, 2)


def test_exact_minor_against_numpy():
    rng = random.Random(19)
    for _ in range(25):
        N = rng.randint(1, 4)
        z = random_exact_hermitian(N, rng)
        k = rng.randint(1, N)
        rows = tuple(sorted(rng.sample(range(1, N + 1), k)))
        cols = tuple(sorted(rng.sample(range(1, N + 1), k)))
        # the integer minor of D z is D^k times that of z
        D, w = clear_denominators(z.entries)
        exact = complex(*minors(w)[rows, cols]) / D ** k
        sub = _numeric(z)[np.ix_([r - 1 for r in rows],
                                    [c - 1 for c in cols])]
        assert abs(exact - np.linalg.det(sub)) < 1e-8


def _low_rank_hermitian(n, terms):
    """The sum of s v v* over (s, v) in terms, s rational and v a vector of
    GaussRat: exact, Hermitian and of rank at most len(terms)."""
    z = [[G(0)] * n for _ in range(n)]
    for s, v in terms:
        for i, j in product(range(n), repeat=2):
            z[i][j] = z[i][j] + G(s) * v[i] * v[j].conj()
    return HermitianMatrix(z)


_gauss_ints = st.builds(G, st.integers(-2, 2), st.integers(-2, 2))
_rank_deficient = st.integers(1, 4).flatmap(lambda n: st.builds(
    _low_rank_hermitian, st.just(n), st.lists(
        st.tuples(st.sampled_from([1, -1]), st.lists(
            _gauss_ints, min_size=n, max_size=n)), max_size=n - 1)))
_drawn = st.builds(lambda n, seed: random_exact_hermitian(
    n, random.Random(seed)), st.integers(1, 4), st.integers(0, 10 ** 6))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_rank_deficient, _drawn), st.randoms(use_true_random=False))
def test_minor_memo_matches_determinant(z, order):
    # one memo read in a random order of labels, sizes mixed: every minor
    # against a fresh elimination of its submatrix
    n = z.N
    labels = [(I, J) for k in range(1, n + 1)
              for I in product(range(1, n + 1), repeat=k)
              if list(I) == sorted(set(I))
              for J in product(range(1, n + 1), repeat=k)
              if list(J) == sorted(set(J))]
    order.shuffle(labels)
    D, w = clear_denominators(z.entries)
    dz = [[GaussRat(*x) for x in row] for row in w]
    assert dz == [[x * G(D) for x in row] for row in z.entries]
    minor = minors(w)
    for I, J in labels:
        assert GaussRat(*minor[I, J]) == _leibniz(
            [[dz[r - 1][c - 1] for c in J] for r in I]), (I, J)
    # the scan pivots once per unit of rank
    assert shape_rank(shape_of(z)) == rank(z.entries)


def test_shape_rank_is_the_pivot_count_on_draws():
    # the scan reads the rank off its own minors: against the echelon pivot
    # count on exact draws and on leaf points of random shapes, whose zero
    # slots make rank-deficient matrices, and of the zero shape
    rng = random.Random(29)
    seen = set()
    for n in range(1, 5):
        zero = ShapeMatrix(range(1, n + 1), [None] * n)
        for S in [zero] + [random_shape(n, rng) for _ in range(30)]:
            leaf = build_leaf_point(S, random_compatible_weights(S, rng))
            assert (shape_rank(shape_of(leaf)) == rank(leaf.entries)
                    == shape_rank(S))
            z = random_exact_hermitian(n, rng)
            assert shape_rank(shape_of(z)) == rank(z.entries)
            seen.update((n, shape_rank(x)) for x in (S, shape_of(z)))
    assert seen == {(n, r) for n in range(1, 5) for r in range(n + 1)}


def test_tn_invariance_examples():
    rng = random.Random(3)
    z = random_exact_hermitian(3, rng)
    assert tn_invariance_check(z, [gr_identity(3)]) is None
    shear = gr_identity(3)
    shear[0][1] = G(F(5, 3), F(-1, 2))
    assert tn_invariance_check(z, [shear]) is None
    diag = gr_identity(3)
    diag[0][0], diag[2][2] = G(2), G(F(1, 3))
    assert tn_invariance_check(z, [diag]) is None
    assert tn_invariance_check(z, [gr_identity(3), shear, diag]) is None


def test_not_triangular():
    bad = gr_identity(2)
    bad[1][0] = G(1)
    with pytest.raises(NotTriangular):
        tn_invariance_check(H([[1, 0], [0, 1]]), [bad])
    nonpos = gr_identity(2)
    nonpos[0][0] = G(-1)
    with pytest.raises(NotTriangular):
        tn_invariance_check(H([[1, 0], [0, 1]]), [nonpos])


def _assert_decomposes(z, t, M):
    """z = t* M t exactly, t unit upper triangular, M with at most one
    nonzero entry per column and the shape of z read off it."""
    n = z.N
    assert gr_matmul(gr_conj_t(t), gr_matmul(M.entries, t)) == z.entries
    assert all(t[i][j] == (1 if i == j else 0)
               for i in range(n) for j in range(i + 1))
    assert reduced_shape(M) == shape_of(z)


def test_decompose_shape_matrix_fixed_point():
    rng = random.Random(41)
    S = random_shape(3, rng)
    t, M = decompose(shape_matrix(S))
    assert t == gr_identity(3) and M.entries == shape_matrix(S).entries
    assert reduced_shape(M) == S


def test_decompose_2x2_block_example():
    d = F(3, 7)
    z = H([[0, 1], [1, d]])
    t, M = decompose(z)
    assert t == [[G(1), G(d / 2)], [G(0), G(1)]]
    assert M.entries == [[G(0), G(1)], [G(1), G(0)]]
    assert reduced_shape(M) == ShapeMatrix((2, 1), [G(1), G(1)])
    _assert_decomposes(z, t, M)


def test_decompose_matches_shape_of():
    rng = random.Random(55)
    for _ in range(50):
        N = rng.randint(1, 4)
        z = random_exact_hermitian(N, rng)
        _assert_decomposes(z, *decompose(z))


def test_decompose_takes_no_square_root():
    # diagonal and two-cycle pivots whose square roots are rational (4, 9;
    # |4|) and irrational (2, 3/2; |2|): each factors exactly, with t unit
    # upper triangular and the pivots d_p and beta left in M
    for rows, t, m in (
            ([[4, 0], [0, -9]], [[1, 0], [0, 1]], [[4, 0], [0, -9]]),
            ([[0, 4], [4, 1]], [[1, F(1, 8)], [0, 1]], [[0, 4], [4, 0]]),
            ([[2, 1], [1, -1]], [[1, F(1, 2)], [0, 1]],
             [[2, 0], [0, F(-3, 2)]]),
            ([[0, 2], [2, 0]], [[1, 0], [0, 1]], [[0, 2], [2, 0]])):
        z = H(rows)
        got_t, M = decompose(z)
        assert got_t == [[G(x) for x in row] for row in t]
        assert M.entries == H(m).entries
        _assert_decomposes(z, got_t, M)
    # a two-cycle whose diagonal entry is tiny against beta: it is
    # eliminated all the same, and M keeps beta alone in its columns
    z = H([[0, F(1, 10 ** 6), 0], [F(1, 10 ** 6), F(9, 10 ** 12), 0],
           [0, 0, 1]])
    t, M = decompose(z)
    assert reduced_shape(M).tau == (2, 1, 3) and M.entries[1][1] == 0
    _assert_decomposes(z, t, M)


def _gr_rows(rows):
    """A HermitianMatrix from rows of "re,im" strings."""
    return HermitianMatrix([[GaussRat(*(F(x) for x in e.split(",")))
                             for e in row] for row in rows])


def test_decompose_is_exact_on_the_draws_that_took_floats():
    # two draws of `check-all --N 4` (seeds 14 and 43) on which the old
    # floating-point path left a fixed slot off the real axis by 1e-12
    for rows in (
            [["-112/75,0", "-7/5,28/15", "14/5,28/15"],
             ["-7/5,-28/15", "-4543/1200,0", "287/120,21/20"],
             ["14/5,-28/15", "287/120,-21/20", "-9917/60,0"]],
            [["30,0", "36,-12", "3/2,-4", "-12,0"],
             ["36,12", "48,0", "58/15,-21/5", "-79/5,-32/9"],
             ["3/2,4", "58/15,21/5", "479/360,0", "-41/72,179/270"],
             ["-12,0", "-79/5,32/9", "-41/72,-179/270", "497/100,0"]]):
        z = _gr_rows(rows)
        t, M = decompose(z)
        _assert_decomposes(z, t, M)
        S = reduced_shape(M)
        for i in range(1, z.N + 1):
            if S.tau[i - 1] == i and S.u[i - 1] is not None:
                assert S.u[i - 1] in (G(1), G(-1))


def test_build_leaf_point_examples():
    S = ShapeMatrix((2, 1), [G(1), G(1)])
    z = build_leaf_point(S, [F(1), F(-1)])
    assert z.entries == [[G(0), G(1)], [G(1), G(0)]]
    assert charpoly(z) == [1, 0, -1]
    # c^2 = 2 * 8: the block [[0, 4], [4, -6]], spectrum {2, -8}
    z = build_leaf_point(S, [F(2), F(-8)])
    assert z.entries == [[G(0), G(4)], [G(4), G(-6)]]
    assert power_sums(z) == [-6, 4 + 64]
    S = ShapeMatrix((1, 2), [G(1), None])
    z = build_leaf_point(S, [F(7), F(0)])
    assert z.entries[0][0] == G(7) and z.entries[1][1].is_zero()
    # a slot of irrational modulus: c^2 |1 + i|^2 = 1 * 2
    S = ShapeMatrix((2, 1), [G(1, 1), G(1, -1)])
    z = build_leaf_point(S, [F(1), F(-2)])
    assert z.entries == [[G(0), G(1, -1)], [G(1, 1), G(-1)]]
    assert shape_of(z) == S and charpoly(z) == [1, 1, -2]


def test_build_sign_mismatch():
    S = ShapeMatrix((1, 2), [G(1), G(-1)])
    with pytest.raises(SignMismatch):
        build_leaf_point(S, [F(1), F(1)])
    with pytest.raises(SignMismatch):
        build_leaf_point(S, [F(1)])
    # a two-cycle takes its positive weight first
    with pytest.raises(SignMismatch):
        build_leaf_point(ShapeMatrix((2, 1), [G(1), G(1)]), [F(-8), F(2)])
    # -2 * -3 = 6 is no rational square: the pair is named
    with pytest.raises(ValueError, match=r"two-cycle \(1, 2\)"):
        build_leaf_point(ShapeMatrix((2, 1), [G(1), G(1)]), [F(2), F(-3)])


def test_leaf_roundtrip_random():
    # per-slot weights: the built point has the shape, and its power sums,
    # which fix the spectrum, are those of the weights
    rng = random.Random(90)
    for _ in range(100):
        N = rng.randint(1, 4)
        S = random_shape(N, rng)
        lam = random_compatible_weights(S, rng)
        z = build_leaf_point(S, lam)
        assert shape_of(z) == S
        assert power_sums(z) == [sum(x ** m for x in lam)
                                 for m in range(1, N + 1)]
        assert eigenvalue_signs(z) == S.sign_multiset()


def _unitary(n, rng):
    """An exact unitary: a product of rational plane rotations and phases."""
    u = gr_identity(n)
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        c, s = rng.choice([(F(3, 5), F(4, 5)), (F(5, 13), F(-12, 13)),
                           (F(0), F(1))])
        g = gr_identity(n)
        ph = rng.choice([G(1), G(0, 1), G(F(3, 5), F(4, 5))])
        if a != b:
            g[a][a], g[a][b], g[b][a], g[b][b] = G(c), G(-s) * ph, \
                G(s) * ph.conj(), G(c)
        else:
            g[a][a] = ph
        u = gr_matmul(g, u)
    assert gr_matmul(gr_conj_t(u), u) == gr_identity(n)
    return u


_SPECTRA = [[0], [F(5, 2)], [-3], [0, 0], [1, -1], [2, 2], [F(1, 2), -F(1, 3)],
            [1, -1, 0], [2, 2, -1], [0, 0, 4], [-1, -1, -1], [3, 0, 0, -3],
            [1, 1, 1, 1], [-2, -2, 0, 5], [0, 0, 0, 0], [F(7, 3), -4, -4, 0]]


def test_power_sums_and_descartes_on_known_spectra():
    # z = U* diag(lam) U for exact unitaries U has the spectrum lam, zero and
    # repeated eigenvalues included
    rng = random.Random(13)
    for lam in _SPECTRA:
        n = len(lam)
        signs = (sum(x > 0 for x in lam), sum(x < 0 for x in lam),
                 sum(x == 0 for x in lam))
        for _ in range(3):
            u = _unitary(n, rng)
            d = [[G(lam[i]) if i == j else G(0) for j in range(n)]
                 for i in range(n)]
            z = HermitianMatrix(gr_matmul(gr_conj_t(u), gr_matmul(d, u)))
            assert power_sums(z) == [sum(F(x) ** m for x in lam)
                                     for m in range(1, n + 1)]
            assert eigenvalue_signs(z) == signs, (lam, z.to_json())
            assert eigenvalue_signs(z) == shape_of(z).sign_multiset()
            # det(x - z) = prod (x - lam_i), multiplied out
            poly = [F(1)]
            for x in lam:
                poly = [a - x * b for a, b in zip(poly + [0], [0] + poly)]
            assert charpoly(z) == poly


def test_sign_compatibility_random():
    rng = random.Random(17)
    for _ in range(100):
        N = rng.randint(1, 4)
        z = random_exact_hermitian(N, rng)
        s = shape_of(z)
        zero = N - rank(z.entries)
        ev = np.linalg.eigvalsh(_numeric(z))
        nonzero = ev[np.argsort(np.abs(ev))[zero:]]
        signs = (int(np.sum(nonzero > 0)), int(np.sum(nonzero < 0)), zero)
        assert s.sign_multiset() == signs and eigenvalue_signs(z) == signs
        for m, p in enumerate(power_sums(z), start=1):
            assert p.is_real()
            assert abs(float(p.re) - np.sum(ev ** m)) <= 1e-9 * max(
                1.0, float(np.sum(np.abs(ev) ** m)))


def _ref_shape_of(z):
    """The shape of z by the scan of shape_of over GaussRat minors, each a
    fresh determinant, and GaussRat pivot ratios: the reference of the
    integer scan."""
    N = z.N
    tau, u = list(range(1, N + 1)), [None] * N
    pairs, prev_cols, prev_rows, prev = [], (), (), G(1)
    for k in range(1, N + 1):
        labels = list(combinations(range(1, N + 1), k))
        pivot = next(((J, I, v) for J in labels for I in labels
                      if not (v := _leibniz([[z.entries[r - 1][c - 1]
                                              for c in J] for r in I]))
                      .is_zero()), None)
        if pivot is None:
            break
        J, I, val = pivot
        (p,), (tp,) = set(J) - set(prev_cols), set(I) - set(prev_rows)
        pairs.append((p, tp))
        images = [dict(pairs)[x] for x in J]
        inv = sum(images[a] > images[b] for a in range(k)
                  for b in range(a + 1, k))
        direction = -val if inv % 2 else val
        tau[p - 1], tau[tp - 1] = tp, p
        u[p - 1] = direction / prev
        if tp != p:
            u[tp - 1] = u[p - 1].conj()
        prev_cols, prev_rows, prev = J, I, direction
    return ShapeMatrix(tau, u)


def _ref_spectrum(z):
    """(power sums, characteristic polynomial, sign counts) of z over
    GaussRat and Fraction: traces of the dense powers, Newton's identities
    and Descartes' rule, the reference of the integer spectrum."""
    sums, power = [], z.entries
    for _ in range(z.N):
        sums.append(reduce(add, (power[i][i] for i in range(z.N))))
        power = gr_matmul(power, z.entries)
    e = [F(1)]
    for k in range(1, z.N + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1].re
                     for i in range(1, k + 1)) / k)
    poly = [-c if k % 2 else c for k, c in enumerate(e)]

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    signs = (changes(poly),
             changes([-c if k % 2 else c for k, c in enumerate(poly)]),
             z.N - max(k for k, c in enumerate(poly) if c))
    return sums, poly, signs


_ratios = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_gauss_rats = st.builds(GaussRat, _ratios, _ratios)


def _sparse_hermitian(rows):
    """The Hermitian matrix with the upper triangle of rows, its diagonal
    entries' real parts on the diagonal."""
    n = len(rows)
    return HermitianMatrix([[rows[i][j] if i < j else rows[j][i].conj()
                             if i > j else G(rows[i][i].re)
                             for j in range(n)] for i in range(n)])


def _exact_pair(n):
    """A Hermitian z of size n and a square t of size n, with mixed
    denominators.  z is either a sum of at most n rational multiples of
    v v*, so of any rank up to n, or has entries that are zero half the
    time, so that two-cycles start the pivot chain."""
    vectors = st.lists(_gauss_rats, min_size=n, max_size=n)
    sparse = st.lists(st.one_of(st.just(G(0)), _gauss_rats),
                      min_size=n, max_size=n)
    return st.tuples(st.one_of(
        st.builds(_low_rank_hermitian, st.just(n), st.lists(st.tuples(
            st.sampled_from([F(1), F(-1), F(1, 2), F(-3, 7)]), vectors),
            max_size=n)),
        st.builds(_sparse_hermitian, st.lists(sparse, min_size=n,
                                              max_size=n))),
        st.lists(vectors, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(_exact_pair))
def test_integer_kernel_matches_the_exact_reference(zt):
    # the integer kernel over D z against the GaussRat and Fraction
    # algorithms it replaced, on exact draws of every rank
    z, t = zt
    assert (z.D, z.w) == clear_denominators(z.entries)
    assert shape_of(z) == _ref_shape_of(z)
    assert congruence(t, z.entries) == gr_matmul(
        gr_conj_t(t), gr_matmul(z.entries, t))
    sums, poly, signs = _ref_spectrum(z)
    got = power_sums(z)
    assert got == sums and all(type(x) is GaussRat for x in got)
    got = charpoly(z)
    assert got == poly and all(type(x) is F for x in got)
    assert eigenvalue_signs(z) == signs


def test_bivector_trivial_points():
    # the bracket vanishes exactly at 0 and at the identity
    for z in (H([[0, 0], [0, 0]]), H([[1, 0, 0], [0, 1, 0], [0, 0, 1]])):
        assert all(v.is_zero() for row in bracket_at(z) for v in row)


def test_bivector_diag_structure():
    # at diag(1, -1) the only nonzero brackets pair the two off-diagonal
    # coordinates: {Z_12, Z_21} = -4i = -{Z_21, Z_12}
    from qrea import checks
    z = H([[1, 0], [0, -1]])
    assert checks.bivector_mismatch(z) is None
    pi = bracket_at(z)
    assert {(a, b) for a in range(4) for b in range(4)
            if not pi[a][b].is_zero()} == {(1, 2), (2, 1)}
    assert pi[1][2] == G(0, -4) and pi[2][1] == G(0, 4)


def test_tangency_zero_point():
    rep = leaf_tangency_check(H([[0, 0], [0, 0]]))
    assert rep == {"bivector_rank": 0, "unitary_dim": 0, "triangular_dim": 0,
                   "intersection_dim": 0, "equal": True}


def test_tangency_diag():
    rep = leaf_tangency_check(H([[1, 0], [0, -1]]))
    assert rep == {"bivector_rank": 2, "unitary_dim": 2, "triangular_dim": 4,
                   "intersection_dim": 2, "equal": True}


def test_tangency_random_sweep():
    # exact random points, and exact leaf points of random shapes: no draw
    # is skipped, and at n = 3 the draws reach leaves of several ranks
    rng = random.Random(23)
    for n in (2, 3):
        points = [random_exact_hermitian(n, rng) for _ in range(15)]
        for _ in range(15):
            S = random_shape(n, rng)
            points.append(build_leaf_point(S, random_compatible_weights(S,
                                                                        rng)))
        ranks = set()
        for z in points:
            rep = leaf_tangency_check(z)
            assert rep["equal"], (z.to_json(), rep)
            ranks.add(rep["bivector_rank"])
        assert n == 2 or len(ranks) > 1, ranks


def orbit_tangents(z):
    """The tangents a* z + z a of the unitary and the triangular dressing
    orbits at the exact z, as lists of their N^2 entries in row-major order,
    for a over the bases of classical._tangency_plan: i e_ii, i (e_ij + e_ji)
    and e_ji - e_ij of u(N), then e_ii, e_ij and i e_ij of b(N) (i < j), each
    indexed like the entries.  The complex reference of the integer
    tangents."""
    e, N = z.entries, z.N
    units = [G(1), G(0, 1), G(-1), G(0, -1)]

    def tangent(*a):
        # a lists (r, c, p) for the terms i^p e_rc of a; an entry that no
        # term reaches (None) is zero
        v = [[None] * N for _ in range(N)]

        def add(x, y, w):
            v[x][y] = w if v[x][y] is None else v[x][y] + w

        for r, c, p in a:
            for k in range(N):
                add(c, k, e[r][k] * units[-p % 4])
                add(k, c, e[k][r] * units[p % 4])
        return [G(0) if y is None else y for row in v for y in row]

    pairs = list(product(range(N), repeat=2))
    U = [tangent((r, r, 1)) if r == c else tangent((r, c, 1), (c, r, 1))
         if r < c else tangent((c, r, 2), (r, c, 0)) for r, c in pairs]
    T = [tangent((r, c, 0)) if r <= c else tangent((c, r, 1))
         for r, c in pairs]
    return U, T


def real_coordinates(v, n):
    """The real coordinates of _tangency_plan of a Hermitian matrix given
    by its n^2 entries in row-major order: the diagonal entries, then
    2 Re v_ij at (i, j) and 2 Im v_ij at (j, i) for i < j."""
    return [v[i * n + i].re if i == j else 2 * v[i * n + j].re if i < j
            else 2 * v[j * n + i].im for i, j in product(range(n), repeat=2)]


def test_tangency_ranks_are_those_of_the_full_eliminations_at_z():
    # leaf_tangency_check eliminates over Z in the real coordinates, with
    # pi's pivot columns only: every rank is that over Q(i), taken by
    # realification, of all N^2 columns of pi and of the complex tangents
    # at z itself; on draws at n = 1..4, leaf points of random shapes at
    # n <= 3, and the zero point
    rng = random.Random(31)
    points = [random_exact_hermitian(n, rng) for n in (1, 2, 3, 4)
              for _ in range(10 if n < 4 else 3)]
    for n in (1, 2, 3):
        points.append(HermitianMatrix([[G(0)] * n for _ in range(n)]))
        for _ in range(10):
            S = random_shape(n, rng)
            points.append(build_leaf_point(S, random_compatible_weights(S,
                                                                        rng)))
    ranks = set()
    for z in points:
        pi = [list(c) for c in zip(*bracket_at(z))]
        U, T = orbit_tangents(z)
        rank_u, rank_up, rank_upt = rank(U), rank(U + pi), rank(U + pi + T)
        rank_t, rank_tp, rank_pi = rank(T), rank(T + pi), rank(pi)
        inter = rank_u + rank_t - rank_upt
        assert leaf_tangency_check(z) == {
            "bivector_rank": rank_pi, "unitary_dim": rank_u,
            "triangular_dim": rank_t, "intersection_dim": inter,
            "equal": (rank_up == rank_u and rank_tp == rank_t
                      and rank_pi == inter)}, z.to_json()
        ranks.add((z.N, rank_pi))
    assert {r for n, r in ranks if n == 3} == {0, 2, 4, 6}, ranks


def _dense(n, *entries):
    m = [[G(0)] * n for _ in range(n)]
    for r, c, x in entries:
        m[r][c] = x
    return m


def test_tangent_coordinates_against_the_trace_loop():
    # the sparse complex orbit tangents against a* z + z a multiplied out
    # densely, over the dense real bases of u(n) and b(n); and the integer
    # tangents of the plan at the real coordinates x of z against twice
    # the real coordinates of the complex ones.  Exact, so equality
    i = G(0, 1)
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        z = random_exact_hermitian(n, rng)
        pairs = list(product(range(n), repeat=2))
        unitary = [_dense(n, (r, r, i)) if r == c
                   else _dense(n, (r, c, i), (c, r, i)) if r < c
                   else _dense(n, (r, c, G(1)), (c, r, G(-1)))
                   for r, c in pairs]
        triangular = [_dense(n, (r, c, G(1))) if r <= c
                      else _dense(n, (c, r, i)) for r, c in pairs]
        for a in unitary:
            assert gr_conj_t(a) == [[-x for x in row] for row in a]
        for a in triangular:
            assert all(a[r][c].is_zero() for r in range(n) for c in range(r))
            assert all(a[k][k].is_real() for k in range(n))
        U, T = orbit_tangents(z)
        for basis, got in ((unitary, U), (triangular, T)):
            loop = []
            for a in basis:
                v = [[x + y for x, y in zip(r1, r2)]
                     for r1, r2 in zip(gr_matmul(gr_conj_t(a), z.entries),
                                       gr_matmul(z.entries, a))]
                assert v == gr_conj_t(v)        # tangent to Herm(n)
                loop.append([x for row in v for x in row])
            assert len(got) == n * n and got == loop
        x = real_coordinates([e for row in z.entries for e in row], n)
        integer = [[0] * (n * n) for _ in range(2 * n * n)]
        for a, t, b, c in classical._TANGENCY_PLANS[n][1]:
            integer[t][a] += c * x[b]
        assert integer == [[2 * y for y in real_coordinates(v, n)]
                           for v in U + T]


@pytest.mark.parametrize("perturb", [None, perturbed_bracket],
                         ids=["table", "perturbed"])
def test_integer_bracket_forms_against_the_table(perturb):
    # the plan's integer forms at the real coordinates x of z, real and
    # imaginary parts, against 4 {x_a, x_b}(z) from bracket_at, with
    # x_(i,j) = Z_ij + Z_ji and x_(j,i) = i (Z_ji - Z_ij) for i < j; on the
    # table and on a bracket that breaks antisymmetry and reality, which
    # the forms must keep
    rng = random.Random(6)
    with pytest.MonkeyPatch.context() as mp:
        fresh_memos(mp)
        if perturb:
            perturb(mp)
        for n in (2, 3) if perturb else (1, 2, 3):
            coordinate = [{i * n + i: G(1)} if i == j
                          else {i * n + j: G(1), j * n + i: G(1)} if i < j
                          else {j * n + i: G(0, -1), i * n + j: G(0, 1)}
                          for i, j in product(range(n), repeat=2)]
            bracket = classical._TANGENCY_PLANS[n][0]
            nonreal = [a for a, *_ in bracket if a >= n * n]
            assert bool(nonreal) == (perturb is not None)
            for _ in range(3):
                z = random_exact_hermitian(n, rng)
                pi = bracket_at(z)
                x = real_coordinates([e for row in z.entries for e in row], n)
                got = [[0] * (n * n) for _ in range(2 * n * n)]
                for a, b, u, v, c in bracket:
                    got[a][b] += c * x[u] * x[v]
                want = [[reduce(add, (G(4) * cp * cr * pi[p][r]
                                      for p, cp in ca.items()
                                      for r, cr in cb.items()))
                         for cb in coordinate] for ca in coordinate]
                assert got == [[w.re for w in row] for row in want] + [
                    [w.im for w in row] for row in want]


def test_jacobi():
    assert jacobi_check(2, samples=100, seed=2) is None
    assert jacobi_check(3, samples=20, seed=2) is None


def _jacobi_by_every_triple(N, samples, seed):
    """The Jacobi check as one cyclic sum per ordered triple, every point
    drawn, every sum evaluated: the reference for jacobi_check."""
    from qrea import classical
    table = classical.poisson_bracket_coeffs(N)
    coords = list(product(range(1, N + 1), repeat=2))
    cyclic = {}
    for f, g, h in product(coords, repeat=3):
        total = {}
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            for mono, x in table[(b, c)].items():
                for pos, var in enumerate(mono):
                    rest = mono[:pos] + mono[pos + 1:]
                    for m2, y in table[(a, var)].items():
                        add_term(total, tuple(sorted(m2 + rest)), x * y)
        if total:
            cyclic[(f, g, h)] = total
    rng = random.Random(seed)
    points = [random_exact_hermitian(N, rng).entries for _ in range(samples)]
    values = []
    for e in points:
        for poly in cyclic.values():
            v = G(0)
            for mono, c in poly.items():
                for i, j in mono:
                    c = c * e[i - 1][j - 1]
                v = v + c
            values.append(v)
    worst = max(values, key=GaussRat.abs2, default=G(0))
    first = next(({"triple": t, "monomial": min(poly),
                   "coefficient": poly[min(poly)].to_json()}
                  for t, poly in cyclic.items()), None)
    return len(cyclic), first, worst


@pytest.mark.parametrize("N, samples", [(2, 40), (3, 4)])
def test_jacobi_per_cyclic_class_matches_every_triple(monkeypatch, N,
                                                      samples):
    assert jacobi_check(N, samples=samples, seed=3) is None
    assert _jacobi_by_every_triple(N, samples, 3) == (0, None, G(0))
    perturbed_bracket(monkeypatch)
    failure = jacobi_check(N, samples=samples, seed=3)
    count, first, worst = _jacobi_by_every_triple(N, samples, 3)
    assert count > 0 and not worst.is_zero()
    assert failure == {"nonzero_cyclic_polys": count, "first": first,
                       "max_residual": worst.to_json()}


def _kron(a, b):
    n = len(a)
    return [[a[i][k] * b[j][l] for k in range(n) for l in range(n)]
            for i in range(n) for j in range(n)]


def _combine(*terms):
    """The sum of sign * (product of the matrices) over (sign, matrices)."""
    out = None
    for sign, mats in terms:
        m = mats[0]
        for x in mats[1:]:
            m = gr_matmul(m, x)
        m = [[G(sign) * e for e in row] for row in m]
        out = m if out is None else [[x + y for x, y in zip(r1, r2)]
                                     for r1, r2 in zip(out, m)]
    return out


def test_bracket_matrix_evaluates_the_exact_table():
    # the bracket at exact points against -i times the ((i,k), (j,l)) entry
    # of r21 Z1 Z2 - Z1 Z2 r + Z1 r Z2 - Z2 r21 Z1, multiplied out densely
    # from Kronecker products, r = sum e_ii (x) e_ii + 2 sum_{i<j} e_ij (x) e_ji
    rng = random.Random(5)
    for n in (1, 2, 3):
        z = random_exact_hermitian(n, rng)
        one = gr_identity(n)
        z1, z2 = _kron(z.entries, one), _kron(one, z.entries)
        unit = [[_dense(n, (a, b, G(1))) for b in range(n)] for a in range(n)]
        r = _combine(*[(1, [_kron(unit[a][a], unit[a][a])]) for a in range(n)],
                     *[(2, [_kron(unit[a][b], unit[b][a])])
                       for a in range(n) for b in range(a + 1, n)])
        r21 = [[r[j * n + i][l * n + k] for k in range(n) for l in range(n)]
               for i in range(n) for j in range(n)]
        m = _combine((1, [r21, z1, z2]), (-1, [z1, z2, r]), (1, [z1, r, z2]),
                     (-1, [z2, r21, z1]))
        pi = bracket_at(z)
        for i, j, k, l in product(range(n), repeat=4):
            assert pi[i * n + j][k * n + l] == G(0, -1) * m[i * n + k][j * n + l]


def test_bracket_antisymmetry_symbolic():
    table = poisson_bracket_coeffs(3)
    for (a, b), poly in table.items():
        flipped = table[(b, a)]
        assert set(poly) == set(flipped)
        for mono, c in poly.items():
            assert flipped[mono] == -c


def test_matrix_json_roundtrip():
    z = H([[1, (0, 2)], [(0, -2), -3]])
    z2 = HermitianMatrix.from_json(z.to_json())
    assert z2.entries == z.entries
    # a numeric file: each float is read as the binary rational it denotes
    zn = HermitianMatrix.from_json({"N": 2, "mode": "numeric", "entries": [
        [{"re": 0.1, "im": 0.0}, {"re": 0.0, "im": 1.5}],
        [{"re": 0.0, "im": -1.5}, {"re": -2.0, "im": 0.0}]]})
    assert zn.entries == [[G(F(0.1)), G(0, F(3, 2))],
                          [G(0, F(-3, 2)), G(-2)]]
    assert F(0.1) != F(1, 10)
    for obj in ({"N": 0, "mode": "exact", "entries": []},
                {"N": 2, "mode": "exact", "entries": [[{"re": "1"}]]},
                {"N": 1, "mode": "float", "entries": [[{"re": "1"}]]},
                # floats are read only from a numeric file
                {"N": 1, "mode": "exact", "entries": [[{"re": 0.1}]]},
                {"N": 1, "mode": "exact",
                 "entries": [[{"re": "1", "im": 0.0}]]},
                # a part is an int that is not a bool or a rational string,
                # with no key besides re and im, and a float is finite
                {"N": 1, "mode": "exact", "entries": [[{"re": True}]]},
                {"N": 1, "mode": "exact",
                 "entries": [[{"re": "1", "typo": "5"}]]},
                {"N": 1, "mode": "numeric",
                 "entries": [[{"re": float("inf")}]]}):
        with pytest.raises(ValueError):
            HermitianMatrix.from_json(obj)
    with pytest.raises(ValueError):
        H([[1, (0, 1)], [(0, 1), 0]])           # not self-adjoint
    with pytest.raises(ValueError):
        H([[(0, 1), 0], [0, 1]])                # a non-real diagonal
    with pytest.raises(ValueError):
        H([[1, 0]])                             # not square


def test_shape_matrix_validation():
    with pytest.raises(ValueError):
        ShapeMatrix((2, 1), [G(1), G(-1)])       # not conjugate-symmetric
    with pytest.raises(ValueError):
        ShapeMatrix((2, 1), [None, None])        # zero slots on a 2-cycle
    with pytest.raises(ValueError):
        ShapeMatrix((1, 2), [G(0, 1), G(1)])     # a fixed slot off the axis
    with pytest.raises(ValueError):
        ShapeMatrix((1, 2), [G(0), G(1)])        # zero, not None
    with pytest.raises(ValueError):
        ShapeMatrix((1, 2), [G(1)])              # one slot short


def test_shape_slots_are_canonical_rays():
    # a slot stands for its direction: a unit phase when its modulus is
    # rational, else the primitive Gaussian integer on it
    S = ShapeMatrix((2, 1, 3), [G(2), G(F(1, 2)), G(F(-3, 7))])
    assert S.u == [G(1), G(1), G(-1)]
    S = ShapeMatrix((2, 1), [G(F(3, 2), 2), G(F(3, 7), F(-4, 7))])
    assert S.u == [G(F(3, 5), F(4, 5)), G(F(3, 5), F(-4, 5))]
    S = ShapeMatrix((2, 1), [G(F(2, 3), F(2, 3)), G(5, -5)])
    assert S.u == [G(1, 1), G(1, -1)]
    assert S == ShapeMatrix((2, 1), [G(7, 7), G(1, -1)])
    assert S != ShapeMatrix((2, 1), [G(1, 2), G(1, -2)])
    # the shape of [[0, 1 - i], [1 + i, 0]] reads the slot 1 + i, of
    # irrational modulus, both by the minor scan and off decompose's M
    z = H([[0, (1, -1)], [(1, 1), 0]])
    assert shape_of(z) == S == reduced_shape(decompose(z)[1])


# -- witnesses of the classical suites: rows of the mutation table -----------

test_tn_invariance_witness_names_sample_and_element = row_test(
    "classical.tn-invariance")
test_tangency_witness_names_first_failing_sample = row_test(
    "classical.tangency third-draw")
test_tangency_fails_when_the_draws_reach_one_rank = row_test(
    "classical.tangency one-rank")
test_poisson_suites_fail_on_a_perturbed_bracket = row_test(
    "classical.bivector-antisymmetry", "classical.tangency", "classical.jacobi")
test_shape_roundtrip_witness_names_first_failing_sample = row_test(
    "classical.shape-roundtrip")
test_sign_compatibility_witness_names_first_failing_sample = row_test(
    "classical.sign-compatibility")
test_decompose_witness_names_first_failing_sample = row_test(
    "classical.decompose")


def test_decompose_mismatch_laws():
    from qrea import checks
    zero = H([[0, 0], [0, 0]])
    lower = [[G(1), G(0)], [G(1), G(1)]]
    assert checks.decompose_mismatch(zero, lower, zero) == {
        "law": "unit upper triangular", "entry": [2, 1],
        "got": {"re": "1", "im": "0"}}
    ones = H([[1, 1], [1, 1]])
    assert checks.decompose_mismatch(ones, gr_identity(2), ones)["law"] == \
        "reduced"
    assert checks.decompose_mismatch(ones, *decompose(ones)) is None


def test_poisson_suites_leave_the_shared_table_as_built():
    # last in this file, so that it runs after every test above that
    # perturbs the bracket: the table poisson_bracket_coeffs shares, and the
    # tangency plan read off it, must still be the ones they built
    from qrea import checks
    for n in (2, 3):
        for suite in (checks.check_bivector, checks.check_tangency,
                      checks.check_jacobi, checks.check_semiclassical):
            assert all(c.status == "pass" for c in suite(n, 0))
    for n in (2, 3):
        assert poisson_bracket_coeffs(n) == \
            classical._BRACKET_TABLES.compute(n)
        assert classical._TANGENCY_PLANS[n] == \
            classical._TANGENCY_PLANS.compute(n)
