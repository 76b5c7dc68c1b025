import random
from fractions import Fraction as F

import numpy as np
import pytest

from qrea.classical import (GaussRat, HermitianMatrix, IllConditioned,
                            NotTriangular, ShapeMatrix, SignMismatch,
                            bracket_matrix_at, build_leaf_point, decompose, decompose_residual,
                            exact_minor, gr_conj_t, gr_identity,
                            gr_matmul, jacobi_check, leaf_label,
                            leaf_tangency_check, poisson_bivector,
                            poisson_bracket_coeffs, random_compatible_weights,
                            random_exact_hermitian, random_shape,
                            random_numeric_hermitian, random_triangular,
                            realification_basis, shape_of, tn_invariance_check,
                            weight_sign, _tangent_coords, _triangular_lie_basis,
                            _unitary_lie_basis)
from qrea.linalg import rank


def G(re, im=0):
    return GaussRat(F(re), F(im))


def H(rows):
    return HermitianMatrix([[G(*e) if isinstance(e, tuple) else G(e)
                             for e in row] for row in rows])


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
        z = S.matrix()
        assert shape_of(z).same_shape(S)


def test_generate_and_recover_roundtrip():
    rng = random.Random(77)
    for _ in range(100):
        N = rng.randint(1, 4)
        S = random_shape(N, rng)
        t = random_triangular(N, rng)
        z = gr_matmul(gr_conj_t(t), gr_matmul(S.matrix().entries, t))
        assert shape_of(HermitianMatrix(z)).same_shape(S)


def test_rank_zero():
    s = shape_of(H([[0, 0], [0, 0]]))
    assert s.rank == 0 and s.tau == (1, 2)


def test_exact_minor_against_numpy():
    rng = random.Random(19)
    for _ in range(25):
        N = rng.randint(1, 4)
        z = random_exact_hermitian(N, rng)
        k = rng.randint(1, N)
        rows = tuple(sorted(rng.sample(range(1, N + 1), k)))
        cols = tuple(sorted(rng.sample(range(1, N + 1), k)))
        exact = exact_minor(z.entries, rows, cols).to_complex()
        sub = z.to_numeric()[np.ix_([r - 1 for r in rows],
                                    [c - 1 for c in cols])]
        assert abs(exact - np.linalg.det(sub)) < 1e-8


def test_tn_invariance_examples():
    rng = random.Random(3)
    z = random_exact_hermitian(3, rng)
    assert tn_invariance_check(z, gr_identity(3))
    shear = gr_identity(3)
    shear[0][1] = G(F(5, 3), F(-1, 2))
    assert tn_invariance_check(z, shear)
    diag = gr_identity(3)
    diag[0][0], diag[2][2] = G(2), G(F(1, 3))
    assert tn_invariance_check(z, diag)


def test_not_triangular():
    bad = gr_identity(2)
    bad[1][0] = G(1)
    with pytest.raises(NotTriangular):
        tn_invariance_check(H([[1, 0], [0, 1]]), bad)
    nonpos = gr_identity(2)
    nonpos[0][0] = G(-1)
    with pytest.raises(NotTriangular):
        tn_invariance_check(H([[1, 0], [0, 1]]), nonpos)


def test_decompose_shape_matrix_fixed_point():
    rng = random.Random(41)
    S = random_shape(3, rng)
    t, S2 = decompose(S.matrix())
    assert S2.same_shape(S)
    tn = t.to_numeric()
    assert np.max(np.abs(tn - np.eye(3))) < 1e-12


def test_decompose_2x2_block_example():
    d = F(3, 7)
    z = H([[0, 1], [1, 0]])
    z.entries[1][1] = G(d)
    t, S = decompose(z)
    assert S.tau == (2, 1) and S.u[0] == G(1) and S.u[1] == G(1)
    assert t.entries[0][0] == G(1)
    assert t.entries[0][1] == G(d / 2)
    assert decompose_residual(z, t, S) == 0.0


def test_decompose_random_numeric_n4():
    rng = np.random.default_rng(7)
    for _ in range(10):
        zr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z = HermitianMatrix((zr + zr.conj().T) / 2, mode="numeric")
        t, S = decompose(z)
        assert decompose_residual(z, t, S) <= 1e-9
        assert np.all(np.real(np.diag(t.to_numeric())) > 0)


def test_decompose_matches_shape_of():
    rng = random.Random(55)
    for _ in range(50):
        N = rng.randint(1, 4)
        z = random_exact_hermitian(N, rng)
        t, S = decompose(z)
        assert shape_of(z).same_shape(S, tol=1e-8)
        assert decompose_residual(z, t, S) <= 1e-9


def test_decompose_is_exact_only_on_rational_roots():
    # diagonal and two-cycle pivots, each with a rational and an irrational
    # square root: sqrt 4 and sqrt 9, sqrt|4|; sqrt 2, sqrt|2|
    for entries, mode in (([[4, 0], [0, -9]], "exact"),
                          ([[0, 4], [4, 1]], "exact"),
                          ([[2, 1], [1, -1]], "numeric"),
                          ([[0, 2], [2, 0]], "numeric")):
        z = H(entries)
        t, S = decompose(z)
        assert t.mode == mode and S.is_exact() == (mode == "exact")
        assert shape_of(z).same_shape(S, tol=1e-12)
        assert decompose_residual(z, t, S) <= 1e-12
        assert np.all(np.diag(t.to_numeric()).real > 0)
    t, _ = decompose(H([[4, 0], [0, -9]]))
    assert t.entries == [[G(2), G(0)], [G(0), G(3)]]
    # a two-cycle whose diagonal entry is below the zero test: it is still
    # eliminated, not scaled by 1/|beta| into a second nonzero in its column
    z = HermitianMatrix(np.array([[0, 1e-6, 0], [1e-6, 9e-12, 0], [0, 0, 1]],
                                 dtype=complex), mode="numeric")
    t, S = decompose(z)
    assert S.tau == (2, 1, 3) and decompose_residual(z, t, S) <= 1e-12


def test_build_leaf_point_examples():
    S = ShapeMatrix((2, 1), [G(1), G(1)])
    z = build_leaf_point(S, [F(1), F(-1)])
    assert z.mode == "exact"
    assert z.entries[0][1] == G(1) and z.entries[1][1].is_zero()
    lam = sorted(z.eigenvalues())
    assert abs(lam[0] + 1) < 1e-12 and abs(lam[1] - 1) < 1e-12

    z = build_leaf_point(S, [F(2), F(-3)])
    lam = z.eigenvalues()
    assert abs(lam[0] + 3) < 1e-9 and abs(lam[1] - 2) < 1e-9

    S = ShapeMatrix((1, 2), [G(1), None])
    z = build_leaf_point(S, [F(7), F(0)])
    assert z.entries[0][0] == G(7) and z.entries[1][1].is_zero()


def test_build_sign_mismatch():
    S = ShapeMatrix((1, 2), [G(1), G(-1)])
    with pytest.raises(SignMismatch):
        build_leaf_point(S, [F(1), F(1)])


def test_leaf_roundtrip_random():
    rng = random.Random(90)
    for _ in range(100):
        N = rng.randint(1, 4)
        S = random_shape(N, rng)
        lam = random_compatible_weights(S, rng)
        z = build_leaf_point(S, lam)
        lab = leaf_label(z)
        if z.mode == "exact":
            assert lab.shape.same_shape(S)
        target = np.sort(np.array([float(x) for x in lam]))
        assert np.max(np.abs(np.array(lab.weight) - target)) <= 1e-9
        assert weight_sign(lab.weight, zero_tol=1e-9) == S.sign_multiset()


def test_sign_compatibility_random():
    rng = random.Random(17)
    for _ in range(100):
        N = rng.randint(1, 4)
        z = random_exact_hermitian(N, rng)
        s = shape_of(z)
        zero = N - rank(z.entries)
        ev = z.eigenvalues()
        nonzero = ev[np.argsort(np.abs(ev))[zero:]]
        assert s.sign_multiset() == (int(np.sum(nonzero > 0)),
                                     int(np.sum(nonzero < 0)), zero)


def test_bivector_trivial_points():
    z0 = HermitianMatrix(np.zeros((2, 2)), mode="numeric")
    assert np.max(np.abs(poisson_bivector(z0))) == 0.0
    z1 = HermitianMatrix(np.eye(3), mode="numeric")
    assert np.max(np.abs(poisson_bivector(z1))) < 1e-13


def test_bivector_diag_structure():
    # at diag(1,-1) the only nonzero directions mix the two off-diagonal
    # realification coordinates
    z = HermitianMatrix(np.diag([1.0, -1.0]), mode="numeric")
    pi = poisson_bivector(z)
    assert np.max(np.abs(pi[:2, :])) < 1e-13
    assert np.max(np.abs(pi[:, :2])) < 1e-13
    assert abs(pi[2, 3]) > 0.5


def test_tangency_zero_point():
    rep = leaf_tangency_check(HermitianMatrix(np.zeros((2, 2)), mode="numeric"))
    assert rep == {"bivector_rank": 0, "unitary_dim": 0, "triangular_dim": 0,
                   "intersection_dim": 0, "equal": True}


def test_tangency_diag():
    rep = leaf_tangency_check(HermitianMatrix(np.diag([1.0, -1.0]),
                                              mode="numeric"))
    assert rep["equal"]
    assert rep["bivector_rank"] == rep["intersection_dim"] == 2


def test_tangency_random_sweep():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        done = 0
        while done < 15:
            zr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            z = HermitianMatrix((zr + zr.conj().T) / 2, mode="numeric")
            try:
                rep = leaf_tangency_check(z)
            except IllConditioned:
                continue
            assert rep["equal"], rep
            done += 1


def test_tangent_coordinates_against_the_trace_loop():
    # the one-einsum projection of the orbit tangents against tr(E v) taken
    # one basis pair at a time; the summation order differs, so the bound is
    # a float64 rounding bound, not equality
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4):
        zn = random_numeric_hermitian(n, rng)
        E = realification_basis(n)
        for lie in (_unitary_lie_basis(n), _triangular_lie_basis(n)):
            loop = np.array([[np.trace(e @ (a.conj().T @ zn + zn @ a)).real
                              for a in lie] for e in E])
            got = _tangent_coords(zn, lie, E)
            assert got.shape == loop.shape == (n * n, n * n)
            assert np.max(np.abs(got - loop)) <= 1e-12 * np.max(np.abs(zn))


def test_jacobi():
    rep = jacobi_check(2, samples=100, seed=2)
    assert rep["ok"] and rep["max_residual"] <= 1e-8
    rep = jacobi_check(3, samples=20, seed=2)
    assert rep["ok"]


def test_bracket_matrix_evaluates_the_exact_table():
    # the numeric bracket at an exact point against the exact quadratic
    # forms evaluated in exact arithmetic, entry by entry
    rng = random.Random(5)
    for n in (1, 2, 3):
        z = random_exact_hermitian(n, rng)
        got = bracket_matrix_at(z.to_numeric())
        for ((i, j), (k, l)), form in poisson_bracket_coeffs(n).items():
            exact = GaussRat(0)
            for ((a, b), (c, d)), g in form.items():
                exact = exact + g * z.entries[a - 1][b - 1] * z.entries[c - 1][d - 1]
            assert abs(got[i - 1, j - 1, k - 1, l - 1] - exact.to_complex()) < 1e-9


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
    zn = HermitianMatrix(np.array([[1.0, 1j], [-1j, 0.0]]), mode="numeric")
    zn2 = HermitianMatrix.from_json(zn.to_json())
    assert np.max(np.abs(zn.entries - zn2.entries)) == 0.0


def test_shape_matrix_validation():
    with pytest.raises(ValueError):
        ShapeMatrix((2, 1), [G(2), G(F(1, 2))])  # not unimodular
    with pytest.raises(ValueError):
        ShapeMatrix((2, 1), [G(1), G(-1)])       # not conjugate-symmetric
    with pytest.raises(ValueError):
        ShapeMatrix((2, 1), [None, None])        # zero slots on a 2-cycle


def _congruence_by_lower(z, t):
    """A wrong tn-invariance check: congruence by the lower-triangular t*
    instead of t, which moves the shape."""
    zt = gr_matmul(t, gr_matmul(z.entries, gr_conj_t(t)))
    return shape_of(z).same_shape(shape_of(HermitianMatrix(zt, mode="exact")))


def test_tn_invariance_witness_names_sample_and_element(monkeypatch):
    from qrea import checks, classical
    monkeypatch.setattr(classical, "tn_invariance_check", _congruence_by_lower)
    cert, = checks.check_tn_invariance(3, 0)
    assert cert.status == "fail"
    first = cert.witness["first"]
    assert cert.witness["failures"] >= 1
    assert first["element"] in ("shear", "diagonal", "general")
    z = HermitianMatrix.from_json(first["z"])
    t = [[GaussRat.from_json(e) for e in row] for row in first["t"]]
    assert not _congruence_by_lower(z, t)
    assert tn_invariance_check(z, t)
    # it is the first: the samples before it pass even the wrong check
    assert checks.tn_invariance_samples(3, first["sample"],
                                        random.Random(0)) \
        == [None] * first["sample"]


def test_tangency_witness_names_first_failing_sample(monkeypatch):
    from qrea import checks, classical
    right = classical.leaf_tangency_check
    calls = []

    def flaky(z):
        calls.append(z)
        rep = right(z)
        return {**rep, "equal": rep["equal"] and len(calls) != 3}

    monkeypatch.setattr(classical, "leaf_tangency_check", flaky)
    cert = checks.check_tangency(2, 0)[0]
    assert cert.status == "fail"
    assert cert.witness["failures"] == 1
    assert cert.witness["first"]["sample"] == 2
    assert cert.witness["first"]["equal"] is False


def test_decompose_witness_names_first_failing_sample(monkeypatch):
    from qrea import checks, classical
    right = classical.decompose
    calls = []

    def negated_on_third_call(z):
        # -t keeps z = t* S t and the shape but not the positive diagonal
        calls.append(z)
        t, S = right(z)
        if len(calls) == 3:
            t = HermitianMatrix(-t.to_numeric(), mode="numeric", check=False)
        return t, S

    monkeypatch.setattr(classical, "decompose", negated_on_third_call)
    cert, = checks.check_decompose(4, 0)
    assert cert.status == "fail"
    assert cert.witness["failures"] == 1
    first = cert.witness["first"]
    assert first["sample"] == 2
    assert first["residual"] <= 1e-9
    assert first["shape"]["tau"] == first["shape_of"]["tau"]
    diag = [row[k]["re"] for k, row in enumerate(first["t"]["entries"])]
    assert diag and all(x < 0 for x in diag)
    assert HermitianMatrix.from_json(first["z"]).N == len(diag)
