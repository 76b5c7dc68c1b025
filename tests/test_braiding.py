from itertools import combinations, permutations, product

import pytest

from qrea import braiding, checks
from qrea.braiding import (apply_block_lift, apply_elementary,
                           braid_pair_action, braid_relation_check,
                           braid_wedge_pair, embed_basis,
                           embed_equivariance_check, hecke_check,
                           project_pair, rhat_entries,
                           rmatrix_lemma_check, symmetry_check, wedge_sign,
                           WedgeBraidTable)
from qrea.coeff import (LP_ONE, LP_Q, LP_QDIFF, LP_QINV, LP_ZERO, LaurentPoly,
                        lp_q_int)
from qrea.indexsets import inversions
from qrea.linalg import add_term
from test_suite_mutations import row_test


def q2_factorial(l):
    """[l]_{q^2}! = prod_{k=1..l} (1 + q^2 + ... + q^{2k-2}), the scalar by
    which rho o iota acts on the l-th wedge power."""
    out = LP_ONE
    for k in range(1, l + 1):
        out = out * LaurentPoly({2 * i: 1 for i in range(k)})
    return out


def test_braid_action_examples():
    # e2 (x) e1 -> e1 (x) e2 + (q^-1 - q) e2 (x) e1
    assert braid_pair_action(2, 1) == [((1, 2), LP_ONE), ((2, 1), LP_QDIFF)]
    assert braid_pair_action(1, 1) == [((1, 1), LP_QINV)]
    assert braid_pair_action(1, 2) == [((2, 1), LP_ONE)]


def test_braid_n1_is_scalar():
    assert rhat_entries(1) == {((1, 1), (1, 1)): LP_QINV}
    assert braid_relation_check(1) is None


def test_braid_relation_small():
    assert braid_relation_check(2) is None
    assert braid_relation_check(3) is None


def test_hecke_and_symmetry():
    for n in (1, 2, 3):
        assert symmetry_check(n) is None
        assert hecke_check(n) is None


def test_inverse_via_hecke():
    # R^{-1} = R + (q - q^{-1}) id, and R^{-1} R = id, on every pair word
    for N in (2, 3):
        for word in product(range(1, N + 1), repeat=2):
            t = {word: LP_ONE}
            forward = apply_elementary(t, 0)
            expected = dict(forward)
            add_term(expected, word, LP_Q - LP_QINV)
            assert apply_elementary(t, 0, inverse=True) == expected, word
            assert apply_elementary(forward, 0, inverse=True) == t, word


def test_wedge_reduce_examples():
    assert wedge_sign((2, 1)) == (lp_q_int(1), (1, 2))
    assert wedge_sign((1, 1)) is None
    assert wedge_sign((3, 2, 1)) == (lp_q_int(3), (1, 2, 3))


def test_embed_degree_one_is_identity():
    assert embed_basis((2,)) == {(2,): LP_ONE}


def test_embed_degree_two():
    assert embed_basis((1, 2)) == {(1, 2): LP_ONE, (2, 1): lp_q_int(1)}


def test_q2_factorial():
    assert q2_factorial(0) == q2_factorial(1) == LP_ONE
    assert q2_factorial(2) == LaurentPoly({0: 1, 2: 1})
    # (1 + q^2)(1 + q^2 + q^4)
    assert q2_factorial(3) == LaurentPoly({0: 1, 2: 2, 4: 2, 6: 1})
    # [k]_{q^2}! counts permutations by inversions: sum over S_k of q^{2 inv}
    for k in range(5):
        expected = {}
        for perm in permutations(range(k)):
            add_term(expected, 0, LaurentPoly.q_power(2 * inversions(perm)))
        assert q2_factorial(k) == expected.get(0, LP_ZERO), k


def test_project_examples():
    # rho on one wedge factor: the second factor of the pair is empty
    assert project_pair({(1, 2): LP_ONE}, 2) == {((1, 2), ()): LP_ONE}
    assert project_pair({(2, 1): LP_ONE}, 2) == {((1, 2), ()): lp_q_int(1)}


def test_project_embed_identity():
    # rho o iota = [k]_{q^2}! id: iota is not normalised
    for N in (2, 3, 4):
        for k in range(0, min(N, 3) + 1):
            for key in combinations(range(1, N + 1), k):
                assert project_pair(embed_basis(key), k) == \
                    {(key, ()): q2_factorial(k)}


def test_embed_equivariance():
    for N in (2, 3, 4):
        for k in range(2, min(N, 3) + 1):
            assert embed_equivariance_check(N, k) is None


def test_block_lift_is_braiding_on_vectors():
    # degree (1,1) block lift must equal the braid operator itself
    for a in (1, 2):
        for b in (1, 2):
            t = apply_block_lift({(a, b): LP_ONE}, 1, 1)
            expected = dict(braid_pair_action(a, b))
            assert t == expected


def test_sorted_word_braiding_matches_embedded_braiding():
    # braid_wedge_pair braids the sorted word e_I (x) e_J directly; times
    # [k]_{q^2}! [l]_{q^2}! it must equal (rho (x) rho) B (iota (x) iota)
    N = 3
    for k in range(4):
        for l in range(4):
            for inverse in (False, True):
                first, second = (l, k) if inverse else (k, l)
                scale = q2_factorial(k) * q2_factorial(l)
                for I in combinations(range(1, N + 1), first):
                    for J in combinations(range(1, N + 1), second):
                        t = {wa + wb: ca * cb
                             for wa, ca in embed_basis(I).items()
                             for wb, cb in embed_basis(J).items()}
                        t = apply_block_lift(t, k, l, inverse=inverse)
                        expected = project_pair(t, second)
                        got = braid_wedge_pair({(I, J): LP_ONE}, k, l,
                                               inverse=inverse)
                        assert {key: c * scale for key, c in got.items()} \
                            == expected, (k, l, inverse, I, J)


def test_table_diagonals():
    tbl = WedgeBraidTable(3, 2, 2)
    for I in combinations((1, 2, 3), 2):
        for Ip in combinations((1, 2, 3), 2):
            m = len(set(I) & set(Ip))
            assert tbl.entry(I, I, Ip, Ip) == LaurentPoly.q_power(-m)
            assert tbl.inv_entry(I, I, Ip, Ip) == LaurentPoly.q_power(m)
    assert tbl.entry((1, 2), (1, 2), (2, 3), (2, 3)) == LP_QINV


def test_table_support_and_composition():
    for (k, l) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        tbl = WedgeBraidTable(3, k, l)
        assert tbl.support_violation(tbl.entries) is None
        assert tbl.support_violation(tbl.inv_entries) is None
        assert tbl.diagonal_mismatch() is None
        assert tbl.composition_identity_check() is None


def test_table_json():
    tbl = WedgeBraidTable(2, 1, 1)
    obj = tbl.to_json()
    assert obj["N"] == 2 and obj["k"] == 1 and obj["l"] == 1
    assert all({"I", "J", "I'", "J'", "value"} <= set(e) for e in obj["entries"])


def test_scalar_lemma_two_singletons():
    assert rmatrix_lemma_check((1,), (2,)) is None
    # explicit vector check: R^{-1} applied to xi gives (-q)^{-1} xi'
    xi = {((1,), (2,)): lp_q_int(1), ((2,), (1,)): lp_q_int(2)}
    got = braid_wedge_pair(xi, 1, 1, inverse=True)
    scalar = lp_q_int(-1)
    assert got == {k: c * scalar for k, c in xi.items()}


def test_scalar_lemma_equal_sets():
    for I in ((1,), (1, 2), (2, 3)):
        assert rmatrix_lemma_check(I, I) is None
        # explicit vector check: for I = I', xi is e_I (x) e_I, and R^{-1}
        # applied to it gives q^|I| xi
        xi = {(I, I): LP_ONE}
        got = braid_wedge_pair(xi, len(I), len(I), inverse=True)
        assert got == {(I, I): LaurentPoly.q_power(len(I))}


def test_scalar_lemma_sweep_n3():
    subs = [c for k in range(4) for c in combinations((1, 2, 3), k)]
    for I in subs:
        for Ip in subs:
            assert rmatrix_lemma_check(I, Ip) is None, (I, Ip)


def test_antisymmetrizer_swap():
    # the scalar lemma on the disjoint pair (T[:l], T[l:])
    for T in ((1, 2), (1, 3), (1, 2, 3), (2, 3, 4)):
        for l in range(0, len(T) + 1):
            assert rmatrix_lemma_check(T[:l], T[l:]) is None, (T, l)


# -- witnesses of the braiding suites: rows of the mutation table ------------

test_braid_relation_witness_is_first_failing_word = row_test(
    "braiding.braid-relation")
test_hecke_witness_is_first_failing_word_and_entry = row_test("braiding.hecke")
test_antisym_swap_witness_is_first_failing_pair = row_test(
    "braiding.antisym-swap")
test_scalar_lemma_witness_counts_and_gives_the_first_pair = row_test(
    "braiding.scalar-lemma")
test_wedge_table_witness_is_first_failing_entry = row_test(
    "braiding.wedge-table")
test_wedge_composition_witness_is_first_failing_pair = row_test(
    "braiding.wedge-composition")
test_embed_equivariance_witness_is_first_failing_word = row_test(
    "braiding.embed-equivariance")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antisym_swap_pairs_are_scalar_lemma_pairs(monkeypatch, n):
    """Every (T[:l], T[l:]) pair that antisym-swap checks at N = n is among
    the (I, I') pairs that scalar-lemma checks there."""
    calls = []
    lemma = braiding.rmatrix_lemma_check

    def recorded(I, Ip):
        calls.append((tuple(I), tuple(Ip)))
        return lemma(I, Ip)

    monkeypatch.setattr(braiding, "rmatrix_lemma_check", recorded)
    assert [c.status for c in checks.check_antisym_swap(n, 0)] == ["pass"]
    swap, calls[:] = set(calls), []
    assert [c.status for c in checks.check_scalar_lemma(n, 0)] == ["pass"]
    assert swap and swap <= set(calls)
    assert len(calls) == 4 ** n


@pytest.mark.parametrize("N", [2, 3])
def test_slices_match_full_label_sweeps(N):
    """Every slice of every table holds exactly the nonzero entries of a
    sweep over all label quadruples, grouped by the fixed labels, each
    group in sorted order; a second call returns the same slice."""
    for k in range(N + 1):
        for l in range(N + 1):
            tab = WedgeBraidTable(N, k, l)
            ksets, lsets = braiding.subsets(N, k), braiding.subsets(N, l)
            for inverse in (False, True):
                value = tab.inv_entry if inverse else tab.entry
                for size in range(1, 4):
                    for fixed in combinations(range(4), size):
                        want = {}
                        for labels in product(ksets, ksets, lsets, lsets):
                            c = value(*labels)
                            if c.is_zero():
                                continue
                            want.setdefault(
                                tuple(labels[p] for p in fixed), []).append(
                                (tuple(labels[p] for p in range(4)
                                       if p not in fixed), c))
                        got = tab.slice(inverse, fixed)
                        assert got == want, (k, l, inverse, fixed)
                        assert tab.slice(inverse, fixed) is got
