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
from qrea.indexsets import dominated, inversions
from qrea.linalg import add_term
from qrea.memo import Memo
from qrea.qmatrix import QContext


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
        assert tbl.support_condition_violations() == []
        assert tbl.support_condition_violations(tbl.inv_entries) == []
        assert tbl.diagonal_report() == []
        assert tbl.composition_identity_check() is None


def test_table_json():
    tbl = WedgeBraidTable(2, 1, 1)
    obj = tbl.to_json()
    assert obj["N"] == 2 and obj["k"] == 1 and obj["l"] == 1
    assert all({"I", "J", "I'", "J'", "value"} <= set(e) for e in obj["entries"])


def test_scalar_lemma_two_singletons():
    rep = rmatrix_lemma_check((1,), (2,))
    assert rep["ok"]
    # explicit vector check: R^{-1} applied to xi gives (-q)^{-1} xi'
    xi = {((1,), (2,)): lp_q_int(1), ((2,), (1,)): lp_q_int(2)}
    got = braid_wedge_pair(xi, 1, 1, inverse=True)
    scalar = lp_q_int(-1)
    assert got == {k: c * scalar for k, c in xi.items()}


def test_scalar_lemma_equal_sets():
    for I in ((1,), (1, 2), (2, 3)):
        rep = rmatrix_lemma_check(I, I)
        assert rep["ok"]
        assert rep["scalar"] == LaurentPoly.q_power(len(I)).to_json()


def test_scalar_lemma_sweep_n3():
    subs = [c for k in range(4) for c in combinations((1, 2, 3), k)]
    for I in subs:
        for Ip in subs:
            assert rmatrix_lemma_check(I, Ip)["ok"], (I, Ip)


def test_antisymmetrizer_swap():
    # the scalar lemma on the disjoint pair (T[:l], T[l:])
    for T in ((1, 2), (1, 3), (1, 2, 3), (2, 3, 4)):
        for l in range(0, len(T) + 1):
            assert rmatrix_lemma_check(T[:l], T[l:])["ok"], (T, l)


# -- witnesses of the braiding suites ----------------------------------------

@pytest.fixture
def broken_move(monkeypatch):
    """The braid move, and its inverse, with the image of e_1 (x) e_2 (of
    e_2 (x) e_1 for the inverse) scaled by q."""
    move = braiding.braid_pair_action

    def broken(a, b, inverse=False):
        out = move(a, b, inverse)
        if (a, b) == ((2, 1) if inverse else (1, 2)):
            out = [(xy, c * LP_Q) for xy, c in out]
        return out

    monkeypatch.setattr(braiding, "braid_pair_action", broken)
    # fresh tables, which fill themselves from the broken move
    for inverse, table in list(braiding._RHAT_TABLES.items()):
        monkeypatch.setitem(braiding._RHAT_TABLES, inverse,
                            Memo(table.compute))


def _first_failure(words, holds):
    return next((w for w in words if not holds(w)), None)


def _braid_holds(word):
    t = {word: LP_ONE}
    return (apply_elementary(apply_elementary(apply_elementary(t, 0), 1), 0)
            == apply_elementary(apply_elementary(apply_elementary(t, 1), 0), 1))


def _hecke_holds(word):
    t = {word: LP_ONE}
    rhs = dict(t)
    for w, c in apply_elementary(t, 0).items():
        add_term(rhs, w, c * LP_QDIFF)
    return apply_elementary(apply_elementary(t, 0), 0) == rhs


def test_braid_relation_witness_is_first_failing_word(broken_move):
    certs = checks.check_braid_relation(3, 0)
    assert [c.status for c in certs] == ["pass", "fail", "fail"]
    for n, cert in ((2, certs[1]), (3, certs[2])):
        word = cert.witness["word"]
        assert word == (2, 1, 1)
        assert word == _first_failure(product(range(1, n + 1), repeat=3),
                                      _braid_holds)


def test_hecke_witness_is_first_failing_word_and_entry(broken_move):
    certs = checks.check_hecke(2, 0)
    assert [c.status for c in certs] == ["pass", "fail"]
    w = certs[1].witness
    assert w["word"] == (1, 2)
    assert w["word"] == _first_failure(product((1, 2), repeat=2),
                                       _hecke_holds)
    # R-hat sends e_1 (x) e_2 to q e_2 (x) e_1 but e_2 (x) e_1 to e_1 (x) e_2 + ...
    assert w["asymmetric"] == ((2, 1), (1, 2))
    entries = rhat_entries(2)
    assert entries[((2, 1), (1, 2))] != entries[((1, 2), (2, 1))]


def test_antisym_swap_witness_is_first_failing_pair(broken_move):
    [cert] = checks.check_antisym_swap(2, 0)
    assert cert.status == "fail"
    w = cert.witness
    assert (w["T"], w["l"]) == ((1, 2), 1)
    cases = [(T, l) for t in (1, 2) for T in combinations((1, 2), t)
             for l in range(t + 1)]
    first = _first_failure(
        cases, lambda c: rmatrix_lemma_check(c[0][:c[1]], c[0][c[1]:])["ok"])
    assert first == ((1, 2), 1)
    assert w["mismatch"] == rmatrix_lemma_check((1,), (2,))["mismatch"]
    assert set(w["mismatch"]) == {"entry", "got", "expected"}
    assert w["mismatch"]["got"] != w["mismatch"]["expected"]


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


def test_scalar_lemma_witness_lists_the_first_failing_pairs(broken_move):
    [cert] = checks.check_scalar_lemma(2, 0)
    assert cert.status == "fail"
    subs = [c for k in range(3) for c in combinations((1, 2), k)]
    failing = [(I, Ip) for I in subs for Ip in subs
               if not rmatrix_lemma_check(I, Ip)["ok"]]
    assert failing and cert.witness == {"failed": failing[:5]}


def _fresh_ctx(monkeypatch, N):
    """A fresh QContext of size N in place of the suites' cached one, so
    that a perturbed table does not outlive the test."""
    ctx = QContext(N)
    monkeypatch.setitem(checks._CTX_CACHE, N, ctx)
    return ctx


def test_wedge_table_witness_is_first_failing_entry(monkeypatch):
    ctx = _fresh_ctx(monkeypatch, 2)
    # (1, 1): an entry of the inverse table off the support, J = (2,) not
    # dominated by I = (1,)
    off = ((1,), (2,), (1,), (1,))
    assert not dominated(off[1], off[0])
    ctx.table(1, 1).inv_entries[off] = LP_Q
    # (1, 2): two wrong diagonal entries; the inverse one at I = (1,) is
    # scanned before the direct one at I = (2,)
    t12 = ctx.table(1, 2)
    t12.inv_entries[(1,), (1,), (1, 2), (1, 2)] *= LP_Q
    t12.entries[(2,), (2,), (1, 2), (1, 2)] *= LP_Q
    certs = checks.check_wedge_tables(2, 0, kmax=2)
    assert [c.status for c in certs] == ["fail", "fail", "pass", "pass"]
    assert [c.witness for c in certs[2:]] == [None, None]
    assert certs[0].witness == {"support": "inverse", "entry": off,
                                "value": LP_Q.to_json()}
    got = t12.inv_entry((1,), (1,), (1, 2), (1, 2))
    assert certs[1].witness == {"diagonal": "inverse", "I": (1,),
                                "I'": (1, 2), "got": got.to_json(),
                                "expected": LaurentPoly.q_power(1).to_json()}
    assert got != LaurentPoly.q_power(1)


def test_wedge_composition_witness_is_first_failing_pair(monkeypatch):
    ctx = _fresh_ctx(monkeypatch, 2)
    move = braiding.braid_wedge_pair

    def broken(pair_vec, k, l, inverse=False):
        # the (1, 1) inverse braiding of e_2 (x) e_2 scaled by q
        out = move(pair_vec, k, l, inverse)
        if inverse and (k, l) == (1, 1) and ((2,), (2,)) in pair_vec:
            out = {key: c * LP_Q for key, c in out.items()}
        return out

    monkeypatch.setattr(braiding, "braid_wedge_pair", broken)
    certs = checks.check_wedge_composition(2, 0, kmax=2)
    assert [c.status for c in certs] == ["fail", "pass", "pass", "pass"]
    # (2,) (x) (2,) is the last of the four (I, J') pairs of degree (1, 1)
    first = _first_failure(
        product([(1,), (2,)], repeat=2),
        lambda p: broken(broken({p: LP_ONE}, 1, 1), 1, 1, inverse=True)
        == {p: LP_ONE})
    assert first == ((2,), (2,))
    assert certs[0].witness == {"I": (2,), "J'": (2,), "entry": first,
                                "got": LP_Q.to_json(),
                                "expected": LP_ONE.to_json()}
    assert ctx.table(1, 1).composition_identity_check() == certs[0].witness


def test_embed_equivariance_witness_is_first_failing_word(broken_move):
    [cert] = checks.check_embed_equivariance(2, 0, kmax=2)
    assert cert.status == "fail"
    w = cert.witness
    assert (w["k"], w["key"], w["position"]) == (2, (1, 2), 0)
    t = embed_basis((1, 2))
    lifted = apply_elementary(t, 0)
    expected = {word: c * lp_q_int(1) for word, c in t.items()}
    word = _first_failure(sorted(lifted.keys() | expected.keys()),
                          lambda u: lifted.get(u) == expected.get(u))
    assert w["entry"] == word
    assert w["got"] == lifted[word].to_json()
    assert w["expected"] == expected[word].to_json()
    assert w["got"] != w["expected"]


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
