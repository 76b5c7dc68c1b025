import json
import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qrea import checks, qmatrix
from qrea.cli import main
from qrea.coeff import LP_ONE, LP_QINV, LP_ZERO, LaurentPoly, lp_q_int
from qrea.indexsets import merge, rest, select, subsets
from qrea.linalg import add_term
from qrea.memo import Memo
from qrea.qmatrix import (Bicharacter, IllFormedInstance, NCPoly,
                          NonOrientable, QContext, braidcomm_instances,
                          coproduct, coproduct_word, counit_word,
                          degree_dimension, derive_rewrite_system,
                          exchange_relations, gen_id, laplace_instances,
                          muir_instances, quantum_minor, sum_terms,
                          verify_identity, word_from_rc)
from test_suite_mutations import ROWS, check_row, row_test


def counit(p):
    """epsilon on an NCPoly: the sum of the coefficients of the words that
    epsilon sends to 1, the reference for the counit of a minor."""
    total = LP_ZERO
    for w, c in p.coeffs.items():
        if counit_word(w, p.N):
            total = total + c
    return total


def g(i, j, N=2):
    return gen_id(i, j, N)


def test_n1_has_no_relations():
    assert derive_rewrite_system(1, exchange_relations(1)).rules == {}


def test_n2_rule_count_and_leads():
    rw = derive_rewrite_system(2, exchange_relations(2))
    assert len(rw.rules) == 6
    assert all(a > b for (a, b) in rw.rules)


def test_rule_rhs_is_smaller():
    rw = derive_rewrite_system(3, exchange_relations(3))
    for lead, rhs in rw.rules.items():
        for w in rhs:
            assert w < lead


def test_degree_dimensions_n2():
    rw = derive_rewrite_system(2, exchange_relations(2))
    assert degree_dimension(2, rw, 2) == comb(4 + 1, 2) == 10
    assert degree_dimension(2, rw, 3) == comb(6, 3) == 20


def test_critical_pairs():
    for N in (2, 3):
        rw = derive_rewrite_system(N, exchange_relations(N))
        assert rw.critical_pair_failure() is None


def test_nonorientable_raises():
    # a relation whose leading word is already sorted cannot be oriented
    vec = {(0, 1): LP_ONE, (0, 0): LP_ZERO - LP_ONE}
    with pytest.raises(NonOrientable):
        derive_rewrite_system(2, [vec])


def test_normal_form_fixed_points(ctx2):
    rw = ctx2.rw
    p = NCPoly(2, {(g(1, 1), g(1, 1)): LP_ONE})
    assert rw.normal_form(p) == p
    one = NCPoly.unit(2)
    assert rw.normal_form(one) == one


def test_normal_form_idempotent_linear(ctx2):
    rng = random.Random(2)
    rw = ctx2.rw
    for _ in range(30):
        w = tuple(rng.randrange(4) for _ in range(4))
        p = rw.normal_form(NCPoly(2, {w: LP_ONE}))
        assert rw.normal_form(p) == p
        assert all(m[i] <= m[i + 1] for m in p.coeffs for i in range(len(m) - 1))


_generator_products = st.lists(
    st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), max_size=5),
    min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(_generator_products)
def test_normal_form_idempotent_on_generator_products(ctx2, products):
    # a sum of products of N=2 generators, each product of up to 5 factors
    def product_of(factors):
        term = NCPoly.unit(2)
        for i, j in factors:
            term = term * NCPoly.generator(2, i, j)
        return term

    p = sum_terms(2, [(LP_ONE, (factors,)) for factors in products],
                  product_of)
    once = ctx2.rw.normal_form(p)
    assert ctx2.rw.normal_form(once) == once


def naive_normal_form(rw, p, rng):
    """p rewritten by rw's rules at randomly chosen descents until none
    remain: the order-independent reference of normal_form."""
    work = dict(p.coeffs)
    done = {}
    while work:
        w, c = work.popitem()
        descents = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not descents:
            add_term(done, w, c)
            continue
        i = rng.choice(descents)
        for (a, b), c2 in rw.rules[(w[i], w[i + 1])].items():
            add_term(work, w[:i] + (a, b) + w[i + 2:], c * c2)
    return NCPoly(p.N, done)


def test_confluence_spot_check_random_orders(ctx3):
    rng = random.Random(17)
    rw = ctx3.rw
    for _ in range(25):
        w = tuple(rng.randrange(9) for _ in range(3))
        p = NCPoly(3, {w: LP_ONE})
        assert rw.normal_form(p) == naive_normal_form(rw, p, rng)


def test_relation_count_matches_exchange_rank():
    assert len(exchange_relations(2)) == 16
    rw = derive_rewrite_system(2, exchange_relations(2))
    # every derived rule kills the exchange relations after rewriting
    for vec in exchange_relations(2):
        assert rw.normal_form(NCPoly(2, vec)).is_zero()


def test_coproduct_generator():
    p = NCPoly.generator(2, 1, 1)
    assert coproduct(p) == {((g(1, 1),), (g(1, 1),)): LP_ONE,
                            ((g(1, 2),), (g(2, 1),)): LP_ONE}


def test_coproduct_unit():
    assert coproduct(NCPoly.unit(2)) == {((), ()): LP_ONE}


def test_counit_axiom_random_words():
    rng = random.Random(23)
    for _ in range(50):
        w = tuple(rng.randrange(4) for _ in range(3))
        left = {}
        for (w1, w2), c in coproduct(NCPoly(2, {w: LP_ONE})).items():
            if counit_word(w1, 2):
                left[w2] = left.get(w2, LP_ZERO) + c
        left = {k: v for k, v in left.items() if not v.is_zero()}
        assert left == {w: LP_ONE}


def test_counit_on_minor():
    # counit of a minor is the Kronecker delta of its labels
    assert counit(quantum_minor(3, (1, 2), (1, 2))) == LP_ONE
    assert counit(quantum_minor(3, (1, 2), (1, 3))).is_zero()


def test_minor_examples():
    assert quantum_minor(2, (1,), (1,)) == NCPoly.generator(2, 1, 1)
    got = quantum_minor(2, (1, 2), (1, 2))
    expected = NCPoly(2, {(g(1, 1), g(2, 2)): LP_ONE,
                          (g(2, 1), g(1, 2)): lp_q_int(1)})
    assert got == expected


def test_quantum_determinant_central_n2(ctx2):
    det = quantum_minor(2, (1, 2), (1, 2))
    for i in (1, 2):
        for j in (1, 2):
            x = NCPoly.generator(2, i, j)
            assert ctx2.rw.normal_form(det * x) == ctx2.rw.normal_form(x * det)


def test_bicharacter_base_values(ctx2):
    b = ctx2.bich
    assert b.r((g(1, 1),), (g(1, 1),)) == LP_QINV
    assert b.r((g(1, 1),), (g(2, 2),)) == LP_ONE
    # counit base case: r(1, X_ij) = delta_ij
    assert b.r((), (g(1, 1),)) == LP_ONE
    assert b.r((), (g(1, 2),)).is_zero()


BIDEGREES = ((1, 1), (1, 2), (2, 1), (2, 2))


def test_convolution_certificates(ctx2):
    b = ctx2.bich
    for (s, t) in BIDEGREES:
        assert b.certify_bidegree(s, t, "rinv") is None
        assert b.certify_bidegree(s, t, "rpr") is None
    # the closed-form generator tables hold at every N, not only at N = 2
    for N in (3, 4):
        b = Bicharacter(N)
        for (s, t) in BIDEGREES:
            assert b.certify_bidegree(s, t, "rinv") is None, (N, s, t)
            assert b.certify_bidegree(s, t, "rpr") is None, (N, s, t)
    for N in (1, 5):
        b = Bicharacter(N)
        assert b.certify_bidegree(1, 1, "rinv") is None, N
        assert b.certify_bidegree(1, 1, "rpr") is None, N


def test_convolution_certificates_read_images_only():
    """The certificates multiply column images: they evaluate no word pair,
    so a fresh bicharacter's value memo stays empty."""
    b = Bicharacter(3)
    for (s, t) in BIDEGREES:
        for which in ("rinv", "rpr"):
            assert b.certify_bidegree(s, t, which) is None
    assert b._memo == {"r": {}, "rinv": {}}
    assert b._images["r"] and b._images["rinv"]


def dense_first_mismatch(b, s, t, which):
    """The reference sweep: every (i, k or l, j, l or k) in that order, each
    sum over every middle (m, n), every factor a word-pair value of `r`,
    `r_inv` or `r_prime`; returns what `certify_bidegree` must."""
    N = b.N
    tuples_s = list(product(range(1, N + 1), repeat=s))
    tuples_t = list(product(range(1, N + 1), repeat=t))
    middles = list(product(tuples_s, tuples_t))
    inverse = b.r_inv if which == "rinv" else b.r_prime

    def a(x, y):
        return word_from_rc(x, y, N)

    # rinv: r(a(i,m), b(o,n)) inverse(a(m,j), b(n,p)), (k, l) = (o, p);
    # rpr:  r(a(i,m), b(n,o)) inverse(a(m,j), b(p,n)), (k, l) = (p, o)
    if which == "rinv":
        left = {(i, o): [b.r(a(i, m), a(o, n)) for m, n in middles]
                for i in tuples_s for o in tuples_t}
        right = {(j, p): [inverse(a(m, j), a(n, p)) for m, n in middles]
                 for j in tuples_s for p in tuples_t}
    else:
        left = {(i, o): [b.r(a(i, m), a(n, o)) for m, n in middles]
                for i in tuples_s for o in tuples_t}
        right = {(j, p): [inverse(a(m, j), a(p, n)) for m, n in middles]
                 for j in tuples_s for p in tuples_t}
    for i, o in product(tuples_s, tuples_t):
        row = left[i, o]
        for j, p in product(tuples_s, tuples_t):
            total = LP_ZERO
            for c1, c2 in zip(row, right[j, p]):
                if not (c1.is_zero() or c2.is_zero()):
                    total = total + c1 * c2
            expected = LP_ONE if (i, o) == (j, p) else LP_ZERO
            if total != expected:
                k, l = (o, p) if which == "rinv" else (p, o)
                return {"i": i, "j": j, "k": k, "l": l,
                        "got": total.to_json(), "expected": expected.to_json()}
    return None


def _bump_first_entry(b, which):
    column = b._tables[which][min(b._tables[which])]
    row, c = column[0]
    column[0] = (row, c + LP_ONE)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("perturbation", [None, "r", "rinv", "twist"])
def test_first_mismatch_matches_dense_reference(N, perturbation):
    """The sparse products of column images find exactly the mismatch of the
    dense sweep, on the true tables and on an r entry + 1, an r^{-1} entry
    + 1 and a reversed r' twist."""
    for (s, t) in BIDEGREES:
        for which in ("rinv", "rpr"):
            b = Bicharacter(N)
            if perturbation == "twist":
                twist = b.rpr_twist
                b.rpr_twist = lambda cols, rows, twist=twist: twist(rows, cols)
            elif perturbation is not None:
                _bump_first_entry(b, perturbation)
            want = dense_first_mismatch(b, s, t, which)
            assert b.certify_bidegree(s, t, which) == want, (s, t, which)
            if perturbation is None or (perturbation, which) == ("twist", "rinv"):
                assert want is None
            else:
                assert want is not None


def test_convolution_suite_certifies_each_sum_once(monkeypatch):
    """The suite's verdict and witness come from one `certify_bidegree`
    call per bidegree and functional: r^{-1} at each bidegree, and r' only
    where r^{-1} passes, on the true tables as under each mutation row."""
    calls = []
    certify = Bicharacter.certify_bidegree

    def counted(self, s, t, which):
        calls.append((s, t, which))
        return certify(self, s, t, which)
    monkeypatch.setattr(Bicharacter, "certify_bidegree", counted)

    def each_once(*functionals):
        return [(s, t, which) for s, t in BIDEGREES for which in functionals]
    assert all(c.status == "pass"
               for c in checks.check_convolution_certificates(2, 0))
    assert calls == each_once("rinv", "rpr")
    for label, functionals in (("qmatrix.convolution-certificates", ("rinv",)),
                               ("qmatrix.convolution-certificates twist",
                                ("rinv", "rpr"))):
        calls.clear()
        check_row(label)
        assert calls == each_once(*functionals), label


@pytest.mark.parametrize("which", ["rinv", "rpr"])
def test_convolution_certificates_fail_on_a_perturbed_table(monkeypatch, which):
    """One entry of the r^{-1} generator table shifted by 1, or the r' twist
    reversed, must fail every bidegree of that inverse; the suite's
    witnesses, pinned in the row of the mutation table, are true sums."""
    ctx = QContext(2)            # fresh: the shared context stays intact
    b = ctx.bich
    if which == "rinv":
        _bump_first_entry(b, "rinv")
    else:
        twist = b.rpr_twist
        monkeypatch.setattr(b, "rpr_twist", lambda cols, rows: twist(rows, cols))
    for (s, t) in BIDEGREES:
        assert b.certify_bidegree(s, t, which) is not None
        # r' is r^{-1} twisted: a wrong r^{-1} table fails both, a wrong
        # twist only r'
        assert (b.certify_bidegree(s, t, "rinv") is None) == (which == "rpr")
    # the tables and the twist are per instance: a fresh context is untouched
    fresh = QContext(2).bich
    for (s, t) in BIDEGREES:
        assert fresh.certify_bidegree(s, t, which) is None
    label = {"rinv": "qmatrix.convolution-certificates",
             "rpr": "qmatrix.convolution-certificates twist"}[which]
    check_row(label)
    inverse = b.r_inv if which == "rinv" else b.r_prime
    for w in ROWS[label][4]:
        s, t = w["bidegree"]
        i, j, k, l = (w[x] for x in "ijkl")
        # the reported sum, recomputed over every middle without pruning
        total = LP_ZERO
        for m in product((1, 2), repeat=s):
            for n in product((1, 2), repeat=t):
                # the second arguments of r and of the inverse
                r2, inv2 = ((k, n), (n, l)) if which == "rinv" else \
                    ((n, l), (k, n))
                total = total + (b.r(word_from_rc(i, m, 2),
                                     word_from_rc(*r2, 2))
                                 * inverse(word_from_rc(m, j, 2),
                                           word_from_rc(*inv2, 2)))
        expected = LP_ONE if (i, k) == (j, l) else LP_ZERO
        assert w["got"] == total.to_json() != expected.to_json()
        assert w["expected"] == expected.to_json()


@pytest.mark.parametrize("which, swap", [("r", False), ("rinv", True),
                                         ("rpr", True)])
def test_bicharacter_multiplicative_laws(ctx2, which, swap):
    # r(g a', b) = sum r(g, b_1) r(a', b_2),
    # r(a, h b') = sum r(a_2, h) r(a_1, b');
    # r^{-1} and r' meet the other coproduct leg in both laws:
    # r^{-1}(g a', b) = sum r^{-1}(a', b_1) r^{-1}(g, b_2),
    # r^{-1}(a, h b') = sum r^{-1}(a_1, h) r^{-1}(a_2, b'), and r' alike.
    b = ctx2.bich
    f = {"r": b.r, "rinv": b.r_inv, "rpr": b.r_prime}[which]
    for s, t in ((1, 2), (2, 1), (2, 2)):
        for wa in product(range(4), repeat=s):
            for wb in product(range(4), repeat=t):
                value = f(wa, wb)
                if s > 1:
                    g, rest = wa[:1], wa[1:]
                    total = LP_ZERO
                    for w1, w2 in coproduct_word(wb, 2):
                        total = total + (f(g, w2 if swap else w1)
                                         * f(rest, w1 if swap else w2))
                    assert total == value, (which, wa, wb)
                if t > 1:
                    h, rest = wb[:1], wb[1:]
                    total = LP_ZERO
                    for a1, a2 in coproduct_word(wa, 2):
                        total = total + (f(a1 if swap else a2, h)
                                         * f(a2 if swap else a1, rest))
                    assert total == value, (which, wa, wb)


def test_rinv_minor_diagonals(ctx3):
    for k in (1, 2):
        for l in (1, 2):
            for I in combinations((1, 2, 3), k):
                for Ip in combinations((1, 2, 3), l):
                    m = len(set(I) & set(Ip))
                    assert ctx3.rinv_minor(I, I, Ip, Ip) == LaurentPoly.q_power(m)


def pair_functional(bich, which, pa, pb):
    """The word-level functional `which` ("r" or "rinv") on two
    polynomials: the sum over their word pairs, each evaluated on its own.
    The reference of `QContext.functional_on_minors`."""
    fn = {"r": bich.r, "rinv": bich.r_inv}[which]
    total = LP_ZERO
    for wa, ca in pa.coeffs.items():
        for wb, cb in pb.coeffs.items():
            v = fn(wa, wb)
            if not v.is_zero():
                total = total + ca * cb * v
    return total


def test_minor_tables_match_functionals(ctx2):
    b = ctx2.bich
    for k in (1, 2):
        for l in (1, 2):
            for A in combinations((1, 2), k):
                for B in combinations((1, 2), k):
                    pa = ctx2.minor(A, B)
                    for C in combinations((1, 2), l):
                        for D in combinations((1, 2), l):
                            pb = ctx2.minor(C, D)
                            assert ctx2.r_minor(A, B, C, D) == \
                                pair_functional(b, "r", pa, pb)
                            assert ctx2.rinv_minor(A, B, C, D) == \
                                pair_functional(b, "rinv", pa, pb)


@pytest.mark.parametrize("N, quadruples", [(2, 25), (3, 361)])
def test_functional_on_minors_is_the_word_pair_sum(N, quadruples):
    """The column-image values of r and r^{-1} on every pair of nonempty
    minors equal the sums over the minors' word pairs."""
    ctx = QContext(N)
    count = 0
    for k in range(1, N + 1):
        for l in range(1, N + 1):
            for which in ("r", "rinv"):
                values = ctx.functional_on_minors(which, k, l)
                for (A, B, C, D), value in values.items():
                    assert value == pair_functional(
                        ctx.bich, which, ctx.minor(A, B), ctx.minor(C, D)), \
                        (which, A, B, C, D)
                count += len(values) if which == "r" else 0
    assert count == quadruples
    # the values come from the bicharacter alone, not from a wedge table
    assert ctx._tables == {}


def _count_calls(monkeypatch, owner, name, calls):
    """Count the calls of owner.name in calls[name]."""
    f = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_passing_muir_sweep_builds_one_certificate(monkeypatch):
    # at N = 3 the qmatrix.muir sweep of 472 instances builds its summary
    # certificate only, against 473 with one per instance
    calls = {"__init__": 0}
    _count_calls(monkeypatch, checks.Certificate, "__init__", calls)
    monkeypatch.setitem(checks._CTX_CACHE, 3, QContext(3))
    [cert] = dict(checks.CHECKS)["qmatrix.muir"](3, 0)
    assert cert.status == "pass" and cert.instance["instances"] == 472
    assert calls == {"__init__": 1}


@pytest.mark.parametrize("status", ["fail", "inconclusive"])
def test_a_certificate_that_does_not_pass_needs_a_witness(status):
    with pytest.raises(ValueError):
        checks.Certificate("braid", {"N": 1}, status)


@pytest.mark.parametrize("failure", [True, False, 0, "word", (0, 1, 0),
                                     lambda: {"word": (0, 1, 0)}])
def test_verdict_takes_none_or_a_failure_dict(failure):
    # a leftover boolean ok, or a witness function, is refused: it would be
    # a fail whose witness is not the failure
    assert checks.Certificate.verdict("braid", {}, None).status == "pass"
    cert = checks.Certificate.verdict("braid", {}, {"word": (0, 1, 0)})
    assert (cert.status, cert.witness) == ("fail", {"word": (0, 1, 0)})
    with pytest.raises(TypeError):
        checks.Certificate.verdict("braid", {}, failure)


def test_minor_table_crosscheck_evaluates_no_word_pair(monkeypatch):
    # the crosscheck reads column images: none of the 2,178 word pairs of
    # a sum over minor word pairs at N = 3 is evaluated on its own
    calls = {"_value": 0}
    _count_calls(monkeypatch, Bicharacter, "_value", calls)
    monkeypatch.setitem(checks._CTX_CACHE, 3, QContext(3))
    [cert] = checks.check_minor_table_crosscheck(3, 0)
    assert cert.status == "pass"
    assert calls == {"_value": 0}


@pytest.mark.parametrize("N, quadruples", [(2, 36), (3, 400)])
def test_rpr_on_minors_is_the_twisted_inverse_table(N, quadruples):
    """r'(Delta(A, B), Delta(C, D)) = q^{2(sum B - sum A)} rinv_minor(A, B,
    C, D) on every label quadruple, empty labels included, against the sum
    of the word-level r' over all word pairs of the two minors."""
    ctx = checks.get_ctx(N)
    bich = ctx.bich
    labels = [(A, B) for k in range(N + 1)
              for A, B in product(combinations(range(1, N + 1), k), repeat=2)]
    count = 0
    for (A, B), (C, D) in product(labels, repeat=2):
        words = LP_ZERO
        for u, cu in ctx.minor(A, B).coeffs.items():
            for v, cv in ctx.minor(C, D).coeffs.items():
                words = words + cu * cv * bich.r_prime(u, v)
        twist = LaurentPoly.q_power(2 * (sum(B) - sum(A)))
        assert twist * ctx.rinv_minor(A, B, C, D) == words, (A, B, C, D)
        count += 1
    assert count == quadruples


@pytest.mark.parametrize("N, quadruples", [(2, 36), (3, 400)])
def test_minor_convolution_identities(N, quadruples):
    """The two defining identities of the convolution inverses on minors,
    on every label quadruple (A, B, C, D), empty labels included, with r'
    on minors read as the twisted inverse table:

        sum_{K,L} r(A,K,L,D) r'(K,B,C,L)   = [A=B][C=D]
        sum_{K,L} r(A,K,D,L) r^-1(K,B,L,C) = [A=B][C=D]
    """
    ctx = checks.get_ctx(N)
    labels = [(A, B) for k in range(N + 1)
              for A, B in product(combinations(range(1, N + 1), k), repeat=2)]
    count = 0
    for (A, B), (C, D) in product(labels, repeat=2):
        ksets = list(combinations(range(1, N + 1), len(A)))
        lsets = list(combinations(range(1, N + 1), len(C)))
        rpr_sum, rinv_sum = LP_ZERO, LP_ZERO
        for K in ksets:
            for L in lsets:
                rpr_sum = rpr_sum + (ctx.r_minor(A, K, L, D)
                                     * ctx.bich.rpr_twist(B, K)
                                     * ctx.rinv_minor(K, B, C, L))
                rinv_sum = rinv_sum + (ctx.r_minor(A, K, D, L)
                                       * ctx.rinv_minor(K, B, L, C))
        expected = LP_ONE if (A == B and C == D) else LP_ZERO
        assert rpr_sum == expected, ("rpr", A, B, C, D)
        assert rinv_sum == expected, ("rinv", A, B, C, D)
        count += 1
    assert count == quadruples


def test_laplace_row_example(ctx2):
    assert verify_identity(ctx2, "laplace-row", {
        "I": (1, 2), "J": (1, 2), "K": (1,), "Kp": (1,)}) is None


def test_laplace_offdiagonal_vanishes(ctx2):
    assert verify_identity(ctx2, "laplace-row", {
        "I": (1, 2), "J": (1, 2), "K": (1,), "Kp": (2,)}) is None


def test_laplace_sweep_n2(ctx2):
    for inst in laplace_instances(2):
        for fam in ("laplace-row", "laplace-col"):
            assert verify_identity(ctx2, fam, inst) is None


def test_muir_sweep_n2(ctx2):
    for inst in muir_instances(2):
        for fam in ("muir-row", "muir-col"):
            assert verify_identity(ctx2, fam, inst) is None


def test_braidcomm_sweep_n2(ctx2):
    for inst in braidcomm_instances(2):
        for fam in ("braidcomm-1", "braidcomm-2"):
            assert verify_identity(ctx2, fam, inst) is None


def test_muir_spot_n3(ctx3):
    # size-3 instance with a common 1x1 submatrix, l = 1, all K, K'
    for K in ((1,), (2,)):
        for Kp in ((1,), (2,)):
            assert verify_identity(ctx3, "muir-row", {
                "I": (1, 2, 3), "J": (1, 2, 3), "F": (1,), "G": (1,),
                "K": K, "Kp": Kp}) is None


def test_ill_formed_instance(ctx2):
    with pytest.raises(IllFormedInstance):
        verify_identity(ctx2, "laplace-row",
                        {"I": (1, 2), "J": (1,), "K": (1,), "Kp": (1,)})
    # a position 0 is caught by the position pattern, not by select or rest
    with pytest.raises(IllFormedInstance):
        verify_identity(ctx2, "laplace-row",
                        {"I": (1, 2), "J": (1, 2), "K": (0,), "Kp": (1,)})
    with pytest.raises(IllFormedInstance):
        verify_identity(ctx2, "nonsense", {})


# -- witnesses of the qmatrix suites: rows of the mutation table -------------

test_counit_axiom_witness_is_first_failing_word = row_test(
    "qmatrix.counit-axiom")
test_minor_coproduct_witness_is_first_failing_minor = row_test(
    "qmatrix.minor-coproduct")
test_confluence_and_pbw_witnesses_on_a_perturbed_rule = row_test(
    "qmatrix.pbw-dimensions")
test_minor_table_crosscheck_witness_names_the_entry = row_test(
    "qmatrix.minor-table-crosscheck")


def test_laplace_row_witness_writes_its_word(monkeypatch, capsys):
    """With the last right term of every expansion dropped, `verify
    laplace` fails at N=2 on the instance I = J = (1,), and the laplace-row
    witness writes the first word at which its sides differ as an X-word."""
    original = qmatrix.expansion_terms

    def dropped(family, instance):
        left, right = original(family, instance)
        return left, right[:-1]

    monkeypatch.setattr(qmatrix, "expansion_terms", dropped)
    monkeypatch.setitem(checks._CTX_CACHE, 2, QContext(2))
    inst = {"I": [1], "J": [1], "K": [], "K'": []}
    assert main(["verify", "laplace", "--N", "2",
                 "--instance", json.dumps(inst)]) == 1
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    row = next(r for r in records if r["command"] == "verify laplace-row")
    # X11 on the left, nothing left on the right
    assert row == {"command": "verify laplace-row", "instance": inst,
                   "status": "fail",
                   "witness": {"entry": "X11", "got": LP_ONE.to_json(),
                               "expected": LP_ZERO.to_json()}}


# -- the row side and the sparse sweeps, against dense references ---------------

@pytest.mark.parametrize("N", [2, 3])
def test_coimage_is_the_transpose_of_image(N):
    """Row `rows` of the matrix whose columns are image(which, s, cols) is
    coimage(which, s, rows), at every bidegree with s + t <= 3."""
    b = Bicharacter(N)
    for n in range(1, 4):
        words = list(product(range(1, N + 1), repeat=n))
        for s in range(n + 1):
            for which in ("r", "rinv"):
                rows = {}
                for cols in words:
                    for row, c in b.image(which, s, cols).items():
                        rows.setdefault(row, {})[cols] = c
                for row in words:
                    assert b.coimage(which, s, row) == rows.get(row, {}), \
                        (which, s, row)


def _nf_word_loop(rw, word):
    """The normal form of a word by inserting its letters right to left,
    nothing memoised but the insertions."""
    if len(word) <= 1:
        return {tuple(word): LP_ONE}
    acc = {word[-1:]: LP_ONE}
    for g in reversed(word[:-1]):
        nxt = {}
        for mono, c in acc.items():
            for m2, c2 in rw._insert(g, mono).items():
                add_term(nxt, m2, c * c2)
        acc = nxt
    return acc


def test_nf_word_matches_the_memo_free_loop():
    """The suffix-memoised normal form is the right-to-left loop's dict,
    entry for entry and in the same order: on every word of length <= 4 at
    N=2, and on 300 random words at N=3."""
    rw = derive_rewrite_system(2, exchange_relations(2))
    words = [w for n in range(5) for w in product(range(4), repeat=n)]
    rng = random.Random(20)
    rw3 = derive_rewrite_system(3, exchange_relations(3))
    words3 = [tuple(rng.randrange(9) for _ in range(rng.randint(2, 6)))
              for _ in range(300)]
    for system, ws in ((rw, words), (rw3, words3)):
        for w in ws:
            got = system.nf_word(w)
            assert list(got.items()) == list(_nf_word_loop(system, w).items()), w


def _minor_labels(N):
    return [(A, B) for k in range(N + 1) for A, B in product(subsets(N, k),
                                                             repeat=2)]


@pytest.mark.parametrize("N, count", [(2, 36), (3, 400)])
def test_minor_prod_nf_is_the_normal_form_of_the_product(N, count):
    """The insertion of Delta(A, B)'s words into minor_nf(C, D) is the
    normal form of the word product of the two minors, on every label
    quadruple."""
    ctx, oracle = QContext(N), QContext(N)
    quads = list(product(_minor_labels(N), repeat=2))
    assert len(quads) == count
    for (A, B), (C, D) in quads:
        want = oracle.rw.normal_form(oracle.minor(A, B) * oracle.minor(C, D))
        assert ctx.minor_prod_nf(A, B, C, D) == want, (A, B, C, D)


def test_minor_products_leave_no_word_in_the_suffix_memo():
    """Every minor product at N=3 leaves the suffix memo as the minors'
    own normal forms leave it: no product word enters it."""
    ctx, minors_only = QContext(3), QContext(3)
    labels = _minor_labels(3)
    for (A, B), (C, D) in product(labels, repeat=2):
        ctx.minor_prod_nf(A, B, C, D)
    for A, B in labels:
        minors_only.minor_nf(A, B)
    assert minors_only.rw._nf_memo
    assert ctx.rw._nf_memo == minors_only.rw._nf_memo


def _direct_expansion(family, inst):
    """The terms of a Laplace or Muir instance built on I and J themselves:
    the common rows I_F and columns J_G merged into the selections of the
    rest, the row family selecting K and K' among rows, the col family
    among columns."""
    I, J, K, Kp = inst["I"], inst["J"], inst["K"], inst["Kp"]
    F, G = ((), ()) if family.startswith("laplace") else (inst["F"],
                                                         inst["G"])
    IF, JG, Ic, Jc = select(I, F), select(J, G), rest(I, F), rest(J, G)
    left = [(LP_ONE, (I, J, IF, JG))] if K == Kp else []
    right = []
    for P in subsets(len(Ic), len(K)):
        rk, rkp, ck, ckp = ((K, Kp, P, P) if family.endswith("row")
                            else (P, P, K, Kp))
        right.append((lp_q_int(sum(P) - sum(K)),
                      (merge(IF, select(Ic, rk)), merge(JG, select(Jc, ck)),
                       merge(IF, rest(Ic, rkp)), merge(JG, rest(Jc, ckp)))))
    return left, right


@pytest.mark.parametrize("N", [2, 3])
def test_expansion_terms_match_the_direct_construction(N):
    assert not hasattr(qmatrix, "_EXPANSION_MEMO")
    for families, sweep in ((("laplace-row", "laplace-col"),
                             laplace_instances),
                            (("muir-row", "muir-col"), muir_instances)):
        for inst in sweep(N):
            for family in families:
                left, right = qmatrix.expansion_terms(family, inst)
                assert (list(left), list(right)) == \
                    _direct_expansion(family, inst), (family, inst)


def _dense_gencomm(ctx, I, J, Ip, Jp):
    kl, lk = ctx.table(len(I), len(Ip)), ctx.table(len(Ip), len(I))
    ksets, lsets = subsets(ctx.N, len(I)), subsets(ctx.N, len(Ip))
    left, right = {}, {}
    for Pp, K, L, Lp in product(lsets, ksets, ksets, lsets):
        add_term(left, (K, L, Lp),
                 lk.entry(Pp, Ip, J, K) * kl.entry(I, L, Pp, Lp))
        add_term(right, (K, L, Lp),
                 lk.entry(Pp, Lp, J, K) * kl.entry(I, L, Pp, Jp))
    return left, right


def _dense_contraction(ctx, a, c, b):
    tab = ctx.table(len(a), len(c))
    xsets, ysets = subsets(ctx.N, len(a)), subsets(ctx.N, len(c))
    out = {}
    for X, Y, Z, W in product(xsets, ysets, xsets, ysets):
        add_term(out, (X, Z, W), tab.inv_entry(X, a, c, Y) * tab.entry(b, Z, Y, W))
    return out


def _dense_braidcomm_factors(ctx, family, I, J, Ip, Jp):
    pairs = list(product(subsets(ctx.N, len(I)), subsets(ctx.N, len(Ip))))
    if family == "braidcomm-1":
        tab = ctx.table(len(I), len(Ip))
        first = {(A, B): tab.entry(A, I, Ip, B) for A, B in pairs}
        second = {(C, D): tab.inv_entry(J, C, D, Jp) for C, D in pairs}
    else:
        tab = ctx.table(len(Ip), len(I))
        first = {(A, B): tab.inv_entry(B, Ip, I, A) for A, B in pairs}
        second = {(C, D): tab.entry(Jp, D, C, J) for C, D in pairs}
    return ({key: c for key, c in first.items() if not c.is_zero()},
            {key: c for key, c in second.items() if not c.is_zero()})


@pytest.mark.parametrize("N", [2, 3])
def test_slice_sweeps_match_full_label_sweeps(N):
    """gencomm_coefficients, wedge_contraction and the braided-commutation
    factor lists, each read off table slices, against sweeps over every
    label tuple."""
    ctx = QContext(N)
    for inst in braidcomm_instances(N):
        I, J, Ip, Jp = (inst[n] for n in ("I", "J", "Ip", "Jp"))
        assert ctx.gencomm_coefficients(I, J, Ip, Jp) == \
            _dense_gencomm(ctx, I, J, Ip, Jp), inst
        for family in ("braidcomm-1", "braidcomm-2"):
            first, second = qmatrix.braidcomm_factors(ctx, family, I, J, Ip, Jp)
            want = _dense_braidcomm_factors(ctx, family, I, J, Ip, Jp)
            assert (dict(first), dict(second)) == want, (family, inst)
            assert len(first) == len(want[0]) and len(second) == len(want[1])
    for k in range(1, N + 1):
        for l in range(1, N + 1):
            for a, b in product(subsets(N, k), repeat=2):
                for c in subsets(N, l):
                    assert ctx.wedge_contraction(a, c, b) == \
                        _dense_contraction(ctx, a, c, b), (a, c, b)


@pytest.fixture(scope="module")
def swept3():
    """The contexts and star algebras of a fresh run of the qmatrix.* and
    rea.* suites of check-all at N=3, every certificate passing."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_CTX_CACHE", "_STAR_CACHE"):
            mp.setattr(checks, name, Memo(getattr(checks, name).compute))
        for name, suite in checks.CHECKS:
            if name.split(".")[0] in ("qmatrix", "rea"):
                assert all(c.status == "pass" for c in suite(3, 0)), name
        return dict(checks._CTX_CACHE), dict(checks._STAR_CACHE)


def _memo_coefficients(value):
    """Every LaurentPoly held in a memo value: dicts, tuples, NCPolys."""
    if isinstance(value, LaurentPoly):
        yield value
    elif isinstance(value, NCPoly):
        yield from _memo_coefficients(value.coeffs)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _memo_coefficients(v)
    elif isinstance(value, tuple):
        for v in value:
            yield from _memo_coefficients(v)


def test_memo_coefficients_are_one_object_per_value(swept3):
    ctxs, stars = swept3
    memos = [m for ctx in ctxs.values()
             for m in (ctx.rw._insert_memo, ctx.rw._nf_memo, ctx._minor_nf,
                       ctx._minor_prod, ctx._contractions, ctx._gencomm,
                       ctx.bich._images, ctx.bich._coimages, ctx.bich._memo)]
    memos += [m for star in stars.values()
              for m in (star._star_word_memo, star._star_minor_memo)]
    held = [c for memo in memos for c in _memo_coefficients(memo)]
    assert len(held) > 10 * len(set(held))
    assert len({id(c) for c in held}) == len(set(held))


def test_insert_memo_holds_no_sorted_insertion(swept3):
    ctxs, _ = swept3
    memo = ctxs[3].rw._insert_memo
    assert memo
    assert all(mono and g > mono[0] for g, mono in memo)
    # a sorted insertion is the one word, as before
    assert ctxs[3].rw._insert(0, (0, 4)) == {(0, 0, 4): LP_ONE}
