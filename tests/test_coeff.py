import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qrea.braiding import rhat_entries
from qrea.coeff import (GaussRat, LaurentPoly, PoleAtPoint, RatFunc,
                        RF_ONE, RF_ZERO, ZeroDenominator, rational_sqrt,
                        rf_q_int)


def L(d):
    return LaurentPoly(d)


def test_difference_of_squares():
    a = L({-1: 1, 1: -1})
    b = L({-1: 1, 1: 1})
    assert a * b == L({-2: 1, 2: -1})


def test_additive_identity():
    p = L({3: F(2, 5), -1: 7})
    assert p + LaurentPoly.zero() == p
    assert (p - p).is_zero()


def test_repeated_distribution():
    # (q - 1)(q + 1)(q^2 + 1) expanded by hand: q^4 - 1
    p = L({1: 1, 0: -1}) * L({1: 1, 0: 1}) * L({2: 1, 0: 1})
    assert p == L({4: 1, 0: -1})


def test_rf_common_factor():
    assert RatFunc(L({2: 1, 0: -1}), L({1: 1, 0: -1})) \
        == RatFunc.from_laurent(L({1: 1, 0: 1}))


def test_rf_zero_numerator():
    assert RatFunc(LaurentPoly.zero(), L({5: 3})).is_zero()


def test_rf_gcd_reduction():
    lhs = RatFunc(L({0: 1, 4: -1}), L({0: 1, 2: -1}) * L({0: 1, 2: -1}))
    rhs = RatFunc(L({0: 1, 2: 1}), L({0: 1, 2: -1}))
    assert lhs == rhs


def test_rf_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc(L({0: 1}), LaurentPoly.zero())


def test_eval_examples():
    assert RatFunc.from_laurent(L({-1: 1, 1: -1})).evaluate(F(1, 2)) == F(3, 2)
    assert RatFunc.from_laurent(L({-2: 1})).evaluate(F(1, 3)) == 9
    # geometric sum (1 - q^3)/(1 - q) at 1/2
    assert RatFunc(L({0: 1, 3: -1}), L({0: 1, 1: -1})).evaluate(F(1, 2)) == F(7, 4)


def test_eval_pole():
    r = RatFunc(L({0: 1}), L({1: 1, 0: -1}))
    with pytest.raises(PoleAtPoint):
        r.evaluate(F(1))


def test_taylor_examples():
    assert L({-1: 1, 1: -1}).taylor1() == (0, -2)
    assert L({0: 5}).taylor1() == (5, 0)
    assert L({-2: 1}).taylor1() == (1, -2)


def test_taylor_ratfunc_quotient_rule():
    r = RatFunc(L({0: 1, 1: 1}), L({0: 2, 1: -1}))  # (1+q)/(2-q)
    c0, c1 = r.taylor1()
    assert c0 == 2 and c1 == 3  # d/dq [(1+q)/(2-q)] at 1 = 3


def _random_laurent(rng):
    return LaurentPoly({rng.randint(-4, 4): F(rng.randint(-6, 6))
                        for _ in range(rng.randint(0, 4))})


def _random_rf(rng):
    den = LaurentPoly.zero()
    while den.is_zero():
        den = _random_laurent(rng)
    return RatFunc(_random_laurent(rng), den)


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (_random_rf(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == RF_ONE
        assert a + RF_ZERO == a and a * RF_ONE == a


def test_rf_canonical_idempotent_and_cross_multiplication():
    rng = random.Random(5)
    for _ in range(400):
        a, b = _random_rf(rng), _random_rf(rng)
        assert RatFunc(a.num, a.den) == a
        assert (a == b) == ((a.num * b.den) == (b.num * a.den))


def test_denominator_normalisation():
    rng = random.Random(7)
    for _ in range(200):
        a = _random_rf(rng)
        if a.is_zero():
            assert a.den.is_one()
            continue
        assert a.den.min_exp() == 0
        assert a.den.terms[a.den.max_exp()] == 1  # monic


def test_eval_matches_direct_substitution():
    rng = random.Random(13)
    for _ in range(20):
        p = _random_laurent(rng)
        q0 = F(rng.randint(1, 9), rng.randint(1, 9))
        direct = sum((c * q0 ** e for e, c in p.terms.items()), F(0))
        assert p.evaluate(q0) == direct


def test_minus_q_powers():
    assert rf_q_int(0) == RF_ONE
    assert rf_q_int(2) == RatFunc.from_laurent(L({2: 1}))
    assert rf_q_int(-1) == RatFunc.from_laurent(L({-1: -1}))
    assert rf_q_int(3) * rf_q_int(-3) == RF_ONE


def test_laurent_json_roundtrip():
    p = L({-2: F(3, 7), 0: -1, 5: F(22)})
    assert LaurentPoly.from_json(p.to_json()) == p
    r = RatFunc(L({0: 1, 2: 1}), L({0: 1, 2: -1}))
    assert RatFunc.from_json(r.to_json()) == r


def test_gauss_rat_field_and_conjugation():
    rng = random.Random(3)
    for _ in range(300):
        a = GaussRat(F(rng.randint(-5, 5), rng.randint(1, 4)),
                     F(rng.randint(-5, 5), rng.randint(1, 4)))
        b = GaussRat(F(rng.randint(-5, 5), rng.randint(1, 4)),
                     F(rng.randint(-5, 5), rng.randint(1, 4)))
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a
        assert (a + b).conj() == a.conj() + b.conj()
        if not b.is_zero():
            assert (a / b) * b == a


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(0)) == 0


# -- reduction against an independent oracle ----------------------------------

_coeff = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-6, max_value=6, max_denominator=4))
_laurent_st = st.dictionaries(st.integers(-3, 3), _coeff,
                              max_size=4).map(LaurentPoly)
_nonzero_st = _laurent_st.filter(lambda p: not p.is_zero())


def _canonical_types(p):
    """Every coefficient an int when integral, a Fraction otherwise."""
    return all(type(c) is int or (type(c) is F and c.denominator != 1)
               for c in p.terms.values())


def _sympy_reduced(num, den):
    """(num, den) term dicts of num/den as sympy.cancel reduces it, with the
    denominator made a monic polynomial with nonzero constant term."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * q ** e
                    for e, c in p.terms.items()), sympy.Integer(0))

    n, d = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    dp = sympy.Poly(d, q)
    low = min(m for (m,), _ in dp.terms())
    lc = dp.LC()

    def terms(p):
        out = {}
        for (m,), c in sympy.Poly(p, q).terms():
            if c:
                r = sympy.Rational(c / lc)
                out[m - low] = F(int(r.p), int(r.q))
        return out

    return terms(n), terms(d)


@settings(max_examples=100, deadline=None)
@given(_laurent_st, _nonzero_st, _nonzero_st)
def test_reduction_matches_sympy_cancel(a, b, c):
    # a common factor c, so that the gcd is nontrivial most of the time
    num, den = a * c, b * c
    r = RatFunc(num, den)
    assert (r.num.terms, r.den.terms) == _sympy_reduced(num, den)
    assert _canonical_types(r.num) and _canonical_types(r.den)
    assert RatFunc(r.num, r.den) == r


# -- the integer fast path ------------------------------------------------------

def test_laurent_path_coefficients_stay_int(star3):
    """The R-hat table, wedge tables, bicharacter tables and memos and the
    twisted products at N=3 have integral coefficients only; each must be
    stored as an int, or a stray Fraction literal would silently put the
    whole twisted-product path back on Fraction arithmetic."""
    ctx = star3.ctx
    for u, v in [((0,), (4,)), ((1, 3), (5,)), ((8,), (0, 4)), ((2, 6), (7, 2))]:
        star3.star_word(u, v)
    for which in ("rinv", "rpr"):
        assert ctx.bich.certify_bidegree(1, 1, which)
    values = list(rhat_entries(3).values())
    for k in range(1, 4):
        for l in range(1, 4):
            t = ctx.table(k, l)
            values += [*t.entries.values(), *t.inv_entries.values()]
    bich = ctx.bich
    for table in bich._tables.values():
        values += [c for column in table.values() for _, c in column]
    for memo in bich._memo.values():
        assert memo
        values += memo.values()
    for images in bich._images.values():
        values += [c for img in images.values() for c in img.values()]
    assert star3._star_word_memo
    for p in star3._star_word_memo.values():
        values += p.coeffs.values()
    bad = [v for v in values for p in (v.num, v.den)
           if any(type(c) is not int for c in p.terms.values())]
    assert not bad, f"{len(bad)} of {len(values)} values off the int path: {bad[:3]}"
