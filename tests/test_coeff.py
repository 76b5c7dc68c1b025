import random
from fractions import Fraction as F

import pytest

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
