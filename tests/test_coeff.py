import ast
import inspect
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qrea import braiding, checks, qmatrix, rea, shapes
from qrea.braiding import rhat_entries
from qrea.coeff import (LP_ONE, LP_Q, LP_QINV, LP_ZERO, GaussRat,
                        LaurentPoly, NotAUnit, PoleAtPoint, Random, RatFunc,
                        ZeroDenominator, lp_q_int, rational_sqrt,
                        share_values)
from qrea.coeff import _from_dense, _to_dense
from test_suite_mutations import row_test


def L(d):
    return LaurentPoly(d)


def from_json(obj):
    """The LaurentPoly written as obj by to_json."""
    return LaurentPoly({int(e): int(c) for e, c in obj.items()})


def test_difference_of_squares():
    a = L({-1: 1, 1: -1})
    b = L({-1: 1, 1: 1})
    assert a * b == L({-2: 1, 2: -1})


def test_additive_identity():
    p = L({3: -2, -1: 7})
    assert p + LP_ZERO == p and LP_ZERO + p == p
    assert (p - p).is_zero()
    # a rational multiple enters through a RatFunc constant
    r = RatFunc(F(2, 5)) * RatFunc(p)
    assert r + RatFunc(0) == r and RatFunc(0) + r == r
    assert (r - r).is_zero() and (r - r) == RatFunc(0)


def test_repeated_distribution():
    # (q - 1)(q + 1)(q^2 + 1) expanded by hand: q^4 - 1
    p = L({1: 1, 0: -1}) * L({1: 1, 0: 1}) * L({2: 1, 0: 1})
    assert p == L({4: 1, 0: -1})


def test_rf_common_factor():
    assert RatFunc(L({2: 1, 0: -1}), L({1: 1, 0: -1})) \
        == RatFunc(L({1: 1, 0: 1}))


def test_rf_zero_numerator():
    assert RatFunc(LP_ZERO, L({5: 3})).is_zero()


def test_rf_gcd_reduction():
    lhs = RatFunc(L({0: 1, 4: -1}), L({0: 1, 2: -1}) * L({0: 1, 2: -1}))
    rhs = RatFunc(L({0: 1, 2: 1}), L({0: 1, 2: -1}))
    assert lhs == rhs


def test_rf_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc(L({0: 1}), LP_ZERO)


def test_eval_examples():
    assert L({-1: 1, 1: -1}).evaluate(F(1, 2)) == F(3, 2)
    assert L({-2: 1}).evaluate(F(1, 3)) == 9


def test_eval_pole():
    # a negative exponent is a pole at q = 0; a polynomial is not
    with pytest.raises(PoleAtPoint):
        L({-1: 1, 1: 1}).evaluate(0)
    assert L({0: 3, 2: 1}).evaluate(0) == 3


def test_taylor_examples():
    assert L({-1: 1, 1: -1}).taylor1() == (0, -2)
    assert L({0: 5}).taylor1() == (5, 0)
    assert L({-2: 1}).taylor1() == (1, -2)


def _random_laurent(rng):
    return LaurentPoly({rng.randint(-4, 4): F(rng.randint(-6, 6))
                        for _ in range(rng.randint(0, 4))})


def _random_rf(rng):
    den = LP_ZERO
    while den.is_zero():
        den = _random_laurent(rng)
    return RatFunc(_random_laurent(rng), den)


def test_field_axioms_random():
    rng = random.Random(11)
    zero, one = RatFunc(0), RatFunc(1)
    for _ in range(1000):
        a, b, c = (_random_rf(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == one
        assert a + zero == a and a * one == a


def test_rf_canonical_idempotent_and_cross_multiplication():
    rng = random.Random(5)
    for _ in range(400):
        a, b = _random_rf(rng), _random_rf(rng)
        assert RatFunc(a.num, a.den) == a
        assert (a == b) == ((a.num * b.den) == (b.num * a.den))


def _is_canonical(r):
    """The Z-content canonical form: int coefficients only, den a polynomial
    with nonzero constant term and positive leading coefficient, the gcd of
    all coefficients 1; zero is 0/1."""
    n, d = r.num.terms, r.den.terms
    if not n:
        return d == {0: 1}
    return (all(type(c) is int for c in (*n.values(), *d.values()))
            and min(d) == 0 and d[max(d)] > 0
            and gcd(*n.values(), *d.values()) == 1)


def test_denominator_normalisation():
    rng = random.Random(7)
    for _ in range(200):
        assert _is_canonical(_random_rf(rng))


def test_rational_constants_and_laurent_fractions_are_reduced():
    half = RatFunc(F(1, 2))
    assert (half.num.terms, half.den.terms) == ({0: 1}, {0: 2})
    assert not half.den.is_one()
    r = RatFunc(F(2, 3)) * RatFunc(L({1: 1, -1: 2}))
    assert (r.num.terms, r.den.terms) == ({1: 2, -1: 4}, {0: 3})
    assert _is_canonical(r) and _is_canonical(RatFunc(F(-6, 4)))
    assert (RatFunc(F(-6, 4)).num.terms,
            RatFunc(F(-6, 4)).den.terms) == ({0: -3}, {0: 2})
    assert RatFunc(F(4, 2)) == RatFunc(2) == RatFunc(L({0: 2}))
    # LaurentPoly is over Z: integral Fractions become ints, others raise
    ints = L({0: F(4, 2), 1: F(-3)}).terms
    assert ints == {0: 2, 1: -3} and all(type(c) is int for c in ints.values())
    with pytest.raises(ValueError):
        LaurentPoly({0: F(1, 2)})
    with pytest.raises(ValueError):
        LaurentPoly.const(F(-5, 3))
    assert RatFunc(L({2: 4}), L({0: 6})) == RatFunc(L({2: 2}), L({0: 3}))
    assert half * RatFunc(2) == RatFunc(1) == half + half
    assert RatFunc(L({0: 1}), L({0: -1, 1: -2})).den.terms == {0: 1, 1: 2}


def test_eval_matches_direct_substitution():
    rng = random.Random(13)
    for _ in range(20):
        p = _random_laurent(rng)
        q0 = F(rng.randint(1, 9), rng.randint(1, 9))
        direct = sum((c * q0 ** e for e, c in p.terms.items()), F(0))
        assert p.evaluate(q0) == direct


def test_minus_q_powers():
    assert lp_q_int(0) == LP_ONE
    assert lp_q_int(2) == L({2: 1})
    assert lp_q_int(-1) == L({-1: -1})
    assert lp_q_int(3) * lp_q_int(-3) == LP_ONE
    assert all(type(lp_q_int(n)) is LaurentPoly for n in range(-3, 4))


def test_monomials_are_one_object_per_value():
    # every path to +-q^k ends at the one object of its value
    assert LP_Q * LP_QINV is LP_ONE
    assert lp_q_int(2) is LaurentPoly.q_power(2)
    assert LP_Q.inv() is LP_QINV
    assert -lp_q_int(1) is LP_Q and -(-LP_ONE) is LP_ONE
    assert lp_q_int(3) * lp_q_int(-1) is LaurentPoly.q_power(2)
    assert RatFunc(L({1: 2}), L({0: 2})).num is LP_Q
    # monomials keep their exact norm 1
    assert all(lp_q_int(k).n == 1 for k in range(-3, 4))


def test_a_product_by_one_is_the_other_factor():
    for x in (lp_q_int(3), L({0: 2, 1: -1}) + LP_Q, LP_ZERO):
        assert LP_ONE * x is x and x * LP_ONE is x, x


def test_share_values_keeps_one_object_per_value():
    first = {"a": L({0: 1, 2: -3}), "b": L({1: 1, 2: 1}) - L({2: 1})}
    second = {"a": L({0: 1, 2: -3}), "b": L({1: 1})}
    assert share_values(first) is first
    share_values(second)
    assert second["a"] is first["a"] and first["b"] is second["b"] is LP_Q
    assert first == {"a": L({0: 1, 2: -3}), "b": LP_Q}


def test_laurent_json_roundtrip():
    p = L({-2: 3, 0: -1, 5: F(22)})
    back = from_json(p.to_json())
    assert back == p and all(type(c) is int for c in back.terms.values())
    # a RatFunc writes its canonical num and den, den only when it is not 1;
    # a rational constant factor travels in the denominator
    assert RatFunc(p).to_json() == {"num": p.to_json()}
    s = RatFunc(F(3, 7)) * RatFunc(L({0: 1, 2: 1}), L({0: 1, 2: -1}))
    assert s.to_json() == {"num": {"0": "-3", "2": "-3"},
                           "den": {"0": "-7", "2": "7"}}


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

_coeff = st.integers(-6, 6)
_laurent_st = st.dictionaries(st.integers(-3, 3), _coeff,
                              max_size=4).map(LaurentPoly)
_nonzero_st = _laurent_st.filter(lambda p: not p.is_zero())
_rational_st = st.fractions(min_value=-6, max_value=6,
                            max_denominator=4).filter(bool)


def _sympy_reduced(num, den, k=F(1)):
    """(num, den) term dicts of k * num/den as sympy.cancel reduces it, put
    in the Z-content canonical form: den a polynomial with nonzero constant
    term and positive leading coefficient, all coefficients integers with
    gcd 1."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * q ** e
                    for e, c in p.terms.items()), sympy.Integer(0))

    k = sympy.Rational(k.numerator, k.denominator)
    n, d = sympy.fraction(sympy.cancel(k * expr(num) / expr(den)))
    terms = {}
    for key, p in (("num", n), ("den", d)):
        terms[key] = {m: F(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
                      for (m,), c in sympy.Poly(p, q).terms() if c}
    low = min(terms["den"])
    scale = lcm(*(c.denominator for t in terms.values() for c in t.values()))
    ints = [c * scale for t in terms.values() for c in t.values()]
    content = gcd(*(int(c) for c in ints))
    if terms["den"][max(terms["den"])] < 0:
        content = -content
    return tuple({m - low: int(c * scale / content) for m, c in terms[key].items()}
                 for key in ("num", "den"))


@settings(max_examples=100, deadline=None)
@given(_laurent_st, _nonzero_st, _nonzero_st, _rational_st)
def test_reduction_matches_sympy_cancel(a, b, c, k):
    # a common factor c, so that the gcd is nontrivial most of the time
    num, den = a * c, b * c
    r = RatFunc(num, den)
    got = (r.num.terms, r.den.terms)
    assert got == _sympy_reduced(num, den)
    assert all(type(x) is int for t in got for x in t.values())
    assert RatFunc(r.num, r.den) == r
    # a rational constant k enters as k.numerator over k.denominator
    for kr in (RatFunc(k) * r, r * RatFunc(k)):
        assert (kr.num.terms, kr.den.terms) == _sympy_reduced(num, den, k)
        assert _is_canonical(kr)


@st.composite
def _rf_pairs(draw):
    """Two RatFuncs whose denominators, or one's numerator and the other's
    denominator, often share the factor c, so that the reductions after +
    and * meet nontrivial gcds."""
    c = draw(_nonzero_st)
    x = RatFunc(draw(_laurent_st), draw(_nonzero_st) * c)
    yn, yd = draw(_laurent_st), draw(_nonzero_st)
    if draw(st.booleans()):
        yn = yn * c
    if draw(st.booleans()):
        yd = yd * c
    return x, RatFunc(yn, yd)


@settings(max_examples=100, deadline=None)
@given(_rf_pairs())
def test_shortcut_ops_match_full_reduction(pair):
    x, y = pair
    cross = (x.num * y.den, y.num * x.den)
    results = [(x * y, RatFunc(x.num * y.num, x.den * y.den)),
               (x + y, RatFunc(cross[0] + cross[1], x.den * y.den)),
               (x - y, RatFunc(cross[0] - cross[1], x.den * y.den)),
               (-x, RatFunc(-x.num, x.den))]
    if not y.is_zero():
        results += [(x / y, RatFunc(x.num * y.den, x.den * y.num)),
                    (y.inv(), RatFunc(y.den, y.num))]
    for got, full in results:
        assert got == full
        assert _is_canonical(got)


_frac_st = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(_frac_st, _frac_st, _frac_st, _frac_st, _frac_st)
def test_gauss_rat_matches_fraction_pair_oracle(xr, xi, yr, yi, c):
    x, y = GaussRat(xr, xi), GaussRat(yr, yi)
    results = [(x, xr, xi), (x + y, xr + yr, xi + yi),
               (x - y, xr - yr, xi - yi), (-x, -xr, -xi),
               (x * y, xr * yr - xi * yi, xr * yi + xi * yr),
               (x.conj(), xr, -xi), (x.scale(c), xr * c, xi * c),
               (x.scale(int(c)), xr * int(c), xi * int(c))]
    n = yr * yr + yi * yi
    if n:
        results.append((x / y, (xr * yr + xi * yi) / n, (xi * yr - xr * yi) / n))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for g, re, im in results:
        assert (g.re, g.im) == (re, im)
        assert all(type(v) is int for v in (g.a, g.b, g.d))
        assert g.d > 0 and gcd(g.a, g.b, g.d) == 1
        assert g.is_zero() == (re == 0 and im == 0)
        assert g.to_json() == {"re": str(re), "im": str(im)}
    assert x.abs2() == xr * xr + xi * xi
    assert (x == y) == ((xr, xi) == (yr, yi))
    assert (x == xr) == (xi == 0) and (x == 0) == x.is_zero()
    assert (hash(x) == hash(y)) or x != y
    assert GaussRat.from_json(x.to_json()) == x


@settings(max_examples=100, deadline=None)
@given(st.fractions(), _frac_st)
def test_real_gauss_rat_hashes_as_its_fraction(x, y):
    """a == b implies hash(a) == hash(b): a real GaussRat, however it was
    computed, equals its Fraction (an integral one also its int), so it
    hashes as that, and a set holding both has one element."""
    z = GaussRat(y, y)
    for g in (GaussRat(x), GaussRat(x, y) + GaussRat(0, -y), z * z.conj()):
        values = [g.re] + ([g.re.numerator] if g.re.denominator == 1 else [])
        for v in values:
            assert g == v and hash(g) == hash(v)
            assert len({g, v}) == len({v, g}) == 1


# -- the packed form against a dict reference -----------------------------------

_GUARD = 2 ** 62


class _DictLaurent:
    """Reference Z[q, q^-1]: a map exponent -> nonzero int coefficient, with
    unbounded coefficients."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    def __add__(self, other):
        d = dict(self.terms)
        for e, c in other.terms.items():
            d[e] = d.get(e, 0) + c
        return _DictLaurent(d)

    def __neg__(self):
        return _DictLaurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        d = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                d[ea + eb] = d.get(ea + eb, 0) + ca * cb
        return _DictLaurent(d)

    def norm(self):
        return sum(abs(c) for c in self.terms.values())


def _assert_same(p, ref):
    """Every reading of the packed p agrees with the reference value."""
    t = ref.terms
    assert p.terms == t
    assert all(type(c) is int for c in p.terms.values())
    assert p.is_zero() == (not t)
    assert p.is_one() == (t == {0: 1})
    if t:
        assert (p.min_exp(), p.max_exp()) == (min(t), max(t))
    fresh = LaurentPoly(t)
    assert p == fresh and hash(p) == hash(fresh)
    assert from_json(p.to_json()) == p
    assert p.to_json() == {str(e): str(c) for e, c in sorted(t.items())}
    q0 = F(-2, 3)
    assert p.evaluate(q0) == sum((c * q0 ** e for e, c in t.items()), F(0))
    assert p.taylor1() == (sum(t.values()), sum(c * e for e, c in t.items()))
    unit = len(t) == 1 and abs(*t.values()) == 1
    if unit:
        (e, c), = t.items()
        assert p.inv().terms == {-e: c} and p * p.inv() == LP_ONE
    else:
        with pytest.raises(NotAUnit):
            p.inv()


@st.composite
def _reference_terms(draw):
    """Exponents of both signs, spread over many 64-bit digits, small
    coefficients and sometimes one near the guard, l1 norm below 2^62."""
    exps = st.integers(-70, 70)
    d = draw(st.dictionaries(exps, st.integers(-6, 6), max_size=5))
    if draw(st.booleans()):
        room = _GUARD - 1 - sum(abs(c) for e, c in d.items())
        d[draw(exps)] = draw(st.sampled_from([1, -1])) * draw(
            st.integers(room - 20, room) | st.integers(1, 2 ** 40))
    return d


@st.composite
def _reference_pairs(draw):
    """Two term dicts; the second often holds the negatives of some of the
    first's terms, so that a sum cancels, in part or to zero."""
    a, b = draw(_reference_terms()), draw(_reference_terms())
    if draw(st.booleans()):
        for e, c in a.items():
            if draw(st.booleans()):
                b[e] = -c
    if draw(st.booleans()):
        b = {e: -c for e, c in a.items()}
    if sum(abs(c) for c in b.values()) >= _GUARD:
        b = {e: -c for e, c in a.items()}
    return a, b


@settings(max_examples=300, deadline=None)
@given(_reference_pairs())
def test_packed_laurent_matches_dict_reference(pair):
    ra, rb = (_DictLaurent(d) for d in pair)
    a, b = LaurentPoly(pair[0]), LaurentPoly(pair[1])
    _assert_same(a, ra)
    _assert_same(b, rb)
    assert (a == b) == (ra.terms == rb.terms)
    assert (hash(a) == hash(b)) or a != b
    _assert_same(-a, -ra)
    # a result of l1 norm 2^62 or more is refused, any other is exact
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        ref = op(ra, rb)
        if ref.norm() >= _GUARD:
            with pytest.raises(OverflowError):
                op(a, b)
        else:
            _assert_same(op(a, b), ref)
    # a sum that cancelled keeps a loose norm bound into the next product
    if (ra + rb).norm() < _GUARD:
        ref = (ra + rb) * rb
        if ref.norm() >= _GUARD:
            with pytest.raises(OverflowError):
                (a + b) * b
        else:
            _assert_same((a + b) * b, ref)


def test_norm_guard_raises_overflow():
    top = _GUARD - 1
    big = L({0: top})
    with pytest.raises(OverflowError):
        L({0: _GUARD})
    with pytest.raises(OverflowError):
        L({-1: 2 ** 61, 5: -2 ** 61})
    with pytest.raises(OverflowError):
        big + LP_ONE
    with pytest.raises(OverflowError):
        big - L({3: -1})
    with pytest.raises(OverflowError):
        big * L({0: 2})
    # a coefficient past 2^63 would wrap into the next digit of the int product
    with pytest.raises(OverflowError):
        big * L({0: 4, 1: 1})
    with pytest.raises(OverflowError):
        big * big
    x = L({0: 2 ** 60})
    with pytest.raises(OverflowError):
        x + x + x + x
    # the bound reaches 2^62, the exact norm does not: the value stands
    assert (big + L({0: 1 - top, 2: 1})).terms == {0: 1, 2: 1}
    assert (big - big).is_zero() and big * LP_ONE == big
    # (1 + q) * (1 - q + q^2 - q^3 + q^4) = 1 + q^5; the bound is 2.5 * 2^62
    a = L({0: 2, 1: 2})
    b = L({i: (-1) ** i * 2 ** 59 for i in range(5)})
    assert (a * b).terms == {0: 2 ** 60, 5: 2 ** 60}


def _dense_lists():
    inner = st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=6)
    zeros = st.integers(0, 3).map(lambda k: [0] * k)
    return st.tuples(zeros, inner, zeros).map(lambda t: t[0] + t[1] + t[2])


@settings(max_examples=200, deadline=None)
@given(st.integers(-70, 70), _dense_lists())
def test_dense_roundtrip_with_zeros_at_both_ends(offset, coeffs):
    p = _from_dense(offset, coeffs)
    assert p.terms == {offset + i: c for i, c in enumerate(coeffs) if c}
    lo, dense = _to_dense(p)
    nonzero = [i for i, c in enumerate(coeffs) if c]
    if nonzero:
        # the zeros at both ends are gone, the inner ones kept
        assert dense == coeffs[nonzero[0]:nonzero[-1] + 1]
        assert lo == offset + nonzero[0]
    else:
        assert (lo, dense) == (0, []) and p.is_zero()
    assert _from_dense(lo, dense) == p


def test_dense_roundtrip_examples():
    p = _from_dense(-3, [0, 0, 5, -1, 0, 2 ** 61, 0, 0])
    assert p.terms == {-1: 5, 0: -1, 2: 2 ** 61}
    assert _to_dense(p) == (-1, [5, -1, 0, 2 ** 61])
    assert _from_dense(4, [0, 0]).is_zero()
    assert _to_dense(LP_ZERO) == (0, [])


def test_non_integral_exponent_raises():
    for bad in ({1.5: 1}, {F(1, 2): 3}, {F(-7, 2): 0}):
        with pytest.raises(ValueError):
            LaurentPoly(bad)
    # integral exponents of other types are taken as their int
    assert LaurentPoly({2.0: 1, F(-4, 2): 3}).terms == {2: 1, -2: 3}
    assert from_json({"-2": "3", "2": "1"}) == L({-2: 3, 2: 1})


# -- the integer fast path ------------------------------------------------------

def test_laurent_path_coefficients_stay_int(star3):
    """The R-hat table, wedge tables, bicharacter tables and memos and the
    twisted products at N=3 have integral coefficients only; each must be
    stored as an int, or a stray Fraction literal would silently put the
    whole twisted-product path back on Fraction arithmetic."""
    ctx = star3.ctx
    for u, v in [((0,), (4,)), ((1, 3), (5,)), ((8,), (0, 4)), ((2, 6), (7, 2))]:
        star3.star_word(u, v)
        # the twisted product and the certificates read images only
        ctx.bich.r(u, v), ctx.bich.r_prime(u, v)
    for which in ("rinv", "rpr"):
        assert ctx.bich.certify_bidegree(1, 1, which) is None
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
    bad = [v for v in values if type(v) is not LaurentPoly
           or any(type(c) is not int for c in v.terms.values())]
    assert not bad, f"{len(bad)} of {len(values)} values off the int path: {bad[:3]}"


def test_quantum_side_values_are_laurent():
    """After every qmatrix.* and rea.* suite at N=3, every coefficient the
    quantum side stores is a LaurentPoly, not a RatFunc with denominator 1;
    and no quantum-side module names RatFunc or its constants."""
    for name, suite in checks.CHECKS:
        if name.startswith(("qmatrix.", "rea.")):
            assert all(c.status == "pass" for c in suite(3, 0)), name
    ctx, star = checks.get_ctx(3), checks.get_star(3)
    bich = ctx.bich
    sources = {
        "bicharacter tables": [c for table in bich._tables.values()
                               for column in table.values()
                               for _, c in column],
        "bicharacter images": [c for images in bich._images.values()
                               for img in images.values()
                               for c in img.values()],
        "bicharacter coimages": [c for coimages in bich._coimages.values()
                                 for img in coimages.values()
                                 for c in img.values()],
        "bicharacter memos": [c for memo in bich._memo.values()
                              for c in memo.values()],
        "wedge tables": [c for t in ctx._tables.values()
                         for c in (*t.entries.values(),
                                   *t.inv_entries.values())],
        "rewrite rules": [c for rhs in ctx.rw.rules.values()
                          for c in rhs.values()],
        "insert memo": [c for img in ctx.rw._insert_memo.values()
                        for c in img.values()],
        "minor normal forms": [c for p in ctx._minor_nf.values()
                               for c in p.coeffs.values()],
        "minor products": [c for p in ctx._minor_prod.values()
                           for c in p.coeffs.values()],
        "table slices": [c for t in ctx._tables.values()
                         for sl in t._slices.values()
                         for group in sl.values() for _, c in group],
        "normal forms": [c for nf in ctx.rw._nf_memo.values()
                         for c in nf.values()],
        "star_word memo": [c for p in star._star_word_memo.values()
                           for c in p.coeffs.values()],
        "star_minor memo": [c for p in star._star_minor_memo.values()
                            for c in p.coeffs.values()],
    }
    for source, values in sources.items():
        assert values, source
        bad = [v for v in values if type(v) is not LaurentPoly]
        assert not bad, f"{source}: {len(bad)} of {len(values)}: {bad[:3]}"
    for module in (braiding, qmatrix, rea, shapes):
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(ast.parse(inspect.getsource(module)))
                 if isinstance(node, (ast.Name, ast.Attribute))}
        names |= {alias.name for node in ast.walk(ast.parse(
                      inspect.getsource(module)))
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not {n for n in names
                    if n == "RatFunc" or n.startswith(("RF_", "rf_"))}, \
            module.__name__


def test_laurent_inverse_only_of_units():
    for unit in (L({0: 1}), L({0: -1}), L({3: 1}), L({-2: -1})):
        assert unit * unit.inv() == LP_ONE
        assert type(unit.inv()) is LaurentPoly
    for value in (L({0: 2}), L({0: 1, 1: 1}), LP_ZERO, L({1: -3})):
        with pytest.raises(NotAUnit) as exc:
            value.inv()
        # raised with the value; the message is formatted when read
        assert exc.value.args == (value,)
        assert str(exc.value) == f"{value!r} is not a unit of Z[q, q^-1]"
    assert str(NotAUnit("a message")) == "a message"
    assert issubclass(NotAUnit, ZeroDivisionError)


def test_laurent_reads_as_fraction_over_one():
    p = L({-1: 1, 1: -1})
    assert p.num is p and p.den == LP_ONE
    assert LP_ZERO.den == LP_ONE
    # a RatFunc built from the pair is the same value over its field
    assert RatFunc(p.num, p.den) == RatFunc(p)
    with pytest.raises(AttributeError):
        p.num = L({0: 1})


# -- failure witnesses of the coeff suites: rows of the mutation table ---------

test_ring_axioms_witness_names_first_broken_law = row_test(
    "coeff.ring-axioms")
test_rf_canonical_witness_names_first_broken_law = row_test(
    "coeff.rf-canonical")
test_eval_witness_names_the_point = row_test("coeff.eval-direct-substitution")


def test_ring_axioms_fail_on_a_perturbed_product(monkeypatch):
    # a product that drops the top term of a two-term factor: commutative,
    # and caught by the first triple whose laws see it
    right = LaurentPoly.__mul__

    def perturbed(a, b):
        p = right(a, b)
        if len(a.terms) == 2 and len(p.terms) > 1:
            return LaurentPoly({e: c for e, c in p.terms.items()
                                if e != p.max_exp()})
        return p

    monkeypatch.setattr(LaurentPoly, "__mul__", perturbed)
    cert, = checks.check_coeff_ring_axioms(2, 0)
    assert cert.status == "fail"
    w = cert.witness["first"]
    args = [from_json(x) for x in w["args"]]
    law = dict(checks._RING_LAWS)[w["law"]]
    assert not law(*args)
    monkeypatch.setattr(LaurentPoly, "__mul__", right)
    assert law(*args)


@pytest.mark.parametrize("a, unit", [
    (L({3: 1}), True), (L({-2: -1}), True), (LP_ONE, True),
    (LP_ZERO, False), (L({0: 2}), False), (L({1: 1, 0: 1}), False),
])
def test_units_law(monkeypatch, a, unit):
    # a * a.inv() = 1 for +-q^k, and NotAUnit for anything else, 0 included
    assert checks._units_law(a, None, None)
    if unit:
        assert a * a.inv() == LP_ONE
    else:
        with pytest.raises(NotAUnit):
            a.inv()

    def refuse(self):
        raise NotAUnit(repr(self))

    # an inv() that refuses a unit, or answers for a non-unit, breaks it
    monkeypatch.setattr(LaurentPoly, "inv",
                        refuse if unit else lambda self: LP_ONE)
    assert not checks._units_law(a, None, None)


@pytest.mark.parametrize("N", [2, 3])
def test_no_suite_does_ratfunc_arithmetic(monkeypatch, N):
    """Every check-all suite passes with RatFunc's arithmetic refusing to
    run: the certificates compute over LaurentPoly, and the rf-canonical
    suite only builds and compares fractions."""
    def refuse(*args):
        raise AssertionError("RatFunc arithmetic in a check-all suite")

    for op in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
               "inv"):
        monkeypatch.setattr(RatFunc, op, refuse)
    for name, suite in checks.CHECKS:
        certs = suite(N, 0)
        assert certs and all(c.status == "pass" for c in certs), name


def test_randint_draws_the_stream_of_random_random():
    # over ranges of every bit width 1..70, a power of two among them,
    # each draw and the generator's state after it are random.Random's
    for seed in (0, 1, 7, 2 ** 40 + 3):
        ours, theirs = Random(seed), random.Random(seed)
        for width in range(1, 71):
            for n in (1 << (width - 1), (1 << (width - 1)) + 1,
                      (1 << width) - 1):
                for a in (-(n // 2), 0, 5):
                    assert ours.randint(a, a + n - 1) == theirs.randint(
                        a, a + n - 1), (seed, a, n)
        assert ours.getstate() == theirs.getstate()
    with pytest.raises(ValueError):
        Random(0).randint(1, 0)
