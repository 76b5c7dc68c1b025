"""Exact scalar arithmetic.

Everything on the quantum side of the package is computed over ``RatFunc``,
the field of rational functions in a single deformation parameter ``q`` with
rational coefficients.  Laurent polynomials (integer exponents allowed) are
the workhorse; rational functions only appear through the wedge-splitting
denominators and through solved linear systems, and are kept in a canonical
reduced form so that equality is structural.

A coefficient is a Python ``int`` whenever it is integral and a ``Fraction``
only when it is not, so the braid tables, the bicharacter and the twisted
product, whose coefficients are all integral, run on ``int`` arithmetic.
``int`` and an integral ``Fraction`` compare, hash and print alike, so the
representation does not show in equality, hashing or JSON.  Reduction works
over the integers too: denominators are cleared by one common integer, the
gcd is taken by the primitive polynomial remainder sequence (Knuth, TAOCP
vol. 2, 4.6.1), and only the final monic normalisation divides.

``GaussRat`` provides exact complex rationals for the classical side, where
minor vanishing has to be decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

F0 = Fraction(0)
F1 = Fraction(1)


class ZeroDenominator(ZeroDivisionError):
    """Attempt to form a rational function with zero denominator."""


class PoleAtPoint(ZeroDivisionError):
    """Evaluation of a rational function at a pole."""


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial in q with rational coefficients.

    Stored as a map exponent -> nonzero coefficient; the empty map is 0.  A
    coefficient is an ``int`` when it is integral and a ``Fraction``
    otherwise; every constructor and operation keeps it so.  Instances are
    treated as immutable.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        d = {}
        if terms:
            for e, c in terms.items():
                if type(c) is not int:
                    c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c:
                    d[int(e)] = c
        self.terms = d
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return _LP_ZERO

    @staticmethod
    def one():
        return _LP_ONE

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(n, coeff=1):
        return LaurentPoly({n: coeff})

    # -- predicates / accessors ---------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: 1}

    def min_exp(self):
        return min(self.terms)

    def max_exp(self):
        return max(self.terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        d = dict(a)
        for e, c in b.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            else:
                d.pop(e, None)
        return _laurent(d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _laurent({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if not a or not b:
            return _LP_ZERO
        d = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = d.get(e, 0) + ca * cb
                if s:
                    d[e] = s
                else:
                    d.pop(e, None)
        return _laurent(d)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    # -- calculus ------------------------------------------------------------

    def evaluate(self, q0):
        """Exact value at a rational point q0 (q0 != 0 if negative exponents)."""
        q0 = Fraction(q0)
        if q0 == 0 and self.terms and self.min_exp() < 0:
            raise PoleAtPoint("negative exponent at q0 = 0")
        total = F0
        for e, c in self.terms.items():
            total += c * q0 ** e
        return total

    def taylor1(self):
        """(p(1), p'(1)) — value and first derivative at q = 1."""
        c0 = F0
        c1 = F0
        for e, c in self.terms.items():
            c0 += c
            c1 += c * e
        return c0, c1

    # -- serialisation / display ---------------------------------------------

    def to_json(self):
        return {str(e): str(c) for e, c in sorted(self.terms.items())}

    @staticmethod
    def from_json(obj):
        return LaurentPoly({int(e): Fraction(c) for e, c in obj.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
            else:
                qs = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    parts.append(qs)
                elif c == -1:
                    parts.append(f"-{qs}")
                else:
                    parts.append(f"{c}*{qs}")
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s


def _laurent(d):
    """LaurentPoly on a dict of nonzero coefficients, taken over as is
    except that integral Fractions become ints."""
    for e, c in d.items():
        if type(c) is not int and c.denominator == 1:
            d[e] = c.numerator
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = d
    out._hash = None
    return out


_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly({0: 1})


# -- dense polynomials, for reduction -------------------------------------------
#
# A dense polynomial is its coefficient list, constant term first, with a
# nonzero last entry; [] is 0.  From _dense_primitive on, the lists hold ints.

def _to_dense(p):
    """(offset, coefficient list) with list[0] != 0 unless p == 0."""
    if not p.terms:
        return 0, []
    lo = min(p.terms)
    hi = max(p.terms)
    coeffs = [0] * (hi - lo + 1)
    for e, c in p.terms.items():
        coeffs[e - lo] = c
    return lo, coeffs


def _from_dense(offset, coeffs):
    return _laurent({offset + i: c for i, c in enumerate(coeffs) if c})


def _dense_times(a, m):
    """Rational coefficients times m, a common multiple of their
    denominators, as ints."""
    return [c * m if type(c) is int else c.numerator * (m // c.denominator)
            for c in a]


def _dense_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _dense_primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    if not a:
        return a
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _dense_prem(a, b):
    """Remainder of a by b (b nonzero) over the integers, up to a nonzero
    integer factor: a is scaled by lc(b) only at the steps where lc(b) does
    not divide the coefficient being eliminated."""
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f, rem = divmod(c, lb)
            if rem:
                for k in range(i):
                    a[k] *= lb
                f = c
            s = i - db
            for j in range(db):
                a[s + j] -= f * b[j]
    return _dense_trim(a[:db])


def _dense_divexact(a, b):
    """Quotient a / b of integer polynomials, b primitive and dividing a;
    by Gauss's lemma every quotient coefficient is an integer."""
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f = c // lb
            quot[i - db] = f
            s = i - db
            for j in range(db):
                a[s + j] -= f * b[j]
    return quot


def _dense_gcd(a, b):
    """Primitive gcd, leading coefficient positive, of two nonzero integer
    coefficient lists.

    The primitive polynomial remainder sequence over Z (Knuth, TAOCP vol. 2,
    4.6.1): each pseudo-remainder is divided by its content, so coefficients
    stay small and no Fraction arises.  It differs from the gcd over Q only
    by a constant factor, which RatFunc's monic normalisation removes, so
    the canonical form is the one a Euclidean gcd over Fraction gives.
    RatFunc.__init__ calls it on every reduction it makes.
    """
    a = _dense_primitive(a)
    b = _dense_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _dense_primitive(_dense_prem(a, b))
    return [1] if b else a


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Quotient of Laurent polynomials in canonical reduced form.

    Canonical form: numerator and denominator coprime, denominator an
    ordinary polynomial with nonzero constant term, monic in its top degree.
    Any q-power slack is carried by the numerator, so equal fractions have
    identical representations.  The reduction runs on integers: num and den
    are scaled by one common integer to clear their denominators, divided
    exactly by their primitive gcd, and only then divided by the leading
    coefficient of the denominator.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num) if not isinstance(num, dict) else LaurentPoly(num)
        if den is None:
            den = _LP_ONE
        elif not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den) if not isinstance(den, dict) else LaurentPoly(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with denominator 0")
        if num.is_zero():
            self.num = _LP_ZERO
            self.den = _LP_ONE
        elif den.is_one():
            self.num = num
            self.den = _LP_ONE
        else:
            on, dn = _to_dense(num)
            od, dd = _to_dense(den)
            m = lcm(*(c.denominator for c in dn + dd if type(c) is not int))
            if m != 1:
                dn = _dense_times(dn, m)
                dd = _dense_times(dd, m)
            g = _dense_gcd(dn, dd)
            if len(g) > 1:
                dn = _dense_divexact(dn, g)
                dd = _dense_divexact(dd, g)
            lc = dd[-1]
            if lc != 1:
                dn = [Fraction(c, lc) if c % lc else c // lc for c in dn]
                dd = [Fraction(c, lc) if c % lc else c // lc for c in dd]
            self.num = _from_dense(on - od, dn)
            self.den = _from_dense(0, dd)
        self._hash = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_laurent(p):
        out = RatFunc.__new__(RatFunc)
        out.num = p
        out.den = _LP_ONE
        out._hash = None
        return out

    @staticmethod
    def q_power(n):
        return RatFunc.from_laurent(LaurentPoly.q_power(n))

    @staticmethod
    def const(c):
        return RatFunc.from_laurent(LaurentPoly.const(c))

    # -- predicates ------------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_laurent(self.num + other.num)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        out._hash = None
        return out

    def __mul__(self, other):
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_laurent(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDenominator("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inv(self):
        if self.num.is_zero():
            raise ZeroDenominator("inverse of 0")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- calculus ---------------------------------------------------------------

    def evaluate(self, q0):
        q0 = Fraction(q0)
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleAtPoint(f"pole at q = {q0}")
        return self.num.evaluate(q0) / d

    def taylor1(self):
        """(value, derivative) at q = 1; requires no pole at 1."""
        d0 = self.den.evaluate(F1)
        if d0 == 0:
            raise PoleAtPoint("pole at q = 1")
        n0, n1 = self.num.taylor1()
        _, d1 = self.den.taylor1()
        return n0 / d0, (n1 * d0 - n0 * d1) / (d0 * d0)

    # -- serialisation / display --------------------------------------------------

    def to_json(self):
        if self.den.is_one():
            return {"num": self.num.to_json()}
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(obj):
        num = LaurentPoly.from_json(obj["num"])
        den = LaurentPoly.from_json(obj["den"]) if "den" in obj else _LP_ONE
        return RatFunc(num, den)

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


RF_ZERO = RatFunc.from_laurent(_LP_ZERO)
RF_ONE = RatFunc.from_laurent(_LP_ONE)
RF_Q = RatFunc.q_power(1)
RF_QINV = RatFunc.q_power(-1)
# q^{-1} - q, the off-diagonal weight of the braid operator
RF_QDIFF = RatFunc.from_laurent(LaurentPoly({-1: 1, 1: -1}))


def rf_q_int(n):
    """(-q)**n as a RatFunc, n any integer."""
    return RatFunc.from_laurent(LaurentPoly({n: 1 if n % 2 == 0 else -1}))


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

def rational_sqrt(x):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    x = Fraction(x)
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class GaussRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        return GaussRat(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat((self.re * other.re + self.im * other.im) / n,
                        (other.re * self.im - self.re * other.im) / n)

    def conj(self):
        return GaussRat(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def scale(self, c):
        return GaussRat(self.re * c, self.im * c)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self):
        return complex(self.re, self.im)

    def to_json(self):
        return {"re": str(self.re), "im": str(self.im)}

    @staticmethod
    def from_json(obj):
        return GaussRat(Fraction(obj["re"]), Fraction(obj.get("im", "0")))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

