"""Exact scalar arithmetic.

The quantum side of the package (braid and wedge tables, the bicharacter,
normal forms, the twisted product and the shape certificates) computes over
``LaurentPoly``, the ring Z[q, q^-1] of Laurent polynomials with integer
coefficients.  Every entry of R-hat, of the bicharacter r, of its inverse
and of r' is +-1, a power of q or q^-1 - q, so every coefficient built from
them stays in this ring.  ``LaurentPoly.inv`` divides only by the units
+-q^k, which is all the sparse row reduction of the relations needs, and
raises ``NotAUnit`` on anything else.  The constants ``LP_Q``, ``LP_QINV``,
``LP_QDIFF`` and ``lp_q_int`` are the braid move's coefficients.

A ``LaurentPoly`` is packed by Kronecker substitution (von zur Gathen and
Gerhard, Modern Computer Algebra, 3rd ed., 8.4) into (lo, P, n): the value
q^lo * sum_i c_i q^i is held as the one int P = sum_i c_i 2^(64 i), whose
balanced base-2^64 digits, each in (-2^63, 2^63], are the c_i, and n bounds
its l1 norm (n_a + n_b for a sum, n_a * n_b for a product).  A product is
one int product, a sum one shift and one add.  The guard keeps every digit
exact: no value has l1 norm 2^62 or more, an operation whose bound reaches
2^62 checks the exact norm, and a result at or past 2^62 raises
OverflowError.

Values are shared and never mutated.  One table, keyed by (lo, P), holds
the one object of each value it has seen: every monomial +-q^k is built
through it (``q_power``, ``lp_q_int``, ``inv``, negation and a product of
two monomials all return the table's object), and ``share_values`` puts the
values a long-lived memo stores through it, so the many copies of the few
distinct coefficients of the quantum memos cost one object each.  Sums are
not shared: a sum stays a fresh object until a memo stores it.  A product
with the factor ``LP_ONE`` is the other factor itself.

``RatFunc``, the field of rational functions in q over Q, serves only the
``coeff.rf-canonical`` suite and the tests; ``coeff.ring-axioms`` certifies
``LaurentPoly``.  A ``RatFunc`` is a quotient of two Laurent polynomials
over Z, coprime, with the integer content divided out and the denominator's
leading coefficient positive.  Reduction works over the integers: the gcd
is taken by the primitive polynomial remainder sequence (Knuth, TAOCP
vol. 2, 4.6.1) and the content by one integer gcd.  The constructor is the
one place that reduces: a sum, product or inverse cross-multiplies and
passes the result to it.  A rational constant c enters the field as
``RatFunc(c)``, which is c.numerator over c.denominator.

``GaussRat`` provides exact complex rationals for the classical side, where
minor vanishing has to be decided exactly.  It is stored as (a + b i)/d over
Z with d > 0 and gcd(a, b, d) = 1.

``Random`` is the seeded generator of every sampled suite: a
``random.Random`` whose ``randint`` draws the same stream with one frame.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isfinite, isqrt, lcm

F0 = Fraction(0)
# allocation without __init__, for values already in their stored form
_new = object.__new__


class ZeroDenominator(ZeroDivisionError):
    """Attempt to form a rational function with zero denominator."""


class PoleAtPoint(ZeroDivisionError):
    """Evaluation of a rational function at a pole."""


class NotAUnit(ZeroDivisionError):
    """Inverse of a Laurent polynomial other than a unit +-q^k.

    Raised with the value itself, and the message is formatted only when
    it is read: the ``units`` ring law catches this error as a test and
    reads no message.  linalg.sparse_row_reduce raises it at a leading
    coefficient that is not a unit.  A plain string argument is the
    message as it stands.
    """

    def __str__(self):
        if len(self.args) == 1 and not isinstance(self.args[0], str):
            return f"{self.args[0]!r} is not a unit of Z[q, q^-1]"
        return super().__str__()


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

_DIGIT_BITS = 64
_DIGIT_BASE = 1 << _DIGIT_BITS
_DIGIT_MASK = _DIGIT_BASE - 1
_DIGIT_HALF = _DIGIT_BASE >> 1
_NORM_LIMIT = 1 << 62


def _digits(P):
    """The balanced base-2^64 digits of P, lowest first; [] for 0."""
    out = []
    while P:
        c = P & _DIGIT_MASK
        if c > _DIGIT_HALF:
            c -= _DIGIT_BASE
        out.append(c)
        P = (P - c) >> _DIGIT_BITS
    return out


def _trim_low(lo, P):
    """(lo, P) with the zero low digits of P, P != 0, moved into lo."""
    tz = ((P & -P).bit_length() - 1) // _DIGIT_BITS
    return lo + tz, P >> (tz * _DIGIT_BITS)


def _norm_overflow(n):
    """The error for a value of l1 norm n >= 2^62."""
    return OverflowError(f"Laurent coefficient l1 norm {n} reaches 2^62")


class LaurentPoly:
    """Laurent polynomial in q with integer coefficients.

    Stored packed as (lo, P, n): the value is q^lo * sum_i c_i q^i, where
    the c_i are the balanced base-2^64 digits of the int P, lowest first,
    with c_0 != 0 unless the value is 0 (then lo = P = 0).  n is an upper
    bound on the l1 norm sum_i |c_i|.  Every value has l1 norm below 2^62,
    so no digit of a sum or product can leave (-2^63, 2^63]: when the bound
    of a result reaches 2^62 the exact norm is taken from the digits, and a
    result whose exact norm reaches 2^62 raises OverflowError.

    The constructor takes a dict exponent -> coefficient; it converts an
    integral Fraction (or float) exponent or coefficient to its int and
    raises ValueError on a non-integral one.  ``terms`` decodes the digits
    into such a dict, without zero coefficients.  Instances are never
    mutated, since a value may be the one object that many memos share;
    only this module assigns to the slots.  Read as the fraction p/1, p has
    ``num`` p and ``den`` 1, so perfbench's exponent-span counter, which
    reads a scalar's numerator and denominator, takes either type; besides
    it only the tests read them.
    """

    __slots__ = ("lo", "P", "n", "_hash")

    def __init__(self, terms=None):
        lo = P = n = 0
        if terms:
            lo = min(terms)
            for e, c in terms.items():
                if type(e) is not int or type(c) is not int:
                    p = LaurentPoly({_integral(e, "exponent"):
                                     _integral(c, "coefficient")
                                     for e, c in terms.items()})
                    lo, P, n = p.lo, p.P, p.n
                    break
                P += c << ((e - lo) * _DIGIT_BITS)
                n += abs(c)
            else:
                if not P:
                    lo = 0
                elif not P & _DIGIT_MASK:
                    # the lowest exponents had zero coefficients
                    lo, P = _trim_low(lo, P)
                if n >= _NORM_LIMIT:
                    raise _norm_overflow(n)
        self.lo = lo
        self.P = P
        self.n = n
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(n):
        """q^n, the table's object of that value."""
        return _packed(n, 1, 1)

    # -- predicates / accessors ---------------------------------------------

    def is_zero(self):
        return not self.P

    def is_one(self):
        return self.P == 1 and self.lo == 0

    @property
    def terms(self):
        """exponent -> nonzero int coefficient, decoded from the digits."""
        lo = self.lo
        return {lo + i: c for i, c in enumerate(_digits(self.P)) if c}

    @property
    def num(self):
        return self

    @property
    def den(self):
        return LP_ONE

    def min_exp(self):
        if not self.P:
            raise ValueError("the zero Laurent polynomial has no exponent")
        return self.lo

    def max_exp(self):
        return self.min_exp() + len(_digits(self.P)) - 1

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        Pa, Pb = self.P, other.P
        if not Pa:
            return other
        if not Pb:
            return self
        lo = self.lo
        shift = other.lo - lo
        if shift > 0:
            P = Pa + (Pb << (shift * _DIGIT_BITS))
        elif shift < 0:
            lo = other.lo
            P = (Pa << (-shift * _DIGIT_BITS)) + Pb
        else:
            P = Pa + Pb
            if not P:
                return LP_ZERO
            if not P & _DIGIT_MASK:
                lo, P = _trim_low(lo, P)
        n = self.n + other.n
        if n >= _NORM_LIMIT:
            # the digits of P are exact, as both norms are below 2^62
            n = sum(map(abs, _digits(P)))
            if n >= _NORM_LIMIT:
                raise _norm_overflow(n)
        # _packed, inlined on the hot path
        out = _new(LaurentPoly)
        out.lo = lo
        out.P = P
        out.n = n
        out._hash = None
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _packed(self.lo, -self.P, self.n)

    def __mul__(self, other):
        # a factor LP_ONE returns the other one: values are never mutated
        if self is LP_ONE:
            return other
        if other is LP_ONE:
            return self
        P = self.P * other.P
        if not P:
            return LP_ZERO
        n = self.n * other.n
        if n == 1:
            # a product of two monomials, P = +-1: the table's object
            return _packed(self.lo + other.lo, P, 1)
        if n >= _NORM_LIMIT:
            return _checked_product(self, other)
        # _packed, inlined on the hot path
        out = _new(LaurentPoly)
        out.lo = self.lo + other.lo
        out.P = P
        out.n = n
        out._hash = None
        return out

    def inv(self):
        """The inverse of a unit +-q^k; NotAUnit on any other value."""
        if self.P == 1 or self.P == -1:
            return _packed(-self.lo, self.P, 1)
        raise NotAUnit(self)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.P == other.P and self.lo == other.lo

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.lo, self.P))
        return self._hash

    # -- calculus ------------------------------------------------------------

    def evaluate(self, q0):
        """Exact value at a rational point q0 (q0 != 0 if negative exponents)."""
        q0 = Fraction(q0)
        if q0 == 0 and self.P and self.lo < 0:
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
        return {str(e): str(c) for e, c in self.terms.items()}

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for e in sorted(terms, reverse=True):
            c = terms[e]
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


def _integral(x, what):
    """x as an int; ValueError when x is not integral."""
    x = Fraction(x)
    if x.denominator != 1:
        raise ValueError(f"non-integral {what} {x}")
    return x.numerator


def _packed(lo, P, n):
    """The LaurentPoly (lo, P, n), taken to be in packed form already.  A
    monomial +-q^lo (P = +-1) is the table's object of its value, entered
    with its exact norm 1 when first built."""
    monomial = P == 1 or P == -1
    if monomial:
        out = _SHARED.get((lo, P))
        if out is not None:
            return out
        n = 1
    out = _new(LaurentPoly)
    out.lo = lo
    out.P = P
    out.n = n
    out._hash = None
    if monomial:
        _SHARED[lo, P] = out
    return out


def share_values(d):
    """d, a dict whose values are nonzero LaurentPolys, with each value
    replaced in place by the table's object of that value; a value not yet
    in the table enters it.  Every long-lived memo passes what it stores
    through here, so its copies of one value are one object."""
    table = _SHARED
    for key, v in d.items():
        shared = table.get((v.lo, v.P))
        if shared is None:
            # the first of its value: a monomial enters through _packed,
            # with its exact norm 1
            P = v.P
            shared = (_packed(v.lo, P, 1) if P == 1 or P == -1
                      else table.setdefault((v.lo, P), v))
        if shared is not v:
            d[key] = shared
    return d


def _checked_product(a, b):
    """a * b when the norm bound reaches the limit: the digits of the int
    product may have overflowed, so the exact schoolbook product is packed,
    or refused by its norm."""
    da, db = _digits(a.P), _digits(b.P)
    out = [0] * (len(da) + len(db) - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            out[i + j] += x * y
    return _from_dense(a.lo + b.lo, out)


# (lo, P) -> the one LaurentPoly of that value: every monomial built by
# _packed, and every value share_values has seen
_SHARED = {}
LP_ZERO = LaurentPoly()
LP_ONE = _packed(0, 1, 1)
LP_Q = _packed(1, 1, 1)
LP_QINV = _packed(-1, 1, 1)
# q^{-1} - q, the off-diagonal weight of the braid operator
LP_QDIFF = LaurentPoly({-1: 1, 1: -1})


def lp_q_int(n):
    """(-q)**n, n any integer."""
    return _packed(n, 1 if n % 2 == 0 else -1, 1)


# -- dense polynomials, for reduction -------------------------------------------
#
# A dense polynomial is its int coefficient list, constant term first, with
# a nonzero last entry; [] is 0.

def _to_dense(p):
    """(offset, coefficient list) with list[0] != 0 unless p == 0."""
    return p.lo, _digits(p.P)


def _from_dense(offset, coeffs):
    """q^offset * sum_i coeffs[i] q^i, packed; zeros at either end of the
    list are allowed."""
    n = sum(map(abs, coeffs))
    if not n:
        return LP_ZERO
    if n >= _NORM_LIMIT:
        raise _norm_overflow(n)
    P = 0
    for c in reversed(coeffs):
        P = (P << _DIGIT_BITS) + c
    if not P & _DIGIT_MASK:
        offset, P = _trim_low(offset, P)
    return _packed(offset, P, n)


def _divided(p, lo, c):
    """p moved to lowest exponent lo, with every coefficient divided by the
    int c, which divides them all, so c divides the packed int exactly."""
    if c == 1 and lo == p.lo:
        return p
    return _packed(lo, p.P // c, p.n // abs(c))


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
    stay small and no Fraction arises.  By Gauss's lemma the result divides
    both inputs over Z.  RatFunc.__init__ calls it on every reduction it
    makes, and nothing else does.
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
    """Quotient of Laurent polynomials over Z in canonical reduced form.

    Canonical form:
    - num and den have int coefficients and are coprime as polynomials;
    - den is an ordinary polynomial with nonzero constant term and a
      positive leading coefficient, so any q-power slack is in num;
    - the gcd of all coefficients of num and den together is 1.
    Equal fractions therefore have identical representations, and den == 1
    exactly when the value is a Laurent polynomial over Z.

    The constructor takes num as a LaurentPoly or a rational constant c,
    which counts as c.numerator over c.denominator (so 1/2 is num 1 over
    den 2), and den as a LaurentPoly.  It divides num and den exactly by
    their primitive gcd and then by the integer content, and skips both
    when den is 1.  Every operation cross-multiplies and hands the result
    to the constructor: a/b + c/d = (ad + cb)/(bd), a/b * c/d = (ac)/(bd)
    and the inverse of a/b is b/a, a ZeroDenominator for 0.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=LP_ONE):
        if not isinstance(num, LaurentPoly):
            c = Fraction(num)
            num = LaurentPoly.const(c.numerator)
            den = den * LaurentPoly.const(c.denominator)
        if den.is_zero():
            raise ZeroDenominator("rational function with denominator 0")
        if num.is_zero():
            num = LP_ZERO
            den = LP_ONE
        elif not den.is_one():
            on, dn = _to_dense(num)
            od, dd = _to_dense(den)
            g = _dense_gcd(dn, dd)
            if len(g) > 1:
                dn = _dense_divexact(dn, g)
                dd = _dense_divexact(dd, g)
                num = _from_dense(on, dn)
                den = _from_dense(od, dd)
            c = gcd(*dn, *dd)
            if dd[-1] < 0:
                c = -c
            # the constant terms of dn and dd are nonzero, so num moves by
            # -od and den becomes a polynomial
            num = _divided(num, num.lo - od, c)
            den = _divided(den, 0, c)
        self.num = num
        self.den = den
        self._hash = None

    # -- predicates ------------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return self * other.inv()

    def inv(self):
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- serialisation / display --------------------------------------------------

    def to_json(self):
        if self.den.is_one():
            return {"num": self.num.to_json()}
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


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
    """Complex number with exact rational real and imaginary parts.

    Stored as (a + b i)/d over the integers with d > 0 and gcd(a, b, d) = 1,
    so equal values have equal (a, b, d).  Every operation works on ints and
    normalises by one integer gcd; ``re`` and ``im`` read the parts as
    Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        # ints and Fractions already carry a reduced numerator and denominator
        if type(re) not in (int, Fraction):
            re = Fraction(re)
        if type(im) not in (int, Fraction):
            im = Fraction(im)
        # d = lcm of the two denominators leaves gcd(a, b, d) = 1
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _gauss(self.a + other.a, self.b + other.b, d1)
        return _gauss(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1,
                      d1 * d2)

    def __sub__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _gauss(self.a - other.a, self.b - other.b, d1)
        return _gauss(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1,
                      d1 * d2)

    def __neg__(self):
        return _gauss_raw(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _gauss(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def __truediv__(self, other):
        # x / y = x * conj(y) * d_y / (a_y^2 + b_y^2)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        d2 = other.d
        return _gauss((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                      self.d * n)

    def conj(self):
        return _gauss_raw(self.a, -self.b, self.d)

    def abs2(self):
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def scale(self, c):
        """self times a rational c."""
        n, m = c.numerator, c.denominator
        return _gauss(self.a * n, self.b * n, self.d * m)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return (self.b == 0
                    and self.a * other.denominator == other.numerator * self.d)
        return NotImplemented

    def __hash__(self):
        # a real value equals its Fraction, so it hashes as that Fraction
        if self.b == 0:
            return hash(self.re)
        return hash((self.a, self.b, self.d))

    def to_json(self):
        return {"re": str(self.re), "im": str(self.im)}

    @staticmethod
    def from_ints(re_num, re_den, im_num=0, im_den=1):
        """The GaussRat re_num/re_den + (im_num/im_den) i from four ints,
        both denominators positive: one gcd, no Fraction on the way."""
        return _gauss(re_num * im_den, im_num * re_den, re_den * im_den)

    @staticmethod
    def from_json(obj, floats=False):
        """The GaussRat of an object {"re", "im"} ("im" defaults to 0) with
        no other key.  A part is an int that is not a bool or a rational
        string; with floats, also a finite float, read as the binary
        rational it denotes.  Anything else is a ValueError."""
        if (not isinstance(obj, dict) or "re" not in obj
                or not obj.keys() <= {"re", "im"}):
            raise ValueError(f"{obj!r} is not an object with a key re and "
                             f"at most im besides")
        parts = obj["re"], obj.get("im", 0)
        for x in parts:
            if not (type(x) in (int, str) or floats and type(x) is float
                    and isfinite(x)):
                kinds = ("an integer, a rational string or a finite float"
                         if floats else "an integer or a rational string")
                raise ValueError(f"part {x!r} of {obj!r} is not {kinds}")
        try:
            return GaussRat(*map(Fraction, parts))
        except ZeroDivisionError:
            raise ValueError(f"{obj!r} has a zero denominator") from None

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


def _gauss_raw(a, b, d):
    """The GaussRat (a + b i)/d, with d > 0 and gcd(a, b, d) = 1 given."""
    out = _new(GaussRat)
    out.a = a
    out.b = b
    out.d = d
    return out


def _gauss(a, b, d):
    """The GaussRat (a + b i)/d for d > 0, divided by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = _new(GaussRat)
    out.a = a
    out.b = b
    out.d = d
    return out



class Random(random.Random):
    """random.Random whose randint(a, b) is a + the first getrandbits(k)
    below n = b - a + 1, k = n.bit_length(): the draw of CPython 3.10 to
    3.13, without its argument handling, so a seed gives the same stream."""

    def randint(self, a, b):
        n = b - a + 1
        if n < 1:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return a + r
