"""Classical side: shapes of Hermitian matrices and the quadratic bracket.

Every matrix here holds exact complex rationals (GaussRat), and no square
root is taken.  A slot of a shape is a ray: a nonzero GaussRat that stands
for its direction u/|u|.  ShapeMatrix keeps it in a canonical form, the unit
phase when |u| is rational and the primitive Gaussian integer otherwise, so
slots, and shapes, compare with ==.

Shape extraction is definition-faithful: for each size it scans minor labels
in the pair-lexicographic order (column set first) and takes the first
nonvanishing minor, so the discrete data (the involution and the vanishing
pattern) and the slot rays, ratios of consecutive pivot minors, are decided
exactly.  Minors come from one memo per matrix (minors), each the Laplace
expansion over the smaller ones, with no division; the rank that bounds the
scan comes from the one dense elimination, linalg.echelon.

The congruence decomposition is the LDL* form of the pivoting loop (Golub
and Van Loan, Matrix Computations, 4.1-4.2): z = t'* M t' with t' unit upper
triangular and M holding one real d_p at each fixed point p of the
involution and one beta at each two-cycle.  The paper's t is
diag(rho_p^(1/4)) t', with rho_p = |M_tau(p),p|^2, and is not formed.  The
shape read off M is cross-checked against the scanner.

The quadratic bracket on Hermitian matrices is read off the sparse classical
r-matrix e_ii (x) e_ii + 2 sum_{i<j} e_ij (x) e_ji, with exact coefficients,
built once per N.  The bivector, tangency and Jacobi checks evaluate it at
exact points in the complex coordinates Z_ij, with exact ranks, and the
Jacobi check builds one cyclic sum per cyclic class of coordinate triples.
Complexification keeps every rank of the real picture: the matrix
{Z_ij, Z_kl}(z) is the real bivector in another basis, and Hermitian tangent
vectors are independent over C when they are over R.

The spectrum is checked without computing it: power_sums gives tr z^m for
m = 1..N, which fix the eigenvalues as a multiset; charpoly turns them into
the characteristic polynomial by Newton's identities, and eigenvalue_signs
counts the signs of its roots exactly by Descartes' rule.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, combinations, product
from math import gcd, isqrt, lcm
from operator import add, mul

from .coeff import GaussRat, rational_sqrt
from .linalg import add_term, echelon, rank


class InconsistentPivots(RuntimeError):
    """The minor scan produced pivots that do not assemble into a shape;
    cannot happen for genuinely Hermitian input."""


class NotTriangular(ValueError):
    pass


class SignMismatch(ValueError):
    pass


GR0 = GaussRat(0)
GR1 = GaussRat(1)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class HermitianMatrix:
    """Self-adjoint matrix with GaussRat entries."""

    def __init__(self, entries):
        self.entries = [[e if isinstance(e, GaussRat) else GaussRat(e)
                         for e in row] for row in entries]
        self.N = len(self.entries)
        e = self.entries
        if any(len(row) != self.N for row in e):
            raise ValueError("matrix is not square")
        if any(e[i][j] != e[j][i].conj()
               for i in range(self.N) for j in range(i, self.N)):
            raise ValueError("matrix is not self-adjoint")

    def to_json(self):
        return {"N": self.N, "mode": "exact",
                "entries": [[e.to_json() for e in row] for row in self.entries]}

    @staticmethod
    def from_json(obj):
        """The matrix of a JSON object {"N", "mode", "entries"}, N >= 1,
        each entry read by GaussRat.from_json.  An "exact" file gives each
        part as a rational string or an integer.  A "numeric" file may also
        give floats, and is read exactly: each float is the binary rational
        it denotes."""
        N = obj["N"]
        if type(N) is not int or N < 1:
            raise ValueError(f"N must be a positive integer, got {N!r}")
        if N != len(obj["entries"]):
            raise ValueError(f"declared N {N} is not the number of rows, "
                             f"{len(obj['entries'])}")
        if obj["mode"] not in ("exact", "numeric"):
            raise ValueError(f"unknown mode {obj['mode']!r}")
        floats = obj["mode"] == "numeric"
        return HermitianMatrix([[GaussRat.from_json(e, floats) for e in row]
                                for row in obj["entries"]])


def gr_matmul(a, b):
    """The product of two matrices, lists of rows of GaussRat."""
    cols = list(zip(*b))
    return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]


def gr_identity(n):
    return [[GaussRat(1 if i == j else 0) for j in range(n)] for i in range(n)]


def minors(e):
    """The minors of the exact matrix e (a list of rows), as a function
    minor(rows, cols) of two equally long tuples of 1-based labels.  Each
    minor is the Laplace expansion along its last column over the minors
    one size smaller, which are kept, so every minor of e is computed once
    and no division is needed."""
    memo = {((), ()): GR1}

    def minor(rows, cols):
        v = memo.get((rows, cols))
        if v is None:
            col, rest, last = cols[-1] - 1, cols[:-1], len(cols) - 1
            v = GR0
            for p, r in enumerate(rows):
                x = e[r - 1][col]
                if not x.is_zero():
                    x = x * minor(rows[:p] + rows[p + 1:], rest)
                    v = v - x if (last - p) % 2 else v + x
            memo[(rows, cols)] = v
        return v

    return minor


# ---------------------------------------------------------------------------
# Shape matrices
# ---------------------------------------------------------------------------

def ray(d):
    """The canonical form of the ray of a nonzero GaussRat d.  For
    d = (a + b i)/n, |d| is rational exactly when a^2 + b^2 is a square r^2,
    and then the form is the unit phase (a + b i)/r; otherwise it is the
    primitive Gaussian integer (a + b i)/gcd(a, b)."""
    a, b, n = d.a, d.b, d.d
    s = a * a + b * b
    if s == n * n:
        return d
    r = isqrt(s)
    if r * r == s:
        return GaussRat(a, b) / GaussRat(r)
    g = gcd(a, b)
    return d if g == 1 and n == 1 else GaussRat(a // g, b // g)


class ShapeMatrix:
    """Involution plus slot rays; the matrix sends e_i to u_i e_{tau(i)}.

    A slot is None (a zero slot, at a fixed point) or a nonzero GaussRat,
    kept as its canonical ray; u_tau(i) is the conjugate of u_i, so a fixed
    slot is +1 or -1.
    """

    def __init__(self, tau, u):
        self.tau = tuple(int(t) for t in tau)
        self.N = len(self.tau)
        if sorted(self.tau) != list(range(1, self.N + 1)):
            raise ValueError("tau is not a permutation")
        if len(u) != self.N:
            raise ValueError(f"{len(u)} slots for {self.N} points")
        self.u = []
        for i, (t, ui) in enumerate(zip(self.tau, u), start=1):
            if self.tau[t - 1] != i:
                raise ValueError("tau is not an involution")
            if ui is None:
                if t != i:
                    raise ValueError(f"zero slot {i} must be a fixed point")
            elif ui.is_zero():
                raise ValueError(f"slot {i} is zero; a zero slot is None")
            else:
                ui = ray(ui)
            self.u.append(ui)
        for i, (t, ui) in enumerate(zip(self.tau, self.u), start=1):
            if ui is not None and self.u[t - 1] != ui.conj():
                raise ValueError("slots are not conjugate-symmetric")

    @property
    def support(self):
        return tuple(i for i in range(1, self.N + 1) if self.u[i - 1] is not None)

    @property
    def rank(self):
        return len(self.support)

    def __eq__(self, other):
        if not isinstance(other, ShapeMatrix):
            return NotImplemented
        return self.tau == other.tau and self.u == other.u

    def sign_multiset(self):
        """Counts (plus, minus, zero) of the eigenvalues, structurally."""
        plus = minus = zero = 0
        for i, (t, ui) in enumerate(zip(self.tau, self.u), start=1):
            if ui is None:
                zero += 1
            elif t == i:
                if ui.re > 0:
                    plus += 1
                else:
                    minus += 1
            elif t > i:
                plus += 1
                minus += 1
        return plus, minus, zero

    def to_json(self):
        return {"tau": list(self.tau),
                "u": [None if ui is None else ui.to_json() for ui in self.u]}

    def __repr__(self):
        return f"ShapeMatrix(tau={self.tau}, u={self.u})"


# ---------------------------------------------------------------------------
# Shape of a Hermitian matrix
# ---------------------------------------------------------------------------

def shape_of(z):
    """Shape of a Hermitian matrix via lex-first nonvanishing minors.

    For each size k up to the rank, scans label pairs (columns, rows) in the
    pair-lexicographic order and pivots on the first nonzero minor; the
    pivots assemble the involution, and each slot is the ray of the ratio of
    two consecutive pivot minors, signed by the positivity normalisation.
    """
    N = z.N
    r = rank(z.entries)
    tau = list(range(1, N + 1))
    u = [None] * N
    if r == 0:
        return ShapeMatrix(tau, u)
    minor = minors(z.entries)
    pairs = []           # chain of (column, row) pivots
    prev_dir = GR1
    prev_cols, prev_rows = (), ()
    for k in range(1, r + 1):
        labels = list(combinations(range(1, N + 1), k))
        pivot = next(((J, I, val) for J in labels for I in labels
                      if not (val := minor(I, J)).is_zero()), None)
        if pivot is None:
            raise InconsistentPivots(f"no nonzero minor at size {k}")
        J, I, val = pivot
        new_cols = tuple(sorted(set(J) - set(prev_cols)))
        new_rows = tuple(sorted(set(I) - set(prev_rows)))
        if (len(new_cols) != 1 or len(new_rows) != 1
                or set(prev_cols) - set(J) or set(prev_rows) - set(I)
                or new_cols[0] < max(prev_cols, default=0)):
            raise InconsistentPivots(
                f"pivot chain broke at size {k}: {prev_cols} -> {J}")
        pairs.append((new_cols[0], new_rows[0]))
        tau_map = dict(pairs)
        images = [tau_map[p] for p in J]
        inv = sum(1 for a in range(k) for b in range(a + 1, k)
                  if images[a] > images[b])
        direction = -val if inv % 2 else val
        ratio = direction / prev_dir
        p, tp = pairs[-1]
        tau[p - 1], tau[tp - 1] = tp, p
        u[p - 1] = ratio
        if tp != p:
            u[tp - 1] = ratio.conj()
        prev_cols, prev_rows, prev_dir = J, I, direction
    try:
        return ShapeMatrix(tau, u)
    except ValueError as exc:
        raise InconsistentPivots(str(exc)) from exc


def _check_triangular(t):
    n = len(t)
    for i in range(n):
        d = t[i][i]
        if d.is_zero() or not d.is_real() or d.re <= 0:
            raise NotTriangular("diagonal must be strictly positive")
        for j in range(i):
            if not t[i][j].is_zero():
                raise NotTriangular("lower part must vanish")


def tn_invariance_check(z, ts):
    """The first of the exact triangular matrices ts whose congruence t* z t
    has another shape than z, or None when every one keeps the shape."""
    for t in ts:
        _check_triangular(t)
    s = shape_of(z)
    return next((t for t in ts if s != shape_of(HermitianMatrix(
        congruence(t, z.entries)))), None)


# ---------------------------------------------------------------------------
# Congruence decomposition
# ---------------------------------------------------------------------------

def _congruence(m, t):
    """Reduce the Hermitian matrix m (a list of rows) by congruences, in
    place, keeping z = t* m t: t is passed as the identity and leaves unit
    upper triangular.  m leaves with at most one nonzero entry in each
    column: d_p at (p, p) for a fixed point p, and beta at (i, p) with
    conj(beta) at (p, i) for a two-cycle (p, i).

    Each pivot is the first nonzero entry, columns first, among the rows and
    columns not yet used; every multiplier is a quotient of entries, so no
    square root is taken.
    """
    N = len(m)

    def congr(p, r, lam):
        # m <- E* m E and t <- E^-1 t for E = I + lam e_{p,r}
        for x in range(N):
            m[x][r] = m[x][r] + lam * m[x][p]
        lc = lam.conj()
        for x in range(N):
            m[r][x] = m[r][x] + lc * m[p][x]
        for x in range(N):
            t[p][x] = t[p][x] - lam * t[r][x]

    used = set()
    while True:
        pivot = None
        for c in range(N):
            if c in used:
                continue
            for r in range(N):
                if r not in used and not m[r][c].is_zero():
                    pivot = (c, r)
                    break
            if pivot:
                break
        if pivot is None:
            break
        p, i = pivot
        if i == p:
            for r in range(N):
                if r not in used and r != p and not m[r][p].is_zero():
                    congr(p, r, (-(m[r][p] / m[p][p])).conj())
            used.add(p)
        else:
            beta = m[i][p]
            if not m[i][i].is_zero():
                congr(p, i, -(m[i][i] / (beta + beta)))
            for r in range(N):
                if r not in used and r not in (p, i) and not m[r][p].is_zero():
                    congr(i, r, (-(m[r][p] / m[i][p])).conj())
            for r in range(N):
                if r not in used and r not in (p, i) and not m[r][i].is_zero():
                    congr(p, r, (-(m[r][i] / m[p][i])).conj())
            used.add(p)
            used.add(i)


def decompose(z):
    """Factor z = t'* M t' exactly, with no square root.

    Returns (t', M): t' unit upper triangular, as a list of rows, and M a
    HermitianMatrix with at most one nonzero entry per column, d_p at a
    fixed point p and beta at (tau(p), p) on a two-cycle; reduced_shape(M)
    is the shape of z.
    """
    t, m = gr_identity(z.N), [row[:] for row in z.entries]
    _congruence(m, t)
    return t, HermitianMatrix(m)


def reduced_shape(M):
    """The ShapeMatrix of a matrix M with at most one nonzero entry per
    column, as decompose returns it: that entry is the column's slot.
    Raises ValueError when M is not of that form."""
    N = M.N
    tau = list(range(1, N + 1))
    u = [None] * N
    for i in range(N):
        rows = [j for j in range(N) if not M.entries[j][i].is_zero()]
        if len(rows) > 1:
            raise ValueError(f"column {i + 1} of M has {len(rows)} nonzero "
                             f"entries")
        if rows:
            tau[i], u[i] = rows[0] + 1, M.entries[rows[0]][i]
    return ShapeMatrix(tau, u)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def power_sums(z):
    """[tr z, tr z^2, ..., tr z^N] of a HermitianMatrix: the power sums of
    its eigenvalues, which fix them as a multiset.  Each trace of z^(a+b) is
    read as the sum of the (z^a)_ij (z^b)_ji, so only the powers up to
    z^ceil(N/2) are multiplied out."""
    e, n = z.entries, z.N
    powers = [None, e]
    while len(powers) <= (n + 1) // 2:
        powers.append(gr_matmul(powers[-1], e))
    sums = [reduce(add, (e[i][i] for i in range(n)))]
    for m in range(2, n + 1):
        a, b = powers[m // 2], powers[m - m // 2]
        sums.append(reduce(add, (a[i][j] * b[j][i]
                                 for i in range(n) for j in range(n))))
    return sums


def charpoly(z):
    """The coefficients of det(x - z), exact rationals from x^N down to x^0.
    Newton's identities turn the power sums into the elementary symmetric
    functions e_k of the eigenvalues, and x^(N - k) has the coefficient
    (-1)^k e_k; real, because z is Hermitian."""
    p = [x.re for x in power_sums(z)]
    e = [Fraction(1)]
    for k in range(1, z.N + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1]
                     for i in range(1, k + 1)) / k)
    return [-c if k % 2 else c for k, c in enumerate(e)]


def eigenvalue_signs(z):
    """Counts (plus, minus, zero) of the eigenvalues of a Hermitian z, by
    Descartes' rule of signs on its characteristic polynomial, which is
    exact because that polynomial is real-rooted."""
    coeffs = charpoly(z)

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # det(-x - z) has the coefficients (-1)^k c_k up to one sign; x^(N - k)
    # for the last nonzero c_k is the lowest power of both
    minus = changes([-c if k % 2 else c for k, c in enumerate(coeffs)])
    return (changes(coeffs), minus,
            z.N - max(k for k, c in enumerate(coeffs) if c))


# ---------------------------------------------------------------------------
# Leaf points
# ---------------------------------------------------------------------------

def build_leaf_point(shape, lam):
    """An exact point of the leaf of the given shape and weights.

    lam holds one rational weight per slot, in slot order: 0 at a zero slot
    and the slot's sign at a fixed point i, where it sits on the diagonal.
    A two-cycle (i, t), i < t, takes lam_i > 0 > lam_t, in the block
    [[0, c conj(u)], [c u, lam_i + lam_t]] on rows and columns i, t, with
    u = u_i and c > 0 rational, c^2 |u|^2 = -lam_i lam_t, so that its
    eigenvalues are lam_i and lam_t.  Raises SignMismatch when lam does not
    fit the slots, and ValueError naming the two-cycle when its
    -lam_i lam_t / |u|^2 is not a rational square.
    """
    N = shape.N
    if len(lam) != N:
        raise SignMismatch(f"{len(lam)} weights for {N} slots")
    for i, (t, ui, x) in enumerate(zip(shape.tau, shape.u, lam), start=1):
        want = (0 if ui is None else 1 if t > i or (t == i and ui.re > 0)
                else -1)
        if (x > 0) - (x < 0) != want:
            raise SignMismatch(f"slot {i} needs a weight of sign {want:+d}, "
                               f"got {x}")
    ent = [[GR0] * N for _ in range(N)]
    for i, (t, ui) in enumerate(zip(shape.tau, shape.u), start=1):
        if t == i:
            ent[i - 1][i - 1] = GaussRat(lam[i - 1])
        elif t > i:
            li, lt = lam[i - 1], lam[t - 1]
            c = rational_sqrt(-li * lt / ui.abs2())
            if c is None:
                raise ValueError(
                    f"two-cycle ({i}, {t}): -({li})({lt})/|u_{i}|^2 is not "
                    f"a rational square")
            ent[t - 1][i - 1] = ui.scale(c)
            ent[i - 1][t - 1] = shape.u[t - 1].scale(c)
            ent[t - 1][t - 1] = GaussRat(li + lt)
    return HermitianMatrix(ent)


# ---------------------------------------------------------------------------
# The quadratic bracket
# ---------------------------------------------------------------------------

@cache
def poisson_bracket_coeffs(N):
    """{Z_ij, Z_kl} as exact quadratic forms in the matrix entries.

    Returns a dict mapping ((i,j),(k,l)) to {sorted entry-pair: GaussRat};
    the coefficients are purely imaginary.  The table is built once per N
    and shared by every caller, which must not modify it.  The bracket is
    -i times the ((i,k), (j,l)) entry of

        r21 Z1 Z2 - Z1 Z2 r + Z1 r Z2 - Z2 r21 Z1

    with Z1 = Z (x) 1, Z2 = 1 (x) Z and the classical r-matrix
    r = sum_i e_ii (x) e_ii + 2 sum_{i<j} e_ij (x) e_ji on C^N (x) C^N.
    Each of the four terms is a sum over the nonzero entries of r.
    """
    rng = range(1, N + 1)
    out = {((i, j), (k, l)): {} for i in rng for j in rng
           for k in rng for l in rng}
    # r as (row pair, column pair, -i * value): e_ab (x) e_cd sits at row
    # (a, c) and column (b, d); r21 = e_cd (x) e_ab is its flip
    r = [((i, i), (i, i), GaussRat(0, -1)) for i in rng]
    r += [((i, j), (j, i), GaussRat(0, -2)) for i in rng for j in rng if i < j]
    for (x, y), (u, w), c in r:
        for a in rng:
            for b in rng:
                # r21 Z1 Z2, r21 at row (y, x), column (w, u)
                add_term(out[((y, a), (x, b))],
                         tuple(sorted(((w, a), (u, b)))), c)
                # -Z1 Z2 r
                add_term(out[((a, u), (b, w))],
                         tuple(sorted(((a, x), (b, y)))), -c)
                # Z1 r Z2
                add_term(out[((a, u), (y, b))],
                         tuple(sorted(((a, x), (w, b)))), c)
                # -Z2 r21 Z1, r21 at row (y, x), column (w, u)
                add_term(out[((y, b), (a, u))],
                         tuple(sorted(((a, x), (w, b)))), -c)
    return out


def bracket_at(z):
    """The N^2 x N^2 matrix {Z_ij, Z_kl}(z) at an exact HermitianMatrix z,
    rows (i, j) and columns (k, l) in row-major order: column (k, l) is the
    Hamiltonian vector field of Z_kl at z in the coordinates Z_ij."""
    table = poisson_bracket_coeffs(z.N)
    coords = list(product(range(1, z.N + 1), repeat=2))
    monomials = {}
    return [[_value(table[(ij, kl)], z.entries, monomials) for kl in coords]
            for ij in coords]


def _value(poly, e, monomials):
    """A polynomial {monomial: coefficient} in the entries Z_ij, each
    monomial a sorted tuple of (i, j), at the exact matrix entries e.
    monomials keeps the monomial values at e, so that polynomials evaluated
    at one point share them."""
    total = GR0
    for mono, c in poly.items():
        v = monomials.get(mono)
        if v is None:
            (i, j), *rest = mono
            v = e[i - 1][j - 1]
            for i, j in rest:
                v = v * e[i - 1][j - 1]
            monomials[mono] = v
        total = total + c * v
    return total


# ---------------------------------------------------------------------------
# Tangency and Jacobi
# ---------------------------------------------------------------------------

def orbit_tangents(z):
    """The tangents a* z + z a of the unitary and the triangular dressing
    orbits at the exact z, as lists of their N^2 entries in row-major
    order, for a over the real bases i e_kk, e_rc - e_cr, i (e_rc + e_cr)
    of u(N) and e_kk, e_rc, i e_rc of b(N), the upper triangular matrices
    with a real diagonal (r < c)."""
    e, N = z.entries, z.N

    def tangent(*a):
        # a lists (r, c, p) for the terms i^p e_rc of a; the units act on
        # the entries of z as sign and part swaps, and an entry that no
        # term reaches (None) is zero
        v = [[None] * N for _ in range(N)]

        def add(x, y, w):
            v[x][y] = w if v[x][y] is None else v[x][y] + w

        for r, c, p in a:
            for k in range(N):
                add(c, k, e[r][k].times_i_power(-p))
                add(k, c, e[k][r].times_i_power(p))
        return [GR0 if y is None else y for row in v for y in row]

    U = [tangent((k, k, 1)) for k in range(N)]
    T = [tangent((k, k, 0)) for k in range(N)]
    for r, c in combinations(range(N), 2):
        U += [tangent((r, c, 0), (c, r, 2)), tangent((r, c, 1), (c, r, 1))]
        T += [tangent((r, c, 0)), tangent((r, c, 1))]
    return U, T


def _ranks(*blocks):
    """rank [b1], rank [b1 | b2], ... for blocks of column vectors, read
    off the pivot columns of one echelon of [b1 | b2 | ...]."""
    pivots = echelon(list(zip(*sum(blocks, []))))[1]
    return [sum(c < end for c, _ in pivots)
            for end in accumulate(len(b) for b in blocks)]


def leaf_tangency_check(z):
    """Compare the bivector range with the two orbit tangents at an exact z.

    The symplectic leaf through z is a component of the intersection of
    the unitary and the triangular dressing orbits (Semenov-Tian-Shansky,
    Publ. RIMS 21, 1985), so the range of the bivector is the intersection
    of their tangent spaces.  Returns the dims of the bivector range, both
    tangents and their intersection, and whether range = intersection.
    intersection_dim reads rank [U | pi | T] as rank [U | T], which holds
    whenever the range lies in the unitary tangent, as equal requires.

    The ranks are taken at the multiple of z with Gaussian-integer
    entries: pi is quadratic and both tangents are linear in z, so a
    positive multiple scales every vector and changes no span.  pi enters
    the two longer eliminations through its pivot columns, a basis of its
    range.
    """
    D = lcm(*(x.d for row in z.entries for x in row))
    z = HermitianMatrix([[x.scale(D) for x in row] for row in z.entries])
    bracket = bracket_at(z)
    columns = list(zip(*bracket))
    pi = [columns[c] for c, _ in echelon(bracket)[1]]
    U, T = orbit_tangents(z)
    rank_u, rank_up, rank_upt = _ranks(U, pi, T)
    rank_t, rank_tp = _ranks(T, pi)
    rank_pi = len(pi)
    inter_dim = rank_u + rank_t - rank_upt
    equal = rank_up == rank_u and rank_tp == rank_t and rank_pi == inter_dim
    return {"bivector_rank": rank_pi, "unitary_dim": rank_u,
            "triangular_dim": rank_t, "intersection_dim": inter_dim,
            "equal": equal}


def jacobi_check(N, samples=100, seed=0):
    """The cyclic Jacobi sums {f,{g,h}} + {g,{h,f}} + {h,{f,g}} over all
    coordinate triples, built as exact cubic polynomials by the Leibniz
    rule and evaluated exactly at `samples` random exact Hermitian points.
    The three rotations of a triple have the same sum, so it is built once
    per cyclic class, at the lex-first rotation, and counted at the class
    size; the points are drawn only when some sum is nonzero.

    ok when every value is zero.  max_residual is a value of largest
    modulus; first names the first nonzero cyclic sum by its triple, its
    first monomial and that monomial's coefficient, and is None if none.
    """
    table = poisson_bracket_coeffs(N)

    def add_bracket_with_poly(out, ij, poly):
        """out += {Z_ij, poly}, by the Leibniz rule."""
        for mono, c in poly.items():
            for pos, var in enumerate(mono):
                rest = mono[:pos] + mono[pos + 1:]
                for m2, c2 in table[(ij, var)].items():
                    add_term(out, tuple(sorted(m2 + rest)), c * c2)

    cyclic = {}          # lex-first rotation -> its nonzero cyclic sum
    count = 0
    coords = list(product(range(1, N + 1), repeat=2))
    for f, g, h in product(coords, repeat=3):
        if (g, h, f) < (f, g, h) or (h, f, g) < (f, g, h):
            continue
        total = {}
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            add_bracket_with_poly(total, a, table[(b, c)])
        if total:
            cyclic[(f, g, h)] = total
            count += 1 if f == g == h else 3
    worst = GR0
    if cyclic:
        rng = random.Random(seed)
        points = [random_exact_hermitian(N, rng).entries
                  for _ in range(samples)]
        values = []
        for e in points:
            monomials = {}
            values += [_value(poly, e, monomials) for poly in cyclic.values()]
        worst = max(values, key=GaussRat.abs2)
    first = next(({"triple": t, "monomial": min(poly),
                   "coefficient": poly[min(poly)].to_json()}
                  for t, poly in cyclic.items()), None)
    return {"N": N, "samples": samples, "max_residual": worst,
            "ok": worst.is_zero(), "nonzero_cyclic_polys": count,
            "first": first}


# ---------------------------------------------------------------------------
# Random exact test data
# ---------------------------------------------------------------------------

_EXACT_PHASES = [GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1),
                 GaussRat(Fraction(3, 5), Fraction(4, 5)),
                 GaussRat(Fraction(-3, 5), Fraction(4, 5)),
                 GaussRat(Fraction(5, 13), Fraction(-12, 13))]


def random_shape(N, rng):
    """Random exact self-adjoint shape matrix."""
    items = list(range(1, N + 1))
    rng.shuffle(items)
    tau = list(range(1, N + 1))
    u = [None] * N
    while items:
        i = items.pop()
        kind = rng.random()
        if kind < 0.25:
            continue  # zero slot
        if kind < 0.6 or not items:
            u[i - 1] = GaussRat(rng.choice([1, -1]))
        else:
            j = items.pop()
            a, b = min(i, j), max(i, j)
            tau[a - 1], tau[b - 1] = b, a
            ph = rng.choice(_EXACT_PHASES)
            u[a - 1] = ph
            u[b - 1] = ph.conj()
    return ShapeMatrix(tau, u)


def random_ratio(rng):
    """A random rational in [-6, 6] as the ints (numerator, denominator),
    the denominator in 1..6: two draws, for GaussRat.from_ints."""
    return rng.randint(-6, 6), rng.randint(1, 6)


def random_triangular(N, rng):
    """Random exact element of the positive triangular group."""
    t = gr_identity(N)
    for i in range(N):
        t[i][i] = GaussRat.from_ints(rng.randint(1, 5), rng.randint(1, 5))
        for j in range(i + 1, N):
            t[i][j] = GaussRat.from_ints(*random_ratio(rng),
                                         *random_ratio(rng))
    return t


def random_compatible_weights(shape, rng):
    """One random rational weight per slot that fits the shape, for
    build_leaf_point: 0 at a zero slot, the slot's sign at a fixed point,
    and at a two-cycle (i, t), i < t, a positive lam_i and
    lam_t = -lam_i m^2 |u_i|^2 for a random rational m > 0, so that the
    block's c = lam_i m is rational."""
    lam = []
    for i, (t, ui) in enumerate(zip(shape.tau, shape.u), start=1):
        if ui is None:
            lam.append(Fraction(0))
        elif t >= i:
            w = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            lam.append(-w if t == i and ui.re < 0 else w)
        else:
            m = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            lam.append(-lam[t - 1] * m * m * ui.abs2())
    return lam


def random_exact_hermitian(N, rng):
    """t* E t for a random exact enhanced shape E and random triangular t."""
    shape = random_shape(N, rng)
    # enhanced: keep the diagonal/pair structure but free rational weights
    E = [[GR0 for _ in range(N)] for _ in range(N)]
    for i in range(1, N + 1):
        tu = shape.tau[i - 1]
        if shape.u[i - 1] is None:
            continue
        if tu == i:
            # sgn (|x| + 1) for a random rational x
            sgn = 1 if shape.u[i - 1].a > 0 else -1
            num, den = random_ratio(rng)
            E[i - 1][i - 1] = GaussRat.from_ints(sgn * (abs(num) + den), den)
        elif tu > i:
            num, den = random_ratio(rng)
            c = GaussRat.from_ints(abs(num) + den, den)
            E[tu - 1][i - 1] = c * shape.u[i - 1]
            E[i - 1][tu - 1] = c * shape.u[tu - 1]
            E[tu - 1][tu - 1] = GaussRat.from_ints(*random_ratio(rng))
    return HermitianMatrix(congruence(random_triangular(N, rng), E))


def congruence(t, e):
    """t* e t for square GaussRat matrices t and e (lists of rows), summed
    over their nonzero entries only: a triangular t (a shear or a diagonal
    above all) and a sparse e, such as a shape matrix, skip most of the
    dense products."""
    t = _sparse_rows(t)
    t_star = [{} for _ in t]
    for k, row in enumerate(t):
        for i, x in row.items():
            t_star[i][k] = x.conj()
    m = _sparse_product(t_star, _sparse_product(_sparse_rows(e), t))
    return [[row.get(j, GR0) for j in range(len(m))] for row in m]


def _sparse_rows(a):
    """A GaussRat matrix as rows of {column: nonzero entry}."""
    return [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in a]


def _sparse_product(a, b):
    """The product of two matrices of sparse rows, summed over their stored
    entries only."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                p = x * y
                acc[j] = acc[j] + p if j in acc else p
        out.append(acc)
    return out
