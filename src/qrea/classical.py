"""Classical side: shapes of Hermitian matrices and the quadratic bracket.

A HermitianMatrix is held as one Gaussian-integer multiple D z of the exact
matrix z, D > 0 and each entry of D z an (re, im) pair of ints, and is
checked self-adjoint on it when it is made.  Exact complex rationals
(GaussRat) are formed from it only where an entry is printed or divided:
its entries are a view, read by the JSON writer, the congruence
decomposition and the bracket.  A GaussRat matrix, read or drawn, becomes
a HermitianMatrix through clear_denominators, once, and no square root is
taken.  A slot of a shape is a ray: a nonzero GaussRat that stands for its
direction u/|u|.  ShapeMatrix keeps it in a canonical form, the unit phase
when |u| is rational and the primitive Gaussian integer otherwise, so
slots, and shapes, compare with ==.

Shape extraction is definition-faithful: for each size it scans minor labels
in the pair-lexicographic order (column set first) and takes the first
nonvanishing minor, so the discrete data (the involution and the vanishing
pattern) and the slot rays, ratios of consecutive pivot minors, are decided
exactly.  The scan runs over the integers, on the Gaussian-integer multiple
D z that the matrix holds as z.D and z.w: its minors vanish where those of
z do, and its pivot ratios are D times those of z.
Minors come from one memo per matrix (minors), each the Laplace expansion
over the smaller ones, with no division; the scan stops at the first size
with no nonzero minor, so the rank is read off the same table.  congruence
multiplies such multiples over Z, and the spectrum below is read off them
too.

The congruence decomposition is the LDL* form of the pivoting loop (Golub
and Van Loan, Matrix Computations, 4.1-4.2): z = t'* M t' with t' unit upper
triangular and M holding one real d_p at each fixed point p of the
involution and one beta at each two-cycle.  The paper's t is
diag(rho_p^(1/4)) t', with rho_p = |M_tau(p),p|^2, and is not formed.  The
shape read off M is cross-checked against the scanner.

The quadratic bracket on Hermitian matrices is read off the sparse classical
r-matrix e_ii (x) e_ii + 2 sum_{i<j} e_ij (x) e_ji, with exact coefficients,
built once per N.  The bivector check evaluates it at exact points in the
complex coordinates Z_ij.  The Jacobi check builds one cyclic sum per cyclic
class of coordinate triples as an exact polynomial and fails on any that is
nonzero; it evaluates them at exact points only for the residual it reports.
The tangency check reads the bracket as integer forms in the real
coordinates of Herm(N), with ranks over Z.

The spectrum is checked without computing it: power_sums gives tr z^m for
m = 1..N, which fix the eigenvalues as a multiset; charpoly turns them into
the characteristic polynomial by Newton's identities, and eigenvalue_signs
counts the signs of its roots exactly by Descartes' rule.  On D z the
traces and the polynomial are integers, so Newton's identities run over Z.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, isqrt, lcm
from operator import mul

from .coeff import GaussRat, Random, _gauss, rational_sqrt
from .linalg import add_term, echelon
from .memo import Memo


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
    """The self-adjoint matrix z = w / D, held as D > 0 and w, the rows of
    its Gaussian-integer multiple D z, each entry an (re, im) pair of ints.
    D need not be the least such multiple: clear_denominators gives that
    one, congruence the product of its factors' multiples.  w is checked
    square and self-adjoint, which also rejects a non-real diagonal
    entry."""

    def __init__(self, D, w):
        self.D, self.w, self.N = D, w, len(w)
        if any(len(row) != self.N for row in w):
            raise ValueError("matrix is not square")
        if any(w[i][j] != (w[j][i][0], -w[j][i][1])
               for i in range(self.N) for j in range(i, self.N)):
            raise ValueError("matrix is not self-adjoint")

    @property
    def entries(self):
        """The rows of z as GaussRat, made on each read."""
        D = self.D
        return [[_gauss(a, b, D) for a, b in row] for row in self.w]

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
        return HermitianMatrix(*clear_denominators(
            [[GaussRat.from_json(e, floats) for e in row]
             for row in obj["entries"]]))


def gr_identity(n):
    return [[GaussRat(1 if i == j else 0) for j in range(n)] for i in range(n)]


def clear_denominators(e):
    """(D, w) for an exact matrix e (a list of rows of GaussRat): D the lcm
    of the entry denominators, and w the rows of D e, its Gaussian-integer
    multiple, each entry an (re, im) pair of ints."""
    D = lcm(*[v.d for row in e for v in row])
    return D, [[(v.a * m, v.b * m) for v in row for m in [D // v.d]]
               for row in e]


def minors(w):
    """The minors of the Gaussian-integer matrix w (rows of (re, im) int
    pairs), as a Memo {(rows, cols): minor} on two equally long tuples of
    1-based labels, each minor an (re, im) pair.  Each is the Laplace
    expansion along its last column over the minors one size smaller,
    which are kept, so every minor of w is computed once, over the
    integers."""
    def expand(key):
        rows, cols = key
        col, rest, last = cols[-1] - 1, cols[:-1], len(cols) - 1
        re = im = 0
        for p, r in enumerate(rows):
            a, b = w[r - 1][col]
            if a or b:
                if (last - p) % 2:
                    a, b = -a, -b
                c, d = memo[rows[:p] + rows[p + 1:], rest]
                re += a * c - b * d
                im += a * d + b * c
        return re, im

    memo = Memo(expand)
    memo[(), ()] = (1, 0)
    return memo


def _product(a, b):
    """The product of two matrices of (re, im) int pairs, summed over the
    nonzero entries of a only."""
    cols = list(zip(*b))
    out = []
    for row in a:
        new = []
        for col in cols:
            re = im = 0
            for (x, y), (u, v) in zip(row, col):
                if x or y:
                    re += x * u - y * v
                    im += x * v + y * u
            new.append((re, im))
        out.append(new)
    return out


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
        return _gauss(a, b, r)
    g = gcd(a, b)
    return d if g == 1 and n == 1 else GaussRat(a // g, b // g)


class ShapeMatrix:
    """Involution plus slot rays; the matrix sends e_i to u_i e_{tau(i)}.

    A slot is None (a zero slot, at a fixed point) or a nonzero GaussRat,
    kept as its canonical ray; u_tau(i) is the conjugate of u_i, so a fixed
    slot is +1 or -1.
    """

    def __init__(self, tau, u):
        self.tau = tuple(map(int, tau))
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

def _scan_plan(N):
    """For k = 1..N, the keys (rows, cols) of the minors of size k in the
    order shape_of scans them: pair-lexicographic in (columns, rows)."""
    out = []
    for k in range(1, N + 1):
        labels = list(combinations(range(1, N + 1), k))
        out.append([(I, J) for J in labels for I in labels])
    return out


_SCAN_PLANS = Memo(_scan_plan)


def _pivot_step(keys):
    """(p, tp, flip) for a pivot on the minor key = (rows, cols) after one
    on prev, keys = (prev, key): the column p and row tp that key adds, and
    the parity of the inversions the pair adds to the chain's permutation
    cols -> rows, the rows of prev above tp as p is the last column; None
    when key does not extend prev by one row and a column above prev's."""
    (prev_rows, prev_cols), (rows, cols) = keys
    new_cols = set(cols) - set(prev_cols)
    new_rows = set(rows) - set(prev_rows)
    if (len(new_cols) != 1 or len(new_rows) != 1
            or set(prev_cols) - set(cols) or set(prev_rows) - set(rows)
            or min(new_cols) < max(prev_cols, default=0)):
        return None
    tp = min(new_rows)
    return min(new_cols), tp, sum(r > tp for r in prev_rows) % 2


_PIVOT_STEPS = Memo(_pivot_step)


def shape_of(z):
    """Shape of a Hermitian matrix via lex-first nonvanishing minors.

    For each size k = 1, 2, ..., scans label pairs (columns, rows) in the
    pair-lexicographic order and pivots on the first nonzero minor; the scan
    stops at the first size with none, so it pivots once per unit of rank.
    The pivots assemble the involution, and each slot is the ray of the
    ratio of two consecutive pivot minors, signed by the positivity
    normalisation.  The minors are those of D z; the ray of a ratio
    (a + b i)/(c + d i) is that of (a + b i)(c - d i), a Gaussian integer.
    """
    N = z.N
    tau = list(range(1, N + 1))
    u = [None] * N
    minor = minors(z.w)
    prev, odd, c, d = ((), ()), 0, 1, 0     # the last pivot, signed
    for scan in _SCAN_PLANS[N]:
        key = next((key for key in scan if minor[key] != (0, 0)), None)
        if key is None:
            break
        step = _PIVOT_STEPS[prev, key]
        if step is None:
            raise InconsistentPivots(f"pivot chain broke at size "
                                     f"{len(key[1])}: {prev[1]} -> {key[1]}")
        p, tp, flip = step
        odd ^= flip
        a, b = minor[key]
        if odd:
            a, b = -a, -b
        ratio = GaussRat(a * c + b * d, b * c - a * d)
        tau[p - 1], tau[tp - 1] = tp, p
        u[p - 1] = ratio
        if tp != p:
            u[tp - 1] = ratio.conj()
        prev, c, d = key, a, b
    try:
        return ShapeMatrix(tau, u)
    except ValueError as exc:
        raise InconsistentPivots(str(exc)) from exc


def _check_triangular(t):
    n = len(t)
    for i in range(n):
        d = t[i][i]
        if d.b or d.a <= 0:         # d = (a + b i)/d.d with d.d > 0
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
    return next((t for t in ts if s != shape_of(congruence(t, z))), None)


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
    t, m = gr_identity(z.N), z.entries
    _congruence(m, t)
    return t, HermitianMatrix(*clear_denominators(m))


def reduced_shape(M):
    """The ShapeMatrix of a matrix M with at most one nonzero entry per
    column, as decompose returns it: that entry of M.w is the column's
    slot, a ray of M's entry as M.D > 0.  Raises ValueError when M is not
    of that form."""
    N, w = M.N, M.w
    tau = list(range(1, N + 1))
    u = [None] * N
    for i in range(N):
        rows = [j for j in range(N) if w[j][i] != (0, 0)]
        if len(rows) > 1:
            raise ValueError(f"column {i + 1} of M has {len(rows)} nonzero "
                             f"entries")
        if rows:
            tau[i], u[i] = rows[0] + 1, GaussRat(*w[rows[0]][i])
    return ShapeMatrix(tau, u)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def _traces(z):
    """(D, p) for a HermitianMatrix z and its Gaussian-integer multiple
    A = D z (z.D, z.w): p = [tr A, tr A^2, ..., tr A^N], integers as A is
    Hermitian.  Each tr A^(a+b) is read as the sum of the real parts of
    (A^a)_ij (A^b)_ji, so only the powers up to A^ceil(N/2) are multiplied
    out."""
    D, w = z.D, z.w
    powers = [None, w]
    while len(powers) <= (z.N + 1) // 2:
        powers.append(_product(powers[-1], w))
    p = [sum(row[i][0] for i, row in enumerate(w))]
    for m in range(2, z.N + 1):
        a, b = powers[m // 2], powers[m - m // 2]
        p.append(sum(x * u - y * v for i, row in enumerate(a)
                     for (x, y), brow in zip(row, b) for u, v in [brow[i]]))
    return D, p


def _charpoly_over_z(p):
    """The coefficients c_k of det(x - A), from x^N down to x^0, of a
    Hermitian Gaussian-integer A with the power sums p (_traces), by
    Newton's identities k c_k = -(c_(k-1) p_1 + ... + c_0 p_k).  The c_k
    are real and lie in Z[i], so they are integers and each division is
    exact."""
    c = [1]
    for k in range(1, len(p) + 1):
        c.append(-sum(map(mul, reversed(c), p)) // k)
    return c


def power_sums(z):
    """[tr z, tr z^2, ..., tr z^N] of a HermitianMatrix, as GaussRat: the
    power sums of its eigenvalues, which fix them as a multiset, each the
    integer tr (D z)^m of _traces over D^m."""
    D, p = _traces(z)
    return [_gauss(x, 0, D ** m) for m, x in enumerate(p, start=1)]


def charpoly(z):
    """The coefficients of det(x - z), exact rationals from x^N down to x^0:
    x^(N - k) has the integer coefficient of det(x - D z) over D^k, as the
    eigenvalues of z are those of D z over D."""
    D, p = _traces(z)
    return [Fraction(c, D ** k) for k, c in enumerate(_charpoly_over_z(p))]


def eigenvalue_signs(z):
    """Counts (plus, minus, zero) of the eigenvalues of a Hermitian z, by
    Descartes' rule of signs on the integer characteristic polynomial of
    D z, which has the signs of z's and is exact because it is
    real-rooted."""
    coeffs = _charpoly_over_z(_traces(z)[1])

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
    return HermitianMatrix(*clear_denominators(ent))


# ---------------------------------------------------------------------------
# The quadratic bracket
# ---------------------------------------------------------------------------

def poisson_bracket_coeffs(N):
    """{Z_ij, Z_kl} as exact quadratic forms in the matrix entries.

    Returns a dict mapping ((i,j),(k,l)) to {sorted entry-pair: GaussRat};
    the coefficients are purely imaginary.  The table is built once per N,
    by _bracket_table, and shared by every caller, which must not modify
    it."""
    return _BRACKET_TABLES[N]


def _bracket_table(N):
    """The table of poisson_bracket_coeffs(N), built.  The bracket is
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


_BRACKET_TABLES = Memo(_bracket_table)


def bracket_at(z):
    """The N^2 x N^2 matrix {Z_ij, Z_kl}(z) at an exact HermitianMatrix z,
    rows (i, j) and columns (k, l) in row-major order: column (k, l) is the
    Hamiltonian vector field of Z_kl at z in the coordinates Z_ij."""
    table, monomials = poisson_bracket_coeffs(z.N), _monomial_values(z.entries)
    coords = list(product(range(1, z.N + 1), repeat=2))
    return [[_value(table[(ij, kl)], monomials) for kl in coords]
            for ij in coords]


def _monomial_values(e):
    """{monomial: value} at the exact matrix entries e, each monomial a
    sorted tuple of (i, j), filled on use, so that polynomials evaluated at
    one point share the values of their monomials."""
    return Memo(lambda mono: reduce(mul, (e[i - 1][j - 1] for i, j in mono)))


def _value(poly, monomials):
    """A polynomial {monomial: coefficient} in the entries Z_ij at the point
    of `monomials` (`_monomial_values`)."""
    return sum((c * monomials[mono] for mono, c in poly.items()), GR0)


# ---------------------------------------------------------------------------
# Tangency and Jacobi
# ---------------------------------------------------------------------------

def _tangency_plan(N):
    """The integer forms of leaf_tangency_check at size N, from
    poisson_bracket_coeffs(N), in the real coordinates x of Herm(N) indexed
    like the entries: x_(i,i) = Z_ii, x_(i,j) = 2 Re Z_ij, x_(j,i) = 2 Im Z_ij
    for i < j.  Returns (bracket, tangents).  bracket holds (a, b, u, v, c),
    c x_u x_v in the real part of 4 {x_a, x_b}, and (N^2 + a, b, u, v, c)
    the same in its imaginary part.  tangents holds (a, t, b, c), c x_b in
    entry a of 2 (a* z + z a) for the t-th a of the real bases i e_ii,
    i (e_ij + e_ji), e_ji - e_ij of u(N), then e_ii, e_ij, i e_ij of b(N),
    the upper triangular matrices with a real diagonal (i < j), each
    indexed like the entries."""
    index = {ij: a for a, ij in enumerate(product(range(1, N + 1), repeat=2))}
    unit = [GR1, GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1)]     # i^p
    coordinate = {(i, j): {(i, j): GR1} if i == j else      # x_ij in the Z
                  {(i, j): GR1, (j, i): GR1} if i < j else
                  {(i, j): unit[1], (j, i): unit[3]} for i, j in index}
    twice = {(i, j): {index[i, i]: GaussRat(2)} if i == j else   # 2 Z_ij in x
             {index[min(i, j), max(i, j)]: GR1,
              index[max(i, j), min(i, j)]: unit[1 if i < j else 3]}
             for i, j in index}

    def expand(mono):
        # the product of the 2 Z_ij over the entries ij of mono, in x
        out = {}
        for picks in product(*(twice[ij].items() for ij in mono)):
            add_term(out, tuple(sorted(u for u, _ in picks)),
                     reduce(mul, (c for _, c in picks)))
        return out

    def form(terms):
        out = {}
        for mono, c in terms:
            for key, ck in expanded[mono].items():
                add_term(out, key, c * ck)
        return out

    table, expanded = poisson_bracket_coeffs(N), Memo(expand)
    forms = [(index[ij], index[kl], form(
        [(mono, c * cp * cr) for (p, cp), (r, cr) in product(
            coordinate[ij].items(), coordinate[kl].items())
         for mono, c in table[(p, r)].items()]))
        for ij, kl in product(index, repeat=2)]
    # a = sum of i^p e_rc over its terms (r, c, p); coordinate ij of
    # a* z + z a reads i^-p Z_rl at each entry (c, l) and i^p Z_kr at (k, c)
    bases = ([[(i, i, 1)] if i == j else [(i, j, 1), (j, i, 1)] if i < j
              else [(j, i, 2), (i, j, 0)] for i, j in index]
             + [[(i, j, 0)] if i <= j else [(j, i, 1)] for i, j in index])
    tangents = [[form([(((r, l),), w * unit[-p % 4]) for r, c, p in basis
                       for (k, l), w in coordinate[ij].items() if k == c]
                      + [(((k, r),), w * unit[p % 4]) for r, c, p in basis
                         for (k, l), w in coordinate[ij].items() if l == c])
                 for ij in index] for basis in bases]
    return ([(a + len(index) * k, b, u, v, part) for a, b, f in forms
             for (u, v), c in f.items()
             for k, part in enumerate((c.a, c.b)) if part],
            [(a, t, b, c.a) for t, fs in enumerate(tangents)
             for a, f in enumerate(fs) for (b,), c in f.items()])


_TANGENCY_PLANS = Memo(_tangency_plan)


def leaf_tangency_check(z):
    """Compare the bivector range with the two orbit tangents at an exact z.

    The symplectic leaf through z is a component of the intersection of
    the unitary and the triangular dressing orbits (Semenov-Tian-Shansky,
    Publ. RIMS 21, 1985), so the range of the bivector is the intersection
    of their tangent spaces.  Returns the dims of the bivector range, both
    tangents and their intersection, and whether range = intersection.
    intersection_dim reads rank [U | pi | T] as rank [U | T], which holds
    whenever the range lies in the unitary tangent, as equal requires.

    The ranks are taken over Z in the coordinates x of _tangency_plan, at
    the multiple of z with Gaussian-integer entries (a positive multiple
    changes no span).  They are the ranks over Q(i) in the entries Z_ij, as
    Herm(N) is a real form of the complex matrices and every vector here is
    Hermitian: the orbit tangents, and the Hamiltonian fields of the x_a by
    the reality law conj {Z_ij, Z_kl} = {Z_ji, Z_lk}, which
    classical.bivector-antisymmetry certifies.  A value {x_a, x_b}(z) that
    is not real fails the sample; the ranks then read the real parts.
    """
    N, n2 = z.N, z.N * z.N
    bracket, tangents = _TANGENCY_PLANS[N]
    x = [z.w[min(i, j)][max(i, j)][i > j] * (1 if i == j else 2)
         for i, j in product(range(N), repeat=2)]
    pi = [[0] * n2 for _ in range(2 * n2)]  # real parts, then imaginary
    for a, b, u, v, c in bracket:
        pi[a][b] += c * x[u] * x[v]
    real, pi = not any(map(any, pi[n2:])), pi[:n2]
    ut = [[0] * (2 * n2) for _ in range(n2)]
    for a, t, b, c in tangents:
        ut[a][t] += c * x[b]
    basis = echelon(pi)[1]
    pi = [[row[c] for c in basis] for row in pi]
    upt = echelon([u[:n2] + p + u[n2:] for u, p in zip(ut, pi)])[1]
    tp = echelon([u[n2:] + p for u, p in zip(ut, pi)])[1]
    rank_u, rank_t = bisect_left(upt, n2), bisect_left(tp, n2)
    inter_dim = rank_u + rank_t - len(upt)
    equal = (real and bisect_left(upt, n2 + len(basis)) == rank_u
             and len(tp) == rank_t and len(basis) == inter_dim)
    return {"bivector_rank": len(basis), "unitary_dim": rank_u,
            "triangular_dim": rank_t, "intersection_dim": inter_dim,
            "equal": equal}


def jacobi_check(N, samples, seed):
    """The cyclic Jacobi sums {f,{g,h}} + {g,{h,f}} + {h,{f,g}} over all
    coordinate triples, built as exact cubic polynomials by the Leibniz
    rule.  The three rotations of a triple have the same sum, so it is
    built once per cyclic class, at the lex-first rotation, and counted at
    the class size.

    None when every cyclic sum is the zero polynomial.  A nonzero one fails
    the identity on Hermitian matrices: Herm(N) is a real form of the
    complex matrices, so a polynomial in the Z_ij that vanishes on it
    vanishes identically.  The failure counts the nonzero sums, names the
    first by its triple, its first monomial and that monomial's
    coefficient, and gives max_residual, a value of largest modulus of the
    nonzero sums at `samples` random exact Hermitian points, which are
    drawn only then.
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
    coords = list(product(range(1, N + 1), repeat=2))
    for f, g, h in product(coords, repeat=3):
        if (g, h, f) < (f, g, h) or (h, f, g) < (f, g, h):
            continue
        total = {}
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            add_bracket_with_poly(total, a, table[(b, c)])
        if total:
            cyclic[(f, g, h)] = total
    if not cyclic:
        return None
    rng = Random(seed)
    values = []
    for _ in range(samples):
        monomials = _monomial_values(random_exact_hermitian(N, rng).entries)
        values += [_value(poly, monomials) for poly in cyclic.values()]
    triple, poly = next(iter(cyclic.items()))
    return {"nonzero_cyclic_polys": sum(1 if f == g == h else 3
                                        for f, g, h in cyclic),
            "first": {"triple": triple, "monomial": min(poly),
                      "coefficient": poly[min(poly)].to_json()},
            "max_residual": max(values, key=GaussRat.abs2).to_json()}


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
    return congruence(random_triangular(N, rng),
                      HermitianMatrix(*clear_denominators(E)))


def congruence(t, z):
    """t* z t for a square GaussRat matrix t (a list of rows) and a
    HermitianMatrix z, as the HermitianMatrix of D = Dt^2 z.D and the
    product over Z of the Gaussian-integer multiples Dt t
    (clear_denominators) and z.w, summed over their nonzero entries only:
    nothing is divided.  A triangular t and a sparse z, such as a shape
    matrix, skip most of the dense products."""
    dt, wt = clear_denominators(t)
    t_star = [[(x, -y) for x, y in col] for col in zip(*wt)]
    return HermitianMatrix(dt * dt * z.D, _product(t_star, _product(z.w, wt)))
