"""Classical side: shapes of Hermitian matrices and the quadratic bracket.

Shape extraction is definition-faithful: for each size it scans minor labels
in the pair-lexicographic order (column set first) and takes the first
nonvanishing minor, all over exact complex rationals, so the discrete data
(the involution and the vanishing pattern) are decided exactly.  Minors come
from one memo per matrix (minors), each the Laplace expansion over the
smaller ones, with no division; the rank that bounds the scan comes from the
one dense elimination, linalg.echelon.  Slot phases are recovered from the
positivity normalisation; they stay exact whenever the relevant square root
is rational and drop to floating point otherwise.

The congruence decomposition z = t* S t is one pivoting loop for both scalar
kinds, exact and floating point, which differ only in the zero test,
conjugation and the square root; it is cross-checked against the scanner.
The quadratic bracket on Hermitian matrices is read off the sparse classical
r-matrix e_ii (x) e_ii + 2 sum_{i<j} e_ij (x) e_ji, with exact coefficients,
built once per N.  The bivector, tangency and Jacobi checks evaluate it at
exact points in the complex coordinates Z_ij, with exact ranks, and the
Jacobi check builds one cyclic sum per cyclic class of coordinate triples.
Complexification keeps every rank of the real picture: the matrix
{Z_ij, Z_kl}(z) is the real bivector in another basis, and Hermitian tangent
vectors are independent over C when they are over R.

The spectrum is checked without computing it: power_sums gives tr z^m for
m = 1..N, which fix the eigenvalues as a multiset, and eigenvalue_signs
counts their signs exactly by Descartes' rule on the characteristic
polynomial, which Newton's identities build from the power sums.

Numeric matrices hold Python complex numbers, and decompose's floating-point
fallback and its residual are plain Python.  numpy serves only to_numeric
and eigenvalues, which import it when they run, so every check-all suite,
and every module that imports this one, runs without loading numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, combinations, product
from operator import add, mul

from .coeff import GaussRat, rational_sqrt
from .linalg import add_term, echelon, rank


class InconsistentPivots(RuntimeError):
    """The minor scan produced pivots that do not assemble into a shape;
    cannot happen for genuinely Hermitian exact input."""


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
    """Self-adjoint matrix, exact (GaussRat entries) or numeric (complex)."""

    def __init__(self, entries, mode="exact", check=True):
        if mode == "exact":
            self.entries = [[e if isinstance(e, GaussRat) else GaussRat(e)
                             for e in row] for row in entries]
            skew, within = (lambda a, b: a != b.conj()), ""
        elif mode == "numeric":
            self.entries = [[complex(e) for e in row] for row in entries]
            skew, within = ((lambda a, b: abs(a - b.conjugate()) > 1e-12),
                            " within 1e-12")
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.N = len(self.entries)
        self.mode = mode
        if any(len(row) != self.N for row in self.entries):
            raise ValueError("matrix is not square")
        if check and any(skew(self.entries[i][j], self.entries[j][i])
                         for i in range(self.N) for j in range(i, self.N)):
            raise ValueError("matrix is not self-adjoint" + within)

    def complex_entries(self):
        """The entries as lists of Python complex numbers."""
        if self.mode == "numeric":
            return [row[:] for row in self.entries]
        return [[e.to_complex() for e in row] for row in self.entries]

    def to_numeric(self):
        import numpy as np
        return np.array(self.complex_entries(), dtype=complex)

    def eigenvalues(self):
        import numpy as np
        return np.sort(np.linalg.eigvalsh(self.to_numeric()))

    def to_json(self):
        if self.mode == "exact":
            ent = [[e.to_json() for e in row] for row in self.entries]
        else:
            ent = [[{"re": float(e.real), "im": float(e.imag)} for e in row]
                   for row in self.entries]
        return {"N": self.N, "mode": self.mode, "entries": ent}

    @staticmethod
    def from_json(obj):
        if type(obj["N"]) is not int or obj["N"] != len(obj["entries"]):
            raise ValueError(f"declared N {obj['N']!r} is not the number of "
                             f"rows, {len(obj['entries'])}")
        if obj["mode"] == "exact":
            ent = [[GaussRat.from_json(e) for e in row] for row in obj["entries"]]
        else:
            ent = [[complex(e["re"], e["im"]) for e in row] for row in obj["entries"]]
        return HermitianMatrix(ent, mode=obj["mode"])


def _total(terms):
    """The sum of a nonempty iterable of scalars, exact or complex."""
    terms = iter(terms)
    return sum(terms, next(terms))


def gr_matmul(a, b):
    """The product of two matrices, lists of rows of GaussRat or of complex
    numbers."""
    cols = list(zip(*b))
    return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]


def gr_conj_t(a):
    return [[a[j][i].conj() for j in range(len(a))] for i in range(len(a[0]))]


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


def exact_minor(z, rows, cols):
    """Determinant of the (rows, cols) submatrix over GaussRat, labels
    1-based."""
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    return minors(z)(tuple(rows), tuple(cols))


# ---------------------------------------------------------------------------
# Shape matrices
# ---------------------------------------------------------------------------

class ShapeMatrix:
    """Involution plus slot phases; the matrix sends e_i to u_i e_{tau(i)}.

    Slot values: None for zero slots, GaussRat for exactly representable
    unimodular phases, complex for the rest.
    """

    def __init__(self, tau, u):
        self.tau = tuple(int(t) for t in tau)
        self.N = len(self.tau)
        self.u = list(u)
        if sorted(self.tau) != list(range(1, self.N + 1)):
            raise ValueError("tau is not a permutation")
        for i in range(1, self.N + 1):
            if self.tau[self.tau[i - 1] - 1] != i:
                raise ValueError("tau is not an involution")
            ui = self.u[i - 1]
            if ui is None:
                if self.tau[i - 1] != i:
                    raise ValueError(f"zero slot {i} must be a fixed point")
                continue
            if isinstance(ui, GaussRat):
                if ui.abs2() != 1:
                    raise ValueError(f"slot {i} is not unimodular")
            elif abs(abs(complex(ui)) - 1.0) > 1e-10:
                raise ValueError(f"slot {i} is not unimodular within 1e-10")
        for i in range(1, self.N + 1):
            ui, uj = self.u[i - 1], self.u[self.tau[i - 1] - 1]
            if (ui is None) != (uj is None):
                raise ValueError("support is not tau-invariant")
            if ui is None:
                continue
            if isinstance(ui, GaussRat) and isinstance(uj, GaussRat):
                if uj != ui.conj():
                    raise ValueError("slots are not conjugate-symmetric")
            elif abs(self.slot_complex(self.tau[i - 1])
                     - self.slot_complex(i).conjugate()) > 1e-10:
                raise ValueError("slots are not conjugate-symmetric")

    @property
    def support(self):
        return tuple(i for i in range(1, self.N + 1) if self.u[i - 1] is not None)

    @property
    def rank(self):
        return len(self.support)

    def is_exact(self):
        return all(ui is None or isinstance(ui, GaussRat) for ui in self.u)

    def slot_complex(self, i):
        ui = self.u[i - 1]
        if ui is None:
            return 0j
        return ui.to_complex() if isinstance(ui, GaussRat) else complex(ui)

    def matrix(self):
        """As a HermitianMatrix (exact when every slot is exact)."""
        exact = self.is_exact()
        ent = [[GR0 if exact else 0j] * self.N for _ in range(self.N)]
        for i in range(1, self.N + 1):
            if self.u[i - 1] is not None:
                ent[self.tau[i - 1] - 1][i - 1] = (self.u[i - 1] if exact
                                                   else self.slot_complex(i))
        return HermitianMatrix(ent, mode="exact" if exact else "numeric")

    def sign_multiset(self):
        """Counts (plus, minus, zero) of the eigenvalues, structurally."""
        plus = minus = zero = 0
        seen = set()
        for i in range(1, self.N + 1):
            if i in seen:
                continue
            t = self.tau[i - 1]
            ui = self.u[i - 1]
            if ui is None:
                zero += 1
            elif t == i:
                if self.slot_complex(i).real > 0:
                    plus += 1
                else:
                    minus += 1
            else:
                seen.add(t)
                plus += 1
                minus += 1
        return plus, minus, zero

    def same_shape(self, other, tol=1e-10):
        """Equality with exact tau/pattern and tolerance on float phases."""
        if self.tau != other.tau:
            return False
        for i in range(1, self.N + 1):
            a, b = self.u[i - 1], other.u[i - 1]
            if (a is None) != (b is None):
                return False
            if a is None:
                continue
            if isinstance(a, GaussRat) and isinstance(b, GaussRat):
                if a != b:
                    return False
            elif abs(self.slot_complex(i) - other.slot_complex(i)) > tol:
                return False
        return True

    def to_json(self):
        slots = []
        for ui in self.u:
            if ui is None:
                slots.append(None)
            elif isinstance(ui, GaussRat):
                slots.append(ui.to_json())
            else:
                slots.append({"re": float(ui.real), "im": float(ui.imag),
                              "numeric": True})
        return {"tau": list(self.tau), "u": slots}

    def __repr__(self):
        return f"ShapeMatrix(tau={self.tau}, u={self.u})"


# ---------------------------------------------------------------------------
# Shape of a Hermitian matrix
# ---------------------------------------------------------------------------

def _phase_of(d):
    """Exact unimodular direction of a nonzero GaussRat when |d| is rational,
    else a complex phase.  For d = (a + b i)/n, |d| is rational exactly when
    a^2 + b^2 is a square, and then d/|d| = (a + b i)/sqrt(a^2 + b^2)."""
    a2 = d.a * d.a + d.b * d.b
    root = math.isqrt(a2)
    if root * root == a2:
        return GaussRat(Fraction(d.a, root), Fraction(d.b, root))
    c = d.to_complex()
    return c / abs(c)


def shape_of(z):
    """Shape of an exact Hermitian matrix via lex-first nonvanishing minors.

    For each size k up to the rank, scans label pairs (columns, rows) in the
    pair-lexicographic order and pivots on the first nonzero exact minor;
    the pivots assemble the involution, and slot phases come out of the
    positivity normalisation as ratios of consecutive pivot minors.
    """
    if z.mode != "exact":
        raise ValueError("shape_of needs exact entries")
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
        direction = GaussRat((-1) ** inv) * val
        ratio = direction / prev_dir
        phase = _phase_of(ratio)
        p, tp = pairs[-1]
        tau[p - 1], tau[tp - 1] = tp, p
        u[p - 1] = phase
        if tp != p:
            u[tp - 1] = phase.conj() if isinstance(phase, GaussRat) \
                else complex(phase).conjugate()
        prev_cols, prev_rows, prev_dir = J, I, direction
    try:
        return ShapeMatrix(tau, u)
    except ValueError as exc:
        raise InconsistentPivots(str(exc)) from exc


def _check_triangular_exact(t):
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
        _check_triangular_exact(t)
    s = shape_of(z)
    return next((t for t in ts if not s.same_shape(shape_of(HermitianMatrix(
        gr_matmul(gr_conj_t(t), gr_matmul(z.entries, t)), mode="exact")))),
        None)


# ---------------------------------------------------------------------------
# Congruence decomposition
# ---------------------------------------------------------------------------

class _ExactSqrtMiss(Exception):
    pass


def _exact_root(x):
    """sqrt|x| of a nonzero GaussRat, as a GaussRat, when it is rational."""
    root = rational_sqrt(x.abs2())
    root = None if root is None else rational_sqrt(root)
    if root is None:
        raise _ExactSqrtMiss
    return GaussRat(root)


def _congruence(m, t, is_zero, conj, root):
    """Reduce the matrix m (a list of rows) to its shape by congruences,
    in place, keeping z = t* m t: t is passed as the identity and leaves
    upper triangular with positive diagonal.

    The scalar kind enters only through is_zero, conj and root (sqrt|x| as
    a scalar of the kind).  Each pivot is the first nonzero entry, columns
    first, among the rows and columns not yet used.
    """
    N = len(m)

    def congr(p, r, lam):
        # m <- E* m E and t <- E^-1 t for E = I + lam e_{p,r}
        for x in range(N):
            m[x][r] = m[x][r] + lam * m[x][p]
        lc = conj(lam)
        for x in range(N):
            m[r][x] = m[r][x] + lc * m[p][x]
        for x in range(N):
            t[p][x] = t[p][x] - lam * t[r][x]

    def scale(p, s):
        # the same with E the identity but 1/s at (p, p)
        for x in range(N):
            m[x][p] = m[x][p] / s
        for x in range(N):
            m[p][x] = m[p][x] / s
        for x in range(N):
            t[p][x] = t[p][x] * s

    used = set()
    while True:
        pivot = None
        for c in range(N):
            if c in used:
                continue
            for r in range(N):
                if r not in used and not is_zero(m[r][c]):
                    pivot = (c, r)
                    break
            if pivot:
                break
        if pivot is None:
            break
        p, i = pivot
        if i == p:
            for r in range(N):
                if r not in used and r != p and not is_zero(m[r][p]):
                    congr(p, r, conj(-(m[r][p] / m[p][p])))
            scale(p, root(m[p][p]))
            used.add(p)
        else:
            beta = m[i][p]
            # unconditional: a float residue below the zero test would
            # grow past it when p and i are scaled by 1/sqrt|beta|
            congr(p, i, -(m[i][i] / (beta + beta)))
            for r in range(N):
                if r not in used and r not in (p, i) and not is_zero(m[r][p]):
                    congr(i, r, conj(-(m[r][p] / m[i][p])))
            for r in range(N):
                if r not in used and r not in (p, i) and not is_zero(m[r][i]):
                    congr(p, r, conj(-(m[r][i] / m[p][i])))
            s = root(m[i][p])
            scale(p, s)
            scale(i, s)
            used.add(p)
            used.add(i)


def _read_shape(m, is_zero):
    """The ShapeMatrix of a matrix reduced by _congruence."""
    N = len(m)
    tau = list(range(1, N + 1))
    u = [None] * N
    for i in range(N):
        for j in range(N):
            if not is_zero(m[j][i]):
                tau[i] = j + 1
                u[i] = m[j][i]
    return ShapeMatrix(tau, u)


def decompose(z):
    """Factor z = t* S t with t upper triangular, positive diagonal.

    Stays exact when every required square root is rational, otherwise
    falls back to floating point.  Returns (t, S).
    """
    N = z.N
    if z.mode == "exact":
        t, m = gr_identity(N), [row[:] for row in z.entries]
        try:
            _congruence(m, t, GaussRat.is_zero, GaussRat.conj, _exact_root)
            return (HermitianMatrix(t, mode="exact", check=False),
                    _read_shape(m, GaussRat.is_zero))
        except _ExactSqrtMiss:
            pass
    m = z.complex_entries()
    tol = 1e-11 * max(1.0, max(abs(x) for row in m for x in row))
    t = [[complex(i == j) for j in range(N)] for i in range(N)]
    _congruence(m, t, lambda x: abs(x) <= tol, complex.conjugate,
                lambda x: math.sqrt(abs(x)))
    # the congruences keep m Hermitian only up to rounding; (m + m*)/2 makes
    # the fixed slots real and the two-cycle slots conjugate again, and the
    # rounding noise left in the eliminated entries reads as zero
    m = [[(m[i][j] + m[j][i].conjugate()) / 2 for j in range(N)]
         for i in range(N)]
    return (HermitianMatrix(t, mode="numeric", check=False),
            _read_shape(m, lambda x: abs(x) < 10 * tol))


def decompose_residual(z, t, S):
    """The largest modulus of an entry of z - t* S t, in floating point."""
    tc = t.complex_entries()
    tst = gr_matmul([[x.conjugate() for x in col] for col in zip(*tc)],
                    gr_matmul(S.matrix().complex_entries(), tc))
    return max(abs(a - b) for ra, rb in zip(z.complex_entries(), tst)
               for a, b in zip(ra, rb))


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def power_sums(z):
    """[tr z, tr z^2, ..., tr z^N] of a HermitianMatrix, exact or numeric:
    the power sums of its eigenvalues, which fix them as a multiset.  Each
    trace of z^(a+b) is read as the sum of the (z^a)_ij (z^b)_ji, so only
    the powers up to z^ceil(N/2) are multiplied out."""
    e, n = z.entries, z.N
    powers = [None, e]
    while len(powers) <= (n + 1) // 2:
        powers.append(gr_matmul(powers[-1], e))
    sums = [_total(e[i][i] for i in range(n))]
    for m in range(2, n + 1):
        a, b = powers[m // 2], powers[m - m // 2]
        sums.append(_total(a[i][j] * b[j][i]
                           for i in range(n) for j in range(n)))
    return sums


def eigenvalue_signs(z):
    """Counts (plus, minus, zero) of the eigenvalues of an exact Hermitian
    z, by Descartes' rule of signs on its characteristic polynomial, which
    is exact because that polynomial is real-rooted.  Its coefficients come
    from the power sums by Newton's identities."""
    if z.mode != "exact":
        raise ValueError("eigenvalue_signs needs exact entries")
    p = [x.re for x in power_sums(z)]       # real: z is Hermitian
    e = [Fraction(1)]                       # elementary symmetric e_0..e_N
    for k in range(1, z.N + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1]
                     for i in range(1, k + 1)) / k)

    def changes(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # det(x - z) has the coefficients (-1)^k e_k and det(-x - z) the e_k up
    # to one sign, from x^N down; x^(N - k) for the last nonzero e_k is the
    # lowest power in both
    plus = changes([-c if k % 2 else c for k, c in enumerate(e)])
    return plus, changes(e), z.N - max(k for k, c in enumerate(e) if c)


# ---------------------------------------------------------------------------
# Leaf labels
# ---------------------------------------------------------------------------

@dataclass
class LeafLabel:
    shape: ShapeMatrix
    weight: list

    def to_json(self):
        return {"shape": self.shape.to_json(),
                "weight": [float(w) for w in self.weight]}


def weight_sign(lam, zero_tol=0.0):
    """Counts (plus, minus, zero) of the weights, zero within zero_tol; a
    rational weight compares exactly."""
    plus = sum(1 for x in lam if x > zero_tol)
    minus = sum(1 for x in lam if x < -zero_tol)
    return plus, minus, len(lam) - plus - minus


def leaf_label(z):
    """Pair the shape with the sorted spectrum."""
    if z.mode == "exact":
        s = shape_of(z)
    else:
        _, s = decompose(z)
    return LeafLabel(shape=s, weight=[float(w) for w in z.eigenvalues()])


def build_leaf_point(shape, lam):
    """Assemble an enhanced-shape representative with the given spectrum.

    Fixed support points receive matching-sign eigenvalues on the diagonal;
    each two-cycle receives one positive and one negative eigenvalue through
    the standard 2x2 congruence block.  Exact when the block square roots
    are rational and all phases exact.
    """
    lam = list(lam)
    if weight_sign(lam) != shape.sign_multiset():
        raise SignMismatch(f"{weight_sign(lam)} != {shape.sign_multiset()}")
    pos = sorted((x for x in lam if x > 0), reverse=True)
    neg = sorted(x for x in lam if x < 0)
    N = shape.N
    diag, pairs = [], []         # (i, eigenvalue) and (i, tau(i), l1, l2)
    for i in range(1, N + 1):
        t = shape.tau[i - 1]
        if t == i and shape.u[i - 1] is not None:
            diag.append((i, pos.pop(0) if shape.slot_complex(i).real > 0
                         else neg.pop(0)))
        elif t > i:
            pairs.append((i, t, pos.pop(0), neg.pop(0)))
    exact = shape.is_exact() and all(isinstance(x, (int, Fraction))
                                     for x in lam)
    if exact:
        roots = [rational_sqrt(l1 * -l2) for _, _, l1, l2 in pairs]
        exact = None not in roots
    if exact:
        scalar, slots = GaussRat, shape.u
    else:
        scalar, slots = float, [shape.slot_complex(i) for i in range(1, N + 1)]
        roots = [math.sqrt(float(l1) * -float(l2)) for _, _, l1, l2 in pairs]
    ent = [[scalar(0)] * N for _ in range(N)]
    for i, x in diag:
        ent[i - 1][i - 1] = scalar(x)
    for (i, t, l1, l2), root in zip(pairs, roots):
        c = scalar(root)
        ent[i - 1][t - 1] = c * slots[t - 1]
        ent[t - 1][i - 1] = c * slots[i - 1]
        ent[t - 1][t - 1] = scalar(l1) + scalar(l2)
    return HermitianMatrix(ent, mode="exact" if exact else "numeric")


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
    if z.mode != "exact":
        raise ValueError("bracket_at needs exact entries")
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
    """
    pi = list(zip(*bracket_at(z)))
    U, T = orbit_tangents(z)
    rank_u, rank_up, rank_upt = _ranks(U, pi, T)
    rank_t, rank_tp = _ranks(T, pi)
    rank_pi, = _ranks(pi)
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


def random_exact_phase(rng):
    """Random exact unimodular GaussRat (fourth roots and Pythagorean)."""
    return rng.choice(_EXACT_PHASES)


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
            ph = random_exact_phase(rng)
            u[a - 1] = ph
            u[b - 1] = ph.conj()
    return ShapeMatrix(tau, u)


def random_rational(rng, small=6):
    num = rng.randint(-small, small)
    den = rng.randint(1, small)
    return Fraction(num, den)


def random_triangular(N, rng):
    """Random exact element of the positive triangular group."""
    t = gr_identity(N)
    for i in range(N):
        t[i][i] = GaussRat(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        for j in range(i + 1, N):
            t[i][j] = GaussRat(random_rational(rng), random_rational(rng))
    return t


def random_compatible_weights(shape, rng):
    plus, minus, zero = shape.sign_multiset()
    lam = []
    for _ in range(plus):
        lam.append(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    for _ in range(minus):
        lam.append(-Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    lam.extend([Fraction(0)] * zero)
    rng.shuffle(lam)
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
            sgn = 1 if shape.u[i - 1].re > 0 else -1
            E[i - 1][i - 1] = GaussRat(sgn * abs(random_rational(rng)) + (1 if sgn > 0 else -1))
        elif tu > i:
            c = GaussRat(abs(random_rational(rng)) + 1)
            E[tu - 1][i - 1] = c * shape.u[i - 1]
            E[i - 1][tu - 1] = c * shape.u[tu - 1]
            E[tu - 1][tu - 1] = GaussRat(random_rational(rng))
    t = _sparse_rows(random_triangular(N, rng))
    # E has at most two nonzeros per row and t is triangular: summing over
    # stored entries only skips about a third of the dense products
    t_star = [{} for _ in range(N)]
    for k, row in enumerate(t):
        for i, x in row.items():
            t_star[i][k] = x.conj()
    z = _sparse_product(t_star, _sparse_product(_sparse_rows(E), t))
    return HermitianMatrix([[row.get(j, GR0) for j in range(N)] for row in z],
                           mode="exact")


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
