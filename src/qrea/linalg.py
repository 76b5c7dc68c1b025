"""Small exact linear algebra: sparse combinations of the package's exact
scalars (LaurentPoly, Laurent polynomials in q over Z, on the quantum side,
RatFunc and GaussRat) and dense elimination over the integers.

add_term is the one helper for sparse linear combinations: every sparse
vector, polynomial or tensor is a dict key -> nonzero scalar, built up by
add_term, which drops a key whose coefficient cancels.  It needs only + and
is_zero() of the scalar.  qmatrix.sum_terms, the one sum of noncommutative
polynomials, builds on it.

echelon is the one dense elimination, forward only and fraction-free over
Z (Bareiss, Math. Comp. 22, 1968, with primitive rows in place of division
by the previous pivot): the classical tangency ranks read its pivot columns,
determinant is its by-product and invert_matrix the adjugate over it.
sparse_row_reduce is the sparse elimination of the quantum side, over
LaurentPoly: it leads each vector at its greatest key and divides each
pivot by its leading coefficient, so it runs only on spans whose leads are
the units +-q^k (LaurentPoly.inv raises coeff.NotAUnit on any other), as
the relation spans of the quantum matrices and the reflection algebra are.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod


def add_term(out, key, c):
    """out[key] += c on a sparse dict; the key is dropped when the sum is
    zero, so the dict never stores a zero value."""
    s = out.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def first_difference(got, expected):
    """The first key, in sorted order, at which two sparse vectors differ,
    with both values as JSON (an absent key holds zero), or None when they
    are equal.  The witness of every failed sparse-vector identity."""
    for key in sorted(got.keys() | expected.keys()):
        a, b = got.get(key), expected.get(key)
        if a != b:
            a = b - b if a is None else a
            b = a - a if b is None else b
            return {"entry": key, "got": a.to_json(), "expected": b.to_json()}
    return None


def echelon(rows):
    """Fraction-free forward elimination of a dense integer matrix, a list
    of rows.  Each column takes as pivot its first nonzero entry p at or
    below the current row; each row below with an entry f != 0 there becomes
    p * row - f * (pivot row) divided by the gcd of its entries, so no entry
    leaves Z, and the elimination stops once every row holds a pivot.
    Returns (m, pivots, det): m is a row echelon form of the matrix with the
    zero rows last, pivots lists the pivot columns, the lex-first
    independent ones, and det is the determinant of a square matrix (None
    for any other): the product of the pivots over the factors p / gcd of
    the row operations, negated after an odd number of row exchanges.
    """
    m = [list(r) for r in rows]
    height, width = len(m), len(m[0]) if m else 0
    square = height == width
    pivots, scaled, divided = [], 1, 1  # det(m) = det(rows) * scaled / divided
    for col in range(width):
        top = len(pivots)
        if top == height:
            break
        for piv in range(top, height):
            if m[piv][col]:
                break
        else:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            scaled = -scaled
        prow, p = m[top], m[top][col]
        for i in range(top + 1, height):
            f = m[i][col]
            if f:
                new = [p * e - f * pe for e, pe in zip(m[i], prow)]
                g = gcd(*new)
                m[i] = [e // g for e in new] if g > 1 else new
                if square:
                    scaled, divided = scaled * p, divided * max(g, 1)
        pivots.append(col)
    # a singular m ends in a zero row, so its diagonal holds a zero
    return m, pivots, (prod((r[i] for i, r in enumerate(m)), start=divided)
                       // scaled if square else None)


def determinant(rows):
    """Determinant of a square integer matrix, read off echelon."""
    return echelon(rows)[2]


def invert_matrix(rows):
    """Inverse of a dense square integer matrix, as rows of Fractions: its
    adjugate, the signed determinants of the (n-1)-minors transposed, over
    its determinant.  Raises ValueError when the matrix is singular."""
    det = determinant(rows)
    if not det:
        raise ValueError("singular matrix")
    return [[Fraction((-1) ** (i + j) * determinant(
        [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]), det)
        for j in range(len(rows))] for i in range(len(rows))]


def sparse_row_reduce(vectors):
    """Reduce sparse vectors (dict key -> LaurentPoly) to echelon pivots
    with unit leads.

    The lead of a vector is its greatest key, in the keys' own order.  Each
    vector is reduced against the pivots at its successive leads; a
    remainder becomes the pivot at its lead, divided by its leading
    coefficient, so every pivot leads with one and the number of pivots is
    the rank.  A leading coefficient that is not a unit +-q^k raises
    coeff.NotAUnit.  Empty vectors are accepted and contribute no pivot.
    """
    pivots = {}
    for vec in vectors:
        v = dict(vec)
        while v:
            lead = max(v)
            piv = pivots.get(lead)
            if piv is None:
                inv_l = v[lead].inv()
                pivots[lead] = {k: c * inv_l for k, c in v.items()}
                break
            f = v[lead]
            for k, c in piv.items():
                add_term(v, k, -(f * c))
    return pivots
