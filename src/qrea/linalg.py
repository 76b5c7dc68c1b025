"""Small exact linear algebra over the package's exact scalars: LaurentPoly
(Laurent polynomials in q over Z, the quantum side), RatFunc (rational
functions of q) and GaussRat (Gaussian rationals, the classical side).

add_term is the one helper for sparse linear combinations: every sparse
vector, polynomial or tensor is a dict key -> nonzero scalar, built up by
add_term, which drops a key whose coefficient cancels.  It needs only + and
is_zero() of the scalar.  qmatrix.sum_terms, the one sum of noncommutative
polynomials, builds on it.

echelon is the one dense elimination, forward only: determinant, and the
ranks of the classical tangency check, read its pivots, and invert_matrix
is the adjugate over determinant.  It needs only + - *, inv() and
is_zero() of the scalar, so RatFunc and GaussRat go through it.
sparse_row_reduce is the sparse elimination of the quantum side, over
LaurentPoly, whose inv() exists only for the units +-q^k (coeff.NotAUnit
otherwise): it divides a pivot by a unit leading coefficient and keeps any
other pivot as it is, reducing against it fraction-free.
"""

from __future__ import annotations

from .coeff import NotAUnit


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
    """Forward elimination of a dense matrix given as a list of rows.

    Each column takes as pivot its first nonzero entry at or below the
    current row; the rows below it are updated only where the pivot row is
    nonzero, and the elimination stops once every row holds a pivot.
    Returns (m, pivots, swaps): m is a row echelon form of the matrix, with
    the pivots left as they are and the zero rows last; pivots holds
    (column, value) per pivot row, the columns being the lex-first
    independent ones; swaps counts the row exchanges.
    """
    m = [list(r) for r in rows]
    pivots = []
    swaps = 0
    width = len(m[0]) if m else 0
    for col in range(width):
        top = len(pivots)
        if top == len(m):
            break
        piv = next((r for r in range(top, len(m)) if not m[r][col].is_zero()),
                   None)
        if piv is None:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            swaps += 1
        prow = m[top]
        p = prow[col]
        ip = p.inv()
        zero = p - p
        tail = [(j, prow[j]) for j in range(col + 1, width)
                if not prow[j].is_zero()]
        for row in m[top + 1:]:
            f = row[col]
            if not f.is_zero():
                f = f * ip
                row[col] = zero
                for j, pe in tail:
                    row[j] = row[j] - f * pe
        pivots.append((col, p))
    return m, pivots, swaps


def determinant(rows):
    """Determinant of a nonempty square matrix: the product of the pivots,
    negated after an odd number of row exchanges."""
    m, pivots, swaps = echelon(rows)
    if len(pivots) < len(m):
        return m[-1][-1]        # an entry of a zero row: the scalar zero
    det = pivots[0][1]
    for _, p in pivots[1:]:
        det = det * p
    return -det if swaps % 2 else det


def invert_matrix(rows):
    """Inverse of a dense square matrix: its adjugate, the signed
    determinants of the (n-1)-minors transposed, over its determinant.
    Raises ValueError when the matrix is singular."""
    n = len(rows)
    det = determinant(rows)
    if det.is_zero():
        raise ValueError("singular matrix")
    dinv = det.inv()
    if n == 1:
        return [[dinv]]
    adj = [[determinant([r[:i] + r[i + 1:] for k, r in enumerate(rows)
                         if k != j]) for j in range(n)] for i in range(n)]
    return [[-a * dinv if (i + j) % 2 else a * dinv for j, a in enumerate(row)]
            for i, row in enumerate(adj)]


def sparse_row_reduce(vectors, greater):
    """Reduce sparse vectors (dict key -> scalar) to echelon pivots.

    greater(a, b) is a strict total order on keys; each returned pivot maps
    its leading key (the greatest in its vector) to its vector, divided by
    the leading coefficient where that has an inverse.  A pivot whose
    leading coefficient a has none (NotAUnit) is kept with a, and a vector
    v with leading coefficient f at its key becomes a v - f pivot, so the
    number of pivots is still the rank over the field of fractions.  Empty
    vectors are accepted and contribute no pivot.
    """
    pivots = {}
    unnormalised = set()

    def leading(v):
        lead = None
        for k in v:
            if lead is None or greater(k, lead):
                lead = k
        return lead

    for vec in vectors:
        v = dict(vec)
        while v:
            lead = leading(v)
            piv = pivots.get(lead)
            if piv is None:
                break
            f = v[lead]
            if lead in unnormalised:
                a = piv[lead]
                v = {k: a * c for k, c in v.items()}
            for k, c in piv.items():
                add_term(v, k, -(f * c))
        if v:
            lead = leading(v)
            try:
                inv_l = v[lead].inv()
            except NotAUnit:
                pivots[lead] = v
                unnormalised.add(lead)
            else:
                pivots[lead] = {k: c * inv_l for k, c in v.items()}
    return pivots

