"""Small exact linear algebra over the package's exact scalars: LaurentPoly
(Laurent polynomials in q over Z, the quantum side), RatFunc (rational
functions of q) and GaussRat (Gaussian rationals, the classical side).

add_term is the one helper for sparse linear combinations: every sparse
vector, polynomial or tensor is a dict key -> nonzero scalar, built up by
add_term, which drops a key whose coefficient cancels.  It needs only + and
is_zero() of the scalar.  qmatrix.sum_terms, the one sum of noncommutative
polynomials, builds on it.

gauss_jordan is the one dense elimination; rank, determinant and
invert_matrix read their results off it.  It needs only + - *, inv() and
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


def gauss_jordan(rows):
    """Gauss-Jordan elimination of a dense matrix given as a list of rows.

    Each column takes as pivot its first nonzero entry at or below the
    current row.  Returns (m, pivots, swaps): m is the reduced row echelon
    form, each pivot 1 and alone in its column, with the zero rows last;
    pivots holds (column, value) per pivot row, the value being the entry
    before its row was divided by it; swaps counts the row exchanges.
    """
    m = [list(r) for r in rows]
    pivots = []
    swaps = 0
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if not m[r][col].is_zero()),
                   None)
        if piv is None:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            swaps += 1
        p = m[top][col]
        ip = p.inv()
        # left of col the pivot row is zero, and stays so in every row
        prow = m[top][col:] = [e * ip for e in m[top][col:]]
        for r, row in enumerate(m):
            f = row[col]
            if r != top and not f.is_zero():
                row[col:] = [e - f * pe for e, pe in zip(row[col:], prow)]
        pivots.append((col, p))
    return m, pivots, swaps


def rank(rows):
    return len(gauss_jordan(rows)[1])


def determinant(rows):
    """Determinant of a nonempty square matrix: the product of the pivots,
    negated after an odd number of row exchanges."""
    m, pivots, swaps = gauss_jordan(rows)
    if len(pivots) < len(m):
        return m[-1][-1]        # an entry of a zero row: the scalar zero
    det = pivots[0][1]
    for _, p in pivots[1:]:
        det = det * p
    return -det if swaps % 2 else det


def invert_matrix(rows):
    """Inverse of a dense square matrix: gauss_jordan of (rows | identity).
    Raises ValueError when the matrix is singular."""
    n = len(rows)
    x = next((e for r in rows for e in r if not e.is_zero()), None)
    if x is None:
        raise ValueError("singular matrix: zero")
    # one and zero of the scalar field, taken from the matrix itself
    one, zero = x * x.inv(), x - x
    m, pivots, _ = gauss_jordan([list(r) + [one if i == j else zero
                                            for j in range(n)]
                                 for i, r in enumerate(rows)])
    if [c for c, _ in pivots] != list(range(n)):
        rank = sum(c < n for c, _ in pivots)
        raise ValueError(f"singular matrix: rank {rank} < {n}")
    return [r[n:] for r in m]


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

