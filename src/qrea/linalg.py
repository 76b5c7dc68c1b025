"""Small exact linear algebra over the rational-function field.

add_term is the one helper for sparse linear combinations: every sparse
vector, polynomial or tensor over RatFunc or GaussRat is a dict key ->
nonzero scalar, built up by add_term, which drops a key whose coefficient
cancels.  It needs only + and is_zero() of the scalar.
"""

from __future__ import annotations

from .coeff import RF_ONE, RF_ZERO


def add_term(out, key, c):
    """out[key] += c on a sparse dict; the key is dropped when the sum is
    zero, so the dict never stores a zero value."""
    s = out.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


class SingularMatrix(ValueError):
    pass


def invert_matrix(rows):
    """Invert a dense square matrix of RatFunc entries (Gauss-Jordan)."""
    n = len(rows)
    aug = [list(r) + [RF_ONE if i == j else RF_ZERO for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not aug[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise SingularMatrix(f"singular at column {col}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = aug[col][col].inv()
        aug[col] = [e * inv_p for e in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                prow = aug[col]
                aug[r] = [e - f * pe for e, pe in zip(aug[r], prow)]
    return [r[n:] for r in aug]


def sparse_row_reduce(vectors, greater):
    """Reduce sparse vectors (dict key->RatFunc) to echelon pivots.

    greater(a, b) is a strict total order on keys; each returned pivot maps
    its leading key (the greatest in its vector) to a vector normalised to
    leading coefficient one.  Empty vectors are accepted and contribute no
    pivot.
    """
    pivots = {}

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
            for k, c in piv.items():
                add_term(v, k, -(f * c))
        if v:
            lead = leading(v)
            inv_l = v[lead].inv()
            pivots[lead] = {k: c * inv_l for k, c in v.items()}
    return pivots

