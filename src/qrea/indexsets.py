"""Index-set calculus.

An index set is a sorted tuple of distinct positive integers, a subset of
[N] = {1, ..., N}.  Sets of one size carry two comparisons: the total
lexicographic order, which is Python's tuple `<`, and the componentwise
dominance order `dominated`.  Both extend to (J, I) pairs with the first
component compared first; tuple `<` on pairs already is that lex order.
Everything downstream (minor labels, braiding supports, shape chains) is
phrased in terms of these functions.

Labels are checked where they enter, so callers pass valid ones: index
sets of one size to `dominated`, positions in 1..len(I) to `select` and
`rest`.
"""

from __future__ import annotations

from itertools import combinations


def subsets(N, k):
    """The k-subsets of 1..N as increasing tuples, in lexicographic order."""
    return list(combinations(range(1, N + 1), k))


def dominated(I, J):
    """I below J in the dominance order: i_p <= j_p for every p; I and J
    have one size."""
    return all(a <= b for a, b in zip(I, J))


def select(I, K):
    """I_K: the elements of I at the 1-based positions K."""
    return tuple([I[p - 1] for p in K])


def rest(I, K):
    """I^K: the elements of I at the positions not in K."""
    return tuple([e for p, e in enumerate(I, start=1) if p not in K])


def merge(A, B):
    """The union of two disjoint index sets."""
    return tuple(sorted(A + B))


def pair_dom_strictly_less(x, y):
    """(J, I) strictly below (J', I') in the dominance pair order."""
    (J, I), (J2, I2) = x, y
    if J != J2:
        return dominated(J, J2)
    return I != I2 and dominated(I, I2)


def inversions(seq):
    """Number of inverted pairs in a sequence of comparable values."""
    return sum(a > b for a, b in combinations(seq, 2))


# -- dominance lemma oracle -------------------------------------------------------

def check_comb_lemma(I, J):
    """Brute-force check of the dominance lemma for one pair (I, J).

    With S = I n J and T = I delta J, every set P of |J \\ I| positions of T
    with S u T_P >=lex J and S u T^P >=lex I must give equality in both.
    The enumeration itself is the oracle.  Returns (witness,
    counterexamples): the P giving equality (None if there is none) and the
    other admissible P; together they are all admissible P.

    S u X and S u Y compare as X and Y do, for X and Y of one size disjoint
    from S: the least element in one and not the other decides both.  So
    each P compares T_P with J \\ I and T^P with I \\ J, and S is merged
    into neither.  The result therefore depends on I and J only through
    I \\ J and J \\ I, which sweep_comb_lemma relies on.
    """
    si, sj = set(I), set(J)
    T = tuple(sorted(si ^ sj))
    J_only, I_only = tuple(sorted(sj - si)), tuple(sorted(si - sj))
    witness, counterexamples = None, []
    for P in subsets(len(T), len(J_only)):
        left = select(T, P)
        if J_only <= left:
            right = rest(T, P)
            if I_only <= right:
                if left == J_only and right == I_only:
                    witness = P
                else:
                    counterexamples.append(P)
    return witness, counterexamples


def sweep_comb_lemma(N):
    """Exhaustive dominance-lemma sweep over all I, J inside [N].

    Returns (pairs_checked, bad), bad listing (I, J, counterexamples) for
    every pair with a counterexample, in the order of the pairs.

    check_comb_lemma reads I and J only through I \\ J and J \\ I, so it
    runs once per distinct pair of differences, keyed by their bitmasks,
    and every pair with that key takes its result: 3^N enumerations in
    place of 4^N, the same answer.
    """
    sets = [I for k in range(N + 1) for I in subsets(N, k)]
    masks = [sum(1 << i for i in I) for I in sets]
    memo = {}
    bad = []
    for I, mI in zip(sets, masks):
        for J, mJ in zip(sets, masks):
            key = (mI & ~mJ, mJ & ~mI)
            counterexamples = memo.get(key)
            if counterexamples is None:
                counterexamples = memo[key] = check_comb_lemma(I, J)[1]
            if counterexamples:
                bad.append((I, J, counterexamples))
    return len(sets) ** 2, bad
