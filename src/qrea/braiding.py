"""Braid operator on C^N (x) C^N and its lifts to q-wedge powers.

The operator sends e_a (x) e_b to q^{-delta_ab} e_b (x) e_a plus, when b < a,
(q^{-1} - q) e_a (x) e_b; braid_pair_action is that move and its inverse.
Its symmetry, the braid relation and the quadratic Hecke identity are
verified on basis words (symmetry_check, braid_relation_check, hecke_check),
never assumed, and the move generates every commutation coefficient used
downstream.

Every coefficient table comes from one sparse two-site kernel,
apply_two_site, which applies a table (a, b) -> [((x, y), c)] at two
positions of every word of a tensor dictionary.  The braid moves are that
kernel with the R-hat table at adjacent positions.  The bicharacter r of
qmatrix and its two convolution inverses are the same kernel with generator
tables read off braid_pair_action: r off the move, r^{-1} off the inverse
move, and r' off the inverse move twisted by a power of q.

Wedge powers are handled through the pair iota/rho: iota (embed_basis)
sends e_I to the q-antisymmetric sum of (-q)^inversions e_w over the
arrangements w of I, rho (wedge_sign on one word) projects a tensor word
onto the sorted wedge basis with a (-q)^inversions sign, and rho o iota is
the q-factorial [k]_{q^2}! times the identity on the k-th wedge power, which
the tests check against their own [k]_{q^2}!.  Every coefficient is a
Laurent polynomial over Z.  Wedge vectors are plain dicts over sorted index
tuples, and pairs of them are projected by project_pair, rho (x) rho.  The
braiding between wedge powers braids the sorted word e_I (x) e_J by a fixed
reduced product of braid moves and projects it back.  No iota-embedding is
needed: rho o R_i = (-q) rho, so (rho (x) rho) B (iota (x) iota) is that
braiding times [k]_{q^2}! [l]_{q^2}!.  iota is kept as the oracle that
embed-equivariance and the tests check against.
"""

from __future__ import annotations

from itertools import permutations, product

from .coeff import (LP_ONE, LP_Q, LP_QDIFF, LP_QINV, LP_ZERO, LaurentPoly,
                    lp_q_int)
from .indexsets import dominated, inversions, merge, rest, select, subsets
from .linalg import add_term, first_difference
from .memo import Memo


class DegreeOutOfRange(ValueError):
    pass


# ---------------------------------------------------------------------------
# Elementary braid action on tensor words
# ---------------------------------------------------------------------------

# q - q^{-1}, weight of the extra diagonal term of the inverse
_LP_QDIFF_NEG = -LP_QDIFF


def braid_pair_action(a, b, inverse=False):
    """Image of e_a (x) e_b as a list of ((c, d), coeff)."""
    if a == b:
        return [((a, a), LP_Q if inverse else LP_QINV)]
    out = [((b, a), LP_ONE)]
    if inverse:
        if b > a:
            out.append(((a, b), _LP_QDIFF_NEG))
    else:
        if b < a:
            out.append(((a, b), LP_QDIFF))
    return out


def rhat_entries(N):
    """R-hat on C^N (x) C^N as a sparse matrix {((x, y), (a, b)): coeff}."""
    return {((x, y), (a, b)): c
            for a in range(1, N + 1) for b in range(1, N + 1)
            for (x, y), c in braid_pair_action(a, b)}


# The braid_pair_action tables, filled per letter pair on first use so that
# they serve words over any alphabet
_RHAT_TABLES = {inverse: Memo(lambda ab, inverse=inverse:
                              braid_pair_action(ab[0], ab[1], inverse))
                for inverse in (False, True)}


def apply_two_site(tensor, i, j, table):
    """Apply a two-site table (a, b) -> [((x, y), c)] at 0-based positions
    (i, j), i < j, of every word of a tensor dictionary."""
    out = {}
    for word, c in tensor.items():
        for (x, y), f in table[word[i], word[j]]:
            add_term(out, word[:i] + (x,) + word[i + 1:j] + (y,) + word[j + 1:],
                     c * f)
    return out


def apply_elementary(tensor, pos, inverse=False):
    """Apply the braid move at 0-based position (pos, pos+1) of every word."""
    return apply_two_site(tensor, pos, pos + 1, _RHAT_TABLES[inverse])


def block_positions(k, l):
    """Reduced word carrying the first k tensor factors past the last l.

    1-based elementary positions, applied left to right: factor k first.
    """
    pos = []
    for f in range(k, 0, -1):
        pos.extend(range(f, f + l))
    return pos


def apply_block_lift(tensor, k, l, inverse=False):
    """Block braiding V^k (x) V^l -> V^l (x) V^k on tensor dictionaries.

    With inverse=True this is the inverse map V^l (x) V^k -> V^k (x) V^l
    of the (k, l) block braiding.
    """
    seq = block_positions(k, l)
    if inverse:
        seq = list(reversed(seq))
    for p in seq:
        tensor = apply_elementary(tensor, p - 1, inverse=inverse)
    return tensor


# ---------------------------------------------------------------------------
# The braid, Hecke and symmetry identities, checked on basis words
# ---------------------------------------------------------------------------

def braid_relation_check(N):
    """R12 R23 R12 == R23 R12 R23 on every basis word of length three.

    Returns the first word on which the two sides differ, or None."""
    for word in product(range(1, N + 1), repeat=3):
        t = {word: LP_ONE}
        lhs = apply_elementary(apply_elementary(apply_elementary(t, 0), 1), 0)
        rhs = apply_elementary(apply_elementary(apply_elementary(t, 1), 0), 1)
        if lhs != rhs:
            return word
    return None


def hecke_check(N):
    """R R t == t + (q^{-1} - q) R t, that is (R - q^{-1})(R + q) == 0, on
    every basis word t of length two.

    Returns the first word on which the two sides differ, or None."""
    for word in product(range(1, N + 1), repeat=2):
        t = {word: LP_ONE}
        once = apply_elementary(t, 0)
        rhs = dict(t)
        for w, c in once.items():
            add_term(rhs, w, c * LP_QDIFF)
        if apply_elementary(once, 0) != rhs:
            return word
    return None


def symmetry_check(N):
    """R-hat equals its transpose.  Returns the first entry (row, column)
    whose transposed entry differs, or None."""
    entries = rhat_entries(N)
    for (row, col), c in entries.items():
        if entries.get((col, row)) != c:
            return row, col
    return None


# ---------------------------------------------------------------------------
# q-wedge algebra
# ---------------------------------------------------------------------------

def wedge_sign(word):
    """(coeff, sorted tuple) of a wedge word, or None when an index repeats."""
    if len(set(word)) != len(word):
        return None
    return lp_q_int(inversions(word)), tuple(sorted(word))


def embed_basis(key):
    """iota on one sorted basis element, as a tensor dict: the sum of
    (-q)^{inv(w)} e_w over the arrangements w of key."""
    return {perm: lp_q_int(inversions(perm)) for perm in permutations(key)}


# -- pairs of wedge factors ---------------------------------------------------

def project_pair(tensor, first_len):
    """rho (x) rho, splitting each word after first_len letters."""
    out = {}
    for word, c in tensor.items():
        sa = wedge_sign(word[:first_len])
        if sa is None:
            continue
        sb = wedge_sign(word[first_len:])
        if sb is None:
            continue
        ca, ka = sa
        cb, kb = sb
        add_term(out, (ka, kb), c * ca * cb)
    return out


def braid_wedge_pair(pair_vec, k, l, inverse=False):
    """Braiding wedge^k (x) wedge^l -> wedge^l (x) wedge^k on pair vectors.

    inverse=True computes the inverse map wedge^l (x) wedge^k -> ...; the
    input pair vector is then expected to have degrees (l, k).  Keys are
    pairs of sorted index tuples; each is braided as the single word
    e_I (x) e_J.  Since rho o R_i = (-q) rho, (rho (x) rho) B (iota (x) iota)
    is this map times [k]_{q^2}! [l]_{q^2}!.
    """
    first = l if inverse else k
    t = {ka + kb: c for (ka, kb), c in pair_vec.items()}
    t = apply_block_lift(t, k, l, inverse=inverse)
    return project_pair(t, k + l - first)


def embed_equivariance_check(N, k):
    """Every elementary braid move fixes iota-images up to the factor -q.

    Returns None, or the first failing sorted word (key) and move position,
    with the first word at which the move and -q disagree."""
    minus_q = lp_q_int(1)
    for key in subsets(N, k):
        t = embed_basis(key)
        for p in range(k - 1):
            lifted = apply_elementary(t, p)
            expected = {w: c * minus_q for w, c in t.items()}
            if lifted != expected:
                return {"k": k, "key": key, "position": p,
                        **first_difference(lifted, expected)}
    return None


# ---------------------------------------------------------------------------
# Wedge braiding coefficient tables
# ---------------------------------------------------------------------------

class WedgeBraidTable:
    """Coefficients of the wedge braiding and of its inverse.

    entry(I, J, Ip, Jp) is the coefficient of e_Ip (x) e_J in the image of
    e_I (x) e_Jp under the (k, l) braiding; inv_entry(I, J, Ip, Jp) is the
    coefficient of e_J (x) e_Ip in the image of e_Jp (x) e_I under the
    inverse.  I, J run over k-subsets and Ip, Jp over l-subsets.

    Most label quadruples hold zero, so a sweep that fixes some labels reads
    `slice(inverse, fixed)`: the nonzero entries grouped by their labels at
    the positions `fixed`, each group a sorted list, built once per table.
    """

    def __init__(self, N, k, l):
        if not (0 <= k <= N and 0 <= l <= N):
            raise DegreeOutOfRange(f"degrees ({k}, {l}) outside 0..{N}")
        self.N = N
        self.k = k
        self.l = l
        self.entries = {}
        self.inv_entries = {}
        self._slices = Memo(self._slice)
        ksets, lsets = subsets(N, k), subsets(N, l)
        for I in ksets:
            for Jp in lsets:
                image = braid_wedge_pair({(I, Jp): LP_ONE}, k, l)
                for (Ip, J), c in image.items():
                    self.entries[(I, J, Ip, Jp)] = c
                image = braid_wedge_pair({(Jp, I): LP_ONE}, k, l, inverse=True)
                for (J, Ip), c in image.items():
                    self.inv_entries[(I, J, Ip, Jp)] = c

    def entry(self, I, J, Ip, Jp):
        return self.entries.get((I, J, Ip, Jp), LP_ZERO)

    def inv_entry(self, I, J, Ip, Jp):
        return self.inv_entries.get((I, J, Ip, Jp), LP_ZERO)

    def slice(self, inverse, fixed):
        """The nonzero entries (inv_entries when `inverse`), grouped by their
        labels at the positions `fixed` (0-3, in the order I, J, Ip, Jp):
        {fixed labels: [(other labels, value)]}, each list sorted by its
        labels, so that a loop over it visits the keys in the order of the
        nested subset loops it replaces.  Built once per (inverse, fixed);
        callers only read it."""
        return self._slices[inverse, tuple(fixed)]

    def _slice(self, key):
        inverse, fixed = key
        free = [p for p in range(4) if p not in fixed]
        out = {}
        table = self.inv_entries if inverse else self.entries
        for labels in sorted(table):
            out.setdefault(tuple(labels[p] for p in fixed), []).append(
                (tuple(labels[p] for p in free), table[labels]))
        return out

    # -- structural checks ---------------------------------------------------

    def support_condition_violations(self, table):
        """Keys of `table`, the entries or inverse entries, with nonzero
        value violating the dominance/difference support.

        The support rule: the value at (I, J, Ip, Jp) vanishes unless
        J <= I and Jp <= Ip componentwise, J \\ I = Jp \\ Ip and
        I \\ J = Ip \\ Jp.
        """
        bad = []
        for (I, J, Ip, Jp), c in table.items():
            if c.is_zero():
                continue
            ok = (dominated(J, I) and dominated(Jp, Ip)
                  and set(J) - set(I) == set(Jp) - set(Ip)
                  and set(I) - set(J) == set(Ip) - set(Jp))
            if not ok:
                bad.append((I, J, Ip, Jp))
        return bad

    def diagonal_report(self):
        """Check entry(I,I,Ip,Ip) = q^-|I n Ip| and the inverse analogue:
        each failing diagonal entry, with its value and the expected one."""
        bad = []
        for I in subsets(self.N, self.k):
            for Ip in subsets(self.N, self.l):
                m = len(set(I) & set(Ip))
                for kind, got, expected in (
                        ("direct", self.entry(I, I, Ip, Ip),
                         LaurentPoly.q_power(-m)),
                        ("inverse", self.inv_entry(I, I, Ip, Ip),
                         LaurentPoly.q_power(m))):
                    if got != expected:
                        bad.append({"diagonal": kind, "I": I, "I'": Ip,
                                    "got": got.to_json(),
                                    "expected": expected.to_json()})
        return bad

    def composition_identity_check(self):
        """Inverse braiding composed with the braiding, as the table holds
        it, is the identity.  Returns None, or the first (I, J') whose
        round trip is not e_I (x) e_J', with the first entry at which it
        differs."""
        by_i_jp = self.slice(False, (0, 3))
        ksets, lsets = subsets(self.N, self.k), subsets(self.N, self.l)
        for I in ksets:
            for Jp in lsets:
                image = {(Ip, J): c for (J, Ip), c in by_i_jp.get((I, Jp), ())}
                back = braid_wedge_pair(image, self.k, self.l, inverse=True)
                if len(back) != 1 or back.get((I, Jp)) != LP_ONE:
                    return {"I": I, "J'": Jp,
                            **first_difference(back, {(I, Jp): LP_ONE})}
        return None

    def to_json(self):
        ent = []
        for (I, J, Ip, Jp) in sorted(self.entries):
            ent.append({"I": list(I), "J": list(J), "I'": list(Ip),
                        "J'": list(Jp),
                        "value": self.entries[(I, J, Ip, Jp)].to_json()})
        return {"N": self.N, "k": self.k, "l": self.l, "entries": ent}


# ---------------------------------------------------------------------------
# Scalar lemma for the inverse braiding on antisymmetrised pairs
# ---------------------------------------------------------------------------

def _antisym_pair_vector(S, T, l):
    """sum_P (-q)^{wt P} e_{S u T_P} (x) e_{S u T^P} over P in C([|T|], l)."""
    vec = {}
    for P in subsets(len(T), l):
        add_term(vec, (merge(S, select(T, P)), merge(S, rest(T, P))),
                 lp_q_int(sum(P)))
    return vec


def rmatrix_lemma_check(I, Ip):
    """Verify the closed-form scalar for the inverse braiding on xi.

    For subsets I, Ip of [N], builds the antisymmetrised pair vector xi,
    applies the inverse wedge braiding, and compares exactly with
    q^{|I n Ip|} (-q)^{l(l+1)/2 - l'(l'+1)/2 - l l'} xi'.
    Returns a report dict with a boolean "ok" and, when it is false, the
    two sides' first difference (linalg.first_difference) as "mismatch".
    """
    I = tuple(sorted(I))
    Ip = tuple(sorted(Ip))
    S = tuple(sorted(set(I) & set(Ip)))
    T = tuple(sorted(set(I) ^ set(Ip)))
    l = len([x for x in I if x not in Ip])
    lp = len([x for x in Ip if x not in I])
    xi = _antisym_pair_vector(S, T, l)
    xi_p = _antisym_pair_vector(S, T, lp)
    scalar = LaurentPoly.q_power(len(S)) * lp_q_int(
        l * (l + 1) // 2 - lp * (lp + 1) // 2 - l * lp)
    expected = {key: c * scalar for key, c in xi_p.items()}
    # inverse braiding wedge^{|I|} (x) wedge^{|Ip|} -> wedge^{|Ip|} (x) wedge^{|I|}
    got = braid_wedge_pair(xi, len(Ip), len(I), inverse=True)
    ok = got == expected
    return {"I": list(I), "Ip": list(Ip), "ok": ok,
            "scalar": scalar.to_json(),
            "mismatch": None if ok else first_difference(got, expected)}
