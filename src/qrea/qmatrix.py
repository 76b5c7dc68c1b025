"""The quantum matrix algebra: relations, normal forms, minors, functionals.

Everything is derived mechanically from the braid operator so that the
deformation convention is single-sourced: the quadratic relations come from
row-reducing the N^4 scalar equations of the exchange relation, the
straightening rules re-orient each pivot at its greatest word, and normal
forms are sorted words in the row-major generator order.  One derivation,
`derive_rewrite_system`, gives the rules of both algebras: of this one
from the exchange relations, of the reflection algebra from the reflection
equation; it checks their count, one rule per descending generator pair.

Quantum minors are the matrix coefficients of the wedge coaction.  The
bicharacter functional and its two convolution inverses are matrix
coefficients of ordered products of a two-site generator table, computed by
the braiding module's two-site kernel.  Both generator tables are read off
the braid move: r off R-hat and r^{-1} off the inverse move.  r' is r^{-1}
twisted by q^{2(a-x)} on each generator X_xa of the left word, the crossing
relation of the GL(N) R-matrix (Faddeev, Reshetikhin and Takhtajan,
"Quantization of Lie groups and Lie algebras", 1990).  Nothing is solved:
the convolution certificates, which re-substitute both inverses into their
defining identities, are the one oracle of the closed forms.  At bidegree
(s, t) the functional r is the matrix whose column m+n is the image of
e_{m+n} (rows i+k), and r^{-1} likewise, so a certificate is the sparse
product R * R^{-1} = 1 of column images, and for r' a partial transpose of
it; no word pair is evaluated.

On pairs of minors, r and its plain inverse are entries of the wedge braiding
table; the `minor-table-crosscheck` certificate shows that both equal the
word-level functionals on the two minor polynomials.  It reads those off
column images too: the words of the minors Delta(A, B) and Delta(C, D) have
the columns B and D, so every word pair of the two is an entry of the one
image at B + D (`QContext.functional_on_minors`).  r' on minors reads
the inverse table too.  Every word of the minor Delta(A, B) has columns B
and, as rows, an arrangement of A, so the twist of r' over r^{-1} is the
constant q^{2(sum B - sum A)} on its words, and
r'(Delta(A, B), Delta(C, D)) = rpr_twist(B, A) inv_entry(B, A, C, D).  The
twisted product reads r' at word level (`star_word`, which reads r by rows:
`Bicharacter.coimage`) and at minor level (`star_minor`, off the inverse
table); the word-level convolution certificates of r' cover r' itself.
Every identity family (Laplace, the common-submatrix expansion, braided
commutativity) is verified by exact normal-form equality of its two sides,
`identity_sides`.  FAMILIES is the one table of the identity families of
both algebras, here and in the reflection algebra: their sub-families,
sweeps and instance keys.  `identity_certificate` certifies an instance of
either algebra, and a failing one names the first term at which its two
sides differ (`word_difference`).  The sweeps over wedge-table
labels visit only nonzero entries, through the table's slices; the label
arithmetic of a Laplace or Muir instance is a position pattern, built once
per sizes and positions and read at I and J on every call.  Normal forms
of words are memoised per word suffix; a product of two minors inserts the
words of the left one into the memoised normal form of the right one.

`sum_terms` is the one polynomial sum: every linear combination of NCPolys,
here and in the reflection algebra, adds into one dict with
`linalg.add_term`.  An NCPoly has a product but no + or -.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .braiding import (WedgeBraidTable, apply_two_site, braid_pair_action,
                       embed_basis, rhat_entries)
from .coeff import LP_ONE, LP_ZERO, LaurentPoly, lp_q_int, share_values
from .indexsets import merge, rest, select, subsets
from .linalg import add_term, first_difference, sparse_row_reduce
from .memo import Memo


class NonOrientable(Exception):
    """A derived relation has a sorted leading word, or the relations have
    the wrong rank: the order convention cannot orient them into the
    algebra's rules (a lead that is no unit raises coeff.NotAUnit)."""


class IllFormedInstance(ValueError):
    pass


# ---------------------------------------------------------------------------
# Words over the generator alphabet
# ---------------------------------------------------------------------------
# Generator (i, j), 1-based, is encoded as (i-1)*N + (j-1); row-major order.

def gen_id(i, j, N):
    return (i - 1) * N + (j - 1)


def word_rows(word, N):
    return tuple(g // N + 1 for g in word)


def word_cols(word, N):
    return tuple(g % N + 1 for g in word)


def word_from_rc(rows, cols, N):
    return tuple((r - 1) * N + (c - 1) for r, c in zip(rows, cols))


def word_str(word, N):
    return "*".join(f"X{g // N + 1}{g % N + 1}" for g in word) if word else "1"


def word_difference(got, expected, N):
    """linalg.first_difference of two unequal word-keyed dicts, its word
    written by word_str: the witness of a failed normal-form identity."""
    miss = first_difference(got, expected)
    return {**miss, "entry": word_str(miss["entry"], N)}


class NCPoly:
    """Noncommutative polynomial: coefficient map from words to LaurentPoly."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N, coeffs=None):
        self.N = N
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                if not c.is_zero():
                    self.coeffs[tuple(w)] = c

    @staticmethod
    def unit(N):
        return NCPoly(N, {(): LP_ONE})

    @staticmethod
    def generator(N, i, j):
        return NCPoly(N, {(gen_id(i, j, N),): LP_ONE})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, NCPoly) and self.N == other.N
                and self.coeffs == other.coeffs)

    def __mul__(self, other):
        p = NCPoly(self.N)
        out = {}
        for wa, ca in self.coeffs.items():
            for wb, cb in other.coeffs.items():
                add_term(out, wa + wb, ca * cb)
        p.coeffs = out
        return p

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"({c!r})*{word_str(w, self.N)}"
                 for w, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Relation derivation and rewriting
# ---------------------------------------------------------------------------

def exchange_relations(N):
    """The N^4 scalar consequences of the braid exchange relation, as sparse
    degree-2 word vectors over the X alphabet.

    Returns exactly N^4 vectors, one per slot ((k, l), (i, j)) in slot order
    k, l, i, j.  The N^2 slots with k == l and i == j are identically zero
    (R-hat scales every e_a (x) e_a by the same scalar, so both sides agree)
    and come back as empty dicts."""
    rhat = rhat_entries(N)
    vectors = []
    for k in range(1, N + 1):
        for l in range(1, N + 1):
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    v = {}
                    for ((x, y), (a, b)), c in rhat.items():
                        if (x, y) == (k, l):
                            add_term(v, (gen_id(a, i, N), gen_id(b, j, N)), c)
                        if (a, b) == (i, j):
                            add_term(v, (gen_id(k, x, N), gen_id(l, y, N)), -c)
                    vectors.append(v)
    return vectors


class RewriteSystem:
    """Oriented quadratic straightening rules with memoised insertion.

    The normal form of a word w times a normal form `right` (1 when there
    is none) is the insertion of w's first letter into the normal form of
    w[1:] * right, so normal forms are built from suffix states: a word
    shares the work of every word that ends like it.  The caller says
    where the states live.  With no right factor they live in `_nf_memo`,
    for the life of the system; only proper suffixes are kept, not the
    words asked for, which rarely recur (at N=4 keeping them would add a
    third to the peak memory of the quantum suites).  With a right factor
    they live in a dict of that one call, so the words of a minor product
    (`QContext.minor_prod_nf`) share their suffixes within the product and
    leave nothing behind.  Memoised values are shared; callers only read
    them, and their coefficients are the coefficient table's objects
    (`coeff.share_values`).  The insertion of g before a sorted word that
    starts at g or later is the one word g + mono, rebuilt on each call
    and not memoised."""

    def __init__(self, N, rules):
        self.N = N
        # (g1, g2) with g1 > g2 -> dict word -> LaurentPoly
        self.rules = rules
        self._insert_memo = Memo(self._insertion)
        self._nf_memo = {}

    # -- normal forms ---------------------------------------------------------

    def _insert(self, g, mono):
        """Normal form of g * (sorted word mono) as dict sorted-word -> coeff."""
        if not mono or g <= mono[0]:
            return {(g,) + mono: LP_ONE}
        return self._insert_memo[g, mono]

    def _insertion(self, key):
        g, mono = key
        rest = mono[1:]
        acc = {}
        for (a, b), c in self.rules[(g, mono[0])].items():
            for m2, c2 in self._insert(b, rest).items():
                cc = c * c2
                for m3, c3 in self._insert(a, m2).items():
                    add_term(acc, m3, cc * c3)
        return share_values(acc)

    def nf_word(self, word):
        """Normal form of a word as dict sorted-word -> LaurentPoly."""
        return self._nf(tuple(word), None, self._nf_memo, keep=False)

    def _nf(self, word, right, states, keep=True):
        """The normal form of word * right, `right` a normal form's dict or
        None for 1: _insert(word[0], .) over the normal form of word[1:] *
        right, read from `states` and stored there when `keep`."""
        if right is None:
            if len(word) <= 1:
                return {word: LP_ONE}
        elif not word:
            return right
        hit = states.get(word)
        if hit is None:
            g = word[0]
            insert = self._insert
            hit = {}
            for mono, c in self._nf(word[1:], right, states).items():
                for m2, c2 in insert(g, mono).items():
                    add_term(hit, m2, c * c2)
            if keep:
                states[word] = share_values(hit) if right is None else hit
        return hit

    def normal_form(self, p, right=None):
        """The normal form of p * right, `right` an NCPoly in normal form
        (1 when None).  Without it a sorted word of p is its own normal
        form and the suffix states are `_nf_memo`; with it they are a
        fresh dict, dropped on return."""
        out = {}
        if right is None:
            tail, states = None, self._nf_memo
        else:
            tail, states = right.coeffs, {}
        nf = self._nf
        for w, c in p.coeffs.items():
            if tail is None and all(w[i] <= w[i + 1]
                                    for i in range(len(w) - 1)):
                add_term(out, w, c)
                continue
            for m, c2 in nf(w, tail, states, keep=False).items():
                add_term(out, m, c * c2)
        q = NCPoly(p.N)
        q.coeffs = out
        return q

    # -- confluence -------------------------------------------------------------

    def critical_pair_failure(self):
        """Resolve every overlap g1 g2 g3 (g1 > g2 > g3) both ways.

        Returns the first overlap g1 g2 g3, in generator order and written
        by word_str, whose two resolutions differ, with the first word at
        which they do and both of its coefficients; None when every overlap
        resolves."""
        gens = sorted({g for (g, _) in self.rules} | {h for (_, h) in self.rules})
        for g1 in gens:
            for g2 in gens:
                if g2 >= g1 or (g1, g2) not in self.rules:
                    continue
                for g3 in gens:
                    if g3 >= g2 or (g2, g3) not in self.rules:
                        continue
                    left = {}
                    for (a, b), c in self.rules[(g1, g2)].items():
                        for m, c2 in self.nf_word((a, b, g3)).items():
                            add_term(left, m, c * c2)
                    right = {}
                    for (a, b), c in self.rules[(g2, g3)].items():
                        for m, c2 in self.nf_word((g1, a, b)).items():
                            add_term(right, m, c * c2)
                    if left != right:
                        return {"overlap": word_str((g1, g2, g3), self.N),
                                **word_difference(left, right, self.N)}
        return None


def derive_rewrite_system(N, relation_vectors):
    """Row-reduce relation vectors and orient each pivot, which leads with
    one, at its lead word: the straightening rules of either algebra.
    Raises NonOrientable unless there is one rule per descending pair."""
    pivots = sparse_row_reduce(relation_vectors)
    rules = {}
    for lead, vec in pivots.items():
        if len(lead) != 2 or lead[0] <= lead[1]:
            raise NonOrientable(f"sorted leading word {lead}")
        rhs = {w: -c for w, c in vec.items() if w != lead}
        rules[lead] = rhs
    expected = N * N * (N * N - 1) // 2
    if len(rules) != expected:
        raise NonOrientable(
            f"{len(rules)} rules, expected {expected}: relation rank is off")
    return RewriteSystem(N, rules)


def degree_dimension(N, rw, d):
    """Dimension of the degree-d component, by rank of the relation span.

    Independent of the rewriting engine: spans u * rel * v over all
    positions and takes a sparse rank, which raises coeff.NotAUnit if the
    span needs a pivot that is no unit.
    """
    gens = range(N * N)
    vectors = []
    for lead, rhs in rw.rules.items():
        rel = {lead: LP_ONE}
        for w, c in rhs.items():
            add_term(rel, w, -c)
        for pre_len in range(d - 1):
            for u in product(gens, repeat=pre_len):
                for v in product(gens, repeat=d - 2 - pre_len):
                    vectors.append({u + w + v: c for w, c in rel.items()})
    rank = len(sparse_row_reduce(vectors))
    return len(gens) ** d - rank


# ---------------------------------------------------------------------------
# Bialgebra structure
# ---------------------------------------------------------------------------

def coproduct_word(word, N):
    """Delta of a word: list of (left word, right word) pairs, coefficient 1."""
    rows = word_rows(word, N)
    cols = word_cols(word, N)
    out = []
    for mid in product(range(1, N + 1), repeat=len(word)):
        out.append((word_from_rc(rows, mid, N), word_from_rc(mid, cols, N)))
    return out


def coproduct(p):
    """Delta on an NCPoly, as a dict (word, word) -> LaurentPoly."""
    out = {}
    for w, c in p.coeffs.items():
        for pair in coproduct_word(w, p.N):
            add_term(out, pair, c)
    return out


def counit_word(word, N):
    return all(g // N == g % N for g in word)


def quantum_minor(N, rows, cols):
    """Wedge-coaction coefficient: the minor with the given row and column
    sets, of one size.  It is the q-antisymmetriser embed_basis(rows), the
    sum of (-q)^inv(w) over the arrangements w of the rows, with each w
    read as the word X_{w_1 c_1} X_{w_2 c_2} ... on the columns c; so the
    empty minor is the unit."""
    return NCPoly(N, {word_from_rc(w, cols, N): c
                      for w, c in embed_basis(rows).items()})


# ---------------------------------------------------------------------------
# The bicharacter and its convolution inverses
# ---------------------------------------------------------------------------

class Bicharacter:
    """Functional tables for the braiding bicharacter on monomial pairs.

    The functionals r and r^{-1} are each a two-site generator table T, with
    T[(a, b)] = [((x, y), f(X_xa, X_yb))].  On words u of length s and v of
    length t, f(u, v) is the coefficient at rows(u) + rows(v) of an ordered
    product of T at positions (p, s + q), applied to e_{cols(u) + cols(v)}:

    - r: p = s-1..0 outer, q = 0..t-1 inner, and r(X_xa, X_yb) the
      coefficient of e_y (x) e_x in R-hat(e_a (x) e_b);
    - r_inv: p = 0..s-1 outer, q = t-1..0 inner, and r^{-1}(X_xa, X_yb) the
      coefficient of e_x (x) e_y in R-hat^{-1}(e_b (x) e_a);
    - r_prime: r'(X_xa, X_yb) = q^{2(a-x)} r^{-1}(X_xa, X_yb), in the order
      of r_inv.  Each two-site step moves one letter of u from its column a
      to its row x, so the twists telescope: r'(u, v) = rpr_twist(cols(u),
      rows(u)) r^{-1}(u, v), and r' has no table of its own.

    So at bidegree (s, t) each functional is a matrix with one column per
    column word, `image(which, s, cols)`, sparse: f(u, v) is the entry
    rows(u) + rows(v) of column cols(u) + cols(v).  The convolution
    certificates and the minor-table crosscheck read these columns; `r`
    and `r_inv` read single entries, for the reverse braid, and `r_prime`
    is r' on one word pair, by its definition.

    A row of that matrix is `coimage(which, s, rows)`, {cols: value}: by
    the transposition principle (Buergisser, Clausen and Shokrollahi,
    "Algebraic Complexity Theory", 1997, ch. 13) the transpose of an
    ordered product of two-site steps is the product of the transposed
    steps in the reversed order, so a row costs what a column does.  The
    twisted product reads r by rows.  The transposed tables are built once,
    from the generator tables as they stand at construction.

    The tables are per instance and mutable.  The product images and
    coimages are memoised per (s, word), the values per word pair.
    """

    def __init__(self, N):
        self.N = N
        cols = list(product(range(1, N + 1), repeat=2))
        self._tables = {
            "r": {(a, b): [((y, x), c) for (x, y), c in braid_pair_action(a, b)]
                  for a, b in cols},
            "rinv": {(a, b): braid_pair_action(b, a, inverse=True)
                     for a, b in cols}}
        self._cotables = {}
        for which, table in self._tables.items():
            cotable = self._cotables[which] = {xy: [] for xy in cols}
            for ab, image in table.items():
                for xy, c in image:
                    cotable[xy].append((ab, c))
        # one memo per functional: values per word pair, images and
        # coimages per (s, word)
        self._memo, self._images, self._coimages = (
            {which: Memo(partial(compute, which)) for which in self._tables}
            for compute in (self._evaluate, self._image, self._coimage))

    # -- evaluation by propagation ---------------------------------------------

    @staticmethod
    def _sites(which, s, n):
        """The two-site steps of functional `which` on words of length n
        whose first s letters are the left word, in the order applied."""
        ps, qs = range(s), range(n - s)
        if which == "r":
            return [(p, s + q) for p in reversed(ps) for q in qs]
        return [(p, s + q) for p in ps for q in reversed(qs)]

    def image(self, which, s, cols):
        """The ordered two-site product of functional `which` applied to
        e_cols, the first s letters being the left word: {rows: value}."""
        return self._images[which][s, cols]

    def _image(self, which, key):
        s, cols = key
        table = self._tables[which]
        img = {cols: LP_ONE}
        for i, j in self._sites(which, s, len(cols)):
            img = apply_two_site(img, i, j, table)
        return share_values(img)

    def coimage(self, which, s, rows):
        """Row `rows` of the matrix of `image`: {cols: value}, the entry
        `rows` of every image(which, s, cols) that has one.  The transposed
        steps applied to e_rows in the reversed order."""
        return self._coimages[which][s, rows]

    def _coimage(self, which, key):
        s, rows = key
        cotable = self._cotables[which]
        img = {rows: LP_ONE}
        for i, j in reversed(self._sites(which, s, len(rows))):
            img = apply_two_site(img, i, j, cotable)
        return share_values(img)

    def _value(self, which, wa, wb):
        return self._memo[which][tuple(wa), tuple(wb)]

    def _evaluate(self, which, key):
        wa, wb = key
        N = self.N
        img = self.image(which, len(wa), word_cols(wa + wb, N))
        return img.get(word_rows(wa + wb, N), LP_ZERO)

    def r(self, wa, wb):
        return self._value("r", wa, wb)

    def r_inv(self, wa, wb):
        return self._value("rinv", wa, wb)

    def r_prime(self, wa, wb):
        v = self.r_inv(wa, wb)
        if v.is_zero():
            return v
        return self.rpr_twist(word_cols(wa, self.N), word_rows(wa, self.N)) * v

    @staticmethod
    def rpr_twist(cols, rows):
        """q^{2(sum cols - sum rows)}: the factor r' carries over r^{-1} on a
        left word with these columns and rows."""
        return LaurentPoly.q_power(2 * (sum(cols) - sum(rows)))

    # -- certification -----------------------------------------------------------------

    def certify_bidegree(self, s, t, which):
        """Re-substitute a convolution inverse at bidegree (s, t).

        With a(x, y) the degree-s word of row tuple x and column tuple y,
        and b(x, y) the degree-t one, every sum over the middles (m, n)

        which="rinv": r(a(i,m), b(k,n)) rinv(a(m,j), b(n,l))
        which="rpr" : r(a(i,m), b(n,l)) rpr(a(m,j), b(k,n))

        must equal the counit pairing delta(i,j) delta(k,l).  Each factor is
        an entry of a column image: r(a(x,m), b(y,n)) is entry x+y of
        `image("r", s, m+n)` and rinv(a(m,x), b(n,y)) entry m+n of
        `image("rinv", s, x+y)`.  So each sum is a sparse matrix product of
        column images, taken over their nonzero entries only:

        - rinv: column j+l of R * R^{-1} is the sum of v * image("r", s, m+n)
          over the entries (m+n, v) of image("rinv", s, j+l), and must be
          e_{j+l};
        - rpr: a partial transpose.  For each j, every entry (m+k, v) of
          image("rinv", s, j+n), twisted by rpr_twist(j, m), meets the
          entries (i+n, w) of image("r", s, m+l) whose row tail is n, and
          w * v accumulates at (i, k, l).

        No word pair is evaluated, so the value memo stays as it is.
        """
        return self.first_mismatch(s, t, which) is None

    def first_mismatch(self, s, t, which):
        """The first sum of `certify_bidegree` that misses the counit
        pairing, as {"i", "j", "k", "l", "got", "expected"} with both values
        as JSON; None when every sum matches.  "First" is in the order i,
        then k (rinv) or l (rpr), then j, then l (rinv) or k (rpr).  Each
        column's product is compared with its pairing as one dict, and only
        a failing column is searched, by `first_difference`: its sorted
        keys, i + k (rinv) or (i, l, k) (rpr), are that order within it."""
        N = self.N
        tuples_s = list(product(range(1, N + 1), repeat=s))
        tuples_t = list(product(range(1, N + 1), repeat=t))
        # each miss is (i, k or l, j, l or k, first difference): loop order
        misses = []
        if which == "rinv":
            for j in tuples_s:
                for l in tuples_t:
                    got = {}
                    for mn, v in self.image("rinv", s, j + l).items():
                        for ik, w in self.image("r", s, mn).items():
                            add_term(got, ik, w * v)
                    expected = {j + l: LP_ONE}
                    if got != expected:
                        miss = first_difference(got, expected)
                        ik = miss["entry"]
                        misses.append((ik[:s], ik[s:], j, l, miss))
        else:
            for j in tuples_s:
                got = {}
                for n in tuples_t:
                    for mk, v in self.image("rinv", s, j + n).items():
                        m, k = mk[:s], mk[s:]
                        v = self.rpr_twist(j, m) * v
                        for l in tuples_t:
                            for i_n, w in self.image("r", s, m + l).items():
                                if i_n[s:] == n:
                                    add_term(got, (i_n[:s], l, k), w * v)
                expected = {(j, k, k): LP_ONE for k in tuples_t}
                if got != expected:
                    miss = first_difference(got, expected)
                    i, l, k = miss["entry"]
                    misses.append((i, l, j, k, miss))
        if not misses:
            return None
        i, o, j, p, miss = min(misses, key=lambda m: m[:4])
        k, l = (o, p) if which == "rinv" else (p, o)
        return {"i": i, "j": j, "k": k, "l": l, "got": miss["got"],
                "expected": miss["expected"]}


# ---------------------------------------------------------------------------
# Shared computation context
# ---------------------------------------------------------------------------

class Certificate:
    """The outcome of one checked instance: the command, the instance, a
    status ("pass", "fail" or "inconclusive"), and on failure a witness."""

    def __init__(self, command, instance, status, witness=None, seed=None):
        self.command = command
        self.instance = instance
        self.status = status
        self.witness = witness
        self.seed = seed

    def to_json(self):
        out = {"command": self.command, "instance": self.instance,
               "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def verdict(cls, command, instance, ok, witness=None, seed=None):
        """A "pass" or "fail" certificate as ok says.  The witness, a dict
        or a function returning one, is kept (and called) only on failure."""
        if ok:
            return cls(command, instance, "pass", seed=seed)
        if callable(witness):
            witness = witness()
        return cls(command, instance, "fail", witness=witness, seed=seed)


class QContext:
    """Caches for one matrix size: rewriting, tables, minors, products."""

    def __init__(self, N):
        self.N = N
        self.rw = derive_rewrite_system(N, exchange_relations(N))
        self.bich = Bicharacter(N)
        self._tables = Memo(lambda kl: WedgeBraidTable(N, *kl))
        self._minors = Memo(lambda key: quantum_minor(N, *key))
        self._minor_nf = Memo(self._normal_minor)
        self._minor_prod = Memo(self._normal_product)
        self._contractions = Memo(self._contraction)
        self._gencomm = Memo(self._commutation)

    def table(self, k, l):
        return self._tables[k, l]

    def minor(self, rows, cols):
        return self._minors[tuple(rows), tuple(cols)]

    def minor_nf(self, rows, cols):
        """Normal form of a minor, memoised."""
        return self._minor_nf[tuple(rows), tuple(cols)]

    def _normal_minor(self, key):
        nf = self.rw.normal_form(self.minor(*key))
        share_values(nf.coeffs)
        return nf

    def minor_prod_nf(self, A, B, C, D):
        """Normal form of the product of two minors, memoised.  The words
        of Delta(A, B) are inserted, last letter first, into minor_nf(C, D)
        (`RewriteSystem.normal_form` with a right factor): they share their
        suffixes within this one product, and no product word enters the
        rewriting system's suffix memo."""
        return self._minor_prod[tuple(A), tuple(B), tuple(C), tuple(D)]

    def _normal_product(self, key):
        A, B, C, D = key
        nf = self.rw.normal_form(self.minor(A, B), self.minor_nf(C, D))
        share_values(nf.coeffs)
        return nf

    # -- wedge-table contractions ---------------------------------------------

    def wedge_contraction(self, a, c, b):
        """{(X, Z, W): sum_Y inv_entry(X, a, c, Y) entry(b, Z, Y, W)} on the
        (|a|, |c|) wedge table, nonzero values only, memoised.

        Summed against star_minor(X, Z, W, d) it is the twisted-product
        expansion of the minor product (a, b)(c, d) in the REA Laplace and
        Muir families."""
        return self._contractions[tuple(a), tuple(c), tuple(b)]

    def _contraction(self, key):
        a, c, b = key
        tab = self.table(len(a), len(c))
        by_b_y = tab.slice(False, (0, 2))
        out = {}
        for (X, Y), c1 in tab.slice(True, (1, 2)).get((a, c), ()):
            for (Z, W), c2 in by_b_y.get((b, Y), ()):
                add_term(out, (X, Z, W), c1 * c2)
        return share_values(out)

    def gencomm_coefficients(self, I, J, Ip, Jp):
        """The left and right coefficients {(K, L, L'): value} of the
        general commutation of the minors (I, J) and (I', J'), summed over
        P', nonzero values only, memoised:

            left   sum_P' entry_lk(P', I', J, K) entry_kl(I, L, P', L')
            right  sum_P' entry_lk(P', L', J, K) entry_kl(I, L, P', J')

        with entry_kl the (|I|, |I'|) wedge table and entry_lk the
        (|I'|, |I|) one.  The REA gencomm family and the shape q-commutation
        certificates both read it."""
        return self._gencomm[tuple(I), tuple(J), tuple(Ip), tuple(Jp)]

    def _commutation(self, key):
        I, J, Ip, Jp = key
        kl, lk = self.table(len(I), len(Ip)), self.table(len(Ip), len(I))
        kl_by_i_pp = kl.slice(False, (0, 2))
        lk_by_pp_j = lk.slice(False, (0, 2))
        left, right = {}, {}
        for (Pp, K), f in lk.slice(False, (1, 2)).get((Ip, J), ()):
            for (L, Lp), g in kl_by_i_pp.get((I, Pp), ()):
                add_term(left, (K, L, Lp), f * g)
        for (L, Pp), g in kl.slice(False, (0, 3)).get((I, Jp), ()):
            for (Lp, K), f in lk_by_pp_j.get((Pp, J), ()):
                add_term(right, (K, L, Lp), f * g)
        return share_values(left), share_values(right)

    # -- minor-level functional values ----------------------------------------

    def r_minor(self, A, B, C, D):
        """r on a pair of minors, via the wedge braiding table."""
        return self.table(len(A), len(C)).entry(B, A, C, D)

    def rinv_minor(self, A, B, C, D):
        """The (Delta, Delta) convolution inverse on a pair of minors."""
        return self.table(len(A), len(C)).inv_entry(B, A, C, D)

    def functional_on_minors(self, which, k, l):
        """{(A, B, C, D): f(Delta(A, B), Delta(C, D))} on every pair of a
        k-minor and an l-minor, for f the word-level functional `which`
        ("r" or "rinv") summed over the word pairs of the two minors.

        Every word of Delta(A, B) has the columns B and, as rows, an
        arrangement of A, so f on a word pair of the two minors is one
        entry of the column image image(which, k, B + D), at the two row
        arrangements: one image per (B, D), and no word pair evaluated on
        its own.  The wedge tables are not read."""
        N = self.N
        ksets, lsets = subsets(N, k), subsets(N, l)
        # (A, B) -> [(rows, coefficient)] over the words of Delta(A, B)
        arrangements = {(A, B): [(word_rows(w, N), c)
                                 for w, c in self.minor(A, B).coeffs.items()]
                        for sets in (ksets, lsets)
                        for A, B in product(sets, repeat=2)}
        out = {}
        for B, D in product(ksets, lsets):
            image = self.bich.image(which, k, B + D)
            for A, C in product(ksets, lsets):
                total = LP_ZERO
                for ra, ca in arrangements[A, B]:
                    for rc, cc in arrangements[C, D]:
                        v = image.get(ra + rc)
                        if v is not None:
                            total = total + ca * cc * v
                out[A, B, C, D] = total
        return out


# ---------------------------------------------------------------------------
# Identity families
# ---------------------------------------------------------------------------

def _nf_json(p):
    return {word_str(w, p.N): c.to_json()
            for w, c in sorted(p.coeffs.items())}


def _inst_json(instance, names):
    """The certificate form of an instance: its `names` as lists, with the
    primed keys Kp, Ip, Jp written K', I', J'."""
    return {n.replace("p", "'"): list(instance[n]) for n in names}


def expansion_terms(family, instance):
    """The validated left and right terms of a Laplace or Muir instance.

    Families: laplace-row, laplace-col, muir-row, muir-col.  Each term is
    (sign, (A, B, C, D)) and stands for sign times the minor product
    (A, B)(C, D).  A Laplace instance is the Muir one with no common
    submatrix (F = G = ()), its left term the minor (I, J) times the empty
    minor.  The left side is empty unless K = K'.  Both sides are lists,
    computed on each call: the instance's position pattern, memoised per
    sizes and positions, read at I and J.  I and J are increasing, so a
    merge of their selections is their selection at the merged positions.
    """
    F, G = (((), ()) if family.startswith("laplace")
            else (tuple(instance["F"]), tuple(instance["G"])))
    I, J = tuple(instance["I"]), tuple(instance["J"])
    i_positions, j_positions, left, right = _POSITION_PATTERNS[
        family.endswith("row"), len(I), len(J), F, G, tuple(instance["K"]),
        tuple(instance["Kp"])]
    I1, J1 = (0,) + I, (0,) + J     # position p of I is I1[p]
    Is = [tuple([I1[p] for p in pos]) for pos in i_positions]
    Js = [tuple([J1[p] for p in pos]) for pos in j_positions]
    return tuple([(c, (Is[a], Js[b], Is[x], Js[d]))
                  for c, (a, b, x, d) in side] for side in (left, right))


def _position_pattern(row, k, kj, F, G, K, Kp):
    """The terms of expansion_terms for the sizes and positions of an
    instance, validated, and kept once per key in _POSITION_PATTERNS:
    (i_positions, j_positions, left, right), where each term's label (A,
    B, C, D) is given by indices into the distinct 1-based position tuples
    of I (for A and C) and of J (for B and D)."""
    if kj != k or len(F) != len(G) or len(K) != len(Kp):
        raise IllFormedInstance("sizes inconsistent")
    r = k - len(F)
    if (any(not 1 <= p <= k for p in F + G)
            or any(not 1 <= p <= r for p in K + Kp)):
        raise IllFormedInstance("selection positions out of range")
    every = tuple(range(1, k + 1))
    Fc, Gc = rest(every, F), rest(every, G)
    # position tuple -> its index, in I and in J
    i_positions, j_positions = {}, {}

    def label(a, b, c, d):
        return (i_positions.setdefault(a, len(i_positions)),
                j_positions.setdefault(b, len(j_positions)),
                i_positions.setdefault(c, len(i_positions)),
                j_positions.setdefault(d, len(j_positions)))

    left = ((LP_ONE, label(every, every, F, G)),) if K == Kp else ()
    right = []
    for P in subsets(r, len(K)):
        # a row family selects K (first minor) and K' (second) among the
        # rows and P among the columns; a col family swaps the two sides
        rk, rkp, ck, ckp = (K, Kp, P, P) if row else (P, P, K, Kp)
        right.append((lp_q_int(sum(P) - sum(K)), label(
            merge(F, select(Fc, rk)), merge(G, select(Gc, ck)),
            merge(F, rest(Fc, rkp)), merge(G, rest(Gc, ckp)))))
    return tuple(i_positions), tuple(j_positions), left, tuple(right)


_POSITION_PATTERNS = Memo(lambda key: _position_pattern(*key))


def braidcomm_labels(instance):
    """The validated (I, J, I', J') of a braided or general commutation
    instance."""
    I, J, Ip, Jp = (tuple(instance[n]) for n in ("I", "J", "Ip", "Jp"))
    if len(J) != len(I) or len(Jp) != len(Ip):
        raise IllFormedInstance("sizes inconsistent")
    return I, J, Ip, Jp


def sum_terms(N, terms, value):
    """The NCPoly sum of c * value(*args) over the (c, args) terms, c a
    LaurentPoly: the one polynomial sum.  It adds into one new dict with
    add_term, so it neither changes nor returns a value of `value`, which
    may be memoised.  A coefficient c equal to one multiplies nothing."""
    out = {}
    for c, args in terms:
        if c.is_one():
            for w, cw in value(*args).coeffs.items():
                add_term(out, w, cw)
        else:
            for w, cw in value(*args).coeffs.items():
                add_term(out, w, cw * c)
    p = NCPoly(N)
    p.coeffs = out
    return p


def identity_sides(ctx, family, instance):
    """The two normal forms (lhs, rhs) whose equality is one instance of a
    minor identity family.

    Families: laplace-row, laplace-col, muir-row, muir-col,
    braidcomm-1, braidcomm-2.
    """
    if family in ("braidcomm-1", "braidcomm-2"):
        I, J, Ip, Jp = braidcomm_labels(instance)
        first, second = braidcomm_factors(ctx, family, I, J, Ip, Jp)
        return ctx.minor_prod_nf(Ip, Jp, I, J), sum_terms(
            ctx.N, [(c1 * c2, (A, C, B, D))
                    for (A, B), c1 in first for (C, D), c2 in second],
            ctx.minor_prod_nf)
    if family not in ("laplace-row", "laplace-col", "muir-row", "muir-col"):
        raise IllFormedInstance(f"unknown family {family}")
    left, right = expansion_terms(family, instance)
    return (sum_terms(ctx.N, left, ctx.minor_prod_nf),
            sum_terms(ctx.N, right, ctx.minor_prod_nf))


def identity_certificate(algebra, family, instance, lhs, rhs):
    """The certificate `verify <family>` ("qmatrix") or `rea <family>`
    ("rea") of one instance of a sub-family of FAMILIES, from its two
    sides: a pass when they are equal, else a fail whose witness is the
    first term at which they differ."""
    keys = next(keys for (a, _), (subs, _, keys) in FAMILIES.items()
                if a == algebra and family in subs)
    command = f"{'verify' if algebra == 'qmatrix' else 'rea'} {family}"
    return Certificate.verdict(
        command, _inst_json(instance, keys), lhs == rhs,
        lambda: word_difference(lhs.coeffs, rhs.coeffs, lhs.N))


def verify_identity(ctx, family, instance):
    """Check one instance of a minor identity family by normal-form equality
    of its two sides."""
    return identity_certificate("qmatrix", family, instance,
                                *identity_sides(ctx, family, instance))


def braidcomm_factors(ctx, family, I, J, Ip, Jp):
    """The nonzero factors ([((A, B), c1)], [((C, D), c2)]) of a braided
    commutation instance, whose right side is the sum of c1 c2 (A, C)(B, D):

        braidcomm-1   c1 = entry(A, I, I', B),    c2 = inv_entry(J, C, D, J')
        braidcomm-2   c1 = inv_entry(B, I', I, A), c2 = entry(J', D, C, J)

    on the (|I|, |I'|) wedge table, and the (|I'|, |I|) one for braidcomm-2.
    Each list is one group of a table slice."""
    if family == "braidcomm-1":
        tab = ctx.table(len(I), len(Ip))
        first = tab.slice(False, (1, 2)).get((I, Ip), ())
        second = tab.slice(True, (0, 3)).get((J, Jp), ())
        return first, second
    tab = ctx.table(len(Ip), len(I))
    first = [((A, B), c) for (B, A), c
             in tab.slice(True, (1, 2)).get((Ip, I), ())]
    second = [((C, D), c) for (D, C), c
              in tab.slice(False, (0, 3)).get((Jp, J), ())]
    return first, second


# -- sweep generators -----------------------------------------------------------

def laplace_instances(N, kmax=None):
    for k in range(1, (N if kmax is None else kmax) + 1):
        for I, J in product(subsets(N, k), repeat=2):
            for l in range(0, k + 1):
                for K, Kp in product(subsets(k, l), repeat=2):
                    yield {"I": I, "J": J, "K": K, "Kp": Kp}


def muir_instances(N, kmax=None, rmax=None):
    for k in range(1, (N if kmax is None else kmax) + 1):
        for r in range(1, (k if rmax is None else min(k, rmax)) + 1):
            for I, J in product(subsets(N, k), repeat=2):
                for F, G in product(subsets(k, k - r), repeat=2):
                    for l in range(0, r + 1):
                        for K, Kp in product(subsets(r, l), repeat=2):
                            yield {"I": I, "J": J, "F": F, "G": G,
                                   "K": K, "Kp": Kp}


def braidcomm_instances(N, kmax=None, lmax=None):
    for k in range(1, (N if kmax is None else kmax) + 1):
        for l in range(1, (N if lmax is None else lmax) + 1):
            ksets, lsets = subsets(N, k), subsets(N, l)
            for I, J, Ip, Jp in product(ksets, ksets, lsets, lsets):
                yield {"I": I, "J": J, "Ip": Ip, "Jp": Jp}


def rea_laplace_instances(N, kmax=None):
    for k in range(1, (N if kmax is None else kmax) + 1):
        for I, J in product(subsets(N, k), repeat=2):
            for m in range(0, k + 1):
                for K in subsets(k, m):
                    yield {"I": I, "J": J, "K": K}


# (algebra, family) -> (sub-families, instance generator, instance keys):
# the one table of the identity families of O_q(M_N) ("qmatrix", two sides
# by identity_sides) and of the REA ("rea", by rea.rea_sides).  The
# certificate of an instance, the sweeps of checks and the CLI's
# --instance parser read it.  A generator sweeps every size up to N; the
# bounds of a sweep are on the family's row of checks.CHECKS.
FAMILIES = {
    ("qmatrix", "laplace"): (("laplace-row", "laplace-col"),
                             laplace_instances, ("I", "J", "K", "Kp")),
    ("qmatrix", "muir"): (("muir-row", "muir-col"), muir_instances,
                          ("I", "J", "F", "G", "K", "Kp")),
    ("qmatrix", "braidcomm"): (("braidcomm-1", "braidcomm-2"),
                               braidcomm_instances, ("I", "J", "Ip", "Jp")),
    ("rea", "gencomm"): (("gencomm",), braidcomm_instances,
                         ("I", "J", "Ip", "Jp")),
    ("rea", "laplace"): (("laplace1", "laplace2"), rea_laplace_instances,
                         ("I", "J", "K")),
    ("rea", "muir"): (("muir-left", "muir-right"), muir_instances,
                      ("I", "J", "F", "G", "K", "Kp")),
}
