"""The reflection equation algebra, realised through the twisted product.

The twisted (star) product on the quantum matrix coordinate ring contracts
the outer coproduct legs against the bicharacter and its second convolution
inverse.  Under it the coordinate matrix itself satisfies the reflection
equation, which certifies the algebra isomorphism onto the reflection
equation algebra at desk scale: reflection-algebra minors are the ordinary
quantum minors viewed inside the twisted product, and every reflection-side
identity is checked by exact normal-form equality in this model.

Both products read r' as r^{-1} twisted by `Bicharacter.rpr_twist`.
`star_word` works from the row side: for each row tail c whose r^{-1} image
has an entry ending in rows(v), it reads the r values of all column tuples
at once, as the coimage of rows(u) + c, and skips every other c.
`star_minor` reads r on minors off a slice of the wedge braiding table and
r^{-1} off a slice of its inverse table; the twist is constant on the words
of a minor.  `minor-table-crosscheck` certifies the inverse table against
word-level r^{-1} on minors, and the convolution certificates certify r' on
words.

The reflection-algebra identity families share their expansions with the
quantum-matrix ones.  Laplace and Muir take the term lists of
`qmatrix.expansion_terms`, read off one position pattern per sizes and
positions for both algebras, and sum them over `minor_product`, which
expands each minor product (a, b)(c, d) as the twisted products
star_minor(X, Z, W, d) weighted by the wedge-table contraction
`QContext.wedge_contraction(a, c, b)`.  The general commutation family
reads `QContext.gencomm_coefficients`, as the shape q-commutation
certificates do.  Their sweeps and instance keys are rows of
`qmatrix.FAMILIES`, and `rea_verify` is the verdict of an instance over
its two sides (`rea_sides`).

A second realisation is the straightening rules that the quantum-matrix
rules' own derivation, `qmatrix.derive_rewrite_system`, gives from the
reflection equation.  `rewrite_check` certifies their presentation: one
rule per descending pair, and their overlaps resolve.  That each rule holds
in the twisted product is implied, not evaluated: unit-pivot elimination
writes every rule as a Z[q, q^-1]-combination of reflection slots, the
evaluation Z_ij -> X_ij is linear, and `reflection_equation_check`
certifies every slot zero at the same size.

Every linear combination of twisted products (the bilinear `star`, the
minor-level sum, the reflection slots and the commutators) is a term list
summed by `qmatrix.sum_terms`.  The structural checks, the reflection
equation and the semiclassical comparison return None on a pass, or their
first failing instance with the first term at which its two sides differ;
`checks` makes their certificates.
"""

from __future__ import annotations

from itertools import product

from .braiding import rhat_entries
from .coeff import LP_ONE, Random, share_values
from .linalg import add_term
from .memo import Memo
from .qmatrix import (IllFormedInstance, NCPoly, _nf_json, braidcomm_labels,
                      derive_rewrite_system, expansion_terms, gen_id,
                      sum_terms, word_cols, word_difference, word_from_rc,
                      word_rows)


class StarAlgebra:
    """Twisted multiplication on the normal-form space of quantum matrices."""

    def __init__(self, N, ctx):
        self.N = N
        self.ctx = ctx
        self._star_word_memo = Memo(self._star_word)
        self._star_minor_memo = Memo(self._star_minor)
        self._minor_product_memo = Memo(self._minor_product)

    # -- word-level product ----------------------------------------------------

    def star_word(self, u, v):
        """Twisted product of two words, as a normal-form NCPoly."""
        return self._star_word_memo[tuple(u), tuple(v)]

    def _star_word(self, key):
        u, v = key
        N = self.N
        bich = self.ctx.bich
        s = len(u)
        rows_u, cols_u = word_rows(u, N), word_cols(u, N)
        rows_v, cols_v = word_rows(v, N), word_cols(v, N)
        # sum of r(X_{rows_u, a}, X_{c, d}) r'(X_{b, cols_u}, X_{rows_v, c})
        # X_{a, b} X_{d, cols_v}: for each c with an r' entry, the entries
        # {ad: r} of one row of r, read as a coimage
        terms = {}
        for c in product(range(1, N + 1), repeat=len(v)):
            rprs = [(rows[:s], bich.rpr_twist(cols_u, rows[:s]) * c2)
                    for rows, c2 in bich.image("rinv", s, cols_u + c).items()
                    if rows[s:] == rows_v]
            if not rprs:
                continue
            for ad, c1 in bich.coimage("r", s, rows_u + c).items():
                a_t = ad[:s]
                tail = word_from_rc(ad[s:], cols_v, N)
                for b, c2 in rprs:
                    add_term(terms, word_from_rc(a_t, b, N) + tail, c1 * c2)
        acc = self.ctx.rw.normal_form(NCPoly(N, terms))
        share_values(acc.coeffs)
        return acc

    def star(self, f, g):
        """Twisted product of two polynomials (bilinear over star_word)."""
        return sum_terms(self.N, [(cu * cv, (wu, wv))
                                  for wu, cu in f.coeffs.items()
                                  for wv, cv in g.coeffs.items()],
                         self.star_word)

    # -- minor-level product -----------------------------------------------------

    def star_minor(self, A, B, C, D):
        """Twisted product of the minors with labels (A, B) and (C, D)."""
        return self._star_minor_memo[tuple(A), tuple(B), tuple(C), tuple(D)]

    def _star_minor(self, key):
        ctx = self.ctx
        A, B, C, D = key
        # r_minor(A, K, L, E) is the wedge-table entry (K, A, L, E), and
        # r'(Delta(M, B), Delta(C, L)) = rpr_twist(B, M) inv_entry(B, M, C, L)
        tab = ctx.table(len(A), len(C))
        by_b_c_l = tab.slice(True, (0, 2, 3))
        twist = ctx.bich.rpr_twist
        terms = [(c1 * twist(B, M) * c2, (K, M, E, D))
                 for (K, L, E), c1 in tab.slice(False, (1,)).get((A,), ())
                 for (M,), c2 in by_b_c_l.get((B, C, L), ())]
        acc = sum_terms(self.N, terms, ctx.minor_prod_nf)
        share_values(acc.coeffs)
        return acc

    def minor_product(self, A, B, C, D):
        """The minor product (A, B)(C, D) of the REA Laplace and Muir
        families, expanded in the twisted product: the star_minor(X, Z, W, D)
        weighted by `QContext.wedge_contraction(A, C, B)`, memoised."""
        return self._minor_product_memo[tuple(A), tuple(B), tuple(C),
                                        tuple(D)]

    def _minor_product(self, key):
        A, B, C, D = key
        weights = self.ctx.wedge_contraction(A, C, B)
        return sum_terms(self.N, [(c, (X, Z, W, D))
                                  for (X, Z, W), c in weights.items()],
                         self.star_minor)

    # -- structural checks ----------------------------------------------------------

    def unit_check(self, polys):
        """1 * p and p * 1 against the normal form of p: the first failing
        p, its side and the first term at which the two differ, or None."""
        one = NCPoly.unit(self.N)
        for p in polys:
            nf = self.ctx.rw.normal_form(p)
            for side, f, g in (("left", one, p), ("right", p, one)):
                got = self.star(f, g)
                if got != nf:
                    return {"poly": _nf_json(p), "side": side,
                            **word_difference(got.coeffs, nf.coeffs, self.N)}
        return None

    def associativity_check(self, triples):
        """(f * g) * h against f * (g * h): the first failing triple and
        the first term at which the two differ, or None."""
        for f, g, h in triples:
            left = self.star(self.star(f, g), h)
            right = self.star(f, self.star(g, h))
            if left != right:
                return {"triple": [_nf_json(p) for p in (f, g, h)],
                        **word_difference(left.coeffs, right.coeffs, self.N)}
        return None

    def reverse_braid_check(self, pairs):
        """Recover the plain product from the twisted one on generator pairs:
        the first failing pair and the first term at which the two differ,
        or None."""
        N = self.N
        bich = self.ctx.bich
        for (i, j), (k, l) in pairs:
            expected = self.ctx.rw.normal_form(
                NCPoly.generator(N, i, j) * NCPoly.generator(N, k, l))
            terms = []
            for a in range(1, N + 1):
                for c in range(1, N + 1):
                    c1 = bich.r_inv((gen_id(i, a, N),), (gen_id(k, c, N),))
                    if c1.is_zero():
                        continue
                    for b in range(1, N + 1):
                        for d in range(1, N + 1):
                            c2 = bich.r((gen_id(b, j, N),), (gen_id(c, d, N),))
                            if c2.is_zero():
                                continue
                            terms.append((c1 * c2, ((gen_id(a, b, N),),
                                                    (gen_id(d, l, N),))))
            got = sum_terms(N, terms, self.star_word)
            if got != expected:
                return {"pair": [[i, j], [k, l]],
                        **word_difference(got.coeffs, expected.coeffs, N)}
        return None


# ---------------------------------------------------------------------------
# Reflection equation
# ---------------------------------------------------------------------------

def reflection_slot_vectors(N):
    """Degree-2 word vectors (Z alphabet) of the reflection equation.

    Slot ((k, l), (i, j)) of R Z2 R Z2 - Z2 R Z2 R, with the letters kept
    formal; evaluating the words through any product tests that product.
    Derived once per N by _slot_vectors; callers only read them.
    """
    return _SLOT_VECTORS[N]


def _slot_vectors(N):
    """The slots of reflection_slot_vectors(N), from the nonzero entries of
    R-hat only."""
    rhat = rhat_entries(N)
    # R-hat's nonzero entries by output pair: (x, y) -> [((a, b), c)]
    into = {}
    for (xy, ab), c in rhat.items():
        into.setdefault(xy, []).append((ab, c))
    slots = {}
    rng = range(1, N + 1)
    for k, l, i, j in product(rng, repeat=4):
        v = {}
        # R[(k, l), (c, b)] R[(c, d), (i, f)] Z_bd Z_fj
        for (c, b), c1 in into[k, l]:
            for d in rng:
                for (i2, f), c2 in into[c, d]:
                    if i2 == i:
                        add_term(v, (gen_id(b, d, N), gen_id(f, j, N)),
                                 c1 * c2)
        # - R[(k, b), (e, d)] R[(e, f), (i, j)] Z_lb Z_df
        for b in rng:
            for (e, d), c1 in into[k, b]:
                for f in rng:
                    c2 = rhat.get(((e, f), (i, j)))
                    if c2 is not None:
                        add_term(v, (gen_id(l, b, N), gen_id(d, f, N)),
                                 -(c1 * c2))
        if v:
            slots[((k, l), (i, j))] = v
    return slots


_SLOT_VECTORS = Memo(_slot_vectors)


def reflection_equation_check(star):
    """Evaluate the reflection residual under the twisted product, slotwise:
    the first slot whose residual is not zero, with its first term, or
    None."""
    N = star.N
    for slot, vec in reflection_slot_vectors(N).items():
        acc = sum_terms(N, [(c, ((g1,), (g2,)))
                            for (g1, g2), c in vec.items()], star.star_word)
        if not acc.is_zero():
            return {"slot": slot, **word_difference(acc.coeffs, {}, N)}
    return None


def rewrite_check(N):
    """The straightening rules derived from the reflection equation at N:
    the first overlap that does not resolve (`critical_pair_failure`), or
    None.  Raises NonOrientable unless there is one rule per descending
    pair.  No rule is evaluated in the twisted product: each is a
    combination of reflection slots, which `reflection_equation_check`
    certifies."""
    rw = derive_rewrite_system(N, reflection_slot_vectors(N).values())
    return rw.critical_pair_failure()


# ---------------------------------------------------------------------------
# Identity families in the reflection algebra
# ---------------------------------------------------------------------------

# rea_verify's Laplace and Muir families, each with the qmatrix family whose
# terms it expands in the twisted product
_EXPANSIONS = {"laplace1": "laplace-row", "laplace2": "laplace-col",
               "muir-left": "muir-row", "muir-right": "muir-col"}


def rea_sides(star, family, instance):
    """The two sides (lhs, rhs) of a reflection-algebra identity instance in
    the twisted model: lhs == rhs is the instance.

    Families: gencomm, laplace1, laplace2, muir-left, muir-right.  A
    Laplace or Muir side sums the terms of its qmatrix family over
    `StarAlgebra.minor_product`.
    """
    N = star.N
    if family == "gencomm":
        I, J, Ip, Jp = braidcomm_labels(instance)
        left, right = star.ctx.gencomm_coefficients(I, J, Ip, Jp)
        return (sum_terms(N, [(c, (K, L, Lp, Jp)) for (K, L, Lp), c
                              in left.items()], star.star_minor),
                sum_terms(N, [(c, (Ip, Lp, K, L)) for (K, L, Lp), c
                              in right.items()], star.star_minor))
    if family not in _EXPANSIONS:
        raise IllFormedInstance(f"unknown family {family}")
    if family.startswith("laplace"):
        # a reflection-algebra Laplace instance has K' = K
        instance = dict(instance, Kp=instance["K"])
    left, right = expansion_terms(_EXPANSIONS[family], instance)
    return (sum_terms(N, left, star.minor_product),
            sum_terms(N, right, star.minor_product))


def rea_verify(star, family, instance):
    """The verdict of one reflection-algebra identity instance: None when
    its two sides are equal, else the first term at which they differ."""
    lhs, rhs = rea_sides(star, family, instance)
    return None if lhs == rhs else word_difference(lhs.coeffs, rhs.coeffs,
                                                   star.N)


# ---------------------------------------------------------------------------
# Semiclassical comparison
# ---------------------------------------------------------------------------

def star_commutator_first_order(star, ij, kl):
    """Constant and first-order data at q=1 of a twisted generator commutator.

    Returns (ok_constant, {sorted entry-pair monomial: Fraction}) where the
    dictionary collects d/dq at q=1 of each normal-form coefficient.
    """
    N = star.N
    a, b = gen_id(*ij, N), gen_id(*kl, N)
    comm = sum_terms(N, [(LP_ONE, ((a,), (b,))), (-LP_ONE, ((b,), (a,)))],
                     star.star_word)
    taylor = {w: c.taylor1() for w, c in comm.coeffs.items()}
    # a normal-form word is nondecreasing: its entry pairs come sorted, one
    # word per monomial
    firsts = {tuple((g // N + 1, g % N + 1) for g in w): c1
              for w, (_, c1) in taylor.items() if c1 != 0}
    return all(c0 == 0 for c0, _ in taylor.values()), firsts


def semiclassical_bracket_check(star, ij, kl, bracket_polys):
    """Match the first-order twisted commutator against the Poisson bracket.

    bracket_polys maps ((i,j),(k,l)) to the bracket of the two coordinate
    functions as a quadratic form {sorted entry-pair: GaussRat}; the
    comparison multiplies it by the imaginary unit.  Returns None, or the
    witness: the monomial of a bracket coefficient that is not imaginary,
    or whether the constant term vanishes and the first monomial at which
    the first-order forms differ, with both values there.
    """
    ok_constant, firsts = star_commutator_first_order(star, ij, kl)
    classical = bracket_polys[(tuple(ij), tuple(kl))]
    expected = {}
    for mono, g in classical.items():
        # i * (a + bi) = -b + ai must be rational: bracket coefficients are
        # purely imaginary exactly when the commutator is defined over Q.
        val = -g.im
        if g.re != 0:
            return {"reason": "bracket not imaginary", "mono": str(mono)}
        if val != 0:
            expected[mono] = val
    miss = min((m for m in firsts.keys() | expected.keys()
                if firsts.get(m, 0) != expected.get(m, 0)), default=None)
    if miss is None:
        return None if ok_constant else {"constant_ok": False}
    return {"constant_ok": ok_constant, "entry": str(miss),
            "quantum": str(firsts.get(miss, 0)),
            "classical": str(expected.get(miss, 0))}


def random_word(N, degree, rng):
    return tuple(rng.randrange(N * N) for _ in range(degree))


def random_monomials(N, max_degree, count, seed):
    rng = Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(1, max_degree)
        out.append(NCPoly(N, {random_word(N, d, rng): LP_ONE}))
    return out
