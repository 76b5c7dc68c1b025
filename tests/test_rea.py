import inspect
import random
from itertools import combinations, product

import pytest

from qrea import braiding, classical, qmatrix, rea
from qrea.classical import poisson_bracket_coeffs
from qrea.linalg import add_term
from qrea.memo import Memo
from qrea.qmatrix import (NCPoly, QContext, braidcomm_instances,
                          degree_dimension, derive_rewrite_system, gen_id,
                          muir_instances, rea_laplace_instances, sum_terms,
                          verify_identity, word_cols, word_from_rc, word_rows)
from qrea.rea import (StarAlgebra, random_monomials, rea_verify,
                      reflection_equation_check, reflection_slot_vectors,
                      semiclassical_bracket_check,
                      star_commutator_first_order)
from test_suite_mutations import row_test


def test_star_unit(star2):
    polys = random_monomials(2, 2, 10, seed=1)
    assert star2.unit_check(polys) is None


def test_star_associativity(star2):
    rng = random.Random(8)
    monos = random_monomials(2, 2, 10, seed=8)
    triples = [tuple(rng.sample(monos, 3)) for _ in range(6)]
    assert star2.associativity_check(triples) is None


def test_star_minor_matches_star_word_on_generators(star2):
    for i in range(1, 3):
        for j in range(1, 3):
            for k in range(1, 3):
                for l in range(1, 3):
                    w = star2.star_word((gen_id(i, j, 2),), (gen_id(k, l, 2),))
                    m = star2.star_minor((i,), (j,), (k,), (l,))
                    assert w == m


def test_star_minor_matches_polynomial_star(star2):
    ctx = star2.ctx
    det = (1, 2)
    for C in ((1,), (2,)):
        for D in ((1,), (2,)):
            lhs = star2.star_minor(det, det, C, D)
            rhs = star2.star(ctx.minor(det, det), ctx.minor(C, D))
            assert lhs == rhs
    lhs = star2.star_minor(det, det, det, det)
    rhs = star2.star(ctx.minor(det, det), ctx.minor(det, det))
    assert lhs == rhs


def test_reflection_equation(star2, star3):
    assert reflection_equation_check(star2).status == "pass"
    assert reflection_equation_check(star3).status == "pass"


def test_reflection_slots_nontrivial():
    # the slot vectors must actually constrain: at N=2 they span 6 relations
    slots = reflection_slot_vectors(2)
    assert len(slots) >= 6


def test_reverse_braid(star2):
    pairs = [((i, j), (k, l)) for i in (1, 2) for j in (1, 2)
             for k in (1, 2) for l in (1, 2)]
    assert star2.reverse_braid_check(pairs) is None


def test_rea_rewrite_n2(star2):
    assert star2.rewrite_check() is None
    rw = derive_rewrite_system(2, reflection_slot_vectors(2).values())
    assert len(rw.rules) == 6
    assert degree_dimension(2, rw, 2) == 10
    assert degree_dimension(2, rw, 3) == 20


def test_gencomm_sweep_n2(star2):
    for inst in braidcomm_instances(2, 2, 2):
        assert rea_verify(star2, "gencomm", inst).status == "pass"


def test_rea_laplace_sweep_n2(star2):
    for inst in rea_laplace_instances(2):
        for fam in ("laplace1", "laplace2"):
            assert rea_verify(star2, fam, inst).status == "pass"


def test_rea_muir_sweep_n2(star2):
    for inst in muir_instances(2, kmax=2, rmax=2):
        for fam in ("muir-left", "muir-right"):
            assert rea_verify(star2, fam, inst).status == "pass"


def test_rea_muir_offdiagonal_both_sides_vanish(star3):
    # K != K': the shared-label expansion degenerates to 0 = 0, but the
    # right-hand sum still has to collapse exactly
    inst = {"I": (1, 2), "J": (1, 2), "F": (), "G": (), "K": (1,), "Kp": (2,)}
    cert = rea_verify(star3, "muir-left", inst)
    assert cert.status == "pass"


def test_gencomm_singletons_n3(star3):
    for inst in braidcomm_instances(3, 1, 1):
        assert rea_verify(star3, "gencomm", inst).status == "pass"


def test_semiclassical_diagonal_pairs_vanish(star2):
    table = poisson_bracket_coeffs(2)
    for i in (1, 2):
        for j in (1, 2):
            ok_const, firsts = star_commutator_first_order(star2, (i, j), (i, j))
            assert ok_const and firsts == {}
            cert = semiclassical_bracket_check(star2, (i, j), (i, j), table)
            assert cert.status == "pass"


def test_semiclassical_all_pairs_n2(star2):
    table = poisson_bracket_coeffs(2)
    count = 0
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    cert = semiclassical_bracket_check(star2, (i, j), (k, l),
                                                       table)
                    assert cert.status == "pass"
                    count += 1
    assert count == 16


def test_commutator_constant_term_vanishes(star3):
    # commutative specialisation: every coefficient vanishes at q = 1
    for (i, j, k, l) in ((1, 2, 2, 1), (1, 1, 2, 3), (3, 1, 1, 3)):
        ok_const, _ = star_commutator_first_order(star3, (i, j), (k, l))
        assert ok_const


# -- the shared expansions: reverse twist and mutation guards ----------------------

def test_wedge_contraction_reverses_the_twist(star2):
    """Summed against star_minor, the contraction of (a, c, b) gives back the
    plain minor product (a, b)(c, d), on every label quadruple at N = 2."""
    ctx = star2.ctx
    labels = [(A, B) for k in (1, 2) for A in combinations((1, 2), k)
              for B in combinations((1, 2), k)]
    count = 0
    for a, b in labels:
        for c, d in labels:
            acc = sum_terms(2, [(v, (X, Z, W, d)) for (X, Z, W), v
                                in ctx.wedge_contraction(a, c, b).items()],
                            star2.star_minor)
            assert acc == ctx.minor_prod_nf(a, b, c, d), (a, b, c, d)
            count += 1
    assert count == 25


def _fresh_star():
    # a context of its own, so that a mutation cannot reach the shared one
    return StarAlgebra(2, QContext(2))


# -- witnesses of the family and structural suites: rows of the mutation table

test_dropped_contraction_term_fails_the_family = row_test(
    "rea.laplace", "rea.laplace", "rea.muir", "rea.muir",
    ids=["laplace1", "laplace2", "muir-left", "muir-right"])
test_dropped_gencomm_coefficient_fails_both_consumers = row_test(
    "rea.gencomm", "rea.qcomm")
test_dropped_expansion_term_fails_every_subfamily = row_test(
    "qmatrix.laplace", "qmatrix.muir", "rea.laplace expansion",
    "rea.muir expansion",
    ids=["qmatrix-laplace", "qmatrix-muir", "rea-laplace", "rea-muir"])
test_braidcomm_suite_witness_on_a_dropped_factor = row_test(
    "qmatrix.braidcomm")
test_star_unit_witness_is_first_failing_poly = row_test("rea.star-unit")
test_star_associativity_witness_is_first_failing_triple = row_test(
    "rea.star-associativity")
test_reflection_equation_witness_names_the_failing_slots = row_test(
    "rea.reflection-equation")
test_reverse_braid_witness_is_first_failing_pair = row_test(
    "rea.reverse-braid")
test_rewrite_crosscheck_witness_is_the_first_failing_rule = row_test(
    "rea.rewrite-crosscheck")
test_rewrite_crosscheck_witness_is_the_first_unresolved_overlap = row_test(
    "rea.rewrite-crosscheck overlap")
test_rewrite_crosscheck_witness_is_the_rule_count = row_test(
    "rea.rewrite-crosscheck rule-count")
test_semiclassical_witness_names_first_failing_pair = row_test(
    "rea.semiclassical")


def _memo_rows(star, fresh):
    """Every memo of `star`, its context, rewriting system and bicharacter,
    by owner and attribute: [(memo, compute)], with compute(*key) the value
    `fresh` gives for a key of memo.  A bicharacter memo has one row per
    functional; a context's wedge tables have one per table that has
    slices."""
    ctx, bich, new = star.ctx, star.ctx.bich, fresh.ctx
    return {
        "StarAlgebra._star_word_memo": [(star._star_word_memo,
                                         fresh.star_word)],
        "StarAlgebra._star_minor_memo": [(star._star_minor_memo,
                                          fresh.star_minor)],
        "QContext._minors": [(ctx._minors, new.minor)],
        "QContext._minor_nf": [(ctx._minor_nf, new.minor_nf)],
        "QContext._minor_prod": [(ctx._minor_prod, new.minor_prod_nf)],
        "QContext._contractions": [(ctx._contractions, new.wedge_contraction)],
        "QContext._gencomm": [(ctx._gencomm, new.gencomm_coefficients)],
        "QContext._tables": [
            (table._slices,
             lambda inverse, fixed, kl=kl: new.table(*kl).slice(inverse,
                                                                fixed))
            for kl, table in ctx._tables.items() if table._slices],
        "RewriteSystem._insert_memo": [(ctx.rw._insert_memo, new.rw._insert)],
        "RewriteSystem._nf_memo": [(ctx.rw._nf_memo,
                                    lambda *w: new.rw.nf_word(w))],
        "Bicharacter._memo": [
            (bich._memo["r"], new.bich.r),
            (bich._memo["rinv"], new.bich.r_inv)],
        "Bicharacter._images": [
            (bich._images[which],
             lambda s, cols, which=which: new.bich.image(which, s, cols))
            for which in ("r", "rinv")],
        # the twisted product reads r by rows, and r^{-1} by columns only
        "Bicharacter._coimages": [
            (bich._coimages["r"],
             lambda s, rows: new.bich.coimage("r", s, rows))],
    }


# The dict attributes of a StarAlgebra, QContext, RewriteSystem and
# Bicharacter that are not memos, and why.
NOT_MEMOS = (
    ("RewriteSystem.rules", "the straightening rules, derived at construction"),
    ("Bicharacter._tables", "the two-site generator tables, built at "
                            "construction"),
    ("Bicharacter._cotables", "their transposes, built at construction"),
)


def test_every_dict_attribute_is_a_checked_memo_or_not_a_memo():
    """A memo added to or dropped from the four classes fails here until
    `_memo_rows` (or NOT_MEMOS) follows it."""
    star = _fresh_star()
    found = {f"{type(owner).__name__}.{name}"
             for owner in (star, star.ctx, star.ctx.rw, star.ctx.bich)
             for name, value in vars(owner).items() if isinstance(value, dict)}
    checked, exempt = set(_memo_rows(star, star)), {n for n, _ in NOT_MEMOS}
    assert not checked & exempt
    assert found == checked | exempt


def test_every_computed_cache_is_a_memo():
    """Each computed cache fills itself on a miss (`qrea.memo.Memo`), a
    bicharacter with one Memo per functional.  The suffix states stay a
    plain dict: they never hold the word asked for."""
    star = _fresh_star()
    ctx, bich = star.ctx, star.ctx.bich
    sides = inspect.getclosurevars(rea.rea_sides(star)).nonlocals
    memos = [star._star_word_memo, star._star_minor_memo, ctx._tables,
             ctx._minors, ctx._minor_nf, ctx._minor_prod, ctx._contractions,
             ctx._gencomm, ctx.rw._insert_memo, ctx.table(2, 1)._slices,
             sides["expansions"], *braiding._RHAT_TABLES.values(),
             classical._BRACKET_TABLES, qmatrix._POSITION_PATTERNS,
             rea._SLOT_VECTORS]
    for per_functional in (bich._memo, bich._images, bich._coimages):
        assert per_functional.keys() == {"r", "rinv"}
        memos += per_functional.values()
    assert all(isinstance(m, Memo) for m in memos)
    assert len({id(m) for m in memos}) == len(memos)
    assert type(ctx.rw._nf_memo) is dict


def test_sums_leave_every_memo_as_a_fresh_context_computes_it():
    """No polynomial sum changes a memoised value that it reads: after the
    star, star_minor, reverse-braid and verify_identity sums at N = 2,
    every value of every memo of `_memo_rows` equals the value a fresh
    context gives for its key."""
    star = _fresh_star()
    monos = random_monomials(2, 2, 8, seed=3)
    for f, g in zip(monos, monos[1:]):
        assert star.star(star.star(f, g), f) == star.star(f, star.star(g, f))
    assert reflection_equation_check(star).status == "pass"
    pairs = list(product(product((1, 2), repeat=2), repeat=2))
    assert star.reverse_braid_check(pairs) is None
    assert star.rewrite_check() is None
    for (algebra, family), (subs, sweep, _keys) in qmatrix.FAMILIES.items():
        for inst in sweep(2):
            for sub in subs:
                if algebra == "qmatrix":
                    cert = verify_identity(star.ctx, sub, inst)
                else:
                    cert = rea_verify(star, sub, inst)
                assert cert.status == "pass", (sub, inst)
    assert not star.ctx.bich._coimages["rinv"]
    for name, rows in _memo_rows(star, _fresh_star()).items():
        assert rows and all(memo for memo, _compute in rows), name
        for memo, compute in rows:
            for key, value in memo.items():
                assert value == compute(*key), (name, key)


# -- the twisted product from the row side ------------------------------------

def _star_word_by_columns(star, u, v):
    """The twisted product of two words by the column sweep: every column
    tuple ad, its r image filtered to the rows of u."""
    N, bich = star.N, star.ctx.bich
    s = len(u)
    rows_u, cols_u = word_rows(u, N), word_cols(u, N)
    rows_v, cols_v = word_rows(v, N), word_cols(v, N)
    terms = {}
    for ad in product(range(1, N + 1), repeat=s + len(v)):
        tail = word_from_rc(ad[s:], cols_v, N)
        for rows, c1 in bich.image("r", s, ad).items():
            if rows[:s] != rows_u:
                continue
            for rows2, c2 in bich.image("rinv", s, cols_u + rows[s:]).items():
                if rows2[s:] == rows_v:
                    twist = bich.rpr_twist(cols_u, rows2[:s])
                    add_term(terms, word_from_rc(ad[:s], rows2[:s], N) + tail,
                             c1 * twist * c2)
    return star.ctx.rw.normal_form(NCPoly(N, terms))


@pytest.mark.parametrize("N", [2, 3])
def test_star_word_matches_the_column_sweep(N):
    """star_word, which reads r by rows, equals the column sweep on every
    pair of words of degree <= 2."""
    star = StarAlgebra(N, QContext(N))
    words = [w for n in range(3) for w in product(range(N * N), repeat=n)]
    for u in words:
        for v in words:
            assert star.star_word(u, v) == _star_word_by_columns(star, u, v), \
                (u, v)
