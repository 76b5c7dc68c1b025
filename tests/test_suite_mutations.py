"""One mutation per check-all suite: every suite of `checks.CHECKS` is shown
to fail, and its witness to name the first failing instance.

A row is (label, N, perturbation, statuses, witnesses).  MUTATIONS has
one row per suite, labelled by its name; MORE_MUTATIONS holds further
mutations of some suites, labelled "suite what".  The perturbation patches
a function or a method through a MonkeyPatch, or edits a table entry of a
context; the suite then runs at N with seed 0 on fresh memos and contexts
(`fresh_memos`), so no perturbed value outlives its row.  It must give
certificates of the `statuses` (p pass, f fail, i inconclusive), and
`witnesses` are those of its non-pass certificates, in order.  A witness
given as a function is computed after the run, under the perturbation,
along an independent path.
"""

from itertools import product

import pytest

from qrea import braiding, checks, classical, indexsets, qmatrix, rea, shapes
from qrea.coeff import LP_ONE, LP_Q, LaurentPoly, RatFunc
from qrea.memo import Memo
from qrea.qmatrix import QContext, sum_terms


def fresh_memos(mp):
    """Empty memos in place of the suite contexts and of every module-level
    memo, through the MonkeyPatch mp: no value computed under a
    perturbation outlives it, and a memo's growth is all its entries."""
    for module, name in ((checks, "_CTX_CACHE"), (checks, "_STAR_CACHE"),
                         (classical, "_BRACKET_TABLES"),
                         (classical, "_TANGENCY_PLANS"),
                         (qmatrix, "_POSITION_PATTERNS"),
                         (rea, "_SLOT_VECTORS")):
        mp.setattr(module, name, Memo(getattr(module, name).compute))
    for inverse, table in list(braiding._RHAT_TABLES.items()):
        mp.setitem(braiding._RHAT_TABLES, inverse, Memo(table.compute))


# -- perturbations -----------------------------------------------------------

def _broken_move(mp):
    """The braid move, and its inverse, with the image of e_1 (x) e_2 (of
    e_2 (x) e_1 for the inverse) scaled by q."""
    move = braiding.braid_pair_action

    def broken(a, b, inverse=False):
        out = move(a, b, inverse)
        if (a, b) == ((2, 1) if inverse else (1, 2)):
            out = [(xy, c * LP_Q) for xy, c in out]
        return out
    mp.setattr(braiding, "braid_pair_action", broken)


def _scaled_coproduct(mp):
    """The coproduct with every term of a word of length 2 or more scaled
    by q: Delta is then no longer multiplicative."""
    delta = qmatrix.coproduct
    mp.setattr(qmatrix, "coproduct", lambda p: {
        pair: c * LP_Q if len(pair[0]) > 1 else c
        for pair, c in delta(p).items()})


def _scaled_star_word(factor):
    """A perturbation that makes star_word of the N = 2 twisted product
    return factor(u, v) times its value."""
    def perturb(mp):
        star = checks.get_star(2)
        original = star.star_word
        mp.setattr(star, "star_word", lambda u, v: sum_terms(
            2, [(factor(u, v), (u, v))], original))
    return perturb


def _dropped_last(owner, name):
    """A perturbation that drops the last term of the second side of the
    pair that owner.name returns."""
    def perturb(mp):
        original = getattr(owner, name)

        def dropped(*args):
            first, second = original(*args)
            return first, list(second)[:-1]
        mp.setattr(owner, name, dropped)
    return perturb


def _dropped_expansion_term(mp):
    """The last right term of every Laplace and Muir expansion dropped, in
    both algebras."""
    _dropped_last(qmatrix, "expansion_terms")(mp)
    mp.setattr(rea, "expansion_terms", qmatrix.expansion_terms)


def _dropped_gencomm_term(N):
    """The gencomm coefficient that the shape certificate of the first
    family of rank >= 1 designates at level 1, I = J = (1,), deleted."""
    def perturb(mp):
        shape = next(s for s in shapes.enumerate_shapes(N) if s.rank >= 1)
        A, B = shape.support_prefix(1), shape.tau_prefix(1)
        left, _right = checks.get_ctx(N).gencomm_coefficients(
            A, B, (1,), (1,))
        del left[(B, A, (1,))]
    return perturb


def _dropped_first_contraction_term(mp):
    """Every wedge contraction of a context built from now on without its
    first term."""
    original = QContext._contraction
    mp.setattr(QContext, "_contraction", lambda self, key: dict(
        list(original(self, key).items())[1:]))


def _scale_least_rule(rw):
    """The least straightening rule of rw, X12 X11 -> ... at N = 2, scaled
    by q."""
    lead = min(rw.rules)
    rw.rules[lead] = {w: c * LP_Q for w, c in rw.rules[lead].items()}
    return rw


def _scaled_rea_rule(mp):
    derive = rea.derive_rewrite_system
    mp.setattr(rea, "derive_rewrite_system",
               lambda N, vectors: _scale_least_rule(derive(N, vectors)))


def _three_slots(mp):
    """Three slots of the reflection equation, which span too few
    relations."""
    slots = rea.reflection_slot_vectors
    mp.setattr(rea, "reflection_slot_vectors",
               lambda N: dict(list(slots(N).items())[:3]))


def perturbed_bracket(mp):
    """i Z_11 Z_22 added to the table entry {Z_11, Z_12}, in a copy."""
    right = classical.poisson_bracket_coeffs

    def perturbed(N):
        table = dict(right(N))
        key = ((1, 1), (1, 2))
        table[key] = {**table[key],
                      ((1, 1), (2, 2)): classical.GaussRat(0, 1)}
        return table
    mp.setattr(classical, "poisson_bracket_coeffs", perturbed)


def _bumped_rinv_entry(mp):
    """The first entry of the r^{-1} generator table at N = 2 plus 1."""
    tables = checks.get_ctx(2).bich._tables["rinv"]
    column = tables[min(tables)]
    row, c = column[0]
    column[0] = (row, c + LP_ONE)


def _reversed_twist(mp):
    """The r' twist at N = 2 with its arguments swapped."""
    bich = checks.get_ctx(2).bich
    twist = bich.rpr_twist
    mp.setattr(bich, "rpr_twist", lambda cols, rows: twist(rows, cols))


def _wedge_table_entries(mp):
    """Three entries of the N = 2 wedge tables changed: (1, 1) gets an
    inverse entry off the support, J = (2,) not dominated by I = (1,); (1, 2)
    two wrong diagonal entries, the inverse one at I = (1,) scanned before
    the direct one at I = (2,)."""
    ctx = checks.get_ctx(2)
    ctx.table(1, 1).inv_entries[(1,), (2,), (1,), (1,)] = LP_Q
    t12 = ctx.table(1, 2)
    t12.inv_entries[(1,), (1,), (1, 2), (1, 2)] *= LP_Q
    t12.entries[(2,), (2,), (1, 2), (1, 2)] *= LP_Q


def _broken_wedge_pair(mp):
    """The (1, 1) inverse wedge braiding of e_2 (x) e_2 scaled by q."""
    move = braiding.braid_wedge_pair

    def broken(pair_vec, k, l, inverse=False):
        out = move(pair_vec, k, l, inverse)
        if inverse and (k, l) == (1, 1) and ((2,), (2,)) in pair_vec:
            out = {key: c * LP_Q for key, c in out.items()}
        return out
    mp.setattr(braiding, "braid_wedge_pair", broken)


def _scaled_minor_table_entry(mp):
    """One entry of the N = 2 (1, 1) wedge table times q."""
    table = checks.get_ctx(2).table(1, 1)
    key = ((2,), (1,), (2,), (1,))
    table.entries[key] = table.entries[key] * LP_Q


def _lost_and_swapped_families(mp):
    """One rank-1 family of N = 3 lost, and the second and third rank-3
    families swapped."""
    fams = shapes.enumerate_shapes(3)
    rank1 = [s for s in fams if s.rank == 1]
    r3 = [s for s in fams if s.rank == 3]
    broken = [s for s in fams if s.rank not in (1, 3)] + rank1[1:] + [
        r3[0], r3[2], r3[1], r3[3]]
    mp.setattr(shapes, "enumerate_shapes", lambda N: broken)


def _edited_ideal(flavor, condition):
    """One label dropped from (or, for lex closure, added to) the `flavor`
    ideal of the first N = 3 family with an off-diagonal dom label, which
    breaks `condition` there."""
    def perturb(mp):
        build = shapes.build_shape_ideal
        target = next(s for s in shapes.enumerate_shapes(3)
                      if any(I != J for I, J in build(s, "dom")))
        dom = build(target, "dom")
        dropped, added = {
            # lex keeps the adjoint of the dropped label: its closure holds
            "dom inside lex": (min(dom), None),
            "dom adjoint-closed": (min((I, J) for I, J in dom if I != J),
                                   None),
            # the adjoint of the added label is absent
            "lex adjoint-closed": (None, ((1,), (2, 3)))}[condition]

        def broken(shape, fl):
            ideal = build(shape, fl)
            if shape == target and fl == flavor:
                ideal = (ideal - {dropped}) | ({added} - {None})
            return ideal
        mp.setattr(shapes, "build_shape_ideal", broken)
    return perturb


def _negated_bracket_coefficient(mp):
    """The first monomial of the first nonzero N = 2 bracket entry
    negated, in a copy of the table."""
    table = dict(classical.poisson_bracket_coeffs(2))
    key = next(k for k in sorted(table) if table[k])
    mono = min(table[key])
    table[key] = {**table[key], mono: -table[key][mono]}
    mp.setattr(classical, "poisson_bracket_coeffs", lambda N: table)


def _doubled_weights(mp):
    """build_leaf_point on twice the weights: the shape stays, the spectrum
    does not."""
    right = classical.build_leaf_point
    mp.setattr(classical, "build_leaf_point",
               lambda S, lam: right(S, [2 * x for x in lam]))


def _swapped_signs(mp):
    right = classical.eigenvalue_signs

    def swapped(z):
        plus, minus, zero = right(z)
        return minus, plus, zero
    mp.setattr(classical, "eigenvalue_signs", swapped)


def _congruence_by_lower(mp):
    """t z t* in place of t* z t: congruence by the lower-triangular t*,
    which moves the shape."""
    right = classical.congruence
    mp.setattr(classical, "congruence", lambda t, e: right(
        [[x.conj() for x in col] for col in zip(*t)], e))


def _one_generic_point(mp):
    """Every draw the same generic point, which passes tangency: at n = 3
    a run that sees one leaf rank only is no pass; n = 2 has no such
    rule."""
    mp.setattr(classical, "random_exact_hermitian", lambda n, rng:
               classical.HermitianMatrix([[classical.GaussRat(
                   k + 1 if k == l else 1) for l in range(n)]
                   for k in range(n)]))


def _on_call(owner, name, n, change):
    """owner.name with change(result) applied to its n-th call's result."""
    def perturb(mp):
        original, calls = getattr(owner, name), []

        def perturbed(*args):
            calls.append(args)
            out = original(*args)
            return change(out) if len(calls) == n else out
        mp.setattr(owner, name, perturbed)
    return perturb


def _t11_doubled(tM):
    """A decomposition (t, M) with t_11 = 2 in place of 1."""
    t, M = tM
    t[0][0] = classical.GaussRat(2)
    return t, M


# -- the table ---------------------------------------------------------------

def _family_witness(algebra, family):
    """The witness a family suite must give at N = 2, from the certificates
    of the CLI's sweep (`verify`, `rea verify`): their failure count and
    the first failing one.  Every sub-family must fail somewhere."""
    def witness():
        certs = checks.family_certificates(algebra, family, 2)
        failed = [c.to_json() for c in certs if c.status != "pass"]
        subs = qmatrix.FAMILIES[algebra, family][0]
        assert {c["command"].split()[-1] for c in failed} == set(subs)
        return {"failures": len(failed), "first": failed[0]}
    return witness


def _gr(re, im="0"):
    return {"re": re, "im": im}


def _z(*rows):
    return {"N": len(rows), "mode": "exact",
            "entries": [list(r) for r in rows]}


def _convolution(which, i, j, k, l, got, expected):
    """A failing convolution sum: the labels, and its value against the
    counit pairing."""
    return {"which": which, "bidegree": [len(i), len(k)], "i": i, "j": j,
            "k": k, "l": l, "got": got, "expected": expected}


_ONE, _ONES = {"0": "1"}, ((1,), (1, 1))
# the sum that a reversed twist leaves at each bidegree
_TWISTED = {"-4": "-1", "-2": "1", "0": "1", "2": "-1"}

MUTATIONS = [
    # * as the left projection: associative, but not commutative
    ("coeff.ring-axioms", 2,
     lambda mp: mp.setattr(LaurentPoly, "__mul__", lambda a, b: a), "f",
     [{"sample": 0, "law": "mul-commutative",
       "args": [{"0": "3", "2": "-5", "3": "1"}, {"-1": "3"}, {"0": "-3"}]}]),
    ("coeff.rf-canonical", 2,
     lambda mp: mp.setattr(RatFunc, "__eq__", lambda a, b: False), "f",
     [{"sample": 0, "law": "idempotent",
       "args": [{"num": {"1": "3", "3": "-5", "4": "1"}, "den": {"0": "3"}},
                {"num": {"3": "-3"},
                 "den": {"0": "-4", "1": "-1", "3": "3", "4": "2"}}]}]),
    # evaluation off by 1 at q0 > 1: sample 0 draws q0 <= 1
    ("coeff.eval-direct-substitution", 2,
     lambda mp: mp.setattr(LaurentPoly, "evaluate", lambda p, q0, right=(
         LaurentPoly.evaluate): right(p, q0) + (q0 > 1)),
     "f",
     [{"sample": 1, "law": "direct-substitution",
       "args": [{"-2": "-1", "-1": "3"}, "3/2"]}]),
    # every pair counts as dominated: the first with J <lex I fails
    ("combinatorics.dominance-refines-lex", 2,
     lambda mp: mp.setattr(indexsets, "dominated", lambda I, J: True), "f",
     [{"failures": 430, "first": ((2,), (1,))}]),
    # I_K is all of I: the first nonempty I with K = () fails
    ("combinatorics.weight-split", 2,
     lambda mp: mp.setattr(indexsets, "select", lambda I, K: I), "f",
     [{"failures": 665, "first": ((1,), ())}]),
    # T_P is the top |P| elements of T: at I = {1}, J = {2} the positions
    # P = {1} pass both lex tests with S u T^P = {2} != I
    ("combinatorics.dominance-lemma", 2,
     lambda mp: mp.setattr(indexsets, "select",
                           lambda T, P: T[len(T) - len(P):]), "f",
     [{"failures": 2702, "first": ((1,), (2,), [(1,)])}]),
    # parity 1 + 1 against 1: every draw fails, the first one first
    ("combinatorics.inversion-parity", 2,
     lambda mp: mp.setattr(indexsets, "inversions", lambda seq: 1), "f",
     [{"failures": 200, "first": ([3, 2, 1, 4], [1, 3, 2, 4])}]),
    ("braiding.braid-relation", 3, _broken_move, "pff",
     [{"word": (2, 1, 1)}] * 2),
    # R-hat sends e_1 (x) e_2 to q e_2 (x) e_1, e_2 (x) e_1 to e_1 (x) e_2
    # + ...
    ("braiding.hecke", 2, _broken_move, "pf",
     [{"word": (1, 2), "asymmetric": ((2, 1), (1, 2))}]),
    ("braiding.wedge-table", 2, _wedge_table_entries, "ffpp",
     [{"support": "inverse", "entry": ((1,), (2,), (1,), (1,)),
       "value": {"1": "1"}},
      {"diagonal": "inverse", "I": (1,), "I'": (1, 2), "got": {"2": "1"},
       "expected": {"1": "1"}}]),
    # (2,) (x) (2,) is the last of the four (I, J') pairs of degree (1, 1)
    ("braiding.wedge-composition", 2, _broken_wedge_pair, "fppp",
     [{"I": (2,), "J'": (2,), "entry": ((2,), (2,)), "got": {"1": "1"},
       "expected": {"0": "1"}}]),
    ("braiding.embed-equivariance", 2, _broken_move, "f",
     [{"k": 2, "key": (1, 2), "position": 0, "entry": (2, 1),
       "got": {"0": "-1", "1": "1", "2": "1"}, "expected": {"2": "1"}}]),
    # five of the 16 pairs fail; the first is antisym-swap's (1,), (2,)
    ("braiding.scalar-lemma", 2, _broken_move, "f",
     [{"failures": 5, "first": {
         "I": (1,), "I'": (2,), "entry": ((1,), (2,)),
         "got": {"0": "1", "2": "-1", "3": "1"}, "expected": {"0": "1"}}}]),
    ("braiding.antisym-swap", 2, _broken_move, "f",
     [{"T": (1, 2), "l": 1, "mismatch": {
         "entry": ((1,), (2,)), "got": {"0": "1", "2": "-1", "3": "1"},
         "expected": {"0": "1"}}}]),
    # the scaled rule leaves X22 X12 X11 unresolved, and reducing the
    # degree-3 span meets a leading coefficient that is no unit
    ("qmatrix.pbw-dimensions", 2,
     lambda mp: _scale_least_rule(checks.get_ctx(2).rw), "pif",
     [{"not a unit": {"-2": "-1", "-1": "1", "0": "1", "1": "-1"}},
      {"overlap": "X22*X12*X11", "entry": "X12*X12*X21",
       "got": {"-2": "1", "0": "-1"}, "expected": {"-1": "1", "1": "-1"}}]),
    ("qmatrix.counit-axiom", 3, _scaled_coproduct, "f",
     [{"sample": 0, "word": "X31*X11", "entry": "X31*X11", "got": {"1": "1"},
       "expected": {"0": "1"}}]),
    # every 1x1 minor passes: its words have length 1
    ("qmatrix.minor-coproduct", 2, _scaled_coproduct, "f",
     [{"rows": (1, 2), "cols": (1, 2), "entry": ["X11*X22", "X11*X22"],
       "got": {"1": "1"}, "expected": {"0": "1"}}]),
    ("qmatrix.convolution-certificates", 2, _bumped_rinv_entry, "ffff",
     [_convolution("rinv", I, I, K, K, got, _ONE) for (I, K), got in zip(
         product(_ONES, repeat=2),
         ({"-1": "1", "0": "1"}, {"-2": "1", "-1": "2", "0": "1"},
          {"-2": "1", "-1": "2", "0": "1"},
          {"-4": "1", "-3": "4", "-2": "6", "-1": "4", "0": "1"}))]),
    # r_minor(A, B, C, D) is entry(B, A, C, D)
    ("qmatrix.minor-table-crosscheck", 2, _scaled_minor_table_entry, "f",
     [{"which": "r", "A": (1,), "B": (2,), "C": (2,), "D": (1,),
       "table": {"0": "1", "2": "-1"}, "functional": {"-1": "1", "1": "-1"}}]),
    ("qmatrix.laplace", 2, _dropped_expansion_term, "f",
     [_family_witness("qmatrix", "laplace")]),
    ("qmatrix.muir", 2, _dropped_expansion_term, "f",
     [_family_witness("qmatrix", "muir")]),
    ("qmatrix.braidcomm", 2, _dropped_last(qmatrix, "braidcomm_factors"),
     "f", [_family_witness("qmatrix", "braidcomm")]),
    # 1 * p picks up a factor q; p * 1 does not
    ("rea.star-unit", 2,
     _scaled_star_word(lambda u, v: LP_ONE if u else LP_Q), "f",
     [{"poly": {"X22*X11": {"0": "1"}}, "side": "left", "entry": "X11*X22",
       "got": {"1": "1"}, "expected": {"0": "1"}}]),
    # (f g) h gains q^(2|f||g||h|) over f (g h): no triple associates
    ("rea.star-associativity", 2, _scaled_star_word(
        lambda u, v: LaurentPoly.q_power(len(u) ** 2 * len(v))),
     "f", [{"triple": [{"X11": {"0": "1"}}, {"X22*X21": {"0": "1"}},
                       {"X22*X11": {"0": "1"}}],
            "entry": "X11*X11*X12*X21*X21", "got": {"15": "-1", "17": "1"},
            "expected": {"7": "-1", "9": "1"}}]),
    # X11 * X11 picks up a factor q: the first of the two slots that hold
    # it breaks, its residual a nonzero multiple of X11 X11
    ("rea.reflection-equation", 2, _scaled_star_word(
        lambda u, v: LP_Q if (u, v) == ((0,), (0,)) else LP_ONE), "f",
     [{"slot": ((1, 2), (2, 1)), "entry": "X11*X11",
       "got": {"-1": "-1", "0": "1", "1": "1", "2": "-1"}, "expected": {}}]),
    ("rea.reverse-braid", 2, _scaled_star_word(lambda u, v: LP_Q), "f",
     [{"pair": [[2, 2], [1, 2]], "entry": "X12*X22", "got": {"0": "1"},
       "expected": {"-1": "1"}}]),
    # a twist on the descending generator pairs only breaks the rules: the
    # least rule's lead X12 X11 gains q over its right side
    ("rea.rewrite-crosscheck", 2,
     _scaled_star_word(lambda u, v: LP_Q if u > v else LP_ONE), "f",
     [{"rule": "X12*X11", "entry": "X11*X12", "got": {"-1": "1"},
       "expected": {"-2": "1"}}]),
    ("rea.gencomm", 2, _dropped_gencomm_term(2), "f",
     [_family_witness("rea", "gencomm")]),
    ("rea.laplace", 2, _dropped_first_contraction_term, "f",
     [_family_witness("rea", "laplace")]),
    ("rea.muir", 2, _dropped_first_contraction_term, "f",
     [_family_witness("rea", "muir")]),
    ("rea.shape-families", 2, _lost_and_swapped_families, "f",
     [{"counts": {"0": 1, "1": 2, "2": 6, "3": 4},
       "expected_counts": {"1": 3, "2": 6, "3": 4},
       "first": {"family": {"tau": [3, 2, 1], "u": ["y", "s1", "ybar"]},
                 "labels": [((3,), (1,)), ((1, 3), (1, 3)),
                            ((1, 2, 3), (1, 2, 3))],
                 "expected_tau": (2, 1, 3),
                 "expected_labels": [((2,), (1,)), ((1, 2), (1, 2)),
                                     ((1, 2, 3), (1, 2, 3))]}}]),
    ("rea.shape-ideals", 2, _edited_ideal("lex", "dom inside lex"), "f",
     [{"family": {"tau": [3, 2, 1], "u": ["y", "s1", "ybar"]},
       "condition": "dom inside lex", "label": ((1,), (1,))}]),
    # the dropped gencomm term at N = 3 fails four instances; the first is
    # the one whose designated left coefficient it was
    ("rea.qcomm", 3, _dropped_gencomm_term(3), "f",
     [{"failures": 4, "first": {
         "command": "rea qcomm", "status": "fail",
         "instance": {"shape": {"tau": [1, 2, 3], "u": ["s1", "s2", "s3"]},
                      "k": 1, "I": [1], "J": [1]},
         "witness": {"reason": "designated coefficient mismatch",
                     "left": None, "right": {"-2": "1"},
                     "expected_left": {"-2": "1"},
                     "expected_right": {"-2": "1"}}}}]),
    # the classical side reads i times the negated coefficient, the quantum
    # side still its negative
    ("rea.semiclassical", 2, _negated_bracket_coefficient, "f",
     [{"failures": 1, "first": {
         "command": "rea semiclassical",
         "instance": {"ij": [1, 1], "kl": [1, 2]}, "status": "fail",
         "witness": {"constant_ok": True, "entry": "((1, 1), (1, 2))",
                     "quantum": "2", "classical": "-2"}}}]),
    ("classical.shape-roundtrip", 1, _doubled_weights, "f",
     [{"failures": 73, "first": {
         "sample": 0, "shape": {"tau": [1], "u": [_gr("-1")]},
         "weights": ["-1/3"], "z": _z([_gr("-2/3")]),
         "shape_of": {"tau": [1], "u": [_gr("-1")]},
         "power_sum": {"m": 1, "trace": _gr("-2/3"), "expected": "-1/3"}}}]),
    ("classical.sign-compatibility", 1, _swapped_signs, "f",
     [{"failures": 70, "first": {
         "sample": 0, "z": _z([_gr("-75/16")]), "shape_signs": [0, 1, 0],
         "eigenvalue_signs": [1, 0, 0]}}]),
    ("classical.tn-invariance", 2, _congruence_by_lower, "f",
     [{"failures": 22, "first": {
         "sample": 0, "element": "general",
         "t": [[_gr("2/3"), _gr("-5/6", "-5/6")], [_gr("0"), _gr("3/4")]],
         "z": _z([_gr("949/72"), _gr("5/12", "95/8")],
                 [_gr("5/12", "-95/8"), _gr("25/8")])}}]),
    # on the third draw only
    ("classical.decompose", 1,
     _on_call(classical, "decompose", 3, _t11_doubled), "f",
     [{"failures": 1, "first": {
         "sample": 2, "z": _z([_gr("2")]), "t": [[_gr("2")]],
         "M": _z([_gr("2")]), "law": "z = t* M t", "entry": [1, 1],
         "got": _gr("8"), "expected": _gr("2")}}]),
    # the first draw with z_11 z_22 != 0 breaks {Z_11, Z_12} = -{Z_12, Z_11}
    ("classical.bivector-antisymmetry", 2, perturbed_bracket, "f",
     [{"sample": 2, "law": "antisymmetry", "entry": [[1, 1], [1, 2]],
       "got": _gr("-27/5", "-29/25"), "expected": _gr("-27/5", "-3")}]),
    # a non-real bracket value fails its sample; the ranks read the real
    # parts, whose rank at n = 2 is 2 where the complex rank is 3
    ("classical.tangency", 2, perturbed_bracket, "ff",
     [{"failures": 21, "bivector_ranks": [0, 2, 3], "first": {
         "sample": 2, "bivector_rank": 3, "unitary_dim": 2,
         "triangular_dim": 4, "intersection_dim": 2, "equal": False}},
      {"failures": 10, "bivector_ranks": [0, 2, 4, 5, 7], "first": {
          "sample": 2, "bivector_rank": 7, "unitary_dim": 6,
          "triangular_dim": 8, "intersection_dim": 5, "equal": False}}]),
    # the first nonzero cyclic sum and its first term
    ("classical.jacobi", 2, perturbed_bracket, "ff",
     [{"nonzero_cyclic_polys": n, "first": {
         "triple": ((1, 1), (1, 2), (1, 2)),
         "monomial": ((1, 1), (1, 1), (1, 2)), "coefficient": _gr("2")},
       "max_residual": residual} for n, residual in (
           (12, _gr("219375/4")), (78, _gr("5036796/125", "1047924/125")))]),
]

MORE_MUTATIONS = [
    # r' is r^{-1} twisted: a wrong twist fails r' only
    ("qmatrix.convolution-certificates twist", 2, _reversed_twist, "ffff",
     [_convolution("rpr", *labels, _TWISTED, {}) for labels in (
         ((1,), (2,), (2,), (1,)), ((1,), (2,), (1, 2), (1, 1)),
         ((1, 1), (1, 2), (2,), (1,)), ((1, 1), (1, 2), (1, 2), (1, 1)))]),
    ("rea.rewrite-crosscheck overlap", 2, _scaled_rea_rule, "f",
     [{"overlap": "X21*X12*X11", "entry": "X11*X11*X11",
       "got": {"0": "1", "2": "-1"}, "expected": {"1": "1", "3": "-1"}}]),
    ("rea.rewrite-crosscheck rule-count", 2, _three_slots, "f",
     [{"error": "2 rules, expected 6: relation rank is off"}]),
    ("rea.laplace expansion", 2, _dropped_expansion_term, "f",
     [_family_witness("rea", "laplace")]),
    ("rea.muir expansion", 2, _dropped_expansion_term, "f",
     [_family_witness("rea", "muir")]),
    ("rea.shape-ideals dom-closure", 2,
     _edited_ideal("dom", "dom adjoint-closed"), "f",
     [{"family": {"tau": [3, 2, 1], "u": ["y", "s1", "ybar"]},
       "condition": "dom adjoint-closed", "label": ((2,), (1,))}]),
    ("rea.shape-ideals lex-closure", 2,
     _edited_ideal("lex", "lex adjoint-closed"), "f",
     [{"family": {"tau": [3, 2, 1], "u": ["y", "s1", "ybar"]},
       "condition": "lex adjoint-closed", "label": ((1,), (2, 3))}]),
    # every draw passes, but at n = 3 one leaf rank is no pass
    ("classical.tangency one-rank", 2, _one_generic_point, "pf",
     [{"failures": 0, "bivector_ranks": [6], "first": None}]),
    ("classical.tangency third-draw", 2, _on_call(
        classical, "leaf_tangency_check", 3,
        lambda rep: {**rep, "equal": False}), "fp",
     [{"failures": 1, "bivector_ranks": [0, 2], "first": {
         "sample": 2, "bivector_rank": 2, "unitary_dim": 2,
         "triangular_dim": 4, "intersection_dim": 2, "equal": False}}]),
]

ROWS = {row[0]: row for row in MUTATIONS + MORE_MUTATIONS}


def test_every_suite_has_one_row():
    """A suite cannot land without its row; no two rows share a label."""
    assert [row[0] for row in MUTATIONS] == [name for name, _ in checks.CHECKS]
    assert len(ROWS) == len(MUTATIONS) + len(MORE_MUTATIONS)


def check_row(label):
    """Run the row `label` and assert its statuses and witnesses."""
    _label, N, perturb, statuses, witnesses = ROWS[label]
    with pytest.MonkeyPatch.context() as mp:
        fresh_memos(mp)
        perturb(mp)
        certs = dict(checks.CHECKS)[label.split()[0]](N, 0)
        assert "".join(c.status[0] for c in certs) == statuses
        assert [c.witness for c in certs if c.status != "pass"] == [
            w() if callable(w) else w for w in witnesses]


@pytest.mark.parametrize("label", ROWS)
def test_suite_fails_with_its_first_failure(label):
    check_row(label)


def row_test(*labels, ids=None):
    """A test that runs the rows `labels`; with `ids`, one test per row,
    under those ids.  The failure-witness tests of the suites kept their
    names when their assertions moved into this table."""
    if ids is not None:
        def test(label):
            check_row(label)
        return pytest.mark.parametrize("label", labels, ids=ids)(test)

    def test():
        for label in labels:
            check_row(label)
    return test
