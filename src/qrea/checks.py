"""Registry of named verification suites behind `check-all`.

Every invariant promised by a module appears here as a named suite
producing certificates.  CHECKS lists them and is the one table of
check-all's size caps: a capped suite takes the size n it runs at, and its
row, `upto(reach, suite)`, runs it at n = min(N, reach).  Suites are
deterministic given (n, seed), with n = min(N, reach) (n = N for a suite
without a reach), and emit certificates in a canonical instance order.

The verdict functions of the other modules return None or their first
failure, and the suites here make the certificates: a certificate fails
exactly when its verdict function returned a failure, and that failure is
its witness (`Certificate.verdict`).  A check that stops at its first
failure carries it as it is; a sweep that counts its failures carries
{"failures": n, "first": ...}, `_failures_witness`.  A sweep over seeded
random draws goes through `_sampled`, the one owner of its counting
witness: each draw's verdict returns None or its failure, and the first
failure carries its draw index as "sample".  A witness is built only when
something failed.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb

from . import braiding, classical, coeff, indexsets, qmatrix, rea, shapes
from .linalg import add_term, first_difference
from .memo import Memo, memos_of, module_memos
from .qmatrix import Certificate

_CTX_CACHE = Memo(qmatrix.QContext)
_STAR_CACHE = Memo(lambda N: rea.StarAlgebra(N, get_ctx(N)))


def get_ctx(N):
    return _CTX_CACHE[N]


def get_star(N):
    return _STAR_CACHE[N]


def memo_sizes():
    """{"Owner.attr": entries} of the memos of the suite contexts, summed
    over contexts: every `Memo` of a twisted product, a context, its
    rewriting system, bicharacter (the functionals' memos together) and
    wedge tables, and the rewriting systems' suffix states; and, under
    "module.NAME", every module-level memo (`memo.module_memos`) but the
    context caches of this module."""
    sizes = {}

    def add(name, memos):
        sizes[name] = sizes.get(name, 0) + sum(map(len, memos))
    for module, attr, value in module_memos():
        if module.__name__ != __name__:
            add(f"{module.__name__.rpartition('.')[2]}.{attr}",
                memos_of(value))
    owners = list(_STAR_CACHE.values())
    for ctx in _CTX_CACHE.values():
        owners += [ctx, ctx.rw, ctx.bich, *ctx._tables.values()]
    for owner in owners:
        for attr, value in vars(owner).items():
            memos = [value] if attr == "_nf_memo" else memos_of(value)
            if memos:
                add(f"{type(owner).__name__}.{attr}", memos)
    return sizes


# -- identity families ---------------------------------------------------------
# qmatrix.FAMILIES is their table.  A "qmatrix" family compares the two sides
# of qmatrix.identity_sides in the quantum matrix algebra, a "rea" family
# those of rea.rea_sides in the twisted product.  One sweep, _family_sweep,
# runs both the check-all suites and the CLI's `verify` and `rea verify`:
# a suite compares the sides and certifies only its first failing instance,
# the CLI certifies every instance (qmatrix.identity_certificate).

def _family_sides(algebra, N):
    """The two-sides function (sub-family, instance) -> (lhs, rhs) of an
    identity family's algebra at size N, for one sweep."""
    if algebra == "qmatrix":
        return partial(qmatrix.identity_sides, get_ctx(N))
    return rea.rea_sides(get_star(N))


def _family_sweep(algebra, family, N, instances=None, **bounds):
    """(sub-family, instance, lhs, rhs) for every instance, by default the
    family's sweep within `bounds`, and each sub-family of an identity
    family at size N: lhs == rhs is the instance of the identity."""
    subs, sweep, _keys = qmatrix.FAMILIES[algebra, family]
    if instances is None:
        instances = sweep(N, **bounds)
    sides = _family_sides(algebra, N)
    return ((sub, inst, *sides(sub, inst)) for inst in instances
            for sub in subs)


def family_certificates(algebra, family, N, instances=None):
    """Verify each sub-family of an identity family at size N on every
    instance, by default on its sweep within its check-all row's bounds."""
    row = dict(CHECKS)[f"{algebra}.{family}"]
    return [qmatrix.identity_certificate(algebra, *sides) for sides
            in _family_sweep(algebra, family, N, instances,
                             **_bounds(row.inner, N))]


def _family_suite(algebra, family):
    """The check-all suite of an identity family: its sweep at size n within
    the row's bounds, summed up in one certificate.  Each instance's two
    sides are compared directly; only a failing instance gets a certificate
    of its own, and the suite's failure witness counts the failing
    instances and carries the first one's certificate."""
    def suite(n, seed, **bounds):
        count, failures, first = 0, 0, None
        for sub, inst, lhs, rhs in _family_sweep(algebra, family, n,
                                                 **bounds):
            count += 1
            if lhs != rhs:
                failures += 1
                if first is None:
                    first = qmatrix.identity_certificate(
                        algebra, sub, inst, lhs, rhs).to_json()
        return [Certificate.verdict(
            f"{algebra} {family}", {"N": n, "instances": count},
            {"failures": failures, "first": first} if failures else None)]
    return suite


# -- coeff ---------------------------------------------------------------------

def _random_laurent(rng):
    return coeff.LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5)
                              for _ in range(rng.randint(0, 4))})


def _random_ratfunc(rng):
    num = _random_laurent(rng)
    den = coeff.LaurentPoly()
    while den.is_zero():
        den = _random_laurent(rng)
    return coeff.RatFunc(num, den)


def _failures_witness(bad):
    """The failure of a counting sweep whose failures are `bad`: None if
    there are none, else the failure count and the first."""
    return {"failures": len(bad), "first": bad[0]} if bad else None


def _sampled(command, instance, seed, count, sample):
    """The certificate of a sweep over `count` draws from one
    coeff.Random(seed): sample(rng) returns None or one draw's failure, and
    the witness counts the failing draws and carries the first, with its
    draw index under "sample" (`_failures_witness`)."""
    rng = coeff.Random(seed)
    bad = [{"sample": i, **failure} for i in range(count)
           if (failure := sample(rng)) is not None]
    return Certificate.verdict(command, instance, _failures_witness(bad),
                               seed=seed)


def _units_law(a, b, c):
    """a * a.inv() == 1 for a unit +-q^k; NotAUnit for any other a."""
    unit = len(a.terms) == 1 and abs(*a.terms.values()) == 1
    try:
        inv = a.inv()
    except coeff.NotAUnit:
        return not unit
    return unit and a * inv == coeff.LP_ONE


_RING_LAWS = (
    ("add-associative", lambda a, b, c: (a + b) + c == a + (b + c)),
    ("add-commutative", lambda a, b, c: a + b == b + a),
    ("mul-associative", lambda a, b, c: (a * b) * c == a * (b * c)),
    ("mul-commutative", lambda a, b, c: a * b == b * a),
    ("distributive", lambda a, b, c: a * (b + c) == a * b + a * c),
    ("units", _units_law),
)

_CANONICAL_LAWS = (
    ("idempotent", lambda a, b: coeff.RatFunc(a.num, a.den) == a),
    ("cross-multiplication",
     lambda a, b: (a == b) == ((a.num * b.den) == (b.num * a.den))),
)


def _direct_substitution(p, q0):
    direct = sum((c * q0 ** e for e, c in p.terms.items()), Fraction(0))
    return p.evaluate(q0) == direct


def _broken_law(laws, *args):
    """The first of the (name, law) pairs that the draw args breaks, with
    the draw, as the failure of a `_sampled` draw; None when all hold."""
    name = next((name for name, law in laws if not law(*args)), None)
    return name and {"law": name,
                     "args": [x.to_json() if hasattr(x, "to_json") else str(x)
                              for x in args]}


def check_coeff_ring_axioms(N, seed):
    """The ring laws of LaurentPoly, the ring the quantum side computes in,
    and its units law, on 1000 random triples."""
    return [_sampled("coeff ring-axioms", {"triples": 1000}, seed, 1000,
                     lambda rng: _broken_law(_RING_LAWS, *(
                         _random_laurent(rng) for _ in range(3))))]


def check_coeff_rf_canonical(N, seed):
    return [_sampled("coeff rf-canonical", {"samples": 300}, seed, 300,
                     lambda rng: _broken_law(_CANONICAL_LAWS,
                                             _random_ratfunc(rng),
                                             _random_ratfunc(rng)))]


def check_coeff_eval(N, seed):
    return [_sampled("coeff eval-direct-substitution", {"points": 20}, seed,
                     20, lambda rng: _broken_law(
                         (("direct-substitution", _direct_substitution),),
                         _random_laurent(rng),
                         Fraction(rng.randint(1, 9), rng.randint(1, 9))))]


# -- combinatorics ---------------------------------------------------------------

def check_dominance_refines_lex(N, seed):
    bad = [(I, J) for k in range(1, 7)
           for I, J in product(indexsets.subsets(6, k), repeat=2)
           if indexsets.dominated(I, J) and J < I]
    return [Certificate.verdict("combinatorics dominance-refines-lex",
                                {"N": 6}, _failures_witness(bad))]


def check_weight_split(N, seed):
    bad = []
    for k in range(0, 7):
        for I in indexsets.subsets(6, k):
            for l in range(0, k + 1):
                for K in indexsets.subsets(k, l):
                    IK, IKc = indexsets.select(I, K), indexsets.rest(I, K)
                    if sum(IK) + sum(IKc) != sum(I):
                        bad.append((I, K))
    return [Certificate.verdict("combinatorics weight-split", {"N": 6},
                                _failures_witness(bad))]


def check_comb_lemma_sweep(N, seed):
    n = min(max(N, 6), 7)
    count, bad = indexsets.sweep_comb_lemma(n)
    return [Certificate.verdict("combinatorics dominance-lemma",
                                {"N": n, "pairs": count},
                                _failures_witness(bad))]


def check_inversion_parity(N, seed):
    def sample(rng):
        n = rng.randint(1, 6)
        a = list(range(1, n + 1))
        b = a[:]
        rng.shuffle(a)
        rng.shuffle(b)
        comp = [a[b[i] - 1] for i in range(n)]
        par = (indexsets.inversions(a) + indexsets.inversions(b)) % 2
        return (None if indexsets.inversions(comp) % 2 == par
                else {"a": a, "b": b})
    return [_sampled("combinatorics inversion-parity", {"samples": 200},
                     seed, 200, sample)]


# -- braiding -----------------------------------------------------------------------

def check_braid_relation(n, seed):
    out = []
    for m in range(1, n + 1):
        word = braiding.braid_relation_check(m)
        out.append(Certificate.verdict(
            "braiding braid-relation", {"N": m},
            None if word is None else {"word": word}))
    return out


def check_hecke(n, seed):
    out = []
    for m in range(1, n + 1):
        word = braiding.hecke_check(m)
        entry = braiding.symmetry_check(m)
        out.append(Certificate.verdict(
            "braiding hecke", {"N": m}, None if word is None and entry is None
            else {"word": word, "asymmetric": entry}))
    return out


def wedge_table_mismatch(tbl):
    """The support condition of a wedge table and of its inverse, and its
    diagonal values; the wedge-table suite and `qrea wedge-table --check`.
    Returns None, or the first entry that breaks one of them."""
    for kind, table in (("direct", tbl.entries), ("inverse", tbl.inv_entries)):
        key = tbl.support_violation(table)
        if key is not None:
            return {"support": kind, "entry": key,
                    "value": table[key].to_json()}
    return tbl.diagonal_mismatch()


def check_wedge_tables(n, seed, kmax):
    out = []
    ctx = get_ctx(n)
    for k, l in product(range(1, kmax + 1), repeat=2):
        bad = wedge_table_mismatch(ctx.table(k, l))
        out.append(Certificate.verdict(
            "braiding wedge-table", {"N": n, "k": k, "l": l}, bad))
    return out


def check_wedge_composition(n, seed, kmax):
    out = []
    ctx = get_ctx(n)
    for k, l in product(range(1, kmax + 1), repeat=2):
        bad = ctx.table(k, l).composition_identity_check()
        out.append(Certificate.verdict(
            "braiding wedge-composition", {"N": n, "k": k, "l": l}, bad))
    return out


def check_embed_equivariance(n, seed, kmax):
    bad = next(filter(None, (braiding.embed_equivariance_check(n, k)
                             for k in range(1, kmax + 1))), None)
    return [Certificate.verdict("braiding embed-equivariance", {"N": n}, bad)]


def check_scalar_lemma(n, seed):
    subs = [c for k in range(n + 1) for c in indexsets.subsets(n, k)]
    bad = [{"I": I, "I'": Ip, **miss} for I, Ip in product(subs, repeat=2)
           if (miss := braiding.rmatrix_lemma_check(I, Ip))]
    return [Certificate.verdict("braiding scalar-lemma",
                                {"N": n, "pairs": len(subs) ** 2},
                                _failures_witness(bad))]


def check_antisym_swap(n, seed):
    """The scalar lemma on disjoint pairs: the inverse braiding swaps the
    antisymmetrised pair vectors of each T, split after l letters.  The
    witness is the first failing (T, l) with its mismatch."""
    misses = ((T, l, braiding.rmatrix_lemma_check(T[:l], T[l:]))
              for t in range(1, n + 1) for T in indexsets.subsets(n, t)
              for l in range(t + 1))
    failed = next(({"T": T, "l": l, "mismatch": miss}
                   for T, l, miss in misses if miss), None)
    return [Certificate.verdict("braiding antisym-swap", {"N": n}, failed)]


# -- qmatrix ---------------------------------------------------------------------------

def check_pbw_dimensions(n, seed):
    out = []
    for m in range(min(2, n), n + 1):
        ctx = get_ctx(m)
        dmax = 3 if m <= 3 else 2
        for d in range(2, dmax + 1):
            if m == 3 and d == 3:
                # cheap (C(11, 3)), but left out to keep the pinned N=3
                # digests of tier-1 and perfbench's check-n3 reference
                continue
            instance = {"N": m, "degree": d}
            try:
                dim = qmatrix.degree_dimension(m, ctx.rw, d)
            except coeff.NotAUnit as exc:     # a span with a non-unit pivot
                out.append(Certificate(
                    "qmatrix pbw-dimension", instance, "inconclusive",
                    witness={"not a unit": exc.args[0].to_json()}))
                continue
            expected = comb(m * m + d - 1, d)
            out.append(Certificate.verdict(
                "qmatrix pbw-dimension", instance, None if dim == expected
                else {"dimension": dim, "expected": expected}))
        failure = ctx.rw.critical_pair_failure()
        out.append(Certificate.verdict(
            "qmatrix confluence", {"N": m}, failure))
    return out


def check_counit_coassoc(n, seed):
    """(epsilon (x) id) Delta w = w on 50 random words; the first failure
    names its word and its first mismatching word."""
    def sample(rng):
        w = tuple(rng.randrange(n * n) for _ in range(rng.randint(1, 3)))
        p = qmatrix.NCPoly(n, {w: coeff.LP_ONE})
        left = {}
        for (w1, w2), c in qmatrix.coproduct(p).items():
            if qmatrix.counit_word(w1, n):
                add_term(left, w2, c)
        return None if left == p.coeffs else {
            "word": qmatrix.word_str(w, n),
            **qmatrix.word_difference(left, p.coeffs, n)}
    return [_sampled("qmatrix counit-axiom", {"N": n, "words": 50}, seed, 50,
                     sample)]


def _nf_pair_accumulate(rw, pairs, acc):
    for (w1, w2), c in pairs.items():
        for m1, c1 in rw.nf_word(w1).items():
            for m2, c2 in rw.nf_word(w2).items():
                add_term(acc, (m1, m2), c * c1 * c2)
    return acc


def check_minor_coproduct(n, seed):
    """Delta on a minor equals the sum over intermediate index sets.

    The identity lives in the quotient, so both tensor legs are compared
    in normal form; the sum side, by bilinearity, from the minors' normal
    forms.  The check stops at the first failing minor; the witness is
    that minor and the first (left, right) word pair at which the two
    sides differ.
    """
    ctx = get_ctx(n)
    failure = None
    minors = (labels for k in range(1, n + 1)
              for labels in product(indexsets.subsets(n, k), repeat=2))
    for rows, cols in minors:
        p = qmatrix.quantum_minor(n, rows, cols)
        got = _nf_pair_accumulate(ctx.rw, qmatrix.coproduct(p), {})
        expected = {}
        for K in indexsets.subsets(n, len(rows)):
            right = ctx.minor_nf(K, cols).coeffs
            for m1, c1 in ctx.minor_nf(rows, K).coeffs.items():
                for m2, c2 in right.items():
                    add_term(expected, (m1, m2), c1 * c2)
        if got != expected:
            miss = first_difference(got, expected)
            failure = {"rows": rows, "cols": cols, **miss,
                       "entry": [qmatrix.word_str(w, n)
                                 for w in miss["entry"]]}
            break
    return [Certificate.verdict("qmatrix minor-coproduct", {"N": n}, failure)]


def check_convolution_certificates(n, seed):
    """r^{-1} and then r' re-substituted at each bidegree; the witness is
    the first failing sum, r^{-1} before r' (`certify_bidegree`)."""
    bich = get_ctx(n).bich
    out = []
    for (s, t) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        failure = next(({"which": which, "bidegree": [s, t], **miss}
                        for which in ("rinv", "rpr")
                        if (miss := bich.certify_bidegree(s, t, which))),
                       None)
        out.append(Certificate.verdict(
            "qmatrix convolution-certificate", {"N": n, "bidegree": [s, t]},
            failure))
    return out


def _minor_table_mismatch(ctx):
    """The first (which, A, B, C, D), in label order, whose wedge-table
    entry (r_minor, rinv_minor) differs from the word-level functional r or
    r^{-1} on the two minor polynomials, as a witness with both values; None
    when all agree.  The functionals are read off column images by
    `QContext.functional_on_minors`."""
    n = ctx.N
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            values = {which: ctx.functional_on_minors(which, k, l)
                      for which in ("r", "rinv")}
            for A, B in product(indexsets.subsets(n, k), repeat=2):
                for C, D in product(indexsets.subsets(n, l), repeat=2):
                    for which, table in (("r", ctx.r_minor),
                                         ("rinv", ctx.rinv_minor)):
                        got = table(A, B, C, D)
                        value = values[which][A, B, C, D]
                        if got != value:
                            return {"which": which, "A": A, "B": B, "C": C,
                                    "D": D, "table": got.to_json(),
                                    "functional": value.to_json()}
    return None


def check_minor_table_crosscheck(n, seed):
    """The functional tables on minor pairs against the wedge braiding.  The
    witness is the first (which, A, B, C, D) whose table entry and
    functional value differ, with both values."""
    failure = _minor_table_mismatch(get_ctx(n))
    return [Certificate.verdict("qmatrix minor-table-crosscheck", {"N": n},
                                failure)]


# -- rea ------------------------------------------------------------------------------------

def check_star_unit(n, seed):
    star = get_star(n)
    failure = star.unit_check(rea.random_monomials(n, 2, 10, seed))
    return [Certificate.verdict("rea star-unit", {"N": n}, failure, seed=seed)]


def check_star_associativity(n, seed):
    star = get_star(n)
    rng = coeff.Random(seed)
    monos = rea.random_monomials(n, 2, 9, seed)
    triples = [tuple(rng.sample(monos, 3)) for _ in range(5)]
    failure = star.associativity_check(triples)
    return [Certificate.verdict("rea star-associativity",
                                {"N": n, "triples": len(triples)}, failure,
                                seed=seed)]


def check_reflection(n, seed):
    out = []
    for m in range(min(2, n), n + 1):
        failure = rea.reflection_equation_check(get_star(m))
        out.append(Certificate.verdict("rea reflection", {"N": m}, failure))
    return out


def check_reverse_braid(n, seed):
    star = get_star(n)
    rng = coeff.Random(seed)
    pairs = [((rng.randint(1, n), rng.randint(1, n)),
              (rng.randint(1, n), rng.randint(1, n))) for _ in range(20)]
    failure = star.reverse_braid_check(pairs)
    return [Certificate.verdict("rea reverse-braid", {"N": n, "pairs": 20},
                                failure, seed=seed)]


def check_rea_rewrite(n, seed):
    out = []
    for m in range(min(2, n), n + 1):
        try:
            failure = rea.rewrite_check(m)
        except qmatrix.NonOrientable as exc:
            failure = {"error": str(exc)}
        out.append(Certificate.verdict("rea rewrite-crosscheck", {"N": m},
                                       failure))
    return out


# the published N=3 table: family counts by rank, and tau with the chain
# minor labels of each rank-3 family
SHAPE_COUNTS_N3 = {3: 4, 2: 6, 1: 3}
SHAPE_RANK3_N3 = [
    ((1, 2, 3), [((1,), (1,)), ((1, 2), (1, 2)), ((1, 2, 3), (1, 2, 3))]),
    ((2, 1, 3), [((2,), (1,)), ((1, 2), (1, 2)), ((1, 2, 3), (1, 2, 3))]),
    ((3, 2, 1), [((3,), (1,)), ((1, 3), (1, 3)), ((1, 2, 3), (1, 2, 3))]),
    ((1, 3, 2), [((3,), (2,)), ((2, 3), (2, 3)), ((1, 2, 3), (1, 2, 3))]),
]


def check_shape_families(N, seed):
    by_rank = {}
    for s in shapes.enumerate_shapes(3):
        by_rank.setdefault(s.rank, []).append(s)
    counts_ok = all(len(by_rank.get(rank, [])) == count
                    for rank, count in SHAPE_COUNTS_N3.items())
    wrong = [(s, tau, lab) for s, (tau, lab)
             in zip(by_rank.get(3, []), SHAPE_RANK3_N3)
             if s.tau != tau or s.minor_labels() != lab]
    failure = None
    if not counts_ok or wrong:
        failure = {"counts": {str(rank): len(fams)
                              for rank, fams in sorted(by_rank.items())},
                   "expected_counts": {str(rank): count for rank, count
                                       in sorted(SHAPE_COUNTS_N3.items())}}
    if wrong:
        s, tau, lab = wrong[0]
        failure["first"] = {"family": s.to_json(), "labels": s.minor_labels(),
                            "expected_tau": tau, "expected_labels": lab}
    return [Certificate.verdict("rea shape-families", {"N": 3}, failure)]


def _shape_ideal_failure(shape):
    """The first broken condition of one family's two shape ideals, with
    its least offending label, or None."""
    dom = shapes.build_shape_ideal(shape, "dom")
    lex = shapes.build_shape_ideal(shape, "lex")
    conditions = (
        ("dom inside lex", dom - lex),
        ("dom adjoint-closed", {(I, J) for I, J in dom if (J, I) not in dom}),
        ("lex adjoint-closed", {(I, J) for I, J in lex if (J, I) not in lex}))
    for name, bad in conditions:
        if bad:
            return {"family": shape.to_json(), "condition": name,
                    "label": min(bad)}
    return None


def check_shape_ideals(N, seed):
    failure = next(filter(None, map(_shape_ideal_failure,
                                    shapes.enumerate_shapes(3))), None)
    return [Certificate.verdict("rea shape-ideals", {"N": 3}, failure)]


def _qcomm_instances(N, fams):
    """(family, level k, I, J): every chain minor of each shape family with
    every minor of size 1 and 2."""
    return [(s, k, I, J)
            for s in fams for k in range(1, s.rank + 1) for m in (1, 2)
            for I in indexsets.subsets(N, m)
            for J in indexsets.subsets(N, m)]


def qcomm_certificates(N, fams):
    """The q-commutation certificates of every chain minor of each shape
    family with every minor of size 1 and 2; `rea qcomm`."""
    ctx = get_ctx(N)
    return [shapes.shape_qcomm_certificate(ctx, *inst)
            for inst in _qcomm_instances(N, fams)]


def check_qcomm(N, seed):
    """The statuses of the `rea qcomm` instances at N = 3; only the first
    that does not pass (fails or is inconclusive) gets a certificate."""
    n = 3
    ctx = get_ctx(n)
    instances = _qcomm_instances(n, shapes.enumerate_shapes(n))
    bad = [inst for inst in instances
           if shapes.qcomm_status(ctx, *inst)[0] != "pass"]
    return [Certificate.verdict(
        "rea qcomm", {"N": n, "instances": len(instances)}, {
            "failures": len(bad),
            "first": shapes.shape_qcomm_certificate(ctx, *bad[0]).to_json()}
        if bad else None)]


def semiclassical_certificates(N):
    """The first-order twisted commutator of every pair of generators
    against the Poisson bracket; `rea semiclassical` and check-all."""
    star = get_star(N)
    table = classical.poisson_bracket_coeffs(N)
    gens = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    out = []
    for ij, kl in product(gens, repeat=2):
        failure = rea.semiclassical_bracket_check(star, ij, kl, table)
        out.append(Certificate.verdict(
            "rea semiclassical", {"ij": list(ij), "kl": list(kl)}, failure))
    return out


def check_semiclassical(n, seed):
    out = []
    for m in range(min(2, n), n + 1):
        certs = semiclassical_certificates(m)
        bad = [c.to_json() for c in certs if c.status != "pass"]
        out.append(Certificate.verdict(
            "rea semiclassical", {"N": m, "pairs": len(certs)},
            _failures_witness(bad)))
    return out


# -- classical ------------------------------------------------------------------------

def power_sum_mismatch(z, lam):
    """The first m at which tr z^m differs from the sum of the lam_i^m, as
    a witness, or None: then z has the spectrum lam, since the power sums
    for m = 1..N fix a multiset of N numbers."""
    for m, got in enumerate(classical.power_sums(z), start=1):
        want = sum(x ** m for x in lam)
        if got != want:
            return {"m": m, "trace": got.to_json(), "expected": str(want)}
    return None


def check_shape_roundtrip(n, seed):
    def sample(rng):
        S = classical.random_shape(rng.randint(1, n), rng)
        lam = classical.random_compatible_weights(S, rng)
        z = classical.build_leaf_point(S, lam)
        shape = classical.shape_of(z)
        spectrum = power_sum_mismatch(z, lam)
        if spectrum or shape != S:
            return {"shape": S.to_json(), "weights": [str(x) for x in lam],
                    "z": z.to_json(), "shape_of": shape.to_json(),
                    "power_sum": spectrum}
        return None
    return [_sampled("classical shape-roundtrip", {"samples": 100}, seed,
                     100, sample)]


def sign_mismatch(z, shape):
    """None if the eigenvalues of z have the signs that `shape` counts
    (`ShapeMatrix.sign_multiset`), else both counts as a witness; the
    sign-compatibility suite and `qrea classical leaf`."""
    signs = classical.eigenvalue_signs(z)
    if shape.sign_multiset() == signs:
        return None
    return {"shape_signs": list(shape.sign_multiset()),
            "eigenvalue_signs": list(signs)}


def check_sign_compat(n, seed):
    def sample(rng):
        z = classical.random_exact_hermitian(rng.randint(1, n), rng)
        w = sign_mismatch(z, classical.shape_of(z))
        return w and {"z": z.to_json(), **w}
    return [_sampled("classical sign-compatibility", {"samples": 100}, seed,
                     100, sample)]


def tn_invariance_sample(n, rng):
    """Draw one exact Hermitian z of size n from rng, with three exact
    triangular t: an elementary shear, a diagonal and a general one.  None
    if t* z t has the shape of z for all three, else a witness naming the
    first t that changes the shape, and z.  The tn-invariance suite and
    `qrea classical invariance` read it, each adding the draw's index."""
    z = classical.random_exact_hermitian(n, rng)
    lam = classical.random_ratio(rng)
    shear = classical.gr_identity(n)
    if n >= 2:
        shear[0][1] = classical.GaussRat.from_ints(
            *lam, *classical.random_ratio(rng))
    diag = classical.gr_identity(n)
    for k in range(n):
        diag[k][k] = classical.GaussRat.from_ints(rng.randint(1, 5),
                                                  rng.randint(1, 5))
    ts = {"shear": shear, "diagonal": diag,
          "general": classical.random_triangular(n, rng)}
    moved = classical.tn_invariance_check(z, list(ts.values()))
    return None if moved is None else {
        "element": next(name for name, t in ts.items() if t is moved),
        "t": [[e.to_json() for e in row] for row in moved],
        "z": z.to_json()}


def check_tn_invariance(n, seed):
    return [_sampled("classical tn-invariance", {"N": n, "samples": 100},
                     seed, 100, partial(tn_invariance_sample, n))]


def decompose_mismatch(z, t, M):
    """The first way in which (t, M) fails to decompose z, as a witness, or
    None: z = t* M t entry by entry, in row-major order, then t unit upper
    triangular, then the shape read off M equal to shape_of(z)."""
    n, tmt, e = z.N, classical.congruence(t, M).entries, z.entries
    for i, j in product(range(n), repeat=2):
        if tmt[i][j] != e[i][j]:
            return {"law": "z = t* M t", "entry": [i + 1, j + 1],
                    "got": tmt[i][j].to_json(), "expected": e[i][j].to_json()}
    for i, j in product(range(n), repeat=2):
        if j <= i and t[i][j] != int(i == j):
            return {"law": "unit upper triangular", "entry": [i + 1, j + 1],
                    "got": t[i][j].to_json()}
    expected = classical.shape_of(z)
    try:
        shape = classical.reduced_shape(M)
    except ValueError as exc:
        return {"law": "reduced", "error": str(exc)}
    if shape != expected:
        return {"law": "shape", "shape": shape.to_json(),
                "shape_of": expected.to_json()}
    return None


def check_decompose(n, seed):
    def sample(rng):
        z = classical.random_exact_hermitian(rng.randint(1, n), rng)
        t, M = classical.decompose(z)
        w = decompose_mismatch(z, t, M)
        return w and {"z": z.to_json(),
                      "t": [[e.to_json() for e in row] for row in t],
                      "M": M.to_json(), **w}
    return [_sampled("classical decompose", {"samples": 50}, seed, 50,
                     sample)]


def bivector_mismatch(z):
    """The first entry at which the exact bracket values at z break
    antisymmetry, {Z_ij, Z_kl} = -{Z_kl, Z_ij}, or reality,
    conj {Z_ij, Z_kl} = {Z_ji, Z_lk} (the bracket of real coordinates is
    real at Hermitian z), as a witness; None when both hold."""
    pi, N = classical.bracket_at(z), z.N
    for a, b in product(range(N * N), repeat=2):
        (i, j), (k, l) = divmod(a, N), divmod(b, N)
        for law, got, expected in (
                ("antisymmetry", pi[a][b], -pi[b][a]),
                ("reality", pi[a][b].conj(), pi[j * N + i][l * N + k])):
            if got != expected:
                return {"law": law, "entry": [[i + 1, j + 1], [k + 1, l + 1]],
                        "got": got.to_json(), "expected": expected.to_json()}
    return None


def check_bivector(n, seed):
    return [_sampled("classical bivector-antisymmetry",
                     {"N": n, "samples": 20}, seed, 20,
                     lambda rng: bivector_mismatch(
                         classical.random_exact_hermitian(n, rng)))]


def tangency_reports(n, samples, rng):
    """Leaf-tangency reports at `samples` random exact Hermitian matrices of
    size n drawn from rng.  The tangency suite and `qrea classical tangency`
    read it."""
    return [classical.leaf_tangency_check(
        classical.random_exact_hermitian(n, rng)) for _ in range(samples)]


def check_tangency(N, seed):
    """Tangency at 50 exact draws each at n = 2 and 3.  At n = 3 the draws
    must also reach more than one bivector rank, so that the suite sees a
    leaf other than the generic one."""
    rng = coeff.Random(seed)
    out = []
    for n in (2, 3):
        reports = tangency_reports(n, 50, rng)
        bad = [i for i, rep in enumerate(reports) if not rep["equal"]]
        ranks = sorted({rep["bivector_rank"] for rep in reports})
        failure = None if not bad and (n < 3 or len(ranks) > 1) else {
            "failures": len(bad), "bivector_ranks": ranks,
            "first": {"sample": bad[0], **reports[bad[0]]} if bad else None}
        out.append(Certificate.verdict(
            "classical tangency", {"N": n, "samples": 50}, failure,
            seed=seed))
    return out


def check_jacobi(N, seed):
    return [Certificate.verdict(
        "classical jacobi", {"N": n, "samples": samples},
        classical.jacobi_check(n, samples, seed), seed=seed)
        for n, samples in ((2, 100), (3, 25))]


def _bounds(inner, n):
    """The inner bounds of a row at size n: each at min(n, bound)."""
    return {k: min(n, r) for k, r in inner.items()}


def upto(reach, suite, **inner):
    """The check-all row of a suite of size n: it runs the suite at
    n = min(N, reach), and each inner bound (kmax=3, say) at min(n, bound).
    The row keeps `reach` and `inner`: the tests' floor guard reads both,
    and `family_certificates` the bounds of an identity family's row."""
    def row(N, seed):
        n = min(N, reach)
        return suite(n, seed, **_bounds(inner, n))
    row.reach, row.inner = reach, inner
    return row


# (name, suite) in check-all order.  Raising a reach or a bound is one edit
# of its row; neither comes down, and tests/test_cli.py holds their floors.
# An identity family's bounds (kmax, lmax: minor sizes; rmax: Muir ranks)
# bound the CLI's `verify` and `rea verify` sweeps too.  Rows without a
# reach run at fixed sizes, or from a floor (dominance-lemma's max(N, 6)).
CHECKS = [
    ("coeff.ring-axioms", check_coeff_ring_axioms),
    ("coeff.rf-canonical", check_coeff_rf_canonical),
    ("coeff.eval-direct-substitution", check_coeff_eval),
    ("combinatorics.dominance-refines-lex", check_dominance_refines_lex),
    ("combinatorics.weight-split", check_weight_split),
    ("combinatorics.dominance-lemma", check_comb_lemma_sweep),
    ("combinatorics.inversion-parity", check_inversion_parity),
    ("braiding.braid-relation", upto(4, check_braid_relation)),
    ("braiding.hecke", upto(4, check_hecke)),
    ("braiding.wedge-table", upto(4, check_wedge_tables, kmax=3)),
    ("braiding.wedge-composition", upto(4, check_wedge_composition, kmax=3)),
    ("braiding.embed-equivariance", upto(4, check_embed_equivariance, kmax=3)),
    ("braiding.scalar-lemma", upto(4, check_scalar_lemma)),
    ("braiding.antisym-swap", upto(4, check_antisym_swap)),
    ("qmatrix.pbw-dimensions", upto(4, check_pbw_dimensions)),
    ("qmatrix.counit-axiom", upto(4, check_counit_coassoc)),
    ("qmatrix.minor-coproduct", upto(4, check_minor_coproduct)),
    ("qmatrix.convolution-certificates",
     upto(4, check_convolution_certificates)),
    ("qmatrix.minor-table-crosscheck", upto(4, check_minor_table_crosscheck)),
    ("qmatrix.laplace", upto(4, _family_suite("qmatrix", "laplace"))),
    ("qmatrix.muir", upto(4, _family_suite("qmatrix", "muir"))),
    ("qmatrix.braidcomm",
     upto(4, _family_suite("qmatrix", "braidcomm"), kmax=2, lmax=2)),
    ("rea.star-unit", upto(4, check_star_unit)),
    ("rea.star-associativity", upto(4, check_star_associativity)),
    ("rea.reflection-equation", upto(4, check_reflection)),
    ("rea.reverse-braid", upto(4, check_reverse_braid)),
    ("rea.rewrite-crosscheck", upto(4, check_rea_rewrite)),
    ("rea.gencomm", upto(4, _family_suite("rea", "gencomm"), kmax=2, lmax=2)),
    ("rea.laplace", upto(4, _family_suite("rea", "laplace"), kmax=4)),
    ("rea.muir", upto(4, _family_suite("rea", "muir"), kmax=4, rmax=2)),
    ("rea.shape-families", check_shape_families),
    ("rea.shape-ideals", check_shape_ideals),
    ("rea.qcomm", check_qcomm),
    ("rea.semiclassical", upto(4, check_semiclassical)),
    ("classical.shape-roundtrip", upto(4, check_shape_roundtrip)),
    ("classical.sign-compatibility", upto(4, check_sign_compat)),
    ("classical.tn-invariance", upto(4, check_tn_invariance)),
    ("classical.decompose", upto(4, check_decompose)),
    ("classical.bivector-antisymmetry", upto(4, check_bivector)),
    ("classical.tangency", check_tangency),
    ("classical.jacobi", check_jacobi),
]


def run_all(N, seed):
    """Run every registered suite; yields (name, certificates, wall seconds)
    per suite."""
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        certs = list(fn(N, seed))
        yield name, certs, time.perf_counter() - t0
