"""Quantum shapes: symbolic families, shape ideals, q-commutation certificates.

A shape is an involution of [N] together with a unimodular-or-zero slot
function whose support the involution preserves.  Self-adjoint families are
carried symbolically: fixed support points hold sign slots, two-cycles hold
conjugate phase pairs.  Each family orders its support into a pivot chain and
attaches one minor label per chain level; the two-sided ideals below those
labels and the q-commutation certificate for the chain minors are pure
label/coefficient computations on top of the wedge braiding tables.

The chain lists two-cycles first (by smaller element, the partner
immediately after) and fixed points afterwards in increasing order, matching
the published family table at N = 3.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import product

from .coeff import LaurentPoly
from .indexsets import pair_dom_strictly_less, subsets
from .qmatrix import Certificate


class MalformedShape(ValueError):
    pass


def _conj_symbol(sym):
    """The partner of a phase symbol on a two-cycle: y <-> ybar."""
    return sym[:-3] if sym.endswith("bar") else sym + "bar"


class QuantumShape:
    """Symbolic self-adjoint shape: involution tau plus slot symbols u.

    Symbols: "0" for empty slots, "s1", "s2", ... for sign slots on fixed
    support points, "y"/"ybar" (then "y2"/"y2bar", ...) for conjugate phase
    pairs on two-cycles.

    The constructor is the one check of a shape: tau is a list or tuple of
    ints (not bools), u one of strings, and anything else, like any shape
    the rules above refuse, is a MalformedShape.
    """

    def __init__(self, tau, u):
        if (not isinstance(tau, (list, tuple))
                or not isinstance(u, (list, tuple))
                or not all(type(t) is int for t in tau)
                or not all(type(s) is str for s in u)):
            raise MalformedShape("a shape is tau, an integer list, and u, a "
                                 "string list")
        self.tau = tuple(tau)
        self.u = tuple(u)
        N = len(self.tau)
        if len(self.u) != N:
            raise MalformedShape("tau and u lengths differ")
        if sorted(self.tau) != list(range(1, N + 1)):
            raise MalformedShape("tau is not a permutation")
        for i in range(1, N + 1):
            if self.tau[self.tau[i - 1] - 1] != i:
                raise MalformedShape("tau is not an involution")
        for i in range(1, N + 1):
            ui = self.u[i - 1]
            if ui == "0":
                if self.tau[i - 1] != i:
                    raise MalformedShape(f"zero slot {i} must be a fixed point")
            elif self.tau[i - 1] == i:
                if not ui.startswith("s"):
                    raise MalformedShape(f"fixed point {i} needs a sign slot")
            elif ui.startswith("s"):
                raise MalformedShape(f"two-cycle slot {i} needs a phase, "
                                     f"not the sign slot {ui!r}")
            elif _conj_symbol(ui) != self.u[self.tau[i - 1] - 1]:
                raise MalformedShape(f"slots {i},{self.tau[i-1]} not conjugate")
        self.N = N
        self.support = tuple(i for i in range(1, N + 1) if self.u[i - 1] != "0")
        self.rank = len(self.support)
        self.chain = self._build_chain()

    def _build_chain(self):
        chain = []
        for i in self.support:
            if self.tau[i - 1] > i:
                chain.extend((i, self.tau[i - 1]))
        chain.extend(i for i in self.support if self.tau[i - 1] == i)
        return tuple(chain)

    # -- derived labels --------------------------------------------------------

    def support_prefix(self, k):
        """The k-th chain level as a sorted column set."""
        return tuple(sorted(self.chain[:k]))

    def tau_prefix(self, k):
        return tuple(sorted(self.tau[p - 1] for p in self.chain[:k]))

    def minor_labels(self):
        """(rows, cols) label of the chain minor at each level 1..rank."""
        return [(self.tau_prefix(k), self.support_prefix(k))
                for k in range(1, self.rank + 1)]

    @cached_property
    def dom_ideal(self):
        """The dominance shape ideal, built on first use and kept."""
        return build_shape_ideal(self, "dom")

    def to_json(self):
        return {"tau": list(self.tau), "u": list(self.u)}

    @staticmethod
    def from_json(obj):
        """A shape from {"tau": [ints], "u": [symbol strings]}; anything
        else, an unknown key included, is a MalformedShape."""
        if not isinstance(obj, dict) or obj.keys() != {"tau", "u"}:
            raise MalformedShape("a shape is an object with the keys tau and "
                                 "u and no other")
        return QuantumShape(obj["tau"], obj["u"])

    def __repr__(self):
        return f"QuantumShape(tau={self.tau}, u={self.u})"

    def __eq__(self, other):
        return (isinstance(other, QuantumShape)
                and self.tau == other.tau and self.u == other.u)

    def __hash__(self):
        return hash((self.tau, self.u))


def _involutions(points):
    """All involutions of a tuple of points, as dicts."""
    points = list(points)
    if not points:
        return [{}]
    first, rest = points[0], points[1:]
    out = []
    for sub in _involutions(rest):
        d = dict(sub)
        d[first] = first
        out.append(d)
    for idx, partner in enumerate(rest):
        remaining = rest[:idx] + rest[idx + 1:]
        for sub in _involutions(remaining):
            d = dict(sub)
            d[first] = partner
            d[partner] = first
            out.append(d)
    return out


def enumerate_shapes(N):
    """All self-adjoint shape families on [N], grouped by rank then involution.

    Ranks descend; within a rank, families with fewer two-cycles come first,
    then support order, then cycle pattern.
    """
    if N > 5:
        raise MalformedShape("desk-scale enumeration is capped at N = 5")
    families = []
    for m in range(N, -1, -1):
        bucket = []
        for support in subsets(N, m):
            for tau_map in _involutions(support):
                tau = tuple(tau_map.get(i, i) for i in range(1, N + 1))
                cycles = sorted((i, tau_map[i]) for i in support if tau_map[i] > i)
                u = ["0"] * N
                sign_count = 0
                for i in support:
                    if tau_map[i] == i:
                        sign_count += 1
                        u[i - 1] = f"s{sign_count}"
                for n, (i, j) in enumerate(cycles, start=1):
                    name = "y" if n == 1 else f"y{n}"
                    u[i - 1] = name
                    u[j - 1] = name + "bar"
                bucket.append((len(cycles), support, tuple(cycles),
                               QuantumShape(tau, u)))
        bucket.sort(key=lambda t: (t[0], t[1], t[2]))
        families.extend(s for *_junk, s in bucket)
    return families


# ---------------------------------------------------------------------------
# Shape ideals
# ---------------------------------------------------------------------------

def build_shape_ideal(shape, flavor):
    """The generator-label pattern of the two-sided *-ideal of a shape, as a
    frozenset of (rows, cols) labels: the minors one size past the rank
    plus the labels strictly below each chain level, in the order of
    `flavor`, "dom" or "lex", closed under the formal adjoint."""
    less = pair_dom_strictly_less if flavor == "dom" else operator.lt
    N = shape.N
    M = shape.rank
    gens = set()
    if M < N:
        gens.update(product(subsets(N, M + 1), repeat=2))
    for k in range(1, M + 1):
        chain = (shape.support_prefix(k), shape.tau_prefix(k))
        gens.update((I, J) for I, J in product(subsets(N, k), repeat=2)
                    if less((J, I), chain))
    return frozenset(gens | {(J, I) for I, J in gens})


# ---------------------------------------------------------------------------
# q-commutation certificate for chain minors
# ---------------------------------------------------------------------------

def qcomm_status(ctx, shape, k, I, J):
    """Check the q-commutation of the k-th chain minor with the (I, J) minor
    modulo the dominance shape ideal.

    Specialises the general braided-commutation identity at the chain labels
    and checks that: the designated terms on both sides carry exactly the
    predicted q-powers, and every other contributing term has a minor factor
    whose label lies in the ideal's generator pattern.  Residual terms outside
    the pattern give an inconclusive (not failed) report.  Returns (status,
    witness, exponent): the witness is None on a pass, and the exponent of
    the q-commutation is None unless it passes.  The caller enumerates the
    labels: I and J are index sets of one size, and k is in 1..rank.
    """
    A = shape.support_prefix(k)     # column label of the chain minor
    B = shape.tau_prefix(k)         # row label
    ideal = shape.dom_ideal
    exp_left = -(len(set(I) & set(A)) + len(set(I) & set(B)))
    exp_right = -(len(set(J) & set(A)) + len(set(J) & set(B)))
    # the general commutation of (A, B) with (I, J); its designated terms
    # sit at (K, L) = (B, A) with L' = I on the left and L' = J on the right
    left, right = ctx.gencomm_coefficients(A, B, I, J)
    found_left, found_right = left.get((B, A, I)), right.get((B, A, J))
    expected_left = LaurentPoly.q_power(exp_left)
    expected_right = LaurentPoly.q_power(exp_right)
    if found_left != expected_left or found_right != expected_right:
        return "fail", {
            "reason": "designated coefficient mismatch",
            "left": found_left.to_json() if found_left else None,
            "right": found_right.to_json() if found_right else None,
            "expected_left": expected_left.to_json(),
            "expected_right": expected_right.to_json()}, None
    residual_bad = sorted(
        (K, L, Lp, side)
        for side, coeffs, other in (("left", left, I), ("right", right, J))
        for (K, L, Lp) in coeffs
        if (K, L, Lp) != (B, A, other) and (K, L) not in ideal)
    if residual_bad:
        return "inconclusive", {
            "reason": "residual term outside the generator pattern",
            "terms": [{"side": s, "rows": list(K), "cols": list(L),
                       "other": list(Lp)} for (K, L, Lp, s) in residual_bad]
        }, None
    return "pass", None, -exp_left + exp_right


def shape_qcomm_certificate(ctx, shape, k, I, J):
    """The certificate of `qcomm_status`: the instance, and the exponent on
    a pass or the witness otherwise."""
    status, witness, exponent = qcomm_status(ctx, shape, k, I, J)
    inst = {"shape": shape.to_json(), "k": k, "I": sorted(I), "J": sorted(J)}
    if exponent is not None:
        inst["exponent"] = exponent
    return Certificate("rea qcomm", inst, status, witness=witness)
