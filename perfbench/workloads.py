"""The benchmark's workloads: what each runs, and what its output must be.

A workload either calls `qrea.cli.main` for `check-all` at one N, or streams
a subset of `checks.CHECKS` at one N the way `check-all` streams it.  The
expected certificate count of every suite is fixed; the stdout digest is
fixed at the reference program seeds, recorded at the seed commit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

SEED_BLOCK = 256

# Certificates per suite of `check-all --N 2`; every other suite emits one.
_N2_MULTI = {
    "braiding.braid-relation": 2, "braiding.hecke": 2,
    "braiding.wedge-table": 4, "braiding.wedge-composition": 4,
    "qmatrix.pbw-dimensions": 3, "qmatrix.convolution-certificates": 4,
    "classical.tangency": 2, "classical.jacobi": 2,
}
_N3_MULTI = {
    "braiding.braid-relation": 3, "braiding.hecke": 3,
    "braiding.wedge-table": 9, "braiding.wedge-composition": 9,
    "qmatrix.pbw-dimensions": 5, "qmatrix.convolution-certificates": 4,
    "rea.reflection-equation": 2, "rea.rewrite-crosscheck": 2,
    "rea.semiclassical": 2, "classical.tangency": 2, "classical.jacobi": 2,
}
SUITES = [
    "coeff.ring-axioms", "coeff.rf-canonical", "coeff.eval-direct-substitution",
    "combinatorics.dominance-refines-lex", "combinatorics.weight-split",
    "combinatorics.dominance-lemma", "combinatorics.inversion-parity",
    "braiding.braid-relation", "braiding.hecke", "braiding.wedge-table",
    "braiding.wedge-composition", "braiding.embed-equivariance",
    "braiding.scalar-lemma", "braiding.antisym-swap",
    "qmatrix.pbw-dimensions", "qmatrix.counit-axiom", "qmatrix.minor-coproduct",
    "qmatrix.convolution-certificates", "qmatrix.minor-table-crosscheck",
    "qmatrix.laplace", "qmatrix.muir", "qmatrix.braidcomm",
    "rea.star-unit", "rea.star-associativity", "rea.reflection-equation",
    "rea.reverse-braid", "rea.rewrite-crosscheck", "rea.gencomm", "rea.laplace",
    "rea.muir", "rea.shape-families", "rea.shape-ideals", "rea.qcomm",
    "rea.semiclassical", "classical.shape-roundtrip",
    "classical.sign-compatibility", "classical.tn-invariance",
    "classical.decompose", "classical.bivector-antisymmetry",
    "classical.tangency", "classical.jacobi",
]


@dataclass(frozen=True)
class Workload:
    name: str
    N: int
    expected: dict                  # suite -> certificates per run
    suites: tuple | None = None     # None: the whole check-all via the CLI
    references: dict = field(default_factory=dict)  # program seed -> sha256
    seed_filter: Callable[[int], bool] | None = None
    pass_s: float = 1.0             # seconds per pass on a 2-core machine

    def passes(self, seconds):
        """Passes per run: as many as fit in `seconds`, at least 2."""
        return max(2, int(seconds // self.pass_s))

    @property
    def total(self):
        return sum(self.expected.values())

    def program_seed(self, seed):
        """The program `--seed` of every pass of benchmark seed `seed`.

        Benchmark seed s takes the first program seed from 256*s on that
        passes the workload's filter, so two benchmark seeds do not share
        inputs (check-n3's filter leaves a block of 256 seeds without a
        match with probability below 1e-15).  All passes of one benchmark run use it: they do identical
        work, which lets run.py take each suite's best time over them.
        """
        for s in itertools.count(SEED_BLOCK * seed):
            if self.seed_filter is None or self.seed_filter(s):
                return s


def _triple_degrees(N, seed):
    """Total degrees of the triples that `rea.star-associativity` draws.

    Mirrors the draw in `checks.check_star_associativity`.  Its cost grows
    steeply with the degree and swings with the words drawn: at N=3 a
    degree-6 triple takes about 15 s, a degree-5 one 0.2 to 0.8 s, and a
    draw of degree 4 or less about 0.1 s all told.
    """
    from qrea import rea
    rng = random.Random(seed)
    monos = rea.random_monomials(N, 2, 9, seed)
    triples = [rng.sample(monos, 3) for _ in range(5)]
    return [sum(len(w) for m in t for w in m.coeffs) for t in triples]


def _low_degree_triples(seed):
    """No triple of total degree 5 or 6 at N=3 (about 13% of seeds)."""
    return max(_triple_degrees(3, seed)) <= 4


# The bicharacter and twisted-product suites of `check-all --N 3`.
_N3_SUITES = tuple(s for s in SUITES if s.startswith(("qmatrix.", "rea.")))

WORKLOADS = {w.name: w for w in (
    Workload("check-n2", 2, {s: _N2_MULTI.get(s, 1) for s in SUITES}, pass_s=6.5,
             references={0: "391dcdf59b29c1c5362db55e8ce411551deaa1afb3fcef0f2f0657658a49a631"}),
    Workload("check-n3", 3, {s: _N3_MULTI.get(s, 1) for s in _N3_SUITES},
             suites=_N3_SUITES,
             references={9: "4d48df7b4d1a326d4d8d50650fa76427030fe33229ce69886b09fd9310647186"},
             seed_filter=_low_degree_triples, pass_s=4.5),
    Workload("braid-n4", 4,
             {"braiding.braid-relation": 4, "braiding.hecke": 4,
              "braiding.wedge-table": 9, "braiding.embed-equivariance": 1,
              "braiding.antisym-swap": 1},
             suites=("braiding.braid-relation", "braiding.hecke",
                     "braiding.wedge-table", "braiding.embed-equivariance",
                     "braiding.antisym-swap"),
             references={0: "1291ee333796b86877daaf12a017a6d35c158fad44f10447489e3ce676bab048"},
             pass_s=7.0),
)}
