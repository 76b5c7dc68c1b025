"""Layer spans and counters for the traced run, installed from outside qrea.

Each entry of SPANS wraps one public qrea function or method.  A wrapper
counts every call; it times only the outermost call of its span name, so a
recursive function (the bicharacter evaluators, say) gets one span per
top-level entry.  Every timed span belongs to a layer, and a layer's self
time is its span time minus the time of the spans opened inside it.

Spans are aggregated per name in memory (a call count and a total time);
with millions of RatFunc operations per run, keeping one record per span
would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, layer, qrea module, attribute path)
SPANS = [
    ("coeff.op", "coeff", "coeff", "RatFunc.__add__"),
    ("coeff.op", "coeff", "coeff", "RatFunc.__mul__"),
    ("coeff.op", "coeff", "coeff", "RatFunc.__truediv__"),
    ("coeff.op", "coeff", "coeff", "RatFunc.inv"),
    # RatFunc.__init__ calls the gcd only on the reducing path.
    ("coeff.reduce", "coeff", "coeff", "_dense_gcd"),
    ("braiding.table_build", "braiding", "braiding", "WedgeBraidTable.__init__"),
    ("braiding.composition", "braiding", "braiding",
     "WedgeBraidTable.composition_identity_check"),
    ("braiding.scalar_lemma", "braiding", "braiding", "rmatrix_lemma_check"),
    ("braiding.pair_braid", "braiding", "braiding", "braid_wedge_pair"),
    ("qmatrix.context_build", "qmatrix", "qmatrix", "QContext.__init__"),
    ("qmatrix.normal_form", "qmatrix", "qmatrix", "RewriteSystem.normal_form"),
    ("qmatrix.normal_form", "qmatrix", "qmatrix", "RewriteSystem.nf_word"),
    ("qmatrix.bich", "qmatrix", "qmatrix", "Bicharacter.r"),
    ("qmatrix.bich", "qmatrix", "qmatrix", "Bicharacter.r_inv"),
    ("qmatrix.bich", "qmatrix", "qmatrix", "Bicharacter.r_prime"),
    ("qmatrix.certify_bidegree", "qmatrix", "qmatrix",
     "Bicharacter.certify_bidegree"),
    ("qmatrix.verify_identity", "qmatrix", "qmatrix", "verify_identity"),
    ("rea.star_word", "rea", "rea", "StarAlgebra.star_word"),
    ("rea.star_minor", "rea", "rea", "StarAlgebra.star_minor"),
    ("rea.verify", "rea", "rea", "rea_verify"),
    ("linalg.invert", "linalg", "linalg", "invert_matrix"),
    ("linalg.row_reduce", "linalg", "linalg", "sparse_row_reduce"),
    ("shapes.qcomm", "shapes", "shapes", "shape_qcomm_certificate"),
    ("classical.shape_of", "classical", "classical", "shape_of"),
    ("classical.decompose", "classical", "classical", "decompose"),
    ("classical.tn_invariance", "classical", "classical", "tn_invariance_check"),
    ("classical.tangency", "classical", "classical", "leaf_tangency_check"),
    ("classical.jacobi", "classical", "classical", "jacobi_check"),
    ("indexsets.comb_lemma", "indexsets", "indexsets", "sweep_comb_lemma"),
]

LAYERS = ("checks", "coeff", "braiding", "qmatrix", "rea", "linalg", "shapes",
          "classical", "indexsets")


class Tracer:
    """Per-name call counts and outermost span times, per-layer self times."""

    def __init__(self):
        self.self_seconds = {layer: 0.0 for layer in LAYERS}
        self.absent = []
        # One [child seconds] cell per open span; the bottom one is the root.
        self._stack = [[0.0]]
        self._cells = {}

    def _cell(self, name):
        cell = self._cells.get(name)
        if cell is None:
            # [calls, seconds, open outermost span]
            cell = self._cells[name] = [0, 0.0, False]
        return cell

    def wrap(self, fn, name, layer):
        cell = self._cell(name)
        layer_cells = self.self_seconds
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell[0] += 1
            if cell[2]:
                return fn(*args, **kwargs)
            cell[2] = True
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                cell[2] = False
                cell[1] += dt
                layer_cells[layer] += dt - frame[0]
                stack[-1][0] += dt

        return traced

    def install(self, checks_module):
        """Wrap every SPANS entry and every registered suite."""
        for name, layer, module_name, path in SPANS:
            try:
                module = importlib.import_module("qrea." + module_name)
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            wrapped = self.wrap(original, name, layer)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                _rebind(original, wrapped)
        registry = checks_module.CHECKS
        for i, (suite, fn) in enumerate(registry):
            registry[i] = (suite, self.wrap(fn, "suite." + suite, "checks"))

    def snapshot(self):
        return {"calls": {n: c[0] for n, c in self._cells.items()},
                "seconds": {n: c[1] for n, c in self._cells.items()},
                "self_seconds": self.self_seconds, "absent": self.absent}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    # A class must define the method itself: one inherited from object
    # (a deleted __init__, say) counts as absent.
    if parts[-1] not in vars(owner):
        raise AttributeError(path)
    return owner, parts[-1]


def _rebind(original, wrapped):
    """Point every qrea module global bound to `original` at `wrapped`.

    Modules that did `from .linalg import invert_matrix` hold their own
    reference, so patching the defining module alone would miss them.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qrea" or mod_name.startswith("qrea.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _exp_span(p):
    return p.max_exp() - p.min_exp() if p.terms else 0


def _values(memo):
    """RatFunc values of a memo whose values are RatFuncs, dicts or NCPolys."""
    for v in memo.values():
        if isinstance(v, dict):
            yield from v.values()
        elif hasattr(v, "coeffs"):
            yield from v.coeffs.values()
        else:
            yield v


def cache_counters(checks_module):
    """Memo sizes, nonzero ratio and exponent span read from the suite caches.

    A counter whose attribute is gone is left out of the result, never set
    to 0, so that a refactor that removes a memo shows as an absent counter.
    """
    out = {}
    absent = []
    caches = {"ctx": getattr(checks_module, "_CTX_CACHE", None),
              "star": getattr(checks_module, "_STAR_CACHE", None)}
    spans = []

    def total(name, getter):
        cache = caches["star" if name.startswith("rea.") else "ctx"]
        try:
            memos = [getter(x) for x in cache.values()]
        except AttributeError:
            absent.append(name)
            return None
        out[name] = sum(len(m) for m in memos)
        return memos

    insert = total("qmatrix.insert_memo", lambda c: c.rw._insert_memo)
    bich = total("qmatrix.bich_memo",
                 lambda c: {(k, key): v for k, m in c.bich._memo.items()
                            for key, v in m.items()})
    minor = total("qmatrix.minor_prod_memo", lambda c: c._minor_prod)
    star_word = total("rea.star_word_memo", lambda s: s._star_word_memo)
    total("rea.star_minor_memo", lambda s: s._star_minor_memo)
    if bich is not None:
        values = [v for m in bich for v in m.values()]
        nonzero = sum(1 for v in values if not v.is_zero())
        out["qmatrix.bich_nonzero"] = nonzero
        out["qmatrix.bich_nonzero_ratio"] = nonzero / len(values) if values else 0.0
    for memos in (insert, bich, minor, star_word):
        for m in memos or ():
            spans.extend(max(_exp_span(v.num), _exp_span(v.den))
                         for v in _values(m))
    tables = total("braiding.table_nonzero",
                   lambda c: [v for t in c._tables.values()
                              for v in (*t.entries.values(), *t.inv_entries.values())
                              if not v.is_zero()])
    for entries in tables or ():
        spans.extend(max(_exp_span(v.num), _exp_span(v.den)) for v in entries)
    out["coeff.max_exp_span"] = max(spans, default=0)
    return out, absent


# Per-layer metric names that are not "<span>_s" or "<span>_calls".
ALIASES = {"braiding.tables_built": "braiding.table_build_calls",
           "coeff.ops": "coeff.op_calls"}


def layer_metrics(trace, counters):
    """Flatten a Tracer snapshot and cache_counters() into metric values."""
    out = {}
    for name, seconds in trace["seconds"].items():
        out[name if name.startswith("suite.") else name + "_s"] = seconds
        out[name + "_calls"] = trace["calls"][name]
    for layer, seconds in trace["self_seconds"].items():
        out[layer + ".self_s"] = seconds
    out.update(counters)
    for alias, name in ALIASES.items():
        if name in out:
            out[alias] = out[name]
    calls = out.get("rea.star_word_calls")
    if calls is not None and "rea.star_word_memo" in counters:
        # Every miss stores one memo entry, so misses = final memo size.
        out["rea.star_word_hit_ratio"] = \
            (calls - counters["rea.star_word_memo"]) / calls if calls else 0.0
    return out
