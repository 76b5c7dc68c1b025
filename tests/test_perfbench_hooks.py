"""The benchmark's tracer finds its spans and memo counters in qrea by name,
and drops a metric whose name is gone without failing; so does the child's
time-slice marking with a marker whose method is gone.  These tests fail
instead.  The benchmark also refuses a run whose stdout differs from its
recorded reference; a test here fails first.  The perfbench modules are
loaded from perfbench/ by their path."""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

from qrea import checks, cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: a dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    tracer = _load("tracer")
    for _name, _layer, module_name, path in tracer.SPANS:
        tracer._resolve(importlib.import_module("qrea." + module_name), path)


def test_no_cache_counter_is_absent():
    tracer = _load("tracer")
    registry = dict(checks.CHECKS)
    for suite in ("braiding.wedge-table", "rea.star-unit"):
        assert all(c.status == "pass" for c in registry[suite](2, 0)), suite
    _counters, absent = tracer.cache_counters(checks)
    assert absent == [], absent


# gone since polynomial sums went through qmatrix.sum_terms; its marker is
# a no-op until the benchmark next changes
_DEAD_MARKERS = {("qmatrix", "NCPoly", "__add__")}


def test_every_marker_resolves():
    # _time_suites skips a marker that is gone without a word, and the
    # suites that called it get coarser time slices
    gone = []
    for module_name, cls_name, attr in _load("child").MARKERS:
        cls = getattr(importlib.import_module("qrea." + module_name), cls_name,
                      None)
        if cls is None or attr not in vars(cls):
            gone.append((module_name, cls_name, attr))
    assert set(gone) <= _DEAD_MARKERS, gone


def test_benchmark_streams_match_their_references(capsys, monkeypatch):
    # each workload that BENCHMARK.json runs is check-all at its N on its
    # suites; at every reference program seed its stdout must hash to the
    # digest that perfbench/run.py compares against
    workloads = _load("workloads").WORKLOADS
    bench = json.loads((_PERFBENCH.parent / "BENCHMARK.json").read_text())
    registry = checks.CHECKS
    for name in [w["name"] for w in bench["workloads"]]:
        w = workloads[name]
        monkeypatch.setattr(checks, "CHECKS", [
            (suite, fn) for suite, fn in registry
            if w.suites is None or suite in w.suites])
        assert w.references, name
        for seed, digest in w.references.items():
            code = cli.main(["--seed", str(seed), "check-all", "--N",
                             str(w.N)])
            out = capsys.readouterr().out
            assert code == 0, (name, seed)
            assert len(out.splitlines()) == w.total, (name, seed)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, \
                (name, seed)
