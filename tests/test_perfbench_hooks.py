"""The benchmark's tracer finds its spans and memo counters in qrea by name,
and drops a metric whose name is gone without failing; these tests fail
instead.  The tracer module is loaded from perfbench/ by its path."""

import importlib
import importlib.util
from pathlib import Path

from qrea import checks

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    tracer = _tracer()
    for _name, _layer, module_name, path in tracer.SPANS:
        tracer._resolve(importlib.import_module("qrea." + module_name), path)


def test_no_cache_counter_is_absent():
    tracer = _tracer()
    registry = dict(checks.CHECKS)
    for suite in ("braiding.wedge-table", "rea.star-unit"):
        assert all(c.status == "pass" for c in registry[suite](2, 0)), suite
    _counters, absent = tracer.cache_counters(checks)
    assert absent == [], absent
