"""Tests of the benchmark itself, on a tiny workload (a few seconds).

    python3 -m pytest perfbench
"""

import hashlib
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload, _triple_degrees  # noqa: E402

TINY = Workload("tiny", 2, {"braiding.braid-relation": 2, "braiding.hecke": 2},
                suites=("braiding.braid-relation", "braiding.hecke"))


def _cert(suite, status="pass", n=1):
    return json.dumps({"command": suite, "instance": {"N": n},
                       "status": status, "suite": suite}, sort_keys=True)


def _stdout(*lines):
    return ("\n".join(lines) + "\n").encode()


GOOD = _stdout(_cert("braiding.braid-relation", n=1),
               _cert("braiding.braid-relation", n=2),
               _cert("braiding.hecke", n=1), _cert("braiding.hecke", n=2))


def test_every_metric_is_emitted_with_its_unit():
    end_to_end, per_layer = run.load_spec()
    for trace, spec in ((0, end_to_end), (1, per_layer)):
        lines, result = run.bench(TINY, 0, 0.0, trace)
        assert result["correct"], lines
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == set(spec)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == spec[name]
            assert isinstance(metric["value"], (int, float))
        if not trace:
            text = "\n".join(lines)
            for name, unit in spec.items():
                assert f"\n{name}: " in text and f" {unit} (" in text
    assert result["metrics"]["suite.braiding.hecke"]["value"] > 0
    assert result["metrics"]["suite.coeff.ring-axioms"]["value"] == 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_perturbed_stdout_fails_the_digest_check():
    ref = Workload("ref", TINY.N, TINY.expected, TINY.suites,
                   references={7: hashlib.sha256(GOOD).hexdigest()})
    assert run.check_output(ref, 7, GOOD, 0) == (0, [])
    perturbed = GOOD.replace(b'"N": 2', b'"N": 3', 1)
    failed, problems = run.check_output(ref, 7, perturbed, 0)
    assert failed == 0 and any("sha256" in p for p in problems)
    # Away from the reference seed only statuses and counts are checked.
    assert run.check_output(ref, 8, perturbed, 0) == (0, [])


def test_failing_or_missing_certificate_raises_fail_ratio():
    one_fail = GOOD.replace(b'"pass"', b'"fail"', 1)
    failed, problems = run.check_output(TINY, 0, one_fail, 1)
    assert failed == 1
    assert "exit status 1" in problems
    missing = _stdout(_cert("braiding.hecke"))
    failed, problems = run.check_output(TINY, 0, missing, 0)
    assert failed == 3
    assert any("expected 2" in p for p in problems)


def test_program_seeds_are_distinct_and_check_n3_draws_low_degrees():
    w = WORKLOADS["check-n3"]
    seeds = [w.program_seed(s) for s in range(4)]
    assert len(set(seeds)) == 4
    assert all(max(_triple_degrees(3, s)) <= 4 for s in seeds)
    for name, workload in WORKLOADS.items():
        assert workload.program_seed(0) in workload.references, name


def test_run_s_sums_the_best_pass_of_each_slice():
    runs = [{"result": {"suites": {"a": [[0.5, 0.4], [1.0, 0.9]],
                                   "b": [[1.0, 0.9]]}}},
            {"result": {"suites": {"a": [[0.75, 0.5], [0.5, 0.5]],
                                   "b": [[1.5, 1.0], [1.5, 1.0]]}}},
            {"result": {}}]
    # a: slice by slice, 0.5 + 0.5; b was cut differently, so whole: 1.0
    assert run.best_sum(runs, 0) == 2.0
    assert run.best_sum(runs, 1) == 0.4 + 0.5 + 0.9
    assert run.best_sum(runs[2:], 0) is None


def test_missing_cache_attribute_is_absent_not_zero():
    ctx = types.SimpleNamespace(_tables={})
    fake = types.SimpleNamespace(_CTX_CACHE={3: ctx}, _STAR_CACHE={})
    counters, absent = tracer.cache_counters(fake)
    assert "qmatrix.bich_memo" in absent and "qmatrix.bich_memo" not in counters
    assert counters["braiding.table_nonzero"] == 0
    counters, absent = tracer.cache_counters(types.SimpleNamespace())
    assert "rea.star_word_memo" in absent and "rea.star_word_memo" not in counters
