"""One pass of one workload in a fresh interpreter; started by run.py.

    python3 perfbench/child.py N PROGRAM_SEED TRACE RESULT_PATH [SUITE ...]
    python3 perfbench/child.py --setup

With no SUITE this runs `qrea check-all --N N`; with suites, it streams
just those.  stdout is the program's certificate stream, untouched.
RESULT_PATH gets JSON: the pass's wall time, each suite's number of time
stamps and, when TRACE is 1, the per-layer metrics.  RESULT_PATH.stamps
gets the time stamps that cut each suite into slices (see MARKERS), as an
array of doubles.  `--setup` only imports qrea's entry points and exits,
for the set-up time.
"""

import array
import importlib
import json
import sys
import time

import qrea.checks
import qrea.cli


def _stream(checks, names, N, seed):
    """Print the named suites' certificates exactly as `check-all` does."""
    registry = dict(checks.CHECKS)
    for name in names:
        for cert in registry[name](N, seed):
            rec = cert.to_json()
            rec["suite"] = name
            sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")


# The arithmetic of qrea's coefficient and polynomial types, called every
# few milliseconds or more often in every heavy suite: (module, class, method).
# Every STRIDE-th call to any of them ends a time slice.  One that is gone is
# left out; a suite that calls none of them is one slice.
MARKERS = [
    ("coeff", "RatFunc", "__add__"), ("coeff", "RatFunc", "__mul__"),
    ("coeff", "RatFunc", "__truediv__"), ("coeff", "RatFunc", "inv"),
    ("coeff", "LaurentPoly", "__add__"), ("coeff", "LaurentPoly", "__mul__"),
    ("qmatrix", "NCPoly", "__add__"), ("qmatrix", "NCPoly", "__mul__"),
]
STRIDE = 16


def _time_suites(checks, counts, stamps):
    """Stamp (wall, CPU) seconds into `stamps` at each suite's start, end and
    every STRIDE-th MARKERS call, and count each suite's stamps in `counts`.

    The program is deterministic, so two runs of the same input stamp their
    suites at the same points of the work.  `stamps` is a flat array, to
    keep the run's peak memory close to the program's own.
    """
    count = [0]
    wall, cpu = time.perf_counter, time.process_time

    def marker(fn):
        def marked(*args, **kwargs):
            count[0] += 1
            if count[0] == STRIDE:
                count[0] = 0
                stamps.extend((wall(), cpu()))
            return fn(*args, **kwargs)
        return marked

    def suite(name, fn):
        def timed(N, seed):
            count[0] = 0
            start = len(stamps)
            stamps.extend((wall(), cpu()))
            try:
                return fn(N, seed)
            finally:
                stamps.extend((wall(), cpu()))
                counts[name] = (len(stamps) - start) // 2
        return timed

    for module_name, cls_name, attr in MARKERS:
        cls = getattr(importlib.import_module("qrea." + module_name), cls_name, None)
        if cls is not None and attr in vars(cls):
            setattr(cls, attr, marker(vars(cls)[attr]))
    registry = checks.CHECKS
    for i, (name, fn) in enumerate(registry):
        registry[i] = (name, suite(name, fn))


def main(argv):
    if argv == ["--setup"]:
        return 0
    N, seed, trace, result_path, *suites = argv
    checks = qrea.checks
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(checks)
    counts, stamps = {}, array.array("d")
    _time_suites(checks, counts, stamps)
    t0 = time.perf_counter()
    rc = 0
    if suites:
        _stream(checks, suites, int(N), int(seed))
    else:
        rc = qrea.cli.main(["--seed", seed, "check-all", "--N", N])
    sys.stdout.flush()
    result = {"run_s": time.perf_counter() - t0, "stamps": counts,
              "qrea_file": qrea.__file__}
    with open(result_path + ".stamps", "wb") as fh:
        stamps.tofile(fh)
    if tracer is not None:
        from tracer import cache_counters, layer_metrics
        counters, absent = cache_counters(checks)
        snap = tracer.snapshot()
        result["layers"] = layer_metrics(snap, counters)
        result["absent"] = snap["absent"] + absent
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
