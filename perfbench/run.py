"""End-to-end benchmark of qrea's certificate runs, with a traced per-layer run.

    python3 perfbench/run.py --workload check-n3 --seed 0 --seconds 40 --trace 0

Run from the repository root.  Every pass of a workload is a fresh
interpreter (perfbench/child.py) that imports qrea from src/, because the
suite caches in `qrea.checks` would make a second in-process pass warm.
Children run one at a time.

--trace 0 repeats the workload on one program seed, drawn from --seed, as
many times as its passes fit in --seconds on a 2-core machine
(Workload.passes).  The count does not follow the host's speed, because the
best of more passes reads lower; only a run whose passes take about a
quarter longer than nominal stops early (SLOW_HOST).  The passes do identical work, so time that a piece of it takes
beyond its best pass is time the host took from it: run_s and cpu_s are
the best wall and CPU time of each piece over the passes, summed.  The
pieces are slices of about a millisecond, cut at calls to qrea's
arithmetic (child.MARKERS).  peak_rss_mb is the median over the passes,
and setup_s the median of interpreter starts that import qrea's entry
points, taken between the passes.  --trace 1 runs the workload once
untraced and once traced and reports the per-layer metrics.

Every pass's output is checked: exit status 0, every certificate `pass`,
each suite's certificate count as expected, and at a reference program
seed the sha256 of stdout as recorded.  A failed check is counted and
reported, never dropped; the benchmark then exits 1.  The last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
# Interpreter starts timed before the first pass and after each pass.
SETUP_PER_PASS = 1
# A run stops early once its passes would take this many times --seconds.
SLOW_HOST = 1.3
# A run must end within 180 s; keep a margin for the report.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    # cli._seed lets QREA_SEED silently override --seed.
    env.pop("QREA_SEED", None)
    # qrea is not installed: any other copy on the path would be other code.
    env["PYTHONPATH"] = str(SRC)
    # One compute thread per child: numpy's BLAS pool is idle here anyway.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, tag, deadline, cpu=None):
    """Run child.py once, on processor `cpu` if given.

    Returns (exit code, stdout bytes, rusage, wall seconds).
    """
    OUT.mkdir(parents=True, exist_ok=True)
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT, preexec_fn=pin)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timeout = max(0.0, deadline - time.perf_counter())
            if not select.select([pidfd], [], [], timeout)[0]:
                proc.kill()
            # wait4, not Popen.wait: it also returns the child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM arrives as SystemExit, see main): end the
            # child before leaving.
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), usage, wall


def check_output(workload, program_seed, stdout, rc):
    """Failed certificates (not `pass`, or missing) and a list of problems."""
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}")
    counts = dict.fromkeys(workload.expected, 0)
    not_pass = 0
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            rec = json.loads(line)
            suite, status = rec["suite"], rec["status"]
        except (ValueError, KeyError, TypeError):
            problems.append(f"not a certificate: {line[:80]!r}")
            continue
        counts[suite] = counts.get(suite, 0) + 1
        if status != "pass":
            not_pass += 1
            problems.append(f"{suite}: {status}")
    missing = 0
    for suite, got in counts.items():
        want = workload.expected.get(suite, 0)
        if got != want:
            problems.append(f"{suite}: {got} certificates, expected {want}")
        missing += max(0, want - got)
    reference = workload.references.get(program_seed)
    digest = hashlib.sha256(stdout).hexdigest()
    if reference is not None and digest != reference:
        problems.append(f"stdout sha256 {digest[:12]}, reference {reference[:12]}")
    return min(workload.total, not_pass + missing), problems


def read_slices(counts, path):
    """Each suite's [wall, CPU] seconds per slice, from child.py's stamps."""
    stamps = array.array("d")
    stamps.frombytes(path.read_bytes())
    pairs = list(zip(stamps[0::2], stamps[1::2]))
    suites, at = {}, 0
    for suite, n in counts.items():
        cut = pairs[at:at + n]
        suites[suite] = [[w1 - w0, c1 - c0] for (w0, c0), (w1, c1)
                         in zip(cut, cut[1:])]
        at += n
    if at != len(pairs):
        raise ValueError("stamps do not match their counts")
    return suites


def run_once(workload, program_seed, trace, tag, deadline, cpu=None):
    result_path = OUT / f"{tag}.json"
    stamps_path = Path(f"{result_path}.stamps")
    result_path.unlink(missing_ok=True)
    stamps_path.unlink(missing_ok=True)
    rc, stdout, usage, _ = spawn(
        [str(workload.N), str(program_seed), str(trace), str(result_path),
         *(workload.suites or ())],
        tag, deadline, cpu)
    failed, problems = check_output(workload, program_seed, stdout, rc)
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["suites"] = read_slices(result.pop("stamps"), stamps_path)
    except (OSError, ValueError, KeyError):
        result = {}
        problems.append("the run wrote no result")
    src_file = result.get("qrea_file")
    if src_file is not None and not Path(src_file).resolve().is_relative_to(SRC):
        problems.append(f"imported qrea from {src_file}, not from src/")
    return {"failed": failed, "problems": problems, "result": result,
            "digest": hashlib.sha256(stdout).hexdigest(),
            "run_s": result.get("run_s"),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": usage.ru_maxrss / 1024}


def setup_seconds(count, deadline, cpu=None):
    """Wall times of interpreter starts that import qrea.cli and qrea.checks."""
    samples = []
    for _ in range(count):
        rc, _, _, wall = spawn(["--setup"], "setup", deadline, cpu)
        if rc != 0:
            raise BenchError("importing qrea failed; see .bench_build/perfbench/setup.err")
        samples.append(wall)
    return samples


def summary(name, unit, samples):
    line = f"{name}: median {statistics.median(samples):.4f} {unit} over {len(samples)} sample(s)"
    n = len(samples)
    if n >= 11:
        # The highest percentile that still has 10 samples above it.
        line += f", p{100 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f} {unit}"
    else:
        line += "; no tail percentile below 11 samples"
    return line


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def traced_runs(workload, program_seed, per_layer, deadline):
    """One untraced and one traced run; per-layer metric values and lines."""
    plain = run_once(workload, program_seed, 0, "plain", deadline)
    traced = run_once(workload, program_seed, 1, "traced", deadline)
    if plain["digest"] != traced["digest"]:
        traced["problems"].append("traced stdout differs from the untraced run")
    values = dict(traced["result"].get("layers", {}))
    if plain["run_s"] and traced["run_s"]:
        values["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
    lines = [f"{n}: {values[n]} {unit}" for n, unit in per_layer.items() if n in values]
    lines.append(f"untraced run_s {plain['run_s']} s, traced run_s {traced['run_s']} s")
    absent = [n for n in per_layer if n not in values]
    absent += traced["result"].get("absent", [])
    if absent:
        lines.append("absent: " + ", ".join(absent))
    return [plain, traced], values, lines


def best_sum(runs, index):
    """Best-pass time of the work, summed (index 0: wall, 1: CPU seconds).

    The passes do identical work, so each slice of a suite (child.MARKERS)
    is taken at its best pass.  A suite whose passes cut it into different
    numbers of slices is taken whole, at its best pass.  None when no pass
    recorded times.
    """
    slices = {}
    for r in runs:
        for suite, cut in r["result"].get("suites", {}).items():
            slices.setdefault(suite, []).append([t[index] for t in cut])
    total = 0.0
    for passes in slices.values():
        if len({len(p) for p in passes}) == 1:
            total += sum(map(min, zip(*passes)))
        else:
            total += min(map(sum, passes))
    return total if slices else None


def timed_runs(workload, program_seed, seconds, deadline):
    """The workload's passes for `seconds`; runs, metric values, set-up samples.

    Pass i runs on processor i mod the processors this process may use.
    The host slows one core at a time, often for longer than a pass, so a
    slice slowed on one core in one pass tends to run at speed on another.
    """
    cpus = sorted(os.sched_getaffinity(0))
    setup_seconds(1, deadline)  # compiles the bytecode; not counted
    # Set-up samples spread over the whole run, so that their median spans
    # the machine's state during it.
    setup = setup_seconds(SETUP_PER_PASS, deadline)
    runs = []
    start = time.perf_counter()
    for i in range(workload.passes(seconds)):
        cpu = cpus[i % len(cpus)]
        runs.append(run_once(workload, program_seed, 0, "plain", deadline, cpu))
        setup += setup_seconds(SETUP_PER_PASS, deadline, cpu)
        # A host slowed far below the nominal pass time gets fewer passes
        # rather than an overlong run.
        now = time.perf_counter()
        next_end = now + (now - start) / len(runs)
        if next_end > deadline or \
                (len(runs) >= 2 and next_end > start + SLOW_HOST * seconds):
            break
    return runs, {"pass_s": [r["run_s"] for r in runs if r["run_s"] is not None],
                  "run_s": best_sum(runs, 0), "cpu_s": best_sum(runs, 1),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
                  "setup_s": statistics.median(setup)}, setup


BEST_OF = {
    "run_s": "(best wall time of each slice of {suites} suites over {passes} passes, summed)",
    "cpu_s": "(best CPU time of each slice of {suites} suites over {passes} passes, summed)",
    "setup_s": "(median of the set-up times above)",
}


def bench(workload, seed, seconds, trace):
    """Run the benchmark; returns (printable lines, result object)."""
    end_to_end, per_layer = load_spec()
    deadline = time.perf_counter() + DEADLINE_S
    program_seed = workload.program_seed(seed)
    lines = [f"workload {workload.name}, seed {seed}, "
             f"{workload.total} certificates per run"]
    metrics = {}
    if trace:
        runs, values, more = traced_runs(workload, program_seed, per_layer,
                                         deadline)
        lines += more
        metrics = {n: {"value": values[n], "unit": unit}
                   for n, unit in per_layer.items() if n in values}
    else:
        runs, values, setup = timed_runs(workload, program_seed, seconds,
                                         deadline)
        if values["pass_s"]:
            lines.append(summary("wall time per pass", "s", values["pass_s"]))
        lines.append(summary("set-up time per start", "s", setup))
        suites = len(runs[0]["result"].get("suites", {}))
        for name, unit in end_to_end.items():
            if values.get(name) is not None:
                metrics[name] = {"value": values[name], "unit": unit}
                how = BEST_OF.get(name, "(median over the {passes} passes)")
                lines.append(f"{name}: {values[name]:.4f} {unit} "
                             + how.format(suites=suites, passes=len(runs)))
    lines.append(f"program seed {program_seed}, {len(runs)} pass(es)")
    attempted = workload.total * len(runs)
    failed = sum(r["failed"] for r in runs)
    lines.append(f"fail_ratio: {failed / attempted:.4f} 1 ({failed} of {attempted} certificates)")
    problems = [p for r in runs for p in r["problems"]]
    lines.extend("FAIL " + p for p in problems)
    return lines, {"correct": not problems, "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def main(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "qrea" / "cli.py").is_file():
        print(f"perfbench: no qrea sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        lines, result = bench(WORKLOADS[args.workload], args.seed,
                              args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
