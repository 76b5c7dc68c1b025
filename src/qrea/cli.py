"""Command-line entry point.

Each subcommand yields its records (certificates, and the dumps they
certify) and main alone writes them to stdout as JSON lines, in a canonical
order so identical seeds and arguments give byte-identical output; a human
summary with timings goes to stderr, and with `check-all --timings` two
lines per suite: `[timings]` with its wall seconds and the process's peak
resident memory so far (`ru_maxrss`, in MB), then `[memos]` with the
entries of each memo of the suite contexts, and of each module-level memo,
that grew during the suite (`checks.memo_sizes`).  The exit code is
- 0 if every certificate passed; the dumps `wedge-table` without --check
  and `rea shapes` have none, and exit 0;
- 1 if some check failed or was inconclusive;
- 2 on a usage error, or a run with no certificates;
- 3 if stdout could not be written: a pipe closed early (silently) or a
  full disk (one line on stderr).

`classical shape|decompose|leaf FILE` certify the shape they print by the
decompose round trip (`checks.decompose_mismatch`), and `leaf` also the
sign counts of that shape against those of the spectrum
(`checks.sign_mismatch`).  `classical tangency` checks the leaf tangency at
exact random Hermitian points, one certificate each; `classical jacobi`
evaluates the exact cyclic Jacobi sums at exact random points and prints
the residual of largest modulus as an exact complex rational.

`check-all --N N` runs every suite of `checks.CHECKS`.  A suite with a
reach there certifies its identity at n = min(N, reach) only, so an N above
every reach prints the same stream as the largest reach; the other suites
run at their own fixed sizes whatever N is.  `verify F` and `rea verify F`
without --instance sweep the family at N within the bounds of its row.

A usage error prints one line to stderr and nothing to stdout.  Besides
unknown or malformed flags, the usage errors are:
- an --instance that is not a JSON object, lacks a key of its family, holds
  an index set that is not increasing within 1..N, or a position outside
  its set, or sets of inconsistent sizes;
- a --shape that is not JSON; for `rea qcomm`, one that is not an object
  with an integer list tau and a list u and no other key, or not a
  self-adjoint shape of size N;
- `wedge-table` degrees outside 0..N;
- `rea shapes`, and `rea qcomm` without --shape, beyond N = 5;
- an --N below 1, a `classical tangency|jacobi|invariance --samples`
  below 1, and any run that produces no certificates;
- a `classical shape|decompose|leaf` file that cannot be read or is not a
  square Hermitian matrix in JSON, whose "N" is below 1 or not its number
  of rows, or whose mode is neither exact nor numeric;
- a `classical build --shape` that is not an object with lists tau and u
  of one length and no other key, with a slot that is not null, "0", one
  part or an object {"re", "im"} of parts, or that is no valid shape;
  --weights that are not comma-separated rationals, one per slot, whose
  signs do not fit the slots, or that give a two-cycle (i, t) a pair
  whose -lam_i lam_t / |u_i|^2 is not a rational square;
- in a file or a --shape, a part that is neither an integer (a bool is
  none) nor a rational string, or an object with a key besides "re" and
  "im"; only a numeric file may also give finite floats, each read exactly
  as the binary rational it denotes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import braiding, checks, classical, coeff, qmatrix, shapes
from .qmatrix import Certificate


class UsageError(Exception):
    """Bad command-line input, reported by main in one line with exit 2."""


EXIT_CODES = ("exit codes: 0 every certificate passed (a dump has none), 1 "
              "a check failed or was inconclusive, 2 a usage error or a run "
              "with no certificates, 3 stdout could not be written (a closed "
              "pipe, a full disk)")
OUTPUT_ERROR = 3

# Input errors: main maps exactly these to a usage error.
_INPUT_ERRORS = (UsageError, braiding.DegreeOutOfRange, shapes.MalformedShape,
                 qmatrix.IllFormedInstance)


def _summarise(statuses, t0, label, dump):
    """Exit code of a run, from its certificates' statuses: 0 if all
    passed, 1 if one did not, 2 if there were none (a run that certifies
    nothing is no pass) unless the command is a dump."""
    tally = ", ".join(f"{statuses.count(s)} {s}"
                      for s in ("pass", "fail", "inconclusive"))
    print(f"[{label}] {tally if statuses else 'no certificates'} "
          f"({time.time() - t0:.1f}s)", file=sys.stderr)
    if not statuses:
        return 0 if dump else 2
    return 0 if statuses.count("pass") == len(statuses) else 1


def _json_arg(flag, text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag} is not JSON: {exc}") from None


def _load_instance(text, N, keys):
    """An --instance object as a family instance; primed keys K' I' J' read
    as Kp Ip Jp.  Each of `keys` must hold an increasing list of integers:
    within 1..N for the index sets I, J, I', J', from 1 on for the positions
    K, K', F, G (the identity's position pattern checks their ranges)."""
    obj = _json_arg("--instance", text)
    if not isinstance(obj, dict):
        raise UsageError("--instance must be a JSON object")
    obj = {k.replace("'", "p"): v for k, v in obj.items()}
    inst = {}
    for key in keys:
        name = key.replace("p", "'")
        if key not in obj:
            raise UsageError(f"--instance lacks {name}")
        v = obj[key]
        top = N if key in ("I", "J", "Ip", "Jp") else float("inf")
        if (not isinstance(v, list)
                or not all(type(x) is int and 1 <= x <= top for x in v)
                or any(a >= b for a, b in zip(v, v[1:]))):
            bound = f" in 1..{N}" if top == N else " from 1 on"
            raise UsageError(
                f"--instance {name} must be an increasing integer list{bound}")
        inst[key] = tuple(v)
    return inst


# -- subcommands ---------------------------------------------------------------
# Each yields (record, certificate or None) pairs in output order; main
# writes the records and counts the certificates.  Every input error is
# raised before the first pair.

def _records(certs):
    return ((c.to_json(), c) for c in certs)


def cmd_braid(args):
    """The braid kernel's checks at each size; a fail carries the failing
    word, or the asymmetric entry, under the key of the braiding.* suite
    witnesses."""
    kernel_checks = (("braid-relation", "word", braiding.braid_relation_check),
                     ("hecke", "word", braiding.hecke_check),
                     ("symmetric", "asymmetric", braiding.symmetry_check))
    for n in range(1, args.N + 1):
        for name, key, check in kernel_checks:
            bad = check(n)
            cert = Certificate.verdict("braid", {"N": n, "check": name},
                                       None if bad is None else {key: bad})
            yield cert.to_json(), cert


def cmd_wedge_table(args):
    tbl = braiding.WedgeBraidTable(args.N, args.k, args.l)
    yield tbl.to_json(), None
    if args.check:
        bad = (checks.wedge_table_mismatch(tbl)
               or tbl.composition_identity_check())
        cert = Certificate.verdict(
            "wedge-table", {"N": args.N, "k": args.k, "l": args.l}, bad)
        yield cert.to_json(), cert


def cmd_family(args):
    """`verify` and `rea verify`: one identity family, on one --instance or
    on the family's sweep."""
    instances = None
    if args.instance:
        keys = qmatrix.FAMILIES[args.algebra, args.family][2]
        instances = [_load_instance(args.instance, args.N, keys)]
    yield from _records(checks.family_certificates(
        args.algebra, args.family, args.N, instances))


def cmd_rea_shapes(args):
    for s in shapes.enumerate_shapes(args.N):
        if args.all or s.rank >= 1:
            rec = s.to_json()
            rec["rank"] = s.rank
            rec["labels"] = [{"rows": list(r), "cols": list(c)}
                             for (r, c) in s.minor_labels()]
            yield rec, None


def cmd_rea_qcomm(args):
    if args.shape:
        fams = [shapes.QuantumShape.from_json(_json_arg("--shape", args.shape))]
        if fams[0].N != args.N:
            raise UsageError(f"--shape has size {fams[0].N}, not --N {args.N}")
    else:
        fams = [s for s in shapes.enumerate_shapes(args.N) if s.rank >= 1]
    yield from _records(checks.qcomm_certificates(args.N, fams))


def cmd_rea_semiclassical(args):
    yield from _records(checks.semiclassical_certificates(args.N))


def _load_matrix(path):
    """The HermitianMatrix in the JSON file at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"{path} is not JSON: {exc}") from None
    try:
        return classical.HermitianMatrix.from_json(obj)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a Hermitian matrix: {exc!r}") from None


def _shape_slot(slot):
    """A --shape slot: null or "0" for none, else one part or an object
    {"re", "im"}, read by GaussRat.from_json."""
    if slot is None or slot == "0":
        return None
    return classical.GaussRat.from_json(
        slot if isinstance(slot, dict) else {"re": slot})


def _load_shape(text):
    """A `classical build --shape` object {"tau": [...], "u": [...]} as a
    ShapeMatrix; slots are parsed by _shape_slot."""
    sj = _json_arg("--shape", text)
    if (not isinstance(sj, dict) or sj.keys() != {"tau", "u"}
            or not isinstance(sj["tau"], list)
            or not isinstance(sj["u"], list)
            or len(sj["tau"]) != len(sj["u"])
            or not all(type(t) is int for t in sj["tau"])):
        raise UsageError("--shape must be an object with an integer list tau "
                         "and a list u of the same length, and no other key")
    try:
        return classical.ShapeMatrix(sj["tau"], [_shape_slot(x) for x in sj["u"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"--shape: {exc!r}") from None


def _load_weights(text):
    try:
        return [Fraction(w) for w in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--weights must be comma-separated rationals, "
                         f"got {text!r}") from None


def cmd_classical(args):
    rec, certs = None, []
    if args.classical_cmd in ("shape", "decompose", "leaf"):
        # every shape printed is certified by the decompose round trip,
        # and by `leaf` also against the signs of the spectrum
        z = _load_matrix(args.file)
        t, M = classical.decompose(z)
        bad = checks.decompose_mismatch(z, t, M)
        if args.classical_cmd == "decompose":
            rec = {"t": [[e.to_json() for e in row] for row in t],
                   "M": M.to_json(),
                   "shape": classical.reduced_shape(M).to_json()}
        else:
            shape = classical.shape_of(z)
            rec = {"shape": shape.to_json()}
        if args.classical_cmd == "leaf":
            rec["charpoly"] = [str(c) for c in classical.charpoly(z)]
            bad = bad or checks.sign_mismatch(z, shape)
        certs.append(Certificate.verdict(f"classical {args.classical_cmd}",
                                         {"file": args.file}, bad))
    elif args.classical_cmd == "build":
        S = _load_shape(args.shape)
        lam = _load_weights(args.weights)
        try:
            z = classical.build_leaf_point(S, lam)
        except ValueError as exc:
            raise UsageError(f"--weights do not fit the shape: {exc}") \
                from None
        rec = z.to_json()
        # z must have the shape and the weights asked for: the spectrum by
        # its power sums, then the shape
        shape = classical.shape_of(z)
        bad = checks.power_sum_mismatch(z, lam) or (
            None if shape == S else {"shape_of": shape.to_json()})
        certs.append(Certificate.verdict("classical build",
                                         {"weights": [str(w) for w in lam]},
                                         bad))
    elif args.classical_cmd == "tangency":
        reports = checks.tangency_reports(args.N, args.samples,
                                          coeff.Random(args.seed))
        for i, rep in enumerate(reports, 1):
            certs.append(Certificate.verdict("classical tangency",
                                             {"N": args.N, "sample": i},
                                             None if rep["equal"] else rep,
                                             seed=args.seed))
    elif args.classical_cmd == "jacobi":
        rep = classical.jacobi_check(args.N, samples=args.samples,
                                     seed=args.seed)
        rec = {"max_residual": rep["max_residual"].to_json()}
        certs.append(Certificate.verdict("classical jacobi",
                                         {"N": args.N, "samples": args.samples},
                                         checks.jacobi_failure(rep),
                                         seed=args.seed))
    elif args.classical_cmd == "invariance":
        witnesses = checks.tn_invariance_samples(args.N, args.samples,
                                                 coeff.Random(args.seed))
        for i, w in enumerate(witnesses):
            certs.append(Certificate.verdict(
                "classical invariance", {"N": args.N, "sample": i}, w,
                seed=args.seed))
    if rec is not None:
        yield rec, None
    yield from _records(certs)


def cmd_check_all(args):
    if args.timings:
        import resource
        sizes = checks.memo_sizes()
    for name, suite_certs, seconds in checks.run_all(args.N, args.seed):
        for cert in suite_certs:
            yield {**cert.to_json(), "suite": name}, cert
        if args.timings:
            # ru_maxrss is in KiB on Linux
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"[timings] {name} {seconds:.3f}s {peak:.1f}MB",
                  file=sys.stderr)
            before, sizes = sizes, checks.memo_sizes()
            grown = "".join(f" {memo}={n}" for memo, n in sizes.items()
                            if n > before.get(memo, 0))
            print(f"[memos] {name}{grown}", file=sys.stderr)


def build_parser():
    p = argparse.ArgumentParser(prog="qrea", epilog=EXIT_CODES)
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("braid", help="braid relation / quadratic identity")
    b.add_argument("--N", type=int, default=3)
    b.set_defaults(fn=cmd_braid)

    w = sub.add_parser("wedge-table", help="dump a wedge braiding table")
    w.add_argument("--N", type=int, required=True)
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--l", type=int, required=True)
    w.add_argument("--check", action="store_true")
    w.set_defaults(fn=cmd_wedge_table, dump=True)

    v = sub.add_parser("verify", help="quantum matrix identity families")
    r = sub.add_parser("rea", help="reflection-algebra checks")
    rsub = r.add_subparsers(dest="rea_cmd", required=True)
    for algebra, fp in (("qmatrix", v), ("rea", rsub.add_parser("verify"))):
        fp.add_argument("family", choices=sorted(
            f for a, f in qmatrix.FAMILIES if a == algebra))
        fp.add_argument("--N", type=int, default=2)
        fp.add_argument("--instance", type=str, default=None)
        fp.set_defaults(fn=cmd_family, algebra=algebra)
    rs = rsub.add_parser("shapes")
    rs.add_argument("--N", type=int, default=3)
    rs.add_argument("--all", action="store_true",
                    help="include the empty-support family")
    rs.set_defaults(fn=cmd_rea_shapes, dump=True)
    rq = rsub.add_parser("qcomm")
    rq.add_argument("--N", type=int, default=3)
    rq.add_argument("--shape", type=str, default=None)
    rq.set_defaults(fn=cmd_rea_qcomm)
    rc = rsub.add_parser("semiclassical")
    rc.add_argument("--N", type=int, default=2)
    rc.set_defaults(fn=cmd_rea_semiclassical)

    c = sub.add_parser("classical", help="classical-side computations")
    csub = c.add_subparsers(dest="classical_cmd", required=True)
    for name in ("shape", "decompose", "leaf"):
        cc = csub.add_parser(name)
        cc.add_argument("file")
        cc.set_defaults(fn=cmd_classical)
    cb = csub.add_parser("build")
    cb.add_argument("--shape", required=True)
    cb.add_argument("--weights", required=True)
    cb.set_defaults(fn=cmd_classical)
    for name, extra in (("tangency", 50), ("jacobi", 100), ("invariance", 100)):
        cc = csub.add_parser(name)
        cc.add_argument("--N", type=int, default=2)
        cc.add_argument("--samples", type=int, default=extra)
        # Given after the subcommand; without it the global --seed holds.
        cc.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        cc.set_defaults(fn=cmd_classical)

    ca = sub.add_parser("check-all", help="run every registered suite")
    ca.add_argument("--N", type=int, default=2)
    ca.add_argument("--timings", action="store_true",
                    help="print each suite's wall seconds and the peak "
                         "RSS so far to stderr")
    ca.set_defaults(fn=cmd_check_all)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    opts = vars(args)
    label = " ".join(opts[k] for k in ("cmd", "rea_cmd", "classical_cmd",
                                       "family") if k in opts)
    t0 = time.time()
    statuses = []
    try:
        for flag in ("N", "samples"):
            if opts.get(flag, 1) < 1:
                raise UsageError(f"--{flag} must be >= 1, got {opts[flag]}")
        for rec, cert in args.fn(args):
            sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
            if cert is not None:
                statuses.append(cert.status)
        sys.stdout.flush()
    except _INPUT_ERRORS as exc:
        print(f"qrea: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Subcommands do no I/O of their own (an unreadable file is a usage
        # error), so stdout is closed or full: a closed pipe needs no word,
        # and with fd 1 on os.devnull the flush at exit raises nothing
        if not isinstance(exc, BrokenPipeError):
            print(f"qrea: cannot write stdout: {exc.strerror}",
                  file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return OUTPUT_ERROR
    return _summarise(statuses, t0, label, opts.get("dump", False))


if __name__ == "__main__":
    sys.exit(main())
