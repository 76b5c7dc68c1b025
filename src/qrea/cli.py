"""Command-line entry point.

Certificates stream to stdout as JSON lines (one per instance, in a
canonical order so identical seeds and arguments give byte-identical
output); a human summary with timings goes to stderr.  Exit code 0 means
every requested check passed, 1 means some check failed, 2 is a usage
error.  The environment variable QREA_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import braiding, checks, classical, qmatrix, rea, shapes
from .qmatrix import Certificate


def _emit(cert, out):
    out.write(json.dumps(cert.to_json(), sort_keys=True) + "\n")


def _summarise(certs, t0, label):
    """Exit code of a run: 0 if every certificate passed, 1 if one did not,
    2 if there were none (a run that certifies nothing is no pass)."""
    if not certs:
        print(f"[{label}] no certificates", file=sys.stderr)
        return 2
    statuses = [c.status for c in certs]
    n_pass = statuses.count("pass")
    n_fail = statuses.count("fail")
    n_inc = statuses.count("inconclusive")
    dt = time.time() - t0
    print(f"[{label}] {n_pass} pass, {n_fail} fail, {n_inc} inconclusive "
          f"({dt:.1f}s)", file=sys.stderr)
    return 0 if n_fail == 0 and n_inc == 0 else 1


def _seed(args):
    env = os.environ.get("QREA_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _load_instance(text):
    obj = json.loads(text)
    if "K'" in obj:
        obj["Kp"] = obj.pop("K'")
    if "I'" in obj:
        obj["Ip"] = obj.pop("I'")
    if "J'" in obj:
        obj["Jp"] = obj.pop("J'")
    return {k: tuple(v) for k, v in obj.items()}


# -- subcommand runners ------------------------------------------------------

def cmd_braid(args):
    if args.N < 1:
        print(f"qrea braid: --N must be >= 1, got {args.N}", file=sys.stderr)
        return 2
    t0 = time.time()
    certs = []
    for n in range(1, args.N + 1):
        R = braiding.build_braid(n)
        certs.append(Certificate("braid", {"N": n, "check": "braid-relation"},
                                 "pass" if braiding.braid_relation_check(n) else "fail"))
        certs.append(Certificate("braid", {"N": n, "check": "hecke"},
                                 "pass" if R.hecke_check() else "fail"))
        certs.append(Certificate("braid", {"N": n, "check": "symmetric"},
                                 "pass" if R.is_symmetric() else "fail"))
    for c in certs:
        _emit(c, sys.stdout)
    return _summarise(certs, t0, "braid")


def cmd_wedge_table(args):
    t0 = time.time()
    tbl = braiding.wedge_braiding(args.N, args.k, args.l)
    sys.stdout.write(json.dumps(tbl.to_json(), sort_keys=True) + "\n")
    status = "pass"
    if args.check:
        ok = (not tbl.support_condition_violations()
              and not tbl.support_condition_violations(tbl.inv_entries)
              and not tbl.diagonal_report()
              and tbl.composition_identity_check())
        status = "pass" if ok else "fail"
        _emit(Certificate("wedge-table",
                          {"N": args.N, "k": args.k, "l": args.l}, status),
              sys.stdout)
    print(f"[wedge-table] dumped N={args.N} k={args.k} l={args.l} "
          f"({time.time() - t0:.1f}s)", file=sys.stderr)
    return 0 if status == "pass" else 1


_QM_FAMILIES = {"laplace": ("laplace-row", "laplace-col"),
                "muir": ("muir-row", "muir-col"),
                "braidcomm": ("braidcomm-1", "braidcomm-2")}


def cmd_verify(args):
    t0 = time.time()
    ctx = checks.get_ctx(args.N)
    fams = _QM_FAMILIES[args.family]
    certs = []
    if args.instance:
        inst = _load_instance(args.instance)
        for fam in fams:
            certs.append(qmatrix.verify_identity(ctx, fam, inst))
    else:
        gen = {"laplace": qmatrix.laplace_instances,
               "muir": qmatrix.muir_instances,
               "braidcomm": qmatrix.braidcomm_instances}[args.family]
        for inst in gen(args.N):
            for fam in fams:
                certs.append(qmatrix.verify_identity(ctx, fam, inst))
    for c in certs:
        _emit(c, sys.stdout)
    return _summarise(certs, t0, f"verify {args.family}")


_REA_FAMILIES = {"gencomm": ("gencomm",),
                 "laplace": ("laplace1", "laplace2"),
                 "muir": ("muir-left", "muir-right")}


def cmd_rea_verify(args):
    t0 = time.time()
    star = checks.get_star(args.N)
    fams = _REA_FAMILIES[args.family]
    certs = []
    if args.instance:
        inst = _load_instance(args.instance)
        for fam in fams:
            certs.append(rea.rea_verify(star, fam, inst))
    else:
        gen = {"gencomm": lambda n: rea.gencomm_instances(n, 2, 2),
               "laplace": rea.rea_laplace_instances,
               "muir": lambda n: rea.rea_muir_instances(n, 3, 2)}[args.family]
        for inst in gen(args.N):
            for fam in fams:
                certs.append(rea.rea_verify(star, fam, inst))
    for c in certs:
        _emit(c, sys.stdout)
    return _summarise(certs, t0, f"rea {args.family}")


def cmd_rea_shapes(args):
    fams = shapes.enumerate_shapes(args.N)
    if not args.all:
        fams = [s for s in fams if s.rank >= 1]
    for s in fams:
        rec = s.to_json()
        rec["rank"] = s.rank
        rec["labels"] = [{"rows": list(r), "cols": list(c)}
                         for (r, c) in s.minor_labels()]
        sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"[rea shapes] {len(fams)} families", file=sys.stderr)
    return 0


def cmd_rea_qcomm(args):
    t0 = time.time()
    ctx = checks.get_ctx(args.N)
    certs = []
    if args.shape:
        fams = [shapes.QuantumShape.from_json(json.loads(args.shape))]
    else:
        fams = [s for s in shapes.enumerate_shapes(args.N) if s.rank >= 1]
    from itertools import combinations
    for s in fams:
        for k in range(1, s.rank + 1):
            for m in (1, 2):
                for I in combinations(range(1, args.N + 1), m):
                    for J in combinations(range(1, args.N + 1), m):
                        certs.append(shapes.shape_qcomm_certificate(
                            ctx, s, k, I, J))
    for c in certs:
        _emit(c, sys.stdout)
    return _summarise(certs, t0, "rea qcomm")


def cmd_rea_semiclassical(args):
    t0 = time.time()
    star = checks.get_star(args.N)
    table = classical.poisson_bracket_coeffs(args.N)
    certs = []
    for i in range(1, args.N + 1):
        for j in range(1, args.N + 1):
            for k in range(1, args.N + 1):
                for l in range(1, args.N + 1):
                    certs.append(rea.semiclassical_bracket_check(
                        star, (i, j), (k, l), table))
    for c in certs:
        _emit(c, sys.stdout)
    return _summarise(certs, t0, "rea semiclassical")


def _load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return classical.HermitianMatrix.from_json(json.load(fh))


def cmd_classical(args):
    t0 = time.time()
    certs = []
    if args.classical_cmd == "shape":
        z = _load_matrix(args.file)
        s = classical.shape_of(z)
        certs.append(Certificate("classical shape", {"file": args.file},
                                 "pass", witness=None))
        sys.stdout.write(json.dumps({"shape": s.to_json()}, sort_keys=True) + "\n")
    elif args.classical_cmd == "decompose":
        z = _load_matrix(args.file)
        t, S = classical.decompose(z)
        resid = classical.decompose_residual(z, t, S)
        rec = {"t": t.to_json(), "shape": S.to_json(), "residual": resid}
        sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
        certs.append(Certificate("classical decompose", {"file": args.file},
                                 "pass" if resid <= 1e-9 else "fail"))
    elif args.classical_cmd == "leaf":
        z = _load_matrix(args.file)
        lab = classical.leaf_label(z)
        sys.stdout.write(json.dumps(lab.to_json(), sort_keys=True) + "\n")
        certs.append(Certificate("classical leaf", {"file": args.file}, "pass"))
    elif args.classical_cmd == "build":
        sj = json.loads(args.shape)
        u = []
        for slot in sj["u"]:
            if slot is None or slot == "0":
                u.append(None)
            elif isinstance(slot, dict):
                if slot.get("numeric"):
                    u.append(complex(slot["re"], slot["im"]))
                else:
                    u.append(classical.GaussRat.from_json(slot))
            else:
                u.append(classical.GaussRat(Fraction(slot)))
        S = classical.ShapeMatrix(sj["tau"], u)
        lam = [Fraction(w) for w in args.weights.split(",")]
        z = classical.build_leaf_point(S, lam)
        sys.stdout.write(json.dumps(z.to_json(), sort_keys=True) + "\n")
        lab = classical.leaf_label(z)
        ok = lab.shape.same_shape(S)
        certs.append(Certificate("classical build",
                                 {"weights": [str(w) for w in lam]},
                                 "pass" if ok else "fail"))
    elif args.classical_cmd == "tangency":
        import numpy as np
        rng = np.random.default_rng(_seed(args))
        done = attempts = 0
        ok = True
        while done < args.samples and attempts < 10 * args.samples:
            attempts += 1
            zr = rng.standard_normal((args.N, args.N)) \
                + 1j * rng.standard_normal((args.N, args.N))
            z = classical.HermitianMatrix((zr + zr.conj().T) / 2, mode="numeric")
            try:
                rep = classical.leaf_tangency_check(z)
            except classical.IllConditioned:
                continue
            done += 1
            certs.append(Certificate("classical tangency",
                                     {"N": args.N, "sample": done},
                                     "pass" if rep["equal"] else "fail",
                                     witness=None if rep["equal"] else rep,
                                     seed=_seed(args)))
            ok = ok and rep["equal"]
        for c in certs:
            _emit(c, sys.stdout)
        return _summarise(certs, t0, "classical tangency")
    elif args.classical_cmd == "jacobi":
        rep = classical.jacobi_check(args.N, samples=args.samples,
                                     seed=_seed(args))
        certs.append(Certificate("classical jacobi",
                                 {"N": args.N, "samples": args.samples},
                                 "pass" if rep["ok"] else "fail",
                                 seed=_seed(args)))
        sys.stdout.write(json.dumps({"max_residual": rep["max_residual"]},
                                    sort_keys=True) + "\n")
    elif args.classical_cmd == "invariance":
        import random as _random
        rng = _random.Random(_seed(args))
        ok = True
        for i in range(args.samples):
            z = classical.random_exact_hermitian(args.N, rng)
            t = classical.random_triangular(args.N, rng)
            good = classical.tn_invariance_check(z, t)
            certs.append(Certificate("classical invariance",
                                     {"N": args.N, "sample": i},
                                     "pass" if good else "fail",
                                     seed=_seed(args)))
            ok = ok and good
        for c in certs:
            _emit(c, sys.stdout)
        return _summarise(certs, t0, "classical invariance")
    for c in certs:
        _emit(c, sys.stdout)
    return _summarise(certs, t0, f"classical {args.classical_cmd}")


def cmd_check_all(args):
    t0 = time.time()
    seed = _seed(args)
    certs = []
    for name, cert in checks.run_all(args.N, seed):
        rec = cert.to_json()
        rec["suite"] = name
        sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
        certs.append(cert)
    return _summarise(certs, t0, "check-all")


def build_parser():
    p = argparse.ArgumentParser(prog="qrea")
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
    w.set_defaults(fn=cmd_wedge_table)

    v = sub.add_parser("verify", help="quantum matrix identity families")
    v.add_argument("family", choices=sorted(_QM_FAMILIES))
    v.add_argument("--N", type=int, default=2)
    v.add_argument("--sweep", action="store_true")
    v.add_argument("--instance", type=str, default=None)
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("rea", help="reflection-algebra checks")
    rsub = r.add_subparsers(dest="rea_cmd", required=True)
    rv = rsub.add_parser("verify")
    rv.add_argument("family", choices=sorted(_REA_FAMILIES))
    rv.add_argument("--N", type=int, default=2)
    rv.add_argument("--sweep", action="store_true")
    rv.add_argument("--instance", type=str, default=None)
    rv.set_defaults(fn=cmd_rea_verify)
    rs = rsub.add_parser("shapes")
    rs.add_argument("--N", type=int, default=3)
    rs.add_argument("--json", action="store_true")
    rs.add_argument("--all", action="store_true",
                    help="include the empty-support family")
    rs.set_defaults(fn=cmd_rea_shapes)
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
        cc.add_argument("--seed", type=int, default=0)
        cc.set_defaults(fn=cmd_classical)

    ca = sub.add_parser("check-all", help="run every registered suite")
    ca.add_argument("--N", type=int, default=2)
    ca.set_defaults(fn=cmd_check_all)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
