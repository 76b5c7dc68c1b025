import ast
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qrea import checks, classical, cli, qmatrix
from qrea.cli import OUTPUT_ERROR, main
from qrea.memo import module_memos
from test_suite_mutations import (_broken_move, fresh_memos,
                                  perturbed_bracket)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_braid_command(capsys):
    code, out, err = run_cli(capsys, ["braid", "--N", "2"])
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert all(rec["status"] == "pass" for rec in lines)
    assert len(lines) == 6


def test_braid_fails_carry_the_suite_witnesses(capsys, monkeypatch):
    # under the broken braid move each failing `braid` record carries the
    # word, or the asymmetric entry, of the braiding.braid-relation or
    # braiding.hecke certificate at its N, under that witness's key
    fresh_memos(monkeypatch)
    _broken_move(monkeypatch)
    suite = {name: {c.instance["N"]: c.witness or {}
                    for c in dict(checks.CHECKS)[f"braiding.{name}"](3, 0)}
             for name in ("braid-relation", "hecke")}
    keys = {"braid-relation": ("braid-relation", "word"),
            "hecke": ("hecke", "word"), "symmetric": ("hecke", "asymmetric")}
    expected = {}
    for N in (1, 2, 3):
        for check, (name, key) in keys.items():
            value = suite[name][N].get(key)
            expected[N, check] = None if value is None else json.loads(
                json.dumps({key: value}))
    code, out, _ = run_cli(capsys, ["braid", "--N", "3"])
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 1
    assert {(r["instance"]["N"], r["instance"]["check"]): r.get("witness")
            for r in recs} == expected
    assert [r["status"] == "fail" for r in recs] == [
        w is not None for w in expected.values()]
    assert sum(w is not None for w in expected.values()) >= 3


def test_jacobi_fail_carries_the_suite_witness(capsys, monkeypatch):
    # `classical jacobi --N 2 --samples 100` at seed 0 is the jacobi
    # suite's n = 2 run: under a perturbed bracket both fail with one
    # witness
    fresh_memos(monkeypatch)
    perturbed_bracket(monkeypatch)
    cert = checks.check_jacobi(2, 0)[0]
    assert cert.status == "fail"
    assert set(cert.witness) == {"nonzero_cyclic_polys", "first",
                                 "max_residual"}
    code, out, _ = run_cli(capsys, ["--seed", "0", "classical", "jacobi",
                                    "--N", "2", "--samples", "100"])
    rec = json.loads(out.splitlines()[1])
    assert code == 1
    assert rec["status"] == "fail"
    assert rec["witness"] == json.loads(json.dumps(cert.witness))


@pytest.mark.parametrize("N, count", [(2, 12), (3, 78)])
def test_jacobi_fails_on_a_nonzero_cyclic_sum_at_any_point(capsys,
                                                           monkeypatch, N,
                                                           count):
    # at seed 0 the one point drawn has Z11 = 0, where the perturbed sums
    # vanish; a nonzero cyclic polynomial still fails the run
    fresh_memos(monkeypatch)
    perturbed_bracket(monkeypatch)
    code, out, _ = run_cli(capsys, ["--seed", "0", "classical", "jacobi",
                                    "--N", str(N), "--samples", "1"])
    rec = json.loads(out.splitlines()[1])
    assert code == 1
    assert rec["status"] == "fail"
    assert rec["witness"]["nonzero_cyclic_polys"] == count
    assert rec["witness"]["first"]["triple"] == [[1, 1], [1, 2], [1, 2]]


def test_braid_n0_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["braid", "--N", "0"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_empty_run_is_not_a_pass(capsys):
    code, out, err = run_cli(capsys, ["rea", "qcomm", "--N", "2", "--shape",
                                      '{"tau":[1,2],"u":["0","0"]}'])
    assert code == 2
    assert out == ""
    assert "no certificates" in err


def test_wedge_table_dump(capsys):
    code, out, _ = run_cli(capsys, ["wedge-table", "--N", "2", "--k", "1",
                                    "--l", "1", "--check"])
    assert code == 0
    first = json.loads(out.strip().splitlines()[0])
    assert first["N"] == 2 and first["entries"]
    # values are LaurentPoly.to_json: exponent -> coefficient, no wrapper
    values = {(tuple(e["I"]), tuple(e["J"]), tuple(e["I'"]), tuple(e["J'"])):
              e["value"] for e in first["entries"]}
    assert values[(2,), (1,), (2,), (1,)] == {"-1": "1", "1": "-1"}
    assert values[(1,), (1,), (1,), (1,)] == {"-1": "1"}


def test_verify_instance(capsys):
    inst = json.dumps({"I": [1, 2], "J": [1, 2], "K": [1], "K'": [1]})
    code, out, _ = run_cli(capsys, ["verify", "laplace", "--N", "2",
                                    "--instance", inst])
    assert code == 0
    assert all(json.loads(l)["status"] == "pass"
               for l in out.strip().splitlines())


def test_rea_shapes_count(capsys):
    code, out, _ = run_cli(capsys, ["rea", "shapes", "--N", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    ranks = [json.loads(l)["rank"] for l in lines]
    assert ranks.count(3) == 4 and ranks.count(2) == 6 and ranks.count(1) == 3


def test_rea_shapes_all_flag(capsys):
    code, out, _ = run_cli(capsys, ["rea", "shapes", "--N", "3", "--all"])
    assert code == 0
    assert len(out.strip().splitlines()) == 14


def test_rea_qcomm_single_shape(capsys):
    shape = json.dumps({"tau": [2, 1, 3], "u": ["y", "ybar", "0"]})
    code, out, _ = run_cli(capsys, ["rea", "qcomm", "--N", "3",
                                    "--shape", shape])
    assert code == 0
    assert all(json.loads(l)["status"] == "pass"
               for l in out.strip().splitlines())


def test_rea_semiclassical(capsys):
    code, out, _ = run_cli(capsys, ["rea", "semiclassical", "--N", "2"])
    assert code == 0
    assert len(out.strip().splitlines()) == 16


def test_classical_file_commands(tmp_path, capsys):
    z = {"N": 2, "mode": "exact",
         "entries": [[{"re": "0", "im": "0"}, {"re": "0", "im": "1"}],
                     [{"re": "0", "im": "-1"}, {"re": "0", "im": "0"}]]}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(z))
    code, out, _ = run_cli(capsys, ["classical", "shape", str(path)])
    assert code == 0
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["shape"]["tau"] == [2, 1]

    # a two-cycle already reduced: t' = 1 and M = z, exactly
    code, out, _ = run_cli(capsys, ["classical", "decompose", str(path)])
    assert code == 0
    rec = json.loads(out.strip().splitlines()[0])
    one, zero = {"re": "1", "im": "0"}, {"re": "0", "im": "0"}
    assert rec == {"t": [[one, zero], [zero, one]], "M": z,
                   "shape": {"tau": [2, 1], "u": [{"re": "0", "im": "-1"},
                                                  {"re": "0", "im": "1"}]}}

    # the exact characteristic polynomial x^2 - 1, not float eigenvalues
    code, out, _ = run_cli(capsys, ["classical", "leaf", str(path)])
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["charpoly"] == [
        "1", "0", "-1"]

    # a numeric file is read exactly, 0.1 as the binary rational it is
    path.write_text(json.dumps({"N": 1, "mode": "numeric",
                                "entries": [[{"re": 0.1, "im": 0.0}]]}))
    code, out, _ = run_cli(capsys, ["classical", "leaf", str(path)])
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["charpoly"] == [
        "1", "-3602879701896397/36028797018963968"]


def test_classical_shape_of_an_irrational_ray(tmp_path, capsys):
    # [[0, 1 - i], [1 + i, 0]]: the pivot ratio 1 + i has modulus sqrt 2, so
    # the slot is the primitive Gaussian integer 1 + i; decompose's M reads
    # the same shape, and `classical build` round-trips it
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"N": 2, "mode": "exact", "entries": [
        [{"re": "0"}, {"re": "1", "im": "-1"}],
        [{"re": "1", "im": "1"}, {"re": "0"}]]}))
    shape = {"tau": [2, 1], "u": [{"re": "1", "im": "1"},
                                  {"re": "1", "im": "-1"}]}
    code, out, _ = run_cli(capsys, ["classical", "shape", str(path)])
    assert code == 0
    assert json.loads(out.splitlines()[0]) == {"shape": shape}
    code, out, _ = run_cli(capsys, ["classical", "decompose", str(path)])
    assert code == 0
    assert json.loads(out.splitlines()[0])["shape"] == shape
    code, out, _ = run_cli(capsys, ["classical", "build", "--shape",
                                    json.dumps(shape), "--weights", "1,-2"])
    assert code == 0
    built, cert = (json.loads(l) for l in out.splitlines())
    assert cert["status"] == "pass"
    assert built["entries"][1][0] == {"re": "1", "im": "1"}


def test_classical_shape_and_leaf_certify_their_shape(tmp_path, capsys,
                                                     monkeypatch):
    # a shape_of that reads the shape of -z: `classical shape` and `leaf`
    # print it and fail by the decompose round trip, whose M reads the
    # shape of z; a leaf whose spectrum has other sign counts than its
    # shape fails with the sign-compatibility witness keys
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"N": 2, "mode": "exact", "entries": [
        [{"re": "1"}, {"re": "0", "im": "1"}],
        [{"re": "0", "im": "-1"}, {"re": "0"}]]}))
    right = classical.shape_of
    shape = right(classical.HermitianMatrix.from_json(
        json.loads(path.read_text()))).to_json()
    monkeypatch.setattr(classical, "shape_of", lambda z: right(
        classical.HermitianMatrix(z.D, [[(-x, -y) for x, y in row]
                                        for row in z.w])))
    for cmd in ("shape", "leaf"):
        code, out, _ = run_cli(capsys, ["classical", cmd, str(path)])
        rec, cert = (json.loads(line) for line in out.splitlines())
        assert code == 1 and cert["status"] == "fail", cmd
        assert cert["witness"] == {"law": "shape", "shape": shape,
                                   "shape_of": rec["shape"]}, cmd
    monkeypatch.setattr(classical, "shape_of", right)
    signs = classical.eigenvalue_signs
    monkeypatch.setattr(classical, "eigenvalue_signs",
                        lambda z: signs(z)[::-1])
    code, out, _ = run_cli(capsys, ["classical", "leaf", str(path)])
    assert code == 1
    assert json.loads(out.splitlines()[1])["witness"] == {
        "shape_signs": [1, 1, 0], "eigenvalue_signs": [0, 1, 1]}
    code, _, _ = run_cli(capsys, ["classical", "shape", str(path)])
    assert code == 0


def test_classical_build(capsys):
    shape = json.dumps({"tau": [2, 1], "u": [{"re": "0", "im": "-1"},
                                             {"re": "0", "im": "1"}]})
    # one weight per slot: -(2)(-8) = 16 is a square, so the block
    # [[0, 4i], [-4i, -6]] is exact
    code, out, _ = run_cli(capsys, ["classical", "build", "--shape", shape,
                                    "--weights", "2,-8"])
    assert code == 0
    built, cert = (json.loads(l) for l in out.splitlines())
    assert built["entries"][0][1] == {"re": "0", "im": "4"}
    assert cert["status"] == "pass"
    # -(2)(-3) = 6 is not: a usage error that names the pair
    code, out, err = run_cli(capsys, ["classical", "build", "--shape", shape,
                                      "--weights", "2,-3"])
    assert (code, out) == (2, "")
    assert "two-cycle (1, 2)" in err


def test_classical_build_certifies_the_weights(capsys, monkeypatch):
    # a builder that doubles every weight keeps the shape and moves the
    # spectrum: the certificate fails at the first power sum, m = 1
    right = classical.build_leaf_point
    monkeypatch.setattr(classical, "build_leaf_point",
                        lambda S, lam: right(S, [2 * x for x in lam]))
    code, out, _ = run_cli(capsys, ["classical", "build", "--shape",
                                    '{"tau":[2,1],"u":["1","1"]}',
                                    "--weights", "2,-8"])
    assert code == 1
    built, cert = (json.loads(l) for l in out.splitlines())
    assert classical.shape_of(classical.HermitianMatrix.from_json(built)) \
        == classical.ShapeMatrix([2, 1], [classical.GaussRat(1)] * 2)
    assert cert["status"] == "fail"
    assert cert["witness"] == {"m": 1, "trace": {"re": "-12", "im": "0"},
                               "expected": "-6"}


def test_classical_tangency_and_invariance(capsys):
    # tangency draws exact points: one passing certificate per sample, none
    # skipped
    code, out, _ = run_cli(capsys, ["classical", "tangency", "--N", "3",
                                    "--samples", "5", "--seed", "3"])
    assert code == 0
    recs = [json.loads(l) for l in out.strip().splitlines()]
    assert [(r["instance"], r["status"], r["seed"]) for r in recs] == [
        ({"N": 3, "sample": i}, "pass", 3) for i in range(1, 6)]
    code, out, _ = run_cli(capsys, ["classical", "invariance", "--N", "2",
                                    "--samples", "5", "--seed", "3"])
    assert code == 0


def test_dumps_exit_0_without_certificates(capsys):
    code, out, err = run_cli(capsys, ["wedge-table", "--N", "2", "--k", "1",
                                      "--l", "1"])
    assert code == 0
    assert json.loads(out)["N"] == 2
    assert "no certificates" in err


_SRC_ENV = {**os.environ,
            "PYTHONPATH": str(Path(checks.__file__).resolve().parent.parent)}


def test_closed_pipe_is_an_output_error():
    # -u writes each record as it comes, so records follow the first one
    # after the reader has gone
    proc = subprocess.Popen([sys.executable, "-u", "-m", "qrea.cli",
                             "--seed", "0", "check-all", "--N", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_SRC_ENV)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == OUTPUT_ERROR
    assert json.loads(first)["suite"] == "coeff.ring-axioms"
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("flags", [[], ["-u"]])
def test_full_disk_is_an_output_error(flags):
    # buffered, the write fails at main's flush; with -u, at the first record
    env = {k: v for k, v in _SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, *flags, "-m", "qrea.cli",
                               "--seed", "0", "braid", "--N", "2"],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env)
    assert proc.returncode == OUTPUT_ERROR
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_cli_has_one_stdout_writer():
    # main writes every record; the rest of the CLI prints to stderr only
    text = Path(cli.__file__).read_text()
    assert text.count("sys.stdout.write") == 1
    bare = [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "print"
            and not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                        for k in node.keywords)]
    assert not bare, f"print to stdout at cli.py lines {bare}"


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "qrea.cli", "--bogus"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_seed_env_is_ignored(capsys, monkeypatch):
    """--seed is the only way to seed a run: QREA_SEED is not read."""
    monkeypatch.setenv("QREA_SEED", "99")
    code, out, _ = run_cli(capsys, ["classical", "tangency", "--N", "2",
                                    "--samples", "2", "--seed", "3"])
    assert code == 0
    recs = [json.loads(l) for l in out.strip().splitlines()]
    assert recs and all(r["seed"] == 3 for r in recs)


def test_global_seed_reaches_classical_subcommands(capsys):
    code, out, _ = run_cli(capsys, ["--seed", "5", "classical", "jacobi",
                                    "--N", "2", "--samples", "3"])
    assert code == 0
    recs = [json.loads(l) for l in out.strip().splitlines()]
    assert [r["seed"] for r in recs if "seed" in r] == [5]
    # the residual is exact: a complex rational, here zero
    assert recs[0] == {"max_residual": {"re": "0", "im": "0"}}


_MISSING_FILE = str(Path(__file__).parent / "no_such_matrix.json")


@pytest.mark.parametrize("argv", [
    ["verify", "laplace", "--N", "2", "--instance", "{bad"],
    ["verify", "laplace", "--N", "2", "--instance", '{"I":[1,2]}'],
    ["verify", "laplace", "--N", "2", "--instance",
     '{"I":[1,5],"J":[1,2],"K":[1],"K\'":[1]}'],
    ["verify", "laplace", "--N", "2", "--instance",
     '{"I":[1,2],"J":[1,2],"K":[3],"K\'":[1]}'],
    ["rea", "verify", "gencomm", "--N", "2", "--instance",
     '{"I":[2,1],"J":[1,2],"I\'":[1],"J\'":[1]}'],
    ["wedge-table", "--N", "2", "--k", "3", "--l", "1"],
    ["rea", "shapes", "--N", "6"],
    ["rea", "qcomm", "--N", "3", "--shape",
     '{"tau":[1,1,3],"u":["0","0","0"]}'],
    ["rea", "qcomm", "--N", "2", "--shape",
     '{"tau":[2,1,3],"u":["y","ybar","0"]}'],
    ["classical", "build", "--shape", '{"tau":[2,1]}', "--weights", "2,-3"],
    ["classical", "build", "--shape", '{"tau":[1,2],"u":["x","1"]}',
     "--weights", "2,3"],
    ["classical", "build", "--shape", '{"tau":[1,2],"u":["1","1"]}',
     "--weights", "2,x"],
    ["classical", "build", "--shape", '{"tau":[1,2],"u":["1","1"]}',
     "--weights", "2,-3"],
    ["classical", "shape", _MISSING_FILE],
    ["classical", "decompose", _MISSING_FILE],
    ["classical", "leaf", _MISSING_FILE],
    ["check-all", "--N", "0"],
    ["check-all", "--N", "-2"],
    ["classical", "tangency", "--N", "0"],
    ["classical", "invariance", "--N", "0"],
    ["classical", "jacobi", "--N", "-1"],
    ["classical", "jacobi", "--N", "0"],
    ["classical", "jacobi", "--samples", "0"],
    ["classical", "tangency", "--samples", "0"],
    ["classical", "invariance", "--samples", "-3"],
    # a dict in argv is written to a file and replaced by its path
    ["classical", "shape", {"N": 0, "mode": "exact", "entries": []}],
    ["classical", "leaf", {"N": 1, "mode": "exact",
                           "entries": [[{"re": "1"}, {"re": "0"}]]}],
    ["classical", "decompose", {"N": 2, "mode": "numeric",
                                "entries": [[{"re": 1.0, "im": 0.0},
                                             {"re": 0.0, "im": 0.0}]]}],
    ["rea", "qcomm", "--N", "3", "--shape", '{"tau":[1,2,3]}'],
    ["rea", "qcomm", "--N", "3", "--shape", '[1,2,3]'],
    ["rea", "qcomm", "--N", "3", "--shape",
     '{"tau":["a","b","c"],"u":["s1","s2","s3"]}'],
    ["classical", "decompose", {"N": 3, "mode": "exact",
                                "entries": [[{"re": "1"}]]}],
    ["classical", "decompose", {"N": 0, "mode": "exact", "entries": []}],
    ["classical", "leaf", {"N": 0, "mode": "exact", "entries": []}],
    ["classical", "build", "--shape", '{"tau":[2,1],"u":["1","1"]}',
     "--weights", "2"],
    ["classical", "build", "--shape", '{"tau":[2,1],"u":["1","1"]}',
     "--weights", "2,-3"],
    ["classical", "build", "--shape",
     '{"tau":[1],"u":[{"re":1.0,"im":0.0,"numeric":true}]}', "--weights", "2"],
    ["classical", "leaf", {"N": 1, "mode": "exact",
                           "entries": [[{"re": 0.1}]]}],
    # --shape slots are exact: a float slot or float part is refused
    ["classical", "build", "--shape",
     '{"tau":[2,1],"u":[{"re":0.6,"im":-0.8},{"re":0.6,"im":0.8}]}',
     "--weights", "2,-8"],
    ["classical", "build", "--shape", '{"tau":[1],"u":[0.1]}',
     "--weights", "2"],
    # a part is an int that is not a bool, or a rational string, in an
    # object with no key besides re and im; an infinite float is no number
    ["classical", "build", "--shape", '{"tau":[1],"u":[true]}',
     "--weights", "2"],
    ["classical", "build", "--shape", '{"tau":[1],"u":[{"re":true}]}',
     "--weights", "2"],
    ["classical", "build", "--shape",
     '{"tau":[1],"u":[{"re":"1","bogus":"2"}]}', "--weights", "2"],
    ["classical", "leaf", {"N": 1, "mode": "exact",
                           "entries": [[{"re": True}]]}],
    ["classical", "leaf", {"N": 1, "mode": "exact",
                           "entries": [[{"re": "1", "typo": "5"}]]}],
    ["classical", "leaf", {"N": 1, "mode": "numeric",
                           "entries": [[{"re": float("inf")}]]}],
    # a rational string with a zero denominator
    ["classical", "build", "--shape", '{"tau":[1],"u":["1/0"]}',
     "--weights", "2"],
    ["classical", "build", "--shape", '{"tau":[1],"u":["1"]}',
     "--weights", "1/0"],
    ["classical", "leaf", {"N": 1, "mode": "exact",
                           "entries": [[{"re": "1/0"}]]}],
    # a --shape key besides tau and u
    ["rea", "qcomm", "--N", "2", "--shape",
     '{"tau":[2,1],"u":["y","ybar"],"x":1}'],
    ["classical", "build", "--shape",
     '{"tau":[1,2],"taus":[2,1],"u":["1","1"]}', "--weights", "2,3"],
    # sign slots on a two-cycle, and slots that are not strings
    ["rea", "qcomm", "--N", "2", "--shape", '{"tau":[2,1],"u":["s1","s1"]}'],
    ["rea", "qcomm", "--N", "2", "--shape", '{"tau":[2,1],"u":[5,"5bar"]}'],
])
def test_bad_input_is_usage_error(capsys, tmp_path, argv):
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"arg{i}.json"
            path.write_text(json.dumps(arg))
            argv = argv[:i] + [str(path)] + argv[i + 1:]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "laplace", "--sweep"],
    ["rea", "verify", "laplace", "--sweep"],
    ["rea", "shapes", "--json"],
])
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# `check-all --seed 0` stdout sha256 by N; no reach is above 4, so N=5
# prints N=4's stream
_DIGESTS = {
    "1": "44a9e4d7f4f30c517d7ae92254d89ee003538d7ec372f6fc0252af54b2d4d21f",
    "2": "391dcdf59b29c1c5362db55e8ce411551deaa1afb3fcef0f2f0657658a49a631",
    "3": "88bae471497bd0ad863a33cb38849e054f8e3c56e5a99a6ae095bf9079930ce1",
    "4": "6b9af628b7b3511e2a45c4407c4996ecade712e540c1dff8b05a7eb81bffee59",
    "5": "6b9af628b7b3511e2a45c4407c4996ecade712e540c1dff8b05a7eb81bffee59"}

# The floor of each reach in checks.CHECKS: a capped suite's own, under
# its name, and each inner bound's, under "name bound".  Reaches never come
# down; a change that raises one raises its floor here with it.
_REACH_FLOORS = {
    "braiding.braid-relation": 4,
    "braiding.hecke": 4,
    "braiding.wedge-table": 4,
    "braiding.wedge-table kmax": 3,
    "braiding.wedge-composition": 4,
    "braiding.wedge-composition kmax": 3,
    "braiding.embed-equivariance": 4,
    "braiding.embed-equivariance kmax": 3,
    "braiding.scalar-lemma": 4,
    "braiding.antisym-swap": 4,
    "qmatrix.pbw-dimensions": 4,
    "qmatrix.counit-axiom": 4,
    "qmatrix.minor-coproduct": 4,
    "qmatrix.convolution-certificates": 4,
    "qmatrix.minor-table-crosscheck": 4,
    "qmatrix.laplace": 4,
    "qmatrix.muir": 4,
    "qmatrix.braidcomm": 4,
    "qmatrix.braidcomm kmax": 2,
    "qmatrix.braidcomm lmax": 2,
    "rea.star-unit": 4,
    "rea.star-associativity": 4,
    "rea.reflection-equation": 4,
    "rea.reverse-braid": 4,
    "rea.rewrite-crosscheck": 4,
    "rea.gencomm": 4,
    "rea.gencomm kmax": 2,
    "rea.gencomm lmax": 2,
    "rea.laplace": 4,
    "rea.laplace kmax": 4,
    "rea.muir": 4,
    "rea.muir kmax": 4,
    "rea.muir rmax": 2,
    "rea.semiclassical": 4,
    "classical.shape-roundtrip": 4,
    "classical.sign-compatibility": 4,
    "classical.tn-invariance": 4,
    "classical.decompose": 4,
    "classical.bivector-antisymmetry": 4,
}


def test_no_reach_falls_below_its_floor():
    reaches = {}
    for name, fn in checks.CHECKS:
        if hasattr(fn, "reach"):
            reaches[name] = fn.reach
            reaches.update((f"{name} {k}", r) for k, r in fn.inner.items())
    assert reaches.keys() == _REACH_FLOORS.keys()
    low = {key: (reaches[key], floor)
           for key, floor in _REACH_FLOORS.items() if reaches[key] < floor}
    assert not low, f"(reach, floor) below the floor: {low}"


@pytest.mark.parametrize("algebra, family", list(qmatrix.FAMILIES))
def test_cli_sweep_is_the_check_all_rows_sweep(monkeypatch, algebra, family):
    """At N = 2, 3, 4, `verify` and `rea verify` without --instance sweep
    the instances that the family's check-all row sweeps at reach N.  The
    row holds the bounds: the generator's own default is every size."""
    subs, sweep, keys = qmatrix.FAMILIES[algebra, family]
    params = inspect.signature(sweep).parameters.values()
    assert all(p.default in (p.empty, None) for p in params)
    swept = []

    def recorded(N, **bounds):
        for inst in sweep(N, **bounds):
            swept.append(inst)
            yield inst

    monkeypatch.setitem(qmatrix.FAMILIES, (algebra, family),
                        (subs, recorded, keys))
    # no context is built: both sides of an instance are the instance
    monkeypatch.setattr(checks, "_family_sides", lambda algebra, N: (
        lambda sub, inst: (inst, inst)))
    monkeypatch.setattr(qmatrix, "identity_certificate",
                        lambda algebra, sub, inst, lhs, rhs: inst)
    row = dict(checks.CHECKS)[f"{algebra}.{family}"]
    suite = checks._family_suite(algebra, family)
    for N in (2, 3, 4):
        swept.clear()
        [cert] = checks.upto(N, suite, **row.inner)(N, 0)
        from_row = swept[:]
        swept.clear()
        certs = checks.family_certificates(algebra, family, N)
        assert swept == from_row and from_row, N
        assert certs == [inst for inst in from_row for _sub in subs]
        assert cert.instance == {"N": N, "instances": len(certs)}


def test_check_all_deterministic_and_covers(capsys):
    code1, out1, _ = run_cli(capsys, ["check-all", "--N", "2"])
    code2, out2, err2 = run_cli(capsys, ["check-all", "--N", "2", "--timings"])
    assert code1 == 0 and code2 == 0
    # --timings writes to stderr only: one line per suite, in suite order,
    # with its seconds and the peak RSS so far, which never decreases
    assert out1 == out2
    timed = [line.split() for line in err2.splitlines()
             if line.startswith("[timings]")]
    assert [t[1] for t in timed] == [name for name, _ in checks.CHECKS]
    assert all(len(t) == 4 for t in timed)
    assert all(t[2].endswith("s") and float(t[2][:-1]) >= 0 for t in timed)
    peaks = [float(t[3].removesuffix("MB")) for t in timed]
    assert all(t[3].endswith("MB") for t in timed)
    assert 0 < peaks[0] and peaks == sorted(peaks)
    # the recorded N=2 seed-0 certificate stream, byte for byte
    assert hashlib.sha256(out1.encode()).hexdigest() == _DIGESTS["2"]
    lines = out1.strip().splitlines()
    assert len(lines) >= 12
    suites = {json.loads(l)["suite"] for l in lines}
    assert suites == {name for name, _ in checks.CHECKS}


def _memo_lens():
    """The size of each memo of the suite contexts, by owner and attribute,
    summed over contexts, read off the named attributes, and of each
    module-level memo (`module_memos`) but the context caches."""
    sizes = Counter()
    for module, name, value in module_memos():
        if module is not checks:
            sizes[f"{module.__name__.rpartition('.')[2]}.{name}"] = sum(
                map(len, value.values() if type(value) is dict else [value]))
    for star in checks._STAR_CACHE.values():
        for attr in ("_star_word_memo", "_star_minor_memo"):
            sizes["StarAlgebra." + attr] += len(getattr(star, attr))
    for ctx in checks._CTX_CACHE.values():
        for attr in ("_tables", "_minors", "_minor_nf", "_minor_prod",
                     "_contractions", "_gencomm"):
            sizes["QContext." + attr] += len(getattr(ctx, attr))
        for attr in ("_insert_memo", "_nf_memo"):
            sizes["RewriteSystem." + attr] += len(getattr(ctx.rw, attr))
        for attr in ("_memo", "_images", "_coimages"):
            sizes["Bicharacter." + attr] += sum(
                map(len, getattr(ctx.bich, attr).values()))
        sizes["WedgeBraidTable._slices"] += sum(
            len(table._slices) for table in ctx._tables.values())
    return sizes


def test_check_all_memo_lines_count_the_suite_memos(capsys, monkeypatch):
    # after each [timings] line, a [memos] line names each memo of the
    # suite contexts and each module-level memo that grew during the suite,
    # with its size right after the suite; every other memo kept its size
    fresh_memos(monkeypatch)
    after = {}

    def measured(name, suite):
        def run(N, seed):
            certs = list(suite(N, seed))
            after[name] = _memo_lens()
            return certs
        return run

    monkeypatch.setattr(checks, "CHECKS", [
        (name, measured(name, suite)) for name, suite in checks.CHECKS])
    code, _, err = run_cli(capsys, ["check-all", "--N", "2", "--timings"])
    assert code == 0
    lines = [line.split() for line in err.splitlines()
             if line.startswith(("[timings]", "[memos]"))]
    assert [t[0] for t in lines] == ["[timings]", "[memos]"] * len(after)
    before, printed = Counter(), {}
    for timed, memos in zip(lines[::2], lines[1::2]):
        name = timed[1]
        assert memos[1] == name
        counts = {memo: int(n) for memo, n in
                  (field.split("=") for field in memos[2:])}
        grown = {memo: n for memo, n in after[name].items()
                 if n != before[memo]}
        assert counts == grown, name
        assert all(n >= printed.get(memo, 0) for memo, n in counts.items())
        printed.update(counts)
        before = after[name]
    # the quantum suites at N=2 fill every kind of memo
    assert set(printed) == set(before)


def test_check_all_n3_qmatrix_and_rea_lines_pinned(capsys, monkeypatch):
    # the qmatrix.* and rea.* lines of `check-all --N 3 --seed 0`, byte for
    # byte; the N=2 stream pins the family suites only at N=2
    monkeypatch.setattr(checks, "CHECKS", [
        (name, fn) for name, fn in checks.CHECKS
        if name.split(".")[0] in ("qmatrix", "rea")])
    code, out, _ = run_cli(capsys, ["--seed", "0", "check-all", "--N", "3"])
    assert code == 0
    assert len(out.splitlines()) == 30
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "09048b8b543fe83683a6c5809be53cebf187e468ee97ee12c4577ea87c2dead9")


def test_check_all_n4_coeff_and_classical_lines_pinned(capsys, monkeypatch):
    # the coeff.* and classical.* lines of `check-all --N 4 --seed 0`, byte
    # for byte: the exact-scalar suites, tn-invariance and
    # bivector-antisymmetry at N=4
    monkeypatch.setattr(checks, "CHECKS", [
        (name, fn) for name, fn in checks.CHECKS
        if name.split(".")[0] in ("coeff", "classical")])
    code, out, _ = run_cli(capsys, ["--seed", "0", "check-all", "--N", "4"])
    assert code == 0
    assert len(out.splitlines()) == 12
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "60d175f96710ad07883978064c91188daa25febe21aa6f52d83b5852051e8650")


def test_check_all_n4_exits_0_on_the_seeds_that_crashed(capsys, monkeypatch):
    # a floating-point decompose once left a fixed slot off the real axis
    # by 1e-12 on these seeds, and the shape's own matrix rejected it
    monkeypatch.setattr(checks, "CHECKS", [
        (name, fn) for name, fn in checks.CHECKS
        if name == "classical.decompose"])
    for seed in ("14", "43"):
        code, out, _ = run_cli(capsys, ["--seed", seed, "check-all", "--N",
                                        "4"])
        assert code == 0
        assert json.loads(out)["status"] == "pass"


@pytest.fixture(scope="module")
def check_all_streams():
    """{N: (exit code, stdout)} of `check-all --seed 0` at each N of
    _DIGESTS, run with math.sqrt raising."""
    def no_sqrt(x):
        raise AssertionError(f"math.sqrt({x!r})")

    streams = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(math, "sqrt", no_sqrt)
        for n in _DIGESTS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["--seed", "0", "check-all", "--N", n])
            streams[n] = code, out.getvalue()
    return streams


def test_check_all_takes_no_square_root(check_all_streams):
    # the whole `check-all --seed 0` stream at N = 1 to 5, byte for byte,
    # with math.sqrt raising; and no source file names a float root
    for n, digest in _DIGESTS.items():
        code, out = check_all_streams[n]
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, n
    for path in sorted(Path(checks.__file__).parent.glob("*.py")):
        text = path.read_text()
        for name in ("math.sqrt", "cmath", "complex(", "** 0.5", "**0.5"):
            assert name not in text, (path.name, name)


def test_every_suite_certifies_at_every_size(check_all_streams):
    """At N = 1 to 4, every suite of check-all emits a certificate: a
    suite that certifies nothing at some N is no pass there."""
    for n in ("1", "2", "3", "4"):
        _code, out = check_all_streams[n]
        suites = {json.loads(line)["suite"] for line in out.splitlines()}
        assert [name for name, _ in checks.CHECKS if name not in suites] \
            == [], n


# Run in a fresh interpreter: imports qrea's entry points, runs every suite
# of check-all and every CLI command at N=2, the classical ones on the
# matrix file named by the first argument, prints the record that
# `classical decompose` writes for it and whether numpy was loaded.
_EXACT_SIDE = """
import contextlib, io, sys
import qrea.checks, qrea.cli
for name, suite in qrea.checks.CHECKS:
    assert all(c.status == "pass" for c in suite(2, 0)), name
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert qrea.cli.main(["classical", "decompose", sys.argv[1]]) == 0
print(out.getvalue().splitlines()[0])
for argv in (["classical", "shape", sys.argv[1]],
             ["classical", "leaf", sys.argv[1]],
             ["classical", "build", "--shape", '{"tau":[2,1],"u":["1","1"]}',
              "--weights", "2,-8"],
             ["braid", "--N", "2"],
             ["wedge-table", "--N", "2", "--k", "1", "--l", "2", "--check"],
             ["verify", "muir", "--N", "2"], ["rea", "verify", "laplace"],
             ["rea", "shapes", "--N", "2"], ["rea", "qcomm", "--N", "2"],
             ["rea", "semiclassical"],
             ["classical", "tangency", "--N", "3", "--samples", "5"],
             ["classical", "jacobi", "--samples", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qrea.cli.main(argv) == 0, argv
print("numpy" in sys.modules)
"""


def test_exact_side_runs_without_numpy(tmp_path):
    src = Path(checks.__file__).resolve().parent.parent
    # sqrt 2 is irrational, and decompose needs none: z = t'* M t' with
    # t' = [[1, (1 + i)/2], [0, 1]] and M = diag(2, -2)
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"N": 2, "mode": "exact", "entries": [
        [{"re": "2", "im": "0"}, {"re": "1", "im": "1"}],
        [{"re": "1", "im": "-1"}, {"re": "-1", "im": "0"}]]}))
    proc = subprocess.run([sys.executable, "-c", _EXACT_SIDE, str(path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    decomposed, numpy_loaded = proc.stdout.splitlines()
    one, zero = {"re": "1", "im": "0"}, {"re": "0", "im": "0"}
    rec = json.loads(decomposed)
    assert rec["t"] == [[one, {"re": "1/2", "im": "1/2"}], [zero, one]]
    assert rec["M"]["entries"] == [[{"re": "2", "im": "0"}, zero],
                                   [zero, {"re": "-2", "im": "0"}]]
    assert numpy_loaded == "False"


def test_entry_points_import_no_dataclasses_or_inspect():
    # the modules `import qrea.checks, qrea.cli` adds to a bare interpreter
    src = Path(checks.__file__).resolve().parent.parent
    code = ("import sys; bare = set(sys.modules); "
            "import qrea.checks, qrea.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"qrea.checks", "qrea.cli"} <= added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_no_module_imports_numpy_at_module_level():
    # nor in a function body: src/qrea runs without numpy
    hits = []
    for path in sorted(Path(checks.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "numpy" for n in names):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, "numpy imported in src/qrea:\n" + "\n".join(hits)
