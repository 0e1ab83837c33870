"""Command-line interface: subcommand outputs, exit codes, canonical JSON,
and seeded reproducibility."""

import dataclasses
import io
import json

import pytest

import tilinglinks
from tilinglinks import cli, lorentz
from tilinglinks.cli import main


def run_cli(*argv):
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_gram_text():
    code, out = run_cli("gram", "6", "4")
    assert code == 0
    assert "rank 4, signature (3,1)" in out
    assert "angle pi/6" in out and "ultraparallel" in out


def test_gram_json_reference_values_64():
    code, out = run_cli("gram", "6", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    approx = doc["gram_approx"]
    assert abs(approx[0][1] + 3**0.5) < 1e-12
    assert abs(approx[3][5] + 2 * 3**0.5) < 1e-12
    assert abs(approx[4][5] + 2 * 2**0.5) < 1e-12
    assert doc["gram"][0][0]["base"][0] == [2, 1]


def test_gram_domain_error_exit_2():
    code, _ = run_cli("gram", "4", "4")
    assert code == 2


def test_param_guard():
    code, _ = run_cli("gram", "51", "3")
    assert code == 2


def test_arithmetic_json():
    code, out = run_cli("arithmetic", "6", "6", "--format", "json")
    doc = json.loads(out)
    assert doc["arithmetic"] is True
    six = [c for c in doc["cycles"] if len(c["faces"]) == 6][0]
    assert six["rational"] == "72/1"


def test_arithmetic_spherical_53():
    code, out = run_cli("arithmetic", "5", "3", "--spherical", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["arithmetic"] is False
    assert doc["failing_item"]["faces"] == [1, 2]


def test_tracefield():
    code, out = run_cli("tracefield", "6", "4", "--format", "json")
    doc = json.loads(out)
    assert doc["field"] == "Q(i*sqrt(6))"
    assert doc["det"]["approx"] == -3456.0


def test_classify_genus():
    code, out = run_cli("classify", "6", "6", "--genus", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["vertex_count"] == 6
    assert doc["arithmetic"] is True


def test_commensurable_clause():
    code, out = run_cli("commensurable", "3", "3", "6", "6", "--format", "json")
    doc = json.loads(out)
    assert doc["commensurable"] is True
    assert "Q(i)" in doc["reason"]


def test_sweep_json():
    code, out = run_cli("sweep", "--m-max", "8", "--n-max", "8",
                        "--format", "json")
    rows = json.loads(out)
    arithmetic = {(r["m"], r["n"]) for r in rows if r["arithmetic"]}
    assert arithmetic == {(6, 4), (4, 6), (6, 6)}


def test_report_bound_12():
    code, out = run_cli("report", "--bound", "12", "--format", "json")
    doc = json.loads(out)
    assert doc["sweep_arithmetic"] == [[4, 6], [6, 4], [6, 6]]
    arithmetic = [tuple(t) for t in doc["arithmetic_types"]]
    assert arithmetic == [(3, 3), (4, 3), (4, 4), (6, 3), (6, 4), (6, 6)]
    assert doc["trace_fields"]["(6,4)"] == "Q(i*sqrt(6))"


def test_report_bound_6_includes_euclidean():
    _, out = run_cli("report", "--bound", "6", "--format", "json")
    doc = json.loads(out)
    arith = [tuple(t) for t in doc["arithmetic_types"]]
    assert (4, 4) in arith and (6, 3) in arith


def test_report_bound_3():
    code, out = run_cli("report", "--bound", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == [
        {"m": 3, "n": 3, "geometry": "Spherical", "arithmetic": True,
         "trace_field": "Q(i)", "min_orbifold_degree": "not_applicable",
         "commensurability_class_id": "C1"}]


@pytest.mark.parametrize("bound", ["2", "0", "-5"])
def test_report_bound_below_3_exit_2(bound, capsys):
    code, out = run_cli("report", "--bound", bound, "--with-geometry")
    assert code == 2 and out == ""
    assert "bound must be >= 3" in capsys.readouterr().err


def test_json_roundtrip_byte_identical():
    _, out = run_cli("report", "--bound", "8", "--format", "json")
    doc = json.loads(out)
    again = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert again == out


def test_geometry_verify_seeded_reproducible():
    code1, out1 = run_cli("geometry-verify", "--cell", "tetrahedron",
                          "--samples", "500", "--seed", "9",
                          "--format", "json")
    code2, out2 = run_cli("geometry-verify", "--cell", "tetrahedron",
                          "--samples", "500", "--seed", "9",
                          "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["reports"][0]["violations"] == 0


def test_geometry_verify_pair():
    code, out = run_cli("geometry-verify", "--m", "6", "--n", "4",
                        "--samples", "400", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    checks = {r["check"] for r in doc["reports"]}
    assert {"gram_roundtrip", "dihedral_labels", "gluing_angles"} <= checks


def test_geometry_verify_requires_target():
    code, _ = run_cli("geometry-verify")
    assert code == 2


@pytest.mark.parametrize("half", [["--m", "6"], ["--n", "6"]])
def test_geometry_verify_half_drum_pair_exit_2(half, monkeypatch, capsys):
    # refused before any work: no basin check of the --cell runs either
    monkeypatch.setattr(lorentz, "verify_basins", None)
    code, out = run_cli("geometry-verify", "--cell", "tetrahedron", *half,
                        "--samples", "10")
    assert code == 2 and out == ""
    assert "--m and --n" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_exit_2(samples):
    code, out = run_cli("geometry-verify", "--cell", "tetrahedron",
                        "--samples", samples)
    assert code == 2 and "PASS" not in out
    code, out = run_cli("report", "--bound", "4", "--with-geometry",
                        "--samples", samples)
    assert code == 2 and out == ""


def test_negative_seed_exit_2():
    # a negative Halton start index never ran out of digits: no exit at all
    code, out = run_cli("geometry-verify", "--cell", "tetrahedron",
                        "--samples", "10", "--seed", "-1")
    assert code == 2 and out == ""
    code, out = run_cli("report", "--bound", "4", "--with-geometry",
                        "--seed", "-1")
    assert code == 2 and out == ""


def test_basin_check_without_evidence_fails(monkeypatch):
    real = lorentz.verify_basins

    def all_skipped(cell, samples, seed):
        rep = real(cell, samples=samples, seed=seed)
        return dataclasses.replace(rep, skipped=samples,
                                   skipped_near_wall=samples)

    monkeypatch.setattr(lorentz, "verify_basins", all_skipped)
    code, out = run_cli("geometry-verify", "--cell", "octahedron",
                        "--samples", "50", "--format", "json")
    doc = json.loads(out)
    assert code == 3 and doc["all_pass"] is False
    assert doc["reports"][0]["violations"] == 0
    assert doc["reports"][0]["pass"] is False
    code, out = run_cli("report", "--bound", "4", "--with-geometry",
                        "--samples", "50")
    assert code == 3
    assert "violations=0 samples=50 FAIL" in out and "PASS" not in out


def test_out_file_unwritable_exit_2(tmp_path, capsys):
    code, out = run_cli("gram", "6", "4",
                        "--out", str(tmp_path / "missing" / "x.txt"))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_failing_command_leaves_out_file_unchanged(tmp_path, capsys):
    target = tmp_path / "gram.txt"
    target.write_text("earlier output\n")
    code, out = run_cli("gram", "51", "3", "--out", str(target))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: domain: ")
    assert target.read_text() == "earlier output\n"


def test_gram_json_output_guard_22_43():
    """The canonical JSON of a degree-420 presentation, pinned by hash: exact
    entries, their certified floats and the gram_approx table."""
    import hashlib
    from tilinglinks.coxeter import (build_hyperbolic_presentation,
                                     presentation_json_dict)
    p = build_hyperbolic_presentation(22, 43)
    text = cli._dump(presentation_json_dict(p))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d2b1cac7e0b52e5b119752cbfb3b4e76d22e790ce8e83ccc321f0bb0a92e22af")


def test_stray_arithmetic_error_exit_3(monkeypatch):
    def boom(args, out):
        raise ZeroDivisionError("division by zero")
    monkeypatch.setattr(cli, "cmd_sweep", boom)
    code, _ = run_cli("sweep")
    assert code == 3


def test_linalg_error_exit_3(monkeypatch, capsys):
    import numpy as np

    def singular(p):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(lorentz, "realize", singular)
    code, out = run_cli("geometry-verify", "--m", "6", "--n", "4")
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith(
        "error: internal: LinAlgError: Singular matrix")


# commands without float geometry must not import numpy (its import is most
# of the start-up time of a short command); geometry-verify must
IMPORT_PROBE = """
import contextlib, io, json, sys
from tilinglinks import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    loaded.append([code, sys.argv[2] in sys.modules])
print(json.dumps(loaded))
"""


def _probe_imports(module, argvs):
    """[exit code, whether `module` is loaded after it] for each argv, run
    in order in one fresh interpreter."""
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(tilinglinks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("TILINGLINKS_FORMAT", None)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                           json.dumps(argvs), module], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_loaded_only_for_float_geometry():
    argvs = [["gram", "44", "47", "--format", "json"],
             ["tracefield", "6", "4", "--format", "json"],
             ["arithmetic", "22", "43", "--format", "json"],
             ["classify", "37", "17", "--genus", "2"],
             ["commensurable", "3", "3", "6", "6"],
             ["gram", "4", "4"],
             ["geometry-verify", "--cell", "tetrahedron", "--samples", "10"]]
    assert _probe_imports("numpy", argvs) == [[0, False]] * 5 + [[2, False],
                                                                [0, True]]


def test_no_command_loads_mpmath():
    # the square detection of sqrt(D) runs on the integer evaluator too:
    # it finds (10,6)'s D to be a square in K0 (degree 8) and leaves
    # sqrt(D) an extension for (5,4) (degree 8) and (5,10) (degree 4)
    argvs = [["gram", "44", "47", "--format", "json"],
             ["tracefield", "6", "4", "--format", "json"],
             ["arithmetic", "22", "43", "--format", "json"],
             ["classify", "37", "17", "--genus", "2"],
             ["commensurable", "3", "3", "6", "6"],
             ["sweep", "--format", "json"],
             ["report", "--bound", "12", "--format", "json"],
             ["tracefield", "10", "6", "--format", "json"],
             ["gram", "5", "4"],
             ["geometry-verify", "--m", "5", "--n", "10"]]
    assert _probe_imports("mpmath", argvs) == [[0, False]] * 10


def test_package_exports_resolve():
    for name in tilinglinks.__all__:
        assert getattr(tilinglinks, name) is not None, name
    assert tilinglinks.verify_basins is lorentz.verify_basins
    namespace = {}
    exec("from tilinglinks import *", namespace)
    assert set(tilinglinks.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        tilinglinks.no_such_name
    with pytest.raises(ImportError):
        exec("from tilinglinks import no_such_name", {})


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli("report", "--bound", "4", "--format", "json",
                        "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["bound"] == 4


def test_format_env_default(monkeypatch):
    monkeypatch.setenv("TILINGLINKS_FORMAT", "json")
    code, out = run_cli("commensurable", "6", "4", "6", "4")
    assert json.loads(out)["commensurable"] is True
