"""Command-line interface: subcommand outputs, exit codes, canonical JSON,
and seeded reproducibility."""

import collections
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import tilinglinks
from tilinglinks import cli, coxeter, lorentz
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


def _clean_basin_report(cell, samples, seed, check=True):
    # geometry-verify names each check; report's geometry_checks do not
    return {**({"check": f"{cell}_basins"} if check else {}),
            "cell": cell, "max_margin_at_walls": 0.0, "pass": True,
            "samples": samples, "seed": seed, "skipped": 0,
            "skipped_ambiguous": 0, "skipped_near_wall": 0,
            "tolerance": 1e-08, "violations": 0}


# the basin reports of seeded runs, as the sampler gave them when it still
# drew every Halton index (the other checks' max_error floats depend on BLAS)
_BASIN_GOLDENS = [
    (("geometry-verify", "--cell", "tetrahedron", "--cell", "octahedron",
      "--m", "5", "--n", "7", "--samples", "10000", "--seed", "5"),
     [_clean_basin_report(c, 10000, 5)
      for c in ("tetrahedron", "octahedron", "drum(5)", "drum(7)")]),
    (("geometry-verify", "--m", "50", "--n", "49", "--samples", "3000",
      "--seed", "999"),
     [_clean_basin_report(c, 3000, 999) for c in ("drum(49)", "drum(50)")]),
    (("report", "--bound", "12", "--with-geometry", "--seed", "0"),
     [_clean_basin_report(c, 2000, 0, check=False)
      for c in ("tetrahedron", "octahedron", "(6,6) drum(6)",
                "(6,4) drum(4)", "(6,4) drum(6)")]),
    (("geometry-verify", "--cell", "octahedron", "--samples", "2000",
      "--seed", str(10**20)),
     [_clean_basin_report("octahedron", 2000, 10**20)]),
    # many passes at the largest plane x vertex count, as reported while the
    # basin counts were int64 products
    (("geometry-verify", "--cell", "tetrahedron", "--m", "50", "--n", "49",
      "--samples", "100000", "--seed", "7"),
     [_clean_basin_report(c, 100000, 7)
      for c in ("tetrahedron", "drum(49)", "drum(50)")]),
]


@pytest.mark.parametrize("argv,reports", _BASIN_GOLDENS,
                         ids=[" ".join(a) for a, _ in _BASIN_GOLDENS])
def test_basin_reports_golden(argv, reports):
    code, out = run_cli(*argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    got = doc["reports"] if argv[0] == "geometry-verify" \
        else doc["geometry_checks"]
    assert [r for r in got if "violations" in r] == reports


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


@pytest.mark.parametrize("m, n, message", [
    ("51", "3", "exceeds the supported bound 50"),
    ("2", "5", "integers >= 3"),
    ("4", "4", "(4,4) is Euclidean"),
])
def test_geometry_verify_bad_type_exit_2_before_sampling(m, n, message,
                                                         monkeypatch, capsys):
    # the drum pair's type is checked before the --cell basin checks run
    monkeypatch.setattr(lorentz, "verify_basins", None)
    code, out = run_cli("geometry-verify", "--cell", "tetrahedron", "--cell",
                        "octahedron", "--m", m, "--n", n, "--samples", "10")
    assert code == 2 and out == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_exit_2(samples):
    code, out = run_cli("geometry-verify", "--cell", "tetrahedron",
                        "--samples", samples)
    assert code == 2 and "PASS" not in out
    code, out = run_cli("report", "--bound", "4", "--with-geometry",
                        "--samples", samples)
    assert code == 2 and out == ""


def test_samples_above_cap_exit_2(monkeypatch, capsys):
    # refused before any work: a linear-cost sampler must not run for hours
    monkeypatch.setattr(lorentz, "verify_basins", None)
    samples = str(cli.MAX_SAMPLES + 1)
    code, out = run_cli("geometry-verify", "--cell", "tetrahedron",
                        "--samples", samples)
    assert code == 2 and out == ""
    code, out = run_cli("report", "--bound", "4", "--with-geometry",
                        "--samples", samples)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.count(f"--samples must be <= {cli.MAX_SAMPLES}") == 2


def test_cell_without_interior_exit_3(monkeypatch, capsys):
    # the sampler's walk would never end: it gives up after one empty window
    full = lorentz.build_platonic_cell("octahedron")
    normals = full.normals.copy()
    normals[1] = -normals[0]
    hollow = full._replace(normals=normals)
    monkeypatch.setattr(lorentz, "build_platonic_cell", lambda kind: hollow)
    code, out = run_cli("geometry-verify", "--cell", "octahedron",
                        "--samples", "10")
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith(
        "error: verification: no interior point of octahedron")


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
        return rep._replace(skipped=samples, skipped_near_wall=samples)

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


@pytest.mark.parametrize("pair,kind", [
    ((1, 2), "ideal"),   # an angle edge realized as ideal
    ((2, 4), "angle"),   # an ideal edge realized as an angle
    ((4, 6), "angle"),   # an ultraparallel edge realized as an angle
])
def test_dihedral_kind_mismatch_fails(monkeypatch, capsys, pair, kind):
    real = lorentz.realized_angles

    def mislabelled(r):
        return [(i, j, kind, 0.0 if kind == "ideal" else 1.0)
                if (i, j) == pair else (i, j, k, v)
                for i, j, k, v in real(r)]

    monkeypatch.setattr(lorentz, "realized_angles", mislabelled)
    code, out = run_cli("geometry-verify", "--m", "7", "--n", "4",
                        "--samples", "50", "--format", "json")
    assert code == 3 and capsys.readouterr().err == ""
    doc = json.loads(out)
    labels = [r for r in doc["reports"] if r["check"] == "dihedral_labels"]
    assert doc["all_pass"] is False and labels[0]["pass"] is False


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
    from tilinglinks.coxeter import (build_hyperbolic_presentation,
                                     presentation_json_dict)
    p = build_hyperbolic_presentation(22, 43)
    text = cli._dump(presentation_json_dict(p))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d2b1cac7e0b52e5b119752cbfb3b4e76d22e790ce8e83ccc321f0bb0a92e22af")


class _Float(float):
    def __repr__(self):  # json ignores it, and so must _dump
        return "not a float"


_KEYS = st.one_of(
    st.text(max_size=5),
    st.sampled_from(["", '"', "\\", "\n\t\x00", "é", "\U0001d53d"]))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2**200, max_value=2**200), st.text(max_size=6),
    st.floats(), st.floats().map(_Float),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e300]))
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=150, deadline=None)
@given(_TREES, st.dictionaries(_KEYS, _TREES, max_size=3))
def test_dump_matches_json(tree, shared):
    # `shared` is one dict object met twice at one depth and once at others
    for obj in (tree, {"a": [shared, shared, tree], "b": shared,
                       "c": {"d": shared, "t": tree}}):
        assert cli._dump(obj) == json.dumps(obj, sort_keys=True, indent=2)


class _Int(int):
    def __repr__(self):  # json ignores it, and so must _dump
        return "not an int"


def test_dump_pairs_match_json():
    # lists of two ints take one format string; anything else near them
    # (bools, floats, int subclasses, tuples, other lengths) takes the
    # general path
    obj = {"p": [[1, 2], [-3, 10**200], [True, 1], [1, False], [1.0, 2],
                 [_Int(3), 4], (5, 6), [7], [8, 9, 10], [[1, 2], [3, 4]],
                 [None, 1], ["1", 2], []],
           "q": [[0, 1]], "r": [[1, 2], 3]}
    assert cli._dump(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("bad", [set(), b"x", object(), [1, {2}],
                                 {"k": [b"x"]}, {(1, 2): 0}, {1: 0, "1": 0}])
def test_dump_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli._dump(bad)


def test_as_json_dict_pairs_are_lowest_terms():
    from tilinglinks.coxeter import build_presentation
    from tilinglinks.fields import as_json_dict
    seen_ext = 0
    for m, n in ((5, 4), (5, 10), (6, 4)):
        for row in build_presentation(m, n).gram:
            for x in row:
                d = as_json_dict(x)
                assert d["base"] == [[f.numerator, f.denominator]
                                     for f in x.base_coeffs]
                if x.ext_coeffs is None:
                    assert d["ext"] is None
                    continue
                seen_ext += 1
                assert d["ext"] == [[f.numerator, f.denominator]
                                    for f in x.ext_coeffs]
    assert seen_ext


def test_presentation_json_shares_one_dict_per_entry():
    """_dump encodes a shared dict once; the export relies on
    presentation_json_dict handing out one dict per distinct entry."""
    from tilinglinks.coxeter import build_presentation, presentation_json_dict
    p = build_presentation(22, 43)
    doc = presentation_json_dict(p)
    gram = doc["gram"]
    size = len(gram)
    assert all(gram[i][j] is gram[j][i]
               for i in range(size) for j in range(size))
    values = [x for row in p.gram for x in row]
    dicts = [x for row in gram for x in row]
    for e, d in zip(p.edges, doc["edges"]):
        if e.cosh_dist is not None:
            values.append(e.cosh_dist)
            dicts.append(d["cosh_dist"])
    assert len({id(d) for d in dicts}) == len({id(x) for x in values})


def test_report_certifies_each_presentation_once(monkeypatch):
    from tilinglinks import arithmeticity, classify
    real = arithmeticity.check_arithmetic
    calls = collections.Counter()

    def counting(p):
        calls[(p.m, p.n, p.family)] += 1
        return real(p)

    monkeypatch.setattr(arithmeticity, "check_arithmetic", counting)
    monkeypatch.setattr(classify, "check_arithmetic", counting)
    arithmeticity.hyperbolic_verdict.cache_clear()
    classify.arithmetic_status.cache_clear()
    code, _ = run_cli("report", "--bound", "8", "--format", "json")
    assert code == 0
    assert (6, 4, "hyperbolic") in calls
    assert max(calls.values()) == 1, calls


def test_rank_signature_gate_runs_once_per_presentation(monkeypatch):
    # one certification and one list of cyclic products per presentation
    from tilinglinks import arithmeticity, classify
    calls = collections.Counter()

    def counting(name):
        real = getattr(coxeter, name)

        def count(p):
            calls[(name, p.m, p.n, p.family)] += 1
            return real(p)
        monkeypatch.setattr(coxeter, name, count)

    counting("_certify")
    counting("_cyclic_products")
    coxeter.build_hyperbolic_presentation.cache_clear()
    arithmeticity.hyperbolic_verdict.cache_clear()
    classify.arithmetic_status.cache_clear()
    code, _ = run_cli("report", "--bound", "12", "--with-geometry",
                      "--samples", "100", "--format", "json")
    assert code == 0
    assert ("_cyclic_products", 6, 4, "hyperbolic") in calls
    assert max(calls.values()) == 1, calls
    # the other readers reuse the certificate and the list
    for argv in (("tracefield", "6", "4"), ("arithmetic", "6", "4"),
                 ("gram", "6", "4")):
        assert run_cli(*argv)[0] == 0
    p = coxeter.build_hyperbolic_presentation(6, 4)
    lorentz.realize(p)
    coxeter.rank_and_signature(p)
    assert calls[("_certify", 6, 4, "hyperbolic")] == 1
    assert calls[("_cyclic_products", 6, 4, "hyperbolic")] == 1


@pytest.mark.parametrize("argv", [("gram", "22", "49"),
                                  ("arithmetic", "22", "49", "--format", "json"),
                                  ("tracefield", "22", "49", "--format", "json")])
def test_certify_commands_never_run_the_charpoly(monkeypatch, argv):
    def refuse(rows):
        raise AssertionError("a determinant ran")
    monkeypatch.setattr(coxeter, "exact_det", refuse)
    coxeter.build_hyperbolic_presentation.cache_clear()
    code, out = run_cli(*argv)
    assert code == 0 and out
    # the patch takes effect: the minor solve runs the determinant
    with pytest.raises(AssertionError, match="determinant ran"):
        coxeter.solve_ultraparallel_by_minor(6, 4)


@pytest.mark.parametrize("tamper,msg", [
    ("a at (4,6)", "Gram entry (4,6) is off the diagram's pattern"),
    ("entry (1,4)", "Gram entry (1,4) is off the diagram's pattern"),
    ("D3 reads 0", "leading minor D3 of the F1..F4 block is zero"),
    ("(4,6) over sqrt(3)", "Gram entry (4,6) is off the diagram's pattern"),
])
def test_tampered_gram_exits_3(monkeypatch, capsys, tamper, msg):
    # a fresh copy whose Gram the certification scales to the tampered K0 Gram
    from test_coxeter import _over_sqrt3, _with_k0_gram
    from tilinglinks.fields import AlgebraicNumber
    p = coxeter.build_hyperbolic_presentation(7, 4)
    a, b = -p.gram[0][1], -p.gram[0][2]

    def edit(rows, ctx):
        if tamper == "a at (4,6)":
            rows[3][5] = rows[5][3] = -b
        elif tamper == "entry (1,4)":
            rows[0][3] = rows[3][0] = AlgebraicNumber.rational(ctx, -1)
        elif tamper == "(4,6) over sqrt(3)":
            rows[3][5] = rows[5][3] = _over_sqrt3(rows, ctx)

    p = _with_k0_gram(p, edit)
    if tamper == "D3 reads 0":
        real = AlgebraicNumber.sign
        d3 = 8 - 2 * (a * a + b * b)
        monkeypatch.setattr(AlgebraicNumber, "sign",
                            lambda x: 0 if x == d3 else real(x))
    monkeypatch.setattr(coxeter, "build_presentation", lambda m, n: p)
    monkeypatch.setattr(coxeter, "build_hyperbolic_presentation", lambda m, n: p)
    # the gate runs before any of the commands writes to stdout
    for argv in (("gram", "7", "4"), ("arithmetic", "7", "4", "--format", "json"),
                 ("tracefield", "7", "4", "--format", "json")):
        assert run_cli(*argv) == (3, "")
        assert capsys.readouterr().err == f"error: verification: {msg}\n"


# sha256 of the canonical `--format json` stdout for types of field degree
# 2 to 920, and of the classification commands that serialize the record
# types: a change to the field layer or to a record must leave every byte
# as it is
_GOLDEN_JSON = [
    (("gram", "6", "4"),
     "d563bf36afb7e1fd36c7d14c1480241049d8da54cb39483a24044c86b17737b8"),
    (("tracefield", "6", "4"),
     "502597baa30cd020ce59af11aa620bb269e73ef5444c87de3883be1af8412745"),
    (("arithmetic", "6", "4"),
     "06cfaed0ab0efa5f9601eb3ec2f5e65c9af69d021bcc8f723da57b560ac6fcc8"),
    (("gram", "6", "6"),
     "60a96e5e57d17c67cc6a2df4b7a8a2acdd964449d41da243cf7d7c73944d9780"),
    (("tracefield", "6", "6"),
     "b40c0985a01ac8bdaf8da295a3dc0ce01cdf5afc59e5129e5d513d5a31696570"),
    (("arithmetic", "6", "6"),
     "5e2f1dad44b04eb945a70dda5ec5a086345f7aef76cdf814cdb699dcfd4864dd"),
    (("gram", "10", "6"),
     "b7bd5bf2029dd1fa27e39589e186a0a974191602f58d99f1a0d1c88266e135de"),
    (("tracefield", "10", "6"),
     "9c820d990e58879123702af9baa05c5142819399453da51a514cb792a06943a0"),
    (("arithmetic", "10", "6"),
     "6d8f489f44b22a93f2cc6b614e5ba0d374608b67cfb62c563294daf388fe46dd"),
    (("gram", "5", "4"),
     "69fefd005f4d2fa79326e667ca2ed12f7a71e9d034becc83ed0e854047c8e383"),
    (("tracefield", "5", "4"),
     "46e6de8c4c456e2ff49ad353337cbaf7be12a51dcd4cb5463292767ec8345bef"),
    (("arithmetic", "5", "4"),
     "3da9432d54b928e6e65167b95deec395464cc434658f47ddb8ce2ade14b9bc0c"),
    (("gram", "7", "3"),
     "c1723ca68f4caa9009dfa042133fbb09000ee34fa9bb86b7179eb3f69644d150"),
    (("tracefield", "7", "3"),
     "9e00f68dc5febc62b13b5c166f8b0c3f39a22f21f3335a5d49a731ad1a250349"),
    (("arithmetic", "7", "3"),
     "ba75567da58f1c26ace3685183fcf9fc741583a948c8c27e325068a4c8bede73"),
    (("gram", "37", "29"),
     "7691b6a587bc625d9b5aaa662fbd7e4c34014cbc1103feaacccf31cbe6dbc847"),
    (("tracefield", "37", "29"),
     "235330d7c9198876618988488c36e4e7344a9e2093a41b40740f7e5297697bd7"),
    (("arithmetic", "37", "29"),
     "f27b1eb2ad657dd397823095cbb0b8b54090f16976237c7ce0c8889dca090437"),
    (("gram", "22", "43"),
     "8550e5b2235dbb5ad2b7b2316c5e24f4e7484d4ea45557ae84534574f6a08392"),
    (("tracefield", "22", "43"),
     "16348383d89d69d7b95fd2f0f5a650154411af0807487135f78d6f8dfd4d0040"),
    (("arithmetic", "22", "43"),
     "9de86b7407250debf400ba72453eb20bb6643f6bef80e5a3da66d2a57fcc8366"),
    (("gram", "44", "47"),
     "7a5a0687a65c15029b58c97602c91670277949d5db01d841d2a3baa24079322b"),
    (("tracefield", "44", "47"),
     "b7cd55bbb2344cafe1de369c52b162e7035e957d65b35c581970de1118b425c4"),
    (("arithmetic", "44", "47"),
     "86e3508cf63308f7aef4355fc6c5e0002d59e513735c869470507471f899959d"),
    (("gram", "5", "3", "--spherical"),
     "7b2882515494c15baccfea65c94dcfcc30dfa178827d6d94227c11fcfd76f47e"),
    (("arithmetic", "5", "3", "--spherical"),
     "b2051abb24c5512a188646b1e7880c2d21219f8eef6a6c84741690ff7d1b595b"),
    (("report", "--bound", "12"),
     "d3443b37831b6b13443aec8ef6d001890c7b54a7abeadf8ca939ab082544765b"),
    (("report", "--bound", "50"),
     "26274784c5879639adacb1f85a5d7413f3a6695a07acd8cd1b363f2b4d42335e"),
    (("sweep", "--m-max", "12", "--n-max", "12"),
     "a4b587c2a52f2704a003d5010a58a734fe74e0d75a8f4714ada80e4409ea3ea6"),
    (("classify", "6", "4", "--genus", "2"),
     "495b553ee05d27649aa6d70e170d4a629fd43a572a1321f9756bc93588801d0f"),
    (("classify", "5", "3", "--genus", "0"),
     "66da2d8c7b28a1948415b559d037c3bc38c1c9caab616237e8e341ec7bc38918"),
    (("commensurable", "3", "3", "6", "6"),
     "964cb3c1309086ea9751df7f51e49ae69b3c62a6f3b034d113e84c0d04d851c0"),
    (("commensurable", "7", "4", "9", "5"),
     "05109c742d82b8eeccc09bf59fb9efc30a453a49d1b077cbe01c44fb8d5085aa"),
    # the basin counts are exact, so the whole report is pinned
    (("report", "--bound", "12", "--with-geometry"),
     "f0c71d74cfffb8dd65e88bf202dd01d64077714c2de6df6ce7ec279bd45445d8"),
]


@pytest.mark.parametrize("argv,digest", _GOLDEN_JSON,
                         ids=[" ".join(a) for a, _ in _GOLDEN_JSON])
def test_canonical_json_golden(argv, digest):
    code, out = run_cli(*argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the seeded `geometry-verify --m M --n N --format json` stdout,
# re-serialized without the reports' max_error floats: those come from
# LAPACK's eigh and may differ in their last bits between BLAS kernels, and
# each report's `pass` already pins them below 1e-9
_GOLDEN_GEOMETRY = [
    (("--m", "5", "--n", "3"),
     "90da0b46ad7cb401e90f7899e2904ba8a8c4352ebb0c70c33f8f27ef58c0d720"),
    (("--m", "3", "--n", "5"),
     "90da0b46ad7cb401e90f7899e2904ba8a8c4352ebb0c70c33f8f27ef58c0d720"),
    (("--m", "3", "--n", "3"),
     "90da0b46ad7cb401e90f7899e2904ba8a8c4352ebb0c70c33f8f27ef58c0d720"),
    (("--m", "4", "--n", "3"),
     "90da0b46ad7cb401e90f7899e2904ba8a8c4352ebb0c70c33f8f27ef58c0d720"),
    (("--m", "50", "--n", "49"),
     "aced6ea324702d7ab0d5d327a7bacf0858807d76db8c0d97878aac391981418f"),
    (("--cell", "tetrahedron", "--m", "7", "--n", "9"),
     "fc50c74634dd287c34a39fc6262a4347e9f513ef59e34a92eaf498a00fa30a49"),
]


@pytest.mark.parametrize("argv,digest", _GOLDEN_GEOMETRY,
                         ids=[" ".join(a) for a, _ in _GOLDEN_GEOMETRY])
def test_geometry_verify_golden(argv, digest):
    code, out = run_cli("geometry-verify", *argv, "--samples", "2000",
                        "--seed", "11", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for r in doc["reports"]:
        r.pop("max_error", None)
    got = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(got.encode()).hexdigest() == digest


# sha256 of the --format text stdout, pinned like the JSON above
_GOLDEN_TEXT = [
    (("gram", "22", "43"),
     "bbb64f827cc43ecb814fbaa89ee3d7c928a18ff547a6cd02d1a595dd8f6a8062"),
    (("gram", "5", "3", "--spherical"),
     "c7488552196e4bd83db947941d087857793b3a964d053812fdb43b597b0bb2cf"),
    (("arithmetic", "6", "6"),
     "cd027dc15cb0bdf020d15fdecbe0c952b4a77778d7a3a1066ec52bdf753da8cc"),
    (("arithmetic", "5", "3", "--spherical"),
     "947310638c25caad742d377ff5d312b82902dd9ee38922235daa2448d482f663"),
    (("tracefield", "10", "6"),
     "6476b10e5feab42f041185fad73c038d2f22d24887548b03f75423209da9dd81"),
    (("tracefield", "6", "4"),
     "21c505ea7e52bc9abb1aa7e712ca3e56a4425fc3bb98cbe8f87088a5134b9dc8"),
    (("report", "--bound", "12"),
     "43c2d11445984b64cd9f62e5304bea5e5b6da99e104a6c1c2f6526ba26f6c263"),
    (("sweep", "--m-max", "12", "--n-max", "12"),
     "919ad6236dff835dbadf6ddf0dfea82d231c9ee14c6ed93b8f591e174233e82f"),
]


@pytest.mark.parametrize("argv,digest", _GOLDEN_TEXT,
                         ids=[" ".join(a) for a, _ in _GOLDEN_TEXT])
def test_canonical_text_golden(argv, digest):
    code, out = run_cli(*argv, "--format", "text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_infinite_volume_diagram_exit_3(monkeypatch, capsys):
    # without the ultraparallel edge F5-F6 the edge F1-F5 gains a third end
    p = coxeter.build_presentation(6, 4)
    monkeypatch.setattr(coxeter, "build_presentation",
                        lambda m, n: p._replace(edges=p.edges[:-1]))
    code, out = run_cli("geometry-verify", "--m", "6", "--n", "4",
                        "--samples", "10")
    assert code == 3 and out == ""
    assert capsys.readouterr().err == (
        "error: verification: edge F1-F5 has 3 ends among the finite and "
        "ideal vertices, not 2: the polyhedron of (6,4) does not have "
        "finite volume\n")


# commands without float geometry must not import numpy (its import is most
# of the start-up time of a short command); geometry-verify must
IMPORT_PROBE = """
import contextlib, io, json, sys
from tilinglinks import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --version, --help, argparse errors
            code = exc.code
    loaded.append([code, sys.argv[2] in sys.modules])
print(json.dumps(loaded))
"""


def _probe_imports(module, argvs):
    """[exit code, whether `module` is loaded after it] for each argv, run
    in order in one fresh interpreter."""
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


def test_exact_commands_load_neither_dataclasses_nor_inspect():
    # the exact layers' records are NamedTuples: `dataclasses`, the `inspect`
    # it imports and its generated methods took 30 ms of each start-up
    argvs = [["gram", "6", "4"],
             ["tracefield", "6", "4", "--format", "json"],
             ["arithmetic", "6", "6", "--format", "json"],
             ["classify", "6", "4", "--genus", "2"],
             ["commensurable", "3", "3", "6", "6"],
             ["sweep", "--m-max", "12", "--n-max", "12"],
             ["report", "--bound", "12", "--format", "json"]]
    for module in ("dataclasses", "inspect"):
        assert _probe_imports(module, argvs) == [[0, False]] * 7, module


def test_argument_errors_and_version_load_no_layer():
    # every layer imports `fields`, so none of them is loaded either
    argvs = [["--version"], ["gram", "--help"], ["gram", "51", "3"],
             ["geometry-verify", "--samples", "0"],
             ["report", "--bound", "51"], ["commensurable", "3", "3", "51", "3"]]
    assert _probe_imports("tilinglinks.fields", argvs) == [[0, False]] * 2 + [
        [2, False]] * 4


def test_exact_commands_load_no_classify():
    argvs = [["gram", "6", "4", "--format", "json"],
             ["gram", "5", "3", "--spherical"],
             ["arithmetic", "22", "43", "--format", "json"],
             ["tracefield", "6", "4", "--format", "json"]]
    assert _probe_imports("tilinglinks.classify", argvs) == [[0, False]] * 4


def test_geometry_commands_load_no_dataclasses():
    # the lorentz records are NamedTuples: numpy loads `inspect`, but
    # nothing loads `dataclasses` and its generated methods
    argvs = [["geometry-verify", "--cell", "tetrahedron", "--m", "6",
              "--n", "4", "--samples", "10"],
             ["report", "--bound", "6", "--with-geometry", "--samples", "10"]]
    assert _probe_imports("dataclasses", argvs) == [[0, False]] * 2


def test_cells_only_geometry_loads_no_exact_layer():
    # `coxeter` imports `fields`, so neither is loaded
    argvs = [["geometry-verify", "--cell", "tetrahedron", "--cell",
              "octahedron", "--samples", "10"]]
    assert _probe_imports("tilinglinks.fields", argvs) == [[0, False]]


def test_bare_package_import_loads_no_submodule():
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(tilinglinks.__file__))
    probe = ("import sys, tilinglinks\n"
             "print(sorted(m for m in sys.modules "
             "if m.startswith('tilinglinks.')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _run_geometry(blas_threads, argv, probe=""):
    """A fresh interpreter running cli.main(argv), then `probe`, with
    OPENBLAS_NUM_THREADS set to `blas_threads` (None: unset)."""
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(tilinglinks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("TILINGLINKS_FORMAT", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    code = ("import sys\nfrom tilinglinks import cli\n"
            f"code = cli.main({argv!r})\n{probe}\nsys.exit(code)")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_main_defaults_to_one_blas_thread(monkeypatch):
    # setenv first, so that the undo restores the variable's own state
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert run_cli("gram", "6", "4")[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert run_cli("gram", "6", "4")[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_geometry_output_independent_of_blas_threads():
    argv = ["geometry-verify", "--m", "50", "--n", "49", "--samples", "3000",
            "--seed", "999", "--format", "json"]
    one, two = (_run_geometry(t, argv) for t in ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout


def test_geometry_command_runs_one_thread():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no per-thread entries in /proc to count")
    # numpy's OpenBLAS would start one thread per core on import
    probe = ("import os\n"
             "print(len(os.listdir('/proc/self/task')), file=sys.stderr)")
    proc = _run_geometry(None, ["geometry-verify", "--cell", "tetrahedron",
                                "--samples", "10", "--format", "json"], probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "1"


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
    assert set(tilinglinks.__all__) <= set(dir(tilinglinks))
    assert "__version__" in dir(tilinglinks)


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


@pytest.mark.parametrize("value", ["xml", "JSON"])
def test_format_env_invalid_exit_2(monkeypatch, capsys, value):
    monkeypatch.setenv("TILINGLINKS_FORMAT", value)
    code, out = run_cli("commensurable", "3", "3", "6", "6")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: domain: TILINGLINKS_FORMAT must be text or json, "
        f"got {value!r}\n")
    # an explicit --format wins, and --version needs no format
    code, out = run_cli("commensurable", "3", "3", "6", "6", "--format", "json")
    assert code == 0 and json.loads(out)["commensurable"] is True
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
