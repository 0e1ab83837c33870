"""Output checks for the benchmark's commands.

Every check rests on facts that do not come from the program under test:
closed-form floats computed here with `math`/numpy, and the paper's stated
results (the arithmetic hyperbolic types are exactly (6,4), (4,6), (6,6);
det G' is -3456 for (6,4) and -5184 for (6,6); the Q(i) family
{(3,3), (4,4), (6,6)} is the only non-trivial commensurability class).

Goldens (see `golden_digest`) pin the default seed's outputs as captured at
the seed commit: each stored value must reappear unchanged, while keys the
golden does not hold are ignored, so a new JSON key does not fail a command.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import cos, isclose, pi, sqrt

import numpy as np

from workloads import ARITHMETIC_HYPERBOLIC, QI_FAMILY, is_hyperbolic

SPHERICAL = {(3, 3), (4, 3), (5, 3)}
EUCLIDEAN = {(4, 4), (6, 3)}
TOL = 1e-9


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def close(x, y, what):
    expect(isclose(x, y, rel_tol=TOL, abs_tol=TOL), f"{what}: {x!r} != {y!r}")


# -- independent closed forms -----------------------------------------------

def cosh_pair(m, n):
    """cosh of the F4-F6 and F5-F6 distances: cos(pi/k)/sqrt(D)."""
    cm, cn = cos(pi / m), cos(pi / n)
    r = sqrt(cm * cm + cn * cn - 1)
    return cm / r, cn / r


def gram_float(m, n):
    cm, cn = cos(pi / m), cos(pi / n)
    c46, c56 = cosh_pair(m, n)
    G = 2.0 * np.eye(6)
    for i, j, v in ((0, 1, -2 * cm), (0, 2, -2 * cn), (1, 3, -2.0),
                    (2, 4, -2.0), (3, 5, -2 * c46), (4, 5, -2 * c56)):
        G[i, j] = G[j, i] = v
    return G


def inertia(eigs, tol):
    return (int((eigs > tol).sum()), int((eigs < -tol).sum()),
            int((abs(eigs) <= tol).sum()))


def unordered(m, n):
    return (max(m, n), min(m, n))


def valid_types(bound):
    out = set()
    for m in range(3, bound + 1):
        for n in range(3, m + 1):
            t = (m, n)
            if is_hyperbolic(m, n) or t in SPHERICAL or t in EUCLIDEAN:
                out.add(t)
    return out


def rational_pair(x):
    """[num, den] list of a JSON AlgebraicNumber that is rational."""
    expect(x["ext"] is None, "value has a square-root part")
    base = x["base"]
    expect(all(c == [0, 1] for c in base[1:]), "value is not rational")
    return Fraction(base[0][0], base[0][1])


# -- per-kind checks ------------------------------------------------------

def check_gram_text(p, out):
    m, n = p["m"], p["n"]
    expect("rank 4, signature (3,1)" in out, "no 'rank 4, signature (3,1)'")
    rows = [[float(v) for v in line.strip()[1:-1].split()]
            for line in out.splitlines() if line.startswith("  [")]
    expect(len(rows) == 6 and all(len(r) == 6 for r in rows),
           "printed Gram matrix is not 6x6")
    G = np.array(rows)
    expect(inertia(np.linalg.eigvalsh(G), 1e-6) == (3, 1, 2),
           "eigvalsh of the printed matrix disagrees with signature (3,1)")
    expect(np.abs(G - gram_float(m, n)).max() < 1e-8,
           "printed Gram matrix differs from the closed form")
    got = [float(x) for x in re.findall(r"cosh distance (\S+) ", out)]
    expect(len(got) == 2, "expected two cosh distances")
    for g, want in zip(got, cosh_pair(m, n)):
        close(g, want, "cosh distance")


def check_arith_json(p, out):
    m, n = p["m"], p["n"]
    doc = json.loads(out)
    expect(doc["m"] == m and doc["n"] == n and doc["family"] == "hyperbolic",
           "wrong type in certificate")
    expect(doc["arithmetic"] == ((m, n) in ARITHMETIC_HYPERBOLIC),
           "arithmetic verdict")
    G = gram_float(m, n)
    expect(len(doc["cycles"]) > 0, "no cycle witnesses")
    for c in doc["cycles"]:
        faces = [f - 1 for f in c["faces"]]
        if len(faces) == 2:
            want = G[faces[0], faces[1]] ** 2
        else:
            want = G[faces[-1], faces[0]]
            for a, b in zip(faces, faces[1:]):
                want *= G[a, b]
        close(c["value"]["approx"], want, f"cycle {c['faces']}")
    if not doc["arithmetic"]:
        item = doc["failing_item"]
        expect(item is not None and item.get("rational", "") is None,
               "failing item is not an irrational cycle")


def check_gram_json(p, out):
    m, n = p["m"], p["n"]
    doc = json.loads(out)
    expect(doc["m"] == m and doc["n"] == n and doc["family"] == "hyperbolic",
           "wrong type in presentation")
    G = gram_float(m, n)
    approx = np.array(doc["gram_approx"])
    expect(approx.shape == (6, 6) and np.abs(approx - G).max() < TOL,
           "gram_approx differs from the closed form")
    for i in range(6):
        for j in range(6):
            close(doc["gram"][i][j]["approx"], G[i, j], f"gram[{i}][{j}]")
    want = dict(zip(((4, 6), (5, 6)), cosh_pair(m, n)))
    seen = 0
    for e in doc["edges"]:
        if "cosh_dist" in e:
            close(e["cosh_dist"]["approx"], want[(e["i"], e["j"])],
                  f"cosh_dist ({e['i']},{e['j']})")
            seen += 1
    expect(seen == 2, "expected two ultraparallel edges")


def check_tracefield_json(p, out):
    m, n = p["m"], p["n"]
    doc = json.loads(out)
    # det G' with the breadth-first path coefficients from F1: faces
    # F1..F4 with c = (2, a12, a13, a12*a24), so det = prod(c)^2 det(G_4)
    G = gram_float(m, n)
    c = np.array([2.0, G[0, 1], G[0, 2], G[0, 1] * G[1, 3]])
    want = np.prod(c) ** 2 * np.linalg.det(G[:4, :4])
    expect(isclose(doc["det"]["approx"], want, rel_tol=1e-8),
           f"det G' {doc['det']['approx']!r} != {want!r}")
    # the paper's determinants are for the (6,4) and (6,6) orderings
    t = unordered(m, n)
    if t == (6, 4):
        if m == 6:
            expect(rational_pair(doc["det"]) == -3456, "det G' of (6,4)")
        expect(doc["field"] == "Q(i*sqrt(6))" and doc["d"] == -6, "field of (6,4)")
    elif t == (6, 6):
        expect(rational_pair(doc["det"]) == -5184, "det G' of (6,6)")
        expect(doc["field"] == "Q(i)" and doc["d"] == -1, "field of (6,6)")
    else:
        expect(doc["kP_rational"] is False and doc["d"] is None,
               "non-arithmetic type has a rational adjoint trace field")
        expect(len(doc["kP_generators"]) > 0, "no irrational cyclic products")


def check_arith_spherical_json(p, out):
    doc = json.loads(out)
    expect(doc["family"] == "spherical", "not the spherical presentation")
    expect(doc["arithmetic"] is False, "(5,3) must be non-arithmetic")


def check_commensurable_json(p, out):
    doc = json.loads(out)
    a, b = unordered(*p["a"]), unordered(*p["b"])
    want = a == b or (a in QI_FAMILY and b in QI_FAMILY)
    expect(doc["commensurable"] is want, "commensurability verdict")


def check_classify_json(p, out):
    m, n, g = p["m"], p["n"], p["genus"]
    doc = json.loads(out)
    expect(doc["geometry"] == "Hyperbolic", "geometry")
    v = Fraction(2 - 2 * g) / (Fraction(2, m) + Fraction(2, n) - 1)
    exists = v.denominator == 1 and v > 0 and g >= 2
    expect(doc["exists"] is exists, "existence by the Euler count")
    expect(doc["vertex_count"] == (int(v) if exists else None), "vertex count")
    if exists:
        t = unordered(m, n)
        arith = t in ARITHMETIC_HYPERBOLIC
        expect(doc["arithmetic"] is arith, "arithmetic verdict")
        want = "not_applicable" if arith else (1 if m != n else 2)
        expect(doc["min_orbifold_degree"] == want, "minimal orbifold degree")


def check_basins(reports, samples):
    for r in reports:
        if "violations" in r:
            expect(r["violations"] == 0, f"{r.get('cell')}: violations")
            expect(r["samples"] == samples, f"{r.get('cell')}: sample count")
            expect(r["pass"] is True, f"{r.get('cell')}: not passing")


def check_geometry_json(p, out):
    doc = json.loads(out)
    expect(doc["all_pass"] is True, "all_pass is not true")
    expect(all(r["pass"] is True for r in doc["reports"]), "a check failed")
    checks = {r.get("check") for r in doc["reports"]}
    lo, hi = sorted({p["m"], p["n"]})
    for name in ("tetrahedron_basins", "octahedron_basins",
                 f"drum({lo})_basins", f"drum({hi})_basins"):
        expect(name in checks, f"missing {name}")
    check_basins(doc["reports"], p["samples"])


def check_sweep_json(p, out):
    rows = json.loads(out)
    want = {(m, n) for m in range(3, p["m_max"] + 1)
            for n in range(3, p["n_max"] + 1) if is_hyperbolic(m, n)}
    expect({(r["m"], r["n"]) for r in rows} == want and len(rows) == len(want),
           "sweep does not cover the hyperbolic types once each")
    arith = {(r["m"], r["n"]) for r in rows if r["arithmetic"]}
    expect(arith == ARITHMETIC_HYPERBOLIC, f"sweep arithmetic set {arith}")


def check_report_json(p, out):
    doc = json.loads(out)
    rows = doc["classification"]
    types = [(r["m"], r["n"]) for r in rows]
    expect(set(types) == valid_types(p["bound"]) and len(types) == len(set(types)),
           "classification does not list every valid type once")
    classes = {}
    for r in rows:
        classes.setdefault(r["commensurability_class_id"], set()).add((r["m"], r["n"]))
    qi = [c for c in classes.values() if c & QI_FAMILY]
    expect(len(qi) == 1 and qi[0] == QI_FAMILY,
           "(3,3), (4,4), (6,6) are not one class")
    expect(all(len(c) == 1 for c in classes.values() if not c & QI_FAMILY),
           "a non-Q(i) class holds more than one type")
    expect({tuple(t) for t in doc["sweep_arithmetic"]} == ARITHMETIC_HYPERBOLIC,
           "sweep arithmetic set")
    expect(len(doc["geometry_checks"]) > 0, "no geometry checks")
    check_basins(doc["geometry_checks"], p["samples"])


def check_probe(p, out):
    expect(out == "", "a rejected input printed to stdout")


CHECKS = {
    "gram_text": check_gram_text,
    "arith_json": check_arith_json,
    "gram_json": check_gram_json,
    "tracefield_json": check_tracefield_json,
    "arith_spherical_json": check_arith_spherical_json,
    "commensurable_json": check_commensurable_json,
    "classify_json": check_classify_json,
    "geometry_json": check_geometry_json,
    "sweep_json": check_sweep_json,
    "report_json": check_report_json,
    "probe": check_probe,
}


# -- goldens ---------------------------------------------------------------

def _h(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def _schema(x, path, out):
    """Every dict key path of x, list indices written as '*'."""
    if isinstance(x, dict):
        for k, v in x.items():
            out.add(f"{path}/{k}")
            _schema(v, f"{path}/{k}", out)
    elif isinstance(x, list):
        for v in x:
            _schema(v, f"{path}/*", out)


def _project(x, path, schema):
    """x without the dict keys whose path is not in schema."""
    if isinstance(x, dict):
        return {k: _project(v, f"{path}/{k}", schema)
                for k, v in x.items() if f"{path}/{k}" in schema}
    if isinstance(x, list):
        return [_project(v, f"{path}/*", schema) for v in x]
    return x


def golden_digest(stdout: bytes, is_json: bool, schema=None) -> dict:
    """Hashes of the output projected onto `schema` (by default its own key
    paths), one per top-level key; text output is hashed whole."""
    if not is_json:
        return {"schema": None,
                "hashes": {"": hashlib.sha256(stdout).hexdigest()[:16]}}
    doc = json.loads(stdout)
    if schema is None:
        schema = set()
        _schema(doc, "", schema)
    doc = _project(doc, "", schema)
    hashes = ({k: _h(v) for k, v in doc.items()} if isinstance(doc, dict)
              else {"": _h(doc)})
    return {"schema": sorted(schema), "hashes": hashes}


def check_golden(golden: dict, exit_code: int, stdout: bytes, is_json: bool):
    expect(exit_code == golden["exit"], "exit code differs from the golden")
    schema = golden["schema"]
    got = golden_digest(stdout, is_json, None if schema is None else set(schema))
    for key, h in golden["hashes"].items():
        expect(got["hashes"].get(key) == h,
               f"output differs from the golden at {key or '<whole>'}")


def check(cmd, exit_code: int, stdout: bytes, golden=None) -> None:
    """Raise CheckFailed when the command's result is wrong."""
    expect(exit_code == cmd.expect_exit,
           f"exit code {exit_code}, expected {cmd.expect_exit}")
    CHECKS[cmd.kind](cmd.params, stdout.decode())
    if golden is not None:
        check_golden(golden, exit_code, stdout, is_json(cmd))


def is_json(cmd) -> bool:
    return "json" in cmd.argv and cmd.expect_exit == 0

