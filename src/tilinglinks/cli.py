"""Command-line front end.

Subcommands: gram, arithmetic, tracefield, classify, commensurable,
geometry-verify, sweep, report.  Output is human-readable text or canonical
JSON (sorted keys, lowest-terms rationals); the default format comes from
the TILINGLINKS_FORMAT environment variable when set.

Exit codes: 0 success, 2 domain errors (invalid input, an --out file that
cannot be written), 3 internal verification failures (exact/numeric
disagreement) and stray arithmetic or linear-algebra errors.

Each command checks its arguments first and only then imports the layers it
runs, so a command compiles and loads no other layer, and an argument error
loads none.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from math import pi

from . import __version__
from .errors import DomainError, VerificationError

MAX_PARAM = 50  # guard against runaway field degrees
# a basin check of this many takes about 1 s on a Platonic cell and about
# 2.5 s on drum(50), the largest drum (Python 3.11, 2 vCPUs)
MAX_SAMPLES = 1_000_000
_FORMATS = ("text", "json")


_str = json.encoder.encode_basestring_ascii
_int = int.__repr__
_INF = float("inf")


def _float(x) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _dump(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, built in
    one recursive pass.

    With `indent` set, the standard library drops to its pure-Python
    generator encoder.  Here each container is joined from its children's
    finished text, a coefficient pair [int, int] in one format string, and
    a dict object met again at the same indentation (a Gram entry shared by
    (i,j) and (j,i)) reuses its text: the memo is keyed by id and lives for
    this call only, while `obj` keeps every id alive.
    Anything `json` rejects raises TypeError, and so does a key that is not
    a str (the program writes no other).
    """
    memo = {}

    def seq(o, outer):
        if not o:
            return "[]"
        inner = outer + "  "
        # a coefficient pair [int, int] in one format, anything else by enc
        pair = "[\n" + inner + "  %d,\n" + inner + "  %d\n" + inner + "]"
        items = [pair % (v[0], v[1])
                 if type(v) is list and len(v) == 2
                 and type(v[0]) is int and type(v[1]) is int
                 else enc(v, inner) for v in o]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + outer + "]"

    def mapping(o, outer):
        text = memo.get((id(o), outer))
        if text is None:
            if not o:
                text = "{}"
            else:
                inner = outer + "  "
                items = [_str(k) + ": " + enc(v, inner)
                         for k, v in sorted(o.items())]
                text = ("{\n" + inner + (",\n" + inner).join(items)
                        + "\n" + outer + "}")
            memo[(id(o), outer)] = text
        return text

    def enc(o, outer):
        t = type(o)
        if t is int:
            return _int(o)
        if t is list:
            return seq(o, outer)
        if t is dict:
            return mapping(o, outer)
        if t is str:
            return _str(o)
        if t is float:
            return _float(o)
        # json's own order, so subclasses (bool among the ints) match it
        if isinstance(o, str):
            return _str(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return _int(o)
        if isinstance(o, float):
            return _float(o)
        if isinstance(o, (list, tuple)):
            return seq(o, outer)
        if isinstance(o, dict):
            return mapping(o, outer)
        raise TypeError(
            f"Object of type {type(o).__name__} is not JSON serializable")

    return enc(obj, "")


def _fmt_exact(x, radicands) -> str:
    # radicands: id(D) -> D's value, for the elements of one command
    def terms(coeffs):
        return ",".join(f"{f.numerator}/{f.denominator}" if f.denominator != 1
                        else str(f.numerator) for f in coeffs)

    s = f"{x.approx():.12g} (= [{terms(x.base_coeffs)}]"
    ext = x.ext_coeffs
    if ext is not None:
        r = radicands.get(id(x.radicand))
        if r is None:
            r = radicands[id(x.radicand)] = x.radicand.approx()
        s += f" + [{terms(ext)}]*sqrt({r:.12g})"
    return s + f" over L={x.ctx.L})"


def _check_params(*vals):
    for v in vals:
        if v > MAX_PARAM:
            raise DomainError(
                f"parameter {v} exceeds the supported bound {MAX_PARAM} "
                "(field degrees grow too fast)")


def _check_sampling(samples, seed):
    # verify_basins refuses these as well, but only after the realization or
    # classification work that precedes the basin checks
    if samples < 1:
        raise DomainError(f"--samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"--samples must be <= {MAX_SAMPLES}, got {samples}")
    if seed < 0:
        raise DomainError(f"--seed must be >= 0, got {seed}")


def _presentation_for(args):
    _check_params(args.m, args.n)
    from .coxeter import build_presentation, build_spherical_presentation
    if getattr(args, "spherical", False):
        return build_spherical_presentation(args.m, args.n)
    return build_presentation(args.m, args.n)


def cmd_gram(args, out):
    p = _presentation_for(args)
    from .coxeter import presentation_json_dict, rank_and_signature
    if args.format == "json":
        out.write(_dump(presentation_json_dict(p)) + "\n")
        return 0
    rank, pos, neg = rank_and_signature(p)  # the gate, before any output
    out.write(f"Coxeter presentation for [{p.m},{p.n},{p.m},{p.n}] "
              f"({p.family}), faces {', '.join(p.faces)}\n")
    radicands = {}
    for e in p.edges:
        label = {"angle": f"angle pi/{e.order}", "ideal": "ideal (infinity)",
                 "ultraparallel": "ultraparallel"}[e.kind]
        extra = (f", cosh distance {_fmt_exact(e.cosh_dist, radicands)}"
                 if e.cosh_dist is not None else "")
        out.write(f"  F{e.i} -- F{e.j}: {label}{extra}\n")
    out.write("Gram matrix (exact; approximations shown):\n")
    for row in p._float_gram:
        out.write("  [" + "  ".join(f"{v:12.8f}" for v in row) + "]\n")
    out.write(f"rank {rank}, signature ({pos},{neg})\n")
    return 0


def cmd_arithmetic(args, out):
    p = _presentation_for(args)
    from .arithmeticity import certificate_json_dict, check_arithmetic
    cert = check_arithmetic(p)
    if args.format == "json":
        out.write(_dump(certificate_json_dict(cert)) + "\n")
        return 0
    out.write(f"[{p.m},{p.n},{p.m},{p.n}] ({p.family}): "
              f"{'arithmetic' if cert.arithmetic else 'NOT arithmetic'}\n")
    for w in cert.rationality_witnesses:
        val = (f"rational {w.rational}" if w.rational is not None
               else f"irrational ({w.value.approx():.12g})")
        out.write(f"  cycle {w.faces}: {val}\n")
    for w in cert.integrality_witnesses:
        mp = " + ".join(f"({c.numerator}/{c.denominator})x^{k}"
                        if c.denominator != 1 else f"{c.numerator}x^{k}"
                        for k, c in enumerate(w.minpoly))
        out.write(f"  entry ({w.i},{w.j}): minpoly {mp} -> "
                  f"{'integral' if w.integral else 'NOT integral'}\n")
    if cert.failing_item is not None:
        out.write(f"  failing item: {cert.failing_item}\n")
    return 0


def cmd_tracefield(args, out):
    _check_params(args.m, args.n)
    from .coxeter import build_hyperbolic_presentation
    from .tracefields import invariant_trace_field, trace_field_json_dict
    p = build_hyperbolic_presentation(args.m, args.n)
    res = invariant_trace_field(p)
    if args.format == "json":
        out.write(_dump(trace_field_json_dict(res)) + "\n")
        return 0
    out.write(f"adjoint trace field rational: {res.adjoint_rational}\n")
    out.write(f"det G' = {_fmt_exact(res.discriminant_det, {})}\n")
    out.write(f"invariant trace field: {res.invariant_field.label}\n")
    return 0


def cmd_classify(args, out):
    _check_params(args.m, args.n)
    from .classify import (arithmetic_status, classify_geometry,
                           is_valid_type, minimal_orbifold_degree)
    gc = classify_geometry(args.m, args.n, args.genus)
    payload = {"m": args.m, "n": args.n, "geometry": gc.tiling.geometry,
               "exists": gc.exists, "vertex_count": gc.vertex_count,
               "note": gc.note}
    if gc.exists and is_valid_type(args.m, args.n):
        status = arithmetic_status(args.m, args.n)
        payload["arithmetic"] = status.arithmetic
        payload["source"] = status.source
        payload["trace_field"] = (status.trace_field.label
                                  if status.trace_field else None)
        if gc.tiling.geometry == "Hyperbolic":
            deg = minimal_orbifold_degree(args.m, args.n)
            payload["min_orbifold_degree"] = deg
    if args.format == "json":
        out.write(_dump(payload) + "\n")
    else:
        for k, v in payload.items():
            out.write(f"{k}: {v}\n")
    return 0


def cmd_commensurable(args, out):
    _check_params(args.m1, args.n1, args.m2, args.n2)
    from .classify import commensurable, normalize_type
    verdict, reason = commensurable((args.m1, args.n1), (args.m2, args.n2))
    payload = {"a": list(normalize_type(args.m1, args.n1)),
               "b": list(normalize_type(args.m2, args.n2)),
               "commensurable": verdict, "reason": reason}
    if args.format == "json":
        out.write(_dump(payload) + "\n")
    else:
        out.write(f"{payload['a']} vs {payload['b']}: "
                  f"{'commensurable' if verdict else 'NOT commensurable'} "
                  f"({reason})\n")
    return 0


def _basin_check(ideal_cell, samples, seed, **labels):
    """One basin-sampler report as a JSON-ready dict, relabelled by `labels`
    and with its `pass` verdict."""
    from .lorentz import verify_basins
    rep = verify_basins(ideal_cell, samples=samples, seed=seed)
    return rep.json_dict() | labels | {"pass": rep.passed}


def _geometry_reports(p, samples, seed):
    from .coxeter import Edge
    from .lorentz import (build_drum, drum_symmetries_ok, realize,
                          realized_angles, tiling_angle_oracle, tiling_angles,
                          verify_gluing_angles)
    m, n = p.m, p.n
    reports = []
    r = realize(p)
    gram_err = float(abs(r.recomputed_gram() - r.gram).max())
    reports.append({"check": "gram_roundtrip", "max_error": gram_err,
                    "pass": gram_err < 1e-9})
    angle_err, kinds_match = 0.0, True
    edges = {(e.i, e.j): e for e in p.edges}
    for i, j, kind, value in realized_angles(r):
        # no diagram edge: a right angle
        e = edges.get((i, j)) or Edge(i, j, "angle", order=2)
        if kind != e.kind:
            kinds_match = False
        elif kind == "angle":
            angle_err = max(angle_err, abs(value - pi / e.order))
        elif kind == "ultraparallel":
            angle_err = max(angle_err, abs(value - e.cosh_dist.approx()))
    reports.append({"check": "dihedral_labels", "max_error": angle_err,
                    "pass": kinds_match and angle_err < 1e-9})
    if p.family == "hyperbolic":
        am, an = tiling_angles(m, n)
        oracle = tiling_angle_oracle(m, n)
        reports.append({"check": "tiling_angle_oracle",
                        "max_error": abs(am - oracle), "pass": abs(am - oracle) < 1e-9})
        reports.append({"check": "gluing_angles",
                        "pass": verify_gluing_angles(m, n)})
        for side in sorted({m, n}):
            d = build_drum(m, n, side=side)
            reports.append({"check": f"drum({side})_symmetries",
                            "pass": drum_symmetries_ok(d)})
            reports.append(_basin_check(d.cell, samples, seed,
                                        check=f"drum({side})_basins"))
    return reports


def cmd_geometry_verify(args, out):
    if (args.m is None) != (args.n is None):
        raise DomainError(
            "give both --m and --n for the drum checks, or neither")
    _check_sampling(args.samples, args.seed)
    if args.m is None and not args.cell:
        raise DomainError("nothing to verify: give --cell and/or --m/--n")
    p = None
    if args.m is not None:
        # the type is checked (bound, m,n >= 3, not Euclidean) before any
        # cell is sampled
        _check_params(args.m, args.n)
        from .coxeter import build_presentation
        p = build_presentation(args.m, args.n)
    reports = []
    if args.cell:
        from .lorentz import build_platonic_cell
        for kind in args.cell:
            reports.append(_basin_check(build_platonic_cell(kind),
                                        args.samples, args.seed,
                                        check=f"{kind}_basins"))
    if p is not None:
        reports += _geometry_reports(p, args.samples, args.seed)
    ok = all(r.get("pass", True) for r in reports)
    if args.format == "json":
        out.write(_dump({"reports": reports, "all_pass": ok,
                         "seed": args.seed}) + "\n")
    else:
        for r in reports:
            out.write(f"{r.get('check', r.get('cell')):28s} "
                      f"{'PASS' if r.get('pass', True) else 'FAIL'}  "
                      + ", ".join(f"{k}={v}" for k, v in r.items()
                                  if k not in ("check", "pass")) + "\n")
    return 0 if ok else 3


def cmd_sweep(args, out):
    _check_params(args.m_max, args.n_max)
    from .arithmeticity import arithmetic_sweep
    rows = arithmetic_sweep(args.m_max, args.n_max)
    if args.format == "json":
        out.write(_dump([{"m": r.m, "n": r.n, "arithmetic": r.arithmetic,
                          "witness": r.witness} for r in rows]) + "\n")
        return 0
    for r in rows:
        out.write(f"({r.m:2d},{r.n:2d})  "
                  f"{'arithmetic    ' if r.arithmetic else 'non-arithmetic'}  "
                  f"{r.witness}\n")
    arith = [(r.m, r.n) for r in rows if r.arithmetic]
    out.write(f"arithmetic hyperbolic types: {arith}\n")
    return 0


def cmd_report(args, out):
    if args.bound > MAX_PARAM:
        raise DomainError(f"bound must be <= {MAX_PARAM}")
    if args.bound < 3:
        raise DomainError("bound must be >= 3")
    _check_sampling(args.samples, args.seed)
    from .arithmeticity import arithmetic_sweep
    from .classify import classification_rows, rows_to_csv
    rows = classification_rows(args.bound)
    sweep = arithmetic_sweep(args.bound, args.bound)
    geometry = []
    if args.with_geometry:
        from .lorentz import build_drum, build_platonic_cell
        for kind in ("tetrahedron", "octahedron"):
            geometry.append(_basin_check(build_platonic_cell(kind),
                                         args.samples, args.seed))
        for (m, n) in ((6, 6), (6, 4)):
            if m <= args.bound and n <= args.bound:
                for side in sorted({m, n}):
                    geometry.append(_basin_check(
                        build_drum(m, n, side=side).cell, args.samples,
                        args.seed, cell=f"({m},{n}) drum({side})"))
    ok = all(g["pass"] for g in geometry)
    arithmetic_rows = [r for r in rows if r.arithmetic]
    payload = {
        "bound": args.bound,
        "classification": [r._asdict() for r in rows],
        "arithmetic_types": [[r.m, r.n] for r in arithmetic_rows],
        "sweep_arithmetic": [[r.m, r.n] for r in sweep if r.arithmetic],
        "trace_fields": {f"({r.m},{r.n})": r.trace_field
                         for r in arithmetic_rows},
        "geometry_checks": geometry,
    }
    if args.format == "json":
        out.write(_dump(payload) + "\n")
        return 0 if ok else 3
    out.write(f"Right-angled tiling link classification, 3 <= m,n <= {args.bound}\n\n")
    out.write(rows_to_csv(rows).replace(",", "\t"))
    out.write("\narithmetic types: "
              + ", ".join(f"({r.m},{r.n})" for r in arithmetic_rows) + "\n")
    if geometry:
        out.write("\ngeometry verification:\n")
        for g in geometry:
            out.write(f"  {g['cell']:20s} violations={g['violations']} "
                      f"samples={g['samples']} "
                      f"{'PASS' if g['pass'] else 'FAIL'}\n")
    return 0 if ok else 3


def _internal_errors():
    """Stray errors that exit 3: arithmetic errors, and numpy's LinAlgError
    once the float geometry has loaded numpy (none can be raised before)."""
    np = sys.modules.get("numpy")
    if np is None:
        return ArithmeticError
    return ArithmeticError, np.linalg.LinAlgError


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tilinglinks",
        description="Exact arithmetic and geometry for right-angled tiling links")
    ap.add_argument("--version", action="version", version=__version__)
    default_format = os.environ.get("TILINGLINKS_FORMAT") or "text"
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=_FORMATS,
                       default=default_format)
        p.add_argument("--out", type=str, default=None,
                       help="write output to a file instead of stdout")

    p = sub.add_parser("gram", help="Coxeter diagram and exact Gram matrix")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--spherical", action="store_true",
                   help="use the five-face spherical presentation")
    add_common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("arithmetic", help="Vinberg-criterion certificate")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--spherical", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_arithmetic)

    p = sub.add_parser("tracefield", help="invariant trace field via det G'")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    add_common(p)
    p.set_defaults(func=cmd_tracefield)

    p = sub.add_parser("classify", help="geometry type / vertex count / status")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--genus", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("commensurable", help="commensurability of two types")
    p.add_argument("m1", type=int)
    p.add_argument("n1", type=int)
    p.add_argument("m2", type=int)
    p.add_argument("n2", type=int)
    add_common(p)
    p.set_defaults(func=cmd_commensurable)

    p = sub.add_parser("geometry-verify",
                       help="numerical verification of cells and drums")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--cell", action="append", default=None,
                   choices=("tetrahedron", "octahedron"))
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_geometry_verify)

    p = sub.add_parser("sweep", help="arithmeticity sweep over hyperbolic types")
    p.add_argument("--m-max", type=int, default=50)
    p.add_argument("--n-max", type=int, default=50)
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="full classification document")
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--with-geometry", action="store_true")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    # numpy's OpenBLAS starts a worker thread per core on import, a quarter
    # of numpy's import time, but the float geometry's products are a few
    # thousand rows by a few columns, too small to split.  A value the user
    # has set wins.  It must be in place before the first numpy import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # argparse leaves a default taken from the environment unchecked
        if args.format not in _FORMATS:
            raise DomainError("TILINGLINKS_FORMAT must be text or json, "
                              f"got {args.format!r}")
        if not args.out:
            return args.func(args, sys.stdout)
        # the file is opened only after the command has returned, so a
        # command that raises leaves an existing --out file untouched
        buf = io.StringIO()
        code = args.func(args, buf)
        try:
            with open(args.out, "w") as fh:
                fh.write(buf.getvalue())
        except OSError as exc:
            raise DomainError(f"cannot write --out file: {exc}") from exc
        return code
    except DomainError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: verification: {exc}", file=sys.stderr)
        return 3
    except _internal_errors() as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
