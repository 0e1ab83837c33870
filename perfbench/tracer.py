"""Run one `tilinglinks` command in this process under a call tracer.

Usage: PYTHONPATH=src python3 perfbench/tracer.py TRACE_OUT.json -- ARGV...

The command's stdout, stderr and exit code are exactly those of
`PYTHONPATH=src python -m tilinglinks ARGV...` run from the same directory;
the trace goes to TRACE_OUT.json when the command ends.  The tracer wraps, from outside the package:

* every module-level public function of the layer modules, at every
  module-global binding across `tilinglinks.*` (so `from .coxeter import
  build_presentation` in `cli` is wrapped too);
* the `AlgebraicNumber` operators.

Calls to the stage functions in SPAN_FUNCS become spans (id, parent, name,
start, end); every other wrapped call is a hot leaf and only adds to its
name's count and summed time.  Self time is a call's duration minus the time
covered by the wrapped calls it made.  `cache_info()` of every `lru_cache`
function is read at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types

LAYERS = ("_polys", "fields", "coxeter", "arithmeticity", "tracefields",
          "classify", "lorentz")

# names used by the per-layer metrics: (module, function) -> name; any other
# function is "<layer>.<function>"
ALIASES = {
    ("coxeter", "build_hyperbolic_presentation"): "coxeter.build",
    ("coxeter", "build_spherical_presentation"): "coxeter.build",
    ("coxeter", "rank_and_signature"): "coxeter.rank_signature",
    ("coxeter", "enumerate_cyclic_products"): "coxeter.cyclic_products",
    ("arithmeticity", "check_arithmetic"): "arithmeticity.certificate",
    ("arithmeticity", "arithmetic_sweep"): "arithmeticity.sweep",
    ("arithmeticity", "hyperbolic_verdict"): "arithmeticity.verdict",
    ("tracefields", "build_worksheet"): "tracefields.worksheet",
    ("tracefields", "invariant_trace_field"): "tracefields.trace_field",
    ("classify", "classification_rows"): "classify.rows",
    ("classify", "arithmetic_status"): "classify.status",
    ("lorentz", "verify_basins"): "lorentz.basins",
    ("lorentz", "build_drum"): "lorentz.cells",
    ("lorentz", "build_platonic_cell"): "lorentz.cells",
}

SPAN_FUNCS = {
    "coxeter.build", "coxeter.validate_presentation", "coxeter.rank_signature",
    "coxeter.exact_det", "coxeter.cyclic_products",
    "coxeter.solve_ultraparallel_by_minor", "coxeter.presentation_json_dict",
    "arithmeticity.certificate", "arithmeticity.sweep",
    "arithmeticity.certificate_json_dict", "tracefields.worksheet",
    "tracefields.trace_field", "tracefields.trace_field_json_dict",
    "classify.rows", "lorentz.realize", "lorentz.cells", "lorentz.basins",
    "fields.adjoin_sqrt", "fields.minimal_polynomial",
}

# AlgebraicNumber operators -> name
OPERATORS = {"__add__": "fields.add", "__mul__": "fields.mul",
             "__neg__": "fields.neg", "inverse": "fields.inverse",
             "approx": "fields.approx", "sign": "fields.sign"}
# operators whose results feed fields.max_coeff_bits
COEFF_SIZED = {"fields.mul", "fields.inverse"}


class Tracer:
    """Call stack, per-name aggregates and spans of one traced command."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack = []          # [name, start, child_time, span_id]
        self.agg = {}            # name -> [calls, total_s, self_s]
        self.spans = []
        self.max_coeff_bits = 0
        self.basins = []         # (samples, skipped) per verify_basins call

    def push(self, name, span):
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "start": None, "end": None})
        frame = [name, time.perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def pop(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if span_id is not None:
            s = self.spans[span_id]
            s["start"] = start - self.t0
            s["end"] = end - self.t0

    def wrap(self, name, fn):
        span = name in SPAN_FUNCS
        sized = name in COEFF_SIZED
        basins = name == "lorentz.basins"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.push(name, span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if sized:
                tracer.note_coeffs(out)
            elif basins:
                tracer.basins.append((out.samples, out.skipped))
            return out

        return wrapper

    def note_coeffs(self, x):
        if x is NotImplemented:
            return
        bits = max(max(map(int.bit_length, x.num), default=0),
                   x.den.bit_length())
        if x.ext_num is not None:
            bits = max(bits, max(map(int.bit_length, x.ext_num), default=0),
                       x.ext_den.bit_length())
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits


def install(tracer):
    """Wrap every layer function binding and the field operators; return
    the original lru_cache functions by metric name."""
    mods = {name: importlib.import_module(f"tilinglinks.{name}")
            for name in LAYERS}
    importlib.import_module("tilinglinks.cli")
    originals = {}   # id(original) -> (name, original, wrapper)
    for layer, mod in mods.items():
        prefix = "fields.polys" if layer == "_polys" else layer
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not isinstance(obj, (types.FunctionType,
                                    functools._lru_cache_wrapper)):
                continue
            name = ALIASES.get((layer, attr), f"{prefix}.{attr}")
            originals[id(obj)] = (name, obj, tracer.wrap(name, obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "tilinglinks" and not modname.startswith("tilinglinks."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[1] is obj:
                setattr(mod, attr, hit[2])
    cls = mods["fields"].AlgebraicNumber
    for attr, name in OPERATORS.items():
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    caches = {}
    for name, obj, _ in originals.values():
        if hasattr(obj, "cache_info"):
            caches.setdefault(name, []).append(obj)
    return caches


def cache_stats(caches):
    out = {}
    for name, fns in caches.items():
        infos = [fn.cache_info() for fn in fns]
        out[name] = {"hits": sum(i.hits for i in infos),
                     "misses": sum(i.misses for i in infos)}
    return out


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracer.py TRACE_OUT -- ARGV...")
    out_path, cmd_argv = argv[0], argv[2:]
    # the import path of `python -m`: the working directory, not this
    # script's directory
    sys.path[0] = os.getcwd()
    tracer = Tracer()
    root = tracer.push("command", True)
    t_import = time.perf_counter()
    from tilinglinks import cli
    import_s = time.perf_counter() - t_import
    caches = install(tracer)
    frame = tracer.push("cli", True)
    code = 1
    try:
        code = cli.main(cmd_argv)
    except SystemExit as exc:   # argparse errors and --version
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        raise
    finally:
        sys.stdout.flush()
        tracer.pop(frame)
        tracer.pop(root)
        with open(out_path, "w") as fh:
            json.dump({
                "argv": cmd_argv,
                "exit_code": code,
                "import_s": import_s,
                "agg": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                        for k, v in tracer.agg.items()},
                "caches": cache_stats(caches),
                "max_coeff_bits": tracer.max_coeff_bits,
                "basins": tracer.basins,
                "spans": tracer.spans,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
