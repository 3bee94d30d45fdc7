"""Traced runs: wrappers around the public functions of every layer.

`install()` replaces each target function with a wrapper that records a
span (name, start, end, parent span, operation id), and each scalar
method with a wrapper that only counts calls. Names that other modules
imported the function under are replaced as well. Spans are kept in
flat arrays and written out when the run ends. Timed runs never call
`install()`.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import json
import sys
import time
from fractions import Fraction

# (layer, module, attribute) of every function given spans
SPANS = [
    ("exactalg", "meromat.exactalg", "poly_gcd"),
    ("linalg_exact", "meromat.linalg_exact", "inverse"),
    ("linalg_exact", "meromat.linalg_exact", "det"),
    ("linalg_exact", "meromat.linalg_exact", "rank"),
    ("linalg_exact", "meromat.linalg_exact", "matmul"),
    *[("polymat", "meromat.polymat", f) for f in (
        "smith_form", "hermite_form", "det", "nrank", "inverse_unimodular",
        "gcrd", "gcld", "are_right_coprime", "are_left_coprime",
        "coprime_completion", "solve_bezout")],
    *[("ratmat", "meromat.ratmat", f) for f in (
        "smith_mcmillan", "right_coprime_mfd", "left_coprime_mfd",
        "least_order", "mcmillan_degree", "pole_zero_index", "poly_roots")],
    *[("sysmat", "meromat.sysmat", f) for f in (
        "transfer_function", "is_irreducible", "least_order_check", "to_rmf",
        "to_lmf", "decouple", "equate_irreducible", "fse_to_rse",
        "verify_fse")],
    *[("holomat", "meromat.holomat", f) for f in (
        "count_zeros_minus_poles", "tds_pole_count", "roots_in_region",
        "local_indices", "nrank_sampled")],
    ("frontio", "meromat.frontio.parser", "parse_entry"),
    ("frontio", "meromat.frontio.files", "load"),
    ("frontio", "meromat.frontio.files", "loads"),
    ("frontio", "meromat.frontio.files", "dumps"),
    ("frontio", "meromat.frontio.cli", "main"),
]

# (metric name, module, class, methods) of scalar methods only counted
COUNTS = [
    ("exactalg.Poly.mul", "meromat.exactalg", "Poly", ("__mul__", "__rmul__")),
    ("exactalg.Poly.divmod", "meromat.exactalg", "Poly", ("__divmod__",)),
    ("exactalg.RatFn.init", "meromat.exactalg", "RatFn", ("__init__",)),
    ("holomat.entry_evals", "meromat.holomat", "QuasiPolyEntry",
     ("__call__",)),
    ("holomat.entry_evals", "meromat.exactalg", "RatFn", ("__call__",)),
]

EXTRA = [
    ("exactalg.peak_coeff_bits", "bits"),
    ("ratmat.smith_mcmillan.repeat_share", "share"),
    ("holomat.count_zeros_minus_poles.raised", "count"),
    ("holomat.entry_evals_per_count", "count"),
    ("frontio.report_bytes", "bytes"),
    ("meromat.import_s", "s"),
    ("numpy.import_s", "s"),
    ("bench.trace_overhead_s", "s"),
]


def metric_name(module: str, attr: str) -> str:
    """meromat.frontio.files / load -> frontio.files.load"""
    parts = module.split(".")[1:]
    if parts[0] == "frontio" and attr in ("parse_entry",):
        parts = ["frontio"]
    return ".".join(parts + [attr])


def per_layer_names() -> list:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for _, module, attr in SPANS:
        base = metric_name(module, attr)
        out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
    seen = set()
    for name, *_ in COUNTS:
        if name not in seen:
            seen.add(name)
            out.append((name if name == "holomat.entry_evals"
                        else f"{name}.calls", "count"))
    return out + EXTRA


class Recorder:
    def __init__(self):
        self.names: list = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.stack: list = []
        self.op_id = -1
        self.counts: dict = {}
        self.seen_sm: set = set()
        self.sm_calls = 0
        self.sm_repeats = 0
        self.raised = 0
        self.restore: list = []

    # -- wrappers ------------------------------------------------------

    def _span(self, nid, fn, on_call=None, on_raise=None):
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.op.append(rec.op_id)
            rec.end.append(0.0)
            rec.stack.append(idx)
            if on_call is not None:
                on_call(args)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                rec.end[idx] = clock()
                rec.stack.pop()

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sm_call(self, args):
        self.sm_calls += 1
        key = args[0]
        if key in self.seen_sm:
            self.sm_repeats += 1
        else:
            self.seen_sm.add(key)

    def _count_raise(self, exc):
        from meromat.errors import ContourError, ConvergenceError

        if isinstance(exc, (ContourError, ConvergenceError)):
            self.raised += 1

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "meromat" or n.startswith("meromat.")]
        for _, module, attr in SPANS:
            orig = getattr(sys.modules[module], attr)
            name = metric_name(module, attr)
            self.names.append(name)
            hooks = {}
            if name == "ratmat.smith_mcmillan":
                hooks["on_call"] = self._sm_call
            if name == "holomat.count_zeros_minus_poles":
                hooks["on_raise"] = self._count_raise
            wrapped = self._span(len(self.names) - 1, orig, **hooks)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self.restore.append((mod, key, val))
                        setattr(mod, key, wrapped)
        for key, module, cls_name, methods in COUNTS:
            cls = getattr(sys.modules[module], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self.restore.append((cls, meth, orig))
                setattr(cls, meth, self._counter(key, orig))

    def uninstall(self):
        for owner, key, val in reversed(self.restore):
            setattr(owner, key, val)
        self.restore.clear()

    # -- results -------------------------------------------------------

    def self_times(self, op_scale) -> dict:
        """Scaled self time and call count per function name.
        `op_scale[op]` is the calibration factor of that operation."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            agg[0] += 1
            own = self.end[i] - self.start[i] - child[i]
            agg[1] += own * op_scale.get(self.op[i], 1.0)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]} {self.start[i]:.9f} "
                         f"{self.end[i]:.9f} {self.parent[i]} {self.op[i]}\n")


def coeff_bits(obj, _depth=0) -> int:
    """Largest numerator or denominator bit size of any exact coefficient
    reachable from an analysis result."""
    from meromat.exactalg import GaussRat, Poly, RatFn

    if _depth > 8 or obj is None or isinstance(obj, (str, bytes, bool,
                                                      int, float, complex)):
        return 0
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, GaussRat):
        return max(coeff_bits(obj.re), coeff_bits(obj.im))
    if isinstance(obj, Poly):
        return max((coeff_bits(c) for c in obj.coeffs), default=0)
    if isinstance(obj, RatFn):
        return max(coeff_bits(obj.num), coeff_bits(obj.den))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return max((coeff_bits(v, _depth + 1) for v in obj), default=0)
    if isinstance(obj, dict):
        return max((coeff_bits(v, _depth + 1) for v in obj.values()),
                   default=0)
    if dataclasses.is_dataclass(obj):
        return max((coeff_bits(getattr(obj, f.name), _depth + 1)
                    for f in dataclasses.fields(obj)), default=0)
    slots = getattr(type(obj), "__slots__", ())
    return max((coeff_bits(getattr(obj, s, None), _depth + 1)
                for s in slots), default=0)
