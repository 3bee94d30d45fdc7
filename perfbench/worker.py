"""One workload in a fresh process: load, time one round of the fixed
batch, check.

Started by run.py with the environment fixed (hash seed, one BLAS/OpenMP
thread). Prints one JSON object on its last line of standard output.

    python3 perfbench/worker.py --workload NAME --dir DIR [--trace 0|1]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import calib

# the time-limited root search is stopped after this many seconds at the
# reference speed
LIMIT_REF_S = 1.0
# the only operation allowed to fail; any other failure makes a run
# incorrect
LIMITED_KIND = "roots_limited"
# calibrations taken this close to an operation scale it
WINDOW_S = 0.05


class TimeLimit(BaseException):
    """Raised from SIGALRM; a BaseException so that no `except Exception`
    inside the program swallows it."""


def _alarm(signum, frame):
    raise TimeLimit()


def build_ops(bundle: dict, workdir: str) -> list:
    """(kind, thunk) for every operation of one round. Every thunk looks
    its function up on the module at call time, so traced runs see the
    wrappers."""
    from meromat import holomat, polymat, ratmat, sysmat
    from meromat.frontio import cli, files

    docs = {k: files.loads(v) for k, v in bundle["docs"].items()
            if not k.endswith(".mm")}
    ops = []
    for spec in bundle["ops"]:
        kind = spec["kind"]
        doc = docs.get(spec.get("doc"))
        if kind == "smith":
            A = doc.matrix()
            fn = (lambda A=A: (polymat.smith_form(A), polymat.hermite_form(A),
                               polymat.det(A)))
        elif kind in ("least_order_check", "to_rmf", "to_lmf", "decouple"):
            fn = (lambda H=doc.amd(), f=kind: getattr(sysmat, f)(H))
        elif kind == "equate":
            fn = (lambda H=doc.amd(), H2=docs[spec["doc2"]].amd():
                  sysmat.equate_irreducible(H, H2))
        elif kind in ("smith_mcmillan", "least_order", "mcmillan_degree"):
            fn = (lambda M=doc.matrix(), f=kind: getattr(ratmat, f)(M))
        elif kind == "right_mfd":
            fn = (lambda M=doc.matrix(): ratmat.right_coprime_mfd(M))
        elif kind == "left_mfd":
            fn = (lambda M=doc.matrix(): ratmat.left_coprime_mfd(M))
        elif kind == "pole_zero_index":
            fn = (lambda M=doc.matrix(), p=Fraction(spec["point"]):
                  ratmat.pole_zero_index(M, p))
        elif kind == "tds_pole_count":
            cx, cy, r = spec["circle"]
            fn = (lambda d=doc.data, c=complex(cx, cy), r=r, t=spec["tol"]:
                  holomat.tds_pole_count(d, holomat.Contour.circle(c, r,
                                                                   tol=t)))
        elif kind == "count":
            cx, cy, r = spec["circle"]
            fn = (lambda M=doc.matrix(), c=complex(cx, cy), r=r, t=spec["tol"]:
                  holomat.count_zeros_minus_poles(
                      M, holomat.Contour.circle(c, r, tol=t)))
        elif kind == "local_indices":
            fn = (lambda M=doc.matrix(), p=int(Fraction(spec["point"])):
                  holomat.local_indices(M, p))
        elif kind == "roots":
            fn = (lambda M=doc.matrix(), b=tuple(spec["box"]), t=spec["tol"]:
                  holomat.roots_in_region(M, b, tol=t))
        elif kind == "roots_limited":
            fn = (lambda d=doc.data, b=tuple(spec["box"]):
                  holomat.roots_in_region(holomat.tds_state_block(d), b))
        elif kind == "cli":
            argv = [os.path.join(workdir, a) if a.endswith(".mm") else a
                    for a in spec["argv"]]

            def fn(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
                return code, out.getvalue()
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        ops.append((kind, fn))
    return ops


def run_round(ops, rec=None):
    """Run every operation once, with a calibration after each. Returns
    (results, scaled op times, raw seconds, failed count, calibrations,
    per-op scale). Operation i is scaled by the median of the
    calibrations taken within WINDOW_S of it: a single 0.5 ms kernel run
    is noisy, while the speed of the machine drifts within a second."""
    results, raws = [], []
    failed = 0
    gc.collect()
    cals = [calib.measure()]
    stamps = [time.perf_counter()]
    for i, (kind, fn) in enumerate(ops):
        if rec is not None:
            rec.op_id = i
        limited = kind == LIMITED_KIND
        if limited:
            signal.setitimer(signal.ITIMER_REAL,
                             LIMIT_REF_S * cals[-1] / calib.REF_S)
        t0 = time.perf_counter()
        try:
            res = fn()
        except TimeLimit:
            res = TimeLimit
            failed += 1
        except Exception as exc:  # an unexpected failure, counted
            res = exc
            failed += 1
        finally:
            if limited:
                signal.setitimer(signal.ITIMER_REAL, 0)
        raws.append(time.perf_counter() - t0)
        cals.append(calib.measure())
        stamps.append(time.perf_counter())
        results.append(res)
    scales = []
    lo = 0
    for i in range(len(ops)):
        while stamps[lo] < stamps[i] - WINDOW_S:
            lo += 1
        hi = i + 1
        while hi + 1 < len(stamps) and stamps[hi + 1] <= stamps[i + 1] + WINDOW_S:
            hi += 1
        scales.append(calib.REF_S / statistics.median(cals[lo:hi + 1]))
    times = [raw * s for raw, s in zip(raws, scales)]
    return results, times, sum(raws), failed, cals, scales


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    all order statistics. Where operations of different kinds meet, a
    single order statistic jumps between them from run to run; this
    estimate moves smoothly."""
    from scipy.special import betainc

    v = sorted(values)
    n = len(v)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(v)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)

    with open(os.path.join(args.dir, "bundle.json"), encoding="utf-8") as fh:
        bundle = json.load(fh)
    ops = build_ops(bundle, args.dir)

    out = {"workload": args.workload, "attempted": len(ops)}
    if args.trace:
        results, info = traced(ops, args)
        out.update(info)
    else:
        # exactly one round: attempted and failed are fixed per workload,
        # whatever the speed of the machine
        results, times, raw, failed, cals, _ = run_round(ops)
        # peak memory of the workload, before the oracles are imported
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.update({
            "failed": failed,
            "batch_s": sum(times),
            "op_p50_s": quantile(times, 0.5),
            "op_p90_s": quantile(times, 0.9),
            "peak_rss_mb": peak_kb / 1024.0,
            "raw_batch_s": raw,
            "cal_factor": statistics.median(cals) / calib.REF_S,
        })
    import checks

    problems = checks.check(bundle, results)
    for p in problems[:20]:
        print("check failed:", p, file=sys.stderr)
    out["unexpected_failures"] = [
        f"{spec['kind']} {spec.get('doc', '')}: {res!r}"
        for spec, res in zip(bundle["ops"], results)
        if spec["kind"] != LIMITED_KIND and isinstance(res, Exception)]
    out["correct"] = not problems and not out["unexpected_failures"]
    print(json.dumps(out))
    return 0


def traced(ops, args):
    """An untraced round, then a traced one. Returns the traced round's
    results and the per-layer metrics with the tracing overhead."""
    from spans import Recorder, coeff_bits

    plain = run_round(ops)
    rec = Recorder()
    rec.install()
    results, times, raw, failed, cals, scales = run_round(ops, rec)
    rec.uninstall()
    agg = rec.self_times(dict(enumerate(scales)))
    m = {}
    for name, (calls, self_s) in agg.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    for key, val in rec.counts.items():
        m[key if key == "holomat.entry_evals" else f"{key}.calls"] = val
    m["exactalg.peak_coeff_bits"] = max(
        (coeff_bits(r) for r in results if not isinstance(r, BaseException)
         and r is not TimeLimit), default=0)
    m["ratmat.smith_mcmillan.repeat_share"] = (
        rec.sm_repeats / rec.sm_calls if rec.sm_calls else 0.0)
    m["holomat.count_zeros_minus_poles.raised"] = rec.raised
    counts = agg["holomat.count_zeros_minus_poles"][0]
    m["holomat.entry_evals_per_count"] = (
        rec.counts.get("holomat.entry_evals", 0) / counts if counts else 0.0)
    m["frontio.report_bytes"] = sum(
        len(r[1]) for (kind, _), r in zip(ops, results) if kind == "cli"
        and isinstance(r, tuple))
    m["bench.trace_overhead_s"] = sum(times) - sum(plain[1])
    rec.write(os.path.join(args.dir, "trace-spans.txt"))
    return results, {"per_layer": m, "batch_s": sum(plain[1]),
                     "traced_batch_s": sum(times), "failed": failed,
                     "spans": len(rec.start)}


if __name__ == "__main__":
    sys.exit(main())
