"""meromat benchmark: one command, four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smith-sweep --seed 1
    python3 perfbench/run.py --workload all --seed 1     # every workload
    python3 perfbench/run.py --workload cli --seed 1 --trace 1

Each workload runs in a fresh single-threaded process (worker.py), after
the inputs are generated from the seed and the set-up time is measured
with fresh interpreters (probe.py). Each worker runs one round of its
workload's fixed batch, about 5-10 s at the reference speed; --seconds is
accepted for the command-line interface and does not change the batch.
The last line of standard output is one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics without --trace and the per-layer metrics with
--trace 1. The lines before it give the raw figures for reference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

OUT_DIR = ".perfbench"
SETUP_PROBES = 9
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("batch_s", "s"), ("op_p50_s", "s"),
              ("op_p90_s", "s"), ("peak_rss_mb", "MB"))


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.path.join(root, "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def write_inputs(workload: str, seed: int, root: str) -> str:
    workdir = os.path.join(root, OUT_DIR, f"{workload}-s{seed}")
    os.makedirs(workdir, exist_ok=True)
    bundle = gen.bundle(workload, seed)
    with open(os.path.join(workdir, "bundle.json"), "w",
              encoding="utf-8") as fh:
        json.dump(bundle, fh)
    for key, text in bundle["docs"].items():
        if key.endswith(".mm"):
            with open(os.path.join(workdir, key), "w", encoding="utf-8") as fh:
                fh.write(text)
    return workdir


def measure_setup(workdir: str, env: dict) -> tuple:
    """Median scaled time of SETUP_PROBES fresh interpreters that import
    meromat and load the inputs. The probe's import and load steps are
    scaled by the calibrations the probe runs around them; interpreter
    start and exit, timed here, by calibrations just before and after.
    Also returns the median scaled import times of numpy and meromat."""
    totals, np_s, mm_s = [], [], []
    cmd = [sys.executable, os.path.join(HERE, "probe.py"),
           os.path.join(workdir, "bundle.json")]
    for _ in range(SETUP_PROBES):
        c0 = calib.measure_median(3)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=60)
        t1 = time.perf_counter()
        c1 = calib.measure_median(3)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        cals, steps = info["cals"], info["steps"]
        scaled = {name: steps[name] * calib.REF_S / ((cals[i] + cals[i + 1]) / 2)
                  for i, name in enumerate(("numpy_import", "meromat_import",
                                            "load"))}
        outside = (t1 - t0) - info["inside"]
        totals.append(outside * calib.REF_S / ((c0 + c1) / 2)
                      + sum(scaled.values()))
        np_s.append(scaled["numpy_import"])
        mm_s.append(scaled["meromat_import"])
    return (statistics.median(totals), statistics.median(np_s),
            statistics.median(mm_s))


def run_workload(workload: str, seed: int, trace: int, root: str,
                 deadline: float) -> dict:
    env = child_env(root)
    workdir = write_inputs(workload, seed, root)
    setup_s, numpy_s, meromat_s = measure_setup(workdir, env)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--dir", workdir, "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        layer = dict(res["per_layer"])
        layer["meromat.import_s"] = meromat_s
        layer["numpy.import_s"] = numpy_s
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in spans.per_layer_names()}
        print(f"{workload}: untraced batch {res['batch_s']:.4f} s, traced "
              f"batch {res['traced_batch_s']:.4f} s, tracing overhead "
              f"{res['traced_batch_s'] - res['batch_s']:.4f} s, "
              f"{res['spans']} spans")
    else:
        res["setup_s"] = setup_s
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END}
        print(f"{workload}: {res['attempted']} attempted, "
              f"{res['failed']} failed; raw "
              f"batch {res['raw_batch_s']:.4f} s, calibration factor "
              f"{res['cal_factor']:.4f}; " + ", ".join(
                  f"{k} {v['value']:.6g} {v['unit']}"
                  for k, v in metrics.items()))
    if res["unexpected_failures"]:
        print(f"{workload}: unexpected failures: "
              f"{res['unexpected_failures']}", file=sys.stderr)
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=list(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "meromat", "__init__.py")):
        print("error: run from the root of a meromat checkout "
              "(src/meromat not found)", file=sys.stderr)
        return 2
    start = time.monotonic()
    # bytecode is compiled before the first timed run
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(root, "src", "meromat"), HERE],
                   env=child_env(root), check=True, capture_output=True)
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = start + DEADLINE_S * (len(results) + 1)
        results[name] = run_workload(name, args.seed, args.trace, root,
                                     deadline)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
