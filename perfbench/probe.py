"""Set-up probe: a fresh interpreter imports meromat and loads a workload's
inputs from their `meromat/1` text, then exits.

Each step is timed between two calibrations (see calib.py), which import
nothing, so run.py can scale the steps by the machine's speed at the
time. run.py times the interpreter start and exit around them.

    python3 perfbench/probe.py BUNDLE_JSON
"""

import time

t_start = time.perf_counter()
import json  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402

cals = [calib.measure_median(3)]
t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
cals.append(calib.measure_median(3))
t2 = time.perf_counter()
import meromat  # noqa: E402,F401
from meromat.frontio import files  # noqa: E402

t3 = time.perf_counter()
cals.append(calib.measure_median(3))
t4 = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as fh:
    docs = json.load(fh)["docs"]
loaded = [files.loads(text) for text in docs.values()]
t5 = time.perf_counter()
cals.append(calib.measure_median(3))
print(json.dumps({"steps": {"numpy_import": t1 - t0, "meromat_import": t3 - t2,
                            "load": t5 - t4},
                  "cals": cals, "inside": time.perf_counter() - t_start}))
