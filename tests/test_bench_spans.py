"""The traced benchmark run wraps library functions by name: every name it
lists must exist, or `perfbench/run.py --trace 1` fails when it installs
its wrappers."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    # spans.py imports only the standard library, so loading it by path
    # runs none of the benchmark
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_targets_resolve():
    spans = load_spans()
    missing = [f"{module}.{attr}" for _, module, attr in spans.SPANS
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []


def test_counted_methods_resolve():
    spans = load_spans()
    missing = [f"{module}.{cls}.{meth}"
               for _, module, cls, methods in spans.COUNTS
               for meth in methods
               if meth not in vars(getattr(importlib.import_module(module),
                                           cls))]
    assert missing == []
