"""The benchmark tracer's lookups resolve.

``bench/tracer.py`` wraps ``(module, attribute)`` pairs of this package
from outside, and ``bench/selftest.py`` reads each one with a bare
``getattr``.  Removing or renaming one of those attributes breaks the
benchmark, so every pair must stay importable from its module.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timed_and_counted_attributes_resolve():
    tracer = load_tracer()
    pairs = [(m, a) for m, a, _ in tracer.TIMED + tracer.COUNTED]
    assert pairs
    missing = [(m, a) for m, a in pairs
               if not callable(getattr(importlib.import_module(m), a, None))]
    assert missing == []
