"""The private names the benchmark tracer reads.

`benchmark/tracing.py` wraps public functions from outside the package and
reads a few internals without patching them; when one of those is renamed,
its metrics silently turn into nulls.  This pins them.  A change that removes
one on purpose updates this test together with the tracer.
"""

import importlib.util
import pathlib

from hilbertpoincare import kloosterman
from hilbertpoincare.poincare import CoefficientEvaluator, PoincareParams
from hilbertpoincare.residues import ResidueRing

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_finds_every_target():
    tracer = _tracing_module().Tracer()
    assert tracer.targets()
    assert tracer.unavailable == set()
    snapshot = tracer._snapshot()
    assert snapshot and None not in snapshot.values(), snapshot


def test_tracer_reads_existing_internals(F5):
    ev = CoefficientEvaluator(PoincareParams(F5, 8), F5.one(), F5.one())
    assert isinstance(ev._terms, dict) and isinstance(ev._classes, list)
    cls = ev.classes_upto(20)[-1]
    assert hasattr(ResidueRing(cls[3]), "_unit_data")
    assert isinstance(kloosterman._EXACT_CACHE, dict)
