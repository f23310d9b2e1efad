"""The benchmark's tracer (tripbench/spans.py) wraps public functions by
name and reads the cutoff apply_transfer records in its stats dict; these
tests keep both contracts, so `tripbench/run.py --trace 1` can install."""

import importlib
import importlib.util
from pathlib import Path

from tripmaps.domain import PermutationTriple, TrianglePoint
from tripmaps.transfer import TruncationPolicy, apply_transfer

_SPANS = Path(__file__).resolve().parents[1] / "tripbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("tripbench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_exist():
    spans = _spans()
    for layer, funcs in spans.TRACED.items():
        home = importlib.import_module(f"tripmaps.{layer}")
        for name in funcs:
            assert callable(getattr(home, name, None)), f"tripmaps.{layer}.{name}"


def test_k_doublings_hook_reads_stats():
    spans = _spans()
    t, p = PermutationTriple("e", "e", "e"), TrianglePoint(0.5, 0.25)
    f = lambda x, y: 1.0 / (x * (y + 1.0))
    pol = TruncationPolicy(eps=1e-10)
    stats: dict = {}
    apply_transfer(t, f, p, pol, stats=stats)
    assert stats["K"] >= 32
    tracer = spans.Tracer()
    # stats passed by keyword, positionally, and not at all
    for args, kwargs in (((t, f, p, pol), {"stats": {}}), ((t, f, p, pol, {}), {}),
                         ((t, f, p, pol), {})):
        assert spans._k_doublings(tracer, apply_transfer, args, kwargs) == \
            apply_transfer(t, f, p, pol)
    assert tracer.counters["transfer.apply_transfer.k_doublings"] == \
        3 * (stats["K"].bit_length() - spans._K0_BITS)
