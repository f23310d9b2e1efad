"""The benchmark's tracer (tripbench/spans.py) wraps public functions by
name and reads the cutoff apply_transfer records in its stats dict; these
tests keep both contracts, so `tripbench/run.py --trace 1` can install.
The BENCH_<n>.json records of measured speedups stay readable too."""

import importlib
import importlib.util
import json
from pathlib import Path

from tripmaps.domain import PermutationTriple, TrianglePoint
from tripmaps.transfer import TruncationPolicy, apply_transfer

_ROOT = Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "tripbench" / "spans.py"


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


def test_bench_records_parse():
    # each record names the change, how it was measured, the end-to-end
    # numbers and the core count of the machine they come from
    records = sorted(_ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert {"change", "method", "end_to_end"} <= record.keys(), path.name
        nproc = record["machine"]["nproc"]
        assert isinstance(nproc, int) and nproc >= 1, path.name
