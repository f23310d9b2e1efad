"""One workload in a fresh interpreter; started by run.py, never by hand.

    python3 tripbench/worker.py T0 [--setup-only]  < spec.json

T0 is the parent's time.monotonic() just before it started this
interpreter (CLOCK_MONOTONIC is shared by all processes), so the set-up
time runs from interpreter start until tripmaps is imported and ready.
The spec on stdin lists the operations of one round; rounds repeat until
`seconds` have passed.  One JSON object goes to stdout at the end.
"""

import time
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import tripmaps.cli  # noqa: E402  (pulls in every layer and the tables)

SETUP_S = time.monotonic() - float(sys.argv[1])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from tripmaps import spectral, transfer  # noqa: E402
from tripmaps.domain import PermutationTriple, TrianglePoint  # noqa: E402
from tripmaps.tables.eigen import EIGENFUNCTIONS  # noqa: E402


def _triple(text: str) -> PermutationTriple:
    return PermutationTriple(*text.split(","))


def run_op(op: dict) -> dict:
    """One claim evaluation: a verb invocation or a public-function call.
    Any exception is recorded with its traceback and counts as a failed
    operation; the round goes on."""
    try:
        if op["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = tripmaps.cli.main(op["argv"])
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        layer, fname = op["fn"].split(".")
        fn = getattr(sys.modules[f"tripmaps.{layer}"], fname)
        return {"value": fn(_triple(op["triple"]), **op["kwargs"])}
    except Exception:
        return {"error": traceback.format_exc()}


def run_probe(pr: dict) -> dict:
    """Program values the output checks compare with an oracle; computed
    after the timed phase."""
    t, p = _triple(pr["triple"]), TrianglePoint(pr["x"], pr["y"])
    if pr["fn"] == "apply_transfer":
        h = EIGENFUNCTIONS[t.key]
        value, err = transfer.apply_transfer(t, h, p, transfer.TruncationPolicy(eps=pr["eps"]))
        return {"value": value, "err": err}
    return {"value": spectral.summand_sum(t, p, pr["eps"])}


def main() -> None:
    if "--setup-only" in sys.argv:
        print(json.dumps({"setup_s": SETUP_S}))
        return
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True

    rounds, first, nondeterministic = [], None, 0
    t_start = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        outputs = [run_op(op) for op in spec["ops"]]
        rounds.append({"verify_s": time.perf_counter() - t0,
                       "cpu_s": time.process_time() - c0})
        if first is None:
            first = outputs
        elif outputs != first:
            nondeterministic += 1
        if time.perf_counter() - t_start >= spec["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": SETUP_S, "rounds": rounds, "peak_rss_mb": peak_rss_mb,
              "outputs": first, "nondeterministic_rounds": nondeterministic}
    if tracer is not None:
        tracer.enabled = False
        result["layers"] = tracer.metrics(len(rounds))
        tracer.write(spec["spans_path"])
    result["probes"] = [run_probe(pr) for pr in spec["probes"]]
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
