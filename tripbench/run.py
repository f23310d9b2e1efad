"""The tripmaps benchmark: three claim-verification workloads.

    python3 tripbench/run.py --workload kernel-identity --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; tripmaps is imported from src/.  One run:

1. set-up: N_SETUP fresh interpreters import tripmaps and report the time
   from interpreter start to ready (the worker's own set-up is one more);
2. verify: a fresh worker interpreter repeats whole rounds of the
   workload's operations until --seconds have passed; an operation is one
   verb invocation (tripmaps.cli.main) or one public-function call;
3. probes: the worker computes the program values the oracles need;
4. check: this process computes oracles with mpmath (oracles.py) and checks
   every output against them and the program's stated tolerances
   (checks.py), then perturbs outputs to show that no check is vacuous.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics of BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1).  Details of the run go to .tripbench/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".tripbench"
N_SETUP = 7
RUN_LIMIT_S = 170.0

if not (ROOT / "src" / "tripmaps" / "cli.py").is_file():
    sys.exit(f"tripbench: no tripmaps sources under {ROOT / 'src'}")

import checks  # noqa: E402
import oracles  # noqa: E402
from oracles import label  # noqa: E402
from tripmaps.spectral import GridSpec  # noqa: E402

# domain.ERGODIC_TRIPLES holds (e,e,e) and (e,23,e); the Monte Carlo gate of
# (e,23,e) fails on some seeds because its orbit digits are correlated
# (tripbench/README.md), so only (e,e,e) runs
MC_TRIPLES = ("e,e,e",)
MC_STEPS = 200_000


def _cli(*argv: str) -> dict:
    return {"kind": "cli", "argv": [*argv, "--format", "json"]}


def _call(fn: str, triple: str, **kwargs) -> dict:
    return {"kind": "call", "fn": fn, "triple": triple, "kwargs": kwargs}


def kernel_identity(rng: random.Random):
    """Theorem 3.1 on the six sigma-class representatives, eta0 and eta1,
    at the verb's fixed point; the seed sets the order."""
    ops = [_cli("hilbert", "--triple", t, "--phi", phi)
           for t in oracles.SIGMA_REPS for phi in oracles.PHIS]
    rng.shuffle(ops)
    return ops, []


def operator_sweep(rng: random.Random):
    """Eigen residuals and summand sums over all rows, plus the
    monotonicity (n = 1..3) and invariance checks that no verb covers;
    the seed draws their random functions and rectangles and the grid
    points the oracles sample."""
    ops = [_cli("eigen", "--triple", "all"), _cli("sum-bounds")]
    ops += [_call("spectral.monotonicity_check", label(k), n=n, trials=20,
                  seed=rng.randrange(2 ** 31), branches=12)
            for k in oracles.BANACH for n in (1, 2, 3)]
    ops += [_call("gausskuzmin.invariance_check", label(k), abs_tol=checks.INVARIANCE_TOL,
                  seed=rng.randrange(2 ** 31))
            for k in oracles.DENSITIES]
    # the grids of the eigen and sum-bounds verbs
    eigen_grid = [p.xy for p in GridSpec(margin=0.05, density=10).points()]
    sum_grid = [p.xy for p in GridSpec(margin=0.05, density=5).points()]
    probes = []
    for fn, table, grid, eps in (("apply_transfer", oracles.EIGENFUNCTIONS, eigen_grid,
                                  checks.EIGEN_EPS),
                                 ("summand_sum", oracles.BANACH, sum_grid, checks.SUM_EPS)):
        for k in table:
            x, y = rng.choice(grid)
            probes.append({"id": len(probes), "fn": fn, "triple": label(k),
                           "x": x, "y": y, "eps": eps})
    return ops, probes


def digit_statistics(rng: random.Random):
    """Round trip over all 108 triples on seeded points, cylinder measures
    for the 18 densities, and a seeded Monte Carlo orbit."""
    seed = str(rng.randrange(2 ** 31))
    ops = [_cli("verify-branches", "--triple", "all", "--seed", seed),
           _cli("gk", "--triple", "all")]
    ops += [_cli("gk", "--triple", t, "--simulate", "--n", str(MC_STEPS), "--seed", seed)
            for t in MC_TRIPLES]
    return ops, []


WORKLOADS = {
    "kernel-identity": kernel_identity,
    "operator-sweep": operator_sweep,
    "digit-statistics": digit_statistics,
}


def compute_oracles(workload: str, probes: list) -> dict:
    if workload == "kernel-identity":
        return {"theorem31_lhs": oracles.load_cache()["theorem31_lhs"]}
    if workload == "digit-statistics":
        return {"p_closed": {
            "e,e,e": {k: float(oracles.p_eee(k)) for k in range(oracles.GK_KMAX + 1)},
            "e,23,e": oracles.load_cache()["p_e23e"]}}
    out = {}
    for pr in probes:
        if pr["fn"] == "apply_transfer":
            h = oracles.EIGENFUNCTIONS[oracles.key(pr["triple"])]
            lh = oracles.branch_sum(pr["triple"], h, pr["x"], pr["y"])
            hp = h(oracles.mp.mpf(pr["x"]), oracles.mp.mpf(pr["y"]))
            out[pr["id"]] = {"sum": float(lh), "rel_residual": float(abs(lh - hp) / abs(hp))}
        else:
            out[pr["id"]] = {"sum": float(oracles.abs_summand_sum(pr["triple"], pr["x"], pr["y"]))}
    return {"probes": out}


def _child_env() -> dict:
    env = dict(os.environ)
    # BLAS may use the cores this process may run on, and no more
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, cores)
    return env


def _worker(args: list[str], deadline: float, stdin: str = "") -> dict:
    """Start a worker interpreter, wait for it, return its JSON."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), repr(t0), *args],
        input=stdin, capture_output=True, text=True, env=_child_env(),
        timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"tripbench: worker exited with status {proc.returncode}")
    return json.loads(proc.stdout)


def _parse(op: dict, out: dict) -> dict | None:
    """The checked form of an operation's output, or None if it failed."""
    if "error" in out:
        return None
    if op["kind"] == "call":
        return out
    if out["rc"] != 0:
        return None
    return {"rows": json.loads(out["stdout"])}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)

    ops, probes = WORKLOADS[args.workload](random.Random(args.seed))
    OUT_DIR.mkdir(exist_ok=True)
    spec = {"ops": ops, "probes": probes, "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans_path": str(OUT_DIR / f"spans-{args.workload}.npz")}

    setup = [_worker(["--setup-only"], deadline)["setup_s"] for _ in range(N_SETUP)]
    res = _worker([], deadline, json.dumps(spec))
    setup.append(res["setup_s"])
    rounds = res["rounds"]

    results = []
    errors = []
    for op, out in zip(ops, res["outputs"]):
        parsed = _parse(op, out)
        if parsed is None:
            errors.append({"op": op, "output": out})
        else:
            results.append((op, parsed))
    probe_pairs = list(zip(probes, res["probes"]))
    oracle = compute_oracles(args.workload, probes)
    violations = checks.CHECKS[args.workload](results, probe_pairs, oracle)
    if res["nondeterministic_rounds"]:
        violations.append(f"{res['nondeterministic_rounds']} rounds gave other outputs "
                          "than the first")
    missed = checks.selftest(args.workload, results, probe_pairs, oracle)
    violations += [f"self-test: perturbed {what} passed the checks" for what in missed]

    values = {
        "setup_s": statistics.median(setup),
        "verify_s": statistics.median(r["verify_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace:
        values = dict(res["layers"], **{"trace.verify_s": values["verify_s"]})
    section = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "setup_s": setup, "violations": violations,
              "failed_ops": errors, "metrics": values}
    with open(OUT_DIR / f"report-{args.workload}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    for line in violations:
        print(f"tripbench: {line}", file=sys.stderr)

    print(json.dumps({"correct": not violations,
                      "attempted": len(ops) * len(rounds),
                      "failed": len(errors) * len(rounds),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
