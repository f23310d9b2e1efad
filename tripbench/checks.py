"""Output checks, one function per workload, and the perturbation self-test.

Every gate uses a tolerance the program states (the verb defaults in
tripmaps.cli, the truncation and quadrature eps it passes), never a gap
observed today.  A check returns the list of violations; empty means the
outputs are correct.  `selftest` perturbs one output value at a time by ten
times its tolerance and requires the checks to notice each one.
"""

from __future__ import annotations

import copy
import math

from oracles import BANACH, DENSITIES, EIGENFUNCTIONS, FORWARD, label

HILBERT_TOL = 1e-4        # tripmaps hilbert: rel_gap gate
LAGUERRE_TOL = 1e-3       # tripmaps hilbert: Laguerre K = 50 gate
EIGEN_TOL = 1e-8          # tripmaps eigen: residual gate
EIGEN_EPS = EIGEN_TOL / 100   # eigen verb: eps = tol/10; eigen_residual: eps/10
SUM_EPS = 1e-9            # tripmaps sum-bounds: summand_sum eps
INVARIANCE_TOL = 1e-6     # invariance_check abs_tol
ROUNDTRIP_TOL = 1e-10     # tripmaps verify-branches gate
GK_TOL = 1e-6             # tripmaps gk: closed-form gate
CYLINDER_TOL = 1e-9       # tripmaps gk: cylinder_measure abs_tol
MC_SIGMAS, MC_SLACK = 5.0, 1e-3   # tripmaps gk --simulate gate


def _gate(bad: list, what: str, value: float, tol: float) -> None:
    # written so that NaN fails
    if not value < tol:
        bad.append(f"{what}: {value!r} not < {tol!r}")


def _true(bad: list, what: str, value) -> None:
    if value is not True:
        bad.append(f"{what}: {value!r} is not True")


def _rows_for(bad: list, what: str, rows: list, triples: list[str]) -> None:
    got = [r["triple"] for r in rows]
    if got != triples:
        bad.append(f"{what}: rows {got[:3]}... do not follow the table order")


def _flag(argv: list, name: str):
    return argv[argv.index(name) + 1] if name in argv else None


# --- kernel-identity -------------------------------------------------------

def check_kernel_identity(results, probes, oracle) -> list[str]:
    bad: list[str] = []
    for op, out in results:
        triple, phi = _flag(op["argv"], "--triple"), _flag(op["argv"], "--phi")
        rows = out["rows"]
        _rows_for(bad, f"hilbert {triple}", rows, [triple])
        for row in rows:
            where = f"hilbert {triple} {phi}"
            lhs, rhs, lag = row["lhs"], row["rhs"], row["laguerre_K50"]
            ref = oracle["theorem31_lhs"].get(f"{triple}|{phi}|{row['x']!r}|{row['y']!r}")
            if ref is None:
                bad.append(f"{where}: no cached oracle at ({row['x']!r}, {row['y']!r}); "
                           "recompute with python3 tripbench/oracles.py")
                continue
            _gate(bad, f"{where} |lhs-rhs|/|lhs|", abs(lhs - rhs) / abs(lhs), HILBERT_TOL)
            _gate(bad, f"{where} |laguerre-lhs|/|lhs|", abs(lag - lhs) / abs(lhs), LAGUERRE_TOL)
            _gate(bad, f"{where} |lhs-oracle|/|oracle|", abs(lhs - ref) / abs(ref), HILBERT_TOL)
            _gate(bad, f"{where} |rhs-oracle|/|oracle|", abs(rhs - ref) / abs(ref), HILBERT_TOL)
            _true(bad, f"{where} pass", row["pass"])
    return bad


# --- operator-sweep --------------------------------------------------------

def check_operator_sweep(results, probes, oracle) -> list[str]:
    bad: list[str] = []
    max_sum = {}
    for op, out in results:
        if op["kind"] == "cli" and op["argv"][0] == "eigen":
            _rows_for(bad, "eigen", out["rows"], [label(k) for k in EIGENFUNCTIONS])
            for row in out["rows"]:
                _gate(bad, f"eigen {row['triple']} residual", row["max_rel_residual"], EIGEN_TOL)
                _true(bad, f"eigen {row['triple']} pass", row["pass"])
        elif op["kind"] == "cli" and op["argv"][0] == "sum-bounds":
            _rows_for(bad, "sum-bounds", out["rows"], [label(k) for k in BANACH])
            for row in out["rows"]:
                _true(bad, f"sum-bounds {row['triple']} all_converged", row["all_converged"])
                _true(bad, f"sum-bounds {row['triple']} pass", row["pass"])
                max_sum[row["triple"]] = row["max_sum"]
        elif op["fn"] == "spectral.monotonicity_check":
            _true(bad, f"monotonicity {op['triple']} {op['kwargs']}", out["value"])
        else:
            v = out["value"]
            _gate(bad, f"invariance {op['triple']}", v, INVARIANCE_TOL)
            if not v >= 0.0:
                bad.append(f"invariance {op['triple']}: {v!r} < 0")
    for pr, got in probes:
        ref = oracle["probes"][pr["id"]]
        where = f"{pr['fn']} {pr['triple']} at ({pr['x']!r}, {pr['y']!r})"
        # abs gap must stay within the eps the program was asked for
        _gate(bad, f"{where} |value-oracle| - eps", abs(got["value"] - ref["sum"]) - pr["eps"], 0.0)
        if pr["fn"] == "apply_transfer":
            _gate(bad, f"{where} oracle |Lh-h|/|h|", ref["rel_residual"], EIGEN_TOL)
        elif pr["triple"] in max_sum:
            # the grid maximum is at least the sum at any grid point
            _gate(bad, f"{where} oracle - max_sum - eps",
                  ref["sum"] - max_sum[pr["triple"]] - pr["eps"], 0.0)
    return bad


# --- digit-statistics ------------------------------------------------------

def _check_gk_rows(bad, where, rows, triples, kmax, oracle, n_mc) -> None:
    _rows_for(bad, where, rows, [t for t in triples for _ in range(kmax + 1)])
    sums: dict[str, float] = {}
    for row in rows:
        t, k, p = row["triple"], row["k"], row["p_theoretical"]
        at = f"{where} {t} k={k}"
        if not 0.0 <= p <= 1.0:
            bad.append(f"{at}: p = {p!r} outside [0, 1]")
        sums[t] = sums.get(t, 0.0) + p
        _true(bad, f"{at} pass", row["pass"])
        ref = oracle["p_closed"].get(t, {}).get(k)
        if ref is None:
            continue
        _gate(bad, f"{at} |p-oracle|", abs(p - ref), GK_TOL)
        _gate(bad, f"{at} |p_closed-oracle|", abs(row["p_closed"] - ref), GK_TOL)
        if n_mc is not None:
            se = math.sqrt(ref * (1.0 - ref) / n_mc)
            _gate(bad, f"{at} |p_empirical-oracle| - 5se",
                  abs(row["p_empirical"] - ref) - MC_SIGMAS * se, MC_SLACK)
    for t, total in sums.items():
        _gate(bad, f"{where} {t} sum_k p(k) - 1", total - 1.0, (kmax + 1) * CYLINDER_TOL)


def check_digit_statistics(results, probes, oracle) -> list[str]:
    bad: list[str] = []
    for op, out in results:
        argv = op["argv"]
        if argv[0] == "verify-branches":
            _rows_for(bad, "verify-branches", out["rows"], [label(k) for k in FORWARD])
            for row in out["rows"]:
                where = f"verify-branches {row['triple']}"
                _gate(bad, f"{where} roundtrip", row["max_roundtrip_err"], ROUNDTRIP_TOL)
                _true(bad, f"{where} digits_exact", row["digits_exact"])
                _true(bad, f"{where} pass", row["pass"])
            continue
        triple = _flag(argv, "--triple")
        triples = [label(k) for k in DENSITIES] if triple == "all" else [triple]
        n_mc = int(_flag(argv, "--n")) if "--simulate" in argv else None
        kmax = int(_flag(argv, "--kmax") or 10)
        _check_gk_rows(bad, f"gk {triple}", out["rows"], triples, kmax, oracle, n_mc)
    return bad


CHECKS = {
    "kernel-identity": check_kernel_identity,
    "operator-sweep": check_operator_sweep,
    "digit-statistics": check_digit_statistics,
}


# --- self-test -------------------------------------------------------------

def _first(items):
    for item in items:
        return item
    raise LookupError("the perturbed operation failed and is not checked")


def _rows(results, verb):
    return (row for op, out in results if op["kind"] == "cli" and op["argv"][0] == verb
            for row in out["rows"])


def _probe(probes, fn):
    return _first(got for pr, got in probes if pr["fn"] == fn)


# (what, where the value sits, its key, ten times its tolerance)
PERTURBATIONS = {
    "kernel-identity": [
        ("hilbert lhs", lambda r, p: _first(_rows(r, "hilbert")), "lhs",
         lambda d: 10 * HILBERT_TOL * abs(d["lhs"])),
        ("hilbert laguerre_K50", lambda r, p: _first(_rows(r, "hilbert")), "laguerre_K50",
         lambda d: 10 * LAGUERRE_TOL * abs(d["laguerre_K50"])),
    ],
    "operator-sweep": [
        ("eigen residual", lambda r, p: _first(_rows(r, "eigen")), "max_rel_residual",
         lambda d: 10 * EIGEN_TOL),
        ("apply_transfer probe", lambda r, p: _probe(p, "apply_transfer"), "value",
         lambda d: 10 * EIGEN_EPS),
        ("summand_sum probe", lambda r, p: _probe(p, "summand_sum"), "value",
         lambda d: 10 * SUM_EPS),
        ("invariance", lambda r, p: _first(out for op, out in r
                                           if op.get("fn") == "gausskuzmin.invariance_check"),
         "value", lambda d: 10 * INVARIANCE_TOL),
    ],
    "digit-statistics": [
        ("round-trip error", lambda r, p: _first(_rows(r, "verify-branches")),
         "max_roundtrip_err", lambda d: 10 * ROUNDTRIP_TOL),
        ("p(1) of e,e,e", lambda r, p: _first(row for row in _rows(r, "gk")
                                              if row["triple"] == "e,e,e" and row["k"] == 1),
         "p_theoretical", lambda d: 10 * GK_TOL),
        ("Monte Carlo frequency", lambda r, p: _first(row for row in _rows(r, "gk")
                                                      if "p_empirical" in row),
         "p_empirical", lambda d: 10 * (MC_SIGMAS * d["stderr"] + MC_SLACK)),
    ],
}


def selftest(workload, results, probes, oracle) -> list[str]:
    """Names of perturbations the checks failed to notice."""
    missed = []
    for what, locate, key, size in PERTURBATIONS[workload]:
        r, p = copy.deepcopy(results), copy.deepcopy(probes)
        try:
            target = locate(r, p)
        except LookupError:
            continue
        target[key] += size(target)
        if not CHECKS[workload](r, p, oracle):
            missed.append(what)
    return missed
