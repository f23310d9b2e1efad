"""Experiment runner: every verification suite behind one executable.

Verbs: verify, verify-branches, eigen, gk, hilbert, sum-bounds, orbit,
list-triples.  `verify` runs the claims registry (tripmaps.claims), one
row per claim, and reads no setting but the output ones.  Configuration
precedence is flags > --config JSON file > built-in defaults.  Output is
CSV (fixed header, 17 significant digits) or JSON, written to --out or
stdout; row order follows the embedded table order so files diff
cleanly across runs.  Exit status is 0 iff every tolerance asserted by
the verb is met.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import claims, gausskuzmin, hilbert, maps, spectral
from .domain import (
    ERGODIC_TRIPLES,
    PermutationTriple,
    TrianglePoint,
    interior_points,
    parse_triple,
    supported_triples,
)
from .errors import AmbiguousDigit, BoundaryHit, TripMapError
from .tables.banach import BANACH
from .tables.eigen import DENSITIES, EIGENFUNCTIONS
from .tables.hilbert_rows import HILBERT

DEFAULTS = {
    "triple": "all",
    "kmax": 10,
    "n": 100,
    "seed": 0,
    "margin": 0.05,
    "tol": None,          # per-verb default filled in below
    "format": "csv",
    "out": None,
    "simulate": False,
    "phi": "eta0",
    "start": None,
}

# the types a --config value may take, per setting; null only where the
# default is null
_CONFIG_TYPES = {
    "triple": (str,), "kmax": (int,), "n": (int,), "seed": (int,), "margin": (int, float),
    "tol": (int, float), "format": (str,), "out": (str,), "simulate": (bool,),
    "phi": (str,), "start": (str,),
}

_CLAIM_TOL = {c.name: c.tol for c in claims.CLAIMS}

TOL_DEFAULTS = {
    "verify-branches": _CLAIM_TOL["branch_roundtrip"],
    "eigen": _CLAIM_TOL["eigenvalue_one"],
    "gk": _CLAIM_TOL["gauss_kuzmin_closed_forms"],
    "hilbert": _CLAIM_TOL["theorem31_identity"],
    "sum-bounds": 1e-9,
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    triple: str
    tol: float | None     # None for the verbs that read no tolerance
    seed: int
    n_steps: int
    kmax: int
    margin: float
    output_path: str | None
    format: str
    simulate: bool
    phi: str
    start: str | None

    def __post_init__(self) -> None:
        # written so that a nan tol fails too
        if self.tol is not None and not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("n must be at least 1")
        if self.kmax < 0:
            raise ValueError("kmax must be non-negative")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _json_default(v):
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return _fmt(v)


def _emit(cfg: RunConfig, header: list[str], rows: list[dict]) -> None:
    if cfg.format == "json":
        text = json.dumps(rows, indent=2, default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(row.get(h, "")) for h in header])
        text = buf.getvalue()
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _triples_arg(cfg: RunConfig, table=None) -> list[PermutationTriple]:
    if cfg.triple in ("all", "all-tabulated"):
        keys = supported_triples() if table is None else [
            k for k in supported_triples() if k in table]
        return [PermutationTriple(*k) for k in keys]
    return [parse_triple(cfg.triple)]


def cmd_verify(cfg: RunConfig) -> tuple[int, list[dict], list[str]]:
    rows, status = [], 0
    for claim in claims.CLAIMS:
        value = claim.run()
        ok = value < claim.tol
        status |= 0 if ok else 1
        rows.append({"claim": claim.name, "value": value, "tol": claim.tol, "pass": ok})
    return status, rows, ["claim", "value", "tol", "pass"]


def cmd_verify_branches(cfg: RunConfig) -> tuple[int, list[dict], list[str]]:
    pts = interior_points(cfg.seed, cfg.n_steps)
    rows, status = [], 0
    for t in _triples_arg(cfg):
        worst, digits_ok = maps.branch_roundtrip(t, cfg.kmax, pts)
        ok = worst < cfg.tol and digits_ok
        status |= 0 if ok else 1
        rows.append({"triple": str(t), "max_roundtrip_err": worst,
                     "digits_exact": digits_ok, "pass": ok})
    return status, rows, ["triple", "max_roundtrip_err", "digits_exact", "pass"]


def cmd_eigen(cfg: RunConfig) -> tuple[int, list[dict], list[str]]:
    tol = cfg.tol
    grid = spectral.GridSpec(margin=cfg.margin, density=10)
    rows, status = [], 0
    for t in _triples_arg(cfg, EIGENFUNCTIONS):
        rep = spectral.eigen_residual(t, grid, eps=tol / 10.0)
        ok = rep.max_rel_residual < tol
        status |= 0 if ok else 1
        rows.append({"triple": str(t), "max_rel_residual": rep.max_rel_residual,
                     "truncation_k": rep.truncation_k, "pass": ok})
    return status, rows, ["triple", "max_rel_residual", "truncation_k", "pass"]


def cmd_gk(cfg: RunConfig) -> tuple[int, list[dict], list[str]]:
    tol = cfg.tol
    rows, status = [], 0
    for t in _triples_arg(cfg, DENSITIES):
        closed = gausskuzmin.CLOSED_FORMS.get(t.key)
        stats = None
        if cfg.simulate:
            stats = gausskuzmin.empirical_digits(t, cfg.n_steps, cfg.seed)
        measures = gausskuzmin.cylinder_measures(t, range(cfg.kmax + 1)).tolist()
        for k, p in enumerate(measures):
            ok = 0.0 <= p <= 1.0
            row = {"triple": str(t), "k": k, "p_theoretical": p}
            if closed is not None:
                pc = closed(k)
                row["p_closed"] = pc
                ok = ok and abs(p - pc) < tol
            else:
                row["p_closed"] = ""
            if stats is not None:
                f = stats.frequency(k)
                # the digits of one walker are correlated: the batch-means
                # error can only widen the iid binomial one
                se = max(math.sqrt(max(p * (1 - p), 1e-300) / stats.n_steps),
                         stats.batch_stderr(k))
                row["p_empirical"] = f
                row["stderr"] = se
                if t.key in ERGODIC_TRIPLES:
                    ok = ok and abs(f - p) < 5 * se + 1e-3
            status |= 0 if ok else 1
            row["pass"] = ok
            rows.append(row)
    return status, rows, ["triple", "k", "p_theoretical", "p_closed",
                          "p_empirical", "stderr", "pass"]


def cmd_hilbert(cfg: RunConfig) -> tuple[int, list[dict], list[str]]:
    tol = cfg.tol
    k_eta = {"eta0": 0, "eta1": 1}.get(cfg.phi)
    if k_eta is None:
        raise ValueError(f"unknown profile {cfg.phi!r}; use eta0 or eta1")
    p = TrianglePoint(0.6, 0.3)
    phi = hilbert.eta_profile(k_eta)
    rows, status = [], 0
    for t in _triples_arg(cfg, HILBERT):
        lhs, rhs = hilbert.theorem31_check(t, phi, p)
        lag = hilbert.laguerre_expansion_partial(t, phi, p, 50)
        rel = abs(lhs - rhs) / abs(lhs)
        lag_rel = abs(lag - lhs) / abs(lhs)
        ok = rel < tol and lag_rel < _CLAIM_TOL["theorem31_laguerre"]
        status |= 0 if ok else 1
        rows.append({"triple": str(t), "phi": cfg.phi, "x": p.x, "y": p.y,
                     "lhs": lhs, "rhs": rhs, "rel_gap": rel,
                     "laguerre_K50": lag, "pass": ok})
    return status, rows, ["triple", "phi", "x", "y", "lhs", "rhs",
                          "rel_gap", "laguerre_K50", "pass"]


def cmd_sumbounds(cfg: RunConfig) -> tuple[int, list[dict], list[str]]:
    grid = spectral.GridSpec(margin=cfg.margin, density=5)
    rows, status = [], 0
    for t in _triples_arg(cfg, BANACH):
        max_sum = spectral.summand_bound(t, grid, eps=cfg.tol)
        # the grid maximum is inf exactly where some sum did not converge
        ok = math.isfinite(max_sum)
        status |= 0 if ok else 1
        rows.append({"triple": str(t), "max_sum": max_sum,
                     "all_converged": ok, "pass": ok})
    return status, rows, ["triple", "max_sum", "all_converged", "pass"]


def cmd_orbit(cfg: RunConfig) -> tuple[int, list[dict], list[str]]:
    t = parse_triple(cfg.triple) if cfg.triple not in ("all", "all-tabulated") \
        else PermutationTriple("e", "e", "e")
    if cfg.start:
        try:
            x, y = (float(v) for v in cfg.start.split(","))
        except ValueError:
            raise ValueError(f"--start takes x,y, not {cfg.start!r}") from None
        p = TrianglePoint(x, y)
    else:
        p = interior_points(cfg.seed, 1)[0]
    rows = [{"step": 0, "digit": "", "x": p.x, "y": p.y}]
    for i in range(cfg.n_steps):
        try:
            st = maps.step(t, p)
        except (BoundaryHit, AmbiguousDigit) as exc:
            # an orbit on the boundary or next to a vertex ends there; any
            # other error is a fault and reaches main
            print(f"orbit stopped at step {i + 1}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            break
        p = st.image
        rows.append({"step": i + 1, "digit": st.digit, "x": p.x, "y": p.y})
    return 0, rows, ["step", "digit", "x", "y"]


def cmd_list_triples(cfg: RunConfig) -> tuple[int, list[dict], list[str]]:
    rows = []
    for key in supported_triples():
        rows.append({
            "triple": ",".join(key),
            "banach": key in BANACH,
            "eigenfunction": key in EIGENFUNCTIONS,
            "hilbert": key in HILBERT,
            "density": key in DENSITIES,
            "ergodic": key in ERGODIC_TRIPLES,
        })
    return 0, rows, ["triple", "banach", "eigenfunction", "hilbert",
                     "density", "ergodic"]


COMMANDS = {
    "verify": cmd_verify,
    "verify-branches": cmd_verify_branches,
    "eigen": cmd_eigen,
    "gk": cmd_gk,
    "hilbert": cmd_hilbert,
    "sum-bounds": cmd_sumbounds,
    "orbit": cmd_orbit,
    "list-triples": cmd_list_triples,
}


# built on the first call, not at import, and reused: parse_args leaves
# the parser unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tripmaps",
        description="verification suites for triangle partition maps")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--triple", default=None)
    ap.add_argument("--kmax", type=int, default=None)
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--margin", type=float, default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--config", default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--format", choices=("csv", "json"), default=None)
    ap.add_argument("--simulate", action="store_true", default=None)
    ap.add_argument("--phi", default=None)
    ap.add_argument("--start", default=None)
    return ap


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object, "
                             f"not {type(file_cfg).__name__}")

    def pick(name):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        if name in file_cfg:
            value, kinds = file_cfg[name], _CONFIG_TYPES[name]
            # type(), not isinstance: JSON true is no integer
            if type(value) not in kinds and not (value is None and DEFAULTS[name] is None):
                raise ValueError(f"--config {args.config}: {name} must be "
                                 f"{' or '.join(k.__name__ for k in kinds)}, "
                                 f"not {type(value).__name__}")
            return value
        return DEFAULTS[name]

    tol = pick("tol")
    if tol is None:
        tol = TOL_DEFAULTS.get(args.command)
    return RunConfig(
        command=args.command,
        triple=pick("triple"),
        tol=None if tol is None else float(tol),
        seed=pick("seed"),
        n_steps=pick("n"),
        kmax=pick("kmax"),
        margin=float(pick("margin")),
        output_path=pick("out"),
        format=pick("format"),
        simulate=pick("simulate"),
        phi=pick("phi"),
        start=pick("start"),
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        status, rows, header = COMMANDS[cfg.command](cfg)
    except (TripMapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(cfg, header, rows)
    return status


if __name__ == "__main__":
    sys.exit(main())
