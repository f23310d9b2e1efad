"""Experiment runner: every verification suite behind one executable.

Verbs: verify, verify-branches, eigen, gk, hilbert, sum-bounds, orbit,
list-triples.  `verify` runs the claims registry (tripmaps.claims), one
row per claim, and reads no setting but the output ones.  Each setting
is declared once, in SETTINGS; _resolve reads it with the precedence
flags > --config JSON file > built-in defaults, checks flag and file
values alike, and hands the verbs one argparse.Namespace.  A --config
key that names no setting is an error.  Output is CSV (fixed header, 17
significant digits) or JSON, written to --out or stdout; row order
follows the embedded table order so files diff cleanly across runs.
Exit status is 1 if a row's pass column is false, 2 on an error (a
MemoryError included) and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

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

# every setting, in --help order: the types a --config value may take
# (null only where the default is null), the default, and the add_argument
# keywords of its flag
SETTINGS = {
    "triple": ((str,), "all", {}),
    "kmax": ((int,), 10, {"type": int}),
    "n": ((int,), 100, {"type": int}),
    "seed": ((int,), 0, {"type": int}),
    "margin": ((int, float), 0.05, {"type": float}),
    "tol": ((int, float), None, {"type": float}),   # per-verb default: TOL_DEFAULTS
    "out": ((str,), None, {}),
    "format": ((str,), "csv", {"choices": ("csv", "json")}),
    "simulate": ((bool,), False, {"action": "store_true"}),
    "phi": ((str,), "eta0", {}),
    "start": ((str,), None, {}),
}

_CLAIM_TOL = {c.name: c.tol for c in claims.CLAIMS}

TOL_DEFAULTS = {
    "verify-branches": _CLAIM_TOL["branch_roundtrip"],
    "eigen": _CLAIM_TOL["eigenvalue_one"],
    "gk": _CLAIM_TOL["gauss_kuzmin_closed_forms"],
    "hilbert": _CLAIM_TOL["theorem31_identity"],
    "sum-bounds": 1e-9,
}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(cfg: argparse.Namespace, header: list[str], rows: list[dict]) -> None:
    if cfg.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(row.get(h, "")) for h in header])
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _triples_arg(cfg: argparse.Namespace, table=None) -> list[PermutationTriple]:
    if cfg.triple == "all":
        keys = supported_triples() if table is None else [
            k for k in supported_triples() if k in table]
        return [PermutationTriple(*k) for k in keys]
    return [parse_triple(cfg.triple)]


def cmd_verify(cfg: argparse.Namespace) -> tuple[list[dict], list[str]]:
    rows = []
    for claim in claims.CLAIMS:
        value = claim.run()
        rows.append({"claim": claim.name, "value": value, "tol": claim.tol,
                     "pass": value < claim.tol})
    return rows, ["claim", "value", "tol", "pass"]


def cmd_verify_branches(cfg: argparse.Namespace) -> tuple[list[dict], list[str]]:
    pts = interior_points(cfg.seed, cfg.n)
    rows = []
    for t in _triples_arg(cfg):
        worst, digits_ok = maps.branch_roundtrip(t, cfg.kmax, pts)
        rows.append({"triple": str(t), "max_roundtrip_err": worst,
                     "digits_exact": digits_ok, "pass": worst < cfg.tol and digits_ok})
    return rows, ["triple", "max_roundtrip_err", "digits_exact", "pass"]


def cmd_eigen(cfg: argparse.Namespace) -> tuple[list[dict], list[str]]:
    tol = cfg.tol
    grid = spectral.GridSpec(margin=cfg.margin, density=10)
    rows = []
    for t in _triples_arg(cfg, EIGENFUNCTIONS):
        rep = spectral.eigen_residual(t, grid, eps=tol / 10.0)
        rows.append({"triple": str(t), "max_rel_residual": rep.max_rel_residual,
                     "truncation_k": rep.truncation_k,
                     "pass": rep.max_rel_residual < tol})
    return rows, ["triple", "max_rel_residual", "truncation_k", "pass"]


def cmd_gk(cfg: argparse.Namespace) -> tuple[list[dict], list[str]]:
    tol = cfg.tol
    rows = []
    for t in _triples_arg(cfg, DENSITIES):
        closed = gausskuzmin.CLOSED_FORMS.get(t.key)
        stats = None
        if cfg.simulate:
            stats = gausskuzmin.empirical_digits(t, cfg.n, cfg.seed)
        measures = gausskuzmin.cylinder_measures(t, range(cfg.kmax + 1)).tolist()
        for k, p in enumerate(measures):
            ok = 0.0 <= p <= 1.0
            row = {"triple": str(t), "k": k, "p_theoretical": p}
            if closed is not None:
                # on e,e,e the law is p_closed_eee itself, so this gate
                # cannot fail there; on e,23,e it checks the law against
                # the printed two-piece form.  The independent route is
                # the pullback cubature of the claims registry
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
            row["pass"] = ok
            rows.append(row)
    return rows, ["triple", "k", "p_theoretical", "p_closed",
                  "p_empirical", "stderr", "pass"]


def cmd_hilbert(cfg: argparse.Namespace) -> tuple[list[dict], list[str]]:
    tol = cfg.tol
    k_eta = {"eta0": 0, "eta1": 1}.get(cfg.phi)
    if k_eta is None:
        raise ValueError(f"unknown profile {cfg.phi!r}; use eta0 or eta1")
    p = TrianglePoint(0.6, 0.3)
    phi = hilbert.eta_profile(k_eta)
    rows = []
    for t in _triples_arg(cfg, HILBERT):
        lhs, rhs = hilbert.theorem31_check(t, phi, p)
        lag = hilbert.laguerre_expansion_partial(t, phi, p, 50)
        rel = abs(lhs - rhs) / abs(lhs)
        lag_rel = abs(lag - lhs) / abs(lhs)
        ok = rel < tol and lag_rel < _CLAIM_TOL["theorem31_laguerre"]
        rows.append({"triple": str(t), "phi": cfg.phi, "x": p.x, "y": p.y,
                     "lhs": lhs, "rhs": rhs, "rel_gap": rel,
                     "laguerre_K50": lag, "pass": ok})
    return rows, ["triple", "phi", "x", "y", "lhs", "rhs",
                  "rel_gap", "laguerre_K50", "pass"]


def cmd_sumbounds(cfg: argparse.Namespace) -> tuple[list[dict], list[str]]:
    grid = spectral.GridSpec(margin=cfg.margin, density=5)
    rows = []
    for t in _triples_arg(cfg, BANACH):
        max_sum = spectral.summand_bound(t, grid, eps=cfg.tol)
        # the grid maximum is inf exactly where some sum did not converge
        ok = math.isfinite(max_sum)
        rows.append({"triple": str(t), "max_sum": max_sum,
                     "all_converged": ok, "pass": ok})
    return rows, ["triple", "max_sum", "all_converged", "pass"]


def cmd_orbit(cfg: argparse.Namespace) -> tuple[list[dict], list[str]]:
    # --triple all starts the list at e,e,e
    t = _triples_arg(cfg)[0]
    if cfg.start:
        try:
            x, y = (float(v) for v in cfg.start.split(","))
        except ValueError:
            raise ValueError(f"--start takes x,y, not {cfg.start!r}") from None
        p = TrianglePoint(x, y)
    else:
        p = interior_points(cfg.seed, 1)[0]
    rows = [{"step": 0, "digit": "", "x": p.x, "y": p.y}]
    for i in range(cfg.n):
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
    return rows, ["step", "digit", "x", "y"]


def cmd_list_triples(cfg: argparse.Namespace) -> tuple[list[dict], list[str]]:
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
    return rows, ["triple", "banach", "eigenfunction", "hilbert",
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
    for name, (_, _, flag) in SETTINGS.items():
        ap.add_argument(f"--{name}", default=None, **flag)
        if name == "tol":
            ap.add_argument("--config", default=None)
    return ap


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object, "
                             f"not {type(file_cfg).__name__}")
        unknown = next((k for k in file_cfg if k not in SETTINGS), None)
        if unknown is not None:
            raise ValueError(f"--config {args.config}: unknown setting {unknown!r}")

    values = {}
    for name, (kinds, default, _) in SETTINGS.items():
        value = getattr(args, name)
        if value is None and name in file_cfg:
            value = file_cfg[name]
            # type(), not isinstance: JSON true is no integer
            if type(value) not in kinds and not (value is None and default is None):
                raise ValueError(f"--config {args.config}: {name} must be "
                                 f"{' or '.join(k.__name__ for k in kinds)}, "
                                 f"not {type(value).__name__}")
        if value is None:
            value = default
        elif float in kinds:
            value = float(value)    # a JSON 1 is 1.0
        values[name] = value
    cfg = argparse.Namespace(command=args.command, **values)
    if cfg.tol is None:
        cfg.tol = TOL_DEFAULTS.get(cfg.command)
    # written so that a nan tol fails too; None where a verb reads no tol
    if cfg.tol is not None and not 0.0 < cfg.tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if cfg.n < 1:
        raise ValueError("n must be at least 1")
    # as maps.digits: numpy takes no digit beyond int64
    if not 0 <= cfg.kmax < 2 ** 63:
        raise ValueError("kmax must be non-negative and below 2**63")
    if cfg.seed < 0:
        raise ValueError("seed must be non-negative")
    if cfg.format not in SETTINGS["format"][2]["choices"]:
        raise ValueError(f"unknown format {cfg.format!r}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        rows, header = COMMANDS[cfg.command](cfg)
        _emit(cfg, header, rows)
    except (TripMapError, ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError() has no message: its type names the cause
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    # 1 iff a printed row fails: a verb without a pass column exits 0
    return 0 if all(row.get("pass", True) for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
