"""Spans around the public functions of each tripmaps layer.

The tracer wraps a function where every tripmaps module looks it up:
`tripmaps.hilbert.bessel_j1` and `tripmaps.specfun.bessel_j1` are the same
object, so both names are rebound to one wrapper.  Nothing is added to
src/.  Spans are kept in flat arrays while the workload runs and written
out once at the end; self time is a span's duration minus the durations
of its direct child spans (spans nest, since the program is single
threaded).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

from tripmaps.errors import NonConvergent, TruncationFailure

# module -> public functions whose spans give the per-layer metrics
TRACED = {
    "cli": ("main",),
    "specfun": ("bessel_j1", "integrate_dm", "integrate_halfline", "integrate_triangle"),
    "hilbert": ("theorem31_check", "kernel_apply", "transform_hat",
                "laguerre_expansion_partial"),
    "transfer": ("apply_transfer", "partial_transfer", "branch_point"),
    "spectral": ("eigen_residual", "summand_sum", "monotonicity_check"),
    "maps": ("extract_digit", "apply_branch_formula"),
    "gausskuzmin": ("cylinder_measure", "invariance_check", "empirical_digits"),
}

# failures counted where they first leave a layer: (layer, error, counter)
FAILURE_COUNTERS = (("specfun", NonConvergent, "specfun.nonconvergent"),
                    ("transfer", TruncationFailure, "transfer.truncation_failures"))

# apply_transfer starts direct summation at K = 32 = 2**5 and doubles K
_K0_BITS = 6


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.enabled = False

    def install(self) -> None:
        """Rebind each traced function in every loaded tripmaps module."""
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("tripmaps.") and m is not None]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"tripmaps.{layer}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", layer, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, layer: str, fn):
        nid = self.name_ids[name] = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(perf())
            self.end.append(0.0)
            self.stack.append(idx)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            except (NonConvergent, TruncationFailure) as exc:
                self._count_failure(layer, exc)
                raise
            finally:
                self.end[idx] = perf()
                self.stack.pop()

        return wrapper

    def _count_failure(self, layer: str, exc: Exception) -> None:
        if getattr(exc, "_tripbench_seen", False):
            return
        exc._tripbench_seen = True
        for where, kind, counter in FAILURE_COUNTERS:
            if layer == where and isinstance(exc, kind):
                self.counters[counter] += 1

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, per round of the workload."""
        nid = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=self_time, minlength=len(self.names))
        total_s = np.bincount(nid, weights=dur, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / rounds
            out[f"{name}.self_s"] = self_s[i] / rounds
        for counter in ("specfun.bessel_j1.args", "transfer.apply_transfer.k_doublings",
                        "gausskuzmin.empirical_digits.steps",
                        "gausskuzmin.empirical_digits.restarts",
                        "specfun.nonconvergent", "transfer.truncation_failures"):
            out[counter] = self.counters[counter] / rounds
        mc_s = total_s[self.name_ids["gausskuzmin.empirical_digits"]]
        out["gausskuzmin.empirical_digits.steps_per_s"] = (
            self.counters["gausskuzmin.empirical_digits.steps"] / mc_s if mc_s > 0 else 0.0)
        out["trace.spans"] = len(self.start) / rounds
        return out

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _bessel_args(tr: Tracer, fn, args, kwargs):
    tr.counters["specfun.bessel_j1.args"] += int(np.size(args[0] if args else kwargs["x"]))
    return fn(*args, **kwargs)


def _k_doublings(tr: Tracer, fn, args, kwargs):
    # apply_transfer(t, f, p, pol, stats) records its final cutoff in stats["K"]
    args = list(args)
    stats = kwargs.pop("stats", args.pop(4) if len(args) >= 5 else None)
    if stats is None:
        stats = {}
    result = fn(*args, stats=stats, **kwargs)
    tr.counters["transfer.apply_transfer.k_doublings"] += int(stats["K"]).bit_length() - _K0_BITS
    return result


def _mc_steps(tr: Tracer, fn, args, kwargs):
    stats = fn(*args, **kwargs)
    tr.counters["gausskuzmin.empirical_digits.steps"] += stats.n_steps
    tr.counters["gausskuzmin.empirical_digits.restarts"] += stats.restarts
    return stats


_HOOKS = {
    "specfun.bessel_j1": _bessel_args,
    "transfer.apply_transfer": _k_doublings,
    "gausskuzmin.empirical_digits": _mc_steps,
}
