"""Span tracing of solvstate's public functions, from outside the package.

`Tracer.install()` wraps each function named in LAYER_STATS: one span per
call, or only a call counter for the COUNTED per-level helpers. It rebinds
every name in every loaded `solvstate` module namespace that refers to the
original object, plus the suite table `verify.SUITES`, because modules call
each other through their own imported names (`verify` holds its own
`displace_ground`, `states` calls `gk_norm_constant` through a module
global). `uninstall()` puts every original back. Spans stay in memory until `aggregate` or `dump` reads them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

_STATE_FUNCS = ("gk_state", "kp_state_pt", "kp_state_general", "gk_overlap",
                "kp_overlap_pt", "gk_norm_constant", "gk_norm_constant_pt_closed",
                "kp_norm_constant_pt", "evolve", "photon_statistics")
_BUILDERS = ("gk_state", "kp_state_pt", "kp_state_general")
_TIMED = ("calls", "busy_ms", "self_ms")

# "<module>.<function>" -> statistics reported for it. Every entry gets a span
# per call, except the COUNTED ones, which only count calls.
LAYER_STATS = {
    "fockspace.displace_ground": _TIMED + ("levels", "unconverged"),
    "fockspace.build_ladder": ("calls", "busy_ms", "dim"),
    "fockspace.apply": ("calls", "busy_ms"),
    **{f"states.{f}": _TIMED + (("levels", "unconverged") if f in _BUILDERS else ())
       for f in _STATE_FUNCS},
    "spectrum.energy": ("calls",),
    "spectrum.log_e0": ("calls",),
    "spectrum.log_ek": ("calls",),
    "specfun.log_gamma": ("calls",),
    "specfun.hyper_pfq": ("calls", "busy_ms", "terms", "unconverged"),
    "specfun.integrate": ("calls", "busy_ms", "evaluations", "unconverged"),
    "specfun.jacobi_poly": ("calls", "busy_ms"),
    **{f"measures.{f}": _TIMED for f in (
        "kp_moment_residuals", "mellin_gamma_check_pt",
        "gk_measure_selfconsistency", "nonnegativity_report")},
    **{f"poschl_teller.{f}": _TIMED for f in (
        "u_matrix_element", "eigenfunction", "partner_eigenfunction")},
    **{f"verify.suite_{s}": ("busy_ms",) for s in ("ladder", "gk", "kp", "measures", "pt")},
}

# per-level helpers called many thousands of times per operation: a call
# counter only, since a span each would swamp the timings around them.
# Spectrum methods are swapped on the class, which no subclass overrides.
COUNTED = {"spectrum.energy": "Spectrum", "spectrum.log_e0": "Spectrum",
           "spectrum.log_ek": "Spectrum", "specfun.log_gamma": None}


def _builder_counts(fn):
    """levels / unconverged of a builder that takes a `tail_eps` budget."""
    sig = inspect.signature(fn)
    pos = list(sig.parameters).index("tail_eps")
    default = sig.parameters["tail_eps"].default

    def extract(counts, name, state, args, kwargs):
        eps = kwargs.get("tail_eps", args[pos] if pos < len(args) else default)
        counts[f"{name}.levels"] += state.size
        counts[f"{name}.unconverged"] += int(state.tail_bound > eps)
    return extract


def _general(counts, name, result, args, kwargs):
    counts[f"{name}.levels"] += result.state.size
    counts[f"{name}.unconverged"] += int(not result.j_converged)


def _ladder(counts, name, result, args, kwargs):
    counts[f"{name}.dim"] += result.N + 1


def _pfq(counts, name, result, args, kwargs):
    counts[f"{name}.terms"] += result.terms_used
    counts[f"{name}.unconverged"] += int(not result.converged)


def _quad(counts, name, result, args, kwargs):
    counts[f"{name}.evaluations"] += result.evaluations
    counts[f"{name}.unconverged"] += int(not result.converged)


def _suite(counts, name, result, args, kwargs):
    counts["verify.checks"] += len(result.checks)
    counts["verify.checks_failed"] += len(result.failures)


def _extractor(name, fn):
    """Work counters read off the return value of the traced function `fn`."""
    if name in ("fockspace.displace_ground", "states.gk_state", "states.kp_state_pt"):
        return _builder_counts(fn)
    if name.startswith("verify.suite_"):
        return _suite
    return {"states.kp_state_general": _general, "fockspace.build_ladder": _ladder,
            "specfun.hyper_pfq": _pfq, "specfun.integrate": _quad}.get(name)


class Tracer:
    """Records spans (name, start, end, parent) for wrapped solvstate calls."""

    def __init__(self):
        self.names = []        # span index -> qualified name
        self.starts = []
        self.ends = []
        self.parents = []      # span index -> parent span index or -1
        self.counts = Counter()
        self._stack = []
        self._restore = []     # (container, key, original, is_dict)
        self.missing = []      # LAYER_STATS names the package no longer has

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, extract):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extract is not None:
                extract(counts, name, result, args, kwargs)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def reset(self):
        """Drop the recorded spans and counters."""
        for lst in (self.names, self.starts, self.ends, self.parents):
            lst.clear()
        self.counts.clear()

    # -- installing --------------------------------------------------------

    def install(self):
        self.missing = []
        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                if name.startswith("solvstate.")}
        swaps = {}  # id(original) -> (original, wrapper)
        for name in LAYER_STATS:
            layer, f = name.split(".")
            holder = mods.get(layer)
            if COUNTED.get(name):  # a method, swapped on its class
                holder = getattr(holder, COUNTED[name], None)
            orig = getattr(holder, f, None)
            if orig is None:
                self.missing.append(name)  # renamed or removed by the program
                continue
            if name not in COUNTED:
                wrapper = self._span(name, orig, _extractor(name, orig))
            elif isinstance(holder, type):
                self._swap(holder, f, self._counter(f"{name}.calls", orig))
                continue
            else:
                wrapper = self._counter(f"{name}.calls", orig)
            swaps[id(orig)] = (orig, wrapper)
        for mod in [sys.modules["solvstate"], *mods.values()]:
            for attr, value in list(vars(mod).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    self._swap(mod, attr, hit[1])
        suites = getattr(mods.get("verify"), "SUITES", {})
        for key, value in list(suites.items()):
            hit = swaps.get(id(value))
            if hit is not None and hit[0] is value:
                self._restore.append((suites, key, value, True))
                suites[key] = hit[1]

    def _swap(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, old, False))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, key, orig, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def aggregate(self):
        """Per-name calls, busy ns (outermost spans only) and self ns."""
        n = len(self.names)
        child_ns = [0] * n
        calls, busy, self_ns = Counter(), Counter(), Counter()
        for i in range(n):
            d = self.ends[i] - self.starts[i]
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += d
        for i in range(n):
            name = self.names[i]
            d = self.ends[i] - self.starts[i]
            calls[name] += 1
            self_ns[name] += d - child_ns[i]
            # a recursive call (kp_state_general re-enters itself) is
            # already covered by its outer span
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                busy[name] += d
        return calls, busy, self_ns

    def dump(self, path, meta):
        """Write the spans as compact rows [name, start_ns, end_ns, parent]."""
        table = sorted(set(self.names))
        ids = {nm: i for i, nm in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0
        rows = [[ids[self.names[i]], self.starts[i] - t0, self.ends[i] - t0,
                 self.parents[i]] for i in range(len(self.names))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": table, "counts": dict(self.counts),
                       "columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
