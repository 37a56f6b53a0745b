"""Spans and counters recorded from outside the program.

A Tracer replaces each traced public function, in every quadpoint
module namespace that binds it, by a wrapper that records one span:
name, start, end, parent span and operation id.  Spans stay in flat
arrays until the run ends.  Counters are kept at the same boundaries,
so every count and ratio is measured where the work happens and no
code inside the program is touched.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter

MODULES = ("exact", "schubert", "formulas", "congruence", "catalog", "cli")

# Public names that get a span; metrics are <module>.<name>.calls/self_s.
SPANNED = (
    "exact.ring_determinant",
    "exact.pfaffian",
    "exact.binary_gcd",
    "exact.determinant",
    "exact.rank_and_kernel",
    "exact.primitive_vector",
    "congruence.line_through_point",
    "congruence.focal_points_on_line",
    "congruence.pfaffian_polynomial",
    "congruence.determinant_vanishes_identically",
    "congruence.random_linear_congruence",
    "congruence.random_determinantal_congruence",
    "congruence.save_congruence",
    "congruence.load_congruence",
    "formulas.quadruple_points",
    "formulas.foursecant_constraint_residual",
    "formulas.foursecant_scroll_degree",
    "formulas.curve_foursecants",
    "formulas.apparent_triple_points",
    "catalog.scan_exclusion",
    "catalog.parse_catalog",
    "catalog.classify_threefolds",
    "catalog.classify_surfaces",
    "schubert.sigma1_power_iterative",
    "schubert.plucker_degree",
    "schubert.linear_congruence_multidegree",
    "cli.main",
)

# Counted but not spanned: the genericity probe inside construction.
COUNTED = (
    "congruence.line_through_point_linear",
    "congruence.line_through_point_determinantal",
)

CONSTRUCTORS = (
    "congruence.random_linear_congruence",
    "congruence.random_determinantal_congruence",
)
SCAN = "catalog.scan_exclusion"
SCAN_FORMULAS = ("formulas.quadruple_points", "formulas.foursecant_constraint_residual")

COUNT_METRICS = (
    ("exact.rank_and_kernel.kernel_bits_max", "bits"),
    ("congruence.probe.focal_ratio", "1"),
    ("congruence.construct.attempts", "count"),
    ("congruence.construct.accept_ratio", "1"),
    ("catalog.scan_exclusion.cells", "count"),
    ("catalog.scan_exclusion.formula_calls_per_cell", "1"),
)
TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.bench_overhead_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list:
    """Every (name, unit) a traced run reports, in a fixed order."""
    out = []
    for name in SPANNED:
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
    return out + list(COUNT_METRICS) + list(TRACE_METRICS)


def _bits(vectors) -> int:
    return max((abs(x).bit_length() for v in vectors for x in v), default=0)


class Tracer:
    """Owns the span arrays, the counters and the installed wrappers."""

    def __init__(self):
        self.names = list(SPANNED)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.open = dict.fromkeys(SPANNED, 0)
        self.counts = dict.fromkeys(
            ("kernel_bits_max", "probes", "focal_skips", "attempts", "accepted",
             "cells", "scan_formula_calls"),
            0,
        )
        self._patched = []

    # ----- wrappers -----

    def _spanned(self, qualname, fn):
        nid = self.names.index(qualname)
        after = {
            "exact.rank_and_kernel": self._after_rank_and_kernel,
            "catalog.scan_exclusion": self._after_scan,
            "congruence.random_linear_congruence": self._after_construct,
            "congruence.random_determinantal_congruence": self._after_construct,
        }.get(qualname)
        probe = qualname == "congruence.line_through_point"
        in_scan = qualname in SCAN_FORMULAS
        open_ = self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(idx)
            open_[qualname] += 1
            if in_scan and open_[SCAN]:
                self.counts["scan_formula_calls"] += 1
            if probe:
                self.counts["probes"] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if probe and type(err).__name__ == "FocalPointError":
                    self.counts["focal_skips"] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                open_[qualname] -= 1
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _counted(self, fn):
        open_ = self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(open_[c] for c in CONSTRUCTORS):
                self.counts["attempts"] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _after_rank_and_kernel(self, args, result):
        bits = _bits(result[1])
        if bits > self.counts["kernel_bits_max"]:
            self.counts["kernel_bits_max"] = bits

    def _after_scan(self, args, result):
        d, (pi_lo, pi_hi), (chi_lo, chi_hi) = args
        self.counts["cells"] += (pi_hi - max(pi_lo, 0) + 1) * (chi_hi - chi_lo + 1)

    def _after_construct(self, args, result):
        self.counts["accepted"] += 1

    # ----- install / uninstall -----

    def install(self, qp) -> None:
        """Wrap every traced name in every quadpoint module binding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for qualname in SPANNED + COUNTED:
            home, name = qualname.split(".")
            original = getattr(getattr(qp, home), name)
            if qualname in SPANNED:
                wrapper = self._spanned(qualname, original)
            else:
                wrapper = self._counted(original)
            for modname in MODULES:
                module = getattr(qp, modname)
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched = []

    # ----- results -----

    def self_times(self) -> tuple:
        """(calls per name, self seconds per name): a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        calls, self_s = self.self_times()
        c = self.counts
        out = {}
        for name, k, s in zip(self.names, calls, self_s):
            out[name + ".calls"] = k
            out[name + ".self_s"] = s
        out["exact.rank_and_kernel.kernel_bits_max"] = c["kernel_bits_max"]
        out["congruence.probe.focal_ratio"] = c["focal_skips"] / c["probes"] if c["probes"] else 0.0
        out["congruence.construct.attempts"] = c["attempts"]
        out["congruence.construct.accept_ratio"] = c["accepted"] / c["attempts"] if c["attempts"] else 0.0
        out["catalog.scan_exclusion.cells"] = c["cells"]
        out["catalog.scan_exclusion.formula_calls_per_cell"] = (
            c["scan_formula_calls"] / c["cells"] if c["cells"] else 0.0
        )
        out["trace.wall_s"] = traced_wall
        out["trace.bench_overhead_s"] = traced_wall - sum(self_s)
        out["trace.overhead_s"] = traced_wall - untraced_wall
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart\tend\tparent\top\n")
            for i, nid in enumerate(self.name_id):
                out.write(
                    "%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                    % (i, self.names[nid], self.start[i], self.end[i],
                       self.parent[i], self.op[i])
                )
