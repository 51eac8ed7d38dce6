"""Span recorders installed around fatpoints' public functions.

`Tracer.install()` replaces each traced function by a wrapper, both in the
module that defines it and in every fatpoints module (or package namespace)
that imported it by name, so `fatpoints.positivity.linear_system_dimension`
is traced as well as `fatpoints.oracle.linear_system_dimension`.  Nothing
under `src/` changes; `uninstall()` puts the originals back.

A span records (name, start, end, parent span index, query id) and stays
in memory.  Hot leaf functions (`pair`, `quadratic_integer_range`) are
aggregated into per-query counters instead of spans, but their time is
still charged to the enclosing span as child time, so self times add up.
Recording happens only while a query is active; calls made by the
benchmark's own generators and checkers pass through untouched.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, kind).  "span" records a span; "leaf" only counts
# calls and time.  Methods are given as "Class.method".
TRACED = [
    ("fatpoints.oracle", "linear_system_dimension", "span"),
    ("fatpoints.oracle", "h0_at_config", "span"),
    ("fatpoints.oracle", "rank_mod_p", "span"),
    ("fatpoints.oracle", "sample_general", "span"),
    ("fatpoints.oracle", "sample_cubic_torsion", "span"),
    ("fatpoints.oracle", "sample_nodal_quartic", "span"),
    ("fatpoints.elliptic", "CubicCurve.point_count", "span"),
    ("fatpoints.positivity", "classify_asymptotic", "span"),
    ("fatpoints.positivity", "orthogonal_genus_upper", "span"),
    ("fatpoints.positivity", "orthogonal_genus_candidates", "span"),
    ("fatpoints.positivity", "orthogonal_gram", "span"),
    ("fatpoints.positivity", "effectivity_verdict", "span"),
    ("fatpoints.positivity", "screen_nef_surface", "span"),
    ("fatpoints.linalg", "ldl_decompose", "span"),
    ("fatpoints.linalg", "solve_linear", "span"),
    ("fatpoints.linalg", "integer_kernel_of_row", "span"),
    ("fatpoints.linalg", "quadratic_integer_range", "leaf"),
    ("fatpoints.weyl", "reduce_class", "span"),
    ("fatpoints.weyl", "minus_one_orbit_representatives", "span"),
    ("fatpoints.weyl", "minus_one_orbit", "span"),
    ("fatpoints.weyl", "cached_minus_one_orbit", "span"),
    ("fatpoints.weyl", "read_orbit_cache", "span"),
    ("fatpoints.weyl", "write_orbit_cache", "span"),
    ("fatpoints.lattice", "pair", "leaf"),
    ("fatpoints.cli", "main", "span"),
]


class Tracer:
    """In-memory span recorder for one workload process."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent, qid, child_s]
        self.stack: list[int] = []
        self.qid: int | None = None
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.facts: dict[str, float] = defaultdict(float)
        self.h0_of: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, kind in TRACED:
            module = sys.modules[module_name]
            owner, name = module, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name)
            original = getattr(owner, name)
            label = f"{module_name.split('.')[-1]}.{attr.split('.')[-1]}"
            wrapper = (self._leaf(label, original) if kind == "leaf"
                       else self._span(label, original))
            targets = [owner]
            if owner is module:
                targets = [m for n, m in sorted(sys.modules.items())
                           if (n == "fatpoints" or n.startswith("fatpoints."))
                           and getattr(m, name, None) is original]
            for target in targets:
                self._patched.append((target, name, original))
                setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    def _span(self, label, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.qid is None:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [label, clock(), 0.0, parent, self.qid, 0.0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
                if parent >= 0:
                    spans[parent][5] += record[2] - record[1]
            self._observe(label, index, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, label, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        calls, seconds = self.leaf_calls, self.leaf_s

        def wrapper(*args, **kwargs):
            if self.qid is None:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            calls[label] += 1
            seconds[label] += elapsed
            if stack:
                spans[stack[-1]][5] += elapsed
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts taken from arguments and results at the boundaries ----------

    def _observe(self, label, index, args, result) -> None:
        facts = self.facts
        if label == "oracle.rank_mod_p":
            rows, cols = args[0].shape
            facts["rank_cells"] += rows * cols
        elif label == "oracle.h0_at_config":
            self.h0_of[index] = result[0]
        elif label == "oracle.linear_system_dimension" and result.source == "min-over-seeds":
            # Seeds evaluated after the first one that reached the reported h0.
            h0s = [self.h0_of[i] for i in self._children(index, "oracle.h0_at_config")]
            if h0s:
                facts["wasted_seed_evals"] += len(h0s) - h0s.index(result.h0) - 1
        elif label == "positivity.orthogonal_genus_candidates":
            facts["candidates"] += len(result)
        elif label == "positivity.effectivity_verdict":
            facts["verdicts"] += 1
            if "interpolation oracle" in result.route:
                facts["oracle_verdicts"] += 1
        elif label == "weyl.reduce_class":
            facts["reflections"] += len(result.trace)
        elif label == "weyl.minus_one_orbit_representatives":
            facts["orbit_reps"] += len(result)
        elif label == "weyl.minus_one_orbit":
            facts["orbit_members"] += len(result)
        elif label == "weyl.cached_minus_one_orbit":
            facts["cache_lookups"] += 1
            if not self._children(index, "weyl.write_orbit_cache"):
                facts["cache_hits"] += 1
        elif label == "weyl.write_orbit_cache":
            facts["cache_bytes"] += _size(args[0])
        elif label == "weyl.read_orbit_cache":
            facts["cache_bytes"] += _size(args[0])

    def _children(self, index: int, label: str) -> list[int]:
        return [i for i in range(index + 1, len(self.spans))
                if self.spans[i][3] == index and self.spans[i][0] == label]

    # -- output -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[0]] += rec[2] - rec[1] - rec[5]
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[0]] += rec[2] - rec[1]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[rec[0]] += 1
        out.update(self.leaf_calls)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, query id."""
        with open(path, "w") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec[:5]) + "\n")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def layer_metrics(tracer: Tracer, queries: int, extra: dict) -> dict[str, float]:
    """Per-layer metrics, normalised per traced query where they are sums."""
    selfs, totals, calls, facts = (tracer.self_times(), tracer.totals(),
                                   tracer.calls(), tracer.facts)
    q = max(queries, 1)
    seeds_evals = calls["oracle.h0_at_config"]
    nodes = calls["linalg.quadratic_integer_range"]
    reps = facts["orbit_reps"]
    lookups = facts["cache_lookups"]
    verdicts = facts["verdicts"]
    sampler_self = sum(selfs[k] for k in ("oracle.sample_general",
                                          "oracle.sample_cubic_torsion",
                                          "oracle.sample_nodal_quartic"))
    out = {
        "oracle.rank_s": totals["oracle.rank_mod_p"] / q,
        "oracle.rank_calls": calls["oracle.rank_mod_p"] / q,
        "oracle.rank_cells": facts["rank_cells"] / q,
        "oracle.build_s": selfs["oracle.h0_at_config"] / q,
        "oracle.sample_s": sampler_self / q,
        "oracle.seed_evals": seeds_evals / q,
        "oracle.wasted_seed_evals": facts["wasted_seed_evals"] / q,
        "elliptic.point_count_s": totals["elliptic.point_count"] / q,
        "positivity.candidates_s": selfs["positivity.orthogonal_genus_candidates"] / q,
        "positivity.candidates": facts["candidates"] / q,
        "positivity.gram_s": totals["positivity.orthogonal_gram"] / q,
        "positivity.gram_calls": calls["positivity.orthogonal_gram"] / q,
        "positivity.effectivity_s": totals["positivity.effectivity_verdict"] / q,
        "positivity.effectivity_calls": verdicts / q,
        "positivity.effectivity_oracle_ratio": (facts["oracle_verdicts"] / verdicts
                                                if verdicts else 0.0),
        "positivity.screen_s": totals["positivity.screen_nef_surface"] / q,
        "linalg.fp_nodes": nodes / q,
        "linalg.fp_yield": facts["candidates"] / nodes if nodes else 0.0,
        "linalg.ldl_s": totals["linalg.ldl_decompose"] / q,
        "linalg.solve_s": totals["linalg.solve_linear"] / q,
        "linalg.kernel_s": totals["linalg.integer_kernel_of_row"] / q,
        "weyl.reduce_s": totals["weyl.reduce_class"] / q,
        "weyl.reduce_calls": calls["weyl.reduce_class"] / q,
        "weyl.reflections": facts["reflections"] / q,
        "weyl.orbit_reps_s": totals["weyl.minus_one_orbit_representatives"] / q,
        "weyl.orbit_reps": reps / q,
        "weyl.orbit_expand_s": selfs["weyl.minus_one_orbit"] / q,
        "weyl.orbit_members": facts["orbit_members"] / q,
        "weyl.members_per_rep": facts["orbit_members"] / reps if reps else 0.0,
        "weyl.cache_read_s": totals["weyl.read_orbit_cache"] / q,
        "weyl.cache_write_s": totals["weyl.write_orbit_cache"] / q,
        "weyl.cache_bytes": facts["cache_bytes"] / q,
        "weyl.cache_hit_ratio": facts["cache_hits"] / lookups if lookups else 0.0,
        "lattice.pair_calls": calls["lattice.pair"] / q,
        "lattice.pair_s": tracer.leaf_s["lattice.pair"] / q,
        "cli.main_self_s": selfs["cli.main"] / q,
    }
    out.update(extra)
    return out
