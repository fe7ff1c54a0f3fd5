"""Counters and spans recorded around calls into dmlab's modules.

``install`` replaces module attributes that dmlab's modules call through
(for example ``dmlab.enumerator.canonical_certificate``, which
``enumerate_regular`` calls) with wrappers.  No file of dmlab changes.

A recorder has three modes.  OFF calls straight through; COUNT counts calls
and the work counters read from arguments and results; TRACE also records a
span (id, name, start, end, parent id, job id) per call.  End-to-end numbers
come from COUNT passes, per-layer times from a TRACE pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

OFF, COUNT, TRACE = "off", "count", "trace"

JOB_SPAN = "bench.job"


def _find_outcome(counts, args, kwargs, out):
    """Name a search span by what the call did, and add up its counters."""
    search = importlib.import_module("dmlab.search")
    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    if getattr(opts, "mode", None) == search.COUNT_ALL:
        kind = "count"
    else:
        kind = "find" if out.verdict == search.FOUND else "refute"
    stats = getattr(out, "stats", None) or {}
    counts[f"search.{kind}.nodes"] += stats.get("nodes", 0)
    for key in ("prune_interval", "prune_forced", "prune_zero_sum"):
        counts[f"search.{key}"] += stats.get(key, 0)
    return f"search.{kind}"


def _kernel_dim(counts, args, kwargs, basis):
    counts["spectral.kernel_dim_sum"] += basis.dimension


def _ruled_out(counts, args, kwargs, verdict):
    counts["spectral.ruled_out"] += not verdict.candidate


def _graphs_out(counts, args, kwargs, graphs):
    counts["enumerator.graphs_out"] += len(graphs)


def _blocks(counts, args, kwargs, g):
    counts["qw.blocks"] += g.n // 2


# Which layer owns each wrapped attribute: the span name's first part.  Several
# attributes bound to one function (``from .qw import build_qw`` in search.py)
# share a span name.  A missing attribute is skipped, and its metrics read 0.
WRAPPED = (
    # (module, attribute, span name, observer)
    ("dmlab.enumerator", "canonical_certificate", "graph.canonical_certificate", None),
    ("dmlab.graph", "parse_graph6", "graph.parse_graph6", None),
    ("dmlab.enumerator", "census_pipeline", "enumerator.census_pipeline", None),
    ("dmlab.enumerator", "enumerate_regular", "enumerator.enumerate_regular", _graphs_out),
    ("dmlab.spectral", "corollary_filter", "spectral.corollary_filter", _ruled_out),
    ("dmlab.spectral", "nullspace_basis", "spectral.nullspace_basis", _kernel_dim),
    ("dmlab.spectral", "pinned_equal_pair", "spectral.pinned_equal_pair", None),
    ("dmlab.search", "find_labeling", "search.find_labeling", _find_outcome),
    ("dmlab.qw", "build_qw", "qw.build_qw", _blocks),
    ("dmlab.search", "build_qw", "qw.build_qw", _blocks),
    ("dmlab.qw", "profile_to_sequence", "qw.profile_to_sequence", None),
    ("dmlab.search", "profile_to_sequence", "qw.profile_to_sequence", None),
    ("dmlab.qw", "classify", "qw.classify", None),
    ("dmlab.constructive", "classify", "qw.classify", None),
    ("dmlab.constructive", "construct_labeling", "constructive.construct_labeling", None),
    ("dmlab.constructive", "construct_tilde_labeling",
     "constructive.construct_tilde_labeling", None),
    ("dmlab.labeling", "verify", "labeling.verify", None),
    ("dmlab.search", "verify", "labeling.verify", None),
    ("dmlab.kfk", "verify", "labeling.verify", None),
    ("dmlab.labeling", "block_labels", "labeling.block_labels", None),
    ("dmlab.labeling", "check_block_recurrence", "labeling.check_block_recurrence", None),
    ("dmlab.labeling", "labeling_to_json", "labeling.json_roundtrip", None),
    ("dmlab.labeling", "labeling_from_json", "labeling.json_roundtrip", None),
    ("dmlab.kfk", "expand_default", "kfk.expand_default", None),
)


class Recorder:
    """Calls, work counters and spans of one pass; ``reset`` starts the next."""

    def __init__(self):
        self.mode = OFF
        self.job = None
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self._stack = []
        self._next_id = 0

    def call(self, name, observe, fn, args, kwargs):
        if self.mode == OFF:
            return fn(*args, **kwargs)
        if self.mode == COUNT:
            result = fn(*args, **kwargs)
            self._note(name, observe, args, kwargs, result)
            return result
        sid = self._open()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, name, start, perf_counter())
            raise
        end = perf_counter()
        self._close(sid, self._note(name, observe, args, kwargs, result), start, end)
        return result

    def _note(self, name, observe, args, kwargs, result):
        if observe is not None:
            name = observe(self.counts, args, kwargs, result) or name
        self.calls[name] += 1
        return name

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, start, end):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, start, end, parent, self.job))

    def job_span(self, job_id, fn, *args):
        """Run one job; in TRACE mode as a root span the layer spans nest in."""
        self.job = job_id
        try:
            if self.mode != TRACE:
                return fn(*args)
            return self.call(JOB_SPAN, None, fn, args, {})
        finally:
            self.job = None

    def self_times(self) -> Counter:
        """Span time minus the time its child spans cover, summed per name."""
        covered = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = Counter()
        for sid, name, start, end, _, _ in self.spans:
            out[name] += end - start - covered[sid]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, job]) + "\n")


def _wrapper(rec, name, observe, fn):
    if inspect.isgeneratorfunction(fn):
        # enumerate_regular does all its work before its first yield; taking
        # the list inside the span keeps spans nested while the caller
        # consumes the graphs.
        def materialised(*args, **kwargs):
            return list(fn(*args, **kwargs))

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            yield from rec.call(name, observe, materialised, args, kwargs)

        return generator

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, observe, fn, args, kwargs)

    return wrapper


def install(rec: Recorder) -> list:
    """Wrap every attribute of WRAPPED; returns the ones that do not exist."""
    missing = []
    for module_name, attr, name, observe in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrapper(rec, name, observe, fn))
    return missing


# ---------------------------------------------------------------------------
# Per-layer metrics of a TRACE pass
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("graph.canonical_certificate.calls", "count"),
    ("graph.canonical_certificate.self_s", "s"),
    ("graph.canonical_certificate.us_per_call", "us"),
    ("graph.parse_graph6.calls", "count"),
    ("graph.parse_graph6.self_s", "s"),
    ("enumerator.census_pipeline.self_s", "s"),
    ("enumerator.enumerate_regular.self_s", "s"),
    ("enumerator.graphs_out", "count"),
    ("enumerator.useful_ratio", "ratio"),
    ("spectral.corollary_filter.calls", "count"),
    ("spectral.corollary_filter.self_s", "s"),
    ("spectral.nullspace_basis.self_s", "s"),
    ("spectral.pinned_equal_pair.self_s", "s"),
    ("spectral.kernel_dim_sum", "count"),
    ("spectral.ruled_out", "count"),
    ("search.refute.nodes", "count"),
    ("search.refute.self_s", "s"),
    ("search.refute.us_per_node", "us"),
    ("search.find.nodes", "count"),
    ("search.find.self_s", "s"),
    ("search.find.us_per_node", "us"),
    ("search.count.nodes", "count"),
    ("search.count.self_s", "s"),
    ("search.count.us_per_node", "us"),
    ("search.prune_interval", "count"),
    ("search.prune_forced", "count"),
    ("search.prune_zero_sum", "count"),
    ("qw.build_qw.self_s", "s"),
    ("qw.blocks", "count"),
    ("qw.classify.self_s", "s"),
    ("qw.profile_to_sequence.self_s", "s"),
    ("constructive.construct_labeling.self_s", "s"),
    ("constructive.construct_tilde_labeling.self_s", "s"),
    ("labeling.verify.self_s", "s"),
    ("labeling.block_labels.self_s", "s"),
    ("labeling.check_block_recurrence.self_s", "s"),
    ("labeling.json_roundtrip.self_s", "s"),
    ("kfk.expand_default.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
)


def _per(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(rec: Recorder, traced_wall: float, untraced_wall: float) -> dict:
    """Every PER_LAYER value of the TRACE pass ``rec`` holds.

    A layer that was not called reads 0; ``useful_ratio`` (graph classes out
    per certificate call) and the per-call and per-node times also read 0
    when their base is 0.
    """
    self_s = rec.self_times()
    values = {}
    for name, _ in PER_LAYER:
        stem, _, leaf = name.rpartition(".")
        if leaf == "self_s":
            values[name] = self_s[stem]
        elif leaf == "calls":
            values[name] = rec.calls[stem]
        else:
            values[name] = rec.counts[name]
    certs = rec.calls["graph.canonical_certificate"]
    values["graph.canonical_certificate.us_per_call"] = _per(
        self_s["graph.canonical_certificate"], certs, 1e6
    )
    values["enumerator.useful_ratio"] = _per(rec.counts["enumerator.graphs_out"], certs)
    for kind in ("refute", "find", "count"):
        values[f"search.{kind}.us_per_node"] = _per(
            self_s[f"search.{kind}"], rec.counts[f"search.{kind}.nodes"], 1e6
        )
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = _per(traced_wall, untraced_wall) - 1.0
    layers = sum(t for name, t in self_s.items() if name != JOB_SPAN)
    values["trace.unaccounted_frac"] = _per(traced_wall - layers, traced_wall)
    return values
