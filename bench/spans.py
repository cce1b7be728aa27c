"""Layer spans and counters for a traced benchmark pass.

The tracer wraps the public entry points of each chaincontrol module from
outside the package: nothing under src/ knows it exists.  Every call to a
wrapped function records one span (name, start, end, parent) in compact
in-memory arrays; a few wrappers also bump exact counters (points handed to
the field, kd-tree candidates, edges kept, bytes written).  The spans are
written out only when the pass ends, and the per-layer metrics are derived
from them afterwards.

Functions imported by name into other modules (decay_constants, the CSV
writers, build_chain_graph, ...) are patched in every chaincontrol
namespace that holds them; methods are patched on their class; the
compiled cKDTree type is replaced by a subclass in chaincontrol.chains.
`installed` restores every original attribute on exit.
"""

import functools
import math
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = Counter()
        self._open = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._open.pop()

    def arrays(self):
        """(name ids, parents, durations) as numpy arrays."""
        name = np.frombuffer(self.span_name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.span_parent,
                               dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        return name, parent, end - start

    def save(self, path):
        """Write every span and counter to an .npz file."""
        name, parent, _ = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            counter_names=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k]
                                     for k in sorted(self.counters)],
                                    dtype=float))


def self_times(parent, duration):
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread), so the children of a span cover
    disjoint parts of its interval and their durations simply add up.
    """
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=float)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=duration.size)
    return duration - covered


# -- counters taken from a wrapped call's arguments and result ---------------


def _count_pairs(counters, args, result):
    counters["group.distance_pairs"] += int(np.size(result))


def _count_points(counters, args, result):
    counters["lcs.field_points"] += math.prod(result.shape[:-1])


def _count_graph(counters, args, result):
    counters["chains.edges"] += int(result.n_edges)
    counters["chains.truncated_rows"] += int(np.count_nonzero(result.truncated))


def _count_sets(counters, args, result):
    counters["chains.sets"] += len(result)


def _count_bytes(counters, args, result):
    counters["chains.write_bytes"] += os.path.getsize(args[0])


def _targets():
    """(span name, owner, attribute, counter) for every wrapped entry point."""
    from chaincontrol import algebra, chains, cli, config, group, lcs, spectral
    from chaincontrol import verify

    targets = [
        ("config.build", config, "parse_config", None),
        ("config.build", config, "build_system", None),
        ("config.build", config, "build_window", None),
        ("algebra.ad", algebra.NilpotentAlgebra, "ad", None),
        ("algebra.bch", algebra.NilpotentAlgebra, "bch", None),
        ("spectral.decay", spectral, "decay_constants", None),
        ("group.normalize", group.SemidirectGroup, "normalize", None),
        ("group.distance", group.SemidirectGroup, "distance", _count_pairs),
        ("lcs.field", lcs.LinearControlSystem, "field", _count_points),
        ("lcs.integrate", lcs, "integrate", None),
        ("lcs.triangular_solve", lcs, "triangular_solve", None),
        ("chains.graph", chains, "build_chain_graph", _count_graph),
        ("chains.extract", chains, "extract_chain_sets", _count_sets),
        ("chains.source_constants", chains, "estimate_source_constants",
         None),
        ("cli.main", cli, "main", None),
    ]
    for writer in ("write_nodes_csv", "write_edges_csv", "write_sets_jsonl",
                   "write_plot_slice"):
        targets.append(("chains.write", chains, writer, _count_bytes))
    for name, fn in sorted(vars(verify).items()):
        if name.startswith("check_") and getattr(fn, "__module__", None) \
                == verify.__name__:
            targets.append(("verify.check", verify, name, None))
    return targets


def _wrap(tracer, span, fn, counter):
    nid = tracer.name_id(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if counter is not None:
            counter(tracer.counters, args, result)
        return result

    return wrapper


def _traced_kdtree(tracer, base):
    nid = tracer.name_id("chains.kdtree_query")

    class TracedKDTree(base):
        def query_ball_point(self, *args, **kwargs):
            idx = tracer.begin(nid)
            try:
                result = super().query_ball_point(*args, **kwargs)
            finally:
                tracer.end(idx)
            # chains queries arrays of points: one candidate list per point
            tracer.counters["chains.kdtree_candidates"] += \
                sum(len(b) for b in result)
            return result

    return TracedKDTree


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chaincontrol"
                                  or name.startswith("chaincontrol."))]


def install(tracer):
    """Wrap every target; return the (owner, attribute, original) patches."""
    from chaincontrol import chains

    patches = []
    modules = _namespaces()
    for span, owner, attr, counter in _targets():
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, span, original, counter))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, span, original, counter)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
    patches.append((chains, "cKDTree", chains.cKDTree))
    chains.cKDTree = _traced_kdtree(tracer, chains.cKDTree)
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def installed(tracer):
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)


# -- per-layer metrics --------------------------------------------------------

TIME_METRICS = {
    # metric: (span name, use self time)
    "config.build_s": ("config.build", False),
    "algebra.ad_s": ("algebra.ad", False),
    "algebra.bch_s": ("algebra.bch", False),
    "spectral.decay_s": ("spectral.decay", False),
    "group.normalize_s": ("group.normalize", False),
    "group.distance_s": ("group.distance", False),
    "lcs.field_s": ("lcs.field", False),
    "lcs.integrate_s": ("lcs.integrate", False),
    "lcs.triangular_solve_s": ("lcs.triangular_solve", False),
    "chains.graph_s": ("chains.graph", False),
    "chains.graph_self_s": ("chains.graph", True),
    "chains.kdtree_query_s": ("chains.kdtree_query", False),
    "chains.extract_s": ("chains.extract", False),
    "chains.source_constants_s": ("chains.source_constants", False),
    "chains.write_s": ("chains.write", False),
    "verify.check_s": ("verify.check", False),
    "cli.self_s": ("cli.main", True),
}

CALL_METRICS = {
    "algebra.ad_calls": "algebra.ad",
    "algebra.bch_calls": "algebra.bch",
    "lcs.field_calls": "lcs.field",
    "lcs.integrate_calls": "lcs.integrate",
}

COUNTER_METRICS = (
    "group.distance_pairs", "lcs.field_points", "chains.kdtree_candidates",
    "chains.edges", "chains.truncated_rows", "chains.sets",
    "chains.write_bytes",
)


def layer_metrics(tracer):
    """Per-layer totals, self times and counts of one traced pass.

    A layer that the pass never entered reports 0.
    """
    name, parent, duration = tracer.arrays()
    own = self_times(parent, duration)
    n_names = len(tracer.names)
    total = np.bincount(name, weights=duration, minlength=n_names)
    self_total = np.bincount(name, weights=own, minlength=n_names)
    calls = np.bincount(name, minlength=n_names)

    def lookup(arr, span):
        nid = tracer._ids.get(span)
        return arr[nid] if nid is not None else 0

    out = {}
    for metric, (span, use_self) in TIME_METRICS.items():
        out[metric] = float(lookup(self_total if use_self else total, span))
    for metric, span in CALL_METRICS.items():
        out[metric] = int(lookup(calls, span))
    for metric in COUNTER_METRICS:
        out[metric] = int(tracer.counters[metric])
    cand = out["chains.kdtree_candidates"]
    out["chains.edge_yield"] = out["chains.edges"] / cand if cand else 0.0
    return out
