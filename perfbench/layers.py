"""Per-layer measurement from outside the program.

Traced runs wrap the public functions of the layers that have no span
of their own (CNF, matrix build, the sparse kernels, relation and
node-pair building, single-path index and extraction) in spans of the
program's own tracer, so one span tree holds the program's spans
(closure, DRed, ticks, WAL, requests) and the benchmark's.  Self time
per span name comes from :func:`repro.obs.summarize_trace`, the code
behind ``repro-cfpq trace summarize``.

Counters the server keeps are read over the protocol's ``metrics`` op
(Prometheus text) at both ends of the measured window; the difference
is what the window did.

Every per-layer metric is a total over the measured window (``.s`` in
seconds, counts as counts) unless its name says otherwise
(``_ms`` means, ``_frac`` and ``per_`` ratios).  A layer that does no
work on a workload's path reads 0.
"""

from __future__ import annotations

import functools
import json
import re
import sys

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
LAYER_METRICS = (
    ("cnf.s", "s"),
    ("matrix_build.s", "s"),
    ("matrix_build.nnz", "count"),
    ("closure.s", "s"),
    ("closure.rounds", "count"),
    ("closure.multiplications", "count"),
    ("closure.delta_nnz", "count"),
    ("closure.s_per_round", "s"),
    ("closure.merge.s", "s"),
    ("kernel.mxm.calls", "count"),
    ("kernel.mxm.s", "s"),
    ("kernel.union.calls", "count"),
    ("kernel.union.s", "s"),
    ("kernel.to_pair_set.s", "s"),
    ("kernel.to_pair_set.pairs", "count"),
    ("relations.build.s", "s"),
    ("relations.node_pairs.s", "s"),
    ("relations.pairs", "count"),
    ("sp_index.s", "s"),
    ("extract.s", "s"),
    ("extract.path_edges", "count"),
    ("extract.failures", "count"),
    ("server.request.s", "s"),
    ("server.requests", "count"),
    ("wire.overhead_ms", "ms"),
    ("cache.hit_frac", "fraction"),
    ("tick.s", "s"),
    ("tick.ops_coalesced", "count"),
    ("dred.overdelete.s", "s"),
    ("dred.rederive.s", "s"),
    ("frontier.run.s", "s"),
    ("batch.s", "s"),
    ("batch.occupancy", "queries"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.fsync.s", "s"),
    ("wal.bytes_per_tick", "bytes"),
    ("replica.replay.s", "s"),
    ("replica.ticks_replayed", "count"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.save.s", "s"),
    ("snapshot.load.s", "s"),
    ("loadgen.late_tail_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
)

#: Span names whose total (inclusive) time is reported; every other
#: span's time is its self time.  The closure span encloses its rounds
#: and the kernel calls inside them; the single-path index build and
#: a follower's replay enclose whole closures and ticks.
INCLUSIVE_SPANS = ("closure", "sp_index", "replica.replay")


# ----------------------------------------------------------------------
# Wrapping public functions in spans


def _span_wrapper(func, name: str, attrs=None):
    """*func* run inside a span *name* of the program's tracer; *attrs*
    maps the result to span attributes.  An exception is recorded on
    the span as ``error`` and re-raised unchanged."""
    from repro.obs.trace import get_tracer

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return func(*args, **kwargs)
        with tracer.span(name) as span:
            try:
                result = func(*args, **kwargs)
            except BaseException as error:
                span.set("error", type(error).__name__)
                raise
            if attrs is not None:
                for key, value in attrs(result).items():
                    span.set(key, value)
            return result

    return wrapper


def _replace_everywhere(original, replacement) -> list:
    """Rebind every module-level name of the loaded ``repro`` modules
    that refers to *original*; returns the undo list."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def install_wrappers():
    """Wrap the layer entry points; returns a callable that undoes it."""
    import repro.core.engine  # noqa: F401  (binds ensure_cnf by name)
    import repro.core.matrix_cfpq as matrix_cfpq
    import repro.core.relations as relations
    import repro.core.single_path as single_path
    import repro.grammar.cnf as cnf
    import repro.matrices.sparse as sparse

    undo = []
    functions = (
        (cnf.ensure_cnf, "grammar.cnf", None),
        (matrix_cfpq.initial_boolean_matrices, "matrix_build",
         lambda result: {"nnz": sum(m.nnz() for m in result.values())}),
        (single_path.build_single_path_index, "sp_index", None),
        (single_path.extract_path, "extract",
         lambda path: {"edges": len(path)}),
    )
    for func, name, attrs in functions:
        undo += _replace_everywhere(func, _span_wrapper(func, name, attrs))
    methods = (
        # The sparse backend's product kernel; its mxm_into is the
        # default multiply-then-union_update, so these two cover it.
        (sparse.SparseMatrix, "multiply", "kernel.mxm", None),
        (sparse.BACKEND, "union_update", "kernel.union", None),
        (sparse.SparseMatrix, "to_pair_set", "kernel.to_pair_set",
         lambda pairs: {"pairs": len(pairs)}),
        (relations.ContextFreeRelations, "__init__", "relations.build",
         None),
        (relations.ContextFreeRelations, "node_pairs",
         "relations.node_pairs", lambda pairs: {"pairs": len(pairs)}),
    )
    for owner, attr, name, attrs in methods:
        original = getattr(owner, attr)
        setattr(owner, attr, _span_wrapper(original, name, attrs))
        undo.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Reading span records and server counters


def split_by_root(records, root_name: str) -> "tuple[list, list]":
    """``(inside, outside)``: the records of the trees whose root span
    is named *root_name*, and all the others."""
    roots = {record["trace_id"] for record in records
             if record["parent_id"] is None and record["name"] == root_name}
    inside = [record for record in records if record["trace_id"] in roots]
    outside = [record for record in records
               if record["trace_id"] not in roots]
    return inside, outside


def summarize(records) -> dict:
    """:func:`repro.obs.summarize_trace` over in-memory span records."""
    from repro.obs import summarize_trace

    return summarize_trace(json.dumps(record) for record in records)


def _attr_sum(records, name: str, key: str) -> float:
    return float(sum(record["attrs"].get(key, 0) or 0
                     for record in records if record["name"] == name))


def span_metrics(records) -> dict:
    """Per-layer metrics computable from span records alone."""
    spans = summarize(records)["spans"]

    def seconds(name: str) -> float:
        entry = spans.get(name)
        if entry is None:
            return 0.0
        return entry["total_s" if name in INCLUSIVE_SPANS else "self_s"]

    def count(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    rounds = count("closure.round")
    return {
        "cnf.s": seconds("grammar.cnf"),
        "matrix_build.s": seconds("matrix_build"),
        "matrix_build.nnz": _attr_sum(records, "matrix_build", "nnz"),
        "closure.s": seconds("closure"),
        "closure.rounds": rounds,
        "closure.multiplications": _attr_sum(records, "closure",
                                             "multiplications"),
        "closure.delta_nnz": _attr_sum(records, "closure.round",
                                       "new_entries"),
        "closure.s_per_round": (spans["closure.round"]["total_s"] / rounds
                                if rounds else 0.0),
        "closure.merge.s": seconds("closure.merge"),
        "kernel.mxm.calls": count("kernel.mxm"),
        "kernel.mxm.s": seconds("kernel.mxm"),
        "kernel.union.calls": count("kernel.union"),
        "kernel.union.s": seconds("kernel.union"),
        "kernel.to_pair_set.s": seconds("kernel.to_pair_set"),
        "kernel.to_pair_set.pairs": _attr_sum(records, "kernel.to_pair_set",
                                              "pairs"),
        "relations.build.s": seconds("relations.build"),
        "relations.node_pairs.s": seconds("relations.node_pairs"),
        "relations.pairs": _attr_sum(records, "relations.node_pairs",
                                     "pairs"),
        "sp_index.s": seconds("sp_index"),
        "extract.s": seconds("extract"),
        "extract.path_edges": float(sum(
            record["attrs"].get("edges", 0) for record in records
            if record["name"] == "extract"
            and "error" not in record["attrs"])),
        "extract.failures": sum(1 for record in records
                                if record["name"] == "extract"
                                and "error" in record["attrs"]),
        "dred.overdelete.s": seconds("dred.overdelete"),
        "dred.rederive.s": seconds("dred.rederive"),
        "frontier.run.s": seconds("frontier.run"),
        "replica.replay.s": seconds("replica.replay"),
    }


_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict:
    """``{(name, frozenset(labels)): value}`` from Prometheus text."""
    samples: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line.strip())
        if match is None:
            continue
        labels = frozenset(_LABEL.findall(match.group(3) or ""))
        samples[(match.group(1), labels)] = float(match.group(4))
    return samples


class CounterDelta:
    """Server counters at the end of a window minus those at its
    start."""

    def __init__(self, before: dict, after: dict) -> None:
        self._before = before
        self._after = after

    def total(self, name: str, **labels) -> float:
        """Sum over the samples of *name* whose labels include
        *labels*."""
        wanted = set(labels.items())
        value = 0.0
        for (sample, sample_labels), after in self._after.items():
            if sample == name and wanted <= sample_labels:
                value += after - self._before.get((sample, sample_labels),
                                                  0.0)
        return value


def counter_metrics(delta: CounterDelta) -> dict:
    """Per-layer metrics read from the server's metrics registry."""
    hits = delta.total("repro_cache_requests_total", outcome="hit")
    misses = delta.total("repro_cache_requests_total", outcome="miss")
    occupancy_count = delta.total("repro_batch_occupancy_count")
    return {
        # The benchmark's own metrics reads are left out.
        "server.request.s": (delta.total("repro_request_seconds_sum")
                             - delta.total("repro_request_seconds_sum",
                                           op="metrics")),
        "server.requests": (delta.total("repro_request_seconds_count")
                            - delta.total("repro_request_seconds_count",
                                          op="metrics")),
        "cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "tick.s": delta.total("repro_tick_seconds_sum"),
        "tick.ops_coalesced": delta.total("repro_tick_ops_coalesced_total"),
        "batch.s": delta.total("repro_request_seconds_sum", op="batch"),
        "batch.occupancy": (delta.total("repro_batch_occupancy_sum")
                            / occupancy_count if occupancy_count else 0.0),
        "wal.appends": delta.total("repro_wal_appends_total"),
        "wal.fsyncs": delta.total("repro_wal_fsyncs_total"),
        "wal.fsync.s": delta.total("repro_wal_fsync_seconds_sum"),
    }


def fill_layers(result, values: dict) -> None:
    """Record every per-layer metric on *result*: measured values from
    *values*, 0 for a layer this workload's path does not reach."""
    for name, unit in LAYER_METRICS:
        result.layer(name, values.get(name, 0.0), unit)
