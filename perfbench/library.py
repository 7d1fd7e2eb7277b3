"""In-process library workloads: ``g1-query`` and ``dyck-deep``.

Both run the paper's two query semantics on one thread with the
default configuration (sparse backend, ``delta`` strategy):

* ``relational`` — a fresh ``CFPQEngine(graph, grammar)`` and
  ``.relational("S")``, as one cell of the paper's Table 1;
* ``single_path`` — ``engine.single_path("S", s, t)`` on one warm
  engine for seeded pairs ``(s, t)`` of ``R_S``.

The headline op is ``relational``; single-path calls are interleaved
with it and reported beside it.  Set-up is graph build, engine
construction and the warm engine's single-path index.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from common import TAIL_BEYOND, SpeedGauge, median, pair_digest, \
    peak_rss_mb, reset_peak_rss, tail
import checks
import layers

#: Node count parameter of the dyck-deep graph (two cycles of n and
#: n + 1 edges).
DYCK_N = 25


class LibraryWorkload:
    """One library workload: how to build its inputs, how many set-ups
    a run makes (setup_s is their median) and how many operations a run
    of a given length makes."""

    def __init__(self, name: str, setups: int, relational_per_s: float,
                 paths_per_s: float) -> None:
        self.name = name
        self.setups = setups
        self.relational_per_s = relational_per_s
        self.paths_per_s = paths_per_s

    def counts(self, seconds: float) -> "tuple[int, int]":
        """(relational, single-path) operations for a run of *seconds*;
        never so few that the tail has no samples above the median."""
        relational = max(2 * TAIL_BEYOND + 4,
                         round(seconds * self.relational_per_s))
        paths = max(relational, round(seconds * self.paths_per_s))
        return relational, paths

    def build_graph(self):
        if self.name == "g1-query":
            from repro.datasets.registry import build_graph

            return build_graph("g1", use_cache=False)
        from repro.graph.generators import worst_case_dyck_graph

        return worst_case_dyck_graph(DYCK_N)

    def grammar(self):
        if self.name == "g1-query":
            from repro.grammar.builders import same_generation_query1

            return same_generation_query1()
        from repro import parse_grammar

        return parse_grammar("S -> a S b | a b", terminals=["a", "b"])


#: dyck-deep's set-up takes ~30 ms, so a run affords many set-ups and
#: a steadier median; g1's takes ~2.5 s.
WORKLOADS = {
    "g1-query": LibraryWorkload("g1-query", setups=3, relational_per_s=2.0,
                                paths_per_s=2.5),
    "dyck-deep": LibraryWorkload("dyck-deep", setups=21,
                                 relational_per_s=2.0, paths_per_s=3.34),
}


def reference_relation(name: str) -> frozenset:
    """``R_S`` from an independent solver, the Hellings worklist
    baseline.  g1 is eight disjoint copies of funding, so its relation
    is funding's, copied: node ``n`` of copy ``k`` is ``(k, n)``."""
    from repro.baselines.hellings import solve_hellings

    workload = WORKLOADS[name]
    if name == "dyck-deep":
        return solve_hellings(workload.build_graph(),
                              workload.grammar()).node_pairs("S")
    from repro.datasets.registry import build_graph, get_spec

    spec = get_spec("g1")
    base = solve_hellings(build_graph(spec.repeat_of, use_cache=False),
                          workload.grammar()).node_pairs("S")
    return frozenset(((copy, source), (copy, target))
                     for source, target in base
                     for copy in range(spec.repeat_copies))


def _setup(workload: LibraryWorkload, grammar):
    from repro import CFPQEngine

    graph = workload.build_graph()
    engine = CFPQEngine(graph, grammar)
    engine.single_path_index()
    return graph, engine


class _Pass:
    """One pass over the timed operations: latencies and outcomes.
    Answers are checked as they arrive, outside the timed calls, so a
    pass never holds more than one relation."""

    def __init__(self) -> None:
        self.relational: list = []
        self.paths: list = []
        self.failures: list = []
        self.witnesses: list = []

    def run(self, graph, grammar, engine, pairs, relational_count: int,
            reference, gauge: SpeedGauge, tracer=None) -> "_Pass":
        from repro import CFPQEngine
        from repro.errors import ReproError

        per_round, extra = divmod(len(pairs), relational_count)
        position = 0
        for index in range(relational_count):
            gauge.sample()
            with _root(tracer, "bench.relational"):
                start = time.perf_counter()
                answer = CFPQEngine(graph, grammar).relational("S")
                self.relational.append(time.perf_counter() - start)
            checks.check_relational_answer(answer, reference)
            del answer
            take = per_round + (1 if index < extra else 0)
            for source, target in pairs[position:position + take]:
                with _root(tracer, "bench.single_path"):
                    start = time.perf_counter()
                    try:
                        path = engine.single_path("S", source, target)
                    except (RecursionError, ReproError) as error:
                        self.failures.append(type(error).__name__)
                        continue
                    finally:
                        elapsed = time.perf_counter() - start
                self.paths.append(elapsed)
                self.witnesses.append((source, target, path))
            position += take
        for source, target, path in self.witnesses:
            checks.check_witness(engine, grammar, source, target, path)
        return self


def _root(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def run(name: str, seed: int, seconds: float, trace: bool, result) -> None:
    workload = WORKLOADS[name]
    grammar = workload.grammar()
    relational_count, path_count = workload.counts(seconds)

    # The reference answer is computed once, before any timing.
    reference = reference_relation(name)
    rng = random.Random(seed)
    sampled = rng.sample(sorted(reference, key=repr), path_count + 4)
    warm_pairs, pairs = sampled[:4], sampled[4:]
    result.note("reference_pairs", len(reference))
    result.note("reference_digest", pair_digest(reference))
    result.note("relational_samples", relational_count)
    result.note("single_path_samples", path_count)

    peak_reset = reset_peak_rss()
    gauge = SpeedGauge()
    setups = []
    graph = engine = None
    for _ in range(workload.setups):
        graph = engine = None
        gauge.sample()
        start = time.perf_counter()
        graph, engine = _setup(workload, grammar)
        setups.append(time.perf_counter() - start)

    # Warm-up: the first evaluations in a fresh process run slower.
    _Pass().run(graph, grammar, engine, warm_pairs, 2, reference, gauge)
    timed = _Pass().run(graph, grammar, engine, pairs, relational_count,
                        reference, gauge)
    rss = peak_rss_mb()

    result.attempted = relational_count + path_count
    result.failed = len(timed.failures)
    kinds = ", ".join(sorted(set(timed.failures))) or "none"
    result.note("single_path_failures",
                f"{len(timed.failures)}/{path_count} ({kinds})")
    if not peak_reset:
        result.note("peak_rss_includes_reference", "yes")

    speed = gauge.factor()
    rel_p50 = speed * median(timed.relational)
    rel_tail, rel_pct = tail(timed.relational)
    rel_tail *= speed
    result.note("speed_factor", speed)
    result.note("raw_relational_p50_s", median(timed.relational), "s")
    result.note("relational_p50_s", rel_p50, "s")
    result.note(f"relational_tail_s(p{rel_pct:.4g})", rel_tail, "s")
    if len(timed.paths) >= 2 * TAIL_BEYOND:
        path_tail, path_pct = tail(timed.paths)
        result.note("single_path_p50_ms", 1e3 * speed * median(timed.paths),
                    "ms")
        result.note(f"single_path_tail_ms(p{path_pct:.4g})",
                    1e3 * speed * path_tail, "ms")
    elif timed.paths:
        result.note("single_path_p50_ms", 1e3 * speed * median(timed.paths),
                    "ms")
    result.note("failed_frac", result.failed / result.attempted)

    result.e2e("setup_s", speed * median(setups), "s")
    result.e2e("op_p50_ms", 1e3 * rel_p50, "ms")
    result.e2e("op_tail_ms", 1e3 * rel_tail, "ms")
    result.e2e("peak_rss_mb", rss, "MiB")

    if trace:
        _traced(workload, grammar, pairs, relational_count, reference,
                rel_p50, result)


def _traced(workload, grammar, pairs, relational_count, reference,
            untraced_p50: float, result) -> None:
    """Repeat one set-up and the timed ops with the program's tracer
    and the layer wrappers on.  Per-layer metrics come from that span
    tree; the tracing overhead compares the two passes' relational
    medians."""
    from repro.obs.trace import MemorySink, configure_tracing, \
        reset_tracing

    uninstall = layers.install_wrappers()
    sink = MemorySink()
    tracer = configure_tracing(sink=sink)
    gauge = SpeedGauge()
    try:
        with tracer.span("bench.setup"):
            graph, engine = _setup(workload, grammar)
        traced = _Pass().run(graph, grammar, engine, pairs,
                             relational_count, reference, gauge,
                             tracer=tracer)
        records = sink.drain()
    finally:
        reset_tracing()
        uninstall()
    setup_records, op_records = layers.split_by_root(records, "bench.setup")
    values = layers.span_metrics(op_records)
    values["sp_index.s"] = layers.span_metrics(setup_records)["sp_index.s"]
    values["trace.overhead_frac"] = (gauge.factor()
                                     * median(traced.relational)
                                     / untraced_p50 - 1.0)
    layers.fill_layers(result, values)
