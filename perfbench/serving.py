"""Serving workloads: ``serve-hot`` and ``serve-churn``.

Each starts ``python -m repro.cli serve`` as a subprocess with the
default server configuration, on a graph written as an edge-list file
with string node names, and drives it over TCP from one thread with
two connections.

* ``serve-hot`` — g1; closed loop; ``query`` membership probes drawn
  from 512 seeded pairs, which fit the 1024-entry LRU, so after the
  warm-up nearly every read is a cache hit.
* ``serve-churn`` — funding; ``--role leader --wal ... --wal-fsync
  batch``; open loop at fixed rates: one connection sends update ticks
  (delete one seeded edge, re-insert the one the previous tick
  deleted), the other ``batch`` reads of 8 uniform probes.  Latency is
  timed from each request's due time.  Afterwards a follower loaded
  from the leader's start snapshot replays the WAL in this process.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import shutil
import socket
import subprocess
import sys
import time
from collections import deque

from common import HERE, ROOT, SRC, SpeedGauge, chunked_tail, median, \
    node_name, peak_rss_mb, tail, write_edge_list
import checks
import layers
import library

#: Set-ups (server launches) per run; setup_s is their median.
SETUPS = 3

#: serve-hot: distinct probe pairs (half drawn from R_S), requests per
#: second of --seconds (a closed loop of two connections), and the
#: stream requests sent after the cache fill to reach steady state.
HOT_PAIRS = 512
HOT_REQUESTS_PER_S = 1250
HOT_WARMUP_REQUESTS = 1000

#: serve-hot: the measured stream runs in chunks of this many
#: requests, with a calibration sample before each; the tail is the
#: median over chunks of each chunk's tail (p99 at 1000 requests).
HOT_CHUNK = 1000

#: serve-churn: open-loop rates (per second), probes per read, and the
#: batch reads sent during warm-up.
CHURN_TICKS_PER_S = 1.0
CHURN_READS_PER_S = 20.0
CHURN_BATCH = 8
CHURN_WARMUP_READS = 3

#: serve-churn: calibration samples run in the open loop's idle gaps —
#: nothing in flight and the next send due at least this far away.
CHURN_IDLE_GAP_S = 0.035

#: Longest wait for a server to start or to answer everything sent.
TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# Server process and connections


class Connection:
    """One JSONL connection; blocking sends, line-buffered reads."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def send(self, request: dict) -> None:
        self.sock.sendall(json.dumps(request).encode() + b"\n")

    def receive(self) -> list:
        """The complete response lines available after one ``recv``."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        self._buffer += data
        *lines, self._buffer = self._buffer.split(b"\n")
        return lines

    def call(self, request: dict) -> dict:
        self.send(request)
        lines: list = []
        while not lines:
            lines = self.receive()
        return json.loads(lines[0])



class Server:
    """A ``serve --port 0`` subprocess; *traced* starts it through
    ``traced_serve.py`` with a trace file."""

    def __init__(self, workdir: str, args: list, tag: str,
                 trace_file: "str | None" = None) -> None:
        self.log_path = os.path.join(workdir, f"server-{tag}.log")
        entry = (["-m", "repro.cli"] if trace_file is None
                 else [os.path.join(HERE, "traced_serve.py")])
        command = [sys.executable, *entry, "serve", *args, "--port", "0"]
        if trace_file is not None:
            command += ["--trace-file", trace_file]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        for name in ("REPRO_TRACE_FILE", "REPRO_SLOW_QUERY_MS",
                     "REPRO_BATCH_WINDOW_MS"):
            env.pop(name, None)
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log, cwd=workdir,
                env=env,
            )
        self.address = None

    def wait_listening(self) -> None:
        """Block until the server announces its address."""
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as log:
                for line in log:
                    if line.startswith("listening on "):
                        host, _, port = line.split()[-1].rpartition(":")
                        self.address = (host, int(port))
                        return
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        with open(self.log_path, encoding="utf-8") as log:
            raise RuntimeError("server did not start:\n" + log.read()[-2000:])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def shutdown(self, connection: Connection) -> None:
        """Stop through the protocol (a leader flushes its WAL) and wait
        for the process; :meth:`Workspace.close` kills what is left."""
        connection.call({"op": "shutdown"})
        self.process.wait(timeout=TIMEOUT_S)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


class Workspace:
    """The run's scratch directory inside the checkout and every server
    started in it; :meth:`close` stops them all and removes it."""

    def __init__(self, name: str) -> None:
        self.path = os.path.join(ROOT, ".perfbench_work",
                                 f"{name}-{os.getpid()}")
        os.makedirs(self.path)
        self._servers: list = []

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def launch(self, args: list, tag: str,
               trace_file: "str | None" = None) -> Server:
        server = Server(self.path, args, tag, trace_file)
        self._servers.append(server)
        server.wait_listening()
        return server

    def close(self) -> None:
        for server in self._servers:
            server.stop()
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass


def _metrics(connection: Connection) -> dict:
    response = connection.call({"op": "metrics"})
    checks.check_response(response, "metrics")
    return layers.parse_prometheus(response["result"]["text"])


def _window_records(trace_file: str, start: float, end: float) -> list:
    """Span records of the server trace that started inside the
    measured window (wall-clock seconds)."""
    records = []
    with open(trace_file, encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if start <= record.get("ts", 0) <= end:
                records.append(record)
    return records


# ----------------------------------------------------------------------
# Load generators


class Op:
    """One request of a stream: what to send, when it was due, when it
    went out and when its answer came back."""

    __slots__ = ("request", "due", "sent", "received", "response", "meta")

    def __init__(self, request: dict, due: float = 0.0, meta=None) -> None:
        self.request = request
        self.due = due
        self.sent = 0.0
        self.received = 0.0
        self.response: "bytes | None" = None
        self.meta = meta

    def decoded(self) -> dict:
        return json.loads(self.response)


def closed_loop(connections, streams) -> None:
    """Each connection keeps one request in flight, sending its next
    one as soon as the previous answer arrives."""
    selector = selectors.DefaultSelector()
    pending = {}
    try:
        for connection, stream in zip(connections, streams):
            queue = deque(stream)
            pending[connection] = (queue, deque())
            selector.register(connection.sock, selectors.EVENT_READ,
                              connection)
            _send_next(connection, queue, pending[connection][1])
        active = len(connections)
        while active:
            events = selector.select(TIMEOUT_S)
            if not events:
                raise TimeoutError("server stopped answering")
            for key, _mask in events:
                connection = key.data
                queue, in_flight = pending[connection]
                lines = connection.receive()
                now = time.perf_counter()
                for line in lines:
                    op = in_flight.popleft()
                    op.received = now
                    op.response = line
                if not in_flight:
                    if queue:
                        _send_next(connection, queue, in_flight)
                    else:
                        active -= 1
    finally:
        selector.close()


def _send_next(connection, queue, in_flight) -> None:
    op = queue.popleft()
    op.sent = time.perf_counter()
    connection.send(op.request)
    in_flight.append(op)


def open_loop(connections, streams, start: float, idle=None,
              idle_gap_s: float = 0.0) -> None:
    """Send every op at its due time (seconds after *start*) whatever
    the answers are doing; answers come back in order per connection.

    *idle*, when given, is called whenever nothing is in flight and the
    next op is due at least *idle_gap_s* away — work that must neither
    share the CPU with the server's requests nor delay a send."""
    selector = selectors.DefaultSelector()
    schedule = sorted(((op.due, index, connection, op)
                       for index, (connection, stream)
                       in enumerate(zip(connections, streams))
                       for op in stream), key=lambda item: item[:2])
    for _due, _index, connection, op in schedule:
        op.due += start
    in_flight = {connection: deque() for connection in connections}
    outstanding = sum(len(stream) for stream in streams)
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ,
                          connection)
    position = 0
    deadline = None
    try:
        while outstanding:
            now = time.perf_counter()
            while (position < len(schedule)
                   and schedule[position][3].due <= now):
                _due, _index, connection, op = schedule[position]
                op.sent = time.perf_counter()
                connection.send(op.request)
                in_flight[connection].append(op)
                position += 1
            if position < len(schedule):
                timeout = max(0.0, schedule[position][3].due
                              - time.perf_counter())
                if (idle is not None and timeout >= idle_gap_s
                        and not any(in_flight.values())):
                    idle()
                    continue
            else:
                deadline = deadline or time.perf_counter() + TIMEOUT_S
                timeout = deadline - time.perf_counter()
                if timeout <= 0:
                    raise TimeoutError("server stopped answering")
            for key, _mask in selector.select(timeout):
                connection = key.data
                lines = connection.receive()
                now = time.perf_counter()
                for line in lines:
                    op = in_flight[connection].popleft()
                    op.received = now
                    op.response = line
                    outstanding -= 1
    finally:
        selector.close()


# ----------------------------------------------------------------------
# serve-hot


def _hot_inputs(seed: int, seconds: float):
    from repro.datasets.registry import build_graph

    graph = build_graph("g1", use_cache=False)
    relation = library.reference_relation("g1-query")
    members = {(node_name(s), node_name(t)) for s, t in relation}
    names = sorted(node_name(node) for node in graph.nodes)
    rng = random.Random(seed)
    hot = rng.sample(sorted(members), HOT_PAIRS // 2)
    while len(hot) < HOT_PAIRS:
        hot.append((rng.choice(names), rng.choice(names)))
    expected = [pair in members for pair in hot]
    unit = SETUPS * HOT_CHUNK
    count = unit * max(1, round(seconds * HOT_REQUESTS_PER_S / unit))
    stream = [rng.randrange(HOT_PAIRS) for _ in range(count)]
    return graph, hot, expected, stream


def _probe(pair) -> dict:
    return {"op": "query", "start": "S", "source": pair[0],
            "target": pair[1]}


def _hot_streams(hot, indices) -> list:
    """Two alternating halves of a probe-index stream, one per
    connection."""
    ops = [Op(_probe(hot[index]), meta=index) for index in indices]
    return [ops[0::2], ops[1::2]]


def _hot_session(workspace, graph_file, hot, warm_stream, tag,
                 trace_file=None):
    """Launch, connect and warm up one server; returns the server, its
    two connections and the set-up time."""
    start = time.perf_counter()
    server = workspace.launch(["--graph", graph_file, "--grammar-name",
                               "query1"], tag, trace_file)
    connections = [Connection(server.address) for _ in range(2)]
    # Fill the cache with every hot pair once, then run the stream
    # until steady.
    closed_loop(connections, _hot_streams(hot, range(len(hot))))
    closed_loop(connections, _hot_streams(hot, warm_stream))
    return server, connections, time.perf_counter() - start


def _measure_hot(connections, hot, stream, gauge: SpeedGauge) -> list:
    """The closed loop over *stream* in chunks of :data:`HOT_CHUNK`, a
    calibration sample before each; returns one list of ops per
    chunk."""
    chunks = []
    for first in range(0, len(stream), HOT_CHUNK):
        gauge.sample()
        streams = _hot_streams(hot, stream[first:first + HOT_CHUNK])
        closed_loop(connections, streams)
        chunks.append(streams[0] + streams[1])
    return chunks


def _check_hot(chunks, hot, expected) -> None:
    for ops in chunks:
        for op in ops:
            checks.check_membership(op.decoded(), expected[op.meta],
                                    hot[op.meta])


def _chunk_figures(chunks) -> "tuple[float, float, float]":
    """(p50, tail, tail percentile): each chunk's median and tail,
    median over the chunks — robust to one slow server process or one
    stalled second."""
    p50s, tails = [], []
    for ops in chunks:
        latencies = [op.received - op.sent for op in ops]
        p50s.append(median(latencies))
        tails.append(tail(latencies))
    return median(p50s), median(t for t, _ in tails), tails[0][1]


def run_hot(seed: int, seconds: float, trace: bool, result,
            workspace: Workspace) -> None:
    graph, hot, expected, stream = _hot_inputs(seed, seconds)
    graph_file = workspace.file("g1.txt")
    write_edge_list(graph, graph_file)
    del graph
    warm_stream = stream[:HOT_WARMUP_REQUESTS]
    result.note("graph", "g1 (4784 nodes, 17376 edges)")
    result.note("hot_pairs", f"{HOT_PAIRS} ({sum(expected)} in R_S)")
    result.note("read_samples", len(stream))

    # Each set-up's server measures its share of the stream, so one
    # slow server process cannot move the run's figures.
    gauge = SpeedGauge()
    setups, chunks, peaks = [], [], []
    share = len(stream) // SETUPS
    for index in range(SETUPS):
        gauge.sample()
        server, connections, elapsed = _hot_session(
            workspace, graph_file, hot, warm_stream, f"hot{index}")
        setups.append(elapsed)
        chunks += _measure_hot(connections, hot,
                               stream[index * share:(index + 1) * share],
                               gauge)
        peaks.append(server.peak_rss_mb())
        server.shutdown(connections[0])
    _check_hot(chunks, hot, expected)
    speed = gauge.factor()
    p50, read_tail, read_pct = _chunk_figures(chunks)
    requests = sum(len(ops) for ops in chunks)
    wall = sum(max(op.received for op in ops) - min(op.sent for op in ops)
               for ops in chunks)
    result.attempted = requests
    result.note("speed_factor", speed)
    result.note("raw_read_p50_ms", 1e3 * p50, "ms")
    result.note("read_p50_ms", 1e3 * speed * p50, "ms")
    result.note(f"read_tail_ms(p{read_pct:.4g})", 1e3 * speed * read_tail,
                "ms")
    result.note("reads_per_s", requests / wall / speed, "1/s")
    result.note("failed_frac", 0.0)
    result.e2e("setup_s", speed * median(setups), "s")
    result.e2e("op_p50_ms", 1e3 * speed * p50, "ms")
    result.e2e("op_tail_ms", 1e3 * speed * read_tail, "ms")
    result.e2e("peak_rss_mb", median(peaks), "MiB")

    if trace:
        _traced_hot(workspace, graph_file, hot, expected, stream,
                    warm_stream, speed * p50, result)


def _traced_hot(workspace, graph_file, hot, expected, stream, warm_stream,
                untraced_p50: float, result) -> None:
    trace_file = workspace.file("hot-trace.jsonl")
    server, connections, _elapsed = _hot_session(
        workspace, graph_file, hot, warm_stream, "hot-traced", trace_file)
    gauge = SpeedGauge()
    before = _metrics(connections[0])
    window = time.time()
    chunks = _measure_hot(connections, hot, stream, gauge)
    window_end = time.time()
    after = _metrics(connections[0])
    server.shutdown(connections[0])
    _check_hot(chunks, hot, expected)
    delta = layers.CounterDelta(before, after)
    values = layers.span_metrics(
        _window_records(trace_file, window, window_end))
    values.update(layers.counter_metrics(delta))
    round_trips = [op.received - op.sent for ops in chunks for op in ops]
    values["wire.overhead_ms"] = 1e3 * (
        sum(round_trips) / len(round_trips)
        - delta.total("repro_request_seconds_sum", op="query")
        / delta.total("repro_request_seconds_count", op="query"))
    values["trace.overhead_frac"] = (gauge.factor()
                                     * _chunk_figures(chunks)[0]
                                     / untraced_p50 - 1.0)
    layers.fill_layers(result, values)


# ----------------------------------------------------------------------
# serve-churn


class ChurnInputs:
    """funding as named edges, the seeded tick edges and the seeded
    read probes."""

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.datasets.registry import build_graph

        self.graph = build_graph("funding", use_cache=False)
        self.edges = sorted((node_name(s), label, node_name(t))
                            for s, label, t in self.graph.edges())
        names = sorted(node_name(node) for node in self.graph.nodes)
        rng = random.Random(seed)
        self.ticks = max(2, round(seconds * CHURN_TICKS_PER_S))
        # Every seed updates the same edges, a fixed sample, so every
        # run does the same update work; the seed orders the ticks.
        # deleted[0] is the warm-up edge; tick k deletes deleted[k] and
        # re-inserts deleted[k - 1].
        pool = random.Random(0).sample(self.edges, self.ticks + 1)
        self.deleted = pool[:1] + rng.sample(pool[1:], self.ticks)
        reads = max(20, round(seconds * CHURN_READS_PER_S))
        self.reads = [[(rng.choice(names), rng.choice(names))
                       for _ in range(CHURN_BATCH)] for _ in range(reads)]

    def tick_request(self, k: int) -> dict:
        request = {"op": "update", "delete": [list(self.deleted[k])]}
        if k > 1:
            request["insert"] = [list(self.deleted[k - 1])]
        return request

    def streams(self) -> "tuple[list, list]":
        """(updates, reads) with due times relative to the start."""
        updates = [Op(self.tick_request(k),
                      due=(k - 0.5) / CHURN_TICKS_PER_S, meta=k)
                   for k in range(1, self.ticks + 1)]
        reads = [Op(_batch(pairs), due=index / CHURN_READS_PER_S,
                    meta=pairs)
                 for index, pairs in enumerate(self.reads)]
        return updates, reads

    def relation_after(self, k: int) -> frozenset:
        """``R_S`` after tick *k* (0: the initial graph), from a fresh
        ``solve_matrix`` on that edge set."""
        from repro.core.matrix_cfpq import solve_matrix
        from repro.grammar.builders import same_generation_query1
        from repro.graph.io import loads_graph

        removed = self.deleted[k] if k else None
        text = "".join(f"{s} {label} {t}\n" for s, label, t in self.edges
                       if (s, label, t) != removed)
        graph = loads_graph(text)
        return solve_matrix(graph, same_generation_query1()) \
            .relations.node_pairs("S")


def _batch(pairs) -> dict:
    return {"op": "batch", "queries": [
        {"start": "S", "source": source, "target": target}
        for source, target in pairs]}


def _churn_session(workspace, graph_file, inputs: ChurnInputs, tag,
                   trace_file=None):
    """Launch a leader on a fresh WAL and warm it up: one delete and
    re-insert (the first delete builds the DRed support store) and a
    few batch reads.  Returns (server, connections, wal, set-up time)."""
    wal = workspace.file(f"wal-{tag}.jsonl")
    start = time.perf_counter()
    server = workspace.launch(["--graph", graph_file, "--grammar-name",
                               "query1", "--role", "leader", "--wal", wal,
                               "--wal-fsync", "batch"], tag, trace_file)
    connections = [Connection(server.address) for _ in range(2)]
    warm_edge = [list(inputs.deleted[0])]
    for request in ({"op": "update", "delete": warm_edge},
                    {"op": "update", "insert": warm_edge}):
        checks.check_response(connections[0].call(request), "warm-up")
    for pairs in inputs.reads[:CHURN_WARMUP_READS]:
        checks.check_response(connections[1].call(_batch(pairs)),
                              "warm-up batch")
    return server, connections, wal, time.perf_counter() - start


class ChurnPass:
    """One measured pass against a warmed leader, and what follows it:
    final relation, final snapshot, follower replay."""

    def __init__(self, server, connections, wal, workspace, inputs,
                 tag: str, gauge: SpeedGauge,
                 measure_counters: bool = False) -> None:
        self.updates, self.reads = inputs.streams()
        admin = connections[0]
        self.start_snapshot = workspace.file(f"start-{tag}.snap")
        began = time.perf_counter()
        checks.check_response(
            admin.call({"op": "save", "path": self.start_snapshot}), "save")
        self.save_s = time.perf_counter() - began
        self.snapshot_bytes = os.path.getsize(self.start_snapshot)
        wal_before = os.path.getsize(wal)
        self.before = _metrics(admin) if measure_counters else None
        self.window = time.time()
        start = time.perf_counter()
        open_loop(connections, [self.updates, self.reads], start,
                  idle=gauge.sample, idle_gap_s=CHURN_IDLE_GAP_S)
        self.wall = max(op.received for op in self.reads) - start
        self.window_end = time.time()
        self.after = _metrics(admin) if measure_counters else None
        self.wal_bytes = os.path.getsize(wal) - wal_before
        self.rss = server.peak_rss_mb()
        response = admin.call({"op": "query", "start": "S"})
        checks.check_response(response, "final relation query")
        self.served = frozenset(tuple(pair) for pair in response["result"])
        self.final_snapshot = workspace.file(f"final-{tag}.snap")
        checks.check_response(
            admin.call({"op": "save", "path": self.final_snapshot}),
            "final save")
        server.shutdown(admin)
        self.wal = wal

    def replay(self, workspace: Workspace, tag: str) -> None:
        """Load a follower from the start snapshot and replay the WAL."""
        from repro.service.replica import FollowerService

        began = time.perf_counter()
        follower = FollowerService.from_snapshot(self.start_snapshot,
                                                 self.wal)
        self.load_s = time.perf_counter() - began
        began = time.perf_counter()
        self.replayed = follower.replay()["applied_ticks"]
        self.replay_s = time.perf_counter() - began
        path = workspace.file(f"follower-{tag}.snap")
        follower.save_snapshot(path)
        with open(path, "rb") as mine, \
                open(self.final_snapshot, "rb") as leader:
            checks.check_snapshots(leader.read(), mine.read())

    def latencies(self, ops) -> list:
        return [op.received - op.due for op in ops]


def _check_churn(run: ChurnPass, inputs: ChurnInputs, relations) -> None:
    for op in run.updates:
        checks.check_response(op.decoded(), f"update tick {op.meta}")
    checks.check_same_relation(run.served, relations[inputs.ticks],
                               "leader's final R_S vs solve_matrix")
    for read in run.reads:
        lowest = sum(1 for op in run.updates if op.received < read.sent)
        highest = sum(1 for op in run.updates if op.sent < read.received)
        checks.check_batch(read.decoded(), read.meta,
                           relations[lowest:highest + 1])


def run_churn(seed: int, seconds: float, trace: bool, result,
              workspace: Workspace) -> None:
    inputs = ChurnInputs(seed, seconds)
    graph_file = workspace.file("funding.txt")
    write_edge_list(inputs.graph, graph_file)
    result.note("graph", f"funding ({inputs.graph.node_count} nodes, "
                f"{inputs.graph.edge_count} edges)")
    result.note("ticks", f"{inputs.ticks} at {CHURN_TICKS_PER_S}/s")
    result.note("read_samples", f"{len(inputs.reads)} batches of "
                f"{CHURN_BATCH} at {CHURN_READS_PER_S}/s")

    gauge = SpeedGauge()
    setups = []
    for index in range(SETUPS):
        gauge.sample()
        server, connections, wal, elapsed = _churn_session(
            workspace, graph_file, inputs, f"churn{index}")
        setups.append(elapsed)
        if index < SETUPS - 1:
            server.shutdown(connections[0])
    run = ChurnPass(server, connections, wal, workspace, inputs, "e2e",
                    gauge)
    run.replay(workspace, "e2e")
    relations = [inputs.relation_after(k) for k in range(inputs.ticks + 1)]
    _check_churn(run, inputs, relations)

    speed = gauge.factor()
    reads = run.latencies(run.reads)
    updates = run.latencies(run.updates)
    read_p50 = speed * median(reads)
    read_tail, read_pct = tail(reads)
    read_tail *= speed
    result.attempted = len(run.reads) + len(run.updates) + run.replayed
    result.note("speed_factor", speed)
    result.note("calibration_samples", len(gauge.samples))
    result.note("raw_read_p50_ms", 1e3 * median(reads), "ms")
    result.note("read_p50_ms", 1e3 * read_p50, "ms")
    result.note(f"read_tail_ms(p{read_pct:.4g})", 1e3 * read_tail, "ms")
    result.note("update_p50_ms", 1e3 * speed * median(updates), "ms")
    result.note("update_max_ms", 1e3 * speed * max(updates), "ms")
    result.note("replay_ms_per_tick",
                1e3 * speed * run.replay_s / run.replayed, "ms")
    result.note("reads_completed_per_s", len(run.reads) / run.wall, "1/s")
    result.note("failed_frac", 0.0)
    late = [op.sent - op.due for op in run.reads + run.updates]
    result.note("loadgen_late_max_ms", 1e3 * max(late), "ms")
    result.e2e("setup_s", speed * median(setups), "s")
    result.e2e("op_p50_ms", 1e3 * read_p50, "ms")
    result.e2e("op_tail_ms", 1e3 * read_tail, "ms")
    result.e2e("peak_rss_mb", run.rss, "MiB")

    if trace:
        _traced_churn(inputs, graph_file, workspace, relations, read_p50,
                      result)


def _traced_churn(inputs, graph_file, workspace, relations,
                  untraced_p50: float, result) -> None:
    from repro.obs.trace import MemorySink, configure_tracing, \
        reset_tracing

    trace_file = workspace.file("churn-trace.jsonl")
    server, connections, wal, _elapsed = _churn_session(
        workspace, graph_file, inputs, "churn-traced", trace_file)
    gauge = SpeedGauge()
    run = ChurnPass(server, connections, wal, workspace, inputs, "traced",
                    gauge, measure_counters=True)
    sink = MemorySink()
    configure_tracing(sink=sink)
    try:
        run.replay(workspace, "traced")
    finally:
        reset_tracing()
    _check_churn(run, inputs, relations)
    replay_records = sink.drain()

    delta = layers.CounterDelta(run.before, run.after)
    values = layers.span_metrics(
        _window_records(trace_file, run.window, run.window_end))
    values.update(layers.counter_metrics(delta))
    values["replica.replay.s"] = layers.span_metrics(
        replay_records)["replica.replay.s"]
    reads = run.latencies(run.reads)
    round_trips = [op.received - op.sent for op in run.reads]
    values["wire.overhead_ms"] = 1e3 * (
        sum(round_trips) / len(round_trips)
        - delta.total("repro_request_seconds_sum", op="batch")
        / delta.total("repro_request_seconds_count", op="batch"))
    values["wal.bytes_per_tick"] = run.wal_bytes / inputs.ticks
    values["replica.ticks_replayed"] = run.replayed
    values["snapshot.bytes"] = run.snapshot_bytes
    values["snapshot.save.s"] = run.save_s
    values["snapshot.load.s"] = run.load_s
    late = [op.sent - op.due for op in run.reads + run.updates]
    values["loadgen.late_tail_ms"] = 1e3 * tail(late)[0]
    values["trace.overhead_frac"] = (gauge.factor() * median(reads)
                                     / untraced_p50 - 1.0)
    layers.fill_layers(result, values)


def run(name: str, seed: int, seconds: float, trace: bool, result) -> None:
    workspace = Workspace(name)
    try:
        if name == "serve-hot":
            run_hot(seed, seconds, trace, result, workspace)
        else:
            run_churn(seed, seconds, trace, result, workspace)
    finally:
        workspace.close()
