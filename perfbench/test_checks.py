"""The benchmark's output checks fire on wrong outputs.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import CheckFailed, use_checkout_sources  # noqa: E402

use_checkout_sources()

import checks  # noqa: E402


def _dyck_engine():
    from repro import CFPQEngine, parse_grammar
    from repro.graph.generators import two_cycles

    grammar = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
    return CFPQEngine(two_cycles(2, 3, "a", "b"), grammar), grammar


def test_relational_check_accepts_the_reference_and_rejects_a_wrong_answer():
    from repro.baselines.hellings import solve_hellings

    engine, grammar = _dyck_engine()
    reference = solve_hellings(engine.graph, grammar).node_pairs("S")
    answer = engine.relational("S")
    checks.check_relational_answer(answer, reference)
    wrong = answer - {next(iter(sorted(answer, key=repr)))}
    with pytest.raises(CheckFailed):
        checks.check_relational_answer(wrong, reference)
    swapped = wrong | {("no-such-node", "no-such-node")}
    with pytest.raises(CheckFailed):
        checks.check_relational_answer(swapped, reference)


def test_witness_check_rejects_a_broken_path():
    engine, grammar = _dyck_engine()
    source, target = sorted(engine.relational("S"), key=repr)[0]
    path = engine.single_path("S", source, target)
    checks.check_witness(engine, grammar, source, target, path)
    with pytest.raises(CheckFailed):
        checks.check_witness(engine, grammar, source, target, path[:-1])
    relabeled = path[:-1] + ((path[-1][0], "a", path[-1][2]),)
    with pytest.raises(CheckFailed):
        checks.check_witness(engine, grammar, source, target, relabeled)


def test_membership_and_batch_checks_reject_wrong_answers():
    checks.check_membership({"ok": True, "result": True}, True, ("u", "v"))
    with pytest.raises(CheckFailed):
        checks.check_membership({"ok": True, "result": False}, True,
                                ("u", "v"))
    with pytest.raises(CheckFailed):
        checks.check_membership({"ok": False, "error": "boom"}, True,
                                ("u", "v"))
    pairs = [("u", "v"), ("v", "w")]
    states = [frozenset({("u", "v")}), frozenset({("v", "w")})]
    answer = {"ok": True, "result": [{"ok": True, "result": False},
                                     {"ok": True, "result": True}]}
    checks.check_batch(answer, pairs, states)
    wrong = {"ok": True, "result": [{"ok": True, "result": True},
                                    {"ok": True, "result": True}]}
    with pytest.raises(CheckFailed):
        checks.check_batch(wrong, pairs, states)


def test_snapshot_check_rejects_a_wrong_follower_snapshot(tmp_path):
    from repro.graph.generators import two_cycles
    from repro.grammar.builders import dyck1
    from repro.service.query_service import QueryService
    from repro.service.replica import FollowerService, ReplicatedService
    from repro.service.wal import TickLog

    wal = str(tmp_path / "wal.jsonl")
    start = str(tmp_path / "start.snap")
    leader = ReplicatedService(QueryService(two_cycles(2, 3, "a", "b"),
                                            dyck1()), TickLog(wal))
    leader.save_snapshot(start)
    leader.tick([("delete", (0, "a", 1))])
    leader.tick([("insert", (0, "a", 1)), ("delete", (2, "b", 3))])
    final = str(tmp_path / "final.snap")
    leader.save_snapshot(final)
    leader.close()

    follower = FollowerService.from_snapshot(start, wal)
    assert follower.replay()["applied_ticks"] == 2
    replayed = str(tmp_path / "follower.snap")
    follower.save_snapshot(replayed)
    with open(final, "rb") as handle:
        leader_bytes = handle.read()
    with open(replayed, "rb") as handle:
        follower_bytes = handle.read()
    checks.check_snapshots(leader_bytes, follower_bytes)

    corrupted = bytearray(follower_bytes)
    corrupted[len(corrupted) // 2] ^= 0xFF
    with pytest.raises(CheckFailed):
        checks.check_snapshots(leader_bytes, bytes(corrupted))
    with pytest.raises(CheckFailed):
        checks.check_snapshots(leader_bytes, follower_bytes[:-1])


def test_same_relation_check():
    checks.check_same_relation(frozenset({(1, 2)}), frozenset({(1, 2)}), "x")
    with pytest.raises(CheckFailed):
        checks.check_same_relation(frozenset(), frozenset({(1, 2)}), "x")
