"""Output checks.  Each raises :class:`common.CheckFailed` on a
mismatch; none of them runs inside a timed region."""

from __future__ import annotations

from common import CheckFailed


def check_relational_answer(answer, reference) -> None:
    """A relational answer equals the independent solver's ``R_S``."""
    if len(answer) != len(reference):
        raise CheckFailed(f"relational answer has {len(answer)} pairs, "
                          f"the reference {len(reference)}")
    if answer != reference:
        missing = next(iter(reference - answer), None)
        extra = next(iter(answer - reference), None)
        raise CheckFailed("relational answer differs from the reference "
                          f"(missing e.g. {missing!r}, extra e.g. "
                          f"{extra!r})")


def check_witness(engine, grammar, source, target, path) -> None:
    """A single-path witness joins *source* to *target* through graph
    edges, has the recorded length, and spells a word of ``L(S)``."""
    from repro.core.single_path import path_is_valid, path_word
    from repro.grammar.recognizer import derives
    from repro.grammar.symbols import Nonterminal

    index = engine.single_path_index()
    graph = engine.graph
    where = f"witness {source!r} -> {target!r}"
    if not path_is_valid(index, path):
        raise CheckFailed(f"{where} is not a path of the graph")
    if path and (path[0][0] != graph.node_id(source)
                 or path[-1][2] != graph.node_id(target)):
        raise CheckFailed(f"{where} has the wrong endpoints")
    expected = engine.path_length("S", source, target)
    if len(path) != expected:
        raise CheckFailed(f"{where} has {len(path)} edges, the index "
                          f"records {expected}")
    if not derives(grammar, Nonterminal("S"), path_word(path)):
        raise CheckFailed(f"{where} spells a word S does not derive")


def check_response(response: dict, what: str) -> None:
    """A protocol response reports success."""
    if not response.get("ok"):
        raise CheckFailed(f"{what} failed: {response.get('error_type')}: "
                          f"{response.get('error')}")


def check_membership(response: dict, expected: bool, pair) -> None:
    """A ``query`` membership probe answers ``pair in R_S``."""
    check_response(response, f"query {pair!r}")
    if response["result"] is not expected:
        raise CheckFailed(f"query {pair!r} answered {response['result']!r}, "
                          f"expected {expected!r}")


def check_batch(response: dict, pairs, relations) -> None:
    """A ``batch`` of membership probes answers every item, and the
    answers agree with ``R_S`` of one of the graph states the batch
    could have observed (*relations*, one frozenset per state)."""
    check_response(response, "batch")
    items = response["result"]
    if len(items) != len(pairs):
        raise CheckFailed(f"batch of {len(pairs)} probes got "
                          f"{len(items)} answers")
    for item in items:
        check_response(item, "batch item")
    answers = [item["result"] for item in items]
    for relation in relations:
        if answers == [pair in relation for pair in pairs]:
            return
    raise CheckFailed(f"batch answers {answers} match no graph state the "
                      f"batch could have seen (probes {pairs})")


def check_same_relation(served, expected, what: str) -> None:
    """Two node-pair sets are equal."""
    if served != expected:
        raise CheckFailed(f"{what}: {len(served)} pairs served, "
                          f"{len(expected)} expected; e.g. missing "
                          f"{next(iter(expected - served), None)!r}, "
                          f"extra {next(iter(served - expected), None)!r}")


def check_snapshots(leader: bytes, follower: bytes) -> None:
    """A follower that replayed the WAL holds the leader's exact index."""
    if leader != follower:
        offset = next((i for i, (a, b) in enumerate(zip(leader, follower))
                       if a != b), min(len(leader), len(follower)))
        raise CheckFailed(f"follower snapshot ({len(follower)} bytes) "
                          f"differs from the leader's ({len(leader)} "
                          f"bytes) from byte {offset}")
