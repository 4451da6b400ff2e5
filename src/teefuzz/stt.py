"""State transition tree built from corpus replays.

Nodes are state hashes, edges are labelled with the syscall that moved
the target from one state to the next.  Node labels in the DOT output
are small integers in first-seen order; the root is the empty state
before any call.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .payload import serialize_payload
from .statevars import CompiledRegions, StateVarRegion, state_hash_from_snapshots
from .templates import TemplateSet
from .testcase import TestCase


class TransitionTree(NamedTuple):
    root: int
    nodes: list[int]                      # first-seen order, root first
    edges: list[tuple[int, int, str]]     # first-seen order


def build_stt(
    seeds: list[TestCase],
    probe,
    regions: list[StateVarRegion],
    templates: TemplateSet,
) -> TransitionTree:
    compiled = CompiledRegions(regions)
    root = state_hash_from_snapshots(compiled, [])
    # dicts as insertion-ordered sets
    nodes = {root: None}
    edges: dict[tuple[int, int, str], None] = {}
    for tc in seeds:
        result = probe.submit(serialize_payload(tc))
        prev = root
        for i, sr in enumerate(result.per_syscall):
            sh = state_hash_from_snapshots(compiled, sr.snapshots)
            if sh != prev:
                nodes[sh] = None
                edges[prev, sh, templates.by_ordinal[tc.calls[i].ordinal].name] = None
                prev = sh
    return TransitionTree(root, list(nodes), list(edges))


def to_dot(tree: TransitionTree) -> str:
    number = {s: i for i, s in enumerate(tree.nodes)}
    lines = ["digraph state_transitions {", "  rankdir=LR;"]
    for s in tree.nodes:
        shape = "doublecircle" if s == tree.root else "circle"
        lines.append(f'  n{number[s]} [label="{number[s]}" shape={shape}];')
    for src, dst, label in tree.edges:
        lines.append(f'  n{number[src]} -> n{number[dst]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(tree: TransitionTree, path: str | Path) -> None:
    Path(path).write_text(to_dot(tree))
