"""State transition tree built from corpus replays.

Nodes are state hashes, edges are labelled with the syscall that moved
the target from one state to the next.  Node labels in the DOT output
are small integers in first-seen order; the root is the empty state
before any call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .payload import serialize_payload
from .statevars import CompiledRegions, StateVarRegion, state_hash_from_snapshots
from .templates import TemplateSet
from .testcase import TestCase


@dataclass
class TransitionTree:
    root: int
    nodes: list[int] = field(default_factory=list)          # first-seen order
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    _edge_set: set[tuple[int, int, str]] = field(default_factory=set)

    def add_edge(self, src: int, dst: int, label: str) -> None:
        for s in (src, dst):
            if s not in self._seen:
                self._seen.add(s)
                self.nodes.append(s)
        key = (src, dst, label)
        if key not in self._edge_set:
            self._edge_set.add(key)
            self.edges.append(key)

    def __post_init__(self):
        self._seen = {self.root}
        self.nodes.append(self.root)


def build_stt(
    seeds: list[TestCase],
    probe,
    regions: list[StateVarRegion],
    templates: TemplateSet,
) -> TransitionTree:
    compiled = CompiledRegions(regions)
    tree = TransitionTree(root=state_hash_from_snapshots(compiled, []))
    for tc in seeds:
        result = probe.submit(serialize_payload(tc))
        prev = tree.root
        for i, sr in enumerate(result.per_syscall):
            sh = state_hash_from_snapshots(compiled, sr.snapshots)
            if sh != prev:
                name = templates.by_ordinal[tc.calls[i].ordinal].name
                tree.add_edge(prev, sh, name)
                prev = sh
    return tree


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
