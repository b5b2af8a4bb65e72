"""Cross-plugin protoop call graph and trigger-cycle detection.

Nodes are protoop names; an edge ``P -> Q`` means some pluglet anchored
at ``P`` (replace, pre, post or external) declares it may trigger
protoop ``Q`` (via ``plugin_run_protoop``).  Built from the per-pluglet
effect summaries (:mod:`.summaries`) of every plugin in a candidate
*set*, the graph detects mutual-recursion chains that span plugins —
plugin A's pluglet triggers a protoop replaced by plugin B whose
pluglet triggers back — which no single-plugin analysis can see.

A cycle makes worst-case fuel unbounded at the composition level (each
lap through the cycle burns fresh per-invocation fuel), so attach-time
policy treats it as a hard conflict (rule ``PRE203``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from .summaries import PluginEffects


@dataclass(frozen=True)
class TriggerEdge:
    """One declared trigger: a pluglet anchored at ``source`` may run
    protoop ``target``."""

    source: str
    target: str
    plugin: str
    pluglet: str


class ProtoopCallGraph:
    """Trigger graph over the protoops touched by a set of plugins."""

    def __init__(self, plugin_effects: Iterable[PluginEffects]) -> None:
        self.effects = tuple(plugin_effects)
        edges: List[TriggerEdge] = []
        for plugin in self.effects:
            for summary in plugin.summaries:
                for target in summary.triggers:
                    edges.append(TriggerEdge(
                        source=summary.protoop, target=target,
                        plugin=plugin.plugin, pluglet=summary.pluglet))
        self.edges: Tuple[TriggerEdge, ...] = tuple(edges)
        adjacency: Dict[str, List[str]] = {}
        for edge in edges:
            targets = adjacency.setdefault(edge.source, [])
            if edge.target not in targets:
                targets.append(edge.target)
            adjacency.setdefault(edge.target, [])
        self.adjacency: Dict[str, Tuple[str, ...]] = {
            node: tuple(targets) for node, targets in adjacency.items()}

    def cycles(self) -> List[Tuple[str, ...]]:
        """Protoop-name cycles, one per strongly connected component
        (plus self-loops), each rotated to start at its smallest node."""
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        sccs: List[Tuple[str, ...]] = []

        def strongconnect(root: str) -> None:
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, edge_idx = work.pop()
                if edge_idx == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                targets = self.adjacency.get(node, ())
                advanced = False
                for i in range(edge_idx, len(targets)):
                    succ = targets[i]
                    if succ not in index:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in self.adjacency.get(node, ()):
                        smallest = min(component)
                        at = component.index(smallest)
                        sccs.append(tuple(component[at:] + component[:at]))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for node in sorted(self.adjacency):
            if node not in index:
                strongconnect(node)
        return sorted(sccs)

    def cycle_plugins(self, cycle: Tuple[str, ...]) -> Tuple[str, ...]:
        """The plugins contributing edges inside ``cycle``."""
        members = set(cycle)
        plugins = {edge.plugin for edge in self.edges
                   if edge.source in members and edge.target in members}
        return tuple(sorted(plugins))


def build_call_graph(
        plugin_effects: Iterable[PluginEffects]) -> ProtoopCallGraph:
    """Build the protoop call graph of a set of plugins."""
    return ProtoopCallGraph(plugin_effects)
