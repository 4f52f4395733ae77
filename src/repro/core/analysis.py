"""Result-set analysis: proximity graphs over trajectories.

A distance-threshold result set induces a graph on trajectories — nodes
are moving objects, edges connect pairs that came within ``d``, weighted
by total co-proximity time.  Several of the paper's motivating questions
are graph questions in disguise: stellar "interaction groups" are the
connected components; the most perturbation-exposed star is the node
with the greatest weighted degree; convoys are long-dwell edges.

Built on :mod:`networkx` so downstream users get its whole algorithm
library on top of the search results.  It is an optional dependency
(``pip install repro[analysis]``), imported where a graph is built or
traversed — ``import repro`` must not need it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .result import ResultSet, merge_intervals
from .types import SegmentArray

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["proximity_graph", "interaction_groups",
           "most_exposed", "co_travel_time"]


def proximity_graph(results: ResultSet, queries: SegmentArray,
                    entries: SegmentArray, *,
                    min_dwell: float = 0.0) -> nx.Graph:
    """Build the trajectory proximity graph from a result set.

    Nodes are trajectory ids; an undirected edge ``(a, b)`` carries:

    * ``weight`` — total time within the threshold (merged intervals);
    * ``episodes`` — number of disjoint proximity episodes;
    * ``first_contact`` — earliest approach time.

    Self-pairs are ignored.  ``min_dwell`` drops edges whose cumulative
    proximity time is shorter (GPS noise suppression).
    """
    import networkx as nx

    q_map = {int(s): int(t) for s, t in zip(queries.seg_ids,
                                            queries.traj_ids)}
    e_map = {int(s): int(t) for s, t in zip(entries.seg_ids,
                                            entries.traj_ids)}
    buckets: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for q, e, lo, hi in zip(results.q_ids.tolist(),
                            results.e_ids.tolist(),
                            results.t_lo.tolist(),
                            results.t_hi.tolist()):
        a, b = q_map[q], e_map[e]
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        buckets.setdefault(key, []).append((lo, hi))

    graph = nx.Graph()
    graph.add_nodes_from(sorted(set(q_map.values())
                                | set(e_map.values())))
    for (a, b), raw in buckets.items():
        merged = merge_intervals(raw)
        dwell = sum(hi - lo for lo, hi in merged)
        if dwell < min_dwell:
            continue
        graph.add_edge(a, b, weight=dwell, episodes=len(merged),
                       first_contact=merged[0][0])
    return graph


def interaction_groups(graph: nx.Graph, *,
                       min_size: int = 2) -> list[set[int]]:
    """Connected components with at least one edge, largest first."""
    import networkx as nx

    groups = [set(c) for c in nx.connected_components(graph)
              if len(c) >= min_size]
    return sorted(groups, key=len, reverse=True)


def most_exposed(graph: nx.Graph, n: int = 5) -> list[tuple[int, float]]:
    """Trajectories ranked by total co-proximity time (weighted degree)."""
    degrees = graph.degree(weight="weight")
    ranked = sorted(degrees, key=lambda kv: -kv[1])
    return [(int(node), float(w)) for node, w in ranked[:n] if w > 0]


def co_travel_time(graph: nx.Graph, a: int, b: int) -> float:
    """Total time trajectories ``a`` and ``b`` spent within threshold."""
    if graph.has_edge(a, b):
        return float(graph[a][b]["weight"])
    return 0.0
