"""End-to-end constructions on top of the augmentation algorithms:

* minimum-size 2-edge-connected spanning subgraph, 2-approx: BFS tree plus
  an optimal cover of its virtual view;
* minimum-weight 2-edge-connected spanning subgraph, 3-approx: MST plus
  the weighted augmentation;
* bridge-free reinforcement of a given connected spanning subgraph H
  (edges of H recosted to 0 so reuse is free);
* distributed verification that a graph is 2-edge-connected: after the
  BFS tree, its labels and the label exchange, a lowpoint Convergecast
  (verify_bridges) and a verdict Downcast (verify_verdict), h + h rounds
  on a tree of height h.

Every tree built here is rooted at vertex 0.
"""
from __future__ import annotations

import math

from . import labels as lbl, sim, unweighted, virtual_graph as vg, weighted
from .fast import build_bfs_tree_distributed
from .graph import Augmentation, GraphError, Multigraph, bfs_tree, \
    is_connected, mst_tree, root_tree


def two_ecss_unweighted(g, budget: int = sim.DEFAULT_BUDGET):
    """2-approximate smallest 2-edge-connected spanning subgraph.

    Returns (edge id set, tree, Augmentation, Metrics); at most 2(n-1)
    edges since the tree has n-1 and the cover adds at most one per leaf
    path, i.e. at most n-1 more."""
    tree, metrics = build_bfs_tree_distributed(g, 0, budget=budget)
    aug, cover, m = unweighted.augment_unweighted(g, tree, budget=budget)
    metrics.merge(m)
    edges = set(tree.tree_edges) | set(aug.edge_ids)
    return edges, tree, aug, metrics


def two_ecss_weighted(g, budget: int = sim.DEFAULT_BUDGET):
    """3-approximate minimum-weight 2-edge-connected spanning subgraph: MST
    weight is at most the optimum, and the augmentation of the MST is at
    most twice it.

    The MST itself is injected; its phase is charged like a distributed
    MST construction: one BFS depth plus sqrt(n) rounds."""
    tree = mst_tree(g, 0)
    _, metrics = build_bfs_tree_distributed(g, 0, budget=budget)
    metrics.phases.append(sim.PhaseMetrics(
        "mst", rounds=metrics.phase("bfs").rounds + math.isqrt(g.n) + 1,
        nominal=True))
    aug, _, _, m = weighted.augment_weighted(g, tree, budget=budget)
    metrics.merge(m)
    edges = set(tree.tree_edges) | set(aug.edge_ids)
    value = sum(g.weight(e) for e in edges)
    return edges, tree, aug, value, metrics


def recost_for_h(g, h_edge_ids):
    """Copy of g with the edges of H recosted to 0, plus a spanning tree of
    H (BFS, rooted) to anchor the augmentation."""
    h_edge_ids = set(h_edge_ids)
    hg = Multigraph(g.n)
    hmap = {}
    for eid in sorted(h_edge_ids):
        u, v, w = g.edges[eid]
        hmap[hg.add_edge(u, v, w)] = eid
    if not is_connected(hg):
        raise GraphError("H is not a connected spanning subgraph")
    htree = bfs_tree(hg, 0)
    tree_ids = sorted(hmap[e] for e in htree.tree_edges)

    g0 = Multigraph(g.n)
    for eid, (u, v, w) in enumerate(g.edges):
        g0.add_edge(u, v, 0 if eid in h_edge_ids else w)
    return g0, root_tree(g0, tree_ids, 0)


def augment_1_to_2(g, h_edge_ids, budget: int = sim.DEFAULT_BUDGET):
    """Cheapest reinforcement of a connected spanning subgraph H: edges of
    H are recosted to 0 (reuse is free), a spanning tree of H anchors the
    weighted augmentation, and only the newly bought edges are returned.

    Returns (Augmentation of new edges, tree, Metrics)."""
    h_edge_ids = set(h_edge_ids)
    g0, tree = recost_for_h(g, h_edge_ids)
    aug, _, _, metrics = weighted.augment_weighted(g0, tree, budget=budget)
    new_ids = frozenset(e for e in aug.edge_ids if e not in h_edge_ids)
    value = sum(g.weight(e) for e in new_ids)
    out = Augmentation(new_ids, value, dict(aug.meta))
    return out, tree, metrics


# ---------------------------------------------------------------------------
# verification

def verify_2ec_distributed(g, budget: int = sim.DEFAULT_BUDGET):
    """Every vertex learns whether g is 2-edge-connected.

    Over a BFS tree rooted at 0, of height h, the labels and the label
    exchange give each vertex its incoming ancestor-descendant edges. Then
    the simulator's two tree waves run, unframed:

    * verify_bridges, a Convergecast: every non-root vertex sends its
      parent one ("vb", reach, bridgeBelow) token. reach is the least
      ancestor depth reached by its incoming edges and its children's
      reaches, its own depth if none is less; the edge to its parent is a
      bridge iff reach >= its depth (Tarjan's lowpoint test), and
      bridgeBelow ORs that flag with its children's;
    * verify_verdict, a Downcast of one ("vd", verdict) token from the root,
      verdict 1 iff no tree edge is a bridge.

    Each wave takes h rounds, n-1 messages and n-1 tokens: h + h in all
    after the exchange. Returns (verdict, sorted bridge vertex list, Metrics),
    a bridge named by its lower vertex; raises SimError if a vertex's
    verdict is not the root's."""
    if not is_connected(g):
        raise GraphError("input graph is not connected")
    tree, metrics = build_bfs_tree_distributed(g, 0, budget=budget)
    view = lbl.TreeView.of_tree(tree)
    all_labels, m = lbl.assign_labels_distributed(g, view, budget=budget)
    metrics.merge(m)
    incidence, m = vg.build_incidence_distributed(g, tree, all_labels,
                                                  vg.PlainScheme(), budget=budget)
    metrics.merge(m)

    def decide(v, frames):
        depth = all_labels[v].depth
        reach = min((ve.anc.depth for ve in incidence[v]), default=depth)
        below = 0
        for (_, child_reach, child_below), in frames.values():
            reach = min(reach, child_reach)
            below |= child_below
        bridge = view.parent_edge[v] >= 0 and reach >= depth
        below |= bridge
        return (bridge, below), [(("vb", reach, below),)]

    up = sim.Convergecast(view, 1, lambda toks: toks[0], decide, budget,
                          framed=False)
    recs, m = sim.run(g, up, budget=budget, phase="verify_bridges")
    metrics.merge(m)

    def act(v, payload):
        verdict = 1 - recs[v][1] if payload is None else payload[0][1]
        msg = (("vd", verdict),)
        return verdict, [(eid, msg) for _, eid in view.children[v]]

    down = sim.Downcast(lambda v: view.parent_edge[v] < 0, act)
    verdicts, m = sim.run(g, down, budget=budget, phase="verify_verdict")
    metrics.merge(m)
    verdict = verdicts[tree.root] == 1
    for v in range(g.n):
        if verdicts[v] != verdicts[tree.root]:
            raise sim.SimError("verdict disagreement at vertex %d" % v)
    return verdict, [v for v in range(g.n) if recs[v][0]], metrics
