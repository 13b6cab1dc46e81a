"""Unweighted tree augmentation: optimal cover in the ancestor-descendant
view, projected back to a 2-approximate augmentation of the graph."""
from __future__ import annotations

from . import cover_scan, labels as lbl, sim, virtual_graph as vg


class BridgeDetected(Exception):
    def __init__(self, vertices):
        super().__init__("tree edges above vertices %r cannot be covered"
                         % (sorted(vertices),))
        self.vertices = sorted(vertices)


def cover_virtual_optimal(g, tree, budget: int = sim.DEFAULT_BUDGET):
    """Distributed optimal cover of all tree edges by virtual edges.

    Returns dict with "added" (the cover), "bridges", "labels",
    "incidence", "metrics".
    """
    view = lbl.TreeView.of_tree(tree)
    all_labels, metrics = lbl.assign_labels_distributed(g, view, budget=budget)
    scheme = vg.PlainScheme()
    incidence, m2 = vg.build_incidence_distributed(g, tree, all_labels,
                                                   scheme, budget=budget)
    metrics.merge(m2)
    t0 = [False] * g.n
    res = cover_scan.distributed_cover_scan(g, view, all_labels, incidence,
                                            t0, scheme, budget=budget)
    metrics.merge(res["metrics"])
    return {"added": res["added"], "bridges": res["bridges"],
            "labels": all_labels, "incidence": incidence, "metrics": metrics}


def sequential_virtual_optimal(g, tree):
    """Central reference of the same cover; used as the shadow in tests."""
    view = lbl.TreeView.of_tree(tree)
    all_labels = lbl.assign_labels_sequential(view)
    scheme = vg.PlainScheme()
    incidence = vg.build_incidence_sequential(g, tree, all_labels, scheme)
    nodes = {}
    for v in range(g.n):
        nodes[v] = cover_scan.ScanNode(
            v, all_labels[v], children=list(tree.children[v]),
            incoming=incidence[v], t0=False, root=(v == tree.root))
    res = cover_scan.sequential_cover_scan(nodes, scheme)
    res["labels"] = all_labels
    res["incidence"] = incidence
    return res


@sim.collector_paused()
def augment_unweighted(g, tree, budget: int = sim.DEFAULT_BUDGET):
    """2-approximate minimum-cardinality augmentation of tree within g.

    Returns (Augmentation, virtual cover, Metrics). Raises BridgeDetected
    when g is not 2-edge-connected.
    """
    res = cover_virtual_optimal(g, tree, budget=budget)
    if res["bridges"]:
        raise BridgeDetected(res["bridges"])
    aug = vg.project_cover(res["incidence"], res["added"])
    aug.meta["virtual_cover_size"] = len(res["added"])
    return aug, res["added"], res["metrics"]
