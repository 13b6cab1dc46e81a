"""Heavy-path ancestry labels with O(log^2 n)-bit labels and local LCA queries.

A label is the sequence of (heavyPathHead, position) hops on the root path,
and those hops alone name a vertex of the tree: labels are equal, and hash
alike, exactly when their hops are. A label also keeps its vertex id and its
depth as local fields, which take no part in comparison; the depth is
`seq_depth` of the hops, and the vertex is None on a label parsed off the
wire and on a label that `lca_query` builds. Two labels of the same tree
support lca/ancestor queries with no communication; callers name an
ancestor by its depth, which is unique on a root path.

Labeling works on a TreeView, which is either a whole rooted tree or a
forest of tree fragments (each fragment root acting as a local root). On
the engine it is the two tree waves of `sim`: subtree sizes go up as an
unframed Convergecast, then each label goes down as one frame of its hops
in a framed Downcast.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import sim


class LabelError(Exception):
    pass


@dataclass(frozen=True)
class LcaLabel:
    vertex: int | None = field(compare=False)
    depth: int = field(compare=False)
    seq: tuple  # ((head, pos), ...)


def seq_depth(seq) -> int:
    d = 0
    for _, p in seq[:-1]:
        d += p + 1
    return d + seq[-1][1]


@dataclass
class TreeView:
    """Forest view of a rooted tree: per-vertex local parent and children.

    A fragment root has parent_edge -1 even if it has a parent in the full
    tree; labeling and scans treat it as a root.
    """

    n: int
    parent_vertex: list[int]
    parent_edge: list[int]
    children: list[list[tuple[int, int]]]  # v -> [(child, edge id)] sorted
    roots: list[int]

    @staticmethod
    def of_tree(tree) -> "TreeView":
        children = [
            sorted((c, tree.parent_edge[c]) for c in tree.children[v])
            for v in range(tree.n)
        ]
        return TreeView(tree.n, list(tree.parent), list(tree.parent_edge),
                        children, [tree.root])

    @staticmethod
    def of_fragments(tree, frag_of) -> "TreeView":
        """Restrict tree edges to same-fragment pairs; fragment roots are the
        vertices whose tree parent lies in another fragment (or the root)."""
        pv = [-1] * tree.n
        pe = [-1] * tree.n
        children: list[list[tuple[int, int]]] = [[] for _ in range(tree.n)]
        roots = []
        for v in range(tree.n):
            p = tree.parent[v]
            if p >= 0 and frag_of[p] == frag_of[v]:
                pv[v] = p
                pe[v] = tree.parent_edge[v]
                children[p].append((v, tree.parent_edge[v]))
            else:
                roots.append(v)
        for v in range(tree.n):
            children[v].sort()
        return TreeView(tree.n, pv, pe, children, roots)

    def preorder(self) -> list[int]:
        """Every vertex of the forest, each one after its parent."""
        order = []
        stack = list(self.roots)
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(c for c, _ in self.children[v])
        return order


def subtree_sizes(view: TreeView) -> list[int]:
    size = [1] * view.n
    for v in reversed(view.preorder()):
        for c, _ in view.children[v]:
            size[v] += size[c]
    return size


def _child_label(parent_label: LcaLabel, child: int, heavy: bool) -> LcaLabel:
    seq = parent_label.seq
    if heavy:
        h, p = seq[-1]
        seq = seq[:-1] + ((h, p + 1),)
    else:
        seq = seq + ((child, 0),)
    return LcaLabel(child, parent_label.depth + 1, seq)


def heavy_child(children, sizes_by_child) -> int:
    """Largest subtree wins, ties by lowest vertex id."""
    best = None
    for c, _ in children:
        key = (-sizes_by_child[c], c)
        if best is None or key < best:
            best = key
    return best[1]


def assign_labels_sequential(view: TreeView) -> list[LcaLabel | None]:
    size = subtree_sizes(view)
    labels: list[LcaLabel | None] = [None] * view.n
    for r in view.roots:
        labels[r] = LcaLabel(r, 0, ((r, 0),))
    for v in view.preorder():
        ch = view.children[v]
        if ch:
            hv = heavy_child(ch, {c: size[c] for c, _ in ch})
            for c, _ in ch:
                labels[c] = _child_label(labels[v], c, c == hv)
    return labels


# ---------------------------------------------------------------------------
# queries

def lca_query(a: LcaLabel, b: LcaLabel) -> LcaLabel:
    """The LCA's label; its vertex is None unless the LCA is a or b."""
    sa, sb = a.seq, b.seq
    j = 0
    lim = min(len(sa), len(sb))
    while j < lim and sa[j] == sb[j]:
        j += 1
    if j == len(sa):
        return a  # a's whole hop sequence is a prefix: a is on b's root path
    if j == len(sb):
        return b
    (ha, pa), (hb, pb) = sa[j], sb[j]
    if ha == hb:
        seq = sa[:j] + ((ha, min(pa, pb)),)
    elif j == 0:
        raise LabelError("labels come from different trees")
    else:
        seq = sa[:j]
    return LcaLabel(None, seq_depth(seq), seq)


def is_ancestor(a: LcaLabel, d: LcaLabel) -> bool:
    """True iff a is an ancestor of d (inclusive)."""
    return lca_query(a, d).seq == a.seq


# ---------------------------------------------------------------------------
# wire format: one ('lp', head, pos) token per hop, and nothing else. A
# label sent on its own is one frame of exactly these tokens; the receiver
# takes the depth from the hops.

def hop_tokens(seq) -> tuple:
    return tuple(("lp", h, p) for h, p in seq)


def parse_hops(buf, i):
    """The ('lp', head, pos) hops from buf[i] up to the first token that is
    not one, or the end of buf. Returns (seq, next_index)."""
    seq = []
    while i < len(buf) and isinstance(buf[i], tuple) and buf[i][0] == "lp":
        seq.append((buf[i][1], buf[i][2]))
        i += 1
    return tuple(seq), i


def parse_label(buf, i):
    """Parse the label whose hops start at buf[i]; it ends at the first token
    that is not an 'lp' hop, or at the end of buf. Returns (label,
    next_index)."""
    seq, j = parse_hops(buf, i)
    if not seq:
        raise LabelError("expected a label hop at %d" % i)
    return LcaLabel(None, seq_depth(seq), seq), j


# ---------------------------------------------------------------------------
# distributed assignment: the two tree waves from the view roots.

def sizes_distributed(g, view: TreeView, budget: int, phase: str):
    """Subtree sizes up the view, an unframed sim.Convergecast of one
    ("sz", size) token a tree edge in h rounds; returns ({child: size} per
    vertex, Metrics)."""
    def sizes(v, msgs):
        by_child = {c: msgs[eid] for c, eid in view.children[v]}
        return by_child, (("sz", 1 + sum(by_child.values())),)

    up = sim.Convergecast(view, lambda toks: toks[0][1], sizes, budget,
                          framed=False)
    return sim.run(g, up, budget=budget, phase=phase)


def assign_labels_distributed(g, view: TreeView, budget: int = sim.DEFAULT_BUDGET,
                              phase_prefix: str = "label"):
    """Run the two labeling phases on the engine; returns (labels, Metrics).

    <prefix>_sizes is `sizes_distributed`. <prefix>_assign is a framed
    sim.Downcast from the view roots: every vertex picks its heavy child and
    sends each child its label as one frame.
    """
    child_sizes, metrics = sizes_distributed(g, view, budget,
                                             phase_prefix + "_sizes")

    def act(v, mail):
        seq = ((v, 0),) if mail is None else parse_hops(mail[0][1], 0)[0]
        label = LcaLabel(v, seq_depth(seq), seq)
        ch = view.children[v]
        hv = heavy_child(ch, child_sizes[v]) if ch else None
        return label, [(eid, hop_tokens(_child_label(label, c, c == hv).seq))
                       for c, eid in ch]

    down = sim.Downcast(lambda v: view.parent_edge[v] < 0, act, budget, framed=True)
    labels, m2 = sim.run(g, down, budget=budget, phase=phase_prefix + "_assign")
    return labels, metrics.merge(m2)
