"""Heavy-path ancestry labels with O(log^2 n)-bit labels and local LCA queries.

A label is the sequence of (heavyPathHead, position) hops on the root path,
plus a (vertexId, depth) header. Two labels of the same tree support
lca/ancestor queries with no communication. The computed LCA's vertex id is
resolved when it is derivable from the inputs (it equals one of them, or it
is a heavy-path head); otherwise it is None, and callers name that
ancestor by its depth, which is unique on a root path.

Labeling works on a TreeView, which is either a whole rooted tree or a
forest of tree fragments (each fragment root acting as a local root).
"""
from __future__ import annotations

from dataclasses import dataclass

from . import sim
from .sim import HALT, IDLE


class LabelError(Exception):
    pass


@dataclass(frozen=True)
class LcaLabel:
    vertex: int | None
    depth: int
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


def subtree_sizes(view: TreeView) -> list[int]:
    size = [1] * view.n
    order = []
    stack = list(view.roots)
    while stack:
        v = stack.pop()
        order.append(v)
        for c, _ in view.children[v]:
            stack.append(c)
    for v in reversed(order):
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
    stack = []
    for r in view.roots:
        labels[r] = LcaLabel(r, 0, ((r, 0),))
        stack.append(r)
    while stack:
        v = stack.pop()
        ch = view.children[v]
        if not ch:
            continue
        hv = heavy_child(ch, {c: size[c] for c, _ in ch})
        for c, _ in ch:
            labels[c] = _child_label(labels[v], c, c == hv)
            stack.append(c)
    return labels


# ---------------------------------------------------------------------------
# queries

def lca_query(a: LcaLabel, b: LcaLabel) -> LcaLabel:
    sa, sb = a.seq, b.seq
    la, lb = len(sa), len(sb)
    j = 0
    lim = min(la, lb)
    while j < lim and sa[j] == sb[j]:
        j += 1
    if j == la and j == lb:
        return a
    if j == la:
        return a  # a's whole hop sequence is a prefix: a is on b's root path
    if j == lb:
        return b
    ha, pa = sa[j]
    hb, pb = sb[j]
    if ha == hb:
        m = min(pa, pb)
        seq = sa[:j] + ((ha, m),)
        if m == pa and j == la - 1:
            vid = a.vertex
        elif m == pb and j == lb - 1:
            vid = b.vertex
        elif m == 0:
            vid = ha
        else:
            vid = None
        return LcaLabel(vid, seq_depth(seq), seq)
    if j == 0:
        raise LabelError("labels come from different trees")
    h, p = sa[j - 1]
    seq = sa[:j - 1] + ((h, p),)
    vid = h if p == 0 else None
    return LcaLabel(vid, seq_depth(seq), seq)


def is_ancestor(a: LcaLabel, d: LcaLabel) -> bool:
    """True iff a is an ancestor of d (inclusive)."""
    return lca_query(a, d).seq == a.seq


# ---------------------------------------------------------------------------
# wire format: header ('lh', vertexId|-1, depth), one ('lp', head, pos) per
# hop. A label sent on its own is one frame of exactly these tokens.

def label_tokens(label: LcaLabel) -> tuple:
    vid = -1 if label.vertex is None else label.vertex
    return (("lh", vid, label.depth),) + tuple(("lp", h, p) for h, p in label.seq)


def parse_label(buf, i):
    """Parse the label starting at buf[i]; it ends at the first token that
    is not an 'lp' hop, or at the end of buf. Returns (label, next_index)."""
    tag = buf[i]
    if tag[0] != "lh":
        raise LabelError("expected label header, got %r" % (tag,))
    _, vid, depth = tag
    i += 1
    seq = []
    while i < len(buf) and isinstance(buf[i], tuple) and buf[i][0] == "lp":
        seq.append((buf[i][1], buf[i][2]))
        i += 1
    return LcaLabel(None if vid < 0 else vid, depth, tuple(seq)), i


# ---------------------------------------------------------------------------
# distributed assignment: subtree sizes up, then labels streamed down.

class _SizeState:
    __slots__ = ("pe", "nchild", "got", "size", "sent")

    def __init__(self, pe, nchild):
        self.pe = pe
        self.nchild = nchild
        self.got = {}  # child edge -> that child's subtree size
        self.size = 1
        self.sent = False


class _SizeProgram:
    def __init__(self, view: TreeView):
        self.view = view

    def init_state(self, v):
        return _SizeState(self.view.parent_edge[v], len(self.view.children[v]))

    def step(self, st, rnd, inbox):
        if inbox:
            for eid, payload in inbox:
                st.got[eid] = payload[0][1]
        if len(st.got) == st.nchild and not st.sent:
            st.sent = True
            st.size = 1 + sum(st.got.values())
            if st.pe >= 0:
                return [(st.pe, (("sz", st.size),))], HALT
            return [], HALT
        return [], IDLE

    def output(self, st):
        return st.size, dict(st.got)


class _AssignState:
    __slots__ = ("v", "label", "ch")

    def __init__(self, v, ch):
        self.v = v
        self.label = None
        self.ch = ch


class _AssignProgram:
    def __init__(self, view: TreeView, child_sizes, budget):
        self.view = view
        self.child_sizes = child_sizes  # v -> {child: size}
        self.budget = budget

    def init_state(self, v):
        st = _AssignState(v, sim.Channel(self.budget))
        if self.view.parent_edge[v] < 0:
            self._learn(st, LcaLabel(v, 0, ((v, 0),)))
        return st

    def _learn(self, st, label):
        st.label = label
        ch = self.view.children[st.v]
        if ch:
            hv = heavy_child(ch, self.child_sizes[st.v])
            for c, eid in ch:
                st.ch.send(eid, label_tokens(_child_label(label, c, c == hv)))

    def step(self, st, rnd, inbox):
        for _, toks in st.ch.recv(inbox):
            self._learn(st, parse_label(toks, 0)[0])
        return st.ch.flush(st.label is not None)

    def output(self, st):
        return st.label


def assign_labels_distributed(g, view: TreeView, budget: int = sim.DEFAULT_BUDGET,
                              phase_prefix: str = "label"):
    """Run the two labeling phases on the engine; returns (labels, Metrics)."""
    size_prog = _SizeProgram(view)
    size_out, metrics = sim.run(g, size_prog, budget=budget,
                                phase=phase_prefix + "_sizes")
    child_sizes = []
    for v in range(view.n):
        by_edge = size_out[v][1]
        by_child = {}
        for c, eid in view.children[v]:
            by_child[c] = by_edge[eid]
        child_sizes.append(by_child)
    assign_prog = _AssignProgram(view, child_sizes, budget)
    labels, m2 = sim.run(g, assign_prog, budget=budget,
                         phase=phase_prefix + "_assign")
    metrics.merge(m2)
    return labels, metrics
