"""Heavy-path ancestry labels with O(log^2 n)-bit labels and local LCA queries.

A label is the sequence of (heavyPathHead, position) hops on the root path,
and those hops alone name a vertex of the tree: labels are equal, and hash
alike, exactly when their hops are. A label also keeps its vertex id and its
depth as local fields, which take no part in comparison; the depth is
`seq_depth` of the hops, and the vertex is None on a label parsed off the
wire and on a label that `lca_query` builds. Two labels of the same tree
support lca/ancestor queries with no communication; callers name an
ancestor by its depth, which is unique on a root path.

On the wire a label is its hops and nothing else: ("lp", head, pos) for
each hop but the last, and ("lq", head, pos) for the last, whose tag tells
the receiver that the label is complete, so no length token goes with it.

Labeling works on a TreeView, which is either a whole rooted tree or a
forest of tree fragments (each fragment root acting as a local root). On
the engine it is two `sim.Wave`s: subtree sizes go up an unframed one,
then the labels go down a self-delimiting one that relays cut-through:
a vertex passes each hop of its own label but the last on to all its
children as it arrives, and once the last is in, sends the heavy child
that hop one position further and every other child that hop followed by
the child's own (child, 0) hop.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import sim


class LabelError(Exception):
    pass


# slotted rather than frozen: a frozen dataclass sets each field with
# object.__setattr__, about three times the cost of a construction here;
# nothing assigns to a label after it is built
@dataclass(slots=True, unsafe_hash=True)
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
    """Forest view of a rooted tree: per-vertex local parent edge and children.

    A fragment root has parent_edge -1 even if it has a parent in the full
    tree; labeling and scans treat it as a root.
    """

    n: int
    parent_edge: list[int]
    children: list[list[tuple[int, int]]]  # v -> [(child, edge id)] sorted
    roots: list[int]

    @staticmethod
    def of_tree(tree) -> "TreeView":
        children = [
            sorted((c, tree.parent_edge[c]) for c in tree.children[v])
            for v in range(tree.n)
        ]
        return TreeView(tree.n, list(tree.parent_edge), children, [tree.root])

    @staticmethod
    def of_fragments(tree, frag_of) -> "TreeView":
        """Restrict tree edges to same-fragment pairs; fragment roots are the
        vertices whose tree parent lies in another fragment (or the root)."""
        pe = [-1] * tree.n
        children: list[list[tuple[int, int]]] = [[] for _ in range(tree.n)]
        roots = []
        for v in range(tree.n):
            p = tree.parent[v]
            if p >= 0 and frag_of[p] == frag_of[v]:
                pe[v] = tree.parent_edge[v]
                children[p].append((v, tree.parent_edge[v]))
            else:
                roots.append(v)
        for v in range(tree.n):
            children[v].sort()
        return TreeView(tree.n, pe, children, roots)

    def preorder(self) -> list[int]:
        """Every vertex of the forest, each one after its parent."""
        order = []
        stack = list(self.roots)
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(c for c, _ in self.children[v])
        return order

    def to_parent(self, v, msg) -> list:
        """The outbox that sends `msg` to v's parent: empty at a root."""
        pe = self.parent_edge[v]
        return [(pe, msg)] if pe >= 0 else []


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
# wire format: one token per hop, ('lp', head, pos) for each hop but the
# last and ('lq', head, pos) for the last, and nothing else. A label ends at
# its 'lq' hop, so it needs no length token; the receiver takes the depth
# from the hops.

HOP_TAGS = ("lp", "lq")


def hop_tokens(seq) -> tuple:
    return tuple(("lp", h, p) for h, p in seq[:-1]) + (("lq",) + seq[-1],)


def is_last_hop(tok) -> bool:
    """Whether a token of a label stream ends its label: the `ends` of the
    label waves' and exchanges' self-delimiting frames."""
    return tok[0] == "lq"


def parse_hops(buf, i):
    """The hops of the label whose first hop is buf[i], through its 'lq'
    hop. Returns (seq, next_index); raises LabelError when buf[i:] does not
    start with a whole label."""
    seq = []
    for j in range(i, len(buf)):
        tok = buf[j]
        if type(tok) is not tuple or tok[0] not in HOP_TAGS:
            break
        seq.append(tok[1:])
        if tok[0] == "lq":
            return tuple(seq), j + 1
    raise LabelError("no whole label at %d" % i)


def parse_label(buf, i):
    """Parse the label whose hops start at buf[i], through its 'lq' hop.
    Returns (label, next_index)."""
    seq, j = parse_hops(buf, i)
    return LcaLabel(None, seq_depth(seq), seq), j


# ---------------------------------------------------------------------------
# distributed assignment: the two tree waves from the view roots.

def sizes_distributed(g, view: TreeView, budget: int, phase: str):
    """Subtree sizes up the view, an unframed sim.Wave of one ("sz", size)
    token a tree edge in h rounds; returns ({child: size} per vertex,
    Metrics)."""
    def sizes(v, mail):
        by_edge = dict(mail)
        by_child = {c: by_edge[eid][0][1] for c, eid in view.children[v]}
        return by_child, view.to_parent(v, (("sz", 1 + sum(by_child.values())),))

    up = sim.Wave(lambda v: len(view.children[v]), sizes)
    return sim.run(g, up, budget=budget, phase=phase)


def assign_labels_distributed(g, view: TreeView, budget: int = sim.DEFAULT_BUDGET,
                              phase_prefix: str = "label"):
    """Run the two labeling phases on the engine; returns (labels, Metrics).

    <prefix>_sizes is `sizes_distributed`. <prefix>_assign is a
    self-delimiting sim.Wave down from the view roots that relays
    cut-through: each vertex passes the hops of its label but the last on
    to its children as they arrive; once the last is in, it picks its
    heavy child and sends each child the rest of the child's label.

    Cost: a child's label of L_v hops crosses its tree edge as L_v tokens
    in ceil(L_v/budget) messages, and v holds it in round d(v) - 1 +
    ceil(L_v/budget), d(v) its depth in the view, so the phase takes the
    largest such round over the non-root vertices, and 0 rounds on a
    forest of roots (`sim.Wave`'s cut-through bound). From budget 1 up
    that is at most h + L - 1 rounds on a forest of height h whose labels
    have at most L hops, against h*ceil((L+1)/budget) when each label went
    store-and-forward in a frame with a length token.
    """
    child_sizes, metrics = sizes_distributed(g, view, budget,
                                             phase_prefix + "_sizes")

    def act(v, mail):
        seq = parse_hops(mail[0][1], 0)[0] if mail else ((v, 0),)
        label = LcaLabel(v, seq_depth(seq), seq)
        ch = view.children[v]
        hv = heavy_child(ch, child_sizes[v]) if ch else None
        # v's hops but the last went on to every child as they arrived; the
        # rest of a child's label is that hop one position further for the
        # heavy child, and that hop and the child's own for the others
        h, p = seq[-1]
        return label, [(eid, (("lq", h, p + 1),) if c == hv
                        else (("lp", h, p), ("lq", c, 0))) for c, eid in ch]

    child_edges = [[eid for _, eid in ch] for ch in view.children]
    down = sim.Wave(lambda v: view.parent_edge[v] >= 0, act, budget,
                    ends=is_last_hop, relay=child_edges.__getitem__)
    labels, m2 = sim.run(g, down, budget=budget, phase=phase_prefix + "_assign")
    return labels, metrics.merge(m2)
