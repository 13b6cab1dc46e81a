"""Undirected multigraph, rooted spanning trees, and the plain-text instance format.

Vertices are 0..n-1. Edges are identified by their integer id (insertion
order), which makes parallel edges first-class and keeps every tie-break
deterministic.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain


class GraphError(Exception):
    pass


class NotConnectedError(GraphError):
    pass


class Multigraph:
    """Adjacency-list multigraph; self loops and negative weights rejected,
    parallel edges allowed."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int):
        if n <= 0:
            raise GraphError("vertex count must be positive")
        self.n = n
        self.edges: list[tuple[int, int, int]] = []  # eid -> (u, v, w)
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # v -> [(eid, nbr)], by eid

    @property
    def m(self) -> int:
        return len(self.edges)

    def add_edge(self, u: int, v: int, w: int = 1) -> int:
        if u == v:
            raise GraphError("self loop on vertex %d" % u)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError("edge endpoint out of range: (%d, %d)" % (u, v))
        if w < 0:
            raise GraphError("negative weight %d on edge (%d, %d)" % (w, u, v))
        eid = len(self.edges)
        self.edges.append((u, v, w))
        self.adj[u].append((eid, v))
        self.adj[v].append((eid, u))
        return eid

    def weight(self, eid: int) -> int:
        return self.edges[eid][2]


def build_multigraph(n: int, edge_list) -> Multigraph:
    """edge_list items are (u, v) or (u, v, w); ids follow list order."""
    g = Multigraph(n)
    for e in edge_list:
        if len(e) == 2:
            g.add_edge(e[0], e[1], 1)
        else:
            g.add_edge(e[0], e[1], e[2])
    return g


def find_bridges(g: Multigraph) -> set[int]:
    """Edge ids of all bridges; iterative lowpoint DFS, parallel-edge aware."""
    visited = [False] * g.n
    disc = [0] * g.n
    low = [0] * g.n
    bridges: set[int] = set()
    timer = 0
    for start in range(g.n):
        if visited[start]:
            continue
        # stack entries: (v, entry edge id, iterator index into adj)
        stack = [(start, -1, 0)]
        visited[start] = True
        disc[start] = low[start] = timer
        timer += 1
        while stack:
            v, pe, i = stack.pop()
            if i < len(g.adj[v]):
                stack.append((v, pe, i + 1))
                eid, u = g.adj[v][i]
                if eid == pe:
                    continue
                if visited[u]:
                    if disc[u] < low[v]:
                        low[v] = disc[u]
                else:
                    visited[u] = True
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, eid, 0))
            elif pe != -1:
                # retreat from v into its parent
                u, x, _ = g.edges[pe]
                p = u + x - v
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] > disc[p]:
                    bridges.add(pe)
    return bridges


def is_connected(g: Multigraph) -> bool:
    seen = [False] * g.n
    seen[0] = True
    q = deque([0])
    cnt = 1
    while q:
        v = q.popleft()
        for _, u in g.adj[v]:
            if not seen[u]:
                seen[u] = True
                cnt += 1
                q.append(u)
    return cnt == g.n


def is_two_edge_connected(g: Multigraph) -> bool:
    return is_connected(g) and not find_bridges(g)


def diameter(g: Multigraph) -> int:
    """Exact diameter by all-source BFS run bit-parallel over Python ints.

    Bit s of reach[v] is set once source s lies within distance t of v;
    each round ORs every vertex's (deduplicated) neighbours into it, so the
    diameter is the first round in which every reach is all ones. That is
    O(D * m * n/64) word operations (Akiba, Iwata & Yoshida, SIGMOD 2013),
    so the exact diameter is cheap up to n = 4096 while D is small; when D
    is near n/2 (a long cycle) it still costs about as much as n plain BFS
    runs.
    """
    nbrs = [tuple({u for _, u in adj}) for adj in g.adj]
    reach = [1 << v for v in range(g.n)]
    full = (1 << g.n) - 1
    d = 0
    while any(r != full for r in reach):
        nxt = []
        for r, nb in zip(reach, nbrs):
            for u in nb:
                r |= reach[u]
            nxt.append(r)
        if nxt == reach:
            raise NotConnectedError("graph is disconnected")
        reach = nxt
        d += 1
    return d


def _bfs_dist(g: Multigraph, s: int) -> list[int]:
    """Hop distances from s; raises NotConnectedError if some vertex is unreached."""
    dist = [-1] * g.n
    dist[s] = 0
    q = deque([s])
    while q:
        v = q.popleft()
        for _, u in g.adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                q.append(u)
    if min(dist) < 0:
        raise NotConnectedError("graph is disconnected")
    return dist


def eccentricity(g: Multigraph, s: int) -> int:
    return max(_bfs_dist(g, s))


@dataclass
class RootedTree:
    """Rooted spanning tree of a multigraph, with parent pointers by edge id."""

    root: int
    parent: list[int]        # parent vertex, -1 at root
    parent_edge: list[int]   # edge id to parent, -1 at root
    depth: list[int]
    children: list[list[int]]  # sorted by child vertex id
    tree_edges: frozenset[int]
    order: list[int]         # vertices in top-down (BFS) order

    @property
    def height(self) -> int:
        return max(self.depth)

    @property
    def n(self) -> int:
        return len(self.parent)

    def is_ancestor(self, a: int, d: int) -> bool:
        # parent-pointer walk; only for oracles and small-scale checks
        while self.depth[d] > self.depth[a]:
            d = self.parent[d]
        return a == d


def root_tree(g: Multigraph, tree_edge_ids, root: int = 0) -> RootedTree:
    """Orient a spanning set of tree edges away from root."""
    tree_edge_ids = frozenset(tree_edge_ids)
    if len(tree_edge_ids) != g.n - 1:
        raise GraphError("expected %d tree edges, got %d" % (g.n - 1, len(tree_edge_ids)))
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in sorted(tree_edge_ids):
        if not 0 <= eid < g.m:
            raise GraphError("tree edge id %d is not an edge of the graph" % eid)
        u, v, _ = g.edges[eid]
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    parent = [-1] * g.n
    parent_edge = [-1] * g.n
    depth = [0] * g.n
    children: list[list[int]] = [[] for _ in range(g.n)]
    order = [root]
    seen = [False] * g.n
    seen[root] = True
    q = deque([root])
    while q:
        v = q.popleft()
        for eid, u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                parent_edge[u] = eid
                depth[u] = depth[v] + 1
                children[v].append(u)
                order.append(u)
                q.append(u)
    if len(order) != g.n:
        raise NotConnectedError("tree edges do not span the graph")
    for v in range(g.n):
        children[v].sort()
    return RootedTree(root, parent, parent_edge, depth, children, tree_edge_ids, order)


def bfs_tree(g: Multigraph, root: int = 0) -> RootedTree:
    """BFS spanning tree; parent is the lowest-id neighbor one layer up,
    ties among parallel edges by lowest edge id."""
    dist = _bfs_dist(g, root)
    tree_edges = []
    for v in range(g.n):
        if v == root:
            continue
        best = None
        for eid, u in g.adj[v]:
            if dist[u] == dist[v] - 1:
                key = (u, eid)
                if best is None or key < best:
                    best = key
        tree_edges.append(best[1])
    return root_tree(g, tree_edges, root)


def mst_tree(g: Multigraph, root: int = 0) -> RootedTree:
    """Minimum spanning tree by Kruskal; ties by lowest edge id."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for w, eid, u, v in sorted((w, eid, u, v) for eid, (u, v, w) in enumerate(g.edges)):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(eid)
    if len(chosen) != g.n - 1:
        raise NotConnectedError("graph is disconnected")
    return root_tree(g, chosen, root)


def tree_path_edges(t: RootedTree, u: int, v: int) -> list[int]:
    """Edge ids on the unique tree path between u and v."""
    ups: list[int] = []
    downs: list[int] = []
    while t.depth[u] > t.depth[v]:
        ups.append(t.parent_edge[u])
        u = t.parent[u]
    while t.depth[v] > t.depth[u]:
        downs.append(t.parent_edge[v])
        v = t.parent[v]
    while u != v:
        ups.append(t.parent_edge[u])
        downs.append(t.parent_edge[v])
        u = t.parent[u]
        v = t.parent[v]
    downs.reverse()
    return ups + downs


def covers_ref(g: Multigraph, t: RootedTree, nontree_eid: int, tree_eid: int) -> bool:
    """Reference coverage test: does the fundamental cycle of nontree_eid
    contain tree_eid?"""
    if nontree_eid in t.tree_edges:
        raise GraphError("edge %d is a tree edge" % nontree_eid)
    if tree_eid not in t.tree_edges:
        raise GraphError("edge %d is not a tree edge" % tree_eid)
    u, v, _ = g.edges[nontree_eid]
    return tree_eid in tree_path_edges(t, u, v)


@dataclass
class Augmentation:
    """A set of non-tree edge ids proposed to cover all tree edges."""

    edge_ids: frozenset[int]
    weight: int = 0
    meta: dict = field(default_factory=dict)


def augmentation_covers(g: Multigraph, t: RootedTree, aug_edge_ids) -> bool:
    """True iff every tree edge lies on the fundamental cycle of some
    augmentation edge, i.e. T plus the augmentation is 2-edge-connected.
    Checks the multigraph T + Aug for bridges, O((n + |Aug|) log) for the
    sort instead of one tree-path walk per augmentation edge; a tree edge in
    the augmentation is a parallel copy and so covers itself."""
    return subgraph_two_edge_connected(g, chain(t.tree_edges, aug_edge_ids))


def subgraph_two_edge_connected(g: Multigraph, edge_ids) -> bool:
    """Check 2-edge-connectivity of the spanning subgraph on edge_ids; an id
    outside range(g.m) raises GraphError."""
    h = Multigraph(g.n)
    for eid in sorted(edge_ids):
        if not 0 <= eid < g.m:
            raise GraphError("edge id %d is not an edge of the graph" % eid)
        u, v, w = g.edges[eid]
        h.add_edge(u, v, w)
    return is_two_edge_connected(h)


# ---------------------------------------------------------------------------
# instance text format: first line "n m", then m lines "u v w [t]" where a
# trailing t marks a tree edge; '#' starts a comment; edge id = line order.

def parse_instance(text: str):
    """Returns (Multigraph, RootedTree or None); tree rooted at vertex 0,
    None when no edge is marked on more than one vertex."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphError("empty instance")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError("header must be 'n m'")
    n, m = _ints(lines[0], head)
    if len(lines) - 1 != m:
        raise GraphError("expected %d edge lines, got %d" % (m, len(lines) - 1))
    g = Multigraph(n)
    tree_ids = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) not in (3, 4):
            raise GraphError("bad edge line %r" % line)
        u, v, w = _ints(line, parts[:3])
        eid = g.add_edge(u, v, w)
        if len(parts) == 4:
            if parts[3] != "t":
                raise GraphError("bad edge marker %r" % parts[3])
            tree_ids.append(eid)
    tree = None
    if tree_ids or n == 1:
        # a single vertex is spanned by the empty tree, which marks no edge
        tree = root_tree(g, tree_ids, 0)
    return g, tree


def _ints(line: str, words) -> list[int]:
    try:
        return [int(x) for x in words]
    except ValueError:
        raise GraphError("expected integers in line %r" % line) from None


def read_instance(path: str):
    with open(path) as f:
        return parse_instance(f.read())


def format_instance(g: Multigraph, tree: RootedTree | None = None) -> str:
    tree_edges = tree.tree_edges if tree is not None else frozenset()
    out = ["%d %d" % (g.n, g.m)]
    for eid, (u, v, w) in enumerate(g.edges):
        mark = " t" if eid in tree_edges else ""
        out.append("%d %d %d%s" % (u, v, w, mark))
    return "\n".join(out) + "\n"


def write_instance(path: str, g: Multigraph, tree: RootedTree | None = None):
    with open(path, "w") as f:
        f.write(format_instance(g, tree))
