"""Locality checks on paired runs (Linial, SIAM J. Comput. 1992).

Each pair is two instances that differ in one edge: a copy of a random
instance with one edge appended (a new id, the same tree edges), or, for
ecss-w, with one MST edge's weight raised. Both runs' transcripts are
captured, and two properties of a synchronous network are checked:

* light cone: a message delivered in one run but not in the other, sent
  by s in round r of a phase, must come from a vertex s within offset + r
  of the changed edge's endpoints in the larger graph, where the offset is
  the rounds charged to every earlier phase, nominal ones included;
* non-interference: a vertex whose incident edges (id, weight, tree flag)
  and whole received history are equal in both runs outputs the same. Its
  output is the set of cover edges whose descendant endpoint it is: what
  it adds, since every added virtual edge sits in its descendant
  endpoint's incidence list.

A leaky act that reads another vertex's driver-array entry makes each
check fail (the negative controls at the end). No one act can serve both:
every phase from the exchange on starts at least D rounds into the run,
where D is the diameter, so all of the graph is inside its light cone; and
the first waves' outputs reach the cover only through later messages.
"""
import random
from collections import Counter, deque

import pytest

from treeaug import apps, fast, generators, sim, unweighted, weighted
from treeaug.graph import Multigraph, mst_tree, root_tree

SEEDS = range(6)
RUNS = {
    "tap": lambda g, t: unweighted.augment_unweighted(g, t)[1:],
    "wtap": lambda g, t: weighted.augment_weighted(g, t)[1::2],
    "fast": lambda g, t: fast.augment_fast(g, t)[1:],
    "ecss": lambda g, t: (None, apps.two_ecss_unweighted(g)[-1]),
    "ecss-w": lambda g, t: (None, apps.two_ecss_weighted(g)[-1]),
}
NONINTERFERENCE = ("tap", "wtap", "fast")


def _copy(g, reweight=None):
    h = Multigraph(g.n)
    for eid, (u, v, w) in enumerate(g.edges):
        h.add_edge(u, v, w + 20 if eid == reweight else w)
    return h


def appended_pair(seed):
    """(g, tree, g2, tree2, endpoints): g2 is g with one edge appended."""
    g, tree = generators.gen_random_2ec(300, 150, seed, 1, 9)
    rng = random.Random(seed)
    u, v = rng.sample(range(g.n), 2)
    g2 = _copy(g)
    g2.add_edge(u, v, rng.randint(1, 9))
    return g, tree, g2, root_tree(g2, tree.tree_edges, 0), (u, v)


def reweighted_pair(seed):
    """(g, g2, endpoints): g2 is g with one MST edge's weight raised by 20."""
    g, _ = generators.gen_random_2ec(300, 150, seed, 1, 9)
    eid = random.Random(seed).choice(sorted(mst_tree(g).tree_edges))
    return g, _copy(g, reweight=eid), g.edges[eid][:2]


@sim.collector_paused()
def run_captured(algo, g, tree):
    """One run with its transcript: (cover, messages, offsets). messages
    maps (phase key, round, src, dst, edge, payload text) to its phase key;
    a phase key is (name, how many phases of that name ran before);
    offsets maps a phase key to the rounds of every earlier phase. The
    collector is paused as the algorithms pause it, since the parsed
    transcripts stay alive."""
    lines = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "TRANSCRIPT_SINK", lines)
        cover, metrics = RUNS[algo](g, tree)
    offsets = {}
    seen = Counter()
    phases = iter(metrics.phases)
    before = 0
    messages = {}
    key = None
    for line in lines:
        if line.startswith("# phase "):
            name = line[len("# phase "):]
            for p in phases:
                if p.phase == name and not p.nominal:
                    break
                before += p.rounds
            else:
                raise AssertionError("phase %s ran but is not in the metrics"
                                     % name)
            key = (name, seen[name])
            seen[name] += 1
            offsets[key] = before
            before += p.rounds
            continue
        rnd, src, dst, eid, _, text = line.split(",", 5)
        messages[(key, int(rnd), int(src), int(dst), int(eid), text)] = key
    return cover, messages, offsets


def distances(g, sources):
    dist = [None] * g.n
    for s in sources:
        dist[s] = 0
    q = deque(sources)
    while q:
        v = q.popleft()
        for _, u in g.adj[v]:
            if dist[u] is None:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def light_cone_slack(run_a, run_b, dist):
    """The least offset + r - dist(s) over the messages delivered in one
    run but not the other (None when the runs agree); negative is a
    violation."""
    slack = None
    for (_, msgs, offsets), (_, other, _) in ((run_a, run_b), (run_b, run_a)):
        for msg, key in msgs.items():
            if msg not in other:
                s = offsets[key] + msg[1] - dist[msg[2]]
                slack = s if slack is None else min(slack, s)
    return slack


def views(g, tree, messages):
    """Per vertex: its incident edges and every message it received."""
    view = [[tuple((eid, g.weight(eid), eid in tree.tree_edges)
                   for eid, _ in g.adj[v])] for v in range(g.n)]
    for key, rnd, _, dst, eid, text in messages:  # in transcript order
        view[dst].append((key, rnd, eid, text))
    return view


def outputs(n, cover):
    """Per vertex: the cover edges whose descendant endpoint it is, as
    (origin, ancestor label[, top depth]) counts."""
    out = [Counter() for _ in range(n)]
    for item in cover:
        ve, rest = (item[0], item[1:2]) if type(item) is tuple else (item, ())
        desc = getattr(ve.desc, "local", ve.desc)
        out[desc.vertex][(ve.origin, ve.anc) + rest] += 1
    return out


def noninterference(g, tree, run_a, g2, tree2, run_b):
    """(equal views, violations): vertices whose views agree in both runs,
    and those of them whose outputs differ."""
    va, vb = views(g, tree, run_a[1]), views(g2, tree2, run_b[1])
    oa, ob = outputs(g.n, run_a[0]), outputs(g2.n, run_b[0])
    equal = [v for v in range(g.n) if va[v] == vb[v]]
    return len(equal), [v for v in equal if oa[v] != ob[v]]


@pytest.fixture(scope="module")
def appended_runs():
    runs = {}
    for seed in SEEDS:
        g, tree, g2, tree2, ends = appended_pair(seed)
        for algo in RUNS:
            runs[algo, seed] = (g, tree, run_captured(algo, g, tree),
                                g2, tree2, run_captured(algo, g2, tree2), ends)
    return runs


@pytest.mark.parametrize("algo", sorted(RUNS))
def test_light_cone_on_appended_edge_pairs(appended_runs, algo):
    slacks = []
    for seed in SEEDS:
        _, _, run_a, g2, _, run_b, ends = appended_runs[algo, seed]
        slacks.append(light_cone_slack(run_a, run_b, distances(g2, ends)))
    assert None not in slacks  # every appended edge changes some message
    assert min(slacks) >= 0, (algo, slacks)


def test_light_cone_on_reweighted_mst_edge_pairs():
    for seed in SEEDS:
        g, g2, ends = reweighted_pair(seed)
        slack = light_cone_slack(run_captured("ecss-w", g, None),
                                 run_captured("ecss-w", g2, None),
                                 distances(g2, ends))
        assert slack is not None and slack >= 0, (seed, slack)


@pytest.mark.parametrize("algo", NONINTERFERENCE)
def test_noninterference_on_appended_edge_pairs(appended_runs, algo):
    total = 0
    for seed in SEEDS:
        equal, bad = noninterference(*appended_runs[algo, seed][:6])
        assert not bad, (algo, seed, bad)
        total += equal
    assert total >= len(SEEDS) * 100, total


def bob_bit_pair(p, bit, append):
    """(g, tree, g2, tree2, endpoints) for the weighted lower-bound gadget
    g = gen_lb_disjointness(2, 2, p, [1, 0], [0, 1]) and Bob's bit `bit`
    flipped, which sets the weight of one rung at Bob's end of a column: g2
    is the gadget built with the flipped bit, where only that rung's weight
    differs, or, with `append`, g with a parallel copy of that rung, of the
    flipped weight, appended as a new edge."""
    b = [0, 1]
    flipped = list(b)
    flipped[bit] ^= 1
    g, tree = generators.gen_lb_disjointness(2, 2, p, [1, 0], b)
    g2, tree2 = generators.gen_lb_disjointness(2, 2, p, [1, 0], flipped)
    changed = [eid for eid, (e, f) in enumerate(zip(g.edges, g2.edges)) if e != f]
    assert len(changed) == 1 and tree.tree_edges == tree2.tree_edges
    u, v, w = g2.edges[changed[0]]
    if append:
        g2 = _copy(g)
        g2.add_edge(u, v, w)
        tree2 = root_tree(g2, tree.tree_edges, 0)
    return g, tree, g2, tree2, (u, v)


@pytest.mark.parametrize("algo, append", [
    ("tap", False), ("fast", False), ("wtap", False), ("tap", True),
    ("fast", True)])
def test_light_cone_on_lb_disj_bob_bit_pairs(algo, append):
    # the change sits at Bob's end of a column, 2^p tree edges below
    # Alice's end at vertex 0. A new weight reaches wtap's upward phase,
    # while tap and fast never send a weight, so on those pairs their runs
    # must not differ at all; an appended rung changes their exchange and
    # covering scans, and the differing messages must stay in the light
    # cone
    for p, bit in ((4, 0), (4, 1), (5, 0), (5, 1)):
        g, tree, g2, tree2, ends = bob_bit_pair(p, bit, append)
        slack = light_cone_slack(run_captured(algo, g, tree),
                                 run_captured(algo, g2, tree2),
                                 distances(g2, ends))
        if algo in ("tap", "fast") and not append:
            assert slack is None, (algo, p, bit, slack)
        else:
            assert slack is not None and slack >= 0, (algo, p, bit, slack)


def _leak(mp, phase, leaky):
    """Run the sim.Wave of every `phase` with its act wrapped by
    leaky(g, act)."""
    run = sim.run

    def leaky_run(g, program, *args, **kwargs):
        if kwargs.get("phase") == phase:
            program.act = leaky(g, program.act)
        return run(g, program, *args, **kwargs)

    mp.setattr(sim, "run", leaky_run)


def _next_degree(g, v):
    """An entry of another vertex's adjacency list: the degree of v + 1."""
    return len(g.adj[(v + 1) % g.n])


def test_a_leaky_act_fails_the_light_cone(monkeypatch):
    # in tap's first wave a vertex also sends its size's parent the degree
    # of the next vertex id; a leaf sends it in round 0, from far away
    def leaky(g, act):
        def sizes(v, mail):
            out, outbox = act(v, mail)
            return out, [(eid, msg + (("deg", _next_degree(g, v)),))
                         for eid, msg in outbox]
        return sizes

    _leak(monkeypatch, "label_sizes", leaky)
    slacks = []
    for seed in SEEDS:
        g, tree, g2, tree2, ends = appended_pair(seed)
        slacks.append(light_cone_slack(run_captured("tap", g, tree),
                                       run_captured("tap", g2, tree2),
                                       distances(g2, ends)))
    assert min(slacks) < 0, slacks


def test_a_leaky_act_fails_noninterference(monkeypatch):
    # in tap's verdict pass a vertex keeps the edges it added only while the
    # next vertex id has an even degree
    def leaky(g, act):
        def verdict(v, mail):
            added, outbox = act(v, mail)
            return ([] if _next_degree(g, v) % 2 else added), outbox
        return verdict

    _leak(monkeypatch, "cover_down", leaky)
    bad = []
    for seed in SEEDS:
        g, tree, g2, tree2, _ = appended_pair(seed)
        bad += noninterference(g, tree, run_captured("tap", g, tree),
                               g2, tree2, run_captured("tap", g2, tree2))[1]
    assert bad
