import ast
import gc
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from treeaug import generators, sim
from treeaug.graph import Multigraph, bfs_tree, root_tree
from treeaug.labels import TreeView
from treeaug.sim import (ACTIVE, HALT, IDLE, BudgetExceeded, Metrics,
                         Channel, PhaseMetrics, RoundLimitExceeded, SimError,
                         TokenStream, broadcast_upcast)


def path_graph(n):
    g = Multigraph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1, 1)
    return g


class Flood:
    """Vertex 0 floods a token; everyone forwards once then halts."""

    def __init__(self, g):
        self.g = g

    def init_state(self, v):
        return {"v": v, "seen": v == 0, "sent": False, "rnd": None}

    def step(self, st, rnd, inbox):
        if inbox and not st["seen"]:
            st["seen"] = True
            st["rnd"] = rnd
        if st["seen"] and not st["sent"]:
            st["sent"] = True
            return [(eid, ("x",)) for eid, _ in self.g.adj[st["v"]]], HALT
        return [], IDLE

    def output(self, st):
        return st["rnd"]


def test_flood_rounds_and_message_count():
    g = path_graph(5)
    out, m = sim.run(g, Flood(g))
    assert out == [None, 1, 2, 3, 4]
    # one send per vertex per incident edge
    assert m.messages == sum(len(g.adj[v]) for v in range(g.n))
    # last send happens in round 4 (vertex 4 echoes back), so 5 rounds used
    assert m.rounds == 5


class Overflow:
    def __init__(self, g):
        self.g = g

    def init_state(self, v):
        return v

    def step(self, st, rnd, inbox):
        if st == 0:
            return [(self.g.adj[0][0][0], ("a",) * 5)], HALT
        return [], IDLE

    def output(self, st):
        return None


def test_budget_violation_identifies_sender():
    g = path_graph(3)
    with pytest.raises(BudgetExceeded) as ei:
        sim.run(g, Overflow(g), budget=4)
    assert ei.value.vertex == 0 and ei.value.round == 0 and ei.value.tokens == 5
    # the same message is fine under a larger budget
    sim.run(g, Overflow(g), budget=5)


class Chatter:
    """Sends forever; used for the round limit."""

    def __init__(self, g):
        self.g = g

    def init_state(self, v):
        return v

    def step(self, st, rnd, inbox):
        if st == 0:
            return [(self.g.adj[0][0][0], ("t",))], ACTIVE
        return [], IDLE

    def output(self, st):
        return None


def test_round_limit():
    g = path_graph(2)
    with pytest.raises(RoundLimitExceeded):
        sim.run(g, Chatter(g), max_rounds=10)


class LateMail:
    """Vertex 0 sends to vertex 1 after vertex 1 has halted."""

    def __init__(self, g):
        self.g = g

    def init_state(self, v):
        return {"v": v, "inboxes": 0}

    def step(self, st, rnd, inbox):
        if inbox:
            st["inboxes"] += 1
        if st["v"] == 1:
            return [], HALT
        if st["v"] == 0 and rnd == 1:
            return [(0, ("x",))], HALT
        return [], ACTIVE if st["v"] == 0 else HALT

    def output(self, st):
        return st["inboxes"]


def test_mail_to_halted_vertex_is_dropped_but_counted():
    g = path_graph(2)
    out, m = sim.run(g, LateMail(g))
    assert out[1] == 0          # never delivered
    assert m.messages == 1      # still paid for


def _wave_transcript(g, tree, order):
    """Transcript of the covering scan's two waves and wtap's two phases,
    with vertices stepped in `order`."""
    from treeaug import cover_scan, labels as lbl, virtual_graph as vg, weighted
    view = lbl.TreeView.of_tree(tree)
    labels = lbl.assign_labels_sequential(view)
    scheme = vg.PlainScheme()
    inc = vg.build_incidence_sequential(g, tree, labels, scheme)
    tr = []
    up = cover_scan.cover_up(view, labels, inc, [False] * g.n, scheme, 4)
    recs, _ = sim.run(g, up, transcript=tr, eval_order=order)
    sim.run(g, cover_scan.cover_down(view, recs), transcript=tr,
            eval_order=order)
    tables, _ = sim.run(g, weighted.WeightedUpProgram(view, inc, labels, scheme),
                        transcript=tr, eval_order=order)
    sim.run(g, weighted.weighted_down(view, tables), transcript=tr,
            eval_order=order)
    return tr


def test_transcript_independent_of_eval_order():
    for seed in range(10):
        g, tree = generators.gen_random_2ec(12, 6, seed)
        base = None
        for order_seed in range(3):
            order = list(range(g.n))
            random.Random(order_seed).shuffle(order)
            tr = _wave_transcript(g, tree, order)
            if base is None:
                base = tr
            else:
                assert tr == base, (seed, order_seed)


class _Echo:
    """The star's centre sends one tuple on edges 0 and 1, an equal but
    distinct tuple on edge 2 and nested-tuple tokens on edge 3; each leaf
    sends back what it got."""

    def init_state(self, v):
        return v

    def step(self, v, rnd, inbox):
        if v == 0 and rnd == 0:
            shared = tuple([7, "x"])
            twin = tuple([7, "x"])
            nested = ((1, 2), 3, ("a", "b"))
            return [(0, shared), (1, shared), (2, twin), (3, nested)], IDLE
        if not inbox:
            return [], IDLE
        return [] if v == 0 else inbox, HALT

    def output(self, v):
        return None


def test_transcript_lines_with_shared_and_nested_payloads():
    g, _ = _star(5)
    lines = []
    sim.run(g, _Echo(), transcript=lines)
    payloads = ["7;x", "7;x", "7;x", "1:2;3;a:b"]
    want = ["# phase main"]
    want += ["%d,%d,%d,%d,%d,%s" % (0, 0, e + 1, e, 3 if e == 3 else 2, p)
             for e, p in enumerate(payloads)]
    want += ["%d,%d,%d,%d,%d,%s" % (1, e + 1, 0, e, 3 if e == 3 else 2, p)
             for e, p in enumerate(payloads)]
    assert lines == want


def _count_formats(monkeypatch):
    calls = []
    real = sim._fmt_payload
    monkeypatch.setattr(sim, "_fmt_payload", lambda p: calls.append(p) or real(p))
    return calls


def test_a_broadcast_chunk_is_formatted_once_a_round(monkeypatch):
    # the root sends each chunk of its stream, one tuple, on all 8 edges in
    # the same round; the transcript formats it once, not 8 times
    calls = _count_formats(monkeypatch)
    lines = []
    monkeypatch.setattr(sim, "TRANSCRIPT_SINK", lines)
    g, tree = _star(9)
    _, m = broadcast_upcast(g, tree, [(0, tuple(range(10)))], budget=4)
    assert (m.rounds, m.messages) == (3, 3 * 8)
    assert calls == [(10, 0, 1, 2), (3, 4, 5, 6), (7, 8, 9)]
    assert len(lines) == 1 + 3 * 8


def test_no_transcript_formats_nothing(monkeypatch):
    calls = _count_formats(monkeypatch)
    g, tree = _star(9)
    broadcast_upcast(g, tree, [(0, tuple(range(10)))], budget=4)
    sim.run(g, _Echo())
    assert calls == []


def test_metrics_csv_shape():
    m = Metrics([PhaseMetrics("a", 2, 3, 4, 1), PhaseMetrics("b", 1, 1, 2, 2)])
    lines = m.to_csv().strip().split("\n")
    assert lines[0] == "phase,rounds,messages,tokens,max_tokens_edge_round"
    assert lines[-1] == "total,3,4,6,2"
    assert m.rounds == 3 and m.messages == 4 and m.tokens == 6


def test_nominal_phases_are_flagged_and_kept_out_of_the_csv():
    from treeaug import apps, fast
    g, tree = generators.gen_random_2ec(40, 25, 2, wmin=1, wmax=9)
    _, _, fm = fast.augment_fast(g, tree)
    wm = apps.two_ecss_weighted(g)[-1]
    assert [p.phase for p in fm.phases if p.nominal] == ["fragmentation"]
    assert [p.phase for p in wm.phases if p.nominal] == ["mst"]
    for m in (fm, wm):
        rows = [line.split(",") for line in m.to_csv().splitlines()]
        assert rows[0] == ["phase", "rounds", "messages", "tokens",
                           "max_tokens_edge_round"]
        assert {len(r) for r in rows} == {5}


def test_token_stream_drains_by_budget():
    s = TokenStream()
    s.push(("a", "b", "c", "d", "e"))
    assert s.take(4) == ("a", "b", "c", "d")
    assert s.buf == ["e"]
    assert s.take(4) == ("e",)
    assert not s.buf and s.take(4) is None


def test_channel_frames_arrive_whole_in_order_when_complete():
    rng = random.Random(5)
    for budget in range(1, 7):
        sender, receiver = Channel(budget), Channel(budget)
        sent = {3: [], 7: []}   # edge -> [(frame, round its last token leaves)]
        for eid, frames in sent.items():
            pos = 0                # wire position of the frame's length token
            for i in range(12):
                toks = tuple(("t", eid, i, j) for j in range(rng.randrange(10)))
                pos += 1 + len(toks)
                frames.append((toks, (pos - 1) // budget))
                sender.send(eid, toks)
        left = sum(len(toks) + 1 for f in sent.values() for toks, _ in f)
        got = {3: [], 7: []}
        rnd = 0
        while left:
            outbox, status = sender.flush(rnd % 2 == 0)
            assert outbox and all(1 <= len(p) <= budget for _, p in outbox)
            left -= sum(len(p) for _, p in outbox)
            assert status == (ACTIVE if left else (HALT if rnd % 2 == 0 else IDLE))
            for eid, toks in receiver.recv(sorted(outbox)):
                got[eid].append((toks, rnd))
            rnd += 1
        assert got == sent, budget
        assert sender.flush(True) == ([], HALT)
        assert sender.flush(False) == ([], IDLE)
        assert receiver.recv([]) == ()


def test_broadcast_upcast_delivers_identically():
    for seed in range(15):
        rng = random.Random(seed)
        g, _ = generators.gen_random_2ec(rng.randint(3, 25), rng.randint(0, 10), seed)
        tree = bfs_tree(g, 0)
        k = rng.randint(0, 5)
        msgs = [(rng.randrange(g.n), (("m", i, rng.randrange(99)),))
                for i in range(k)]
        delivered, m = broadcast_upcast(g, tree, msgs)
        assert sorted(delivered) == sorted(tuple(t) for _, t in msgs)
        assert m.max_tokens_edge_round <= 4


def test_broadcast_upcast_round_bound():
    # k short messages over a depth-h tree: <= 4(h + k) + 8 rounds
    for n, k in ((16, 1), (40, 5), (60, 12)):
        g, _ = generators.gen_cycle(n)
        tree = bfs_tree(g, 0)
        msgs = [(n - 1 - i, (("m", i),)) for i in range(k)]
        delivered, m = broadcast_upcast(g, tree, msgs)
        assert len(delivered) == k
        assert m.rounds <= 4 * (tree.height + k) + 8, (n, k, m.rounds)


def _star(n):
    g = Multigraph(n)
    return g, root_tree(g, [g.add_edge(0, v, 1) for v in range(1, n)], 0)


def _chunks(msgs, budget):
    # ceil(T / budget), T the broadcast stream's length in tokens
    return -(-sum(len(m) + 1 for _, m in msgs) // budget)


@pytest.mark.parametrize("budget", (1, 4, 7))
@pytest.mark.parametrize("shape", ("path", "star"))
def test_broadcast_from_the_root_is_cut_through(shape, budget):
    # the root streams its k messages down at once and every vertex relays
    # each chunk as it arrives: ceil(T/b) + h - 1 rounds, and ceil(T/b)
    # messages on each of the n - 1 tree edges; broadcast_upcast itself
    # checks that every vertex delivers the root's list
    g, tree = generators.gen_cycle(65) if shape == "path" else _star(65)
    msgs = [(0, tuple(("m", i, j) for j in range(6))) for i in range(5)]
    delivered, m = broadcast_upcast(g, tree, msgs, budget=budget)
    assert delivered == [msg for _, msg in msgs]
    c = _chunks(msgs, budget)
    assert m.rounds == c + tree.height - 1
    assert m.messages == (g.n - 1) * c
    if shape == "path" and budget == 4:
        assert (m.rounds, m.messages) == (72, 576)


@pytest.mark.parametrize("budget", (1, 4, 7))
@pytest.mark.parametrize("shape", ("path", "star"))
def test_broadcast_from_the_deepest_vertex(shape, budget):
    # one frame climbs store-and-forward, ceil(L/b) rounds a hop, and then
    # comes down cut-through
    g, tree = generators.gen_cycle(65) if shape == "path" else _star(65)
    deepest = max(range(g.n), key=lambda v: (tree.depth[v], v))
    msgs = [(deepest, tuple(range(7)))]
    delivered, m = broadcast_upcast(g, tree, msgs, budget=budget)
    assert delivered == [tuple(range(7))]
    c = _chunks(msgs, budget)
    assert m.rounds == tree.depth[deepest] * c + c + tree.height - 1
    if shape == "path" and budget == 4:
        assert m.rounds == 193


def test_root_streams_its_messages_before_the_last_arrives():
    # the root's own message is down the path before the deep one reaches
    # the root, so the two take as long as the deep one alone
    g, tree = generators.gen_cycle(65)
    mine, deep = tuple("r" * 7), tuple(range(7))
    delivered, m = broadcast_upcast(g, tree, [(64, deep), (0, mine)], budget=4)
    assert delivered == [mine, deep]
    assert m.rounds == 193
    assert m.messages == 64 * 2 + 64 * 4   # 2 chunks a hop up, 4 down each edge


@pytest.mark.parametrize("budget", (1, 4, 7))
@pytest.mark.parametrize("shape", ("path", "star"))
def test_relays_keep_the_roots_chunks(shape, budget):
    # every vertex outputs the very chunk objects the root sent, so the
    # whole broadcast holds ceil(T/b) chunks however many vertices it has
    g, tree = generators.gen_cycle(65) if shape == "path" else _star(65)
    msgs = [(0, tuple(("m", i, j) for j in range(6))) for i in range(5)]
    prog = sim._UpDownProgram(tree, {0: [m for _, m in msgs]}, len(msgs), budget)
    outputs, _ = sim.run(g, prog, budget=budget)
    root_chunks, got = outputs[tree.root]
    assert got == [m for _, m in msgs]
    for chunks, _ in outputs:
        assert len(chunks) == len(root_chunks)
        assert all(c is r for c, r in zip(chunks, root_chunks))
    assert len({id(c) for chunks, _ in outputs for c in chunks}) == _chunks(msgs, budget)


def _root_stream(g, tree, msgs, budget):
    """Run broadcast_upcast with a transcript; return what it delivered, its
    Metrics, and the token stream the root sent down one child edge."""
    lines = []
    sim.TRANSCRIPT_SINK = lines
    try:
        delivered, m = broadcast_upcast(g, tree, msgs, budget=budget)
    finally:
        sim.TRANSCRIPT_SINK = None
    first_child = tree.children[tree.root][0]
    stream = []
    for line in lines[1:]:
        _, src, dst, _, _, payload = line.split(",")
        if int(src) == tree.root and int(dst) == first_child:
            stream.extend(int(tok) for tok in payload.split(";"))
    return delivered, m, tuple(stream)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=7),
       st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8))
def test_property_broadcast_parses_the_stream_once(seed, budget, lengths):
    # empty messages, and frames that cross chunk boundaries whenever a
    # length + 1 is not a multiple of the budget: what is delivered is a
    # plain Channel parse of the root's stream as it went over the wire
    rng = random.Random(seed)
    g, _ = generators.gen_random_2ec(rng.randint(3, 30), rng.randint(0, 15), seed)
    tree = bfs_tree(g, rng.randrange(g.n))
    msgs = [(tree.root, tuple(range(100 * i, 100 * i + n)))
            for i, n in enumerate(lengths)]
    c = _chunks(msgs, budget)

    # from the root alone, the schedule is exact: ceil(T/b) + h - 1 rounds
    delivered, m, stream = _root_stream(g, tree, msgs, budget)
    assert stream == tuple(tok for _, msg in msgs for tok in (len(msg),) + msg)
    assert delivered == [msg for _, msg in Channel(budget).recv([(0, stream)])]
    assert delivered == [msg for _, msg in msgs]
    assert (m.rounds, m.messages) == (c + tree.height - 1, (g.n - 1) * c)

    # from anywhere, in the order the root collected them
    msgs = [(rng.randrange(g.n), msg) for _, msg in msgs]
    delivered, m, stream = _root_stream(g, tree, msgs, budget)
    assert delivered == [msg for _, msg in Channel(budget).recv([(0, stream)])]
    assert sorted(delivered) == sorted(msg for _, msg in msgs)


def _lose_a_chunk_at_vertex_5(tree, chunks, got, st):
    return (chunks[1:] if st.pe == tree.parent_edge[5] else chunks), got


def _lose_a_message_at_the_root(tree, chunks, got, st):
    return chunks, (got[1:] if st.pe < 0 else got)


@pytest.mark.parametrize("tamper, error", [
    (_lose_a_chunk_at_vertex_5, "disagree at vertex 5"),
    (_lose_a_message_at_the_root, "does not parse"),
])
def test_broadcast_rejects_a_tampered_output(monkeypatch, tamper, error):
    # both checks are live: every vertex must hold the root's chunks, and
    # they must parse to exactly the messages the root collected
    g, tree = generators.gen_cycle(9)
    msgs = [(0, tuple(range(7))), (4, ())]
    real_output = sim._UpDownProgram.output

    def tampered_output(self, st):
        return tamper(tree, *real_output(self, st), st)

    assert broadcast_upcast(g, tree, msgs)[0] == [msgs[0][1], ()]
    monkeypatch.setattr(sim._UpDownProgram, "output", tampered_output)
    with pytest.raises(SimError, match=error):
        broadcast_upcast(g, tree, msgs)


@pytest.mark.parametrize("budget", (1, 4, 7))
@pytest.mark.parametrize("shape, framed", [
    ("path", True), ("star", True), ("path", False), ("star", False),
], ids=["path", "star", "path-unframed", "star-unframed"])
def test_convergecast_costs_exactly_h_times_c(shape, framed, budget):
    # framed, k frames of L tokens up every tree edge: c = ceil(k(L+1)/b)
    # messages an edge, and a vertex decides only once all its children's
    # frames are in, so each level adds c rounds. Unframed, one message of
    # one token an edge: h rounds and n - 1 messages at every budget
    g, tree = generators.gen_cycle(65) if shape == "path" else _star(65)
    view = TreeView.of_tree(tree)
    k, L = (2, 3) if framed else (1, 1)

    def decide(v, frames):
        size = 1 + sum(f[0][0] for f in frames.values())
        return size, [(size, v, i)[:L] for i in range(k)]

    prog = sim.Convergecast(view, k, lambda toks: toks, decide, budget,
                            framed=framed)
    sizes, m = sim.run(g, prog, budget=budget)
    assert sizes[tree.root] == g.n
    c = -(-k * (L + 1) // budget) if framed else 1
    assert m.rounds == tree.height * c
    assert m.messages == (g.n - 1) * c
    assert m.tokens == (g.n - 1) * k * (L + framed)
    if shape == "path" and budget == 4:
        assert (m.rounds, m.messages) == ((128, 128) if framed else (64, 64))


@pytest.mark.parametrize("budget", (1, 4, 7))
@pytest.mark.parametrize("shape, framed", [
    ("path", False), ("star", False), ("path", True), ("star", True),
], ids=["path", "star", "path-framed", "star-framed"])
def test_downcast_from_the_root_costs_h_rounds(shape, framed, budget):
    # unframed, one message of one token a tree edge: h rounds. Framed, one
    # frame of L tokens a child: c = ceil((L+1)/b) messages a tree edge, and
    # a vertex acts only once its parent's frame is whole, so each level
    # adds c rounds
    g, tree = generators.gen_cycle(65) if shape == "path" else _star(65)
    view = TreeView.of_tree(tree)
    L = 5 if framed else 1

    def act(v, payload):
        return payload, [(eid, (v,) * L) for _, eid in view.children[v]]

    down = sim.Downcast(lambda v: v == tree.root, act, budget, framed=framed)
    out, m = sim.run(g, down, budget=budget)
    assert out == [None if v == tree.root else (tree.parent[v],) * L
                   for v in range(g.n)]
    c = -(-(L + 1) // budget) if framed else 1
    assert m.rounds == tree.height * c
    assert m.messages == (g.n - 1) * c
    assert m.tokens == (g.n - 1) * (L + framed)



@pytest.mark.parametrize("framed", (False, True), ids=("unframed", "framed"))
def test_a_wave_vertex_builds_a_channel_only_to_queue_or_reassemble(framed):
    # framed, a vertex builds its Channel at its first send, or at its first
    # mail, where it may hold a partial frame: on a star every vertex does.
    # Unframed, a Downcast vertex returns its outbox as it is and a
    # Convergecast vertex returns its one message, so neither builds one;
    # only a Convergecast vertex with k = 2 messages to send up queues them
    g, tree = _star(9)
    view = TreeView.of_tree(tree)
    waves = (
        (sim.Convergecast(view, 1, lambda toks: toks,
                          lambda v, frames: (v, [(v,)]), 4, framed=framed),
         lambda v: framed),
        (sim.Downcast(lambda v: v == tree.root,
                      lambda v, payload: (v, [(eid, (v,)) for _, eid
                                              in view.children[v]]),
                      4, framed=framed),
         lambda v: framed),
        (sim.Convergecast(view, 2, lambda toks: toks,
                          lambda v, frames: (v, [(v,), (v,)]), 4, framed=framed),
         lambda v: framed or v != tree.root),
    )
    for wave, builds in waves:
        states = {}
        init_state = wave.init_state

        def recording(v, init_state=init_state):
            states[v] = init_state(v)
            return states[v]

        wave.init_state = recording
        sim.run(g, wave, budget=4)
        for v, st in states.items():
            assert (st.ch is not None) == builds(v), (wave, v)


@pytest.mark.parametrize("wave", ("convergecast", "downcast"))
def test_unframed_message_over_budget_is_never_split(wave):
    # an unframed wave sends each message as it is: one longer than the
    # budget is the engine's BudgetExceeded, not a stream of pieces
    g, tree = generators.gen_cycle(9)
    view = TreeView.of_tree(tree)
    long_msg = ("x",) * 3
    if wave == "convergecast":
        prog = sim.Convergecast(view, 1, lambda toks: toks,
                                lambda v, frames: (v, [long_msg]), 2,
                                framed=False)
        sender = tree.order[-1]  # the deepest vertex is a leaf
    else:
        prog = sim.Downcast(lambda v: v == tree.root,
                            lambda v, payload: (v, [(eid, long_msg) for _, eid
                                                    in view.children[v]]))
        sender = tree.root
    lines = []
    with pytest.raises(BudgetExceeded) as ei:
        sim.run(g, prog, budget=2, transcript=lines)
    assert (ei.value.vertex, ei.value.round, ei.value.tokens) == (sender, 0, 3)
    assert lines == ["# phase main"]
    # the same wave runs once the budget fits the message
    sim.run(g, prog, budget=3)
    ch = Channel(2, framed=False)
    ch.send(5, long_msg)
    assert ch.flush(True) == ([(5, long_msg)], HALT)



def test_unframed_downcast_sending_twice_on_an_edge_is_rejected():
    # an unframed Downcast hands its outbox to the engine as it is, and the
    # engine carries one message an edge a round
    g, tree = _star(4)
    view = TreeView.of_tree(tree)
    prog = sim.Downcast(lambda v: v == tree.root,
                        lambda v, payload: (v, [(eid, (v,)) for _, eid
                                                in view.children[v]] * 2))
    with pytest.raises(SimError, match="sent twice on an edge"):
        sim.run(g, prog, budget=4)

def _arrivals(g, tree, msgs, budget):
    """Run broadcast_upcast with a transcript; return the round t_k in which
    the root collects the k-th message, the round in which each vertex has
    all k, the messages sent on each downward tree edge, and the Metrics."""
    lines = []
    sim.TRANSCRIPT_SINK = lines
    try:
        _, m = broadcast_upcast(g, tree, msgs, budget=budget)
    finally:
        sim.TRANSCRIPT_SINK = None
    last = [-1] * g.n                    # last round v was sent mail from its parent
    down = {tree.parent_edge[v]: 0 for v in range(g.n) if v != tree.root}
    for line in lines[1:]:
        rnd, _, dst, eid = map(int, line.split(",")[:4])
        if dst == tree.root:
            last[dst] = rnd
        elif eid == tree.parent_edge[dst]:
            last[dst] = rnd
            down[eid] += 1
    t_k = last[tree.root] + 1
    return t_k, [t_k if v == tree.root else last[v] + 1 for v in range(g.n)], down, m


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=7))
def test_property_broadcast_round_bound(seed, budget):
    # a vertex at depth d has all k messages by t_k + ceil(T/b) + d - 1, so
    # every vertex has them by t_k + ceil(T/b) + h
    rng = random.Random(seed)
    g, _ = generators.gen_random_2ec(rng.randint(3, 40), rng.randint(0, 20), seed)
    tree = bfs_tree(g, rng.randrange(g.n))
    msgs = [(rng.randrange(g.n), tuple(range(rng.randrange(9))))
            for _ in range(rng.randint(1, 8))]
    t_k, has_all, down, m = _arrivals(g, tree, msgs, budget)
    c = _chunks(msgs, budget)
    for v in range(g.n):
        assert has_all[v] <= t_k + c + tree.depth[v] - 1
    assert m.rounds <= t_k + c + tree.height - 1
    assert set(down.values()) == {c}
    assert m.max_tokens_edge_round <= budget


def test_duplicate_edge_send_rejected():
    class Dup:
        def __init__(self, g):
            self.g = g

        def init_state(self, v):
            return v

        def step(self, st, rnd, inbox):
            if st == 0:
                eid = self.g.adj[0][0][0]
                return [(eid, ("a",)), (eid, ("b",))], HALT
            return [], IDLE

        def output(self, st):
            return None

    g = path_graph(2)
    with pytest.raises(SimError):
        sim.run(g, Dup(g))


def test_framing_lives_only_in_sim():
    retired = re.compile(r"""\(\s*["']le["']\s*,\s*\)|["'](eo|um|dm)["']""")
    for path in sorted(pathlib.Path(sim.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name != "sim.py":
            assert "TokenStream" not in text, path.name
        assert not retired.search(text), path.name


SRC = pathlib.Path(sim.__file__).parent


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports_in_package():
    for path in sorted(SRC.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text()))
        assert not unused, (path.name, unused)


def _engine_programs():
    """(module, class) of every class under src/treeaug with init_state."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == "init_state"
                    for f in node.body):
                found.add(("treeaug." + path.stem, node.name))
    return found


def test_engine_state_is_slotted_everywhere(monkeypatch):
    dict_subscript = re.compile(r"""\bst\[\s*["']""")
    for path in sorted(SRC.glob("*.py")):
        assert not dict_subscript.search(path.read_text()), path.name

    from treeaug import apps, fast, unweighted, weighted
    real_run = sim.run
    states = {}

    def recording_run(g, program, *args, **kwargs):
        cls = type(program)
        states[(cls.__module__, cls.__name__)] = program.init_state(0)
        return real_run(g, program, *args, **kwargs)

    monkeypatch.setattr(sim, "run", recording_run)
    g, tree = generators.gen_random_2ec(40, 25, 2, wmin=1, wmax=9)
    unweighted.augment_unweighted(g, tree)
    weighted.augment_weighted(g, tree)
    fast.augment_fast(g, tree)
    apps.verify_2ec_distributed(g)
    labels = unweighted.cover_virtual_optimal(g, tree)["labels"]
    weighted.disseminate_ancestors(g, tree, labels)

    assert set(states) == _engine_programs()
    for prog, st in sorted(states.items()):
        assert "__slots__" in vars(type(st)), prog
        assert not hasattr(st, "__dict__"), prog


class _GcProbe:
    """Records gc.isenabled() at every step, then halts."""

    def __init__(self):
        self.seen = []

    def init_state(self, v):
        return None

    def step(self, st, rnd, inbox):
        self.seen.append(gc.isenabled())
        return [], HALT

    def output(self, st):
        return None


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _run_to_quiescence():
    g = path_graph(3)
    sim.run(g, Flood(g))


def _run_over_budget():
    g = path_graph(3)
    with pytest.raises(BudgetExceeded):
        sim.run(g, Overflow(g), budget=4)


def _run_past_round_limit():
    g = path_graph(2)
    with pytest.raises(RoundLimitExceeded):
        sim.run(g, Chatter(g), max_rounds=10)


@pytest.mark.parametrize("ending", [_run_to_quiescence, _run_over_budget,
                                    _run_past_round_limit])
@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_setting(enabled, ending):
    was = gc.isenabled()
    try:
        _set_collector(enabled)
        ending()
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was)


def test_collector_is_paused_inside_run():
    was = gc.isenabled()
    try:
        gc.enable()
        probe = _GcProbe()
        sim.run(path_graph(4), probe)
        assert probe.seen == [False] * 4
        assert gc.isenabled()
    finally:
        _set_collector(was)
