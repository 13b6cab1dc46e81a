import ast
import gc
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from treeaug import apps, cli, fast, generators, sim, unweighted, weighted
from treeaug.graph import Multigraph, bfs_tree, root_tree, write_instance
from treeaug.labels import TreeView
from treeaug.sim import (ACTIVE, HALT, IDLE, BudgetExceeded, Metrics,
                         Channel, PhaseMetrics, RoundLimitExceeded, SimError,
                         TokenStream, broadcast_upcast)
from treeaug.unweighted import BridgeDetected


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
    with pytest.raises(RoundLimitExceeded) as ei:
        sim.run(g, Chatter(g), max_rounds=10)
    # vertex 0 sent one 1-token message in each of rounds 0..9
    (pm,) = ei.value.metrics.phases
    assert (pm.phase, pm.rounds, pm.messages, pm.tokens,
            pm.max_tokens_edge_round) == ("main", 10, 10, 10, 1)


class _SendOnce:
    """Vertex `sender` returns `outbox` in round 0; every vertex then halts."""

    def __init__(self, outbox, sender=0):
        self.outbox = outbox
        self.sender = sender

    def init_state(self, v):
        return v

    def step(self, v, rnd, inbox):
        return (self.outbox if v == self.sender else []), HALT

    def output(self, v):
        return None


@pytest.mark.parametrize("sender, outbox, error", [
    (0, [(1, ("a",))], "vertex 0 not incident to edge 1"),
    (1, [(-1, ("a",))], "vertex 1 not incident to edge -1"),
    (1, [(2, ("a",))], "vertex 1 not incident to edge 2"),
    (0, [(0, ())], "empty message on edge 0"),
    (0, [(0, ("a",)), (1, ("b",)), (0, ("c",))], "sent twice on an edge"),
], ids=["not-incident", "edge-minus-one", "edge-m", "empty", "twice-not-adjacent"])
def test_engine_rejects_a_bad_outbox(sender, outbox, error):
    # on the 3-vertex path, edge 0 joins 0 and 1 and edge 1 joins 1 and 2:
    # vertex 0 is not on edge 1, and vertex 1, on both, is on no edge -1
    # (which Python's negative index would read as edge 1) or 2 = m. On the
    # star, edge e joins the centre 0 to leaf e + 1
    g = path_graph(3) if "not incident" in error else _star(4)[0]
    lines = []
    with pytest.raises(SimError, match=error):
        sim.run(g, _SendOnce(outbox, sender), transcript=lines)
    assert lines == ["# phase main"]


def test_transcript_on_parallel_edges_is_sorted_by_src_dst_edge():
    # edge ids run against the source order, and the parallel edges between
    # 0 and 1 against each other; every vertex sends on every edge in round 0
    g = Multigraph(3)
    for u, v in ((2, 1), (1, 0), (2, 0), (0, 1), (1, 2), (1, 0)):
        g.add_edge(u, v, 1)
    sends = [[(eid, (v,)) for eid, _ in g.adj[v]] for v in range(g.n)]

    class EveryEdge:
        def init_state(self, v):
            return v

        def step(self, v, rnd, inbox):
            return (sends[v] if rnd == 0 else []), IDLE

        def output(self, v):
            return None

    lines = []
    sim.run(g, EveryEdge(), transcript=lines)
    assert lines == ["# phase main",
                     "0,0,1,1,1,0", "0,0,1,3,1,0", "0,0,1,5,1,0", "0,0,2,2,1,0",
                     "0,1,0,1,1,1", "0,1,0,3,1,1", "0,1,0,5,1,1",
                     "0,1,2,0,1,1", "0,1,2,4,1,1",
                     "0,2,0,2,1,2", "0,2,1,0,1,2", "0,2,1,4,1,2"]


class _Scheduled:
    """Records the rounds each vertex is stepped in. Vertex 0 is ACTIVE in
    rounds 0-2, mails vertex 1 in round 2 and halts in round 3; vertex 1 is
    IDLE and answers mail on both its edges; vertex 2 halts in round 0, so
    the answers to 0 and 2 reach halted vertices."""

    def __init__(self, n):
        self.steps = [[] for _ in range(n)]

    def init_state(self, v):
        return v

    def step(self, v, rnd, inbox):
        self.steps[v].append(rnd)
        if v == 0:
            return ([(0, ("p",))] if rnd == 2 else []), HALT if rnd == 3 else ACTIVE
        if v == 1:
            return ([(0, ("q",)), (1, ("r",))] if inbox else []), IDLE
        return [], HALT

    def output(self, v):
        return None


def test_scheduler_steps_active_every_round_idle_on_mail_halted_never():
    g = path_graph(3)
    prog = _Scheduled(g.n)
    lines = []
    _, m = sim.run(g, prog, transcript=lines)
    assert prog.steps == [[0, 1, 2, 3], [0, 3], [0]]
    assert (m.rounds, m.messages, m.tokens) == (4, 3, 3)
    assert lines == ["# phase main", "2,0,1,0,1,p", "3,1,0,0,1,q", "3,1,2,1,1,r"]


@pytest.mark.parametrize("order", ([0, 1], [0, 1, 1], [0, 1, 3], [2, 1, 0, 3]))
def test_eval_order_must_be_a_permutation(order):
    # an order that leaves a vertex out would never step it and lose its mail
    g = path_graph(3)
    with pytest.raises(ValueError, match="permutation"):
        sim.run(g, Flood(g), eval_order=order)
    out, _ = sim.run(g, Flood(g), eval_order=[2, 0, 1])
    assert out == [None, 1, 2]


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
    lines = []
    out, m = sim.run(g, LateMail(g), transcript=lines)
    assert out[1] == 0          # never delivered
    assert m.messages == 1      # still paid for
    assert lines == ["# phase main", "1,0,1,0,1,x"]  # and still logged


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
    _, m = broadcast_upcast(g, tree, [(0, tuple(range(10)))], _at_zero,
                            budget=4)
    assert (m.rounds, m.messages) == (3, 3 * 8)
    assert calls == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
    assert len(lines) == 1 + 3 * 8


def test_no_transcript_formats_nothing(monkeypatch):
    calls = _count_formats(monkeypatch)
    g, tree = _star(9)
    broadcast_upcast(g, tree, [(0, tuple(range(10)))], _at_zero, budget=4)
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
    s.push_frame(("a", "b", "c", "d"))
    assert s.take(4) == (4, "a", "b", "c")
    assert s.buf == ["d"]
    assert s.take(4) == ("d",)
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
        delivered, m = broadcast_upcast(g, tree, msgs, _tokens)
        assert sorted(delivered) == sorted(tuple(t) for _, t in msgs)
        assert m.max_tokens_edge_round <= 4


def test_broadcast_upcast_round_bound():
    # k short messages over a depth-h tree: <= 4(h + k) + 8 rounds
    for n, k in ((16, 1), (40, 5), (60, 12)):
        g, _ = generators.gen_cycle(n)
        tree = bfs_tree(g, 0)
        msgs = [(n - 1 - i, (("m", i),)) for i in range(k)]
        delivered, m = broadcast_upcast(g, tree, msgs, _tokens)
        assert len(delivered) == k
        assert m.rounds <= 4 * (tree.height + k) + 8, (n, k, m.rounds)


def _star(n):
    g = Multigraph(n)
    return g, root_tree(g, [g.add_edge(0, v, 1) for v in range(1, n)], 0)


def _chunks(msgs, budget):
    # ceil(T / budget), T the broadcast stream's length in tokens
    return -(-sum(len(m) for _, m in msgs) // budget)


def _cut_before(is_head):
    """A broadcast `split` for test messages that each start with a head
    token: a message starts at every token `is_head` accepts."""
    def split(stream):
        starts = [i for i, tok in enumerate(stream) if is_head(tok)]
        return [stream[i:j] for i, j in zip(starts, starts[1:] + [len(stream)])]
    return split


_at_zero = _cut_before(lambda tok: tok == 0)
_tokens = _cut_before(lambda tok: True)  # one-token messages
_at_m_zero = _cut_before(lambda tok: tok[2] == 0)  # ("m", i, 0) heads


@pytest.mark.parametrize("budget", (1, 4, 7))
@pytest.mark.parametrize("shape", ("path", "star"))
def test_broadcast_from_the_root_is_cut_through(shape, budget):
    # the root streams its k messages down at once and every vertex relays
    # each chunk as it arrives: ceil(T/b) + h - 1 rounds, and ceil(T/b)
    # messages on each of the n - 1 tree edges; broadcast_upcast itself
    # checks that every vertex delivers the root's list
    g, tree = generators.gen_cycle(65) if shape == "path" else _star(65)
    msgs = [(0, tuple(("m", i, j) for j in range(6))) for i in range(5)]
    delivered, m = broadcast_upcast(g, tree, msgs, _at_m_zero, budget=budget)
    assert delivered == [msg for _, msg in msgs]
    c = _chunks(msgs, budget)
    assert m.rounds == c + tree.height - 1
    assert m.messages == (g.n - 1) * c
    if shape == "path" and budget == 4:
        # 8 chunks of the 30-token stream; framed, 9 of 35 gave (72, 576)
        assert (m.rounds, m.messages) == (71, 512)


@pytest.mark.parametrize("budget", (1, 4, 7))
@pytest.mark.parametrize("shape", ("path", "star"))
def test_broadcast_from_the_deepest_vertex(shape, budget):
    # one frame climbs store-and-forward, ceil((L+1)/b) rounds a hop, and
    # then comes down cut-through and unframed, ceil(L/b) chunks
    g, tree = generators.gen_cycle(65) if shape == "path" else _star(65)
    deepest = max(range(g.n), key=lambda v: (tree.depth[v], v))
    msgs = [(deepest, tuple(range(7)))]
    delivered, m = broadcast_upcast(g, tree, msgs, _at_zero, budget=budget)
    assert delivered == [tuple(range(7))]
    up, c = -(-8 // budget), _chunks(msgs, budget)
    assert m.rounds == tree.depth[deepest] * up + c + tree.height - 1
    if shape == "path" and budget == 4:
        assert m.rounds == 193


def test_root_streams_its_messages_before_the_last_arrives():
    # the root sends the one full chunk of its own message down the path in
    # round 0, long before the deep one reaches it in round 128, and holds
    # the other 3 tokens; the remaining 10 tokens go in 3 chunks, so the
    # run takes 128 + 3 + 63 = 194 rounds, where a root that waited for
    # the deep one would take 128 + 4 + 63 = 195, and the deep one alone
    # 128 + 2 + 63 = 193
    g, tree = generators.gen_cycle(65)
    mine, deep = tuple("r" * 7), tuple(range(7))
    delivered, m = broadcast_upcast(g, tree, [(64, deep), (0, mine)],
                                    lambda s: [s[:7], s[7:]], budget=4)
    assert delivered == [mine, deep]
    assert m.rounds == 194
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


def _root_stream(g, tree, msgs, split, budget):
    """Run broadcast_upcast with a transcript; return what it delivered, its
    Metrics, and the token stream the root sent down one child edge."""
    lines = []
    sim.TRANSCRIPT_SINK = lines
    try:
        delivered, m = broadcast_upcast(g, tree, msgs, split, budget=budget)
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
       st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_property_broadcast_parses_the_stream_once(seed, budget, lengths):
    # messages that cross chunk boundaries whenever a length is not a
    # multiple of the budget: the root's stream as it went over the wire is
    # the messages back to back, with no length token, and what is
    # delivered is the caller's split of it
    rng = random.Random(seed)
    g, _ = generators.gen_random_2ec(rng.randint(3, 30), rng.randint(0, 15), seed)
    tree = bfs_tree(g, rng.randrange(g.n))
    msgs = [(tree.root, tuple(range(100 * i, 100 * i + n)))
            for i, n in enumerate(lengths)]
    split = _cut_before(lambda tok: tok % 100 == 0)
    c = _chunks(msgs, budget)

    # from the root alone, the schedule is exact: ceil(T/b) + h - 1 rounds
    delivered, m, stream = _root_stream(g, tree, msgs, split, budget)
    assert stream == tuple(tok for _, msg in msgs for tok in msg)
    assert delivered == split(stream) == [msg for _, msg in msgs]
    assert (m.rounds, m.messages) == (c + tree.height - 1, (g.n - 1) * c)

    # from anywhere, in the order the root collected them
    msgs = [(rng.randrange(g.n), msg) for _, msg in msgs]
    delivered, m, stream = _root_stream(g, tree, msgs, split, budget)
    assert delivered == split(stream)
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
    msgs = [(0, tuple(range(7))), (4, (0,))]
    real_output = sim._UpDownProgram.output

    def tampered_output(self, st):
        return tamper(tree, *real_output(self, st), st)

    assert broadcast_upcast(g, tree, msgs, _at_zero)[0] == [msgs[0][1], (0,)]
    monkeypatch.setattr(sim._UpDownProgram, "output", tampered_output)
    with pytest.raises(SimError, match=error):
        broadcast_upcast(g, tree, msgs, _at_zero)


def test_broadcast_rejects_a_split_that_cuts_wrongly():
    # the stream every vertex holds must split into exactly the messages
    # the root collected; a split that cuts at the wrong tokens is caught
    g, tree = generators.gen_cycle(9)
    msgs = [(0, tuple(range(7))), (4, (0, 1))]
    assert broadcast_upcast(g, tree, msgs, _at_zero)[0] == [m for _, m in msgs]
    for split in (_tokens, _cut_before(lambda tok: tok == 1),
                  lambda s: [s]):
        with pytest.raises(SimError, match="does not parse"):
            broadcast_upcast(g, tree, msgs, split)


def test_broadcast_rejects_an_empty_message():
    # the unframed down stream has nothing to carry an empty message with
    g, tree = generators.gen_cycle(9)
    with pytest.raises(SimError, match="empty broadcast message from vertex 4"):
        broadcast_upcast(g, tree, [(0, (0, 1)), (4, ())], _at_zero)


@pytest.mark.parametrize("budget", (1, 4, 7))
@pytest.mark.parametrize("shape, framed", [
    ("path", True), ("star", True), ("path", False), ("star", False),
], ids=["path", "star", "path-unframed", "star-unframed"])
def test_convergecast_costs_exactly_h_times_c(shape, framed, budget):
    # framed, one frame of L tokens up every tree edge: c = ceil((L+1)/b)
    # messages an edge, and a vertex decides only once all its children's
    # frames are in, so each level adds c rounds. Unframed, one message of
    # one token an edge: h rounds and n - 1 messages at every budget
    g, tree = generators.gen_cycle(65) if shape == "path" else _star(65)
    view = TreeView.of_tree(tree)
    L = 7 if framed else 1

    def decide(v, msgs):
        size = 1 + sum(msg[0] for msg in msgs.values())
        return size, (size,) + (v,) * (L - 1)

    prog = sim.Convergecast(view, lambda toks: toks, decide, budget,
                            framed=framed)
    sizes, m = sim.run(g, prog, budget=budget)
    assert sizes[tree.root] == g.n
    c = -(-(L + 1) // budget) if framed else 1
    assert m.rounds == tree.height * c
    assert m.messages == (g.n - 1) * c
    assert m.tokens == (g.n - 1) * (L + framed)
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

    def act(v, mail):
        return (None if mail is None else mail[0][1],
                [(eid, (v,) * L) for _, eid in view.children[v]])

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
    # mail, where it may hold a partial frame: on a star every vertex does,
    # also when its message streams over several rounds. Unframed, a
    # Downcast vertex returns its outbox as it is and a Convergecast vertex
    # returns its one message, so neither builds one
    g, tree = _star(9)
    view = TreeView.of_tree(tree)
    waves = [
        sim.Convergecast(view, lambda toks: toks,
                         lambda v, msgs: (v, (v,)), 4, framed=framed),
        sim.Downcast(lambda v: v == tree.root,
                     lambda v, payload: (v, [(eid, (v,)) for _, eid
                                             in view.children[v]]),
                     4, framed=framed),
    ]
    if framed:
        waves.append(sim.Convergecast(view, lambda toks: toks,
                                      lambda v, msgs: (v, (v,) * 6), 4))
    for wave in waves:
        states = {}
        init_state = wave.init_state

        def recording(v, init_state=init_state):
            states[v] = init_state(v)
            return states[v]

        wave.init_state = recording
        sim.run(g, wave, budget=4)
        for v, st in states.items():
            assert (st.ch is not None) == framed, (wave, v)


@pytest.mark.parametrize("wave", ("convergecast", "downcast"))
def test_unframed_message_over_budget_is_never_split(wave):
    # an unframed wave sends each message as it is: one longer than the
    # budget is the engine's BudgetExceeded, not a stream of pieces
    g, tree = generators.gen_cycle(9)
    view = TreeView.of_tree(tree)
    long_msg = ("x",) * 3
    if wave == "convergecast":
        prog = sim.Convergecast(view, lambda toks: toks,
                                lambda v, msgs: (v, long_msg), 2,
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
    # the same wave runs once the budget fits the message, one whole message
    # a tree edge
    _, m = sim.run(g, prog, budget=3)
    assert (m.messages, m.tokens) == (g.n - 1, 3 * (g.n - 1))



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
        _, m = broadcast_upcast(g, tree, msgs, _at_zero, budget=budget)
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
    msgs = [(rng.randrange(g.n), tuple(range(rng.randrange(1, 9))))
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
    retired = re.compile(r"""\(\s*["']le["']\s*,\s*\)|["'](eo|um|dm|lh)["']""")
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


def test_collector_paused_works_as_a_context_and_a_decorator():
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            _set_collector(enabled)
            with sim.collector_paused():
                with sim.collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert gc.isenabled() is enabled

            @sim.collector_paused()
            def fails(depth):
                assert not gc.isenabled()
                if depth:
                    return fails(depth - 1)
                raise KeyError(depth)

            with pytest.raises(KeyError):
                fails(2)
            assert gc.isenabled() is enabled
    finally:
        _set_collector(was)


def _bridged():
    # the tree is the path 0-1-2-3 and the chord {1, 3}: the tree edge
    # {0, 1} is a bridge
    g = Multigraph(4)
    tree_ids = [g.add_edge(v, v + 1, 1) for v in range(3)]
    g.add_edge(1, 3, 2)
    return g, root_tree(g, tree_ids, 0)


# each `treeaug run` algorithm's library entry, called on (g, tree, budget)
ENTRIES = {
    "tap": lambda g, t, b: unweighted.augment_unweighted(g, t, budget=b),
    "wtap": lambda g, t, b: weighted.augment_weighted(g, t, budget=b),
    "fast": lambda g, t, b: fast.augment_fast(g, t, budget=b),
    "ecss": lambda g, t, b: apps.two_ecss_unweighted(g, budget=b),
    "ecss-w": lambda g, t, b: apps.two_ecss_weighted(g, budget=b),
    "aug12": lambda g, t, b: apps.augment_1_to_2(g, t.tree_edges, budget=b),
    "verify": lambda g, t, b: apps.verify_2ec_distributed(g, budget=b),
}


# every entry on a 2-edge-connected and on a bridged instance; below
# MIN_BUDGET only the entries built on the weighted augmentation, which
# raise ValueError there (the command line refuses the budget itself)
ENTRY_ENDINGS = ([(name, ending) for name in ENTRIES
                  for ending in ("return", "bridge")]
                 + [(name, "low-budget") for name in ("wtap", "ecss-w", "aug12")])


@pytest.mark.parametrize("via", ["library", "cli"])
@pytest.mark.parametrize("name, ending", ENTRY_ENDINGS)
@pytest.mark.parametrize("enabled", [True, False])
def test_every_algorithm_entry_restores_the_callers_collector(
        enabled, name, ending, via, tmp_path, monkeypatch):
    # the collector stays paused from the call's first phase to its last,
    # and the caller's setting comes back however the call ends; verify
    # reports a bridge rather than raising
    if ending == "bridge":
        g, tree = _bridged()
    else:
        g, tree = generators.gen_random_2ec(14, 8, 3, wmin=1, wmax=9)
    budget = 2 if ending == "low-budget" else sim.DEFAULT_BUDGET
    phase_starts = []  # the collector's state as each run, or read, starts

    def probe(real):
        def call(*args, **kwargs):
            phase_starts.append(gc.isenabled())
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(sim, "run", probe(sim.run))
    monkeypatch.setattr(cli, "read_instance", probe(cli.read_instance))
    was = gc.isenabled()
    try:
        _set_collector(enabled)
        if via == "cli":
            path = str(tmp_path / "inst.txt")
            write_instance(path, g, tree)
            rc = cli.main(["run", path, "--algo", name, "--budget", str(budget)])
            bridge_rc = 0 if name == "verify" else 2
            assert rc == {"return": 0, "bridge": bridge_rc, "low-budget": 1}[ending]
        elif ending == "return" or (ending == "bridge" and name == "verify"):
            ENTRIES[name](g, tree, budget)
        elif ending == "bridge":
            with pytest.raises(BridgeDetected):
                ENTRIES[name](g, tree, budget)
        else:
            with pytest.raises(ValueError, match="at least 3"):
                ENTRIES[name](g, tree, budget)
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was)
    if ending != "low-budget":
        assert len(phase_starts) >= 2
    assert not any(phase_starts)
