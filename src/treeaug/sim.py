"""Round-synchronous message-passing engine with per-edge token budgets.

One token stands for one O(log n)-bit quantity (a vertex id, edge id,
weight, label word, or control flag). Each edge carries at most `budget`
tokens per direction per round; a violation aborts the run.

Programs are per-vertex state machines:

    state = program.init_state(v)
    outbox, status = program.step(state, rnd, inbox)
    localOutput = program.output(state)

`inbox` is None when no mail arrived, else a list of (edge_id, payload)
sorted by edge id; `outbox` is a list of (edge_id, payload) with payload
a tuple of tokens. `status` is ACTIVE (step me next round even without
mail), IDLE (wake me on mail), or HALT (done; later mail is dropped).
Vertices are stepped in ascending id order but may only interact through
messages, so evaluation order is
unobservable; the transcript-equality test pins that down. Programs keep
their per-vertex state in a `__slots__` class. A vertex sends only on its
own edges: any other edge id, negative or past the last edge included,
raises SimError. A per-vertex `Channel` sends a program's messages
framed: a length token, then the message, streamed under the budget. The
algorithms' two tree waves are written once here, framed or unframed as
the caller picks (unframed, each message goes as it is, one per edge a
round, never split): `Convergecast`, a leaves-to-root scan in which each
vertex decides once its children's messages, one each, are in and sends
its own one up, and `Downcast`, a wave from its starting vertices in
which each vertex acts once, on the first round in which mail reaches
it: a root-to-leaves relay, or the BFS flood over every edge.
`broadcast_upcast` gathers k messages at a tree root, store-and-forward
and framed, and streams them down cut-through and unframed: the root
appends each message to its down stream as it collects it, with no length
token, and every vertex relays each chunk to its children in the round it
arrives. A relay keeps the root's chunks without reading them and never
halts; the run ends when the tree falls quiet. The caller's messages
delimit themselves: the stream is cut back into them once, after the run,
by the caller's `split`, when every vertex is shown to hold the same
chunks.

A transcript is one "round,src,dst,edge,tokens,payload" line per delivered
message, written to a sink: any object with `append(line)` and
`extend(lines)`, such as a list or the command line tool's file writer.
Each round's lines are built after the round from the mail it delivers,
in (src, dst, edge) order, and go to the sink in one `extend`; each
distinct payload object is formatted once per round, however many edges
carry it, and each directed edge's "src,dst,edge," text once per run.

A run allocates millions of short-lived message tuples and frees them all
again, so CPython's cyclic garbage collector finds nothing to free but
would still sweep every live object many times over. `run` therefore
pauses the collector for its length, with `collector_paused`, and restores
the caller's setting when it returns or raises. The algorithms' public
entries (each `treeaug run` algorithm, and the command's `run`) pause it
for their whole call the same way, so that the drivers' own work between
runs does not trigger collections over a heap holding the instance.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

ACTIVE = 0
IDLE = 1
HALT = 2

DEFAULT_BUDGET = 4
DEFAULT_MAX_ROUNDS = 1 << 20

# when set (a transcript sink), every run() without an explicit transcript
# writes its delivery log here; the command line tool uses this to capture
# whole multi-phase pipelines
TRANSCRIPT_SINK = None


class SimError(Exception):
    pass


class BudgetExceeded(SimError):
    def __init__(self, vertex, edge, rnd, tokens, budget):
        super().__init__(
            "vertex %d sent %d tokens on edge %d in round %d (budget %d)"
            % (vertex, tokens, edge, rnd, budget))
        self.vertex = vertex
        self.edge = edge
        self.round = rnd
        self.tokens = tokens


class RoundLimitExceeded(SimError):
    def __init__(self, max_rounds, metrics):
        super().__init__("no quiescence after %d rounds" % max_rounds)
        self.metrics = metrics


@dataclass
class PhaseMetrics:
    phase: str
    rounds: int = 0
    messages: int = 0
    tokens: int = 0
    max_tokens_edge_round: int = 0
    # charged a round count for a central computation, not run on the engine;
    # not part of the CSV
    nominal: bool = False


@dataclass
class Metrics:
    """Per-phase and aggregate communication accounting."""

    phases: list[PhaseMetrics] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return sum(p.rounds for p in self.phases)

    @property
    def messages(self) -> int:
        return sum(p.messages for p in self.phases)

    @property
    def tokens(self) -> int:
        return sum(p.tokens for p in self.phases)

    @property
    def max_tokens_edge_round(self) -> int:
        return max((p.max_tokens_edge_round for p in self.phases), default=0)

    def phase(self, name: str) -> PhaseMetrics:
        for p in self.phases:
            if p.phase == name:
                return p
        raise KeyError(name)

    def merge(self, other: "Metrics"):
        self.phases.extend(other.phases)
        return self

    def to_csv(self) -> str:
        out = ["phase,rounds,messages,tokens,max_tokens_edge_round"]
        for p in self.phases:
            out.append("%s,%d,%d,%d,%d"
                       % (p.phase, p.rounds, p.messages, p.tokens, p.max_tokens_edge_round))
        out.append("total,%d,%d,%d,%d"
                   % (self.rounds, self.messages, self.tokens, self.max_tokens_edge_round))
        return "\n".join(out) + "\n"


def run(g, program, budget: int = DEFAULT_BUDGET, max_rounds: int | None = None,
        phase: str = "main", transcript=None,
        eval_order=None):
    """Drive `program` on multigraph `g` to quiescence.

    Returns (outputs, Metrics) where outputs[v] = program.output(state_v).
    `transcript`, if given (else `TRANSCRIPT_SINK`), is a sink with `append`
    and `extend`: it gets a "# phase <phase>" line, then one
    "round,src,dst,edge,tokens,payload" line per delivered message, each
    round's lines in one `extend`, built after the round from the mail it
    delivers (mail to a halted vertex, dropped, included). Each distinct
    payload object is formatted once per round.
    `eval_order`, a permutation of range(g.n), overrides the per-round
    vertex evaluation order (testing hook; results must not depend on it);
    anything else raises ValueError.

    The cyclic garbage collector is paused (`collector_paused`) for the
    whole run, from the first `init_state` to the last `output`; the
    caller's setting is restored on return and on every exception.
    """
    if eval_order is not None and sorted(eval_order) != list(range(g.n)):
        raise ValueError("eval_order must be a permutation of range(%d)" % g.n)
    if max_rounds is None:
        max_rounds = DEFAULT_MAX_ROUNDS
    if transcript is None:
        transcript = TRANSCRIPT_SINK
    if transcript is not None:
        transcript.append("# phase %s" % phase)
    with collector_paused():
        return _run_rounds(g, program, budget, max_rounds, phase, transcript,
                           eval_order)


@contextmanager
def collector_paused():
    """Pause CPython's cyclic garbage collector for a `with` block, or, as
    `@collector_paused()`, for every call of a function; the caller's
    setting is restored on exit, by return or by any exception. Nested
    pauses restore in turn, so only the outermost re-enables it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _run_rounds(g, program, budget, max_rounds, phase, transcript, eval_order):
    n = g.n
    edges = g.edges
    m_edges = len(edges)
    prefixes = {}  # a directed edge's transcript line prefix, by _round_lines key
    states = [program.init_state(v) for v in range(n)]
    halted = [False] * n
    # the vertices that returned ACTIVE last round, in the order stepped
    awake = range(n) if eval_order is None else eval_order
    inbox_map: dict[int, list] = {}
    step = program.step
    n_msgs = n_toks = max_tok = 0
    last_comm_round = -1

    rnd = 0
    while awake or inbox_map:
        if rnd >= max_rounds:
            raise RoundLimitExceeded(max_rounds, Metrics(
                [PhaseMetrics(phase, rnd, n_msgs, n_toks, max_tok)]))
        if not inbox_map:
            actives = awake
        elif eval_order is None:
            actives = sorted(inbox_map.keys() | awake)
        else:
            pend = inbox_map.keys() | awake
            actives = [v for v in eval_order if v in pend]
        next_awake = []
        next_inbox: dict[int, list] = {}
        for v in actives:
            inbox = inbox_map.get(v)
            if inbox is not None:
                if halted[v]:
                    continue  # late mail to a halted vertex is dropped
                if len(inbox) > 1:
                    inbox.sort()
            outbox, status = step(states[v], rnd, inbox)
            if outbox:
                k = len(outbox)
                if k > 1 and len(dict(outbox)) != k:
                    raise SimError("vertex %d sent twice on an edge in round %d"
                                   % (v, rnd))
                n_msgs += k
                for msg in outbox:
                    eid, payload = msg
                    ntok = len(payload)
                    if not 0 < ntok <= budget:
                        if ntok:
                            raise BudgetExceeded(v, eid, rnd, ntok, budget)
                        raise SimError("empty message on edge %d" % eid)
                    n_toks += ntok
                    if ntok > max_tok:
                        max_tok = ntok
                    if not 0 <= eid < m_edges:
                        raise SimError("vertex %d not incident to edge %d" % (v, eid))
                    eu, ev, _ = edges[eid]
                    if v == eu:
                        dst = ev
                    elif v == ev:
                        dst = eu
                    else:
                        raise SimError("vertex %d not incident to edge %d" % (v, eid))
                    bucket = next_inbox.get(dst)
                    if bucket is None:
                        next_inbox[dst] = [msg]
                    else:
                        bucket.append(msg)
            if status == ACTIVE:
                next_awake.append(v)
            elif status != IDLE:
                halted[v] = True
        if next_inbox:
            last_comm_round = rnd
            if transcript is not None:
                transcript.extend(_round_lines(rnd, next_inbox, edges, n,
                                              prefixes))
        awake = next_awake
        inbox_map = next_inbox
        rnd += 1

    pm = PhaseMetrics(phase, last_comm_round + 1, n_msgs, n_toks, max_tok)
    outputs = [program.output(s) for s in states]
    return outputs, Metrics([pm])


def _round_lines(rnd, mail, edges, n, prefixes):
    """The transcript lines of the round `rnd`, which left `mail`, on a
    graph of n vertices and `edges`.

    Lines go in (src, dst, edge) order, independent of the vertex
    evaluation order, sorted by the one int key (src*n + dst)*m + edge;
    the triple is unique within a round, so payloads are never compared.
    `prefixes` caches each directed edge's "src,dst,edge," text by key
    across the rounds of one run."""
    m = len(edges)
    keyed = []
    for dst, bucket in mail.items():
        for eid, payload in bucket:
            eu, ev, _ = edges[eid]
            keyed.append((((eu + ev - dst) * n + dst) * m + eid, payload))
    keyed.sort()
    # a payload sent on several edges (a broadcast chunk) is formatted
    # once: `mail` holds every payload until the round's lines are
    # written, so no id is reused for another object meanwhile
    text: dict[int, str] = {}
    head = "%d," % rnd
    lines = []
    for key, payload in keyed:
        pre = prefixes.get(key)
        if pre is None:
            rest, eid = divmod(key, m)
            pre = prefixes[key] = "%d,%d,%d," % (*divmod(rest, n), eid)
        t = text.get(id(payload))
        if t is None:
            t = text[id(payload)] = "%d,%s" % (len(payload), _fmt_payload(payload))
        lines.append(head + pre + t)
    return lines


def _fmt_payload(payload) -> str:
    return ";".join(":".join(map(str, tok)) if type(tok) is tuple else str(tok)
                    for tok in payload)


class TokenStream:
    """Per-edge outgoing token queue; drained at most `budget` tokens a round."""

    __slots__ = ("buf",)

    def __init__(self):
        self.buf = []

    def push_frame(self, tokens):
        """Queue one frame: a length token, then `tokens`."""
        self.buf.append(len(tokens))
        self.buf.extend(tokens)

    def take(self, budget):
        if not self.buf:
            return None
        out = tuple(self.buf[:budget])
        del self.buf[:budget]
        return out


class Channel:
    """One vertex's framed streams over its incident edges.

    Each message is sent as a frame: one length token followed by that many
    tokens, streamed under the budget and handed to the receiver once its
    last token arrives. Frames on one edge arrive whole and in the order
    they were sent.
    """

    __slots__ = ("budget", "_out", "_partial")

    def __init__(self, budget):
        self.budget = budget
        self._out: dict[int, TokenStream] = {}  # edge -> its queue
        self._partial: dict[int, tuple] = {}  # edge -> tokens of an unfinished frame

    def send(self, eid, tokens):
        """Queue a message carrying `tokens` on edge `eid`; a frame may
        carry none."""
        s = self._out.get(eid)
        if s is None:
            s = self._out[eid] = TokenStream()
        s.push_frame(tokens)

    def recv(self, inbox):
        """The messages this round's mail completed, as (eid, tokens)."""
        if not inbox:
            return ()
        frames = []
        partial = self._partial
        for eid, payload in inbox:
            buf = partial.pop(eid, None)
            buf = payload if buf is None else buf + payload
            i, n = 0, len(buf)
            while i < n:
                end = i + 1 + buf[i]
                if end > n:
                    partial[eid] = buf[i:]
                    break
                frames.append((eid, buf[i + 1:end]))
                i = end
        return frames

    def flush(self, done):
        """This round's outbox, one message of at most `budget` tokens per
        edge, and the status: ACTIVE while anything is queued, else HALT if
        `done`, else IDLE."""
        outbox = []
        queued = False
        for eid, s in self._out.items():
            if s.buf:
                outbox.append((eid, s.take(self.budget)))
                if s.buf:
                    queued = True
        if queued:
            return outbox, ACTIVE
        return outbox, HALT if done else IDLE


# ---------------------------------------------------------------------------
# the two tree waves. Convergecast runs over a TreeView, a rooted forest
# given by parent_edge[v] (-1 at a root) and children[v], a list of
# (child, edge id) pairs; Downcast's `act` reads its edges itself. A
# framed wave vertex builds its Channel at its first send or its first
# mail, since only then does it hold a partial frame; until then it has
# nothing queued, so its flush is empty. An unframed wave vertex returns
# its outbox as it is and builds no Channel; `run` rejects two messages on
# one edge.

def _channel(st, budget):
    """The framed wave vertex's Channel, built on first use."""
    ch = st.ch
    if ch is None:
        ch = st.ch = Channel(budget)
    return ch


def _flush(st):
    return ([], HALT) if st.ch is None else st.ch.flush(True)


class _ConvergeState:
    __slots__ = ("v", "pe", "msgs", "missing", "ch", "result")

    def __init__(self, v, pe, children):
        self.v = v
        self.pe = pe
        self.msgs = {eid: None for _, eid in children}  # child edge -> parsed message
        self.missing = len(children)
        self.ch = None
        self.result = None


class Convergecast:
    """Leaves-to-root wave: every non-root vertex sends its parent one
    message.

    A vertex parses the message from each child edge with `parse(tokens)`.
    Once it holds one from every child it calls `decide(v, msgs)`, where
    `msgs` maps each child edge, in `children[v]` order, to its parsed
    message; `decide` returns (result, up). A non-root vertex then sends
    the token tuple `up` to its parent: framed, through a Channel;
    unframed, as its outbox as it is. The vertex outputs `result`.

    Cost: if every `up` message has L tokens, each tree edge carries c
    messages, c = ceil((L+1)/budget) framed and c = 1 unframed, and the
    run takes h*c rounds on a forest of height h. The covering scan's
    4-token header (L = 4) is unframed from budget 4 up: h rounds, n-1
    messages and at most 4(n-1) tokens; below budget 4 it is one frame, so
    c = ceil(5/budget).
    """

    def __init__(self, view, parse, decide, budget, framed=True):
        self.view = view
        self.parse = parse
        self.decide = decide
        self.budget = budget
        self.framed = framed

    def init_state(self, v):
        return _ConvergeState(v, self.view.parent_edge[v], self.view.children[v])

    def step(self, st, rnd, inbox):
        if st.msgs is not None:
            if inbox:
                if self.framed:
                    inbox = _channel(st, self.budget).recv(inbox)
                for eid, toks in inbox:
                    st.msgs[eid] = self.parse(toks)
                st.missing -= len(inbox)
            if st.missing:
                return [], IDLE  # a vertex sends nothing before it decides
            st.result, up = self.decide(st.v, st.msgs)
            st.msgs = None  # every child has reported; free its messages
            if st.pe >= 0:
                if not self.framed:
                    return [(st.pe, up)], HALT
                _channel(st, self.budget).send(st.pe, up)
        return _flush(st)

    def output(self, st):
        return st.result


class _DownState:
    __slots__ = ("v", "ch", "acted", "out")

    def __init__(self, v):
        self.v = v
        self.ch = None
        self.acted = False
        self.out = None


class Downcast:
    """Wave from the starting vertices: every vertex acts once, sends, and
    halts.

    A vertex acts once, on the first round in which mail reaches it (framed,
    a whole frame), or in round 0 if `starts(v)`. `act(v, mail)` gets that
    round's mail, a list of (edge id, payload) pairs: unframed, the
    engine's inbox, sorted by edge id; framed, the whole frames its Channel
    returned. In round 0 mail is None. It returns (output, outbox): the
    vertex's output and its messages. Framed, they go through a Channel and
    stream under `budget`; unframed, the outbox is sent as it is, and `run`
    rejects two messages on one edge. Mail that reaches a vertex after it
    has acted is dropped, so a flood over every edge of a graph is a
    Downcast too. A vertex that never acts outputs None.

    Cost from the roots of a forest of height h: unframed, h rounds and one
    message per tree edge; framed, if every message has L tokens, each tree
    edge carries c = ceil((L+1)/budget) messages and the run takes h*c
    rounds.
    """

    def __init__(self, starts, act, budget=None, framed=False):
        self.starts = starts
        self.act = act
        self.budget = budget
        self.framed = framed

    def init_state(self, v):
        return _DownState(v)

    def step(self, st, rnd, inbox):
        if not st.acted:
            msgs = inbox
            if inbox and self.framed:
                msgs = _channel(st, self.budget).recv(inbox)
            if not msgs and not (rnd == 0 and self.starts(st.v)):
                return [], IDLE
            st.acted = True
            st.out, outbox = self.act(st.v, msgs or None)
            if not self.framed:
                return outbox, HALT
            if outbox:
                ch = _channel(st, self.budget)
                for eid, toks in outbox:
                    ch.send(eid, toks)
        return _flush(st)

    def output(self, st):
        return st.out


# ---------------------------------------------------------------------------
# broadcast/upcast utility: deliver k source messages to every vertex over a
# rooted (BFS) tree. Each message travels up as one frame; the root's
# messages travel down back to back, unframed, as one stream of chunks,
# relayed as they arrive and cut into messages once.

def broadcast_upcast(g, tree, sources, split, budget: int = DEFAULT_BUDGET,
                     phase: str = "broadcast"):
    """Deliver k messages (each a non-empty token tuple) from their source
    vertices to every vertex, by upcast to the tree root then broadcast
    down.

    `sources` is a list of (vertex, message) pairs; an empty message raises
    SimError naming its source vertex, since the unframed down stream could
    not carry it. `split(stream)` returns the list of messages whose
    concatenation is the token tuple `stream`: the messages must delimit
    themselves, as a tag token at the head of each does. Returns
    (delivered, Metrics) where delivered is the list of k messages in the
    order the root collected them.

    Every vertex keeps the chunks of the root's down stream as they reach
    it, without reading or counting them, so no relay knows when it has
    all k messages; the run ends at quiescence. The run is accepted only if
    every vertex holds exactly the chunks the root sent and `split` of that
    stream gives exactly the messages the root collected; else SimError is
    raised. That split is `delivered`: a local function of a stream shown
    to be the same at every vertex, so computing it once moves no
    information.

    Round bound: let T = sum(len(msg)) be the length of the root's down
    stream in tokens, h the tree's height, and t_k the round in which the
    root collects the k-th message (0 when every source is the root). Each
    downward tree edge carries exactly ceil(T/budget) messages, every vertex
    has all k messages by round t_k + ceil(T/budget) + h, and the run takes
    at most t_k + ceil(T/budget) + h - 1 rounds; see `_UpDownProgram`.
    """
    by_vertex: dict[int, list] = {}
    for v, msg in sources:
        if not (0 <= v < g.n):
            raise SimError("source vertex %d not in graph" % v)
        if not msg:
            raise SimError("empty broadcast message from vertex %d" % v)
        by_vertex.setdefault(v, []).append(tuple(msg))
    k = sum(len(v) for v in by_vertex.values())
    if k == 0:
        return [], Metrics([PhaseMetrics(phase)])
    prog = _UpDownProgram(tree, by_vertex, k, budget)
    outputs, metrics = run(g, prog, budget=budget, phase=phase)
    chunks, collected = outputs[tree.root]
    for v in range(g.n):
        if outputs[v][0] != chunks:
            raise SimError("broadcast streams disagree at vertex %d" % v)
    delivered = split(tuple(chain.from_iterable(chunks)))
    if delivered != collected:
        raise SimError("the broadcast stream does not parse to the root's messages")
    return delivered, metrics


class _UpDownState:
    __slots__ = ("ch", "pe", "child_edges", "up_queued", "chunks", "got", "down")

    def __init__(self, ch, pe, child_edges):
        self.ch = ch
        self.pe = pe
        self.child_edges = child_edges
        self.up_queued = True  # whether `ch` may hold tokens to send up
        self.chunks = []   # the down stream's chunks, as sent or received
        root = pe < 0
        self.got = [] if root else None  # the root's collected messages
        self.down = TokenStream() if root else None  # the root's down stream


class _UpDownProgram:
    """Store-and-forward upcast, cut-through broadcast.

    Up: a source frames its messages to its parent, and a non-root vertex
    forwards each frame that arrives whole from a child to its parent, so
    frames from different children never interleave on an edge; the
    length token is how a relay knows that a frame is whole. The root
    collects them.

    Down: the root appends each message to its down stream as soon as it
    collects it, unframed, and each round sends one chunk of that stream,
    the same tuple on every child edge: exactly `budget` tokens, or, once
    the k-th message is in, the rest of the stream. A non-root vertex
    relays each chunk from its parent to all its children in the step it
    arrives, unchanged, and keeps it; a leaf only keeps it. It neither
    parses nor counts the chunks, so it cannot tell when it has all k
    messages: it never halts, and stays IDLE until the tree falls quiet.
    Only the root halts, once it has collected and sent everything. So
    every vertex gets the root's stream, in collection order, and every
    downward tree edge carries exactly ceil(T/budget) messages,
    T = sum(len(m)); `broadcast_upcast` checks the chunks after the run.

    A vertex outputs (chunks, got): the chunks it sent or received, and at
    the root the messages in collection order (None elsewhere).

    Bound: if the root collects the k-th message in round t_k (0 when every
    source is the root), the chunk it sends in round r reaches depth d in
    round r + d, and it sends the last one by round t_k + ceil(T/budget) - 1.
    So a vertex at depth d has all k messages by round
    t_k + ceil(T/budget) + d - 1, and the run takes at most
    t_k + ceil(T/budget) + h - 1 rounds on a tree of height h >= 1.
    """

    def __init__(self, tree, sources_by_vertex, k, budget):
        self.tree = tree
        self.sources = sources_by_vertex
        self.k = k
        self.budget = budget

    def init_state(self, v):
        t = self.tree
        st = _UpDownState(Channel(self.budget), t.parent_edge[v],
                          sorted(t.parent_edge[c] for c in t.children[v]))
        for msg in self.sources.get(v, ()):
            if st.pe >= 0:
                st.ch.send(st.pe, msg)
            else:
                self._collect(st, msg)
        return st

    @staticmethod
    def _collect(st, msg):
        st.got.append(msg)
        st.down.buf.extend(msg)

    def step(self, st, rnd, inbox):
        pe = st.pe
        if pe < 0:
            return self._root_step(st, inbox)
        relay = ()
        up = []
        for mail in inbox or ():
            if mail[0] == pe:
                chunk = mail[1]
                st.chunks.append(chunk)
                relay = [(c, chunk) for c in st.child_edges]
            else:
                up.append(mail)
        if not (up or st.up_queued):
            return relay, IDLE  # what flush would return
        ch = st.ch
        for _, msg in ch.recv(up):
            ch.send(pe, msg)
        outbox, status = ch.flush(False)
        st.up_queued = status == ACTIVE
        outbox.extend(relay)
        return outbox, status

    def _root_step(self, st, inbox):
        for _, msg in st.ch.recv(inbox):
            self._collect(st, msg)
        done = len(st.got) == self.k
        queued = st.down.buf
        outbox = []
        chunk = None
        while queued and (done or len(queued) >= self.budget):
            if chunk is not None:
                return outbox, ACTIVE  # the next chunk goes out next round
            chunk = st.down.take(self.budget)
            st.chunks.append(chunk)
            outbox = [(eid, chunk) for eid in st.child_edges]
        return outbox, HALT if done else IDLE

    def output(self, st):
        return st.chunks, st.got
