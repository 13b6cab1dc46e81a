"""Round-synchronous message-passing engine with per-edge token budgets.

One token stands for one O(log n)-bit quantity (a vertex id, edge id,
weight, label word, or control flag). Each edge carries at most `budget`
tokens per direction per round; a violation aborts the run.

Programs are per-vertex state machines:

    state = program.init_state(v)
    outbox, status = program.step(state, rnd, inbox)
    localOutput = program.output(state)

`inbox` is a list of (edge_id, payload) sorted by edge id; `outbox` is a
list of (edge_id, payload) with payload a tuple of tokens. `status` is
ACTIVE (step me next round even without mail), IDLE (wake me on mail), or
HALT (done; later mail is dropped). Vertices are stepped in ascending id
order but may only interact through messages, so evaluation order is
unobservable; the transcript-equality test pins that down. Programs keep
their per-vertex state in a `__slots__` class. A per-vertex `Channel`
sends a program's messages framed (a length token, then the message,
streamed under the budget) or unframed (each message as it is, one per
edge a round, never split). The algorithms' two tree waves are written
once here, each in the format its caller picks: `Convergecast`, a
leaves-to-root scan in which each vertex decides once all its children's
messages are in and sends its own up, and `Downcast`, a root-to-leaves
relay in which each vertex acts once on its parent's message.
`broadcast_upcast` gathers k messages at a tree root, store-and-forward,
and streams them down cut-through: the root sends each message as it
collects it, and every vertex relays each chunk to its children in the
round it arrives. A relay keeps the root's chunks and only counts the
frames they complete; the stream is parsed once, after the run, when every
vertex is shown to hold the same chunks.

A transcript is one "round,src,dst,edge,tokens,payload" line per delivered
message, written to a sink: any object with `append(line)` and
`extend(lines)`, such as a list or the command line tool's file writer.
Each round's lines go to the sink in one `extend`, and each distinct
payload object is formatted once per round, however many edges carry it.

A run allocates millions of short-lived message tuples and frees them all
again, so CPython's cyclic garbage collector finds nothing to free but
would still sweep every live object many times over. `run` therefore
pauses the collector for its length and restores the caller's setting
when it returns or raises.
"""
from __future__ import annotations

import gc
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
    round's lines in one `extend`. Each distinct payload object is formatted
    once per round. `eval_order` overrides the per-round vertex evaluation
    order (testing hook; results must not depend on it).

    The cyclic garbage collector is paused for the whole run, from the first
    `init_state` to the last `output`; the caller's setting is restored on
    return and on every exception.
    """
    if max_rounds is None:
        max_rounds = DEFAULT_MAX_ROUNDS
    if transcript is None:
        transcript = TRANSCRIPT_SINK
    if transcript is not None:
        transcript.append("# phase %s" % phase)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_rounds(g, program, budget, max_rounds, phase, transcript,
                           eval_order)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_rounds(g, program, budget, max_rounds, phase, transcript, eval_order):
    n = g.n
    edges = g.edges
    states = [program.init_state(v) for v in range(n)]
    halted = [False] * n
    awake = set(range(n))
    inbox_map: dict[int, list] = {}
    pm = PhaseMetrics(phase)
    metrics = Metrics([pm])
    last_comm_round = -1
    step = program.step

    rnd = 0
    while True:
        if not awake and not inbox_map:
            break
        if rnd >= max_rounds:
            pm.rounds = rnd
            raise RoundLimitExceeded(max_rounds, metrics)
        if eval_order is None:
            actives = sorted(awake | set(inbox_map))
        else:
            pend = awake | set(inbox_map)
            actives = [v for v in eval_order if v in pend]
        next_inbox: dict[int, list] = {}
        round_msgs: list | None = [] if transcript is not None else None
        sent_any = False
        n_msgs = 0
        n_toks = 0
        max_tok = pm.max_tokens_edge_round
        for v in actives:
            inbox = inbox_map.get(v)
            if inbox is not None:
                inbox.sort()
            if halted[v]:
                continue  # late mail to a halted vertex is dropped
            outbox, status = step(states[v], rnd, inbox)
            if outbox:
                sent_any = True
                if len(outbox) > 1 and len({e for e, _ in outbox}) != len(outbox):
                    raise SimError("vertex %d sent twice on an edge in round %d"
                                   % (v, rnd))
                for eid, payload in outbox:
                    ntok = len(payload)
                    if ntok > budget:
                        raise BudgetExceeded(v, eid, rnd, ntok, budget)
                    if ntok == 0:
                        raise SimError("empty message on edge %d" % eid)
                    eu, ev, _ = edges[eid]
                    dst = eu + ev - v
                    if dst != eu and dst != ev:
                        raise SimError("vertex %d not incident to edge %d" % (v, eid))
                    n_msgs += 1
                    n_toks += ntok
                    if ntok > max_tok:
                        max_tok = ntok
                    if round_msgs is not None:
                        round_msgs.append((v, dst, eid, payload))
                    bucket = next_inbox.get(dst)
                    if bucket is None:
                        next_inbox[dst] = [(eid, payload)]
                    else:
                        bucket.append((eid, payload))
            if status == ACTIVE:
                awake.add(v)
            elif status == IDLE:
                awake.discard(v)
            else:
                halted[v] = True
                awake.discard(v)
        pm.messages += n_msgs
        pm.tokens += n_toks
        pm.max_tokens_edge_round = max_tok
        if round_msgs:
            # canonical order, independent of the vertex evaluation order;
            # (src, dst, edge) is unique within a round, so payloads are
            # never compared
            round_msgs.sort()
            # a payload sent on several edges (a broadcast chunk) is formatted
            # once: round_msgs holds every payload until the round's lines
            # are written, so no id is reused for another object meanwhile
            text: dict[int, str] = {}
            lines = []
            for src, dst, eid, payload in round_msgs:
                t = text.get(id(payload))
                if t is None:
                    t = text[id(payload)] = "%d,%s" % (len(payload),
                                                       _fmt_payload(payload))
                lines.append("%d,%d,%d,%d,%s" % (rnd, src, dst, eid, t))
            transcript.extend(lines)
        if sent_any:
            last_comm_round = rnd
        inbox_map = next_inbox
        rnd += 1

    pm.rounds = last_comm_round + 1
    outputs = [program.output(s) for s in states]
    return outputs, metrics


def _fmt_payload(payload) -> str:
    return ";".join(":".join(map(str, tok)) if type(tok) is tuple else str(tok)
                    for tok in payload)


class TokenStream:
    """Per-edge outgoing token queue; drained at most `budget` tokens a round."""

    __slots__ = ("buf",)

    def __init__(self):
        self.buf = []

    def push(self, tokens):
        self.buf.extend(tokens)

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
    """One vertex's streams over its incident edges, framed or unframed.

    Framed, each message is sent as a frame: one length token followed by
    that many tokens, streamed under the budget and handed to the receiver
    once its last token arrives. Frames on one edge arrive whole and in the
    order they were sent.

    Unframed, each message is sent as it is, one message per edge a round,
    and handed to the receiver as it arrives. It is never split: a message
    longer than the budget makes `run` raise BudgetExceeded.
    """

    __slots__ = ("budget", "framed", "_out", "_partial")

    def __init__(self, budget, framed=True):
        self.budget = budget
        self.framed = framed
        # edge -> its queue; unframed, each entry of `buf` is a whole message
        self._out: dict[int, TokenStream] = {}
        self._partial: dict[int, tuple] = {}  # edge -> tokens of an unfinished frame

    def send(self, eid, tokens):
        """Queue a message carrying `tokens` on edge `eid`; a frame may
        carry none."""
        s = self._out.get(eid)
        if s is None:
            s = self._out[eid] = TokenStream()
        if self.framed:
            s.push_frame(tokens)
        else:
            s.buf.append(tokens)

    def recv(self, inbox):
        """The messages this round's mail completed, as (eid, tokens)."""
        if not inbox:
            return ()
        if not self.framed:
            return inbox
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
        """This round's outbox, one message per edge, and the status: ACTIVE
        while anything is queued, else HALT if `done`, else IDLE. A framed
        message carries at most `budget` tokens."""
        outbox = []
        queued = False
        for eid, s in self._out.items():
            if s.buf:
                outbox.append((eid, s.take(self.budget) if self.framed
                               else s.buf.pop(0)))
                if s.buf:
                    queued = True
        if queued:
            return outbox, ACTIVE
        return outbox, HALT if done else IDLE


# ---------------------------------------------------------------------------
# the two tree waves. Convergecast runs over a TreeView, a rooted forest
# given by parent_edge[v] (-1 at a root) and children[v], a list of
# (child, edge id) pairs; Downcast's `act` reads the forest itself. A wave
# vertex builds its Channel at its first send, or at its first mail when
# framed, since only then does it hold a partial frame; until then it has
# nothing queued, so its flush is empty. Unframed, a Downcast vertex
# returns its outbox as it is, and a Convergecast vertex with one message
# to send returns that message; `run` rejects two messages on one edge. So
# an unframed wave builds a Channel only at a Convergecast vertex sending
# k > 1 messages up.

def _channel(st, budget, framed):
    """The wave vertex's Channel, built on first use."""
    ch = st.ch
    if ch is None:
        ch = st.ch = Channel(budget, framed)
    return ch


def _flush(st):
    return ([], HALT) if st.ch is None else st.ch.flush(True)


class _ConvergeState:
    __slots__ = ("v", "pe", "frames", "nframes", "ch", "result")

    def __init__(self, v, pe, children):
        self.v = v
        self.pe = pe
        self.frames = {eid: [] for _, eid in children}  # child edge -> parsed frames
        self.nframes = 0
        self.ch = None
        self.result = None


class Convergecast:
    """Leaves-to-root wave: every non-root vertex sends its parent k messages.

    A vertex parses each message from a child edge with `parse(tokens)`.
    Once it holds k from every child it calls `decide(v, frames)`, where
    `frames` maps each child edge, in `children[v]` order, to its k parsed
    messages; `decide` returns (result, up). A non-root vertex then sends
    the k token tuples in `up` to its parent through a Channel, framed
    unless `framed` is False; unframed, a single message is its outbox as
    it is. The vertex outputs `result`.

    Cost: if every `up` message has L tokens, each tree edge carries c
    messages, c = ceil(k(L+1)/budget) framed and c = k unframed, and the
    run takes h*c rounds on a forest of height h. The covering scan's
    4-token header (k = 1, L = 4) is unframed from budget 4 up: h rounds,
    n-1 messages and at most 4(n-1) tokens; below budget 4 it is one
    frame, so c = ceil(5/budget).
    """

    def __init__(self, view, k, parse, decide, budget, framed=True):
        self.view = view
        self.k = k
        self.parse = parse
        self.decide = decide
        self.budget = budget
        self.framed = framed

    def init_state(self, v):
        return _ConvergeState(v, self.view.parent_edge[v], self.view.children[v])

    def step(self, st, rnd, inbox):
        if st.frames is not None:
            if inbox:
                if self.framed:
                    inbox = _channel(st, self.budget, True).recv(inbox)
                for eid, toks in inbox:
                    st.frames[eid].append(self.parse(toks))
                    st.nframes += 1
            if st.nframes < self.k * len(st.frames):
                return [], IDLE  # a vertex sends nothing before it decides
            st.result, up = self.decide(st.v, st.frames)
            st.frames = None  # every child has reported; free its frames
            if st.pe >= 0 and up:
                if len(up) == 1 and not self.framed:
                    return [(st.pe, up[0])], HALT
                ch = _channel(st, self.budget, self.framed)
                for toks in up:
                    ch.send(st.pe, toks)
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
    """Root-to-leaves wave: every vertex acts once, sends, and halts.

    A vertex acts on the first message from its parent, or in round 0 if
    `starts(v)`; a child never sends to its parent, so the only mail a
    vertex gets is its parent's. `act(v, payload)`, with payload None in
    round 0, returns (output, outbox): the vertex's output and its messages
    to its children. Framed, they go through a Channel and stream under
    `budget`; unframed, the outbox is sent as it is, and `run` rejects two
    messages on one edge. A vertex that never acts outputs None.

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
                msgs = _channel(st, self.budget, True).recv(inbox)
            if not msgs and not (rnd == 0 and self.starts(st.v)):
                return [], IDLE
            st.acted = True
            st.out, outbox = self.act(st.v, msgs[0][1] if msgs else None)
            if not self.framed:
                return outbox, HALT
            if outbox:
                ch = _channel(st, self.budget, True)
                for eid, toks in outbox:
                    ch.send(eid, toks)
        return _flush(st)

    def output(self, st):
        return st.out


# ---------------------------------------------------------------------------
# broadcast/upcast utility: deliver k source messages to every vertex over a
# rooted (BFS) tree. Each message travels up as one frame; the root's frames
# travel down as one stream of chunks, relayed as they arrive and parsed once.

def broadcast_upcast(g, tree, sources, budget: int = DEFAULT_BUDGET,
                     phase: str = "broadcast"):
    """Deliver k messages (each a token tuple) from their source vertices to
    every vertex, by upcast to the tree root then broadcast down.

    `sources` is a list of (vertex, message) pairs. Returns (delivered,
    Metrics) where delivered is the list of k messages in the order the root
    collected them.

    Every vertex keeps the chunks of the root's down stream as they reach
    it, without parsing them. The run is accepted only if every vertex holds
    exactly the chunks the root sent and one parse of that stream gives
    exactly the messages the root collected; else SimError is raised. That
    parse is `delivered`: a local function of a stream shown to be the same
    at every vertex, so computing it once moves no information.

    Round bound: let T = sum(len(msg) + 1) be the length of the root's down
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
    stream = tuple(chain.from_iterable(chunks))
    delivered = [msg for _, msg in Channel(budget).recv([(0, stream)])]
    if delivered != collected:
        raise SimError("the broadcast stream does not parse to the root's messages")
    return delivered, metrics


class _UpDownState:
    __slots__ = ("ch", "pe", "child_edges", "up_queued", "chunks", "nframes",
                 "left", "got", "down")

    def __init__(self, ch, pe, child_edges):
        self.ch = ch
        self.pe = pe
        self.child_edges = child_edges
        self.up_queued = True  # whether `ch` may hold tokens to send up
        self.chunks = []   # the down stream's chunks, as sent or received
        self.nframes = 0   # frames begun in `chunks`
        self.left = 0      # tokens of the last begun frame not yet received
        root = pe < 0
        self.got = [] if root else None  # the root's collected messages
        self.down = TokenStream() if root else None  # the root's down stream


class _UpDownProgram:
    """Store-and-forward upcast, cut-through broadcast.

    Up: a source frames its messages to its parent, and a non-root vertex
    forwards each frame that arrives whole from a child to its parent, so
    frames from different children never interleave on an edge. The root
    collects them.

    Down: the root frames each message into its down stream as soon as it
    collects it, and each round sends one chunk of that stream, the same
    tuple on every child edge: exactly `budget` tokens, or, once the k-th
    message is in, the rest of the stream. A non-root vertex relays each
    chunk from its parent to all its children in the step it arrives,
    unchanged, and keeps it. It does not parse the chunks: it steps from
    length token to length token to count the frames they complete, and it
    is done once it has all k. So every vertex gets the root's stream, in
    collection order, and every downward tree edge carries exactly
    ceil(T/budget) messages, T = sum(len(m) + 1).

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
        st.down.push_frame(msg)

    def step(self, st, rnd, inbox):
        pe = st.pe
        if pe < 0:
            return self._root_step(st, inbox)
        relay = ()
        up = inbox
        for i, (eid, chunk) in enumerate(inbox or ()):
            if eid == pe:
                st.chunks.append(chunk)
                j, n = st.left, len(chunk)
                while j < n:          # chunk[j] is a frame's length token
                    j += chunk[j] + 1
                    st.nframes += 1
                st.left = j - n
                relay = [(c, chunk) for c in st.child_edges]
                up = inbox[:i] + inbox[i + 1:]
                break
        done = st.nframes == self.k and not st.left
        if not (up or st.up_queued):
            return relay, HALT if done else IDLE  # what flush would return
        ch = st.ch
        for _, msg in ch.recv(up):
            ch.send(pe, msg)
        outbox, status = ch.flush(done)
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
