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
Round 0 steps every vertex; each later round steps, once each, the
vertices that returned ACTIVE or got mail in the round before. Mail lands
in mailboxes, two lists indexed by vertex (this round's and the next's,
swapped each round), and a vertex joins the next round's wake list when
its first message of the round lands or when it returns ACTIVE, with an
empty mailbox then. The wake list is sorted once a round, so vertices are
stepped in ascending id order. They interact only through messages, so
that order is unobservable: `run`'s `eval_order` hook permutes it, and the
tests check that no transcript changes. Programs keep their per-vertex
state in a `__slots__` class. A vertex sends only on its own edges: any
other edge id, negative or past the last edge included, raises SimError.
A per-vertex `Channel` is the engine's one token queue: it sends a
program's messages framed, streamed under the budget, each either a
length token and the message or, where messages delimit themselves, the
message alone, ending at a token the caller marks as a last one. The
algorithms' tree waves are one program, `Wave`, framed or unframed as the
caller picks (unframed, each message goes as it is, one per edge a round,
never split): each vertex acts once, when the mail it waits for is in,
sends, and halts. Waiting for one message from each child makes a
leaves-to-root scan; waiting for none at the roots and one elsewhere, a
root-to-leaves relay, or the BFS flood over every edge. A self-delimiting
root-to-leaves wave may relay cut-through, passing each token of a
vertex's message but the last on to its children as it arrives: the label
waves. A wave may also send first: the exchange of one message each way
over every non-tree edge. Every label travels self-delimiting, its last
hop tagged, and the length token stays only where a message cannot
delimit itself: the frames of `broadcast_upcast`'s upcast, whose records
mark where they start but not where they end; `cover_scan.header_wave`
below budget 4, whose headers are bare integers; and the standalone
`weighted.disseminate_ancestors`, whose frame holds a whole root path of
labels. With `broadcast_upcast`'s program and wtap's
`weighted.WeightedUpProgram`, the engine runs three program classes.
`broadcast_upcast` gathers k messages at a tree root,
store-and-forward and framed, and streams them down cut-through and
unframed: the root appends each message to its down stream as it collects
it, with no length token, and every vertex relays each chunk to its
children in the round it arrives. A relay keeps the root's chunks without
reading them and never halts; the run ends when the tree falls quiet. The
caller's messages delimit themselves: the stream is cut back into them
once, after the run, by the caller's `split`, when every vertex is shown
to hold the same chunks.

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
    # the mailboxes by vertex, swapped each round: `cur` holds this round's
    # mail and `nxt` fills with the next round's; None is no mailbox, and []
    # one opened by a vertex returning ACTIVE before any mail landed
    cur = [None] * n
    nxt = [None] * n
    # the wake list: the vertices to step this round, each once. Round 0 has
    # all of them; a vertex joins the next round's when its mailbox there
    # opens. It is sorted once a round into the evaluation order, ascending
    # id or by position in `eval_order`
    woken = list(range(n))
    order_key = None
    if eval_order is not None:
        pos = [0] * n
        for i, v in enumerate(eval_order):
            pos[v] = i
        order_key = pos.__getitem__
    step = program.step
    n_msgs = n_toks = max_tok = 0
    last_comm_round = -1

    rnd = 0
    while woken:
        if rnd >= max_rounds:
            raise RoundLimitExceeded(max_rounds, Metrics(
                [PhaseMetrics(phase, rnd, n_msgs, n_toks, max_tok)]))
        # in a pipeline the list is nearly sorted already, so this is close
        # to linear
        woken.sort(key=order_key)
        next_woken = []
        sent = n_msgs
        for v in woken:
            inbox = cur[v]
            cur[v] = None
            if inbox:
                if halted[v]:
                    continue  # late mail to a halted vertex is dropped
                if len(inbox) > 1:
                    inbox.sort()
            else:
                inbox = None
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
                    box = nxt[dst]
                    if box is None:  # the first mail opens it and wakes dst
                        nxt[dst] = [msg]
                        next_woken.append(dst)
                    else:
                        box.append(msg)
            if status != IDLE:
                if status != ACTIVE:
                    halted[v] = True
                elif nxt[v] is None:
                    nxt[v] = []
                    next_woken.append(v)
        if n_msgs != sent:
            last_comm_round = rnd
            if transcript is not None:
                transcript.extend(_round_lines(rnd, next_woken, nxt, edges, n,
                                              prefixes))
        woken = next_woken
        cur, nxt = nxt, cur
        rnd += 1

    pm = PhaseMetrics(phase, last_comm_round + 1, n_msgs, n_toks, max_tok)
    outputs = [program.output(s) for s in states]
    return outputs, Metrics([pm])


def _round_lines(rnd, woken, boxes, edges, n, prefixes):
    """The transcript lines of the round `rnd`, on a graph of n vertices and
    `edges`: the mail it left in `boxes[v]` for each v in `woken` (a box may
    be empty, for a vertex that is ACTIVE without mail).

    Lines go in (src, dst, edge) order, independent of the vertex
    evaluation order, sorted by the one int key (src*n + dst)*m + edge;
    the triple is unique within a round, so payloads are never compared.
    `prefixes` caches each directed edge's "src,dst,edge," text by key
    across the rounds of one run."""
    m = len(edges)
    keyed = []
    for dst in woken:
        for eid, payload in boxes[dst]:
            eu, ev, _ = edges[eid]
            keyed.append((((eu + ev - dst) * n + dst) * m + eid, payload))
    keyed.sort()
    # a payload sent on several edges (a broadcast chunk) is formatted
    # once: `boxes` holds every payload until the round's lines are
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


class Channel:
    """The engine's one token queue: a vertex's framed streams on its edges.

    Each message is sent as a frame, queued on its edge, streamed at most
    `budget` tokens a round and handed to the receiver once its last token
    arrives. Frames on one edge arrive whole and in the order they were
    sent. By default a frame is one length token followed by that many
    tokens. With `ends`, a predicate on tokens, messages delimit
    themselves: a frame is the message's tokens alone, and it ends at the
    first token that `ends` holds for, so a message must end with such a
    token and hold no other. Such a message may be queued in pieces, as a
    cut-through relay queues it.
    """

    __slots__ = ("budget", "ends", "_out", "_partial")

    def __init__(self, budget, ends=None):
        self.budget = budget
        self.ends = ends
        self._out: dict[int, list] = {}  # edge -> its queued tokens
        self._partial: dict[int, tuple] = {}  # edge -> tokens of an unfinished frame

    def send(self, eid, tokens):
        """Queue a message carrying `tokens` on edge `eid`; a length-framed
        message may carry none."""
        q = self._out.setdefault(eid, [])
        if self.ends is None:
            q.append(len(tokens))
        q.extend(tokens)

    def recv(self, inbox):
        """The messages this round's mail completed, as (eid, tokens)."""
        if not inbox:
            return ()
        frames = []
        partial = self._partial
        ends = self.ends
        for eid, payload in inbox:
            buf = partial.pop(eid, None)
            buf = payload if buf is None else buf + payload
            i, n = 0, len(buf)
            if ends is not None:
                for j, tok in enumerate(buf):
                    if ends(tok):
                        frames.append((eid, buf[i:j + 1]))
                        i = j + 1
                if i < n:
                    partial[eid] = buf[i:]
                continue
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
        for eid, q in self._out.items():
            if q:
                outbox.append((eid, tuple(q[:self.budget])))
                del q[:self.budget]
                if q:
                    queued = True
        if queued:
            return outbox, ACTIVE
        return outbox, HALT if done else IDLE


class _WaveState:
    __slots__ = ("v", "need", "mail", "ch", "out")

    def __init__(self, v, need, ch):
        self.v = v
        self.need = need
        self.mail = []  # the (edge id, payload) pairs held; None once acted
        self.ch = ch  # framed, the vertex's Channel; unframed, None
        self.out = None


class Wave:
    """Tree wave: every vertex waits for its mail, acts once, sends, and
    halts.

    A vertex waits for `need(v)` messages (framed, whole frames) and acts in
    the first round in which it holds at least that many, or in round 0 when
    `need(v)` is 0. `act(v, mail)` gets every (edge id, payload) pair it
    holds, in arrival order, each round's sorted by edge id ([] when
    `need(v)` is 0), and returns (output, outbox): the vertex's output and
    its messages. Framed, each vertex holds a Channel from the start, and
    its messages go through it and stream under `budget`: with a length
    token each, or, given `ends`, self-delimiting (see `Channel`); a wave
    with `ends` is framed. Unframed, the outbox is sent as it is, and `run`
    rejects two messages on one edge. Mail that reaches a vertex after it
    has acted is dropped, so a flood over every edge of a graph is a Wave
    too. A vertex that never acts outputs None. A wave may send first: v
    sends the (edge id, tokens) messages `first(v)` gives in round 0,
    before any mail arrives; unframed, each goes as it is, and framed, v
    streams them while it waits, ACTIVE while anything is queued, else
    IDLE. `virtual_graph.exchange_distributed` is such a wave.

    On a forest given by a `labels.TreeView`, an up wave has need(v) = the
    number of v's children and each non-root vertex sends its parent one
    message; a down wave has need 0 at the roots and 1 elsewhere and each
    vertex sends each child one message. Cost on a forest of height h:
    unframed, h rounds and one message per tree edge; framed with a length
    token, if every message has L tokens, c = ceil((L+1)/budget) messages
    per tree edge, and since a vertex acts only once its frames are whole,
    each level adds c rounds: h*c rounds.

    A self-delimiting down wave may relay cut-through: given `relay`, a
    vertex that waits for its one message queues each token of it but the
    last on each edge of `relay(v)` (its child edges) in the step the token
    arrives; once the last is in, it acts, and each message of its outbox
    follows on its edge what was relayed there, as the rest of the child's
    message. Let the message to a vertex v at depth d(v) have L_v tokens.
    Every such message streams as ceil(L_v/budget) chunks, all full but the
    last, and its j-th chunk arrives in round d(v) - 1 + j: true at depth
    1, where a root sends its outbox from round 0 on, and passed down,
    since in the round a full chunk arrives, v sends it on unchanged, and
    in the round its last chunk arrives, v queues that chunk's tokens less
    the last, then its outbox's, and streams them in full chunks. So a tree
    edge into v carries ceil(L_v/budget) messages and L_v tokens, v holds
    its message in round d(v) - 1 + ceil(L_v/budget), and the run takes the
    largest such round over the non-root vertices, against
    d(v)*ceil((L+1)/budget) store-and-forward with a length token.
    `labels.assign_labels_distributed` is such a wave.
    """

    def __init__(self, need, act, budget=None, framed=False, first=None,
                 ends=None, relay=None):
        if relay is not None and ends is None:
            raise ValueError("only a self-delimiting wave relays cut-through")
        self.need = need
        self.act = act
        self.budget = budget
        self.framed = framed or ends is not None
        self.ends = ends
        self.first = first
        self.relay = relay

    def init_state(self, v):
        return _WaveState(v, self.need(v), Channel(self.budget, self.ends)
                          if self.framed else None)

    def step(self, st, rnd, inbox):
        mail = st.mail
        ch = st.ch
        if mail is None:
            return ch.flush(True)  # framed: still streaming what it sent
        outbox = []  # unframed, what `first` gives, sent as it is
        if rnd == 0 and self.first is not None:
            for eid, toks in self.first(st.v):
                if ch is None:
                    outbox.append((eid, toks))
                else:
                    ch.send(eid, toks)
        if inbox:
            if ch is not None:
                if self.relay is not None:
                    self._cut_through(st.v, ch, inbox)
                inbox = ch.recv(inbox)
            mail += inbox
        if len(mail) < st.need:
            return (outbox, IDLE) if ch is None else ch.flush(False)
        st.mail = None
        st.out, sends = self.act(st.v, mail)
        if ch is None:
            return (outbox + sends if outbox else sends), HALT
        for eid, toks in sends:
            ch.send(eid, toks)
        return ch.flush(True)

    def _cut_through(self, v, ch, inbox):
        """Queue on each relay edge the tokens of v's one message that this
        round's mail brought, but the message's last token: v's parent sends
        it nothing else, so that token ends a payload."""
        ends = self.ends
        for _, payload in inbox:
            toks = payload[:-1] if ends(payload[-1]) else payload
            if toks:
                for eid in self.relay(v):
                    ch.send(eid, toks)

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
        self.down = [] if root else None  # the root's unsent down stream


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
        st.down.extend(msg)

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
        queued = st.down
        b = self.budget
        outbox = []
        chunk = None
        while queued and (done or len(queued) >= b):
            if chunk is not None:
                return outbox, ACTIVE  # the next chunk goes out next round
            chunk = tuple(queued[:b])
            del queued[:b]
            st.chunks.append(chunk)
            outbox = [(eid, chunk) for eid in st.child_edges]
        return outbox, HALT if done else IDLE

    def output(self, st):
        return st.chunks, st.got
