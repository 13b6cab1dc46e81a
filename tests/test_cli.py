import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeaug
from treeaug import cli, fast, sim, unweighted
from treeaug.graph import read_instance


def run_cli(args):
    return cli.main(list(args))


@pytest.fixture(autouse=True)
def _restore_sim_globals():
    mr = sim.DEFAULT_MAX_ROUNDS
    yield
    sim.DEFAULT_MAX_ROUNDS = mr
    sim.TRANSCRIPT_SINK = None


def test_gen_and_run_all_algorithms(tmp_path):
    inst = str(tmp_path / "r.txt")
    assert run_cli(["gen", "random", "--n", "14", "--extra", "8",
                    "--seed", "3", "--wmin", "1", "--wmax", "9",
                    "-o", inst]) == 0
    for algo in cli.ALGOS:
        assert run_cli(["run", inst, "--algo", algo]) == 0, algo


def test_run_with_oracle_and_csv(tmp_path):
    inst = str(tmp_path / "small.txt")
    csv = str(tmp_path / "out.csv")
    run_cli(["gen", "random", "--n", "8", "--extra", "4", "--seed", "1",
             "--wmin", "1", "--wmax", "9", "-o", inst])
    assert run_cli(["run", inst, "--algo", "wtap", "--oracle",
                    "--csv", csv]) == 0
    assert run_cli(["run", inst, "--algo", "tap", "--oracle",
                    "--csv", csv]) == 0
    lines = Path(csv).read_text().strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 3
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["algorithm"] == "wtap" and row["valid"] == "1"
    assert float(row["ratio"]) <= 2.0
    assert int(row["n"]) == 8 and int(row["m"]) == 12


def test_metrics_and_transcript_outputs(tmp_path):
    inst = str(tmp_path / "c.txt")
    met = str(tmp_path / "m.csv")
    tr = str(tmp_path / "t.log")
    run_cli(["gen", "cycle", "--n", "12", "-o", inst])
    assert run_cli(["run", inst, "--algo", "tap", "--metrics", met,
                    "--transcript", tr]) == 0
    mlines = Path(met).read_text().strip().split("\n")
    assert mlines[0] == "phase,rounds,messages,tokens,max_tokens_edge_round"
    assert mlines[-1].startswith("total,")
    tlines = Path(tr).read_text().strip().split("\n")
    assert any(l.startswith("# phase") for l in tlines)
    data = [l for l in tlines if not l.startswith("#")]
    assert data and all(len(l.split(",")) >= 6 for l in data)


def test_repeat_runs_byte_identical(tmp_path):
    inst = str(tmp_path / "g.txt")
    run_cli(["gen", "random", "--n", "20", "--extra", "10", "--seed", "7",
             "--wmin", "1", "--wmax", "20", "-o", inst])
    outs = []
    for i in range(2):
        tr = str(tmp_path / ("t%d.log" % i))
        csv = str(tmp_path / ("c%d.csv" % i))
        assert run_cli(["run", inst, "--algo", "wtap", "--csv", csv,
                        "--transcript", tr]) == 0
        outs.append((Path(tr).read_bytes(), Path(csv).read_bytes()))
    assert outs[0] == outs[1]


def _fast_lb_disj_transcript(tmp_path):
    inst = str(tmp_path / "d.txt")
    tr = str(tmp_path / "t.log")
    assert run_cli(["gen", "lb-disj", "--k", "2", "--d", "2", "--p", "4",
                    "--a", "10", "--b", "01", "--unweighted", "-o", inst]) == 0
    assert run_cli(["run", inst, "--algo", "fast", "--transcript", tr]) == 0
    return Path(tr).read_bytes()


def test_fast_output_pinned(tmp_path, capsys):
    # what fast computes on the transcript-pinned instance; unlike the two
    # transcript pins below, this must not move when only the delivery
    # schedule does
    _fast_lb_disj_transcript(tmp_path)
    assert "value=16 valid=True" in capsys.readouterr().out
    g, tree = read_instance(str(tmp_path / "d.txt"))
    aug, _, _ = fast.augment_fast(g, tree)
    assert sorted(aug.edge_ids) == list(range(124, 139)) + [153]


def test_fast_transcript_bytes_pinned(tmp_path):
    # SHA-256 of the whole transcript, payload text included, with every
    # multi-token message sent as a length-prefixed frame, except on the
    # broadcasts' down streams; the schedule itself is pinned separately
    # below. Re-pinned when the broadcast
    # became cut-through: the root streams each message as it collects it
    # and every vertex relays its parent's chunks unchanged, so chunk
    # boundaries and rounds moved. Re-pinned again when fast dropped its
    # label-exchange phase and ran the leaf and global in-fragment scans as
    # one: 172 -> 169 rounds, 2,887 -> 2,857 messages, 9,638 -> 9,594
    # tokens, same output (pinned above). Re-pinned again when the covering
    # scan's up pass sent one 4-token (origin, ancestor depth) header per
    # tree edge instead of two label frames: local_cover_up 14 -> 7 rounds,
    # 112 -> 56 messages, 336 -> 224 tokens; in all 169 -> 162 rounds,
    # 2,857 -> 2,801 messages, 9,594 -> 9,482 tokens, 96,292 -> 94,724
    # bytes (was c84cdbb7...381093), same output. Re-pinned again when
    # leaf_bcast (28 rounds, 544 messages) and global_bcast (28 rounds, 796
    # messages) became one cover_bcast (32 rounds, 1,340 messages), each
    # record tagged ("lc" | "gc", fragRoot, origin) where a leaf record led
    # with its bare origin: in all 162 -> 138 rounds, 2,801 messages and
    # 9,482 tokens unchanged, 94,724 -> 96,232 bytes (was
    # e78412c0...e6f3ea73), same output. Re-pinned again when global_cover
    # sent one depth-keyed header a tree edge (28 -> 7 rounds, 228 -> 56
    # messages, 841 -> 224 tokens) and cover_bcast carried 3-token records
    # ((tag, fragment, origin), ancestor depth) (32 -> 21 rounds, 1,340 ->
    # 545 messages, 5,360 -> 2,010 tokens): in all 138 -> 106 rounds, 2,801
    # -> 1,834 messages, 9,482 -> 5,515 tokens, 96,232 -> 53,318 bytes (was
    # f236309f...ac2c02702), same output. Re-pinned again when a directory
    # record became ("gr", childFrag, p) and p's label hops, without the
    # label header (labels_global_bcast 20 -> 17 rounds, 458 -> 330
    # messages, 1,634 -> 1,242 tokens), and a fragment whose two maxima
    # are one edge sent one (("lg", fragment, origin), ancestor depth)
    # record instead of an "lc" and a "gc" record (cover_bcast 21 -> 20
    # rounds, 545 -> 413 messages, 2,010 -> 1,614 tokens): in all 106 ->
    # 102 rounds, 1,834 -> 1,574 messages, 5,515 -> 4,727 tokens, 53,318 ->
    # 45,230 bytes (was 969abfac...be52bf9), same output. Re-pinned again
    # when the broadcasts' down streams dropped each record's length token
    # (labels_global_bcast 17 -> 18 rounds, 330 -> 268 messages, 1,242 ->
    # 870 tokens; cover_bcast 20 rounds, 413 -> 289 messages, 1,614 ->
    # 1,118 tokens): in all 102 -> 103 rounds, 1,574 -> 1,388 messages,
    # 4,727 -> 3,859 tokens, 45,230 -> 41,023 bytes (was
    # 84e456fa...2dd839ba), same output. Re-pinned again when a label went
    # on the wire as its hops alone, without its ("lh", vertexId, depth)
    # header (labels_local_assign 62 -> 57 messages, 193 -> 137 tokens;
    # exchange 237 -> 202 messages, 810 -> 626 tokens): in all 103 rounds,
    # 1,388 -> 1,348 messages, 3,859 -> 3,619 tokens, 41,023 -> 38,621
    # bytes (was cba17b98...9b21f471), same output. Re-pinned again when
    # labels delimited themselves, their last hop tagged "lq", with no
    # length token, and the label wave relayed hops cut-through
    # (labels_local_assign 7 rounds, 57 -> 56 messages, 137 -> 81 tokens;
    # exchange 2 rounds, 202 -> 187 messages, 626 -> 442 tokens): in all
    # 103 rounds, 1,348 -> 1,332 messages, 3,619 -> 3,379 tokens, 38,621
    # -> 37,926 bytes (was b7b90264...0319b8f27), same output
    data = _fast_lb_disj_transcript(tmp_path)
    assert len(data) == 37926
    assert hashlib.sha256(data).hexdigest() == (
        "50d027e17aab2814ba7f461e4b1f4f6de7ec4ed306909eb8b9510f11518703b4")


def test_fast_transcript_schedule_pinned(tmp_path):
    # round,src,dst,edge,tokens of every delivery: the schedule must not
    # change when only the framing of a payload does. Re-pinned when the
    # broadcast became cut-through, which moves its deliveries to earlier
    # rounds; fast's output is pinned above. Re-pinned again when fast
    # dropped its label-exchange phase, the directory records started at
    # the parent endpoints and one scan replaced the leaf and global
    # in-fragment scans, which changes which phases run and who sends what.
    # Re-pinned again (was 61a9a5a4...261cff) when local_cover_up's two
    # label frames an edge became one 4-token header, one message an edge:
    # that phase 14 -> 7 rounds, 112 -> 56 messages. Re-pinned again (was
    # cc251ed9...cf8e88a2) when the leaf and global broadcasts became one
    # cover_bcast: 28 + 28 -> 32 rounds. Re-pinned again (was
    # 5eddcdf2...3e85afbe) when global_cover's edge frames became one
    # depth-keyed header an edge and cover_bcast's records 3 tokens:
    # global_cover 28 -> 7 rounds, cover_bcast 32 -> 21. Re-pinned again
    # (was 1b38c05a...1fd5ce) when directory records lost their label
    # header and coinciding "lc" and "gc" records became one "lg" record:
    # labels_global_bcast 20 -> 17 rounds, cover_bcast 21 -> 20. Re-pinned
    # again (was e9de3032...1a76) when the broadcasts' down streams dropped
    # each record's length token: fewer chunks an edge, and
    # labels_global_bcast 17 -> 18 rounds. Re-pinned again (was
    # 905936e9...0061db61) when labels lost their header: shorter frames,
    # so fewer chunks in labels_local_assign and the exchange. Re-pinned
    # again (was c1251943...aeabf6ca6) when labels lost their length token
    # and the label wave relayed cut-through: shorter messages, and fewer
    # of them in labels_local_assign and the exchange
    lines = _fast_lb_disj_transcript(tmp_path).decode().splitlines()
    schedule = "".join(",".join(line.split(",")[:5]) + "\n" for line in lines)
    assert hashlib.sha256(schedule.encode()).hexdigest() == (
        "5286d37a03aee78d5db12fed3f6032b5f0bcbe89f21cee57cbe37a1ece1d742f")


# SHA-256 of the full transcript and of the --metrics CSV at budget 4 on one
# small weighted instance; a change to how a phase is written must not move
# a single delivered byte. tap and verify were re-pinned when the covering
# scan's up pass sent one 4-token (origin, ancestor depth) header per tree
# edge instead of two label frames, same outputs: tap's cover_up 24 -> 12
# rounds, 78 -> 39 messages, 249 -> 156 tokens (total 61/237/631 ->
# 49/198/538; was 4fd8a87b...c12a203, 3511c622...016863b); verify's
# cover_up 10 -> 5 rounds, 80 -> 39 messages, 241 -> 156 tokens (total
# 44/468/866 -> 39/427/781; was 0d4076a1...749a5b, 431bb6ed...37dee6e).
# verify was re-pinned again when it dropped the covering scan and its
# hand-written OR wave for two one-token waves, verify_bridges up and
# verify_verdict down, same verdict and bridges: in all 39/427/781 ->
# 29/349/586 rounds/messages/tokens (was 94d6e0e9...68fc3a32,
# 80358b00...18f09d80). verify was re-pinned again when Tarjan's preorder
# intervals replaced the heavy-path labels and their exchange: label_sizes,
# label_assign and a label exchange (5/39/39, 6/51/164, 2/61/185) became
# verify_sizes, verify_preorder and a one-token exchange (5/39/39, 5/39/39,
# 1/42/84), same verdict and bridges: in all 29/349/586 -> 27/318/360 (was
# aa84322c...efe43654e4, 95d9e34d...f7dfa8cfc2). wtap was re-pinned when
# weighted_up's messages dropped their ancestor-depth token, which the
# receiver counts: each of its lines loses that token and nothing else
# moves, weighted_up 21/179/358 -> 21/179/179 and in all 57/335/787 ->
# 57/335/608 rounds/messages/tokens (was ea8796c0...933eb0daa,
# 651802bd...eb0d7). tap and wtap were re-pinned when a label went on the
# wire as its hops alone, without its ("lh", vertexId, depth) header, same
# outputs: label_assign 12/39/144 -> 12/39/105 and exchange 1/42/160 ->
# 1/42/118 in both, in all 49/198/538 -> 49/198/457 (tap; was
# 35d70571...777dc83c, 8d8ebcf7...b1cd7bcc) and 57/335/608 -> 57/335/527
# (wtap; was c2b58f33...98d3c3b5, 423fe43f...e59ecd). wtap was re-pinned
# again when weighted_down relayed (topDepth,) alone instead of (topDepth,
# topId, deciderId): each relay line loses its last two tokens and nothing
# else moves, weighted_down 11/36/86 -> 11/36/36 and in all 57/335/527 ->
# 57/335/477 (was 896145f5...72779b32, ffde382b...0f451d7ff5). All three
# were re-pinned when labels delimited themselves, their last hop tagged
# "lq", with no length token, the label wave relayed cut-through and
# verify's exchange went unframed, same outputs: tap's and wtap's
# label_assign 12/39/105 -> 12/39/66 and exchange 1/42/118 -> 1/42/76, in
# all 49/198/457 -> 49/198/376 (tap; was facbd7bb...44a71855,
# 4f7b4b73...99fc1ed8) and 57/335/477 -> 57/335/396
# (wtap; was 40485b1b...b99060ec, bf319269...07a81c43); verify's exchange
# 1/42/84 -> 1/42/42, in all 27/318/360 -> 27/318/318 (was
# 992b26ef...e2334bd7, 2e73f394...acba486d3)
RUN_PINS = {
    "tap": ("58ad195033298d6cb1f9006be5e7f0c19b21a9e3e9eba490700ddb2b06721ba6",
            "15999577c282fe69919d0ba4ba9df6210be1092029014cce4730c899083c68f3"),
    "wtap": ("6406be6b3b160258b2944d24fcb66d0de317c5967244e31a7e71fc5fb39a2b57",
             "8cab5b91054c43694bb5193d339134b63626b0bf0ac9c339b289bdf2d5c71719"),
    "verify": ("b5577c0307d25d3b96a230890f8960a9f8d4c2b65990d3d38d8b4004d1a0a9f1",
               "7d2e7b977263edc4171655a20784b01f800f1232eda730ea32006ff023ed84c7"),
}


@pytest.mark.parametrize("algo", sorted(RUN_PINS))
def test_run_transcript_and_metrics_pinned(tmp_path, algo):
    inst = str(tmp_path / "r.txt")
    tr = str(tmp_path / "t.log")
    met = str(tmp_path / "m.csv")
    assert run_cli(["gen", "random", "--n", "40", "--extra", "20", "--seed", "3",
                    "--wmin", "1", "--wmax", "9", "-o", inst]) == 0
    assert run_cli(["run", inst, "--algo", algo, "--budget", "4",
                    "--transcript", tr, "--metrics", met]) == 0
    digests = tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest()
                    for p in (tr, met))
    assert digests == RUN_PINS[algo]


# tap's transcript and --metrics CSV on the same instance at budget 1, where
# every frame is split across the most rounds. Re-pinned when the covering
# scan's two label frames an edge became one framed 4-token header (5 tokens
# with its length): cover_up 87 -> 60 rounds, 249 -> 195 messages; in all
# 151 -> 124 rounds, 631 -> 577 messages and tokens, same output (was
# af6cd25b...1821604, 4a6cea92...b962782ab). Re-pinned again when labels
# lost their ("lh", vertexId, depth) header: label_assign 36/144 -> 24/105
# and exchange 4/160 -> 3/118 rounds/messages; in all 124 -> 111 rounds,
# 577 -> 496 messages and tokens, same output (was 0fbbb683...cc2235d,
# 3f4b1fee...1f1660c). Re-pinned again when labels lost their length token
# and the label wave relayed cut-through: label_assign 24/105 -> 12/66 and
# exchange 3/118 -> 2/76 rounds/messages; in all 111 -> 98 rounds, 496 ->
# 415 messages and tokens, same output (was 380df030...2ac28cc9,
# 586e5866...1110a46a)
TAP_BUDGET_1_PIN = (
    "175f65be24152b9d096319647cd3fa6a90646ba3a0e655d4f355e105a61b85d9",
    "a82ca61ea2d6297d5b3ac2b4b47d88d98a2e1e3960723dbd51ab59ee086fcf8b")


def test_tap_at_the_smallest_budget_pinned(tmp_path):
    inst, tr, met = (str(tmp_path / f) for f in ("r.txt", "t.log", "m.csv"))
    assert run_cli(["gen", "random", "--n", "40", "--extra", "20", "--seed", "3",
                    "--wmin", "1", "--wmax", "9", "-o", inst]) == 0
    assert run_cli(["run", inst, "--algo", "tap", "--budget", "1",
                    "--transcript", tr, "--metrics", met]) == 0
    assert tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest()
                 for p in (tr, met)) == TAP_BUDGET_1_PIN


# wtap and ecss-w at budget 3 on a larger random instance (n = 300, h = 35),
# whose trees have vertices with children of different subtree heights: the
# upward phase holds up to 18 depths that some children have reported and
# others have not, not only the one-child case where each value is final on
# arrival. SHA-256 of the transcript and of the --metrics CSV. Re-pinned
# when weighted_up's messages dropped their ancestor-depth token, which the
# receiver counts: each weighted_up line loses that token and nothing else
# moves; weighted_up tokens 9356 -> 4678 (wtap) and 10638 -> 5319 (ecss-w)
# (was 9b5bc33c...68ef2abd, d92ef4af...b46a70; 3ba195c7...7491dd,
# 4e66f12e...ac18acd). Re-pinned again when labels lost their ("lh",
# vertexId, depth) header, same outputs: wtap's label_assign 41/563/1305 ->
# 36/431/1006 and exchange 2/572/1333 -> 2/444/1031, in all 179/6409/8342
# -> 174/6149/7741 rounds/messages/tokens; ecss-w's label_assign
# 46/568/1329 -> 43/431/1030 and exchange 3/578/1373 -> 2/456/1071, in all
# 213/7962/9950 -> 209/7703/9349 (was 6d2d7f41...5002ae8ae,
# 29559513...854ad31; a981683c...315a263e75f60, 8bcfd103...46b183b11).
# Re-pinned again when weighted_down relayed (topDepth,) alone instead of
# (topDepth, topId, deciderId), same outputs: weighted_down tokens 727 ->
# 297 (wtap) and 730 -> 298 (ecss-w), in all 7741 -> 7311 and 9349 -> 8917
# tokens, no round or message count moved (was e9847d92...f2809ce4,
# 147d4aa2...004e8d621; bf989610...ad70e8000, b0f70c7a...c4849d9d).
# Re-pinned again when labels lost their length token and the label wave
# relayed cut-through, same outputs: wtap's label_assign 36/431/1006 ->
# 35/311/707 and exchange 2/444/1031 -> 2/317/729, in all 174/6149/7311 ->
# 173/5902/6710; ecss-w's label_assign 43/431/1030 -> 31/330/731 and
# exchange 2/456/1071 -> 2/339/769, in all 209/7703/8917 -> 197/7485/8316
# (was c95c4434...2ecac12a, 9b42365a...0ee640a3;
# bd8de948...b4730ee9f0, 4ad2eb62...bde8aa2f9)
UNEVEN_TREE_PINS = {
    "wtap": ("93f4332c7a44ed0dc620bb6210bb0072ecbf531a9909a02d7464bd509ee7da96",
             "d6ff33d5519802e1d4df4c6d4c8dcc064d1439847685f9a558a61c4b79b3d4d3"),
    "ecss-w": ("8b6f5b65591b4e11e1b85981aa7183c1861931c84fbf8e1d17ba9b14ad1c12a6",
               "a35816403717c0ec365c2236de090413390a017eaec438a7fb10fbcb162d6741"),
}


@pytest.mark.parametrize("algo", sorted(UNEVEN_TREE_PINS))
def test_weighted_runs_on_uneven_subtrees_pinned(tmp_path, algo):
    inst, tr, met = (str(tmp_path / f) for f in ("r.txt", "t.log", "m.csv"))
    assert run_cli(["gen", "random", "--n", "300", "--extra", "150", "--seed", "11",
                    "--wmin", "1", "--wmax", "9", "-o", inst]) == 0
    assert run_cli(["run", inst, "--algo", algo, "--budget", "3",
                    "--transcript", tr, "--metrics", met]) == 0
    assert tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest()
                 for p in (tr, met)) == UNEVEN_TREE_PINS[algo]


def test_bridged_input_exits_2(tmp_path):
    inst = tmp_path / "b.txt"
    inst.write_text("4 4\n0 1 1 t\n1 2 1 t\n2 3 1 t\n1 3 1\n")
    assert run_cli(["run", str(inst), "--algo", "tap"]) == 2


def test_round_limit_exits_3(tmp_path):
    inst = str(tmp_path / "c.txt")
    run_cli(["gen", "cycle", "--n", "64", "-o", inst])
    assert run_cli(["run", inst, "--algo", "tap", "--max-rounds", "3"]) == 3


def test_transcript_cut_short_by_the_round_limit(tmp_path):
    # the streamed file holds exactly the lines a list sink collects from
    # the same run, joined with newlines plus a final newline
    inst = str(tmp_path / "c.txt")
    tr = str(tmp_path / "t.log")
    run_cli(["gen", "cycle", "--n", "64", "-o", inst])
    assert run_cli(["run", inst, "--algo", "tap", "--max-rounds", "3",
                    "--transcript", tr]) == 3
    g, tree = read_instance(inst)
    lines = []
    sim.DEFAULT_MAX_ROUNDS = 3
    sim.TRANSCRIPT_SINK = lines
    with pytest.raises(sim.RoundLimitExceeded):
        unweighted.augment_unweighted(g, tree)
    assert len(lines) > 1
    assert Path(tr).read_text() == "\n".join(lines) + "\n"


def test_transcript_with_no_lines_is_one_newline(tmp_path):
    # tap needs the tree marks, so it fails before any engine run
    inst = tmp_path / "nt.txt"
    inst.write_text("3 3\n0 1 1\n1 2 1\n0 2 1\n")
    tr = tmp_path / "t.log"
    assert run_cli(["run", str(inst), "--algo", "tap",
                    "--transcript", str(tr)]) == 1
    assert tr.read_bytes() == b"\n"


def test_unusable_transcript_path_fails_before_the_run(tmp_path, capsys,
                                                      monkeypatch):
    inst = str(tmp_path / "c.txt")
    run_cli(["gen", "cycle", "--n", "12", "-o", inst])
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli, "_run_algo", lambda *a: calls.append(a))
    tr = str(tmp_path / "missing-dir" / "t.log")
    assert run_cli(["run", inst, "--algo", "tap", "--transcript", tr]) == 1
    out, err = capsys.readouterr()
    assert calls == []
    assert err.startswith("error: ") and "missing-dir" in err, err
    assert out == ""


@pytest.mark.parametrize("limit", ("0", "-3"))
def test_round_limit_below_1_is_rejected_up_front(tmp_path, capsys, limit):
    missing = str(tmp_path / "never-read.txt")
    assert run_cli(["run", missing, "--algo", "tap", "--max-rounds", limit]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "at least 1" in err, err
    assert "never-read" not in err and out == ""


@pytest.mark.parametrize("args", (
    ["cycle", "--n", "-1"],
    ["lb-path", "--k", "0"],
    ["random", "--n", "1", "--extra", "0"],
    ["lb-disj", "--k", "2", "--p", "2", "--a", "101", "--b", "01"],
), ids=("cycle", "lb-path", "random", "lb-disj"))
def test_gen_rejects_a_size_the_family_does_not_allow(tmp_path, capsys, args):
    out_path = tmp_path / "g.txt"
    assert run_cli(["gen"] + args + ["-o", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == "", err
    assert not out_path.exists()


def test_negative_edge_weight_in_an_instance_is_an_error(tmp_path, capsys):
    # the exact optimum assumes w >= 0: on this instance wtap reported
    # value=-13 against optimum=-10, and ecss-w a ratio below 1
    inst = tmp_path / "neg.txt"
    inst.write_text("4 7\n0 1 1 t\n1 2 1 t\n2 3 1 t\n0 3 1\n0 2 -5\n"
                    "1 3 -5\n0 1 -3\n")
    for algo in ("wtap", "ecss-w"):
        assert run_cli(["run", str(inst), "--algo", algo, "--oracle"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "negative weight" in err, err
        assert out == ""


@pytest.mark.parametrize("args", (
    ["random", "--n", "10", "--extra", "3", "--wmin", "-1"],
    ["random", "--n", "10", "--extra", "3", "--wmin", "5", "--wmax", "2"],
    ["lb-path", "--k", "3", "--weighted", "--alpha", "-5"],
), ids=("random", "random-empty-range", "lb-path"))
def test_gen_rejects_negative_or_empty_weight_ranges(tmp_path, capsys, args):
    out_path = tmp_path / "g.txt"
    assert run_cli(["gen"] + args + ["-o", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == "", err
    assert "randrange" not in err and not out_path.exists()


def _module_names():
    return [(mod, dict(vars(mod))) for mod in (sim, cli)]


def _assert_unchanged(before):
    for mod, names in before:
        now = vars(mod)
        assert sorted(now) == sorted(names), mod.__name__
        moved = [k for k, v in names.items() if now[k] is not v]
        assert not moved, (mod.__name__, moved)


def test_max_rounds_option_does_not_leak(tmp_path):
    # every module-level name of sim and cli is the same object after a run
    # that sets the round limit and the transcript, and after one that hits
    # the limit and exits 3
    inst = str(tmp_path / "c.txt")
    log = str(tmp_path / "t.txt")
    run_cli(["gen", "cycle", "--n", "16", "-o", inst])
    before = _module_names()
    assert run_cli(["run", inst, "--algo", "tap", "--max-rounds", "4096",
                    "--transcript", log]) == 0
    _assert_unchanged(before)
    assert run_cli(["run", inst, "--algo", "tap", "--max-rounds", "3",
                    "--transcript", log]) == 3
    _assert_unchanged(before)


def test_diameter_computed_only_for_csv(tmp_path, monkeypatch):
    inst = str(tmp_path / "c.txt")
    csv = str(tmp_path / "out.csv")
    run_cli(["gen", "cycle", "--n", "16", "-o", inst])
    calls = []
    diameter = cli._graph_diameter
    monkeypatch.setattr(cli, "_graph_diameter",
                        lambda g: calls.append(g.n) or diameter(g))
    assert run_cli(["run", inst, "--algo", "tap"]) == 0
    assert calls == []
    assert run_cli(["run", inst, "--algo", "tap", "--csv", csv]) == 0
    assert calls == [16]
    row = Path(csv).read_text().strip().split("\n")[1].split(",")
    assert row[4] == "8"


def test_oracle_subcommand(tmp_path, capsys):
    inst = str(tmp_path / "p.txt")
    run_cli(["gen", "lb-path", "--k", "3", "-o", inst])
    capsys.readouterr()
    assert run_cli(["oracle", inst, "--problem", "tap"]) == 0
    out = capsys.readouterr().out
    assert "optimum=3" in out
    # the guard path reports and exits 1
    big = str(tmp_path / "big.txt")
    run_cli(["gen", "cycle", "--n", "50", "-o", big])
    assert run_cli(["oracle", big, "--problem", "ecss"]) == 1


@pytest.mark.parametrize("algo", ["tap", "wtap", "fast", "aug12"])
def test_single_vertex_is_its_own_spanning_tree(tmp_path, capsys, algo):
    # "1 0" marks no tree edge, yet the one vertex is spanned: the tree
    # problems have nothing to cover
    inst = tmp_path / "one.txt"
    inst.write_text("1 0\n")
    assert run_cli(["run", str(inst), "--algo", algo]) == 0
    assert " value=0 valid=True" in capsys.readouterr().out
    if algo != "fast":
        assert run_cli(["oracle", str(inst), "--problem", algo]) == 0
        assert "optimum=0" in capsys.readouterr().out


@pytest.mark.parametrize("problem", ["ecss", "ecss-w"])
def test_single_vertex_optimum_is_zero(tmp_path, capsys, problem):
    inst = tmp_path / "one.txt"
    inst.write_text("1 0\n")
    assert run_cli(["run", str(inst), "--algo", problem, "--oracle"]) == 0
    assert "optimum=0" in capsys.readouterr().out
    assert run_cli(["oracle", str(inst), "--problem", problem]) == 0
    assert "optimum=0" in capsys.readouterr().out


def test_missing_tree_is_an_error(tmp_path):
    inst = tmp_path / "nt.txt"
    inst.write_text("3 3\n0 1 1\n1 2 1\n0 2 1\n")
    assert run_cli(["run", str(inst), "--algo", "tap"]) == 1
    # verify has no tree requirement
    assert run_cli(["run", str(inst), "--algo", "verify"]) == 0


def test_console_script_entry_point(tmp_path):
    # the subprocesses import the same treeaug as this test, wherever pytest
    # found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(treeaug.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    inst = str(tmp_path / "e.txt")
    r = subprocess.run([sys.executable, "-m", "treeaug.cli", "gen", "cycle",
                        "--n", "6", "-o", inst], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0 and "wrote" in r.stdout
    r = subprocess.run([sys.executable, "-m", "treeaug.cli", "run", inst,
                        "--algo", "tap", "--oracle"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "valid=True" in r.stdout and "optimum=" in r.stdout


def test_budget_below_1_is_rejected_up_front(tmp_path, capsys):
    missing = str(tmp_path / "never-read.txt")
    for algo in cli.ALGOS:
        assert run_cli(["run", missing, "--algo", algo, "--budget", "0"]) == 1, algo
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least 1" in err, err


def test_lowest_accepted_budgets_run(tmp_path):
    # every program frames or streams its messages at one token a round
    inst = str(tmp_path / "r.txt")
    run_cli(["gen", "random", "--n", "30", "--extra", "15", "--seed", "5",
             "-o", inst])
    for algo in cli.ALGOS:
        assert run_cli(["run", inst, "--algo", algo, "--budget", "1"]) == 0, algo


def test_unreadable_or_malformed_instance_is_an_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert run_cli(["run", missing, "--algo", "tap"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.txt" in err, err
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 x 1 t\n")
    for cmd in (["run", str(bad), "--algo", "tap"], ["oracle", str(bad)]):
        assert run_cli(cmd) == 1, cmd
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'1 x 1 t'" in err, err
