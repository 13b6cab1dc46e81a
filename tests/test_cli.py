import hashlib
import os
import subprocess
import sys

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
    lines = open(csv).read().strip().split("\n")
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
    mlines = open(met).read().strip().split("\n")
    assert mlines[0] == "phase,rounds,messages,tokens,max_tokens_edge_round"
    assert mlines[-1].startswith("total,")
    tlines = open(tr).read().strip().split("\n")
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
        outs.append((open(tr, "rb").read(), open(csv, "rb").read()))
    assert outs[0] == outs[1]


def _fast_lb_disj_transcript(tmp_path):
    inst = str(tmp_path / "d.txt")
    tr = str(tmp_path / "t.log")
    assert run_cli(["gen", "lb-disj", "--k", "2", "--d", "2", "--p", "4",
                    "--a", "10", "--b", "01", "--unweighted", "-o", inst]) == 0
    assert run_cli(["run", inst, "--algo", "fast", "--transcript", tr]) == 0
    return open(tr, "rb").read()


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
    # multi-token message sent as a length-prefixed frame; the schedule
    # itself is pinned separately below. Re-pinned when the broadcast
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
    # bytes (was c84cdbb7...381093), same output
    data = _fast_lb_disj_transcript(tmp_path)
    assert len(data) == 94724
    assert hashlib.sha256(data).hexdigest() == (
        "e78412c07537ac22007ef5d0c7fc19bd6e60cb26d86698656a2b3b53e6f3ea73")


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
    # that phase 14 -> 7 rounds, 112 -> 56 messages
    lines = _fast_lb_disj_transcript(tmp_path).decode().splitlines()
    schedule = "".join(",".join(line.split(",")[:5]) + "\n" for line in lines)
    assert hashlib.sha256(schedule.encode()).hexdigest() == (
        "cc251ed98da83cee432eb1ec35222348218ecb85da084d5776237151cf8e88a2")


# SHA-256 of the full transcript and of the --metrics CSV at budget 4 on one
# small weighted instance; a change to how a phase is written must not move
# a single delivered byte. tap and verify were re-pinned when the covering
# scan's up pass sent one 4-token (origin, ancestor depth) header per tree
# edge instead of two label frames, same outputs: tap's cover_up 24 -> 12
# rounds, 78 -> 39 messages, 249 -> 156 tokens (total 61/237/631 ->
# 49/198/538; was 4fd8a87b...c12a203, 3511c622...016863b); verify's
# cover_up 10 -> 5 rounds, 80 -> 39 messages, 241 -> 156 tokens (total
# 44/468/866 -> 39/427/781; was 0d4076a1...749a5b, 431bb6ed...37dee6e)
RUN_PINS = {
    "tap": ("35d705717da9d75ffbe59fcae2f3d33d0d38d57a5c51607704d11bcd777dc83c",
            "8d8ebcf7bbe6c5457310aa1957dc621468a55a6bfd1ea41d81415a3cb1cd7bcc"),
    "wtap": ("ea8796c0f9b71a6ab0f18a7cfc6526d068c160f9e22c0d382fcb28c933eb0daa",
             "651802bdf9f44c190509f6e097423fa3a9331742a7c2e140b7ad6d24d5ecb0d7"),
    "verify": ("94d6e0e95654bf688b075405be394221af9fce1dbd4cd33a1d39b7c568fc3a32",
               "80358b00fe0e447f79a33007659104a66154cee597d131c6793514a118f09d80"),
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
    digests = tuple(hashlib.sha256(open(p, "rb").read()).hexdigest()
                    for p in (tr, met))
    assert digests == RUN_PINS[algo]


# tap's transcript and --metrics CSV on the same instance at budget 1, where
# every frame is split across the most rounds. Re-pinned when the covering
# scan's two label frames an edge became one framed 4-token header (5 tokens
# with its length): cover_up 87 -> 60 rounds, 249 -> 195 messages; in all
# 151 -> 124 rounds, 631 -> 577 messages and tokens, same output (was
# af6cd25b...1821604, 4a6cea92...b962782ab)
TAP_BUDGET_1_PIN = (
    "0fbbb683a469f5721dcde0bb13d1a990a6bda6a8163c2ff774b322b22ec2235d",
    "3f4b1feeac402abe2bdc5a9941a69c856ab57845177297b2bff2fcc441f1660c")


def test_tap_at_the_smallest_budget_pinned(tmp_path):
    inst, tr, met = (str(tmp_path / f) for f in ("r.txt", "t.log", "m.csv"))
    assert run_cli(["gen", "random", "--n", "40", "--extra", "20", "--seed", "3",
                    "--wmin", "1", "--wmax", "9", "-o", inst]) == 0
    assert run_cli(["run", inst, "--algo", "tap", "--budget", "1",
                    "--transcript", tr, "--metrics", met]) == 0
    assert tuple(hashlib.sha256(open(p, "rb").read()).hexdigest()
                 for p in (tr, met)) == TAP_BUDGET_1_PIN


# wtap and ecss-w at budget 3 on a larger random instance (n = 300, h = 35),
# whose trees have vertices with children of different subtree heights: the
# upward phase holds up to 18 depths that some children have reported and
# others have not, not only the one-child case where each value is final on
# arrival. SHA-256 of the transcript and of the --metrics CSV
UNEVEN_TREE_PINS = {
    "wtap": ("9b5bc33c5222db8db62db828cb80b3e7d4622a4fc7a3546dc37d7baa68ef2abd",
             "d92ef4afe3c2213375ba2bc0b9f5a4676dc4454cbb724d6ed4819c3670b46a70"),
    "ecss-w": ("3ba195c7f3d5577b32d3c66f10c864868c33acb5024a446a27918677467491dd",
               "4e66f12ef03cb92312c2e234dd7212e1887cd483dea944ee379ef7eb9ac18acd"),
}


@pytest.mark.parametrize("algo", sorted(UNEVEN_TREE_PINS))
def test_weighted_runs_on_uneven_subtrees_pinned(tmp_path, algo):
    inst, tr, met = (str(tmp_path / f) for f in ("r.txt", "t.log", "m.csv"))
    assert run_cli(["gen", "random", "--n", "300", "--extra", "150", "--seed", "11",
                    "--wmin", "1", "--wmax", "9", "-o", inst]) == 0
    assert run_cli(["run", inst, "--algo", algo, "--budget", "3",
                    "--transcript", tr, "--metrics", met]) == 0
    assert tuple(hashlib.sha256(open(p, "rb").read()).hexdigest()
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
    assert open(tr).read() == "\n".join(lines) + "\n"


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


def test_max_rounds_option_does_not_leak(tmp_path):
    inst = str(tmp_path / "c.txt")
    run_cli(["gen", "cycle", "--n", "16", "-o", inst])
    before = sim.DEFAULT_MAX_ROUNDS
    assert run_cli(["run", inst, "--algo", "tap", "--max-rounds", "4096"]) == 0
    assert sim.DEFAULT_MAX_ROUNDS is before
    assert run_cli(["run", inst, "--algo", "tap", "--max-rounds", "3"]) == 3
    assert sim.DEFAULT_MAX_ROUNDS is before


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
    row = open(csv).read().strip().split("\n")[1].split(",")
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


def test_budget_below_the_algorithms_minimum_is_rejected_up_front(tmp_path, capsys):
    missing = str(tmp_path / "never-read.txt")
    for algo in cli.ALGOS:
        need = 3 if algo in ("wtap", "ecss-w", "aug12") else 1
        assert run_cli(["run", missing, "--algo", algo, "--budget", "0"]) == 1, algo
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least %d" % need in err, err
    for algo in ("wtap", "ecss-w", "aug12"):
        for budget in ("1", "2"):
            assert run_cli(["run", missing, "--algo", algo,
                            "--budget", budget]) == 1, (algo, budget)
            assert "at least 3" in capsys.readouterr().err


def test_lowest_accepted_budgets_run(tmp_path):
    # the weighted records are 2 and 3 tokens; every other program frames
    # its messages and streams them at one token a round
    inst = str(tmp_path / "r.txt")
    run_cli(["gen", "random", "--n", "30", "--extra", "15", "--seed", "5",
             "-o", inst])
    for algo in cli.ALGOS:
        budget = "3" if algo in ("wtap", "ecss-w", "aug12") else "1"
        assert run_cli(["run", inst, "--algo", algo, "--budget", budget]) == 0, algo


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
