"""Command-line front end: document grammar, reports, exit codes."""

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialpolls import cli, oracle
from socialpolls.cli import main, parse_instance, render_instance
from socialpolls.model import AgentPrefs, Instance, PollInputError, instance_union
from socialpolls.reductions import (
    PartitionInput,
    gen_family,
    gen_partition_wpw,
    gen_random,
)
import test_dpsolver
from test_model import p3_gadget, two_agent_edge


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def save(tmp_path, inst, name="inst.poll"):
    path = tmp_path / name
    path.write_text(render_instance(inst), encoding="utf-8")
    return str(path)


class TestDocumentFormat:
    def test_round_trip_fixed_instances(self):
        for inst in (p3_gadget(), two_agent_edge(), gen_family("L", 4)):
            assert parse_instance(render_instance(inst)) == inst

    def test_render_is_canonical(self):
        text = render_instance(p3_gadget())
        assert render_instance(parse_instance(text)) == text

    @given(st.integers(0, 2_000), st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, seed, n):
        inst = gen_random(seed, n, 3, edge_prob=0.4, max_weight=4)
        assert parse_instance(render_instance(inst)) == inst

    def test_two_agent_document_shape(self):
        lines = render_instance(two_agent_edge()).splitlines()
        assert len(lines) == 6
        assert lines[0] == "poll poll"
        assert lines[1] == "candidates a b"
        assert lines[2] == "distinguished a"
        assert lines[-1] == "edge 0 1"

    def test_partition_document_shape(self):
        inst = gen_partition_wpw(PartitionInput([1, 1]), big_b=5)
        lines = render_instance(inst).splitlines()
        assert sum(1 for l in lines if l.startswith("agent ")) == 7
        assert sum(1 for l in lines if l.startswith("edge ")) == 4

    def test_weight_omitted_when_one(self):
        lines = render_instance(p3_gadget()).splitlines()
        agent_lines = [l for l in lines if l.startswith("agent ")]
        assert agent_lines[0] == "agent 0 top=c prefs=b,c"
        assert agent_lines[2] == "agent 2 top=b prefs=b,c weight=5"

    def test_minimal_document(self):
        inst = parse_instance(
            "candidates a\ndistinguished a\nagent 0 top=a prefs=a\n"
        )
        assert inst.n_agents == 1
        assert inst.name == "poll"

    @pytest.mark.parametrize(
        "doc,loc",
        [
            ("candidates a\ndistinguished a\nagent 0 top=a prefs=a\nedge 0 0\n", "line 4"),
            ("poll p\npoll q\ncandidates a\ndistinguished a\n", "line 2"),
            ("candidates a\ndistinguished a\nagent 0 top=a prefs=a\nagent 0 top=a prefs=a\n", "line 4"),
            ("candidates a\ndistinguished a\nagent 0 top=b prefs=b\n", "line 3"),
            ("candidates a\ndistinguished a\nagent 0 top=a prefs=a,z\n", "line 3"),
            ("candidates a\ndistinguished a\nagent 1 top=a prefs=a\n", "line 3"),
            ("candidates a\ndistinguished a\nagent 0 top=b prefs=a\n", "top"),
            ("candidates a\nagent 0 top=a prefs=a\n", "distinguished"),
            ("distinguished a\nagent 0 top=a prefs=a\n", "candidates"),
            ("candidates a\ndistinguished a\nagent 0 top=a prefs=a\nedge 0 1\n", "unknown agent"),
            ("candidates a\ndistinguished a\nwhatever 1\n", "unknown directive"),
        ],
    )
    def test_diagnostics_carry_location(self, doc, loc):
        with pytest.raises(PollInputError, match=loc):
            parse_instance(doc)

    def test_comments_and_blank_lines_ignored(self):
        doc = (
            "# header\n\npoll named   # trailing\n"
            "candidates a b\ndistinguished a\n"
            "agent 0 top=a prefs=a,b\nagent 1 top=b prefs=a,b\nedge 0 1\n"
        )
        inst = parse_instance(doc)
        assert inst.name == "named"
        assert inst == dataclasses.replace(two_agent_edge(), name="named")


class TestValidateAndSimulate:
    def test_validate_report(self, capsys, tmp_path):
        path = save(tmp_path, p3_gadget())
        code, out, err = run(capsys, "validate", "--instance", path)
        assert code == 0
        assert "status: ok" in out
        assert "agents: 3" in out
        assert "weighted: yes" in out

    def test_simulate_report(self, capsys, tmp_path):
        path = save(tmp_path, p3_gadget())
        code, out, err = run(
            capsys, "simulate", "--instance", path, "--order", "2,1,0"
        )
        assert code == 0
        assert "votes: c,a,b" in out
        assert "score b: 5" in out
        assert "winners: b" in out

    def test_bad_order_exits_one(self, capsys, tmp_path):
        path = save(tmp_path, p3_gadget())
        code, out, err = run(
            capsys, "simulate", "--instance", path, "--order", "0,1"
        )
        assert code == 1
        assert "error:" in err

    def test_empty_order_on_a_poll_without_agents(self, capsys, tmp_path):
        path = save(tmp_path, Instance(("a", "b"), (), frozenset(), "a"))
        code, out, err = run(capsys, "simulate", "--instance", path, "--order", "")
        assert code == 0
        lines = out.splitlines()
        assert "votes: " in lines
        assert [ln for ln in lines if ln.startswith("score ")] == ["score a: 0", "score b: 0"]

    def test_missing_file_exits_one(self, capsys):
        code, out, err = run(capsys, "validate", "--instance", "/nonexistent")
        assert code == 1
        assert "error:" in err

    def test_usage_error_exits_one(self, capsys):
        code, out, err = run(capsys, "validate")
        assert code == 1


class TestDecisionCommands:
    def test_possible_with_witness(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "possible", "--instance", path,
            "--candidate", "a", "--method", "bf",
        )
        assert code == 0
        assert "decision: YES" in out
        assert "witness: 0,1" in out
        assert "witness score a: 2" in out

    def test_necessary_dp_on_balanced_paths(self, capsys, tmp_path):
        lr = instance_union(gen_family("L", 2), gen_family("R", 2))
        path = save(tmp_path, lr)
        code, out, err = run(
            capsys, "necessary", "--instance", path,
            "--candidate", "c*", "--method", "dp",
        )
        assert code == 0
        assert "decision: YES" in out

    def test_necessary_reports_offender(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "necessary", "--instance", path,
            "--candidate", "a", "--method", "dp",
        )
        assert code == 0
        assert "decision: NO" in out
        assert "offending-candidate: b" in out

    @pytest.mark.parametrize("method", ["dp", "auto"])
    @pytest.mark.parametrize("question", ["necessary", "possible"])
    def test_single_candidate_runs_no_sweep(self, capsys, tmp_path, question, method):
        single = Instance(("a",), (AgentPrefs("a", ["a"]),), (), "a")
        path = save(tmp_path, single)
        code, out, err = run(
            capsys, question, "--instance", path,
            "--candidate", "a", "--method", method, "--dump-table",
        )
        assert code == 0, err
        assert "decision: YES" in out
        assert "method: dp" in out
        assert "table-entries: 0" in out
        assert "node " not in out

    @pytest.mark.parametrize("candidate, decision", [("a", "NO"), ("b", "YES"), ("c", "YES")])
    def test_possible_dp_on_weighted_poll(self, capsys, tmp_path, candidate, decision):
        # the DP answers weighted polls, and brute force agrees
        path = save(tmp_path, p3_gadget())
        code, out, err = run(
            capsys, "possible", "--instance", path,
            "--candidate", candidate, "--method", "dp", "--cross-check",
        )
        assert code == 0, err
        assert "method: dp" in out
        assert "cross-check: ok" in out
        assert "decision: %s" % decision in out

    @pytest.mark.parametrize("inst", [p3_gadget(), gen_random(3, 6, 4, max_weight=5)],
                             ids=["weighted", "weighted-four-candidates"])
    def test_auto_picks_dp_for_weighted_possible(self, capsys, tmp_path, inst):
        """Same decision as brute force, but the DP prints no witness."""
        path = save(tmp_path, inst)
        yes = 0
        for c in inst.candidates:
            code, out, err = run(capsys, "possible", "--instance", path, "--candidate", c)
            assert code == 0, err
            assert "method: dp" in out
            assert "witness" not in out
            decision = [l for l in out.splitlines() if l.startswith("decision: ")]
            code, out, err = run(capsys, "possible", "--instance", path, "--candidate", c,
                                 "--method", "bf")
            assert code == 0, err
            assert decision == [l for l in out.splitlines() if l.startswith("decision: ")]
            if decision == ["decision: YES"]:
                yes += 1
                assert "witness: " in out
        assert yes

    @pytest.mark.parametrize("question, key, order", [
        ("possible", "witness", (0, 1)), ("necessary", "counterexample", (1, 0)),
    ])
    def test_certificate_simulated_once(self, capsys, tmp_path, monkeypatch,
                                        question, key, order):
        orders = []
        real = cli.simulate_order

        def counted(inst, seq):
            orders.append(tuple(seq))
            return real(inst, seq)

        monkeypatch.setattr(cli, "simulate_order", counted)
        monkeypatch.setattr(oracle, "simulate_order", counted)
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, question, "--instance", path,
            "--candidate", "a", "--method", "bf",
        )
        assert code == 0
        assert orders == [order]
        assert "%s: %s" % (key, ",".join(map(str, order))) in out

    def test_strict_exit_on_no(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "necessary", "--instance", path,
            "--candidate", "a", "--method", "bf", "--strict-exit",
        )
        assert code == 2
        assert "counterexample:" in out

    def test_strict_exit_is_for_decisions_only(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "scores", "--instance", path, "--strict-exit",
        )
        assert code == 1
        assert "unrecognized arguments: --strict-exit" in err
        assert out == ""

    def test_cross_check_agrees(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "possible", "--instance", path,
            "--candidate", "b", "--method", "bf", "--cross-check",
        )
        assert code == 0
        assert "cross-check: ok" in out

    def test_resource_guard_exits_three(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "possible", "--instance", path,
            "--candidate", "a", "--method", "bf", "--max-orientations", "1",
        )
        assert code == 3
        assert "resource guard:" in err

    def test_unknown_candidate_exits_one(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "possible", "--instance", path, "--candidate", "z",
        )
        assert code == 1


class TestScoresCommand:
    def test_bf_and_dp_reports(self, capsys, tmp_path):
        path = save(tmp_path, p3_gadget())
        code, out, err = run(
            capsys, "scores", "--instance", path, "--method", "bf",
        )
        assert code == 0
        assert "count: 2" in out
        assert "set 1: a=0 b=0 c=7" in out
        assert "set 2: a=1 b=5 c=1" in out
        assert "orientations: 4" in out

    def test_auto_picks_dp_on_thin_unweighted(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(capsys, "scores", "--instance", path)
        assert code == 0
        assert "method: dp" in out
        assert "width: 1" in out

    @pytest.mark.parametrize("question", [
        ("scores",), ("possible", "--candidate", "a"),
    ])
    def test_auto_builds_the_decomposition_once(self, capsys, tmp_path,
                                                monkeypatch, question):
        calls = []
        real = cli.heuristic_td

        def counted(g):
            calls.append(g)
            time.sleep(0.05)
            return real(g)

        monkeypatch.setattr(cli, "heuristic_td", counted)
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(capsys, *question, "--instance", path,
                             "--method", "auto")
        assert code == 0
        assert "method: dp" in out
        assert len(calls) == 1
        # the decomposition that picks the method is part of the solve
        elapsed = [l for l in out.splitlines() if l.startswith("elapsed-ms: ")]
        assert int(elapsed[0].split()[1]) >= 50

    @pytest.mark.parametrize("method", ["bf", "dp"])
    def test_cross_check_agrees(self, capsys, tmp_path, method):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "scores", "--instance", path, "--method", method, "--cross-check",
        )
        assert code == 0
        assert "cross-check: ok" in out
        assert "count: 2" in out

    @pytest.mark.parametrize("question, name, wrong", [
        (("scores",), "achievable_scores_bf", lambda found: frozenset(list(found)[1:])),
        (("possible", "--candidate", "a"), "possible_winner_dp", lambda ok: not ok),
    ])
    def test_cross_check_mismatch_exits_one(self, capsys, tmp_path, monkeypatch,
                                            question, name, wrong):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: wrong(real(*args, **kwargs)))
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(capsys, *question, "--instance", path,
                             "--method", "dp", "--cross-check")
        assert code == 1
        assert out.splitlines()[-1] == "cross-check: mismatch"

    def test_auto_falls_back_to_bf_on_weights(self, capsys, tmp_path):
        path = save(tmp_path, p3_gadget())
        code, out, err = run(capsys, "scores", "--instance", path)
        assert code == 0
        assert "method: bf" in out

    @pytest.mark.parametrize("method", ["auto", "dp"])
    def test_cross_check_agrees_on_weights(self, capsys, tmp_path, method):
        path = save(tmp_path, p3_gadget())
        code, out, err = run(
            capsys, "scores", "--instance", path, "--method", method, "--cross-check",
        )
        assert code == 0
        assert "cross-check: ok" in out
        assert "count: 2" in out
        assert "set 2: a=1 b=5 c=1" in out

    def test_dump_table(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "scores", "--instance", path,
            "--method", "dp", "--dump-table",
        )
        assert code == 0
        assert "node 0 type leaf entries" in out

    # per-node DP slice sizes of three fixed polls, in count mode
    # (`scores`), margin mode (`necessary`) and front mode (`possible`),
    # where a row counts (key, vector) pairs: L leaf, I insert, F forget,
    # J join. The two decision sweeps also prune by the outside-agent
    # bound. The 4-cycle's bag (1, 2, 3) holds the non-friends 1 and 3,
    # whose states are stored once per order of the bag, not again under
    # every partial order that leaves them unrelated.
    KINDS = {"L": "leaf", "I": "insert", "F": "forget", "J": "join"}
    POLLS = {
        "INST": test_dpsolver.TestSweepCheckIsLive.INST,
        "STAR": test_dpsolver.TestSweepCheckIsLive.STAR,
        "CYCLE": Instance(("a", "b", "c"), tuple(AgentPrefs(t, ["a", "b", "c"]) for t in "abca"),
                          ((0, 1), (1, 2), (2, 3), (0, 3)), "a"),
    }

    @pytest.mark.parametrize("poll, question, kinds, entries", [
        ("INST", "scores", "LILIFIFIJIFFIFF",
         (3, 6, 3, 6, 6, 22, 6, 22, 28, 56, 40, 21, 20, 14, 10)),
        ("INST", "necessary", "LILIFIFIJIFFIFF",
         (3, 6, 3, 6, 6, 20, 6, 20, 24, 52, 32, 12, 6, 3, 1)),
        ("STAR", "scores", "LILILFIFIFIIJJFIFF",
         (2, 4, 2, 4, 1, 1, 2, 4, 8, 4, 7, 4, 12, 12, 9, 12, 7, 5)),
        ("STAR", "necessary", "LILILFIFIFIIJJFIFF",
         (2, 4, 2, 4, 1, 1, 2, 4, 6, 4, 3, 4, 4, 4, 3, 4, 2, 1)),
        ("INST", "possible", "LILIFIFIJIFFIFF",
         (3, 6, 3, 6, 6, 22, 6, 22, 16, 20, 13, 4, 6, 2, 1)),
        ("STAR", "possible", "LILILFIFIFIIJJFIFF",
         (2, 4, 2, 4, 1, 1, 2, 4, 6, 4, 6, 4, 8, 8, 6, 8, 2, 1)),
        ("CYCLE", "scores", "LIIFIFFF", (3, 10, 36, 36, 18, 16, 9, 4)),
        ("CYCLE", "necessary", "LIIFIFFF", (3, 8, 31, 31, 7, 6, 4, 1)),
        ("CYCLE", "possible", "LIIFIFFF", (3, 10, 19, 19, 11, 10, 4, 1)),
    ])
    def test_dump_table_rows(self, capsys, tmp_path, poll, question, kinds, entries):
        path = save(tmp_path, self.POLLS[poll])
        extra = ("--candidate", "a") if question != "scores" else ()
        code, out, err = run(
            capsys, question, "--instance", path, *extra,
            "--method", "dp", "--dump-table",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("node ")]
        assert rows == ["node %d type %s entries %d" % (i, self.KINDS[k], e)
                        for i, (k, e) in enumerate(zip(kinds, entries))]
        assert "table-entries: %d" % sum(entries) in out

    def test_output_file(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        report = tmp_path / "report.txt"
        code, out, err = run(
            capsys, "scores", "--instance", path, "--output", str(report),
        )
        assert code == 0
        assert out == ""
        assert "count: 2" in report.read_text(encoding="utf-8")


class TestTdCommand:
    def test_report_with_exact(self, capsys, tmp_path):
        path = save(tmp_path, p3_gadget())
        code, out, err = run(capsys, "td", "--instance", path, "--exact")
        assert code == 0
        assert "width: 1" in out
        assert "exact-width: 1" in out
        assert any(l.startswith("bag 0") for l in out.splitlines())


class TestGenCommands:
    def test_partition_pipe(self, capsys, tmp_path):
        out_file = tmp_path / "part.poll"
        code, _, _ = run(
            capsys, "gen", "partition", "--numbers", "1,1",
            "--output", str(out_file),
        )
        assert code == 0
        code, out, err = run(
            capsys, "possible", "--instance", str(out_file),
            "--candidate", "a", "--method", "bf",
        )
        assert code == 0
        assert "decision: YES" in out

    def test_family_single_and_multi(self, capsys):
        code, out, err = run(capsys, "gen", "family", "--kind", "L", "--length", "3")
        assert code == 0
        assert parse_instance(out).n_agents == 3
        code, out, err = run(
            capsys, "gen", "family", "--kind", "R", "--lengths", "2,2",
        )
        assert code == 0
        assert parse_instance(out).n_agents == 4
        code, out, err = run(capsys, "gen", "family", "--kind", "L")
        assert code == 1

    def test_sat_from_dimacs(self, capsys, tmp_path):
        dimacs = tmp_path / "f.cnf"
        dimacs.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n", encoding="utf-8")
        code, out, err = run(capsys, "gen", "sat", "--dimacs", str(dimacs))
        assert code == 0
        inst = parse_instance(out)
        assert inst.n_agents == 8 * 2 + 6 * 2 + 5
        assert inst.distinguished == "a"

    def test_hitting_set_from_file(self, capsys, tmp_path):
        sets = tmp_path / "sets.txt"
        sets.write_text("set a b c\nset a b c\nbudget 1\n", encoding="utf-8")
        code, out, err = run(
            capsys, "gen", "hitting-set", "--sets", str(sets),
            "--big-b", "7", "--big-d", "3",
        )
        assert code == 0
        assert parse_instance(out).n_agents == 23

    def test_random_reproducible(self, capsys):
        code, first, _ = run(
            capsys, "gen", "random", "--seed", "9",
            "--agents", "6", "--candidates", "3",
        )
        assert code == 0
        code, second, _ = run(
            capsys, "gen", "random", "--seed", "9",
            "--agents", "6", "--candidates", "3",
        )
        assert first == second
        assert parse_instance(first).n_agents == 6
