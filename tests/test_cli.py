"""Command-line front end: document grammar, reports, exit codes."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialpolls import cli
from socialpolls.cli import main, parse_instance, render_instance
from socialpolls.model import PollInputError, instance_union
from socialpolls.reductions import (
    PartitionInput,
    gen_family,
    gen_partition_wpw,
    gen_random,
)
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

    def test_strict_exit_on_no(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "necessary", "--instance", path,
            "--candidate", "a", "--method", "bf", "--strict-exit",
        )
        assert code == 2
        assert "counterexample:" in out

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
            return real(g)

        monkeypatch.setattr(cli, "heuristic_td", counted)
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(capsys, *question, "--instance", path,
                             "--method", "auto")
        assert code == 0
        assert "method: dp" in out
        assert len(calls) == 1

    def test_auto_falls_back_to_bf_on_weights(self, capsys, tmp_path):
        path = save(tmp_path, p3_gadget())
        code, out, err = run(capsys, "scores", "--instance", path)
        assert code == 0
        assert "method: bf" in out

    def test_dump_table(self, capsys, tmp_path):
        path = save(tmp_path, two_agent_edge())
        code, out, err = run(
            capsys, "scores", "--instance", path,
            "--method", "dp", "--dump-table",
        )
        assert code == 0
        assert "node 0 type leaf entries" in out

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
