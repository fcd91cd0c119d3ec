"""Smoke runs of the cross-check and scaling scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra", ([], ["--weighted"]))
def test_crosscheck_random_finds_no_mismatch(capsys, extra):
    argv = ["--trials", "20", "--seed", "3"] + extra
    assert load("crosscheck_random").main(argv) == 0
    assert "20 trials, 0 mismatching instances" in capsys.readouterr().out


def test_scaling_path_matches_brute_force(capsys):
    argv = ["--max-length", "14", "--bf-cutoff", "14"]
    assert load("scaling_path").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # a header, then lengths 4, 6, ..., 14, each with a brute-force time
    assert len(lines) == 7
    assert all(line.split()[-1] != "-" for line in lines[1:])
