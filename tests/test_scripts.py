"""Smoke runs of the cross-check and scaling scripts under scripts/, one
of them under `python -O`, and of the benchmark's tracer."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


def test_crosscheck_random_finds_no_mismatch_without_asserts():
    # under -O the sweep's table-key check is stripped, as it is for
    # users who run that way, so only the answers are compared
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      env.get("PYTHONPATH"))))
    argv = ["--trials", "20", "--seed", "3", "--weighted"]
    done = subprocess.run([sys.executable, "-O", str(SCRIPTS / "crosscheck_random.py")] + argv,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "20 trials, 0 mismatching instances" in done.stdout


def test_scaling_path_matches_brute_force(capsys):
    argv = ["--max-length", "14", "--bf-cutoff", "14"]
    assert load("scaling_path").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # a header, then lengths 4, 6, ..., 14, each with a brute-force time
    assert len(lines) == 7
    assert all(line.split()[-1] != "-" for line in lines[1:])


def test_benchmark_tracer_wraps_and_restores_its_targets(monkeypatch):
    # the traced benchmark wraps package names by attribute; one renamed
    # or dropped in src/ would otherwise fail only a traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    spans = importlib.import_module("spans")

    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _ in spans._TARGETS]
    originals.append((spans.oracle, "enumerate_acyclic_orientations",
                      spans.oracle.enumerate_acyclic_orientations))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)
