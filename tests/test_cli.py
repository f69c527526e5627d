"""Unit tests for the command-line interface."""

import inspect
import io
import json

import pytest

from repro import cli
from repro.bench.harness import ExperimentResult
from repro.cli import EXPERIMENTS, build_parser, cmd_list_experiments, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_list_experiments():
    code, text = run_cli(["list-experiments"])
    assert code == 0
    names = text.split()
    assert "fig9" in names
    assert "table5" in names
    assert names == sorted(names)
    assert set(names) == set(EXPERIMENTS)


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "fig99"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_experiment_table5_renders():
    code, text = run_cli(["experiment", "table5"])
    assert code == 0
    assert "Table 5" in text
    assert "Dynamic provisioning" in text


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_binds_one_positional_seed(name):
    # cmd_experiment passes the seed positionally; it must land in a
    # parameter named seed (fig9's first parameter is its sink sweep).
    bound = inspect.signature(EXPERIMENTS[name]).bind(7)
    assert list(bound.arguments) == ["seed"]


def test_experiment_passes_the_seed(monkeypatch):
    seeds = []

    def runner(seed=0):
        seeds.append(seed)
        return ExperimentResult("stub")

    monkeypatch.setitem(cli.EXPERIMENTS, "fig9", runner)
    code, text = run_cli(["experiment", "fig9", "--seed", "3"])
    assert code == 0 and "stub" in text
    assert seeds == [3]


def test_experiment_type_error_propagates(monkeypatch):
    # An error inside an experiment surfaces; it is never rerun with
    # its default arguments.
    calls = []

    def runner(seed=0):
        calls.append(seed)
        raise TypeError("inside the experiment")

    monkeypatch.setitem(cli.EXPERIMENTS, "fig9", runner)
    with pytest.raises(TypeError, match="inside the experiment"):
        cli.cmd_experiment("fig9", 1, out=io.StringIO())
    assert calls == [1]


def test_wordcount_typhoon_runs():
    code, text = run_cli(["wordcount", "--rate", "500", "--duration", "8",
                          "--hosts", "2", "--splits", "1", "--counts", "1"])
    assert code == 0
    assert "system: typhoon" in text
    assert "source" in text and "count" in text


def test_wordcount_storm_runs():
    code, text = run_cli(["wordcount", "--system", "storm", "--rate", "500",
                          "--duration", "8", "--hosts", "1",
                          "--splits", "1", "--counts", "1"])
    assert code == 0
    assert "system: storm" in text


@pytest.mark.parametrize("seed", [0, 1])
def test_bench_runs_sched_benchmark_and_writes_json(tmp_path, seed):
    report = tmp_path / "sched.json"
    code, text = run_cli(["bench", "--seed", str(seed), "--output",
                          str(report)])
    assert code == 0
    assert "GATE FAIL" not in text
    comparison = json.loads(report.read_text())["comparison"]
    assert comparison["throughput_ratio"] >= 1.0
    assert comparison["p99_ratio"] <= 1.0
