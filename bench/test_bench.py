"""Tests of the benchmark itself, at smoke sizes.

    python -m pytest -q bench

They check the output contract (every named metric, with its unit), that a
seed fixes inputs and counts, that a wrong oracle value turns into failures,
and that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

holostark = run.import_program()
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    """Run the benchmark as the command line does; return the last line's
    JSON object."""
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                         capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def smoke(workload, seed=7, trace=0):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")


def test_spec_matches_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", LISTED)
def test_every_metric_emitted_with_unit(workload):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = smoke(workload, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in spec}
        if trace:
            layers = {k: v["value"] for k, v in result["metrics"].items()}
            assert layers["cli.main.count"] >= 1
            if workload == "synth-analytic":
                assert layers["holonomy.wilson_loop.count"] == 0
                assert layers["dynamics.adiabatic_fidelity.count"] == 0
            if workload == "wilson-fine":
                assert layers["synth.synthesize.count"] == 0
                assert layers["dynamics.adiabatic_fidelity.count"] == 0


def _input_files(name, seed, workdir):
    workdir.mkdir()
    workloads.WORKLOADS[name].set_up(seed, workdir, smoke=True)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_inputs(name, tmp_path):
    first = _input_files(name, 3, tmp_path / "a")
    assert first == _input_files(name, 3, tmp_path / "b")
    assert first != _input_files(name, 4, tmp_path / "c")


@pytest.mark.parametrize("workload,counts", [
    ("wilson-fine", ["holonomy.steps", "holonomy.wilson_loop.count"]),
    ("synth-analytic", ["synth.evaluations", "synth.nm_evaluations",
                        "synth.restarts"]),
])
def test_seed_fixes_counts(workload, counts):
    first, second = (smoke(workload, seed=5, trace=1)["metrics"] for _ in range(2))
    for name in counts:
        assert first[name]["value"] > 0
        assert first[name]["value"] == second[name]["value"]


def test_corrupted_oracle_counts_failures(monkeypatch, capsys):
    real = workloads.zee_holonomy
    monkeypatch.setattr(workloads, "zee_holonomy",
                        lambda theta, phi: real(theta, phi + 0.1))
    for name in ("wilson-fine", "synth-analytic"):
        args = run.parse_args(["--workload", name, "--seed", "1", "--smoke"])
        assert run.run(workloads.WORKLOADS[name], args, holostark.cli) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] is False
        assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", LISTED[0],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert "metrics" not in out.stdout


def test_synth_numeric_goes_through_wilson_loop():
    """The unlisted workload still runs, checks and traces end to end."""
    result = smoke("synth-numeric", trace=1)
    assert result["correct"] is True
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["synth.synthesize.count"] == 1
    assert 0 < layers["holonomy.wilson_loop.count"] <= layers["synth.loop_product.count"]
    assert layers["holonomy.zee_holonomy.count"] == 0
