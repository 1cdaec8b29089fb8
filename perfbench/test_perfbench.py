"""Tests of the benchmark itself, at the 40-user smoke size; a few seconds each.

    python3 -m pytest -q perfbench

Every run goes to a copy of the checkout under pytest's tmp_path, so the
artifact-identity store of the real checkout is never touched.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from selfrank import cli, decoding  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def checkout(tmp_path: Path, with_src: bool = True) -> Path:
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, root / HERE.name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    return root


def run_bench(root: Path, workload: str, trace: int = 0, seed: int = 0):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert all(tuple(sizes) == bench.WORKLOAD_NAMES for sizes in workloads.WORKLOADS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS
    ]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_smoke_runs_report_every_metric(tmp_path, workload):
    root = checkout(tmp_path)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        record, result = parse(run_bench(root, workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert result["attempted"] >= 1 and record["error_rate"] == 0
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["counts"]["users"] > 0 and record["machine"]["nproc"] >= 1
    per_layer = result["metrics"]
    assert per_layer["decoding.fas_calls"]["value"] > 0
    assert per_layer["ranking.train_iters"]["value"] > 0
    assert 0 <= per_layer["decoding.contradicted_share"]["value"] < 1
    if workload == "cli30":
        assert per_layer["cli.checkpoint_bytes"]["value"] == record["counts"]["checkpoint_bytes"]
        assert per_layer["cli.decode_self_s"]["value"] > 0
    if workload == "full60-eval":
        w = workloads.WORKLOADS["smoke"][workload]
        assert per_layer["decoding.fas_calls"]["value"] == record["counts"]["queries"] == w.chunks * w.chunk


def test_cli_artifacts_compared_across_runs(tmp_path):
    root = checkout(tmp_path)
    first, _ = parse(run_bench(root, "cli30"))
    store = root / ".perfbench_out" / "identity.json"
    (key,) = json.loads(store.read_text())
    assert key.startswith(first["source_digest"])
    _, again = parse(run_bench(root, "cli30"))
    assert again["correct"]
    store.write_text(json.dumps({key: {"checkpoint.json": "0"}}))
    record, tampered = parse(run_bench(root, "cli30"))
    assert not tampered["correct"] and tampered["failed"] == 1
    assert record["failures"] == ["artifact identity: artifacts differ from an earlier run"]


def test_refuses_to_run_without_the_program(tmp_path):
    proc = run_bench(checkout(tmp_path, with_src=False), "full60-eval")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fastest_repeats_sums_each_units_fastest_time():
    assert bench.fastest_repeats([[3.0, 1.0], [2.0, 4.0], [5.0, 1.5]]) == 3.0


def test_ordering_check():
    w = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    t = decoding.Tournament(w)
    good = decoding.fas_greedy(t).docs_by_rank()
    assert workloads.ordering_defect(t, good) is None
    assert "adjacent swap" in workloads.ordering_defect(t, good[[1, 0, 2]])
    assert "permutation" in workloads.ordering_defect(t, np.array([0, 0, 1]))


def test_trace_check():
    assert workloads.trace_defect([3.0, 2.0]) is None
    assert workloads.trace_defect([3.0, np.nan]) is not None
    assert workloads.trace_defect([]) is not None


def test_bad_decodes_and_failed_commands_are_counted(tmp_path, monkeypatch):
    run = workloads.Run(workloads.WORKLOADS["smoke"]["full60-eval"], 0, tmp_path)
    path = run.write_inputs()
    worst = lambda t: decoding.Ordering.from_docs(np.argsort(t.weights.sum(axis=1)))  # noqa: E731
    monkeypatch.setattr(decoding, "fas_greedy", worst)
    run.run_round(path)
    assert run.failed > 0 and all(f.startswith("decode:") for f in run.failures)
    run = workloads.Run(run.workload, 0, tmp_path)
    with pytest.raises(workloads.RoundAborted):
        run.command("train", ["items.top=6"], tmp_path / "cli")  # no data.ratings: exit 2
    assert (run.attempted, run.failed, run.failures) == (1, 1, ["selfrank train: exit 2"])


def test_tracer_restores_every_target():
    originals = [getattr(o, a) for _, owners, a in tracing.TARGETS for o in owners]
    tracer = tracing.Tracer()
    with tracer.patched():
        assert cli.run is not originals[-1]
    assert [getattr(o, a) for _, owners, a in tracing.TARGETS for o in owners] == originals
    assert tracing.tail(np.arange(100.0)) == 89.0 and tracing.tail(np.arange(5.0)) == 4.0
