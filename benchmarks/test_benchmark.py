"""Tests of the benchmark itself: toy-size runs of every workload checked
against BENCHMARK.json, the result line, the gates and the diag oracle."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from entrybounds import cli, sense  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in spans.LAYERS] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"failed_frac"}
    for m in spans.LAYERS:
        assert set(m["moves"]) <= end_to_end, m["name"]
        assert set(m["matters_on"]) | set(m["flat_on"]) <= set(workloads.WORKLOADS), m["name"]
    buckets = set(spans.SPANS.values()) | set(spans.OP_SPANS.values()) | set(
        spans.CALL_COUNTS.values())
    assert buckets - {None} <= {m["name"] for m in spans.LAYERS}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    res = run.run_workload(name, seed=3, seconds=0, trace=bool(trace), smoke=True,
                           work_root=tmp_path)
    assert res["correct"], res["errors"]
    assert res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if trace:
        assert res["metrics"]["cli.self_s"]["value"] > 0
        first = json.loads((tmp_path / name / "spans.jsonl").read_text().splitlines()[0])
        assert first["name"] == "cli.main" and first["parent"] == -1
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_last_line_is_the_result():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "bounds-csv",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1 and res["failed"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "bounds-csv"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_bounds_gate_flags_a_wrong_interval(tmp_path):
    wl = workloads.BoundsCsv(tmp_path, seed=2, smoke=True)
    assert cli.main(wl.argv(tmp_path)) == 0
    assert wl.check(tmp_path)[0] == 0
    path = tmp_path / "bounds.json"
    payload = json.loads(path.read_text())
    rec = next(r for r in payload["bounds"] if r["status"] == "finite")
    rec["lower"] -= 1e-6 * abs(rec["lower"]) + 1e-6
    path.write_text(json.dumps(payload))
    assert wl.check(tmp_path)[0] == 1


def test_exact_diag_matches_monolithic_pinv():
    cfg = workloads._sense_cfg(12, seed=5, accel=2, acs=4)
    ph, coils, pat = workloads._problem(cfg)
    data = sense.simulate_acquisition(ph, coils, pat)
    mono, _ = sense.build_monolithic_system(ph, coils, pat, data)
    want = np.sum(np.linalg.pinv(mono.a) ** 2, axis=1)
    np.testing.assert_allclose(workloads.exact_diag(cfg), want, rtol=1e-9)
