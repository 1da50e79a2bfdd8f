"""Smoke test of the benchmark: a tiny run of every workload, untraced and
traced, plus the refusal to run without the program.

  python3 -m pytest perfbench/test_smoke.py -q    (from the checkout root)

Takes about a minute; it runs the real benchmark with --seconds 1, which
still does at least 100 ops per run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
LAYERS = ("algebra", "products", "models", "dynamics", "thirdorder", "jets", "cli")

# Per-layer metrics that must read nonzero where the workload runs the layer.
ACTIVE = {
    "flow_long": [
        "dynamics.field_calls", "dynamics.field_us", "dynamics.dual_gradient_calls",
        "dynamics.dual_gradient_s", "products.coad_calls", "products.coad_s",
        "products.coad_calls_per_field", "algebra.coad_calls", "algebra.coad_s",
        "dynamics.rk4_calls", "dynamics.rk4_self_s", "dynamics.rk4_steps_per_s",
        "dynamics.field_calls_per_step", "thirdorder.ep3_field_calls",
        "thirdorder.ep3_field_s", "thirdorder.identity_residual_s",
        "thirdorder.identity_points", "dynamics.conservation_report_s",
        "dynamics.conservation_rows",
    ],
    "jet_products": [
        "jets.tn_multiply_calls", "jets.tn_multiply_s", "jets.tn_inverse_s",
        "jets.iterated_multiply_calls", "jets.iterated_multiply_s",
        "jets.iterated_inverse_s", "jets.t3_factorize_s", "jets.jet_constructions",
        "jets.jet_construct_s", "jets.constructions_per_product",
    ],
    "cli_runs": [
        "dynamics.field_calls", "products.coad_calls", "thirdorder.ep3_field_calls",
        "dynamics.conservation_report_s", "dynamics.conservation_rows",
        "dynamics.write_csv_s", "dynamics.write_csv_bytes", "dynamics.write_report_s",
        "products.validate_axioms_calls", "products.validate_axioms_s",
        "products.compose_bracket_s", "algebra.validate_calls", "algebra.validate_s",
        "models.build_model_calls", "models.build_model_s", "cli.main_calls",
        "cli.main_self_s",
    ],
}


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return json.loads(info), result


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workload_names_match_the_runner():
    from run import WORKLOADS

    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    fingerprints = []
    for seed in (1, 2):
        info, result = _result(_run(workload, seed, 0))
        assert _units(result) == expected
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert info["error_rate"] == 0
        assert info["samples"] >= 100 and 0 < info["op_p50_ms"] <= info["op_p90_ms"]
        fingerprints.append(info["inputs"])
    assert fingerprints[0] != fingerprints[1]  # a new seed, new inputs


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_per_layer_metric(workload):
    info, result = _result(_run(workload, 1, 1))
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert info["error_rate"] == 0
    assert all(values[f"{layer}.errors"] == 0 for layer in LAYERS)
    assert sum(values[f"{layer}.self_s"] for layer in LAYERS) <= values["trace.wall_s"]
    idle = [name for name in ACTIVE[workload] if not values[name] > 0]
    assert not idle, f"layers report no work: {idle}"


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(NAMES[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
