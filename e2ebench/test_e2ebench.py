"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest e2ebench -q`` from the
checkout root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from inputs import cli_spec_order, depth_sweep_groups, paired_campaign_specs
from ledger import LAYER_METRICS
from repro.campaign import CampaignRunner
from run import END_TO_END, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def _sweep_specs(seed):
    return [spec for group in depth_sweep_groups(seed) for spec in group.specs]


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert paired_campaign_specs(7) == paired_campaign_specs(7)
    assert _sweep_specs(7) == _sweep_specs(7)
    assert cli_spec_order(7) == cli_spec_order(7)
    assert paired_campaign_specs(7) != paired_campaign_specs(8)
    assert _sweep_specs(7) != _sweep_specs(8)
    assert cli_spec_order(7) != cli_spec_order(8)


def test_same_seed_same_fingerprint():
    """One spec per workload of the seeded campaign, twice, and on two
    worker counts: the fingerprint is a function of the seed alone."""
    specs = [spec for spec in paired_campaign_specs(3) if spec.name.endswith("_0")]
    again = [spec for spec in paired_campaign_specs(3) if spec.name.endswith("_0")]
    inline = CampaignRunner(workers=1).run(specs).fingerprint()
    pooled = CampaignRunner(workers=2).run(again).fingerprint()
    assert inline == pooled


def test_generated_inputs_respect_config_constraints():
    for seed in range(20):
        for spec in paired_campaign_specs(seed):
            packet = spec.params.get("packet_size")
            if packet is not None:
                assert packet <= spec.depth
            if spec.workload == "packet_stream":
                assert spec.depth % packet == 0
            if spec.workload == "soc":
                assert spec.params["items_per_chain"] % packet == 0


def test_metric_declarations_match_the_code():
    doc = _benchmark()
    assert doc["command"] == ["python3", "e2ebench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    declared = {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}
    assert len(declared) == len(doc["end_to_end"]) + len(doc["per_layer"])
    for name, metric in declared.items():
        assert NAME.match(name), name
        assert UNIT.match(metric["unit"]), name
        assert metric["better"] in ("higher", "lower"), name
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in LAYER_METRICS.items()
    }
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for name, (_, _, _, moves, workload) in LAYER_METRICS.items():
        assert moves in END_TO_END or name == "telemetry.overhead", name
        assert workload in WORKLOADS + ("all",), name


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload, trace", [("cli_roundtrip", 0), ("cli_roundtrip", 1)])
def test_run_prints_every_declared_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    doc = _benchmark()
    declared = doc["per_layer"] if trace else doc["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("paired_campaign", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
