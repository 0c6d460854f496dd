"""Self-tests of the benchmark, on thumbnails of both workloads.

    python3 -m pytest bench -q

Each thumbnail run is a subprocess of bench/run.py with --thumbnail and
--seconds 0 (one set-up round, one pass).
"""

import functools
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((BENCH / "metric_map.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DIGESTS = ("model", "anonymized", "report")


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def thumbnail(workload: str, seed: int, trace: int, repeat: int = 0):
    """(details, result) of one thumbnail run; ``repeat`` forces a fresh run."""
    done = _run(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--thumbnail"], ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(workload, trace, key):
    _, result = thumbnail(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_within_traced_wall(workload):
    metrics = thumbnail(workload, 1, 1)[1]["metrics"]
    self_s = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert 0 < self_s <= metrics["trace.wall_s"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_repeat_for_a_seed_and_change_with_it(workload):
    first = thumbnail(workload, 1, 0)[0]["digests"]
    again = thumbnail(workload, 1, 0, repeat=1)[0]["digests"]
    other = thumbnail(workload, 2, 0)[0]["digests"]
    assert set(DIGESTS) <= set(first)
    assert first == again
    for key in DIGESTS:
        assert other[key] != first[key], key


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_bytes_as_the_cli_run_directly(workload, tmp_path):
    """Traced and pinned benchmark passes write what a plain CLI run writes."""
    details, result = thumbnail(workload, 1, 1)
    assert result["correct"] is True
    config = dict(details["config"], out_dir=str(tmp_path))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    split = "test" if workload == "desk" else "valid"
    stages = [["gen-data"], ["train"],
              ["anonymize", "--method", "aan2", "--model", str(tmp_path / "model.aan"),
               "--pool", str(tmp_path / "train.csv"), "--in", str(tmp_path / f"{split}.csv"),
               "--out", str(tmp_path / f"anonymized_{split}.csv")]]
    if workload == "desk":
        stages.append(["evaluate", "--method", "aan2"])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for stage in stages:
        done = subprocess.run([sys.executable, "-m", "spkdeid", *stage,
                               "--config", str(config_path)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
    assert _sha256(tmp_path / "model.aan") == details["digests"]["model"]
    assert _sha256(tmp_path / f"anonymized_{split}.csv") == details["digests"]["anonymized"]
    if workload == "desk":
        assert _sha256(tmp_path / "report.csv") == details["digests"]["report"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_metric_map_names_known_metrics():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"failed"}
    assert set(METRIC_MAP["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in METRIC_MAP["per_layer"].items():
        for target, workloads in entry["moves"].items():
            assert target in end_to_end, (name, target)
            assert set(workloads) <= set(WORKLOADS), (name, workloads)


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import spkdeid.cli  # noqa: F401  (loads every traced module)
    import tracer

    return tracer


def _bindings():
    return {(name, key): value for name, module in list(sys.modules.items())
            if name.startswith("spkdeid") for key, value in vars(module).items()}


def test_tracer_patches_every_binding_and_restores_them(tracer_module):
    from spkdeid import aan, cli, metrics, neural

    before = _bindings()
    with tracer_module.Tracer():
        # imported by name into aan and metrics, and into cli for train
        assert aan.adam_step is metrics.adam_step
        assert aan.adam_step is not before[("spkdeid.neural", "adam_step")]
        assert cli.train is aan.train is not before[("spkdeid.aan", "train")]
        assert neural.adam_step is aan.adam_step
    assert _bindings() == before


def test_tracer_fails_loudly_on_a_missing_function(tracer_module, monkeypatch):
    from spkdeid import metrics

    before = _bindings()
    monkeypatch.delattr(metrics, "probe_attack")
    with pytest.raises(tracer_module.TraceError, match="probe_attack"):
        with tracer_module.Tracer(["metrics.probe_attack"]):
            pass
    monkeypatch.undo()
    assert _bindings() == before
