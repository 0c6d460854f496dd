import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_pipeline_quick(tmp_path):
    out = tmp_path / "demo"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--quick",
         "--out-dir", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    for stage in ("gen-data", "train", "anonymize", "evaluate"):
        assert f"==> {stage}" in result.stdout
        assert (out / f"manifest_{stage}.json").exists()
    for name in ("config.json", "train.csv", "valid.csv", "test.csv", "model.aan",
                 "history.csv", "anonymized_test.csv", "report.csv"):
        assert (out / name).exists(), name
    summary = [line for line in result.stdout.splitlines()
               if line.startswith("both-sides anonymization raises EER by")]
    assert len(summary) == 1 and "speaker probe drops from" in summary[0]
