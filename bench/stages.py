"""Workload shapes, the pipeline stages they run, and the output checks.

Both workloads drive the real command-line entry point, ``spkdeid.cli.main``,
in this process, one stage after another (closed loop, one client).

desk   the default desk-scale config with a shortened training run:
       train, anonymize --method aan2 --in test.csv, evaluate --method aan2.
vox64  the VoxCeleb speaker and trial structure (1251 speakers, 2 genders,
       30 accents, 4 utterances each, splits 2502/1251/1251) at desk vector
       and model widths: train, anonymize --method aan2 --pool train.csv
       --in valid.csv, then the o-o and o-a condition cells (13,761 trials)
       scored with the metrics module.  There are no probes, because a
       1251-class probe takes minutes.  At 512 dimensions the pool and model
       no longer fit in the per-core cache, and on a shared 2-vCPU Xeon
       host the anonymize stage then varied by up to 1.6x between runs.

Set-up for both is writing the config plus ``spkdeid gen-data``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spkdeid import aan, cli, dataset, metrics

GENDERS = 2


@dataclass(frozen=True)
class Shape:
    n_speakers: int
    n_accents: int
    utterances_per_speaker: int
    dim: int
    heldout: int
    hidden: int
    latent: int
    branch_hidden: int
    epochs: int
    batch_size: int
    n_nontarget: int
    setups: int  # gen-data repeats per run; setup_s is their median

    def rows(self, split: str) -> int:
        per_speaker = (self.utterances_per_speaker - 2 * self.heldout
                       if split == "train" else self.heldout)
        return self.n_speakers * per_speaker


SHAPES = {
    "desk": Shape(n_speakers=40, n_accents=4, utterances_per_speaker=30, dim=64,
                  heldout=10, hidden=128, latent=8, branch_hidden=64,
                  epochs=100, batch_size=32, n_nontarget=10, setups=5),
    "vox64": Shape(n_speakers=1251, n_accents=30, utterances_per_speaker=4, dim=64,
                   heldout=1, hidden=128, latent=8, branch_hidden=64,
                   epochs=10, batch_size=32, n_nontarget=10, setups=3),
}

# Thumbnails of the two workloads (the run_pipeline.py --quick shape), for
# the benchmark's self-tests.
THUMBNAILS = {
    "desk": Shape(n_speakers=10, n_accents=4, utterances_per_speaker=9, dim=16,
                  heldout=2, hidden=32, latent=4, branch_hidden=16,
                  epochs=20, batch_size=16, n_nontarget=3, setups=2),
    "vox64": Shape(n_speakers=24, n_accents=6, utterances_per_speaker=4, dim=16,
                   heldout=1, hidden=16, latent=4, branch_hidden=8,
                   epochs=2, batch_size=16, n_nontarget=3, setups=2),
}

# The anonymize stage's input split: test.csv on desk, valid.csv on vox64.
ANONYMIZE_INPUT = {"desk": "test", "vox64": "valid"}


class CheckError(RuntimeError):
    """A stage output is missing, malformed or differs between passes."""


def config_dict(shape: Shape, seed: int, out_dir: Path) -> dict:
    """Full JSON config (today's defaults spelled out, the shape applied)."""
    return {
        "seed": seed,
        "out_dir": str(out_dir),
        "dataset_tag": "synth",
        "corpus": {"n_speakers": shape.n_speakers, "n_genders": GENDERS,
                   "n_accents": shape.n_accents,
                   "utterances_per_speaker": shape.utterances_per_speaker,
                   "dim": shape.dim,
                   "attribute_strength": {"speaker": 0.6, "gender": 3.2, "accent": 3.7},
                   "noise_sigma": 0.3},
        "split": {"n_heldout_per_speaker": shape.heldout},
        "model": {"hidden": shape.hidden, "latent": shape.latent,
                  "branch_hidden": shape.branch_hidden},
        "train": {"lambda": 8.0, "epochs": shape.epochs, "batch_size": shape.batch_size,
                  "lr": 0.005, "optimizer": "adam", "shuffle": True},
        "anonymize": {"method": "aan2", "top_k": 10},
        "trials": {"n_nontarget_per_target": shape.n_nontarget},
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    """One workload's stages in one output directory."""

    def __init__(self, workload: str, shape: Shape, seed: int, out_dir: Path):
        self.workload = workload
        self.shape = shape
        self.seed = seed
        self.out = out_dir
        self.config = out_dir / "config.json"
        self.anonymize_in = out_dir / f"{ANONYMIZE_INPUT[workload]}.csv"
        self.anonymized = out_dir / f"anonymized_{ANONYMIZE_INPUT[workload]}.csv"
        self.report = out_dir / "report.csv"
        self.attempted = 0
        self.failed = 0

    def _op(self, name: str, fn) -> float:
        """Run one op, return its wall seconds; a failure raises CheckError."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = fn()
        except Exception as exc:
            self.failed += 1
            traceback.print_exc()
            raise CheckError(f"{self.workload} {name}: {type(exc).__name__}: {exc}") from exc
        wall = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise CheckError(f"{self.workload} {name}: exit code {code}")
        return wall

    def _cli(self, *argv: str) -> int:
        return cli.main(list(argv) + ["--config", str(self.config)])

    def setup(self) -> float:
        """Config write plus gen-data; returns the wall seconds."""
        self.out.mkdir(parents=True, exist_ok=True)

        def run() -> int:
            self.config.write_text(json.dumps(
                config_dict(self.shape, self.seed, self.out), indent=2) + "\n")
            return self._cli("gen-data")

        return self._op("gen-data", run)

    def run_pass(self) -> dict[str, float]:
        """The measured stages, in order; returns wall seconds per stage."""
        out = str(self.out)
        walls = {"train": self._op("train", lambda: self._cli("train"))}
        walls["anonymize"] = self._op("anonymize", lambda: self._cli(
            "anonymize", "--method", "aan2", "--model", f"{out}/model.aan",
            "--pool", f"{out}/train.csv", "--in", str(self.anonymize_in),
            "--out", str(self.anonymized)))
        if self.workload == "desk":
            walls["evaluate"] = self._op(
                "evaluate", lambda: self._cli("evaluate", "--method", "aan2"))
        else:
            start = time.perf_counter()
            self._score_cells()
            walls["evaluate"] = time.perf_counter() - start
        return walls

    def _score_cells(self) -> None:
        """o-o and o-a cells: enroll on test.csv, trial utterances from valid.csv.

        Trials come from the same derived seed ``spkdeid evaluate`` uses.
        Each cell is one op; the rows go to report.csv.
        """
        enroll = dataset.read_corpus(self.out / "test.csv", "test")
        trial = {"o": dataset.read_corpus(self.out / "valid.csv", "valid"),
                 "a": dataset.read_corpus(self.anonymized, "valid")}
        trials = metrics.make_trials(enroll, trial["o"], self.shape.n_nontarget,
                                     cli.derive_seed(self.seed, "evaluate"))
        models = metrics.enroll_speaker_models(enroll)
        rows = []
        for condition in ("o", "a"):
            def cell(condition=condition) -> int:
                scored = metrics.score_trials(trials, models, trial[condition])
                for gender in sorted(trial[condition].gender_vocab):
                    subset = scored.for_gender(gender)
                    rows.append(["o", condition, gender,
                                 100.0 * metrics.compute_eer(subset),
                                 metrics.compute_min_cllr(subset),
                                 metrics.compute_cllr(subset)])
                return 0
            self._op(f"score o-{condition}", cell)
        with self.report.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["enroll", "trial", "gender", "eer_pct", "min_cllr", "cllr"])
            writer.writerows(row[:3] + [f"{v:.17g}" for v in row[3:]] for row in rows)

    # -- outputs -------------------------------------------------------------

    def setup_digests(self) -> dict[str, str]:
        return {split: sha256(self.out / f"{split}.csv")
                for split in ("train", "valid", "test")}

    def pass_digests(self) -> dict[str, str]:
        return {"model": sha256(self.out / "model.aan"),
                "history": sha256(self.out / "history.csv"),
                "anonymized": sha256(self.anonymized),
                "report": sha256(self.report)}

    def check_setup(self) -> None:
        for split in ("train", "valid", "test"):
            corpus = dataset.read_corpus(self.out / f"{split}.csv", split)
            _expect(f"{split}.csv rows", len(corpus), self.shape.rows(split))

    def check_pass(self) -> dict[str, float]:
        """Parse every stage output with the package's own readers; returns
        the quality figures read from them."""
        history = _read_numeric_csv(self.out / "history.csv")
        _expect("history.csv rows", len(history), self.shape.epochs)
        model = aan.load_model(self.out / "model.aan")
        for name, array in model.parameters().items():
            if not np.isfinite(array).all():
                raise CheckError(f"model.aan: non-finite values in {name}")
        source = dataset.read_corpus(self.anonymize_in)
        anonymized = dataset.read_corpus(self.anonymized)
        _expect(f"{self.anonymized.name} rows", len(anonymized), len(source))
        if [e.utterance_id for e in anonymized.embeddings] != \
                [e.utterance_id for e in source.embeddings]:
            raise CheckError(f"{self.anonymized.name}: utterance ids or order changed")
        if self.workload == "desk":
            n_trials = self.shape.rows("valid") * (1 + self.shape.n_nontarget)
            _expect("trials.csv rows", len(metrics.read_trials(self.out / "trials.csv")),
                    n_trials)
            rows = [vars(r) for r in metrics.read_report_csv(self.report).rows]
            _expect("report.csv rows", len(rows), 3 * GENDERS)
            for r in rows:
                _finite("report.csv", [r["eer_pct"], r["min_cllr"], r["cllr"],
                                       r["probe_speaker"], r["probe_gender"],
                                       r["probe_accent"]])
        else:
            rows = _read_numeric_csv(self.report)
            _expect("report.csv rows", len(rows), 2 * GENDERS)

        def cell_mean(condition: str, column: str) -> float:
            values = [r[column] for r in rows if r["enroll"] + r["trial"] == condition]
            if not values:
                raise CheckError(f"report.csv: no {condition} rows")
            return sum(values) / len(values)

        quality = {"valid_recon_mse": min(row["valid_recon_loss"] for row in history),
                   "min_cllr_oa": cell_mean("oa", "min_cllr"),
                   "eer_oa_pct": cell_mean("oa", "eer_pct")}
        if self.workload == "desk":
            quality["eer_aa_pct"] = cell_mean("aa", "eer_pct")
            quality["probe_speaker_aa"] = cell_mean("aa", "probe_speaker")
        return quality


def _expect(what: str, got: int, want: int) -> None:
    if got != want:
        raise CheckError(f"{what}: expected {want}, got {got}")


def _finite(what: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise CheckError(f"{what}: non-finite value")


def _read_numeric_csv(path: Path) -> list[dict]:
    """Rows of a CSV whose columns after any text columns are all finite floats."""
    text_columns = {"enroll", "trial", "gender"}
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for line, row in enumerate(rows, start=2):
        parsed = {}
        for key, value in row.items():
            if key in text_columns:
                parsed[key] = value
                continue
            try:
                parsed[key] = float(value)
            except (TypeError, ValueError):
                raise CheckError(f"{path.name}: line {line}: bad number {value!r}") from None
            _finite(f"{path.name}: line {line}", [parsed[key]])
        out.append(parsed)
    return out
