import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spkdeid import BLAS_THREAD_VARS
from spkdeid import aan as aan_module
from spkdeid import dataset as dataset_module
from spkdeid.aan import GROUPS, AanModel, layer_table, load_model
from spkdeid.anonymize import PseudoPool, anonymize_corpus, baseline_anonymize
from spkdeid.cli import RunConfig, build_parser, main
from spkdeid.dataset import read_corpus, write_corpus
from spkdeid.metrics import read_report_csv


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


TINY_CONFIG = {
    "seed": 99,
    "dataset_tag": "tiny",
    "corpus": {"n_speakers": 6, "n_genders": 2, "n_accents": 2,
               "utterances_per_speaker": 7, "dim": 8,
               "attribute_strength": {"speaker": 0.6, "gender": 2.0, "accent": 2.0},
               "noise_sigma": 0.2},
    "split": {"n_heldout_per_speaker": 2},
    "model": {"hidden": 16, "latent": 4, "branch_hidden": 8},
    "train": {"lambda": 8.0, "epochs": 3, "batch_size": 8, "lr": 0.005},
    "anonymize": {"method": "aan1", "top_k": 3},
    "trials": {"n_nontarget_per_target": 2},
}


@pytest.fixture()
def tiny_run(tmp_path):
    config_path = tmp_path / "config.json"
    config = dict(TINY_CONFIG, out_dir=str(tmp_path / "run"))
    config_path.write_text(json.dumps(config))
    return config_path, tmp_path / "run"


def run_cli(*args):
    return main([str(a) for a in args])


class TestGenData:
    def test_writes_splits_and_manifest(self, tiny_run):
        config_path, out = tiny_run
        assert run_cli("gen-data", "--config", config_path) == 0
        for name in ("train.csv", "valid.csv", "test.csv", "manifest_gen-data.json"):
            assert (out / name).exists()
        train_c = read_corpus(out / "train.csv")
        assert len(train_c) == 6 * 3  # 7 utterances minus 2x2 held out

    def test_deterministic_outputs(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        first = {p.name: digest(p) for p in out.glob("*.csv")}
        run_cli("gen-data", "--config", config_path)
        second = {p.name: digest(p) for p in out.glob("*.csv")}
        assert first == second

    def test_split_bytes_pinned(self, tiny_run):
        # sha256 of the tiny config's splits, computed before the writer
        # formatted its floats in numpy blocks
        config_path, out = tiny_run
        assert run_cli("gen-data", "--config", config_path) == 0
        assert {name: digest(out / f"{name}.csv") for name in ("train", "valid", "test")} == {
            "train": "401019ca4856163c3a49724de16117a322d7be5ab774979e51061bd8abdce4d1",
            "valid": "342aafe5d77bd32ef260c7fc1d7dd8aff19ebe88455e7cd121186c35764db16c",
            "test": "bd016273f6b0e2385c1bc3ff737fd739a6912d0642440ae47c0aada372e94ad1",
        }

    def test_invalid_spec_fails_naming_field(self, tmp_path, capsys):
        config = dict(TINY_CONFIG, out_dir=str(tmp_path / "r"))
        config["corpus"] = dict(config["corpus"], n_speakers=0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("gen-data", "--config", path) == 2
        assert "n_speakers" in capsys.readouterr().err

    def test_zero_holdout_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "r"
        config = dict(TINY_CONFIG, out_dir=str(out), split={"n_heldout_per_speaker": 0})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("gen-data", "--config", path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "split.n_heldout_per_speaker" in err[0]
        assert list(out.glob("*.csv")) == [] and list(out.glob("manifest_*")) == []

    def test_unallocatable_corpus_is_one_error_line(self, tmp_path, capsys):
        # the first array would take 8 PiB, beyond any user address space,
        # so the allocation fails at once
        config = dict(TINY_CONFIG, out_dir=str(tmp_path / "r"))
        config["corpus"] = dict(config["corpus"], dim=2 ** 49)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("gen-data", "--config", path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "r" / "manifest_gen-data.json").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sed": 1}))
        assert run_cli("gen-data", "--config", path) == 2
        assert "sed" in capsys.readouterr().err

    def test_derived_train_seed_rejected_naming_key(self, tmp_path, capsys):
        config = dict(TINY_CONFIG, out_dir=str(tmp_path / "r"))
        config["train"] = dict(config["train"], seed=5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("gen-data", "--config", path) == 2
        assert "train.seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, key, value", [
    ("train", "train", "epochs", "abc"),
    ("train", "train", "batch_size", True),
    ("train", "train", "lr", float("nan")),
    ("evaluate", "trials", "n_nontarget_per_target", "x"),
])
def test_mistyped_config_value_is_one_error_line(tmp_path, capsys, command, section,
                                                  key, value):
    out = tmp_path / "run"
    good = tmp_path / "good.json"
    good.write_text(json.dumps(dict(TINY_CONFIG, out_dir=str(out))))
    run_cli("gen-data", "--config", good)
    run_cli("train", "--config", good)
    config = dict(TINY_CONFIG, out_dir=str(out))
    config[section] = dict(config[section], **{key: value})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    capsys.readouterr()
    assert run_cli(command, "--config", bad) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"{section}.{key}" in err[0]


class TestTrain:
    def test_checkpoint_history_manifest(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        assert run_cli("train", "--config", config_path) == 0
        assert (out / "model.aan").exists()
        with (out / "history.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch",
                           "train_recon_loss", "train_gender_loss",
                           "train_accent_loss", "train_speaker_loss",
                           "valid_recon_loss", "valid_gender_loss",
                           "valid_accent_loss", "valid_speaker_loss",
                           "valid_gender_acc", "valid_accent_acc",
                           "valid_speaker_acc"]
        assert len(rows) == 1 + TINY_CONFIG["train"]["epochs"]

    def test_lambda_flag_overrides_config(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path, "--lambda", "2.5")
        assert load_model(out / "model.aan").lam == 2.5

    def test_divergence_in_first_epoch_is_one_error_line(self, tmp_path, capsys):
        config = dict(TINY_CONFIG, out_dir=str(tmp_path / "run"))
        config["train"] = dict(config["train"], lr=1e300)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        run_cli("gen-data", "--config", path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("train", "--config", path) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "diverged" in err[0]
        assert not (tmp_path / "run" / "manifest_train.json").exists()
        assert not (tmp_path / "run" / "model.aan").exists()

    @pytest.mark.parametrize("lr", [1e150, 1e3])
    @pytest.mark.parametrize("command, extra, written", [
        ("train", [], ["model.aan", "history.csv", "manifest_train.json"]),
        ("sweep-lambda", ["--lambdas", "8"],
         ["model_lambda8.aan", "history_lambda8.csv", "manifest_sweep-lambda.json"]),
    ])
    def test_exploded_run_is_one_error_line(self, tmp_path, capsys, lr, command, extra,
                                            written):
        # these runs stay finite, with a best valid recon loss about 6e4 and
        # 9e298 times that of predicting the train mean
        config = dict(TINY_CONFIG, out_dir=str(tmp_path / "run"))
        config["train"] = dict(config["train"], epochs=20, lr=lr)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        run_cli("gen-data", "--config", path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, "--config", path, *extra) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "exploded" in err[0]
        assert not any((tmp_path / "run" / name).exists() for name in written)

    @pytest.mark.parametrize("train, reason", [
        ({"epochs": 60, "lr": 1.2, "optimizer": "sgd"}, "diverged in epoch 27"),
        ({"epochs": 60, "lr": 300}, "exploded"),
    ], ids=["diverges-mid-run", "ends-at-729-times-the-mean-predictor"])
    def test_failed_desk_run_is_one_error_line(self, tmp_path, capsys, train, reason):
        # on the default desk corpus the first run hits a non-finite loss in
        # epoch 27 after 26 finite ones, and the second runs all 60 epochs to
        # a best valid recon loss about 729 times that of the train mean
        out = tmp_path / "run"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"out_dir": str(out), "train": train}))
        run_cli("gen-data", "--config", path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("train", "--config", path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and reason in err[0]
        assert not any((out / name).exists()
                       for name in ("model.aan", "history.csv", "manifest_train.json"))

    def test_valid_split_without_spread_is_one_error_line(self, tmp_path, capsys):
        # one noiseless speaker: every vector equals the train mean, so the
        # mean predictor's valid loss, the explosion yardstick, is 0
        out = tmp_path / "run"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "out_dir": str(out),
            "corpus": {"n_speakers": 1, "n_genders": 1, "n_accents": 1,
                       "utterances_per_speaker": 6, "dim": 4, "noise_sigma": 0.0},
            "split": {"n_heldout_per_speaker": 1},
            "model": {"hidden": 4, "latent": 2, "branch_hidden": 4},
            "train": {"epochs": 5}}))
        assert run_cli("gen-data", "--config", path) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("train", "--config", path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "no spread" in err[0]
        assert not any((out / name).exists()
                       for name in ("model.aan", "history.csv", "manifest_train.json"))

    @pytest.mark.parametrize("command, extra, written", [
        ("train", [], ["model.aan", "history.csv", "manifest_train.json"]),
        ("sweep-lambda", ["--lambdas", "8"],
         ["model_lambda8.aan", "history_lambda8.csv", "manifest_sweep-lambda.json"]),
    ])
    def test_non_finite_valid_loss_is_one_error_line(self, tmp_path, capsys, command, extra,
                                                     written):
        # the one batch has finite losses, but its step leaves parameters
        # whose valid loss is nan; the best checkpoint is then still the
        # untrained init, which must not be saved
        out = tmp_path / "run"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "out_dir": str(out),
            "corpus": {"n_speakers": 10, "utterances_per_speaker": 9, "dim": 16},
            "split": {"n_heldout_per_speaker": 2},
            "model": {"hidden": 32, "latent": 4, "branch_hidden": 16},
            "train": {"epochs": 1, "batch_size": 1000, "lr": 1e308}}))
        assert run_cli("gen-data", "--config", path) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, "--config", path, *extra) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "diverged in epoch 1" in err[0]
        assert not any((out / name).exists() for name in written)

    def test_valid_split_missing_a_speaker_is_one_error_line(self, tiny_run, capsys):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        with (out / "valid.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        first = min(row[1] for row in rows[1:])
        with (out / "valid.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(row for row in rows if row[1] != first)
        capsys.readouterr()
        assert run_cli("train", "--config", config_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "speaker" in err[0]
        assert not (out / "model.aan").exists()
        assert not (out / "manifest_train.json").exists()

    def test_rerun_identical_checkpoint(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path)
        first = digest(out / "model.aan")
        run_cli("train", "--config", config_path)
        assert digest(out / "model.aan") == first


@pytest.mark.skipif(os.cpu_count() == 1, reason="one core: BLAS runs one thread either way")
def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a 1251-speaker head makes the training gemms large enough for OpenBLAS
    # to thread them when nothing sets its thread count; the package sets it
    # to 1 before numpy is imported
    config = {"seed": 4242,
              "corpus": {"n_speakers": 1251, "n_accents": 30, "utterances_per_speaker": 4},
              "split": {"n_heldout_per_speaker": 1},
              "train": {"epochs": 2}}
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    unset["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [unset.get("PYTHONPATH")] if p])
    digests = []
    for env in (unset, dict(unset, **{var: "1" for var in BLAS_THREAD_VARS})):
        out = tmp_path / f"run{len(digests)}"
        path = tmp_path / f"config{len(digests)}.json"
        path.write_text(json.dumps(dict(config, out_dir=str(out))))
        for command in ("gen-data", "train"):
            done = subprocess.run([sys.executable, "-m", "spkdeid", command,
                                   "--config", str(path)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
        digests.append(digest(out / "model.aan"))
    assert digests[0] == digests[1]


class TestAnonymize:
    def test_identity_preserves_digest(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        assert run_cli("anonymize", "--config", config_path,
                       "--method", "identity",
                       "--in", out / "test.csv", "--out", out / "anon.csv") == 0
        assert digest(out / "anon.csv") == digest(out / "test.csv")

    def test_baseline_bytes_pinned(self, tiny_run):
        # sha256 of the tiny config's baseline_farthest test split, computed
        # while every query was ranked by its own pool gemv
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        assert run_cli("anonymize", "--config", config_path, "--method", "baseline_farthest",
                       "--pool", out / "train.csv", "--in", out / "test.csv",
                       "--out", out / "anon.csv") == 0
        assert digest(out / "anon.csv") == \
            "f9c116eea228f6fa322bd804221c67c4aba8b99253473a880c73175a17e357f5"

    def test_aan1_preserves_row_count(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path)
        run_cli("anonymize", "--config", config_path, "--method", "aan1",
                "--model", out / "model.aan",
                "--in", out / "test.csv", "--out", out / "anon.csv")
        assert len(read_corpus(out / "anon.csv")) == len(read_corpus(out / "test.csv"))

    def test_short_checkpoint_is_one_error_line(self, tiny_run, capsys):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        (out / "short.aan").write_bytes(b"AAN1")
        capsys.readouterr()
        assert run_cli("anonymize", "--config", config_path, "--method", "aan1",
                       "--model", out / "short.aan",
                       "--in", out / "test.csv", "--out", out / "anon.csv") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "short.aan" in err[0]

    def test_corrupt_input_byte_is_one_error_line(self, tiny_run, capsys):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        raw = bytearray((out / "test.csv").read_bytes())
        raw[raw.index(b"\n", raw.index(b"\n") + 1) + 3] = 0xFF  # third line
        (out / "bad.csv").write_bytes(bytes(raw))
        capsys.readouterr()
        assert run_cli("anonymize", "--config", config_path, "--method", "identity",
                       "--in", out / "bad.csv", "--out", out / "anon.csv") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {out / 'bad.csv'}: line 3:")
        assert not (out / "anon.csv").exists()

    @pytest.mark.parametrize("scale", [1e160, 1e-170], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("scaled", ["in", "pool"])
    def test_out_of_range_norm_is_ranked_unscaled(self, tiny_run, scaled, scale):
        # a row of scale times a normal vector has finite entries, but its
        # squares overflow or underflow
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        name = {"in": "test.csv", "pool": "train.csv"}[scaled]
        corpus = read_corpus(out / name)
        vectors = corpus.matrix().copy()
        vectors[1] *= scale
        write_corpus(corpus.with_vectors(vectors), out / "scaled.csv")
        files = {"in": out / "test.csv", "pool": out / "train.csv", scaled: out / "scaled.csv"}
        for pool, queries, anon in ((out / "train.csv", out / "test.csv", "plain.csv"),
                                    (files["pool"], files["in"], "anon.csv")):
            assert run_cli("anonymize", "--config", config_path, "--method", "baseline_farthest",
                           "--pool", pool, "--in", queries, "--out", out / anon) == 0
        if scaled == "in":
            assert (out / "anon.csv").read_bytes() == (out / "plain.csv").read_bytes()
        else:
            # the library's answer, which ranks the row as its unscaled self
            expected = baseline_anonymize(PseudoPool(vectors), read_corpus(files["in"]).matrix(),
                                          TINY_CONFIG["anonymize"]["top_k"])
            assert read_corpus(out / "anon.csv").matrix().tobytes() == expected.tobytes()

    def test_aan2_requires_model_and_pool_flags(self, tiny_run, capsys):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path)
        code = run_cli("anonymize", "--config", config_path, "--method", "aan2",
                       "--model", out / "model.aan",
                       "--in", out / "test.csv", "--out", out / "anon.csv")
        assert code == 2
        assert "--pool" in capsys.readouterr().err

    def test_aan1_requires_model_flag(self, tiny_run, capsys):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        capsys.readouterr()
        assert run_cli("anonymize", "--config", config_path,
                       "--in", out / "test.csv", "--out", out / "anon.csv") == 2
        assert capsys.readouterr().err == "error: method 'aan1' requires --model\n"
        assert not (out / "anon.csv").exists()

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    @pytest.mark.parametrize("flag, name", [("--in", "test.csv"), ("--pool", "train.csv"),
                                            ("--model", "model.aan")])
    def test_output_that_is_an_input_is_refused(self, tiny_run, tmp_path, monkeypatch, capsys,
                                                flag, name, spelling):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path)
        monkeypatch.chdir(tmp_path)
        inputs = {"--in": "run/test.csv", "--pool": "run/train.csv", "--model": "run/model.aan"}
        target = {"same": f"run/{name}", "dotted": str(out / "." / name),
                  "symlink": "link"}[spelling]
        if spelling == "symlink":
            os.symlink(out / name, "link")
        before = {path: digest(Path(path)) for path in inputs.values()}
        capsys.readouterr()
        assert run_cli("anonymize", "--config", config_path, "--method", "aan2",
                       *[arg for pair in inputs.items() for arg in pair], "--out", target) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert flag in err[0] and target in err[0]
        assert {path: digest(Path(path)) for path in inputs.values()} == before
        assert not (out / "manifest_anonymize.json").exists()

    def test_new_output_beside_the_inputs_is_written(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        assert run_cli("anonymize", "--config", config_path, "--method", "baseline_farthest",
                       "--pool", out / "train.csv", "--in", out / "test.csv",
                       "--out", out / "." / "anon.csv") == 0
        assert (out / "anon.csv").exists() and (out / "manifest_anonymize.json").exists()


class TestEvaluate:
    def test_report_structure(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path)
        assert run_cli("evaluate", "--config", config_path) == 0
        report = read_report_csv(out / "report.csv")
        conditions = {(r.enroll, r.trial) for r in report.rows}
        assert conditions == {("o", "o"), ("o", "a"), ("a", "a")}
        assert len(report.rows) == 6
        for row in report.rows:
            assert row.cllr >= row.min_cllr >= 0
        assert (out / "report.txt").exists()
        assert (out / "trials.csv").exists()

    def test_trial_list_bytes_pinned(self, tiny_run):
        # sha256 of the tiny config's trials.csv, computed before trial lists
        # were stored by column
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        assert run_cli("evaluate", "--config", config_path, "--method", "identity") == 0
        assert digest(out / "trials.csv") == \
            "6b6c70534599ab551c6cedae4e61fafba38d79eb857f6df64a48bfab6cb10a46"

    def test_report_bytes_pinned(self, tiny_run):
        # sha256 of the tiny config's identity report.csv, computed before the
        # probes of a pair were trained as one stack
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        assert run_cli("evaluate", "--config", config_path, "--method", "identity") == 0
        assert digest(out / "report.csv") == \
            "0825d4b4bd26cd022240d8c32fe332bb4aa1150421a5bf9f02fcc4b4515f6339"

    @pytest.mark.parametrize("scale", [1e160, 1e-170], ids=["overflow", "underflow"])
    def test_out_of_range_trial_norm_keeps_the_report(self, tiny_run, scale):
        # the squares of a trial utterance's scaled vector overflow or
        # underflow, but its cosines are those of its direction
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        assert run_cli("evaluate", "--config", config_path, "--method", "identity") == 0
        plain = read_report_csv(out / "report.csv")
        corpus = read_corpus(out / "valid.csv")
        vectors = corpus.matrix().copy()
        vectors[0] *= scale
        write_corpus(corpus.with_vectors(vectors), out / "valid.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("evaluate", "--config", config_path, "--method", "identity") == 0
        scaled = read_report_csv(out / "report.csv")
        assert [(r.eer_pct, r.min_cllr, r.cllr) for r in scaled.rows] == \
            [(r.eer_pct, r.min_cllr, r.cllr) for r in plain.rows]

    @pytest.mark.parametrize("split, scale, message", [
        ("test", None, "error: degenerate vector: non-finite norm of the enrollment model "
                       "of speaker {speaker!r}, "),
        ("train", 1e160, "error: the speaker probe diverged: divergence detected"),
    ], ids=["enrollment-mean-overflows", "probe-gradient-square-overflows"])
    def test_overflow_is_one_error_line(self, tiny_run, capsys, split, scale, message):
        # the first: every test.csv row of one speaker at the largest double,
        # so that its enrollment mean overflows; the second: a train.csv row
        # of 1e160 times a normal vector, whose probe gradients are finite but
        # whose squares overflow Adam's second moment
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        corpus = read_corpus(out / f"{split}.csv")
        vectors = corpus.matrix().copy()
        if scale is None:
            vectors[corpus.speakers == corpus.speakers[0]] = np.finfo(np.float64).max
        else:
            vectors[0] *= scale
        write_corpus(corpus.with_vectors(vectors), out / f"{split}.csv")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("evaluate", "--config", config_path, "--method", "identity") == 2
        err = capsys.readouterr().err.splitlines()
        speaker = corpus.names("speaker")[corpus.speakers[0]]
        assert len(err) == 1 and err[0].startswith(message.format(speaker=speaker))
        assert not any((out / name).exists()
                       for name in ("trials.csv", "report.csv", "manifest_evaluate.json"))

    def test_report_command_renders_table(self, tiny_run, capsys):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path)
        run_cli("evaluate", "--config", config_path)
        capsys.readouterr()
        assert run_cli("report", out / "report.csv") == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].split()[:3] == ["#", "dataset", "EER,%"]
        assert text == (out / "report.txt").read_text()

    def test_report_command_takes_no_run_flags(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("report", "--seed", "1", tmp_path / "r.csv")
        assert info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_report_refuses_to_overwrite_its_csv(self, tiny_run, capsys):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path)
        run_cli("evaluate", "--config", config_path)
        before = digest(out / "report.csv")
        capsys.readouterr()
        assert run_cli("report", out / "report.csv", "--out", out / "report.csv") == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: --out")
        assert str(out / "report.csv") in err[0]
        assert digest(out / "report.csv") == before

    @pytest.mark.parametrize("cell", ["abc", "nan"])
    def test_malformed_report_is_one_error_line(self, tmp_path, capsys, cell):
        path = tmp_path / "report.csv"
        path.write_text("row,dataset,eer_pct,min_cllr,cllr,enroll,trial,gender,"
                        "probe_speaker,probe_gender,probe_accent\n"
                        f"1,tiny,10.0,{cell},1.1,o,a,f,0.5,0.9,0.4\n")
        capsys.readouterr()
        assert run_cli("report", path) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0] and "line 2" in err[0] and "min_cllr" in err[0]


class TestSweep:
    def test_sweep_emits_per_lambda_outputs(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        assert run_cli("sweep-lambda", "--config", config_path,
                       "--lambdas", "0,8") == 0
        for tag in ("0", "8"):
            assert (out / f"model_lambda{tag}.aan").exists()
            assert (out / f"history_lambda{tag}.csv").exists()
            assert (out / f"report_lambda{tag}.csv").exists()
        with (out / "sweep_summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "lambda"
        assert [r[0] for r in rows[1:]] == ["0", "8"]

    @pytest.mark.parametrize("lambdas", ["1,1.0", "1.0000001,1.0000002,3"])
    def test_lambdas_sharing_a_file_tag_train_nothing(self, tiny_run, capsys, lambdas):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        capsys.readouterr()
        assert run_cli("sweep-lambda", "--config", config_path, "--lambdas", lambdas) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --lambdas")
        clashing = lambdas.split(",")[:2]
        assert all(f"{v} (lambda1)" in err[0] for v in clashing) and "3" not in err[0]
        assert list(out.glob("*lambda*")) == [] and not (out / "sweep_summary.csv").exists()

    @pytest.mark.parametrize("lambdas, message", [
        ("1,-1", "lam must be finite and >= 0, got -1.0"),
        ("1,nan", "lam must be finite and >= 0, got nan"),
        ("1,abc", "could not convert string to float: 'abc'"),
    ])
    def test_bad_lambda_trains_nothing(self, tiny_run, capsys, lambdas, message):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        capsys.readouterr()
        assert run_cli("sweep-lambda", "--config", config_path, "--lambdas", lambdas) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --lambdas: {message}"]
        assert list(out.glob("*lambda*")) == [] and not (out / "sweep_summary.csv").exists()


@pytest.mark.parametrize("command, extra", [
    ("evaluate", ["--method", "aan2"]),
    ("sweep-lambda", ["--lambdas", "0,1"]),
])
def test_each_split_is_read_once(tiny_run, monkeypatch, command, extra):
    config_path, out = tiny_run
    run_cli("gen-data", "--config", config_path)
    run_cli("train", "--config", config_path)
    read = []

    def counting_read(path, *args):
        read.append(Path(path).name)
        return read_corpus(path, *args)

    monkeypatch.setattr("spkdeid.cli.read_corpus", counting_read)
    assert run_cli(command, "--config", config_path, *extra) == 0
    assert sorted(read) == ["test.csv", "train.csv", "valid.csv"]


def test_outputs_same_bytes_without_sidecars(tiny_run):
    config_path, out = tiny_run
    run_cli("gen-data", "--config", config_path)
    manifest = json.loads((out / "manifest_gen-data.json").read_text())
    assert sorted(Path(p).name for p in manifest["outputs"]) == [
        "test.csv", "train.csv", "valid.csv"]
    run_cli("train", "--config", config_path)

    def outputs():
        assert run_cli("anonymize", "--config", config_path, "--method", "aan2",
                       "--model", out / "model.aan", "--pool", out / "train.csv",
                       "--in", out / "valid.csv", "--out", out / "anon.csv") == 0
        assert run_cli("evaluate", "--config", config_path, "--method", "aan2") == 0
        return {name: digest(out / name) for name in ("anon.csv", "trials.csv", "report.csv")}

    with_sidecars = outputs()
    sidecars = sorted(out.glob("*.parsed"))
    assert [p.name for p in sidecars] == [f"{name}.csv.parsed"
                                          for name in ("anon", "test", "train", "valid")]
    for path in sidecars:
        path.unlink()
    assert outputs() == with_sidecars


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_split_dim_mismatch_names_the_file(tiny_run, tmp_path, capsys, command):
    # a 6-dim valid.csv from another run in the 8-dim run's out-dir
    config_path, out = tiny_run
    other_config = tmp_path / "other.json"
    config = dict(TINY_CONFIG, out_dir=str(tmp_path / "other"))
    config["corpus"] = dict(config["corpus"], dim=6)
    other_config.write_text(json.dumps(config))
    for config_file in (config_path, other_config):
        run_cli("gen-data", "--config", config_file)
    (out / "valid.csv").write_bytes((tmp_path / "other" / "valid.csv").read_bytes())
    capsys.readouterr()
    extra = ["--method", "identity"] if command == "evaluate" else []
    assert run_cli(command, "--config", config_path, *extra) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {out / 'valid.csv'}: corpus dim 6 does not match the "
                   f"8-dim corpus {out / 'train.csv'}"]
    assert not (out / "model.aan").exists() and not (out / "report.csv").exists()


@pytest.mark.parametrize("command", ["anonymize", "evaluate"])
@pytest.mark.parametrize("method, flag", [("aan1", "--model"), ("baseline_farthest", "--pool")])
def test_dim_mismatch_names_the_files(tiny_run, tmp_path, capsys, command, method, flag):
    # a checkpoint and a pool from a 12-dim run, used on the 8-dim run's corpus
    config_path, out = tiny_run
    other_config = tmp_path / "other.json"
    other = tmp_path / "other"
    config = dict(TINY_CONFIG, out_dir=str(other))
    config["corpus"] = dict(config["corpus"], dim=12)
    other_config.write_text(json.dumps(config))
    for config_file in (config_path, other_config):
        run_cli("gen-data", "--config", config_file)
    run_cli("train", "--config", other_config)
    source = other / ("model.aan" if flag == "--model" else "train.csv")
    corpus = out / ("test.csv" if command == "anonymize" else "train.csv")
    io_flags = (["--in", out / "test.csv", "--out", out / "anon.csv"]
                if command == "anonymize" else [])
    capsys.readouterr()
    assert run_cli(command, "--config", config_path, "--method", method,
                   flag, source, *io_flags) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {source}: ")
    assert f"8-dim corpus {corpus}" in err[0] and "12" in err[0]
    assert not (out / "anon.csv").exists() and not (out / "report.csv").exists()


def group_slices(dims):
    """The slice of ``flat`` that each parameter group of ``GROUPS`` holds."""
    slices, stop = {}, 0
    for attr, _ in GROUPS:
        start = stop
        stop += sum((n_in + 1) * n_out for group, n_in, n_out, _ in layer_table(dims)
                    if group == attr)
        slices[attr] = slice(start, stop)
    return slices


def plant_gradient_error(monkeypatch, group, factor):
    """Scale the largest-magnitude analytic gradient entry of ``group`` by
    ``factor`` in every gradient that ``aan_loss_and_grads`` writes."""
    original = aan_module.aan_loss_and_grads

    def planted(model, grad, *batch):
        losses = original(model, grad, *batch)
        entries = grad.flat[group_slices(model.dims)[group]]
        entries[np.abs(entries).argmax()] *= factor
        return losses

    monkeypatch.setattr(aan_module, "aan_loss_and_grads", planted)


class TestGradcheck:
    def test_passes_default_threshold(self, tmp_path, capsys):
        assert run_cli("gradcheck", "--seed", "8", "--out-dir", tmp_path) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_zero_threshold_fails(self, tmp_path, monkeypatch):
        # a relative error of 1e-5 in one entry passes the default relative
        # tolerance of 1e-4, and fails a zero one, which leaves only roundoff
        plant_gradient_error(monkeypatch, "encoder", 1 + 1e-5)
        assert run_cli("gradcheck", "--seed", "8", "--out-dir", tmp_path) == 0
        assert run_cli("gradcheck", "--seed", "8", "--out-dir", tmp_path,
                       "--threshold", "0") == 1

    def test_zero_threshold_passes_correct_gradients(self, tmp_path):
        assert run_cli("gradcheck", "--seed", "8", "--out-dir", tmp_path,
                       "--threshold", "0") == 0

    @pytest.mark.parametrize("seed", [3, 6, 7])
    def test_roundoff_on_a_tiny_entry_passes(self, tmp_path, capsys, seed):
        # these seeds' max relative errors (up to 4.8e-4) exceed the default
        # threshold, on entries whose error is central-difference roundoff
        assert run_cli("gradcheck", "--seed", seed, "--out-dir", tmp_path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7 and lines[5].startswith("max relative error ")
        assert float(lines[5].split()[3]) > 1e-4
        assert lines[6].startswith("worst error/tolerance ")
        assert float(lines[6].split()[2]) <= 1

    def test_only_the_deciding_line_names_the_threshold(self, tmp_path, capsys):
        # seed 3's max relative error is above the default rtol and passes:
        # the summary line must not read as a failure against it
        assert run_cli("gradcheck", "--seed", 3, "--out-dir", tmp_path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[5].split()[:3] == ["max", "relative", "error"]
        assert len(lines[5].split()) == 4
        assert [line for line in lines if "0.0001" in line] == [lines[6]]

    @pytest.mark.parametrize("threshold", ["-1", "nan", "inf"])
    def test_threshold_outside_range_is_one_error_line(self, tmp_path, capsys, threshold):
        assert run_cli("gradcheck", "--seed", "8", "--out-dir", tmp_path,
                       "--threshold", threshold) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --threshold must be a finite number >= 0, "
                                f"got {threshold}\n")

    @pytest.mark.slow
    def test_correct_gradients_pass_over_seeds(self, tmp_path):
        failed = [seed for seed in range(40)
                  if run_cli("gradcheck", "--seed", seed, "--out-dir", tmp_path) != 0]
        assert failed == []

    @pytest.mark.parametrize("group", [attr for attr, _ in GROUPS])
    def test_planted_error_fails(self, tmp_path, monkeypatch, capsys, group):
        plant_gradient_error(monkeypatch, group, 1 + 1e-3)
        assert run_cli("gradcheck", "--seed", "3", "--out-dir", tmp_path) == 1
        assert float(capsys.readouterr().out.splitlines()[-1].split()[2]) > 1

    def test_flipped_reversal_sign_fails(self, tmp_path, monkeypatch):
        # the encoder gets recon + lam * branches instead of recon - lam * branches
        original = aan_module.aan_loss_and_grads

        def flipped(model, grad, *batch):
            losses = original(model, grad, *batch)
            reversed_ = grad.flat.copy()
            original(AanModel(model.dims, 0.0, model.flat), grad, *batch)
            encoder = group_slices(model.dims)["encoder"]
            reversed_[encoder] = 2 * grad.flat[encoder] - reversed_[encoder]
            grad.flat[:] = reversed_
            return losses

        monkeypatch.setattr(aan_module, "aan_loss_and_grads", flipped)
        assert run_cli("gradcheck", "--seed", "3", "--out-dir", tmp_path) == 1

    def test_deterministic_output(self, tmp_path, capsys):
        run_cli("gradcheck", "--seed", "5", "--out-dir", tmp_path)
        first = capsys.readouterr().out
        run_cli("gradcheck", "--seed", "5", "--out-dir", tmp_path)
        assert capsys.readouterr().out == first


COMMANDS = ["gen-data", "train", "anonymize", "evaluate", "sweep-lambda", "gradcheck",
            "report", "print-config"]
# each command's required arguments, so that a parse can reach the flags under test
REQUIRED = {"anonymize": ["--in", "i.csv", "--out", "o.csv"], "report": ["r.csv"]}


class TestCommandTable:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(command, "--help")
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: spkdeid {command} ")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_run_flags_on_every_command_but_report(self, command, capsys):
        for flag, value, attr, parsed in (("--config", "c.json", "config", "c.json"),
                                          ("--seed", "3", "seed", 3),
                                          ("--out-dir", "d", "out_dir", "d")):
            argv = [command, *REQUIRED.get(command, []), flag, value]
            if command == "report":
                with pytest.raises(SystemExit) as info:
                    build_parser().parse_args(argv)
                assert info.value.code == 2
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            else:
                assert getattr(build_parser().parse_args(argv), attr) == parsed

    @pytest.mark.parametrize("command", COMMANDS)
    def test_method_flags_on_anonymize_and_evaluate(self, command, capsys):
        argv = [command, *REQUIRED.get(command, []), "--method", "aan2", "--model", "m.aan",
                "--pool", "p.csv", "--top-k", "4"]
        if command in ("anonymize", "evaluate"):
            args = build_parser().parse_args(argv)
            assert (args.method, args.model, args.pool, args.top_k) == ("aan2", "m.aan",
                                                                       "p.csv", 4)
        else:
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(argv)
            assert info.value.code == 2
            assert "unrecognized arguments: --method" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_pipeline_commands_write_one_manifest_and_tools_none(self, tiny_run, command):
        config_path, out = tiny_run
        for setup in ("gen-data", "train", "evaluate"):
            assert run_cli(setup, "--config", config_path) == 0
        for manifest in out.glob("manifest_*"):
            manifest.unlink()
        argv = {"anonymize": ["--model", out / "model.aan", "--in", out / "test.csv",
                              "--out", out / "anon.csv"],
                "sweep-lambda": ["--lambdas", "0"], "gradcheck": ["--seed", "8"],
                "report": [out / "report.csv"]}.get(command, [])
        if command != "report":
            argv = argv + ["--config", config_path]
        assert run_cli(command, *argv) == 0
        written = sorted(path.name for path in out.glob("manifest_*"))
        tools = ("gradcheck", "report", "print-config")
        assert written == ([] if command in tools else [f"manifest_{command}.json"])
        if written:
            assert json.loads((out / written[0]).read_text())["command"] == command


class TestManifest:
    def test_manifest_digests_match_files(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        manifest = json.loads((out / "manifest_gen-data.json").read_text())
        assert manifest["command"] == "gen-data"
        for path, recorded in manifest["outputs"].items():
            from pathlib import Path
            assert digest(Path(path)) == recorded

    def test_every_manifest_records_resources(self, tiny_run):
        config_path, out = tiny_run
        for command, *extra in (["gen-data"], ["train"],
                                ["anonymize", "--model", out / "model.aan",
                                 "--in", out / "test.csv", "--out", out / "anon.csv"],
                                ["evaluate", "--model", out / "model.aan"],
                                ["sweep-lambda", "--lambdas", "0"]):
            assert run_cli(command, "--config", config_path, *extra) == 0
            manifest = json.loads((out / f"manifest_{command}.json").read_text())
            resources = manifest["resources"]
            assert sorted(resources) == ["blas", "blas_threads", "numpy", "peak_rss_mb"]
            assert resources["peak_rss_mb"] > 0
            assert resources["numpy"] == np.__version__
            assert resources["blas"] is None or sorted(resources["blas"]) == ["name",
                                                                              "version"]
            assert "OPENBLAS_NUM_THREADS" in resources["blas_threads"]

    @pytest.mark.parametrize("command, extra, expected", [
        ("evaluate", ["--method", "aan1"], ["train.csv", "valid.csv", "test.csv",
                                            "model.aan"]),
        ("evaluate", ["--method", "baseline_farthest", "--pool", "POOL"],
         ["train.csv", "valid.csv", "test.csv", "POOL"]),
        ("sweep-lambda", ["--lambdas", "0"], ["train.csv", "valid.csv", "test.csv"]),
    ], ids=["evaluate-aan1", "evaluate-pool", "sweep-lambda"])
    def test_manifest_lists_every_file_read(self, tiny_run, tmp_path, command, extra,
                                            expected):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path)
        pool = tmp_path / "pool.csv"
        pool.write_bytes((out / "train.csv").read_bytes())
        expected = [pool if name == "POOL" else out / name for name in expected]
        extra = [str(pool) if arg == "POOL" else arg for arg in extra]
        assert run_cli(command, "--config", config_path, *extra) == 0
        manifest = json.loads((out / f"manifest_{command}.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(map(str, expected))
        for path, recorded in manifest["inputs"].items():
            assert digest(Path(path)) == recorded

    def test_config_snapshot_reproduces_run(self, tiny_run, tmp_path):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        manifest = json.loads((out / "manifest_gen-data.json").read_text())
        snapshot = dict(manifest["config"], out_dir=str(tmp_path / "replay"))
        replay_config = tmp_path / "replay.json"
        replay_config.write_text(json.dumps(snapshot))
        run_cli("gen-data", "--config", replay_config)
        for name in ("train.csv", "valid.csv", "test.csv"):
            assert digest(tmp_path / "replay" / name) == digest(out / name)


# the tiny pipeline, one command after another, each reading what the ones
# before it wrote; "OUT" stands for the run's output directory
PIPELINE = [
    ("gen-data", []),
    ("train", []),
    ("anonymize", ["--method", "aan2", "--model", "OUT/model.aan", "--pool", "OUT/train.csv",
                   "--in", "OUT/test.csv", "--out", "OUT/anon.csv"]),
    ("evaluate", ["--method", "aan2"]),
    ("sweep-lambda", ["--lambdas", "0,1"]),
]


def pipeline_argv(command, extra, config_path, out):
    return [command, "--config", config_path,
            *(arg.replace("OUT", str(out)) for arg in extra)]


class TestProvenance:
    """Each manifest digest is of the bytes its command read or wrote, and a
    corpus CSV that the command wrote or read through a sidecar is not read
    again to hash it."""

    def test_digests_are_the_files_sha256_and_each_file_is_listed_once(self, tiny_run):
        config_path, out = tiny_run
        for command, extra in PIPELINE:
            assert run_cli(*pipeline_argv(command, extra, config_path, out)) == 0
            manifest = json.loads((out / f"manifest_{command}.json").read_text())
            listed = {**manifest["inputs"], **manifest["outputs"]}
            assert len(listed) == len(manifest["inputs"]) + len(manifest["outputs"])
            for path, recorded in listed.items():
                assert recorded == digest(Path(path)), (command, path)
            files = {(os.stat(path).st_dev, os.stat(path).st_ino) for path in listed}
            assert len(files) == len(listed), command

    def test_no_corpus_csv_is_hashed_again(self, tiny_run, monkeypatch):
        config_path, out = tiny_run
        hashed = []
        original = dataset_module._hash_file

        def recording(path):
            hashed.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(dataset_module, "_hash_file", recording)
        by_command = {}
        for command, extra in PIPELINE:
            hashed.clear()
            assert run_cli(*pipeline_argv(command, extra, config_path, out)) == 0
            by_command[command] = sorted(hashed)
        assert by_command == {
            "gen-data": [],
            "train": ["history.csv", "model.aan"],
            "anonymize": ["model.aan"],
            "evaluate": ["model.aan", "report.csv", "report.txt", "trials.csv"],
            "sweep-lambda": sorted([f"{name}_lambda{lam}.{ext}" for lam in (0, 1)
                                    for name, ext in (("history", "csv"), ("model", "aan"),
                                                      ("report", "csv"), ("report", "txt"),
                                                      ("trials", "csv"))]
                                   + ["sweep_summary.csv"]),
        }

    @pytest.mark.parametrize("change", ["longer", "same-size"])
    def test_csv_rewritten_after_it_was_read_gets_its_new_digest(self, tiny_run, monkeypatch,
                                                                 change):
        config_path, out = tiny_run
        for command, extra in PIPELINE[:2]:
            assert run_cli(*pipeline_argv(command, extra, config_path, out)) == 0
        source = out / "test.csv"
        raw = source.read_bytes()
        edited = raw + b"\n" if change == "longer" else raw[:-2] + bytes([raw[-2] ^ 1]) + b"\n"
        anonymize = anonymize_corpus

        def rewriting(corpus, method):
            # test.csv was read through its sidecar; it changes before the manifest
            stat = os.stat(source)
            source.write_bytes(edited)
            os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10 ** 9))
            return anonymize(corpus, method)

        monkeypatch.setattr("spkdeid.cli.anonymize_corpus", rewriting)
        command, extra = PIPELINE[2]
        assert run_cli(*pipeline_argv(command, extra, config_path, out)) == 0
        manifest = json.loads((out / "manifest_anonymize.json").read_text())
        assert manifest["inputs"][str(source)] == hashlib.sha256(edited).hexdigest()
        assert hashlib.sha256(edited).digest() != hashlib.sha256(raw).digest()


@pytest.mark.parametrize("spelling", ["absolute", "dotted", "symlink"])
@pytest.mark.parametrize("command", ["evaluate", "anonymize"])
def test_pool_that_names_a_corpus_already_read_is_read_once_and_listed_once(
        tiny_run, tmp_path, monkeypatch, command, spelling):
    # evaluate reads train.csv as a split and anonymize reads its --in; a
    # --pool naming the same file by another path reuses that corpus
    config_path, out = tiny_run
    run_cli("gen-data", "--config", config_path)
    monkeypatch.chdir(tmp_path)
    names, extra = {"evaluate": (["train", "valid", "test"], []),
                    "anonymize": (["test"], ["--in", "OUT/test.csv", "--out", "OUT/anon.csv"])
                    }[command]
    out_dir, pool = {"absolute": ("run", out / f"{names[0]}.csv"),
                     "dotted": (out, f"./run/{names[0]}.csv"),
                     "symlink": (out, tmp_path / "pool.csv")}[spelling]
    if spelling == "symlink":
        pool.symlink_to(out / f"{names[0]}.csv")
    read = []

    def counting_read(path, *args):
        read.append(Path(path).name)
        return read_corpus(path, *args)

    monkeypatch.setattr("spkdeid.cli.read_corpus", counting_read)
    assert run_cli(command, "--config", config_path, "--out-dir", out_dir,
                   "--method", "baseline_farthest", "--pool", pool,
                   *(arg.replace("OUT", str(out_dir)) for arg in extra)) == 0
    assert sorted(read) == sorted(f"{name}.csv" for name in names)
    manifest = json.loads((out / f"manifest_{command}.json").read_text())
    assert list(manifest["inputs"]) == [str(Path(out_dir) / f"{name}.csv") for name in names]


def test_manifest_replay_keeps_adam_hyperparameters(tmp_path):
    def train_run(config, out):
        path = tmp_path / f"{out.name}.json"
        path.write_text(json.dumps(dict(config, out_dir=str(out))))
        assert run_cli("gen-data", "--config", path) == 0
        assert run_cli("train", "--config", path) == 0
        return out / "model.aan"

    config = dict(TINY_CONFIG, train=dict(TINY_CONFIG["train"], beta1=0.5, eps=1e-3))
    first = train_run(config, tmp_path / "first")
    manifest = json.loads((tmp_path / "first" / "manifest_train.json").read_text())
    assert manifest["config"]["train"]["beta1"] == 0.5
    assert manifest["config"]["train"]["eps"] == 1e-3
    replay = train_run(manifest["config"], tmp_path / "replay")
    assert replay.read_bytes() == first.read_bytes()
    # the hyperparameters matter: the default ones give another model
    default = train_run(TINY_CONFIG, tmp_path / "default")
    assert default.read_bytes() != first.read_bytes()


def test_print_config_round_trips(tmp_path, capsys):
    assert run_cli("print-config", "--seed", "123", "--out-dir", tmp_path) == 0
    config = json.loads(capsys.readouterr().out)
    assert config["seed"] == 123
    assert config["train"]["lambda"] == 8.0


def config_leaves(pairs, prefix=""):
    """(dotted key, value) for every leaf of a config parsed with
    ``object_pairs_hook=list``, in file order."""
    for key, value in pairs:
        if isinstance(value, list):
            yield from config_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def documented_config():
    """The leaves of the JSON block under README's "Config schema" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    return list(config_leaves(json.loads(block, object_pairs_hook=list)))


DOCUMENTED_CONFIG = documented_config()


def printed_config(capsys, *args):
    assert run_cli("print-config", *args) == 0
    return list(config_leaves(json.loads(capsys.readouterr().out, object_pairs_hook=list)))


def test_print_config_has_the_documented_keys_in_order(capsys):
    # manifest bytes depend on this order
    assert len(DOCUMENTED_CONFIG) == 28
    assert printed_config(capsys) == DOCUMENTED_CONFIG


@pytest.mark.parametrize("key, default", DOCUMENTED_CONFIG,
                         ids=[key for key, _ in DOCUMENTED_CONFIG])
def test_every_documented_key_is_typed_and_settable(tmp_path, capsys, key, default):
    def config_file(value):
        *sections, leaf = key.split(".")
        config = {leaf: value}
        for section in reversed(sections):
            config = {section: config}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        return path

    path = config_file(1 if isinstance(default, str) else "x")
    assert run_cli("print-config", "--config", path) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {key} ")

    if isinstance(default, bool):
        value = not default
    elif isinstance(default, int):
        value = default + 1
    elif isinstance(default, float):
        value = default / 2
    else:
        value = {"anonymize.method": "baseline_farthest",
                 "train.optimizer": "sgd"}.get(key, default + "_x")
    expected = [(k, value if k == key else v) for k, v in DOCUMENTED_CONFIG]
    assert printed_config(capsys, "--config", config_file(value)) == expected


@pytest.mark.parametrize("name, content, command", [
    ("report.csv", b"row,dataset,eer_pct,min_cllr,cllr,enroll,trial,gender,"
                   b"probe_speaker,probe_gender,probe_accent\n"
                   b"1,t\xff,10.0,0.9,1.1,o,a,f,0.5,0.9,0.4\n", ["report"]),
    ("config.json", b'{"seed": 1,\n "dataset_tag": "\xff"}\n', ["print-config", "--config"]),
    ("config.json", b'{"seed": 1,\n', ["print-config", "--config"]),
], ids=["report-not-utf8", "config-not-utf8", "config-truncated-json"])
def test_unreadable_file_is_one_error_line_naming_it(tmp_path, capsys, name, content,
                                                     command):
    path = tmp_path / name
    path.write_bytes(content)
    assert run_cli(*command, path) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith(f"error: {path}: line 2: ")


@pytest.mark.parametrize("content, message", [
    ('{"sed": 1}', "unknown config key 'sed'"),
    ("[1]", "config file must be a JSON object, got [1]"),
    ('{"train": {"lr": "x"}}', "train.lr must be a finite number, got 'x'"),
    ('{"train": {"seed": 5}}', "config key 'train.seed' is not settable"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
    pytest.param('{"seed": 1' + "0" * 4999 + "}", "Exceeds the limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="integers of any length convert")),
], ids=["unknown-key", "not-an-object", "mistyped-value", "derived-seed", "nested-too-deep",
        "too-many-digits"])
def test_config_key_and_type_errors_name_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "c.json"
    path.write_text(content)
    assert run_cli("print-config", "--config", path) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {message}")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_single_byte_mutation_exits_0_or_one_error_line(data):
    valid = (json.dumps(RunConfig.from_dict(TINY_CONFIG).to_dict(), indent=2) + "\n").encode()
    pos = data.draw(st.integers(0, len(valid) - 1))
    byte = data.draw(st.integers(0, 255))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(valid[:pos] + bytes([byte]) + valid[pos + 1:])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["print-config", "--config", str(path)])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 2 and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("content, message", [
    ('{"seed": "%s"}' % ("x" * 100_000), "seed must be an integer, got 'xxx"),
    ('{"seed": %s}' % ("[" * 900 + "]" * 900), "seed must be an integer, got [[["),
    ('{"%s": 1}' % ("x" * 100_000), "unknown config key 'xxx"),
    ('{"train": "%s"}' % ("x" * 100_000), "config train must be a JSON object, got 'xxx"),
], ids=["long-string", "deep-list", "long-key", "long-section"])
def test_config_error_lines_quote_a_bounded_value(tmp_path, capsys, content, message):
    path = tmp_path / "c.json"
    path.write_text(content)
    assert run_cli("print-config", "--config", path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {message}")
    assert len(err[0].encode()) < 200 and "characters)" in err[0]
