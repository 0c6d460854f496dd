import contextlib
import csv
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spkdeid.aan import load_model
from spkdeid.cli import RunConfig, main
from spkdeid.dataset import read_corpus
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


class TestAnonymize:
    def test_identity_preserves_digest(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        assert run_cli("anonymize", "--config", config_path,
                       "--method", "identity",
                       "--in", out / "test.csv", "--out", out / "anon.csv") == 0
        assert digest(out / "anon.csv") == digest(out / "test.csv")

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

    def test_aan2_requires_model_and_pool_flags(self, tiny_run, capsys):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        run_cli("train", "--config", config_path)
        code = run_cli("anonymize", "--config", config_path, "--method", "aan2",
                       "--model", out / "model.aan",
                       "--in", out / "test.csv", "--out", out / "anon.csv")
        assert code == 2
        assert "--pool" in capsys.readouterr().err


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


class TestGradcheck:
    def test_passes_default_threshold(self, tmp_path, capsys):
        assert run_cli("gradcheck", "--seed", "8", "--out-dir", tmp_path) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_zero_threshold_fails(self, tmp_path):
        assert run_cli("gradcheck", "--seed", "8", "--out-dir", tmp_path,
                       "--threshold", "0") == 1

    def test_deterministic_output(self, tmp_path, capsys):
        run_cli("gradcheck", "--seed", "5", "--out-dir", tmp_path)
        first = capsys.readouterr().out
        run_cli("gradcheck", "--seed", "5", "--out-dir", tmp_path)
        assert capsys.readouterr().out == first


class TestManifest:
    def test_manifest_digests_match_files(self, tiny_run):
        config_path, out = tiny_run
        run_cli("gen-data", "--config", config_path)
        manifest = json.loads((out / "manifest_gen-data.json").read_text())
        assert manifest["command"] == "gen-data"
        for path, recorded in manifest["outputs"].items():
            from pathlib import Path
            assert digest(Path(path)) == recorded

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
], ids=["unknown-key", "not-an-object", "mistyped-value", "derived-seed"])
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
