"""Command-line pipeline: data generation, training, anonymization, and
evaluation, with JSON configs, per-stage derived seeds, and run manifests.

Config file schema (all keys optional, defaults shown by `spkdeid
print-config`):

    {
      "seed": 20200807,
      "out_dir": "runs/demo",
      "dataset_tag": "synth",
      "corpus": {"n_speakers": 40, "n_genders": 2, "n_accents": 4,
                 "utterances_per_speaker": 30, "dim": 64,
                 "attribute_strength": {"speaker": 0.6, "gender": 3.2,
                                        "accent": 3.7},
                 "noise_sigma": 0.3},
      "split": {"n_heldout_per_speaker": 10},
      "model": {"hidden": 128, "latent": 8, "branch_hidden": 64},
      "train": {"lambda": 8.0, "epochs": 3000, "batch_size": 32, "lr": 0.005,
                "beta1": 0.9, "beta2": 0.999, "eps": 1e-08,
                "optimizer": "adam", "shuffle": true},
      "anonymize": {"method": "aan1", "top_k": 10},
      "trials": {"n_nontarget_per_target": 10}
    }

An unknown key, or a value of the wrong type (integers exclude booleans,
floats must be finite), is an error naming the config file and the key.
Flags override file values.  All randomness flows from the top-level seed
through named per-stage seeds (sha256 of "<seed>:<stage>"), so stages are
independently reproducible; each command writes a manifest_<command>.json
recording its config snapshot and the sha256 of every input and output
file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .aan import (
    AanDims,
    TrainConfig,
    aan_gradient_check,
    build_aan,
    desk_dims,
    load_model,
    sample_gradcheck_batch,
    save_model,
    train,
)
from .anonymize import (
    METHOD_KINDS,
    AnonymizationMethod,
    PseudoPool,
    anonymize_corpus,
)
from .dataset import (
    Corpus,
    CorpusSpec,
    decode_error,
    generate_corpus,
    read_corpus,
    split_corpus,
    write_corpus,
)
from .metrics import (
    evaluate_conditions,
    format_report_table,
    make_trials,
    read_report_csv,
    write_report_csv,
    write_trials,
)
from .neural import DivergenceError


def derive_seed(master_seed: int, stage: str) -> int:
    """Stable per-stage seed: sha256 of "<seed>:<stage>", first 8 bytes."""
    digest = hashlib.sha256(f"{master_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2 ** 63)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclasses.dataclass
class RunConfig:
    seed: int = 20200807
    out_dir: str = "runs/demo"
    dataset_tag: str = "synth"
    corpus: CorpusSpec = dataclasses.field(default_factory=CorpusSpec)
    n_heldout_per_speaker: int = 10
    model_hidden: int = 128
    model_latent: int = 8
    model_branch_hidden: int = 64
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    anonymize_method: str = "aan1"
    anonymize_top_k: int = 10
    n_nontarget_per_target: int = 10

    def to_dict(self) -> dict:
        data: dict = {}
        for key, (attr, _) in CONFIG_FIELDS.items():
            *sections, leaf = key.split(".")
            node = data
            for section in sections:
                node = node.setdefault(section, {})
            node[leaf] = _get_path(self, attr)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg = cls()
        for key, value in _config_items(data, ""):
            if key in DERIVED_SEEDS:
                raise ValueError(f"config key {key!r} is not settable: that seed is "
                                 f"derived from the top-level seed")
            if key not in CONFIG_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            attr, kind = CONFIG_FIELDS[key]
            cfg = _replace_path(cfg, attr, _checked_value(key, value, kind))
        return cfg


# Config file key -> (RunConfig attribute path, value type).  The order is
# the order of print-config and of the manifests' config snapshots.
CONFIG_FIELDS: dict[str, tuple[str, type]] = {
    "seed": ("seed", int),
    "out_dir": ("out_dir", str),
    "dataset_tag": ("dataset_tag", str),
    **{f"corpus.{name}": (f"corpus.{name}", int)
       for name in ("n_speakers", "n_genders", "n_accents", "utterances_per_speaker",
                    "dim")},
    **{f"corpus.attribute_strength.{name}": (f"corpus.attribute_strength.{name}", float)
       for name in ("speaker", "gender", "accent")},
    "corpus.noise_sigma": ("corpus.noise_sigma", float),
    "split.n_heldout_per_speaker": ("n_heldout_per_speaker", int),
    "model.hidden": ("model_hidden", int),
    "model.latent": ("model_latent", int),
    "model.branch_hidden": ("model_branch_hidden", int),
    "train.lambda": ("train.lam", float),
    "train.epochs": ("train.epochs", int),
    "train.batch_size": ("train.batch_size", int),
    "train.lr": ("train.lr", float),
    "train.beta1": ("train.beta1", float),
    "train.beta2": ("train.beta2", float),
    "train.eps": ("train.eps", float),
    "train.optimizer": ("train.optimizer", str),
    "train.shuffle": ("train.shuffle", bool),
    "anonymize.method": ("anonymize_method", str),
    "anonymize.top_k": ("anonymize_top_k", int),
    "trials.n_nontarget_per_target": ("n_nontarget_per_target", int),
}

# Stage seeds come from derive_seed, so the config cannot set them.
DERIVED_SEEDS = ("corpus.seed", "train.seed")

_SECTIONS = {key.rsplit(".", 1)[0] for key in CONFIG_FIELDS if "." in key}


def _config_items(data, prefix: str):
    """(dotted key, value) for every leaf of a config object."""
    if not isinstance(data, dict):
        raise ValueError(f"config {prefix.rstrip('.') or 'file'} must be a JSON object, "
                         f"got {data!r}")
    for key, value in data.items():
        name = prefix + key
        if name in _SECTIONS:
            yield from _config_items(value, name + ".")
        else:
            yield name, value


def _checked_value(key: str, value, kind: type):
    """``value`` if it has the config type ``kind``; a ValueError naming
    ``key`` otherwise.  Integers exclude bool; floats are finite reals."""
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
        what = "an integer"
    elif kind is float:
        try:
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int beyond float
            ok = False
        what = "a finite number"
    elif kind is bool:
        ok = isinstance(value, bool)
        what = "true or false"
    else:
        ok = isinstance(value, str)
        what = "a string"
    if not ok:
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def _get_path(obj, path: str):
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def _replace_path(obj, path: str, value):
    """Copy of the dataclass ``obj`` with the dotted attribute ``path`` set."""
    head, _, rest = path.partition(".")
    if rest:
        value = _replace_path(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise decode_error(args.config, exc) from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: line {exc.lineno}: {exc.msg}") from None
        try:
            cfg = RunConfig.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out_dir is not None:
        cfg.out_dir = args.out_dir
    return cfg


def write_manifest(cfg: RunConfig, command: str, inputs: list[Path],
                   outputs: list[Path], elapsed: float) -> Path:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p): sha256_file(p) for p in outputs},
        "elapsed_seconds": round(elapsed, 3),
    }
    path = Path(cfg.out_dir) / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(cfg: RunConfig) -> int:
    started = time.time()
    # checked before anything is written: 0 would leave valid and test empty
    if cfg.n_heldout_per_speaker < 1:
        raise ValueError("split.n_heldout_per_speaker must be >= 1, got "
                         f"{cfg.n_heldout_per_speaker}: the valid and test splits hold that "
                         "many utterances per speaker")
    out = _out_dir(cfg)
    spec = dataclasses.replace(cfg.corpus, seed=derive_seed(cfg.seed, "gen-data"))
    train_c, valid_c, test_c = split_corpus(generate_corpus(spec), cfg.n_heldout_per_speaker)
    outputs = []
    for name, split in (("train", train_c), ("valid", valid_c), ("test", test_c)):
        path = out / f"{name}.csv"
        write_corpus(split, path)
        outputs.append(path)
        print(f"wrote {path} ({len(split)} utterances)")
    write_manifest(cfg, "gen-data", [], outputs, time.time() - started)
    return 0


def _history_csv(history, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch",
                         "train_recon_loss", "train_gender_loss",
                         "train_accent_loss", "train_speaker_loss",
                         "valid_recon_loss", "valid_gender_loss",
                         "valid_accent_loss", "valid_speaker_loss",
                         "valid_gender_acc", "valid_accent_acc", "valid_speaker_acc"])
        for row in history:
            writer.writerow([row.epoch]
                            + [f"{v:.17g}" for v in
                               (row.train.recon, row.train.gender, row.train.accent,
                                row.train.speaker, row.valid.recon, row.valid.gender,
                                row.valid.accent, row.valid.speaker,
                                row.valid_gender_acc, row.valid_accent_acc,
                                row.valid_speaker_acc)])


def _read_splits(out: Path, names=("train", "valid", "test")
                 ) -> tuple[list[Path], list[Corpus]]:
    """The paths of the named split CSVs in ``out``, and their corpora."""
    paths = [out / f"{name}.csv" for name in names]
    return paths, [read_corpus(path, path.stem) for path in paths]


def _train_once(cfg: RunConfig, lam: float, train_corpus: Corpus, valid_corpus: Corpus,
                checkpoint: Path, history_path: Path):
    dims = desk_dims(train_corpus, hidden=cfg.model_hidden, latent=cfg.model_latent,
                     branch_hidden=cfg.model_branch_hidden)
    model = build_aan(dims, lam, seed=derive_seed(cfg.seed, "build"))
    config = dataclasses.replace(cfg.train, lam=lam,
                                 seed=derive_seed(cfg.seed, "train"))
    model, history = train(model, train_corpus, valid_corpus, config)
    if not history:
        raise DivergenceError(f"training diverged in epoch 1 (lambda={lam:g}, "
                              f"lr={config.lr:g}); no checkpoint written")
    save_model(model, checkpoint)
    _history_csv(history, history_path)
    return history


def cmd_train(cfg: RunConfig, lam_override: float | None) -> int:
    started = time.time()
    out = _out_dir(cfg)
    lam = cfg.train.lam if lam_override is None else lam_override
    checkpoint, history_path = out / "model.aan", out / "history.csv"
    inputs, corpora = _read_splits(out, ("train", "valid"))
    history = _train_once(cfg, lam, *corpora, checkpoint, history_path)
    last = history[-1]
    print(f"trained {len(history)} epochs (lambda={lam:g}): "
          f"valid recon loss {last.valid.recon:.5f}, "
          f"valid speaker acc {last.valid_speaker_acc:.3f}")
    write_manifest(cfg, "train", inputs, [checkpoint, history_path],
                   time.time() - started)
    return 0


def _resolve_method(cfg: RunConfig, kind: str, model_path: str | None,
                    pool_path: str | None, top_k: int | None, require_flags: bool,
                    train: Corpus | None = None) -> tuple[AnonymizationMethod, list[Path]]:
    """The method, and the checkpoint and pool files it was built from.

    ``train``, the corpus of the out-dir's train.csv when the caller has
    read it, is the pool when that file is the pool path.
    """
    if kind not in METHOD_KINDS:
        raise ValueError(f"method must be one of {METHOD_KINDS}, got {kind!r}")
    out = Path(cfg.out_dir)
    model = None
    pool = None
    read = []
    if kind in ("aan1", "aan2"):
        if model_path is None:
            if require_flags:
                raise ValueError(f"method {kind!r} requires --model")
            model_path = str(out / "model.aan")
        model = load_model(model_path)
        read.append(Path(model_path))
    if kind in ("baseline_farthest", "aan2"):
        if pool_path is None:
            if require_flags:
                raise ValueError(f"method {kind!r} requires --pool")
            pool_path = str(out / "train.csv")
        reuse = train is not None and Path(pool_path) == out / "train.csv"
        pool = PseudoPool((train if reuse else read_corpus(pool_path)).matrix())
        read.append(Path(pool_path))
    method = AnonymizationMethod(kind=kind, model=model, pool=pool,
                                 top_k=cfg.anonymize_top_k if top_k is None else top_k)
    return method, read


def cmd_anonymize(cfg: RunConfig, args: argparse.Namespace) -> int:
    started = time.time()
    _out_dir(cfg)
    kind = args.method or cfg.anonymize_method
    method, method_files = _resolve_method(cfg, kind, args.model, args.pool, args.top_k,
                                           require_flags=True)
    corpus = read_corpus(args.in_path)
    anonymized = anonymize_corpus(corpus, method)
    out_path = Path(args.out_path)
    write_corpus(anonymized, out_path)
    print(f"wrote {out_path} ({len(anonymized)} utterances, method={kind})")
    write_manifest(cfg, "anonymize", [Path(args.in_path)] + method_files, [out_path],
                   time.time() - started)
    return 0


def _evaluate_once(cfg: RunConfig, method: AnonymizationMethod, splits: list[Corpus],
                   suffix: str = ""):
    out = _out_dir(cfg)
    train_c, valid_c, test_c = splits
    # probe on the train split, enroll on the test split, score trial
    # utterances from the valid split
    original = (train_c, test_c, valid_c)
    anonymized = tuple(anonymize_corpus(corpus, method) for corpus in original)
    seed = derive_seed(cfg.seed, "evaluate")
    trials = make_trials(test_c, valid_c, cfg.n_nontarget_per_target, seed)
    report = evaluate_conditions(original, anonymized, trials, seed, cfg.dataset_tag)
    trials_path = out / f"trials{suffix}.csv"
    report_csv = out / f"report{suffix}.csv"
    report_txt = out / f"report{suffix}.txt"
    write_trials(trials, trials_path)
    write_report_csv(report, report_csv)
    report_txt.write_text(format_report_table(report))
    return report, [trials_path, report_csv, report_txt]


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    started = time.time()
    kind = args.method or cfg.anonymize_method
    inputs, splits = _read_splits(Path(cfg.out_dir))
    method, method_files = _resolve_method(cfg, kind, args.model, args.pool, args.top_k,
                                           require_flags=False, train=splits[0])
    report, outputs = _evaluate_once(cfg, method, splits)
    print(format_report_table(report), end="")
    write_manifest(cfg, "evaluate", list(dict.fromkeys(inputs + method_files)), outputs,
                   time.time() - started)
    return 0


def cmd_sweep_lambda(cfg: RunConfig, args: argparse.Namespace) -> int:
    started = time.time()
    out = _out_dir(cfg)
    lambdas = [float(v) for v in args.lambdas.split(",") if v.strip() != ""]
    if not lambdas:
        raise ValueError("--lambdas must list at least one value")
    inputs, splits = _read_splits(out)
    outputs = []
    summary_rows = []
    for lam in lambdas:
        tag = f"{lam:g}"
        checkpoint = out / f"model_lambda{tag}.aan"
        history_path = out / f"history_lambda{tag}.csv"
        history = _train_once(cfg, lam, *splits[:2], checkpoint, history_path)
        method, _ = _resolve_method(cfg, cfg.anonymize_method, str(checkpoint),
                                    str(out / "train.csv"), cfg.anonymize_top_k,
                                    require_flags=False, train=splits[0])
        report, report_files = _evaluate_once(cfg, method, splits, suffix=f"_lambda{tag}")
        last = history[-1]
        summary_rows.append([f"{lam:g}", f"{last.valid.recon:.17g}",
                             f"{last.valid_gender_acc:.17g}",
                             f"{last.valid_accent_acc:.17g}",
                             f"{last.valid_speaker_acc:.17g}"])
        outputs.extend([checkpoint, history_path] + report_files)
        print(f"lambda={lam:g}: valid recon loss {last.valid.recon:.5f}, "
              f"valid speaker acc {last.valid_speaker_acc:.3f}")
    summary_path = out / "sweep_summary.csv"
    with summary_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "final_valid_recon_loss", "final_valid_gender_acc",
                         "final_valid_accent_acc", "final_valid_speaker_acc"])
        writer.writerows(summary_rows)
    outputs.append(summary_path)
    write_manifest(cfg, "sweep-lambda", inputs, outputs, time.time() - started)
    return 0


def cmd_gradcheck(cfg: RunConfig, args: argparse.Namespace) -> int:
    dims = AanDims(input_dim=8, hidden=8, latent=4, branch_hidden=8,
                   n_genders=2, n_accents=3, n_speakers=5)
    # small init plus the margin-checked batch keep ReLU pre-activations
    # away from the kink
    model = build_aan(dims, lam=8.0, seed=derive_seed(cfg.seed, "gradcheck-init"),
                      init_scale=0.1)
    x, gender, accent, speaker = sample_gradcheck_batch(
        model, batch_size=4, seed=derive_seed(cfg.seed, "gradcheck"))
    results = aan_gradient_check(model, x, gender, accent, speaker, eps=1e-5)
    worst = max(results.values())
    for group, err in results.items():
        print(f"{group}: max relative error {err:.3e}")
    print(f"max relative error {worst:.3e} (threshold {args.threshold:g})")
    return 0 if worst < args.threshold else 1


def cmd_report(args: argparse.Namespace) -> int:
    report = read_report_csv(args.report_csv)
    text = format_report_table(report)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def cmd_print_config(cfg: RunConfig) -> int:
    print(json.dumps(cfg.to_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spkdeid", description="speaker de-identification pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the top-level seed")
        p.add_argument("--out-dir", help="override the output directory")

    add_common(sub.add_parser("gen-data", help="generate and split a synthetic corpus"))

    p_train = sub.add_parser("train", help="train the anonymization model")
    add_common(p_train)
    p_train.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="adversarial trade-off weight (overrides config)")

    p_anon = sub.add_parser("anonymize", help="anonymize a corpus CSV")
    add_common(p_anon)
    p_anon.add_argument("--method", choices=METHOD_KINDS, default=None)
    p_anon.add_argument("--in", dest="in_path", required=True, help="input corpus CSV")
    p_anon.add_argument("--out", dest="out_path", required=True, help="output corpus CSV")
    p_anon.add_argument("--model", help="model checkpoint (aan1/aan2)")
    p_anon.add_argument("--pool", help="pool corpus CSV (baseline_farthest/aan2)")
    p_anon.add_argument("--top-k", type=int, default=None)

    p_eval = sub.add_parser("evaluate", help="score o/a enroll-trial conditions")
    add_common(p_eval)
    p_eval.add_argument("--method", choices=METHOD_KINDS, default=None)
    p_eval.add_argument("--model", help="model checkpoint (default <out-dir>/model.aan)")
    p_eval.add_argument("--pool", help="pool corpus CSV (default <out-dir>/train.csv)")
    p_eval.add_argument("--top-k", type=int, default=None)

    p_sweep = sub.add_parser("sweep-lambda", help="train and evaluate over several lambdas")
    add_common(p_sweep)
    p_sweep.add_argument("--lambdas", default="0,1,8",
                         help="comma-separated lambda values")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    add_common(p_grad)
    p_grad.add_argument("--threshold", type=float, default=1e-4,
                        help="exit nonzero if the max relative error is not below this")

    p_report = sub.add_parser("report", help="render a report CSV as an aligned table")
    p_report.add_argument("report_csv")
    p_report.add_argument("--out", help="also write the table to this file")

    add_common(sub.add_parser("print-config", help="print the effective config as JSON"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        cfg = load_config(args)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.lam)
        if args.command == "anonymize":
            return cmd_anonymize(cfg, args)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args)
        if args.command == "sweep-lambda":
            return cmd_sweep_lambda(cfg, args)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args)
        if args.command == "print-config":
            return cmd_print_config(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, DivergenceError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
