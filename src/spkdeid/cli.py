"""Command-line pipeline: data generation, training, anonymization, and
evaluation, with JSON configs, per-stage derived seeds, and run manifests.

``build_parser`` is the command table.  Each subcommand sets its handler,
which takes the config and the flags, as ``args.run``; the run flags and the
method flags are each declared once, as argparse parents.  The five pipeline
commands return the files they read and wrote, and ``main``, the one
manifest writer, times each and writes manifest_<command>.json: its config
snapshot and the sha256 of every input and output file, each file listed
once, under the first path that named it.  The digests come from
``dataset.sha256_file``, so a corpus CSV that the command wrote, or read
through its sidecar, is not read again to hash it; ``main`` empties that
record of digests before each command.  ``aan.train`` raises on a failed
run, so train and sweep-lambda save only runs that it returns; a sweep draws
its trials and resolves its method, which must use a model, before its first
lambda trains.  Tables are written by ``dataset.write_rows``.  The tools
(gradcheck, print-config, report) return their exit code; gradcheck's is 1
when its worst error/tolerance ratio is above 1.  Paths are compared by file
identity: an ``--out`` that is one of the command's inputs is refused before
anything is read, and a pool that is a split already read is reused.

The config file is ``RunConfig``: its top-level keys are the seed, the
output directory and the dataset tag, and each of its sections (corpus,
split, model, train, anonymize, trials) is one dataclass, whose fields are
the section's keys, so a field added to a section is a key.  Every key is
optional; ``spkdeid print-config`` shows them all with their defaults.  An
unknown key, or a value of the wrong type (integers exclude booleans, floats
must be finite), is an error naming the config file and the key, as is a
file that is not JSON.  ``load_config`` sets the flags --seed, --out-dir,
--lambda, --method and --top-k over the keys they override, so a command
reads only the config and its manifest records the config that ran.  All
randomness flows from the top-level seed through named per-stage seeds
(sha256 of "<seed>:<stage>"), so stages are independently reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .aan import (
    GRADCHECK_EPS,
    AanDims,
    EpochStats,
    LossBreakdown,
    ModelConfig,
    TrainConfig,
    aan_gradient_differences,
    build_aan,
    desk_dims,
    load_model,
    sample_gradcheck_batch,
    save_model,
    train,
)
from .anonymize import (
    METHOD_KINDS,
    METHOD_NEEDS,
    AnonymizationMethod,
    PseudoPool,
    anonymize_corpus,
)
from .dataset import (
    Corpus,
    CorpusSpec,
    decode_error,
    forget_file_digests,
    generate_corpus,
    read_corpus,
    sha256_file,
    split_corpus,
    write_corpus,
    write_rows,
)
from .metrics import (
    TrialList,
    evaluate_conditions,
    format_report_table,
    make_trials,
    read_report_csv,
    write_report_csv,
    write_trials,
)
from .neural import (
    ROUNDOFF_FACTOR,
    DivergenceError,
    check_lam,
    max_relative_error,
    tolerance_ratio,
)


def derive_seed(master_seed: int, stage: str) -> int:
    """Stable per-stage seed: sha256 of "<seed>:<stage>", first 8 bytes."""
    digest = hashlib.sha256(f"{master_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2 ** 63)


@dataclasses.dataclass
class SplitConfig:
    n_heldout_per_speaker: int = 10


@dataclasses.dataclass
class AnonymizeConfig:
    method: str = "aan1"
    top_k: int = 10


@dataclasses.dataclass
class TrialsConfig:
    n_nontarget_per_target: int = 10


@dataclasses.dataclass
class RunConfig:
    """The config file: each leaf field is a key, each dataclass field a
    section, in field order (the order of print-config and of the manifests'
    config snapshots).  ``lam`` is written ``lambda``; a section's ``seed``
    comes from derive_seed, so the file cannot set it."""

    seed: int = 20200807
    out_dir: str = "runs/demo"
    dataset_tag: str = "synth"
    corpus: CorpusSpec = dataclasses.field(default_factory=CorpusSpec)
    split: SplitConfig = dataclasses.field(default_factory=SplitConfig)
    model: ModelConfig = dataclasses.field(default_factory=ModelConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    anonymize: AnonymizeConfig = dataclasses.field(default_factory=AnonymizeConfig)
    trials: TrialsConfig = dataclasses.field(default_factory=TrialsConfig)

    def to_dict(self) -> dict:
        return _section_dict(self, "")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _with_values(cls(), data, "")


def _config_keys(section, prefix: str) -> dict[str, str]:
    """Config key -> field name of the config section ``section``, whose
    keys start with ``prefix``."""
    return {("lambda" if f.name == "lam" else f.name): f.name
            for f in dataclasses.fields(section) if not (prefix and f.name == "seed")}


def _section_dict(section, prefix: str) -> dict:
    data = {}
    for key, attr in _config_keys(section, prefix).items():
        value = getattr(section, attr)
        data[key] = (_section_dict(value, f"{prefix}{key}.")
                     if dataclasses.is_dataclass(value) else value)
    return data


def _with_values(section, data, prefix: str):
    """Copy of the config section ``section`` with the values of the config
    object ``data`` set, each checked against its field's type."""
    if not isinstance(data, dict):
        raise ValueError(f"config {prefix.rstrip('.') or 'file'} must be a JSON object, "
                         f"got {_shown(data)}")
    attrs = _config_keys(section, prefix)
    kinds = typing.get_type_hints(type(section))
    changes = {}
    for key, value in data.items():
        name = prefix + key
        if key not in attrs:
            if key == "seed" and hasattr(section, "seed"):
                raise ValueError(f"config key {name!r} is not settable: that seed is "
                                 f"derived from the top-level seed")
            raise ValueError(f"unknown config key {_shown(name)}")
        attr = attrs[key]
        current = getattr(section, attr)
        changes[attr] = (_with_values(current, value, name + ".")
                         if dataclasses.is_dataclass(current)
                         else _checked_value(name, value, kinds[attr]))
    return dataclasses.replace(section, **changes)


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
        raise ValueError(f"{key} must be {what}, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """``repr(value)``; past 40 characters, its first 40 and its length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


# The flags that override config keys: argparse dest, which is also the key's
# field name, -> the key's RunConfig section ("" for a top-level key).
_FLAG_SECTIONS = {"seed": "", "out_dir": "", "lam": "train", "method": "anonymize",
                 "top_k": "anonymize"}


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
        except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
            raise ValueError(f"{args.config}: {exc}") from None
        try:
            cfg = RunConfig.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    for dest, section in _FLAG_SECTIONS.items():
        if getattr(args, dest, None) is not None:  # a command without the flag lacks it
            setattr(getattr(cfg, section) if section else cfg, dest, getattr(args, dest))
    return cfg


def _resources() -> dict:
    """Peak RSS of this process so far (``ru_maxrss`` is in KiB, but in bytes
    on macOS), the numpy version, the BLAS numpy was built with (None where
    numpy cannot report it as a dict, as on numpy 1.24) and the BLAS thread
    variables (None where unset)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / (1024 ** 2 if sys.platform == "darwin" else 1024), 1),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def write_manifest(cfg: RunConfig, command: str, inputs: list[Path],
                   outputs: list[Path], elapsed: float) -> Path:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p): sha256_file(p) for p in outputs},
        "elapsed_seconds": round(elapsed, 3),
        "resources": _resources(),
    }
    path = Path(cfg.out_dir) / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(cfg: RunConfig, args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    # checked before anything is written: 0 would leave valid and test empty
    n_heldout = cfg.split.n_heldout_per_speaker
    if n_heldout < 1:
        raise ValueError(f"split.n_heldout_per_speaker must be >= 1, got {n_heldout}: the "
                         "valid and test splits hold that many utterances per speaker")
    out = _out_dir(cfg)
    spec = dataclasses.replace(cfg.corpus, seed=derive_seed(cfg.seed, "gen-data"))
    outputs = [out / f"{name}.csv" for name in ("train", "valid", "test")]
    for path, split in zip(outputs, split_corpus(generate_corpus(spec), n_heldout)):
        write_corpus(split, path)
        print(f"wrote {path} ({len(split)} utterances)")
    return [], outputs


def _history_csv(history: list[EpochStats], path: Path) -> None:
    """One row per epoch: the fields of ``EpochStats`` in order, each
    ``LossBreakdown`` spread into one ``<field>_<term>_loss`` column per term."""
    terms = [f.name for f in dataclasses.fields(LossBreakdown)]
    header = []
    for name, kind in typing.get_type_hints(EpochStats).items():
        header += [f"{name}_{term}_loss" for term in terms] if kind is LossBreakdown else [name]
    write_rows(path, header, ([epoch] + [f"{v:.17g}" for v in np.hstack(values)]
                              for epoch, *values in map(dataclasses.astuple, history)))


def _read_splits(out: Path, names=("train", "valid", "test")
                 ) -> tuple[list[Path], list[Corpus]]:
    """The paths of the named split CSVs in ``out``, and their corpora, which
    must all have the first one's dim."""
    paths = [out / f"{name}.csv" for name in names]
    corpora = [read_corpus(path, path.stem) for path in paths]
    for path, corpus in zip(paths[1:], corpora[1:]):
        if corpus.dim != corpora[0].dim:
            raise ValueError(f"{path}: corpus dim {corpus.dim} does not match the "
                             f"{corpora[0].dim}-dim corpus {paths[0]}")
    return paths, corpora


def _train_once(cfg: RunConfig, lam: float, train_corpus: Corpus, valid_corpus: Corpus,
                checkpoint: Path, history_path: Path):
    dims = desk_dims(train_corpus, cfg.model)
    model = build_aan(dims, lam, seed=derive_seed(cfg.seed, "build"))
    config = dataclasses.replace(cfg.train, lam=lam, seed=derive_seed(cfg.seed, "train"))
    model, history = train(model, train_corpus, valid_corpus, config)
    save_model(model, checkpoint)
    _history_csv(history, history_path)
    return model, history


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    out = _out_dir(cfg)
    checkpoint, history_path = out / "model.aan", out / "history.csv"
    inputs, corpora = _read_splits(out, ("train", "valid"))
    _, history = _train_once(cfg, cfg.train.lam, *corpora, checkpoint, history_path)
    last = history[-1]
    print(f"trained {len(history)} epochs (lambda={cfg.train.lam:g}): "
          f"valid recon loss {last.valid.recon:.5f}, "
          f"valid speaker acc {last.valid_speaker_acc:.3f}")
    return inputs, [checkpoint, history_path]


def _resolve_method(cfg: RunConfig, model_path: str | None, pool_path: str | None,
                    corpus: Corpus, corpus_path: Path) -> tuple[AnonymizationMethod, list[Path]]:
    """The config's method (with no model where ``model_path`` is None) and the
    files it was built from, checked against the dim of ``corpus`` and top_k
    against the pool, which is ``corpus`` when ``corpus_path`` is that file."""
    kind, top_k = cfg.anonymize.method, cfg.anonymize.top_k
    if kind not in METHOD_KINDS:
        raise ValueError(f"method must be one of {METHOD_KINDS}, got {kind!r}")
    model = pool = None
    read = []
    if "model" in METHOD_NEEDS[kind] and model_path is not None:
        model = load_model(model_path)
        if model.dims.input_dim != corpus.dim:
            raise ValueError(f"{model_path}: model input_dim {model.dims.input_dim} does not "
                             f"match the {corpus.dim}-dim corpus {corpus_path}")
        read.append(Path(model_path))
    if "pool" in METHOD_NEEDS[kind]:
        if pool_path is None:
            raise ValueError(f"method {kind!r} requires --pool")
        reuse = _same_file(pool_path, corpus_path)
        pool = PseudoPool((corpus if reuse else read_corpus(pool_path)).matrix())
        if pool.dim != corpus.dim:
            raise ValueError(f"{pool_path}: pool dim {pool.dim} does not match the "
                             f"{corpus.dim}-dim corpus {corpus_path}")
        if not 1 <= top_k <= len(pool):
            raise ValueError(f"top_k must be in [1, {len(pool)}], got {top_k}")
        read.append(Path(pool_path))
    return AnonymizationMethod(kind=kind, model=model, pool=pool, top_k=top_k), read


def _same_file(a: str | Path, b: str | Path) -> bool:
    """Whether the paths name one existing file, so that a relative path or a
    symlink to it counts too."""
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _unique_files(paths: list[Path]) -> list[Path]:
    """The paths without those that name a file listed before them."""
    unique: list[Path] = []
    for path in paths:
        if not any(_same_file(path, kept) for kept in unique):
            unique.append(path)
    return unique


def _refuse_overwrite(out_path: str, inputs: dict[str, str | None]) -> None:
    """Refuse an output that is one of the inputs (flag -> path or None) by
    file identity."""
    for flag, path in inputs.items():
        if path is not None and _same_file(out_path, path):
            raise ValueError(f"--out {out_path} is the {flag} input; refusing to overwrite it")


def cmd_anonymize(cfg: RunConfig, args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    _refuse_overwrite(args.out_path, {"--in": args.in_path, "--model": args.model,
                                      "--pool": args.pool})
    _out_dir(cfg)
    corpus = read_corpus(args.in_path)
    method, method_files = _resolve_method(cfg, args.model, args.pool, corpus,
                                           Path(args.in_path))
    if method.model is None and "model" in METHOD_NEEDS[method.kind]:
        raise ValueError(f"method {method.kind!r} requires --model")
    anonymized = anonymize_corpus(corpus, method)
    out_path = Path(args.out_path)
    write_corpus(anonymized, out_path)
    print(f"wrote {out_path} ({len(anonymized)} utterances, method={method.kind})")
    return [Path(args.in_path)] + method_files, [out_path]


def _draw_trials(cfg: RunConfig, splits: list[Corpus]) -> TrialList:
    """Trials enrolling the test split's speakers against valid-split utterances."""
    return make_trials(splits[2], splits[1], cfg.trials.n_nontarget_per_target,
                       derive_seed(cfg.seed, "evaluate"))


def _evaluate_once(cfg: RunConfig, method: AnonymizationMethod, splits: list[Corpus],
                   trials: TrialList, suffix: str = ""):
    out = _out_dir(cfg)
    train_c, valid_c, test_c = splits
    # probe on the train split, enroll on the test split, score trial
    # utterances from the valid split
    original = (train_c, test_c, valid_c)
    anonymized = tuple(anonymize_corpus(corpus, method) for corpus in original)
    report = evaluate_conditions(original, anonymized, trials, derive_seed(cfg.seed, "evaluate"),
                                 cfg.dataset_tag)
    trials_path = out / f"trials{suffix}.csv"
    report_csv = out / f"report{suffix}.csv"
    report_txt = out / f"report{suffix}.txt"
    write_trials(trials, trials_path)
    write_report_csv(report, report_csv)
    report_txt.write_text(format_report_table(report))
    return report, [trials_path, report_csv, report_txt]


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    out = Path(cfg.out_dir)
    model = str(out / "model.aan") if args.model is None else args.model
    pool = str(out / "train.csv") if args.pool is None else args.pool
    inputs, splits = _read_splits(out)
    trials = _draw_trials(cfg, splits)
    method, method_files = _resolve_method(cfg, model, pool, splits[0], inputs[0])
    report, outputs = _evaluate_once(cfg, method, splits, trials)
    print(format_report_table(report), end="")
    return inputs + method_files, outputs


def cmd_sweep_lambda(cfg: RunConfig, args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    out = _out_dir(cfg)
    values = [v.strip() for v in args.lambdas.split(",") if v.strip() != ""]
    if not values:
        raise ValueError("--lambdas must list at least one value")
    try:
        lambdas = [float(v) for v in values]
        for lam in lambdas:
            check_lam(lam)
    except ValueError as exc:
        raise ValueError(f"--lambdas: {exc}") from None
    tags = [f"{lam:g}" for lam in lambdas]
    clashing = [f"{v} (lambda{tag})" for v, tag in zip(values, tags) if tags.count(tag) > 1]
    if clashing:
        raise ValueError(f"--lambdas values {', '.join(clashing)} name the same output files")
    inputs, splits = _read_splits(out)
    trials = _draw_trials(cfg, splits)
    method, _ = _resolve_method(cfg, None, str(out / "train.csv"), splits[0], inputs[0])
    if "model" not in METHOD_NEEDS[method.kind]:
        raise ValueError(f"method {method.kind!r} uses no model: every lambda gives one report")
    outputs = []
    summary_rows = []
    for lam, tag in zip(lambdas, tags):
        checkpoint = out / f"model_lambda{tag}.aan"
        history_path = out / f"history_lambda{tag}.csv"
        method.model, history = _train_once(cfg, lam, *splits[:2], checkpoint, history_path)
        report, report_files = _evaluate_once(cfg, method, splits, trials, f"_lambda{tag}")
        last = history[-1]
        accs = last.valid_gender_acc, last.valid_accent_acc, last.valid_speaker_acc
        summary_rows.append([tag] + [f"{v:.17g}" for v in (last.valid.recon, *accs)])
        outputs.extend([checkpoint, history_path] + report_files)
        print(f"lambda={tag}: valid recon loss {last.valid.recon:.5f}, "
              f"valid speaker acc {last.valid_speaker_acc:.3f}")
    summary_path = out / "sweep_summary.csv"
    write_rows(summary_path, ["lambda", "final_valid_recon_loss", "final_valid_gender_acc",
                              "final_valid_accent_acc", "final_valid_speaker_acc"], summary_rows)
    outputs.append(summary_path)
    return inputs, outputs


def cmd_gradcheck(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not 0 <= args.threshold < math.inf:  # a negative tolerance would pass any error
        raise ValueError(f"--threshold must be a finite number >= 0, got {args.threshold:g}")
    dims = AanDims(input_dim=8, hidden=8, latent=4, branch_hidden=8,
                   n_genders=2, n_accents=3, n_speakers=5)
    # small init plus the margin-checked batch keep ReLU pre-activations
    # away from the kink
    model = build_aan(dims, lam=8.0, seed=derive_seed(cfg.seed, "gradcheck-init"),
                      init_scale=0.1)
    x, gender, accent, speaker = sample_gradcheck_batch(
        model, batch_size=4, seed=derive_seed(cfg.seed, "gradcheck"))
    differences = aan_gradient_differences(model, x, gender, accent, speaker)
    errors = {group: max_relative_error(analytic, numeric)
              for group, (_, analytic, numeric) in differences.items()}
    for group, err in errors.items():
        print(f"{group}: max relative error {err:.3e}")
    print(f"max relative error {max(errors.values()):.3e}")
    ratio = max(tolerance_ratio(*entries, GRADCHECK_EPS, args.threshold)
                for entries in differences.values())
    print(f"worst error/tolerance {ratio:.3g} (rtol {args.threshold:g}, atol "
          f"{ROUNDOFF_FACTOR:g}u|L|/eps)")
    return 0 if ratio <= 1 else 1


def cmd_report(cfg: None, args: argparse.Namespace) -> int:
    if args.out:
        _refuse_overwrite(args.out, {"report_csv": args.report_csv})
    report = read_report_csv(args.report_csv)
    text = format_report_table(report)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def cmd_print_config(cfg: RunConfig, args: argparse.Namespace) -> int:
    print(json.dumps(cfg.to_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spkdeid", description="speaker de-identification pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--config", help="JSON config file")
    run_flags.add_argument("--seed", type=int, help="override the top-level seed")
    run_flags.add_argument("--out-dir", help="override the output directory")
    method_flags = argparse.ArgumentParser(add_help=False)
    method_flags.add_argument("--method", choices=METHOD_KINDS, default=None)
    method_flags.add_argument("--model", help="model checkpoint (aan1/aan2; evaluate "
                                              "defaults to <out-dir>/model.aan)")
    method_flags.add_argument("--pool", help="pool corpus CSV (baseline_farthest/aan2; "
                                             "evaluate defaults to <out-dir>/train.csv)")
    method_flags.add_argument("--top-k", type=int, default=None)

    def command(name, run, summary, parents=(run_flags,)):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(run=run)
        return p

    command("gen-data", cmd_gen_data, "generate and split a synthetic corpus")
    p_train = command("train", cmd_train, "train the anonymization model")
    p_train.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="adversarial trade-off weight (overrides config)")
    p_anon = command("anonymize", cmd_anonymize, "anonymize a corpus CSV",
                     (run_flags, method_flags))
    p_anon.add_argument("--in", dest="in_path", required=True, help="input corpus CSV")
    p_anon.add_argument("--out", dest="out_path", required=True, help="output corpus CSV")
    command("evaluate", cmd_evaluate, "score o/a enroll-trial conditions",
            (run_flags, method_flags))
    p_sweep = command("sweep-lambda", cmd_sweep_lambda, "train and evaluate over several lambdas")
    p_sweep.add_argument("--lambdas", default="0,1,8", help="comma-separated lambda values")
    p_grad = command("gradcheck", cmd_gradcheck, "finite-difference gradient check")
    p_grad.add_argument("--threshold", type=float, default=1e-4,
                        help="relative tolerance of each gradient entry, on top of the "
                             "central difference's roundoff; exit 1 if an entry exceeds it")
    p_report = command("report", cmd_report, "render a report CSV as an aligned table", ())
    p_report.add_argument("report_csv")
    p_report.add_argument("--out", help="also write the table to this file")
    command("print-config", cmd_print_config, "print the effective config as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args) if "config" in args else None  # report takes no run flags
        forget_file_digests()
        started = time.perf_counter()
        result = args.run(cfg, args)
        if isinstance(result, int):  # a tool's exit code
            return result
        inputs, outputs = result
        write_manifest(cfg, args.command, _unique_files(inputs), _unique_files(outputs),
                       time.perf_counter() - started)
        return 0
    except (ValueError, OSError, DivergenceError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
