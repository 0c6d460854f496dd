"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values (run with ``pytest -s`` to see them).

The desk-scale criteria use the pinned seeds from conftest; every asserted
number is a deterministic function of those seeds.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from spkdeid.aan import (
    AanDims,
    AanModel,
    ModelConfig,
    TrainConfig,
    aan_loss_and_grads,
    build_aan,
    desk_dims,
    sample_gradcheck_batch,
    train,
)
from spkdeid.anonymize import (
    AnonymizationMethod,
    PseudoPool,
    anonymize_corpus,
    baseline_anonymize,
)
from spkdeid.cli import main as cli_main
from spkdeid.dataset import CorpusSpec, generate_corpus, split_corpus
from spkdeid.metrics import (
    ScoredTrials,
    TrialList,
    compute_cllr,
    compute_eer,
    compute_min_cllr,
    enroll_speaker_models,
    evaluate_conditions,
    make_trials,
    probe_attack,
    score_trials,
)
from spkdeid.neural import sgd_step

from conftest import DESK_MODEL_SEED, DESK_TRAIN_SEED, gradient_errors
from test_aan import two_role_sgd_update


def report(name, **values):
    rendered = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in values.items())
    print(f"PASS {name}: {rendered}")


def scored(targets, nontargets):
    trials = TrialList.from_rows(
        [("s", f"t{i}", True, "f") for i in range(len(targets))]
        + [("s", f"n{i}", False, "f") for i in range(len(nontargets))])
    return ScoredTrials(trials, np.concatenate([targets, nontargets]))


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    dims = AanDims(input_dim=8, hidden=8, latent=4, branch_hidden=8,
                   n_genders=2, n_accents=3, n_speakers=5)
    model = build_aan(dims, lam=8.0, seed=3, init_scale=0.1)
    x, gender, accent, speaker = sample_gradcheck_batch(model, batch_size=4, seed=100)
    results = gradient_errors(model, x, gender, accent, speaker)
    elapsed = time.monotonic() - started
    assert set(results) == {"encoder", "decoder", "gender_head", "accent_head",
                            "speaker_head"}
    worst = max(results.values())
    assert worst < 1e-4
    assert elapsed < 5.0
    report("criterion 1 (gradient correctness)", max_rel_err=worst, seconds=elapsed)


def test_criterion_2_grl_minmax_equivalence():
    started = time.monotonic()
    dims = AanDims(input_dim=8, hidden=8, latent=4, branch_hidden=8,
                   n_genders=2, n_accents=3, n_speakers=5)
    lr = 0.01
    worst = 0.0
    for seed in range(20):
        model = build_aan(dims, lam=8.0, seed=seed, init_scale=0.1)
        x, g, a, s = sample_gradcheck_batch(model, batch_size=4, seed=seed + 1000)
        expected = two_role_sgd_update(model, x, (g, a, s), lam=8.0, lr=lr)
        grad = AanModel(dims, model.lam, np.empty_like(model.flat))
        aan_loss_and_grads(model, grad, x, g, a, s)
        sgd_step(model.flat, grad.flat, lr)
        for name, p in model.parameters().items():
            worst = max(worst, float(np.max(np.abs(p - expected[name]))))
    elapsed = time.monotonic() - started
    assert worst < 1e-10
    assert elapsed < 5.0
    report("criterion 2 (GRL min-max equivalence)", max_param_diff=worst,
           seconds=elapsed)


def test_criterion_3_eer_oracle_equivalence():
    started = time.monotonic()

    def oracle(targets, nontargets):
        best = None
        for t in sorted(set(list(targets) + list(nontargets))):
            frr = sum(1 for s in targets if s < t) / len(targets)
            far = sum(1 for s in nontargets if s >= t) / len(nontargets)
            key = abs(far - frr)
            if best is None or key < best[0]:
                best = (key, (far + frr) / 2)
        return best[1]

    rng = np.random.default_rng(5150)
    checked = 0
    for _ in range(100):
        n_tar = int(rng.integers(1, 101))  # up to 200 trials total
        n_non = int(rng.integers(1, 101))
        targets = np.round(rng.normal(0.3, 1.0, n_tar), 2)
        nontargets = np.round(rng.normal(-0.3, 1.0, n_non), 2)
        assert compute_eer(scored(targets, nontargets)) == \
            oracle(list(targets), list(nontargets))
        checked += 1
    hand = compute_eer(scored([0.8, 0.2], [0.7, 0.1]))
    assert hand == 0.5
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report("criterion 3 (EER oracle equivalence)", score_sets=checked,
           hand_case=hand, seconds=elapsed)


def test_criterion_4_calibration_metric_properties():
    started = time.monotonic()
    rng = np.random.default_rng(424242)
    for _ in range(100):
        targets = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2),
                             int(rng.integers(2, 100)))
        nontargets = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2),
                                int(rng.integers(2, 100)))
        s = scored(targets, nontargets)
        min_cllr = compute_min_cllr(s)
        assert compute_cllr(s) >= min_cllr - 1e-9
        assert min_cllr >= -1e-9
        transformed = scored(2 * targets + 3, 2 * nontargets + 3)
        assert abs(compute_min_cllr(transformed) - min_cllr) <= 1e-9

    assert compute_cllr(scored([0.0, 0.0], [0.0, 0.0])) == 1.0

    big = np.random.default_rng(31337)
    targets = big.normal(size=10_000)
    nontargets = big.normal(size=10_000)
    same = scored(targets, nontargets)
    eer = compute_eer(same)
    min_cllr = compute_min_cllr(same)
    assert abs(eer - 0.5) <= 0.03
    assert abs(min_cllr - 1.0) <= 0.05
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report("criterion 4 (calibration metrics)", identical_dist_eer=eer,
           identical_dist_min_cllr=min_cllr, seconds=elapsed)


@pytest.mark.slow
def test_criterion_5_deidentification_direction(desk_splits, desk_run):
    train_c, valid_c, test_c = desk_splits
    model, history, train_seconds = desk_run
    started = time.monotonic()

    trials = make_trials(test_c, valid_c, n_nontarget_per_target=10, seed=5)

    def pooled_eer_pct(enroll_corpus, trial_corpus):
        scored_trials = score_trials(trials, enroll_speaker_models(enroll_corpus),
                                     trial_corpus)
        return 100.0 * compute_eer(scored_trials)

    oo = pooled_eer_pct(test_c, valid_c)
    assert oo < 5.0  # (a)

    aan1 = AnonymizationMethod("aan1", model=model)
    anon_test = anonymize_corpus(test_c, aan1)
    anon_valid = anonymize_corpus(valid_c, aan1)
    aa1 = pooled_eer_pct(anon_test, anon_valid)
    assert aa1 >= oo + 15.0  # (b)

    pool = PseudoPool(train_c.matrix())
    aan2 = AnonymizationMethod("aan2", model=model, pool=pool, top_k=10)
    aa2 = pooled_eer_pct(anonymize_corpus(test_c, aan2),
                         anonymize_corpus(valid_c, aan2))
    assert aa2 >= oo + 15.0  # (c)

    anon_train = anonymize_corpus(train_c, aan1)
    probes = {attr: probe_attack([(train_c, test_c), (anon_train, anon_test)], attr, seed=3)
              for attr in ("speaker", "gender", "accent")}
    assert probes["speaker"][1] <= 0.25 * probes["speaker"][0]  # (d)
    assert probes["gender"][1] < probes["gender"][0]
    assert probes["accent"][1] < probes["accent"][0]

    best_valid_recon = min(h.valid.recon for h in history)
    bound = 0.5 * train_c.matrix().var(axis=0).mean()
    assert best_valid_recon <= bound  # (e)

    elapsed = train_seconds + (time.monotonic() - started)
    assert elapsed < 600.0
    report("criterion 5 (de-identification direction)", oo_eer=oo, aa1_eer=aa1,
           aa2_eer=aa2,
           speaker_probe_ratio=probes["speaker"][1] / probes["speaker"][0],
           gender_probe=f"{probes['gender'][0]:.3f}->{probes['gender'][1]:.3f}",
           accent_probe=f"{probes['accent'][0]:.3f}->{probes['accent'][1]:.3f}",
           valid_recon=best_valid_recon, recon_bound=bound, seconds=elapsed)


def test_criterion_6_pipeline_identities(small_corpus_splits, small_trained_model,
                                         tmp_path, capsys):
    model = small_trained_model
    dim = model.dims.input_dim
    rng = np.random.default_rng(606)
    pool = PseudoPool(rng.normal(size=(25, dim)))
    aan1 = AnonymizationMethod("aan1", model=model)
    aan2 = AnonymizationMethod("aan2", model=model, pool=pool, top_k=7)
    for _ in range(1000):
        x = rng.normal(size=(1, dim))
        composed = aan1.apply(baseline_anonymize(pool, x, top_k=7))
        assert np.array_equal(aan2.apply(x), composed)

    # identity anonymization leaves the corpus file digest unchanged
    train_c, valid_c, test_c = small_corpus_splits
    from spkdeid.dataset import write_corpus
    source = tmp_path / "in.csv"
    target = tmp_path / "out.csv"
    write_corpus(test_c, source)
    code = cli_main(["anonymize", "--method", "identity", "--in", str(source),
                     "--out", str(target), "--out-dir", str(tmp_path)])
    assert code == 0
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert digest(source) == digest(target)

    # identity evaluation: every condition row carries the same metrics
    identity = AnonymizationMethod("identity")
    original = (train_c, test_c, valid_c)
    identity_report = evaluate_conditions(
        original, tuple(anonymize_corpus(c, identity) for c in original),
        make_trials(test_c, valid_c, n_nontarget_per_target=3, seed=9), seed=9)
    rows = {}
    for row in identity_report.rows:
        rows.setdefault(row.gender, set()).add(
            (row.eer_pct, row.min_cllr, row.cllr, row.probe_speaker,
             row.probe_gender, row.probe_accent))
    assert all(len(values) == 1 for values in rows.values())
    capsys.readouterr()
    report("criterion 6 (pipeline identities)", composition_checks=1000,
           identity_digest="unchanged", identity_rows="equal")


@pytest.mark.slow
def test_criterion_7_end_to_end_determinism(tmp_path):
    config = {
        "seed": 1234,
        "dataset_tag": "synth",
        "corpus": {"n_speakers": 10, "n_genders": 2, "n_accents": 3,
                   "utterances_per_speaker": 9, "dim": 16,
                   "attribute_strength": {"speaker": 0.6, "gender": 2.0,
                                          "accent": 2.0},
                   "noise_sigma": 0.2},
        "split": {"n_heldout_per_speaker": 2},
        "model": {"hidden": 32, "latent": 4, "branch_hidden": 16},
        "train": {"lambda": 8.0, "epochs": 40, "batch_size": 16, "lr": 0.005},
        "anonymize": {"method": "aan1", "top_k": 5},
        "trials": {"n_nontarget_per_target": 3},
    }

    def run(tag):
        out = tmp_path / tag
        config_path = tmp_path / f"{tag}.json"
        config_path.write_text(json.dumps(dict(config, out_dir=str(out))))
        for command in (["gen-data"], ["train"],
                        ["anonymize", "--method", "aan1",
                         "--model", str(out / "model.aan"),
                         "--in", str(out / "test.csv"),
                         "--out", str(out / "anon_test.csv")],
                        ["evaluate"]):
            assert cli_main(command + ["--config", str(config_path)]) == 0
        names = ["train.csv", "valid.csv", "test.csv", "model.aan",
                 "anon_test.csv", "report.csv", "trials.csv", "history.csv"]
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in names}

    first = run("a")
    second = run("b")
    assert first == second
    report("criterion 7 (end-to-end determinism)", artifacts=len(first))


@pytest.mark.slow
def test_criterion_8_lambda_sweep_monotonicity(desk_splits, desk_run):
    train_c, valid_c, _ = desk_splits
    _, lam8_history, _ = desk_run

    finals = {}
    for lam in (0.0, 1.0):
        model = build_aan(desk_dims(train_c, ModelConfig()), lam, seed=DESK_MODEL_SEED)
        _, history = train(model, train_c, valid_c,
                           TrainConfig(lam=lam, seed=DESK_TRAIN_SEED))
        finals[lam] = history[-1]
    finals[8.0] = lam8_history[-1]

    recon = [finals[lam].valid.recon for lam in (0.0, 1.0, 8.0)]
    speaker_acc = [finals[lam].valid_speaker_acc for lam in (0.0, 1.0, 8.0)]
    assert recon[0] <= recon[1] <= recon[2]
    assert speaker_acc[0] >= speaker_acc[1] >= speaker_acc[2]
    report("criterion 8 (lambda sweep)",
           recon="/".join(f"{v:.3f}" for v in recon),
           speaker_acc="/".join(f"{v:.3f}" for v in speaker_acc))
