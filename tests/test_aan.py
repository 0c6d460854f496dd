import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spkdeid import aan as aan_module
from spkdeid.aan import (
    CHECKPOINT_HEADER_SIZE,
    GROUPS,
    AanDims,
    AanModel,
    EpochStats,
    LossBreakdown,
    TrainConfig,
    VOXCELEB_DIMS,
    aan_forward,
    aan_gradient_check,
    aan_loss_and_grads,
    build_aan,
    desk_dims,
    evaluate_model,
    load_model,
    sample_gradcheck_batch,
    save_model,
    train,
)
from spkdeid.dataset import (AttributeStrength, CorpusSpec, generate_corpus, make_corpus,
                             split_corpus)
from spkdeid.neural import DenseLayer, DivergenceError, mse_loss, softmax_cross_entropy
from test_neural import per_tensor_adam

TINY_DIMS = AanDims(input_dim=8, hidden=8, latent=4, branch_hidden=8,
                    n_genders=2, n_accents=3, n_speakers=5)


def tiny_model(lam=8.0, seed=1, init_scale=0.1):
    return build_aan(TINY_DIMS, lam, seed=seed, init_scale=init_scale)


def tiny_batch(model, seed=0, batch=4):
    return sample_gradcheck_batch(model, batch_size=batch, seed=seed)


def zero_out(model):
    for p in model.parameters().values():
        p[...] = 0.0
    return model


class TestBuild:
    def test_voxceleb_scale_head_widths(self):
        model = build_aan(VOXCELEB_DIMS, 8.0, seed=0)
        assert model.speaker_head[-1].weights.shape[0] == 1251
        assert model.accent_head[-1].weights.shape[0] == 30
        assert model.gender_head[-1].weights.shape[0] == 2

    def test_same_seed_identical(self):
        a = build_aan(TINY_DIMS, 8.0, seed=42)
        b = build_aan(TINY_DIMS, 8.0, seed=42)
        for name, p in a.parameters().items():
            assert np.array_equal(p, b.parameters()[name])

    def test_four_dense_autoencoder_layers(self):
        model = tiny_model()
        assert len(model.encoder) + len(model.decoder) == 4

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError, match="latent"):
            build_aan(AanDims(8, 8, 0, 8, 2, 3, 5), 8.0, seed=0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            build_aan(TINY_DIMS, -1.0, seed=0)


class TestForward:
    def test_output_shapes(self):
        model = tiny_model()
        out = aan_forward(model, np.zeros((3, 8)))
        assert out.reconstruction.shape == (3, 8)
        assert out.latent.shape == (3, 4)
        assert out.gender_logits.shape == (3, 2)
        assert out.accent_logits.shape == (3, 3)
        assert out.speaker_logits.shape == (3, 5)

    def test_zero_weights_give_bias_outputs(self):
        model = zero_out(tiny_model())
        model.decoder[-1].bias[:] = np.arange(8.0)
        model.gender_head[-1].bias[:] = [1.0, 2.0]
        out = aan_forward(model, np.random.default_rng(0).normal(size=(2, 8)))
        assert np.array_equal(out.reconstruction, np.tile(np.arange(8.0), (2, 1)))
        assert np.array_equal(out.gender_logits, [[1.0, 2.0], [1.0, 2.0]])

    def test_duplicate_rows_give_duplicate_outputs(self):
        model = tiny_model()
        x = np.random.default_rng(3).normal(size=(1, 8))
        out = aan_forward(model, np.vstack([x, x]))
        assert np.array_equal(out.reconstruction[0], out.reconstruction[1])
        assert np.array_equal(out.speaker_logits[0], out.speaker_logits[1])


class TestLossAndGrads:
    def test_lambda_zero_detaches_branches_from_encoder(self):
        # oracle: hand-rolled autoencoder-only backprop with the same shapes
        model = tiny_model(lam=0.0)
        x, g, a, s = tiny_batch(model)
        aan_loss_and_grads(model, x, g, a, s)
        grads = model.gradients()

        h1 = np.tanh(x @ model.encoder[0].weights.T + model.encoder[0].bias)
        latent = np.tanh(h1 @ model.encoder[1].weights.T + model.encoder[1].bias)
        h2 = np.tanh(latent @ model.decoder[0].weights.T + model.decoder[0].bias)
        recon = h2 @ model.decoder[1].weights.T + model.decoder[1].bias
        d_recon = 2.0 * (recon - x) / recon.size
        d_h2 = d_recon @ model.decoder[1].weights * (1 - h2 ** 2)
        d_latent = d_h2 @ model.decoder[0].weights
        d_pre2 = d_latent * (1 - latent ** 2)
        d_h1 = d_pre2 @ model.encoder[1].weights * (1 - h1 ** 2)
        np.testing.assert_array_equal(grads["enc1.w"], d_pre2.T @ h1)
        np.testing.assert_array_equal(grads["enc0.w"], d_h1.T @ x)

    def test_duplicated_batch_keeps_losses(self):
        model = tiny_model()
        x, g, a, s = tiny_batch(model)
        once = aan_loss_and_grads(model, x, g, a, s)
        twice = aan_loss_and_grads(model, np.vstack([x, x]),
                                   np.concatenate([g, g]),
                                   np.concatenate([a, a]),
                                   np.concatenate([s, s]))
        assert once.recon == pytest.approx(twice.recon, rel=1e-12)
        assert once.speaker == pytest.approx(twice.speaker, rel=1e-12)
        assert once.gender == pytest.approx(twice.gender, rel=1e-12)
        assert once.accent == pytest.approx(twice.accent, rel=1e-12)

    def test_gradient_check_all_groups(self):
        model = tiny_model(lam=8.0, seed=1)
        x, g, a, s = tiny_batch(model, seed=0)
        results = aan_gradient_check(model, x, g, a, s, eps=1e-5)
        assert set(results) == {"encoder", "decoder", "gender_head",
                                "accent_head", "speaker_head"}
        assert max(results.values()) < 1e-4

    def test_out_of_range_labels_rejected(self):
        model = tiny_model()
        x, g, a, s = tiny_batch(model)
        with pytest.raises(ValueError, match="labels"):
            aan_loss_and_grads(model, x, g, a, np.full_like(s, 99))


class TestGradientBuffer:
    def test_flat_grad_gets_the_bits_of_per_layer_arrays(self):
        model = tiny_model()
        x, g, a, s = tiny_batch(model, batch=5)
        ref = LayerListModel(model)
        expected = aan_loss_and_grads(ref, x, g, a, s)
        model.grad[...] = np.nan
        assert aan_loss_and_grads(model, x, g, a, s) == expected
        assert model.grad.tobytes() == np.concatenate(
            [grad.ravel() for grad in ref.gradients().values()]).tobytes()
        grads = model.gradients()
        assert list(grads) == list(model.parameters())
        for name, grad in grads.items():
            assert np.shares_memory(grad, model.grad)
            assert not np.shares_memory(ref.gradients()[name], model.grad)


def reference_evaluate(model, x, g, a, s):
    """evaluate_model from the plain kernels: forward, losses, argmax."""
    out = aan_forward(model, x)
    recon, _ = mse_loss(out.reconstruction, x)
    losses, accs = [recon], []
    for logits, labels in ((out.gender_logits, g), (out.accent_logits, a),
                           (out.speaker_logits, s)):
        losses.append(softmax_cross_entropy(logits, labels)[0])
        accs.append(float((logits.argmax(axis=1) == labels).mean()))
    return LossBreakdown(*losses), tuple(accs)


class TestEvaluateModel:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_plain_kernels_exactly(self, data):
        sizes = st.integers(min_value=1, max_value=9)
        dims = AanDims(input_dim=data.draw(sizes), hidden=data.draw(sizes),
                       latent=data.draw(sizes), branch_hidden=data.draw(sizes),
                       n_genders=data.draw(sizes), n_accents=data.draw(sizes),
                       n_speakers=data.draw(st.integers(min_value=1, max_value=40)))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        case = data.draw(st.sampled_from(["random", "tie", "large"]))
        model = build_aan(dims, lam=1.0, seed=seed)
        rng = np.random.default_rng(seed)
        for attr, _ in GROUPS[2:]:
            last = getattr(model, attr)[-1]
            if case == "tie":
                # equal logits in every row: the argmax tie goes to index 0
                last.weights[...] = 0.0
                last.bias[...] = rng.normal()
            elif case == "large":
                last.weights *= 1e6
                last.bias[...] = rng.normal(scale=1e8, size=last.bias.shape)
        rows = data.draw(st.integers(min_value=1, max_value=12))
        x = rng.normal(size=(rows, dims.input_dim))
        g = rng.integers(0, dims.n_genders, rows)
        a = rng.integers(0, dims.n_accents, rows)
        s = rng.integers(0, dims.n_speakers, rows)
        if case == "tie":
            g[0] = a[0] = s[0] = 0
        losses, accs = evaluate_model(model, x, g, a, s)
        ref_losses, ref_accs = reference_evaluate(model, x, g, a, s)
        assert losses == ref_losses
        assert accs == ref_accs
        if case == "tie":
            assert accs == tuple(float((labels == 0).mean()) for labels in (g, a, s))

    def test_peak_memory_is_about_one_logits_matrix(self):
        # the speaker logits dominate: 600 x 1500 float64 is 7.2 MB
        dims = AanDims(input_dim=8, hidden=8, latent=4, branch_hidden=8,
                       n_genders=2, n_accents=3, n_speakers=1500)
        model = build_aan(dims, lam=1.0, seed=2)
        rng = np.random.default_rng(2)
        rows = 600
        x = rng.normal(size=(rows, dims.input_dim))
        labels = [rng.integers(0, n, rows) for n in (2, 3, dims.n_speakers)]
        tracemalloc.start()
        try:
            evaluate_model(model, x, *labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * rows * dims.n_speakers * 8


class TestGrlEquivalence:
    def test_sgd_step_matches_two_role_update(self):
        # oracle: independent forward/backward in plain numpy computing the
        # two-role gradients (heads minimize their own loss, encoder descends
        # recon - lam * branch losses, decoder descends recon only)
        lr = 0.01
        for seed in range(20):
            model = tiny_model(lam=8.0, seed=seed)
            x, g, a, s = tiny_batch(model, seed=seed + 1000)
            reference = two_role_sgd_update(model, x, (g, a, s), lam=8.0, lr=lr)

            from spkdeid.neural import sgd_step
            aan_loss_and_grads(model, x, g, a, s)
            sgd_step(model.flat, model.grad, lr)
            for name, p in model.parameters().items():
                np.testing.assert_allclose(p, reference[name], rtol=0, atol=1e-10)


def two_role_sgd_update(model, x, labels, lam, lr):
    """Expected parameters after one SGD step, computed from scratch."""
    w = {name: p.copy() for name, p in model.parameters().items()}
    n = x.shape[0]

    h1_pre = x @ w["enc0.w"].T + w["enc0.b"]
    h1 = np.tanh(h1_pre)
    lat_pre = h1 @ w["enc1.w"].T + w["enc1.b"]
    lat = np.tanh(lat_pre)
    h2_pre = lat @ w["dec0.w"].T + w["dec0.b"]
    h2 = np.tanh(h2_pre)
    recon = h2 @ w["dec1.w"].T + w["dec1.b"]

    grads = {}

    def encoder_grads(d_latent):
        d_lat_pre = d_latent * (1 - lat ** 2)
        d_h1 = d_lat_pre @ w["enc1.w"]
        d_h1_pre = d_h1 * (1 - h1 ** 2)
        return {"enc1.w": d_lat_pre.T @ h1, "enc1.b": d_lat_pre.sum(0),
                "enc0.w": d_h1_pre.T @ x, "enc0.b": d_h1_pre.sum(0)}

    # autoencoder objective: decoder grads plus its pull on the encoder
    d_recon = 2.0 * (recon - x) / recon.size
    grads["dec1.w"] = d_recon.T @ h2
    grads["dec1.b"] = d_recon.sum(0)
    d_h2_pre = (d_recon @ w["dec1.w"]) * (1 - h2 ** 2)
    grads["dec0.w"] = d_h2_pre.T @ lat
    grads["dec0.b"] = d_h2_pre.sum(0)
    enc_from_recon = encoder_grads(d_h2_pre @ w["dec0.w"])

    # branch objectives: head grads plus their reversed pull on the encoder
    enc_from_branches = {k: np.zeros_like(v) for k, v in enc_from_recon.items()}
    for prefix, y in zip(("gender", "accent", "speaker"), labels):
        b_pre = lat @ w[f"{prefix}0.w"].T + w[f"{prefix}0.b"]
        b_hidden = np.maximum(b_pre, 0.0)
        logits = b_hidden @ w[f"{prefix}1.w"].T + w[f"{prefix}1.b"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        d_logits = probs.copy()
        d_logits[np.arange(n), y] -= 1.0
        d_logits /= n
        grads[f"{prefix}1.w"] = d_logits.T @ b_hidden
        grads[f"{prefix}1.b"] = d_logits.sum(0)
        d_b_pre = (d_logits @ w[f"{prefix}1.w"]) * (b_pre > 0)
        grads[f"{prefix}0.w"] = d_b_pre.T @ lat
        grads[f"{prefix}0.b"] = d_b_pre.sum(0)
        for key, value in encoder_grads(d_b_pre @ w[f"{prefix}0.w"]).items():
            enc_from_branches[key] = enc_from_branches[key] + value

    for key in enc_from_recon:
        grads[key] = enc_from_recon[key] - lam * enc_from_branches[key]
    return {name: w[name] - lr * grads[name] for name in w}


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(seed=9)
        model.lam = 3.5
        path = tmp_path / "model.aan"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.lam == 3.5
        assert loaded.dims == model.dims
        for name, p in model.parameters().items():
            assert np.array_equal(p, loaded.parameters()[name])

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.aan"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.aan"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.aan"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    def test_short_header_rejected_naming_path(self, tmp_path):
        path = tmp_path / "short.aan"
        path.write_bytes(b"AAN1")
        with pytest.raises(ValueError, match="truncated checkpoint header") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("dims, message", [
        ((2 ** 32 - 1,) * 7, "truncated"),
        ((8, 8, 0, 8, 2, 3, 5), "latent"),
    ])
    def test_bad_header_dims_rejected_before_allocation(self, tmp_path, monkeypatch,
                                                        dims, message):
        def no_build(*args, **kwargs):
            raise AssertionError("parameters allocated before the size check")

        monkeypatch.setattr(aan_module, "build_aan", no_build)
        path = tmp_path / "huge.aan"
        path.write_bytes(b"AAN1" + struct.pack("<8Id", 1, *dims, 1.0) + bytes(64))
        with pytest.raises(ValueError, match=message) as info:
            load_model(path)
        assert str(path) in str(info.value)


class TestFlatParameters:
    def test_layers_view_flat_in_checkpoint_order(self):
        model = tiny_model()
        params = model.parameters()
        assert model.flat.size == sum(p.size for p in params.values())
        offset = 0
        for p in params.values():
            assert np.shares_memory(p, model.flat)
            assert np.array_equal(p.ravel(), model.flat[offset:offset + p.size])
            offset += p.size

    def test_write_through_parameters_shows_in_flat(self):
        model = tiny_model()
        model.parameters()["gender1.b"][:] = [7.0, -7.0]
        model.encoder[0].weights[0, 0] = 3.5
        assert model.flat[0] == 3.5
        # a snapshot copies flat, so it sees the write only if flat holds it
        sizes = [p.size for p in model.parameters().values()]
        start = sum(sizes[:list(model.parameters()).index("gender1.b")])
        assert np.array_equal(model.snapshot()[start:start + 2], [7.0, -7.0])

    def test_group_params_partition_parameters(self):
        model = tiny_model()
        merged = {}
        for attr, _ in GROUPS:
            merged.update(model.group_params(attr))
        params = model.parameters()
        assert list(merged) == list(params)
        for name, p in params.items():
            assert np.shares_memory(merged[name], p)

    def test_snapshot_restore_round_trip(self):
        model = tiny_model()
        original = model.flat.copy()
        snap = model.snapshot()
        assert not np.shares_memory(snap, model.flat)
        model.flat[...] = 0.0
        assert np.array_equal(snap, original)
        model.restore(snap)
        assert np.array_equal(model.flat, original)

    def test_save_bytes_are_header_plus_flat(self, tmp_path):
        model = tiny_model(seed=4)
        path = tmp_path / "model.aan"
        save_model(model, path)
        raw = path.read_bytes()
        assert len(raw) == CHECKPOINT_HEADER_SIZE + 8 * model.flat.size
        assert raw[CHECKPOINT_HEADER_SIZE:] == model.flat.astype("<f8").tobytes()

    def test_load_fills_flat_and_layers_view_it(self, tmp_path):
        model = tiny_model(seed=4)
        path = tmp_path / "model.aan"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.flat, model.flat)
        for layers in loaded.groups().values():
            for layer in layers:
                assert np.shares_memory(layer.weights, loaded.flat)
                assert np.shares_memory(layer.bias, loaded.flat)
        loaded.speaker_head[1].bias[:] = 9.0
        assert np.array_equal(loaded.flat[-loaded.dims.n_speakers:],
                              np.full(loaded.dims.n_speakers, 9.0))


def tiny_corpus(seed=3):
    spec = CorpusSpec(n_speakers=5, n_genders=2, n_accents=3,
                      utterances_per_speaker=9, dim=8,
                      attribute_strength=AttributeStrength(1.0, 1.0, 1.0),
                      noise_sigma=0.2, seed=seed)
    return split_corpus(generate_corpus(spec), 2)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        train_c, valid_c, _ = tiny_corpus()
        model = build_aan(desk_dims(train_c, hidden=8, latent=4, branch_hidden=4),
                          8.0, seed=0)
        before = model.snapshot()
        _, history = train(model, train_c, valid_c,
                           TrainConfig(epochs=1, lr=0.0, seed=0))
        assert len(history) == 1
        assert np.array_equal(model.flat, before)

    def test_deterministic_under_seed(self):
        train_c, valid_c, _ = tiny_corpus()
        config = TrainConfig(lam=2.0, epochs=4, batch_size=8, seed=5)

        def run():
            model = build_aan(desk_dims(train_c, hidden=8, latent=4,
                                        branch_hidden=4), 2.0, seed=1)
            return train(model, train_c, valid_c, config)

        model_a, hist_a = run()
        model_b, hist_b = run()
        assert hist_a == hist_b
        for name, p in model_a.parameters().items():
            assert np.array_equal(p, model_b.parameters()[name])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_returns_last_good_checkpoint(self):
        train_c, valid_c, _ = tiny_corpus()
        model = build_aan(desk_dims(train_c, hidden=8, latent=4, branch_hidden=4),
                          8.0, seed=0)
        model_out, history = train(model, train_c, valid_c,
                                   TrainConfig(epochs=50, lr=1e5, optimizer="sgd",
                                               seed=0))
        assert len(history) < 50
        for p in model_out.parameters().values():
            assert np.all(np.isfinite(p))

    def test_history_shape(self):
        train_c, valid_c, _ = tiny_corpus()
        model = build_aan(desk_dims(train_c, hidden=8, latent=4, branch_hidden=4),
                          1.0, seed=0)
        _, history = train(model, train_c, valid_c,
                           TrainConfig(lam=1.0, epochs=3, batch_size=8, seed=2))
        assert [h.epoch for h in history] == [1, 2, 3]
        for h in history:
            assert h.train.recon >= 0 and h.valid.recon >= 0
            assert 0 <= h.valid_speaker_acc <= 1

    def test_matches_per_layer_reference_loop(self):
        # oracle: the training loop over separate per-layer arrays and a
        # per-tensor Adam; the flat-vector loop must agree bit for bit
        train_c, valid_c, _ = tiny_corpus()
        dims = desk_dims(train_c, hidden=8, latent=4, branch_hidden=4)
        config = TrainConfig(lam=2.0, epochs=5, batch_size=7, lr=0.02, beta1=0.8,
                             beta2=0.99, eps=1e-6, seed=3)
        expected_params, expected_history = reference_train(
            build_aan(dims, 2.0, seed=6), train_c, valid_c, config)
        model, history = train(build_aan(dims, 2.0, seed=6), train_c, valid_c, config)
        assert len(history) == len(expected_history) == 5
        for got, want in zip(history, expected_history):
            assert got.epoch == want.epoch
            assert np.array_equal(history_values(got), history_values(want))
        params = model.parameters()
        assert list(params) == list(expected_params)
        for name, p in params.items():
            assert np.array_equal(p, expected_params[name]), name

    def test_corpus_model_dim_mismatch(self):
        train_c, valid_c, _ = tiny_corpus()
        model = tiny_model()  # input_dim 8 matches, speaker count does not
        bad = build_aan(AanDims(6, 8, 4, 4, 2, 3, 5), 1.0, seed=0)
        with pytest.raises(ValueError, match="dim"):
            train(bad, train_c, valid_c, TrainConfig(epochs=1, seed=0))

    @pytest.mark.parametrize("attribute, field", [
        ("speaker", "speaker_id"), ("gender", "gender"), ("accent", "accent")])
    def test_valid_vocabulary_must_match_train(self, attribute, field):
        # a label renamed in the valid file gives it its own vocabulary, with
        # every index in range but shifted against the training corpus's
        train_c, valid_c, _ = tiny_corpus()
        first = min(getattr(valid_c, f"{attribute}_vocab"))
        renamed = make_corpus([dataclasses.replace(e, **{field: "zz"})
                               if getattr(e, field) == first else e
                               for e in valid_c.embeddings], "valid")
        model = build_aan(desk_dims(train_c, hidden=8, latent=4, branch_hidden=4),
                          1.0, seed=0)
        with pytest.raises(ValueError, match=f"{attribute} vocabularies differ"):
            train(model, train_c, renamed, TrainConfig(epochs=1, seed=0))

    def test_epochs_zero_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0).validate()


class LayerListModel:
    """The AAN with separate arrays per layer and no flat vector."""

    groups = AanModel.groups
    parameters = AanModel.parameters
    gradients = AanModel.gradients

    def __init__(self, model: AanModel):
        for attr, _ in GROUPS:
            setattr(self, attr, [DenseLayer(layer.weights.copy(), layer.bias.copy(),
                                            layer.activation)
                                 for layer in getattr(model, attr)])
        self.lam = model.lam
        self.dims = model.dims


def reference_train(model, train_c, valid_c, config):
    """Per-layer, per-tensor-Adam training; returns (best parameters, history)."""
    ref = LayerListModel(model)
    ref.lam = config.lam
    x = train_c.matrix()
    labels = train_c.label_indices()
    x_valid = valid_c.matrix()
    valid_labels = valid_c.label_indices()
    params = ref.parameters()
    state = {"t": 0, "m": {k: np.zeros_like(p) for k, p in params.items()},
             "v": {k: np.zeros_like(p) for k, p in params.items()}}
    rng = np.random.default_rng(config.seed)
    best_recon = np.inf
    best = {k: p.copy() for k, p in params.items()}
    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(x))
        sums = np.zeros(4)
        for start in range(0, len(x), config.batch_size):
            idx = order[start:start + config.batch_size]
            losses = aan_loss_and_grads(ref, x[idx], *(y[idx] for y in labels))
            per_tensor_adam(params, ref.gradients(), state, config.lr, config.beta1,
                            config.beta2, config.eps)
            sums += len(idx) * np.array([losses.recon, losses.gender, losses.accent,
                                         losses.speaker])
        train_mean = LossBreakdown(*(float(v) for v in sums / len(x)))
        valid_mean, accs = evaluate_model(ref, x_valid, *valid_labels)
        history.append(EpochStats(epoch, train_mean, valid_mean, *accs))
        if valid_mean.recon < best_recon:
            best_recon = valid_mean.recon
            best = {k: p.copy() for k, p in params.items()}
    return best, history


def history_values(stats):
    return np.array([stats.train.recon, stats.train.gender, stats.train.accent,
                     stats.train.speaker, stats.valid.recon, stats.valid.gender,
                     stats.valid.accent, stats.valid.speaker, stats.valid_gender_acc,
                     stats.valid_accent_acc, stats.valid_speaker_acc])


@pytest.mark.slow
class TestTrainDynamics:
    def test_pure_autoencoder_converges_monotonically(self, desk_splits):
        # lam=0 sanity run: reconstruction collapses by >= 90% and its
        # 10-epoch moving average never increases
        train_c, valid_c, _ = desk_splits
        model = build_aan(desk_dims(train_c), 0.0, seed=11)
        _, history = train(model, train_c, valid_c,
                           TrainConfig(lam=0.0, epochs=200, lr=1e-3, seed=13))
        assert history[-1].valid.recon <= 0.1 * history[0].valid.recon
        recons = np.array([h.train.recon for h in history])
        moving_average = np.convolve(recons, np.ones(10) / 10, "valid")
        assert np.all(np.diff(moving_average) <= 1e-12)

    def test_adversarial_run_suppresses_speaker_head(self, desk_splits):
        # a strongly mixed lam=8 run drives the co-trained speaker head to
        # roughly chance accuracy (the step noise at this rate prevents the
        # encoder/head pursuit that would fake high branch losses)
        train_c, valid_c, _ = desk_splits
        model = build_aan(desk_dims(train_c), 8.0, seed=11)
        _, history = train(model, train_c, valid_c,
                           TrainConfig(lam=8.0, epochs=1500, lr=0.02, seed=14))
        chance = 1.0 / model.dims.n_speakers
        tail = history[-150:]
        tail_accuracy = np.mean([h.valid_speaker_acc for h in tail])
        assert tail_accuracy <= 2 * chance

    def test_default_run_meets_reconstruction_bound(self, desk_splits, desk_run):
        train_c, _, _ = desk_splits
        _, history, _ = desk_run
        best = min(h.valid.recon for h in history)
        bound = 0.5 * train_c.matrix().var(axis=0).mean()
        assert best <= bound
