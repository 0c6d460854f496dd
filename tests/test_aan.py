import dataclasses
import hashlib
import struct
import tempfile
from pathlib import Path

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
from spkdeid.dataset import (AttributeStrength, Corpus, CorpusSpec, generate_corpus,
                             make_corpus, split_corpus)
from spkdeid.neural import DenseLayer, DivergenceError, mse_loss, softmax_cross_entropy
from conftest import traced_peak
from test_neural import per_tensor_adam

TINY_DIMS = AanDims(input_dim=8, hidden=8, latent=4, branch_hidden=8,
                    n_genders=2, n_accents=3, n_speakers=5)


def tiny_model(lam=8.0, seed=1, init_scale=0.1):
    return build_aan(TINY_DIMS, lam, seed=seed, init_scale=init_scale)


def tiny_batch(model, seed=0, batch=4):
    return sample_gradcheck_batch(model, batch_size=batch, seed=seed)


def gradient_target(model):
    """A gradient target for ``model``, as ``train`` builds it: an
    ``AanModel`` on a new vector, here filled with NaN."""
    return AanModel(model.dims, model.lam, np.full_like(model.flat, np.nan))


# what a layer and a model hold: no gradient state
LAYER_FIELDS = {"weights", "bias", "activation"}
MODEL_FIELDS = {"dims", "lam", "flat"} | {attr for attr, _ in GROUPS}


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
        grad = gradient_target(model)
        aan_loss_and_grads(model, grad, x, g, a, s)
        grads = grad.parameters()

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
        grad = gradient_target(model)
        once = aan_loss_and_grads(model, grad, x, g, a, s)
        twice = aan_loss_and_grads(model, grad, np.vstack([x, x]),
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
        results = aan_gradient_check(model, x, g, a, s)
        assert set(results) == {"encoder", "decoder", "gender_head",
                                "accent_head", "speaker_head"}
        assert max(results.values()) < 1e-4

    @pytest.mark.parametrize("seed", [1, 5, 8])
    def test_gradient_check_matches_per_array_oracle(self, seed):
        # the flat-slice check perturbs the same elements in the same order
        # as a walk over name-keyed arrays, so the errors agree bit for bit
        # (compared with the oracle, not pinned, since roundoff follows the BLAS)
        model = tiny_model(seed=seed)
        x, g, a, s = tiny_batch(model, seed=seed)
        before = model.flat.copy()
        results = aan_gradient_check(model, x, g, a, s)
        expected = oracle_gradient_check(LayerListModel(tiny_model(seed=seed)), x, g, a, s)
        assert list(results) == list(expected) == [attr for attr, _ in GROUPS]
        assert [float(v).hex() for v in results.values()] == \
            [float(v).hex() for v in expected.values()]
        assert model.flat.tobytes() == before.tobytes()

    def test_out_of_range_labels_rejected(self):
        model = tiny_model()
        x, g, a, s = tiny_batch(model)
        with pytest.raises(ValueError, match="labels"):
            aan_loss_and_grads(model, gradient_target(model), x, g, a, np.full_like(s, 99))


class TestGradientBuffer:
    def test_flat_grad_gets_the_bits_of_per_layer_arrays(self):
        model = tiny_model()
        x, g, a, s = tiny_batch(model, batch=5)
        ref, ref_grad = LayerListModel(model), LayerListModel(model)
        expected = aan_loss_and_grads(ref, ref_grad, x, g, a, s)
        grad = gradient_target(model)
        assert aan_loss_and_grads(model, grad, x, g, a, s) == expected
        assert grad.flat.tobytes() == np.concatenate(
            [array.ravel() for array in ref_grad.parameters().values()]).tobytes()
        grads = grad.parameters()
        assert list(grads) == list(model.parameters())
        for name, array in grads.items():
            assert np.shares_memory(array, grad.flat)
            assert not np.shares_memory(ref_grad.parameters()[name], grad.flat)

    def test_gradient_views_never_alias_flat(self, monkeypatch):
        # train and the gradient check each build one target per call, whose
        # views lie in a vector of their own at the offsets of the model's
        # parameters in flat
        targets = []

        def recording(model, grad, *batch):
            targets.append(grad)
            return loss_and_grads(model, grad, *batch)

        loss_and_grads = aan_module.aan_loss_and_grads
        monkeypatch.setattr(aan_module, "aan_loss_and_grads", recording)
        train_c, valid_c, _ = tiny_corpus()
        trained = build_aan(desk_dims(train_c, hidden=8, latent=4, branch_hidden=4), 1.0, 0)
        checked = tiny_model()
        runs = ((trained, lambda: train(trained, train_c, valid_c, TrainConfig(epochs=2, seed=0))),
                (checked, lambda: aan_gradient_check(checked, *tiny_batch(checked))))
        for model, run in runs:
            targets.clear()
            run()
            assert len(targets) > 1 and all(grad is targets[0] for grad in targets)
            grad = targets[0]
            assert grad.flat.shape == model.flat.shape and grad.flat.dtype == np.float64
            assert not np.shares_memory(grad.flat, model.flat)
            offset = 0
            for param, array in zip(model.parameters().values(),
                                    grad.parameters().values()):
                stop = offset + param.size
                assert np.shares_memory(param, model.flat[offset:stop])
                assert array.shape == param.shape
                assert np.shares_memory(array, grad.flat[offset:stop])
                assert not np.shares_memory(array, model.flat)
                offset = stop
            assert offset == model.flat.size

    def test_backward_leaves_flat_unchanged(self):
        model = tiny_model()
        x, g, a, s = tiny_batch(model, batch=5)
        before = model.flat.copy()
        aan_loss_and_grads(model, gradient_target(model), x, g, a, s)
        assert model.flat.tobytes() == before.tobytes()
        assert all(set(vars(layer)) == LAYER_FIELDS for layer in model.layers())

    def test_two_gradient_vectors_get_equal_bits(self):
        model = tiny_model()
        x, g, a, s = tiny_batch(model, batch=5)
        first, second = gradient_target(model), gradient_target(model)
        losses = aan_loss_and_grads(model, first, x, g, a, s)
        kept = first.flat.copy()
        assert aan_loss_and_grads(model, second, x, g, a, s) == losses
        assert second.flat.tobytes() == kept.tobytes() == first.flat.tobytes()
        assert not np.isnan(kept).any()

    def test_forward_only_models_hold_no_gradients(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.aan"
        save_model(model, path)
        loaded = load_model(path)
        x, g, a, s = tiny_batch(loaded)
        evaluate_model(loaded, x, g, a, s)
        for m in (model, loaded):
            assert set(vars(m)) == MODEL_FIELDS
            assert all(set(vars(layer)) == LAYER_FIELDS for layer in m.layers())


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
        _, peak = traced_peak(lambda: evaluate_model(model, x, *labels))
        assert peak <= 1.5 * rows * dims.n_speakers * 8

    @staticmethod
    def blocked_reference(model, x, g, a, s, block):
        """evaluate_model rebuilt block by block from ``aan_forward`` and
        one-row ``softmax_cross_entropy`` calls, each mean taken once over
        the full per-row arrays as ``mse_loss`` and ``softmax_cross_entropy``
        reduce them."""
        squared = np.empty(x.shape)
        log_probs = np.empty((3, len(x)))
        hits = np.empty((3, len(x)), dtype=bool)
        for start in range(0, len(x), block):
            out = aan_forward(model, x[start:start + block])
            squared[start:start + block] = (out.reconstruction - x[start:start + block]) ** 2
            for i, (logits, labels) in enumerate(((out.gender_logits, g), (out.accent_logits, a),
                                                  (out.speaker_logits, s))):
                labels = labels[start:start + block]
                hits[i, start:start + block] = logits.argmax(axis=1) == labels
                for j in range(len(logits)):
                    loss, _ = softmax_cross_entropy(logits[j:j + 1], labels[j:j + 1])
                    log_probs[i, start + j] = -loss
        return (LossBreakdown(float(squared.mean()), *(float(-row.mean()) for row in log_probs)),
                tuple(float(row.mean()) for row in hits))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_blocks_match_blocked_reference_exactly(self, data):
        sizes = st.integers(min_value=1, max_value=9)
        dims = AanDims(input_dim=data.draw(sizes), hidden=data.draw(sizes),
                       latent=data.draw(sizes), branch_hidden=data.draw(sizes),
                       n_genders=data.draw(sizes), n_accents=data.draw(sizes),
                       n_speakers=data.draw(st.integers(min_value=1, max_value=40)))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        budget = data.draw(st.sampled_from([1, 7, 50, 300]))
        block = max(1, budget // max(vars(dims).values()))
        rows = data.draw(st.sampled_from([1, block - 1, block, block + 1, 3 * block + 2,
                                          40]).filter(lambda n: n >= 1))
        model = build_aan(dims, lam=1.0, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, dims.input_dim))
        labels = [rng.integers(0, n, rows) for n in (dims.n_genders, dims.n_accents,
                                                     dims.n_speakers)]
        calls = []

        def spy(model, x):
            calls.append(len(x))
            return aan_forward(model, x)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aan_module, "_BLOCK_ELEMENTS", budget)
            patch.setattr(aan_module, "aan_forward", spy)
            losses, accs = evaluate_model(model, x, *labels)
        assert calls == [min(block, rows - start) for start in range(0, rows, block)]
        ref_losses, ref_accs = self.blocked_reference(model, x, *labels, block)
        assert (np.array(dataclasses.astuple(losses)).tobytes()
                == np.array(dataclasses.astuple(ref_losses)).tobytes())
        assert accs == ref_accs

    def test_peak_memory_does_not_grow_with_rows_times_speakers(self):
        # one speaker logits matrix of 6000 x 1500 float64 would be 72 MB
        dims = AanDims(input_dim=8, hidden=8, latent=4, branch_hidden=8,
                       n_genders=2, n_accents=3, n_speakers=1500)
        model = build_aan(dims, lam=1.0, seed=3)
        rng = np.random.default_rng(3)
        rows = 6000
        x = rng.normal(size=(rows, dims.input_dim))
        labels = [rng.integers(0, n, rows) for n in (2, 3, dims.n_speakers)]
        _, peak = traced_peak(lambda: evaluate_model(model, x, *labels))
        # about one block's logits, plus the per-row buffers: squared errors,
        # losses and hits
        assert peak <= 8 * (1.5 * aan_module._BLOCK_ELEMENTS + rows * (dims.input_dim + 8))

    def test_out_of_range_label_across_blocks_is_checked_once(self, monkeypatch):
        model = tiny_model()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, TINY_DIMS.input_dim))
        g, a = np.zeros(20, dtype=int), np.zeros(20, dtype=int)
        s = np.full(20, 2)
        s[0], s[-1] = 0, TINY_DIMS.n_speakers
        monkeypatch.setattr(aan_module, "_BLOCK_ELEMENTS", 3 * TINY_DIMS.input_dim)
        monkeypatch.setattr(aan_module, "aan_forward",
                            lambda *_: pytest.fail("a block ran before the labels were checked"))
        # the range is that of the whole split, not of the last block
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 5\), got range \[0, 5\]"):
            evaluate_model(model, x, g, a, s)


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
            grad = gradient_target(model)
            aan_loss_and_grads(model, grad, x, g, a, s)
            sgd_step(model.flat, grad.flat, lr)
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
        (dataclasses.astuple(TINY_DIMS), None),  # a valid checkpoint loads
    ])
    def test_bad_header_dims_rejected_before_allocation(self, tmp_path, monkeypatch,
                                                        dims, message):
        path = tmp_path / "model.aan"
        if message is None:
            save_model(tiny_model(), path)
        else:
            path.write_bytes(b"AAN1" + struct.pack("<8Id", 1, *dims, 1.0) + bytes(64))

        def forbidden(*args, **kwargs):
            raise AssertionError("load_model built a model or drew from an RNG")

        monkeypatch.setattr(aan_module, "build_aan", forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        if message is None:
            assert load_model(path).dims == TINY_DIMS
            return
        with pytest.raises(ValueError, match=message) as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_checkpoint_bytes_pinned(self, tmp_path):
        path = tmp_path / "model.aan"
        save_model(build_aan(TINY_DIMS, 8.0, seed=1, init_scale=0.1), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "f6d8ba950e3b6d64c1a51797ea03ab01b1824de1d40517c49843c4550633ff34"

    @pytest.mark.parametrize("offset", [36, CHECKPOINT_HEADER_SIZE + 8 * 5],
                             ids=["lam", "parameter"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected_naming_path(self, tmp_path, offset, value):
        path = tmp_path / "model.aan"
        save_model(tiny_model(), path)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="finite") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_load_peak_memory_is_about_the_parameters(self, tmp_path):
        path = tmp_path / "model.aan"
        save_model(build_aan(VOXCELEB_DIMS, 8.0, seed=0), path)
        model, peak = traced_peak(lambda: load_model(path))
        assert peak < 2.5 * model.flat.nbytes
        assert all(set(vars(layer)) == LAYER_FIELDS for layer in model.layers())

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_byte_mutation_raises_only_value_error_naming_path(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.aan"
            save_model(tiny_model(seed=2), path)
            valid = path.read_bytes()
            # the header is a small share of the file, so draw half the
            # positions from it
            pos = data.draw(st.one_of(st.integers(0, CHECKPOINT_HEADER_SIZE - 1),
                                      st.integers(0, len(valid) - 1)))
            byte = data.draw(st.integers(0, 255))
            path.write_bytes(valid[:pos] + bytes([byte]) + valid[pos + 1:])
            try:
                load_model(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")


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

    def test_groups_are_contiguous_slices_of_flat_in_groups_order(self):
        # the gradient check perturbs each group as one slice of flat
        model = tiny_model()
        stop = 0
        for attr, _ in GROUPS:
            for layer in getattr(model, attr):
                for array in (layer.weights, layer.bias):
                    start, stop = stop, stop + array.size
                    assert np.shares_memory(array, model.flat[start:stop])
                    assert array.ravel().tobytes() == model.flat[start:stop].tobytes()
        assert stop == model.flat.size

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
        for layer in loaded.layers():
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

    def test_divergence_raises_naming_the_epoch(self):
        # 28 finite epochs, then a non-finite epoch loss: no partial history
        train_c, valid_c, _ = tiny_corpus()
        model = build_aan(desk_dims(train_c, hidden=8, latent=4, branch_hidden=4),
                          8.0, seed=0)
        with pytest.raises(DivergenceError, match=r"^training diverged in epoch 29 "
                           r"\(lambda=8, lr=100000\); no checkpoint written$"):
            train(model, train_c, valid_c,
                  TrainConfig(epochs=50, lr=1e5, optimizer="sgd", seed=0))

    def test_exploded_run_raises(self):
        # every epoch is finite, but the best valid recon loss is about 4e5
        # times that of predicting the train mean
        train_c, valid_c, _ = tiny_corpus()
        model = build_aan(desk_dims(train_c, hidden=8, latent=4, branch_hidden=4),
                          8.0, seed=0)
        with pytest.raises(DivergenceError, match=r"^training exploded \(lambda=8, lr=1000\)"):
            train(model, train_c, valid_c, TrainConfig(epochs=20, lr=1e3, seed=0))

    def test_valid_split_without_spread_raises_before_training(self):
        train_c, valid_c, _ = tiny_corpus()
        at_mean = valid_c.with_vectors(np.broadcast_to(train_c.matrix().mean(axis=0),
                                                       valid_c.matrix().shape))
        model = build_aan(desk_dims(train_c, hidden=8, latent=4, branch_hidden=4),
                          8.0, seed=0)
        before = model.snapshot()
        with pytest.raises(ValueError, match="no spread around the train mean"):
            train(model, train_c, at_mean, TrainConfig(epochs=1, seed=0))
        assert np.array_equal(model.flat, before)

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

    @staticmethod
    def traced_train(**config):
        """The model and the traced peak of a 4-epoch ``train`` with an
        8000-speaker head, which makes each parameter-sized vector 2.1 MB; a
        batch of 4 keeps the step's (batch, speakers) arrays under one
        validation block's logits."""
        dims = AanDims(input_dim=8, hidden=8, latent=4, branch_hidden=32,
                       n_genders=2, n_accents=3, n_speakers=8000)
        model = build_aan(dims, lam=1.0, seed=4)
        rng = np.random.default_rng(4)
        vocabs = [{f"{name}{i}": i for i in range(n)} for name, n in
                  (("s", dims.n_speakers), ("g", dims.n_genders), ("a", dims.n_accents))]

        def corpus(rows, tag):
            labels = [rng.integers(0, n, rows) for n in (dims.n_speakers, dims.n_genders,
                                                          dims.n_accents)]
            return Corpus([f"{tag}{i}" for i in range(rows)], *labels,
                          rng.normal(size=(rows, dims.input_dim)), *vocabs, split_tag=tag)

        train_c, valid_c = corpus(32, "train"), corpus(32, "valid")
        (_, history), peak = traced_peak(lambda: train(
            model, train_c, valid_c, TrainConfig(epochs=4, batch_size=4, seed=4, **config)))
        recon = [h.valid.recon for h in history]
        assert any(later < min(recon[:i]) for i, later in enumerate(recon) if i), \
            "no best checkpoint after the first epoch"
        return model, peak

    def test_peak_memory_is_six_parameter_vectors(self):
        model, peak = self.traced_train()
        # six parameter-sized vectors: the model's own (built before tracing),
        # then the gradient, m, v, one Adam scratch array and the snapshot;
        # plus one validation block's logits with half a block of slack
        assert peak <= 5 * model.flat.nbytes + 8 * 1.5 * aan_module._BLOCK_ELEMENTS

    def test_sgd_peak_memory_is_three_parameter_vectors(self):
        model, peak = self.traced_train(optimizer="sgd", lr=1e-3)
        # the model's own, then the gradient, which also takes the step, and
        # the snapshot; plus the same validation block and slack
        assert peak <= 2 * model.flat.nbytes + 8 * 1.5 * aan_module._BLOCK_ELEMENTS

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
    """The AAN with separate arrays per layer and no flat vector; a second
    one, copied from the same model, takes the first one's gradients."""

    parameters = AanModel.parameters

    def __init__(self, model: AanModel):
        for attr, _ in GROUPS:
            setattr(self, attr, [DenseLayer(layer.weights.copy(), layer.bias.copy(),
                                            layer.activation)
                                 for layer in getattr(model, attr)])
        self.lam = model.lam
        self.dims = model.dims


def oracle_gradient_check(model, x, g, a, s, eps=1e-5):
    """The gradient check over name-keyed arrays: per group, per array, per
    element, with the analytic side read from a second ``LayerListModel``."""
    objectives = {"encoder": lambda b: b.recon - model.lam * (b.gender + b.accent + b.speaker),
                  "decoder": lambda b: b.recon, "gender_head": lambda b: b.gender,
                  "accent_head": lambda b: b.accent, "speaker_head": lambda b: b.speaker}
    grad = LayerListModel(model)
    results = {}
    for attr, prefix in GROUPS:
        params = {f"{prefix}{i}.{kind}": array
                  for i, layer in enumerate(getattr(model, attr))
                  for kind, array in (("w", layer.weights), ("b", layer.bias))}

        def loss_and_grads():
            losses = aan_loss_and_grads(model, grad, x, g, a, s)
            return objectives[attr](losses), grad.parameters()

        _, grads = loss_and_grads()
        analytic = {name: grads[name].copy() for name in params}
        worst = 0.0
        for name, p in params.items():
            flat = p.reshape(-1)
            grad_flat = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                loss_plus, _ = loss_and_grads()
                flat[i] = orig - eps
                loss_minus, _ = loss_and_grads()
                flat[i] = orig
                numeric = (loss_plus - loss_minus) / (2.0 * eps)
                rel = abs(grad_flat[i] - numeric) / max(abs(grad_flat[i]), abs(numeric), 1e-8)
                worst = max(worst, rel)
        results[attr] = worst
    return results


def reference_train(model, train_c, valid_c, config):
    """Per-layer, per-tensor-Adam training; returns (best parameters, history)."""
    ref, ref_grad = LayerListModel(model), LayerListModel(model)
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
            losses = aan_loss_and_grads(ref, ref_grad, x[idx], *(y[idx] for y in labels))
            per_tensor_adam(params, ref_grad.parameters(), state, config.lr, config.beta1,
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
