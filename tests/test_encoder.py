"""Model forward/backward: oracles, equivariance, masking, gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csarank.encoder import (
    SUBLAYER_STYLES,
    EncoderConfig,
    EncoderParams,
    encoder_backward,
    encoder_forward,
    encoder_layer_forward,
    encoder_trace,
    init_params,
    mha_forward,
    mse_head_forward,
    _tensor_shapes,
)
from csarank.kernels import ShapeError, make_rng
from csarank.training import contrastive_loss, mse_loss
from util import cast_params, central_diff, max_rel_err, taped_backward, taped_trace

TINY = EncoderConfig(depth=1, heads=2, head_dim=4, hidden=8, input_len=6).validate()


def tiny_params(seed=0, dtype=np.float32):
    return init_params(TINY, make_rng(seed), dtype=dtype)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = tiny_params(7)
        b = tiny_params(7)
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()

    def test_gains_one_biases_zero(self):
        p = tiny_params()
        for name, t in p.tensors.items():
            if name.endswith(".gain"):
                np.testing.assert_array_equal(t, 1.0)
            elif t.ndim == 1:
                np.testing.assert_array_equal(t, 0.0)

    def test_weight_stddev_matches_uniform_moment(self):
        config = EncoderConfig().validate()  # default: fuse matrix is 768 x 768
        p = init_params(config, make_rng(0))
        w = p.tensors["layers.0.attn.fuse"]
        bound = 1.0 / math.sqrt(w.shape[0])
        analytic = bound / math.sqrt(3.0)
        assert abs(w.std() - analytic) / analytic < 0.15


def mha_oracle(x, params, layer):
    """Straight-line reimplementation sharing no code with the package."""
    t = params.tensors
    c = params.config
    outs = []
    for h in range(c.heads):
        q = x @ t[f"layers.{layer}.attn.q.{h}"]
        k = x @ t[f"layers.{layer}.attn.k.{h}"]
        v = x @ t[f"layers.{layer}.attn.v.{h}"]
        scores = q @ k.T / math.sqrt(c.head_dim)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        outs.append(a @ v)
    return np.concatenate(outs, axis=1) @ t[f"layers.{layer}.attn.fuse"]


class TestMha:
    def test_single_candidate_passes_values_through(self):
        p = tiny_params(1)
        x = make_rng(2).standard_normal((1, 8)).astype(np.float32)
        vs = [x @ p.tensors[f"layers.0.attn.v.{h}"] for h in range(2)]
        expected = np.concatenate(vs, axis=1) @ p.tensors["layers.0.attn.fuse"]
        np.testing.assert_allclose(mha_forward(x, p), expected, atol=1e-6)

    def test_zero_input_gives_zero_output(self):
        p = tiny_params(3)
        out = mha_forward(np.zeros((4, 8), dtype=np.float32), p)
        np.testing.assert_array_equal(out, 0.0)

    def test_against_independent_oracle(self):
        p = cast_params(tiny_params(4), np.float64)
        x = make_rng(5).standard_normal((5, 8))
        assert np.max(np.abs(mha_forward(x, p) - mha_oracle(x, p, 0))) < 1e-6

    def test_attention_rows_sum_to_one_over_unmasked_keys(self):
        p = tiny_params(6)
        x = make_rng(7).standard_normal((6, 8)).astype(np.float32)
        valid = np.array([True, True, True, True, False, False])
        _, weights = mha_forward(x, p, valid=valid, return_weights=True)
        for w in weights:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(w[:, ~valid], 0.0, atol=1e-12)


class TestEncoderLayer:
    def test_zero_weights_reduce_to_bias_broadcast(self):
        rng = make_rng(8)
        tensors = {n: np.zeros(s, dtype=np.float32)
                   for n, s in _tensor_shapes(TINY).items()}
        b1 = rng.standard_normal(8).astype(np.float32)
        b2 = rng.standard_normal(8).astype(np.float32)
        tensors["layers.0.ln1.bias"] = b1
        tensors["layers.0.ln2.bias"] = b2
        p = EncoderParams(tensors, TINY)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        out = encoder_layer_forward(x, p, 0)
        np.testing.assert_allclose(out, x + b1 + b2, atol=1e-6)

    def test_row_permutation_equivariance(self):
        p = tiny_params(9)
        rng = make_rng(10)
        x = rng.standard_normal((7, 8)).astype(np.float32)
        perm = rng.permutation(7)
        out = encoder_layer_forward(x, p, 0)
        out_perm = encoder_layer_forward(x[perm], p, 0)
        assert np.max(np.abs(out_perm - out[perm])) < 1e-6


class TestEncoderForward:
    def test_depth_zero_is_projection_only(self):
        config = EncoderConfig(depth=0, heads=2, head_dim=4, hidden=8,
                               input_len=6).validate()
        p = init_params(config, make_rng(11))
        x = make_rng(12).standard_normal((5, 6)).astype(np.float32)
        expected = x @ p.tensors["proj.w"] + p.tensors["proj.b"]
        np.testing.assert_array_equal(encoder_forward(x, p), expected)

    def test_duplicate_rows_produce_identical_outputs(self):
        p = tiny_params(13)
        row = make_rng(14).standard_normal(6).astype(np.float32)
        x = np.stack([row, row, row * 0.5])
        out = encoder_forward(x, p)
        np.testing.assert_array_equal(out[0], out[1])

    def test_column_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="columns"):
            encoder_forward(np.zeros((3, 7), dtype=np.float32), tiny_params())

    def test_batched_matches_per_sample(self):
        p = tiny_params(15)
        xs = make_rng(16).standard_normal((3, 5, 6)).astype(np.float32)
        batched = encoder_forward(xs, p)
        for i in range(3):
            single = encoder_forward(xs[i], p)
            np.testing.assert_allclose(batched[i], single, atol=1e-6)

    def test_golden_regression_pin(self):
        # recorded once from this implementation at seed 0; guards refactors
        p = tiny_params(0)
        x = make_rng(100).standard_normal((2, 6)).astype(np.float32)
        out = encoder_forward(x, p)
        golden = np.array(GOLDEN_FORWARD, dtype=np.float32)
        np.testing.assert_allclose(out, golden, rtol=1e-5, atol=1e-6)


class TestForwardMatchesTrace:
    """The serving forward against the taped reference and the training forward."""

    @pytest.mark.parametrize("style", ["ln_then_add", "add_then_ln"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_refined_rows_agree(self, style, batched):
        # head_dim 3: 1/sqrt(3) is inexact, so folding it into Q rounds
        # differently from scaling the scores
        config = EncoderConfig(depth=2, heads=3, head_dim=3, hidden=9,
                               input_len=6, sublayer_style=style).validate()
        p = init_params(config, make_rng(40))
        rng = make_rng(41)
        x = rng.standard_normal((3, 7, 6)).astype(np.float32)
        valid = np.ones((3, 7), dtype=bool)
        valid[:, 5:] = False
        valid[1, 3:] = False
        if not batched:
            x, valid = x[1], valid[1]
        out = encoder_forward(x, p, valid=valid)
        ref = taped_trace(x, p, valid=valid).refined.value
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-5)
        # the training forward runs the same layer code
        np.testing.assert_array_equal(encoder_trace(x, p, valid=valid).refined, out)

    def test_builds_no_tape(self, monkeypatch):
        import csarank.kernels

        def no_tape(self):
            raise AssertionError("a tape was recorded")

        monkeypatch.setattr(csarank.kernels.Tape, "__init__", no_tape)
        x = make_rng(42).standard_normal((4, 6)).astype(np.float32)
        valid = np.array([1, 1, 1, 0], bool)
        p = tiny_params(43)
        assert encoder_forward(x, p, valid=valid).shape == (4, 8)
        trace = encoder_trace(x, p, valid=valid)
        grads, _ = encoder_backward(trace, np.ones_like(trace.refined),
                                    np.ones_like(trace.recon))
        assert set(grads) == set(p.tensors)


class TestMseHead:
    def test_zero_everything_gives_zero(self):
        tensors = {n: np.zeros(s, dtype=np.float32)
                   for n, s in _tensor_shapes(TINY).items()}
        p = EncoderParams(tensors, TINY)
        out = mse_head_forward(np.ones((3, 8), dtype=np.float32), p)
        np.testing.assert_array_equal(out, 0.0)

    def test_hand_sized_weights(self):
        config = EncoderConfig(depth=0, heads=1, head_dim=2, hidden=2,
                               input_len=1).validate()
        tensors = {n: np.zeros(s, dtype=np.float32)
                   for n, s in _tensor_shapes(config).items()}
        tensors["mse.w1"] = np.array([[1.0, 0.5], [-1.0, 2.0]], dtype=np.float32)
        tensors["mse.b1"] = np.array([0.1, -0.2], dtype=np.float32)
        tensors["mse.w2"] = np.array([[2.0], [1.0]], dtype=np.float32)
        tensors["mse.b2"] = np.array([0.3], dtype=np.float32)
        p = EncoderParams(tensors, config)
        y = np.array([[1.0, 2.0]], dtype=np.float32)

        def g(v):
            return 0.5 * v * (1 + math.tanh(math.sqrt(2 / math.pi)
                                            * (v + 0.044715 * v ** 3)))

        pre = [1.0 * 1.0 + 2.0 * (-1.0) + 0.1, 1.0 * 0.5 + 2.0 * 2.0 - 0.2]
        expected = 2.0 * g(pre[0]) + 1.0 * g(pre[1]) + 0.3
        np.testing.assert_allclose(mse_head_forward(y, p), [[expected]], rtol=1e-6)

    def test_output_shape_is_k_by_l(self):
        p = tiny_params(17)
        for k in (1, 4, 9):
            y = make_rng(k).standard_normal((k, 8)).astype(np.float32)
            assert mse_head_forward(y, p).shape == (k, 6)


class TestEncoderBackward:
    def test_constant_loss_has_zero_gradients(self):
        p = tiny_params(18)
        x = make_rng(19).standard_normal((4, 6)).astype(np.float32)
        trace = encoder_trace(x, p)
        grads, xg = encoder_backward(trace, np.zeros((4, 8), dtype=np.float32),
                                     np.zeros((4, 6), dtype=np.float32))
        assert all(np.all(g == 0) for g in grads.values())
        np.testing.assert_array_equal(xg, 0.0)

    def test_all_parameter_gradients_match_fd(self):
        # single layer, one head: every parameter entry against central FD
        config = EncoderConfig(depth=1, heads=1, head_dim=2, hidden=4,
                               input_len=3).validate(allow_dim_mismatch=True)
        params = cast_params(init_params(config, make_rng(20)), np.float64)
        x = make_rng(21).standard_normal((3, 3))
        rel = np.array([True, True, False])
        valid = np.ones(3, dtype=bool)

        def objective(p):
            tr = encoder_trace(x, p)
            lc, _ = contrastive_loss(tr.refined, rel, 2.0, valid)
            lm, _ = mse_loss(x, tr.recon, valid)
            return lc + 0.2 * lm / x.size

        trace = encoder_trace(x, params)
        lc, gc = contrastive_loss(trace.refined, rel, 2.0, valid)
        lm, gm = mse_loss(x, trace.recon, valid)
        grads, _ = encoder_backward(trace, gc, (0.2 / x.size) * gm)

        for name in params.tensors:
            def f(v, name=name):
                saved = params.tensors[name]
                params.tensors[name] = v.reshape(saved.shape)
                try:
                    return objective(params)
                finally:
                    params.tensors[name] = saved
            fd = central_diff(f, params.tensors[name].copy(), eps=1e-5)
            assert max_rel_err(grads[name], fd) < 1e-6, name

    def test_padded_row_receives_zero_gradient(self):
        p = tiny_params(22)
        x = make_rng(23).standard_normal((5, 6)).astype(np.float32)
        valid = np.array([True, True, True, True, False])
        trace = encoder_trace(x, p, valid=valid)
        seed = make_rng(24).standard_normal((5, 8)).astype(np.float32)
        seed[4] = 0.0  # losses never seed padded rows
        seed_recon = make_rng(25).standard_normal((5, 6)).astype(np.float32)
        seed_recon[4] = 0.0
        _, xg = encoder_backward(trace, seed, seed_recon)
        np.testing.assert_array_equal(xg[4], 0.0)

    @given(st.data())
    def test_matches_tape_reference(self, data):
        # float64: the batched-head backward against the per-head taped model
        heads = data.draw(st.integers(1, 3), label="heads")
        head_dim = data.draw(st.sampled_from([1, 3, 5]), label="head_dim")
        config = EncoderConfig(
            depth=data.draw(st.integers(0, 2), label="depth"), heads=heads,
            head_dim=head_dim, hidden=heads * head_dim,
            input_len=data.draw(st.integers(1, 5), label="L"),
            ffn_mult=data.draw(st.integers(1, 2), label="ffn_mult"),
            mse_head_hidden=data.draw(st.sampled_from([0, 3]), label="mse_hidden"),
            sublayer_style=data.draw(st.sampled_from(SUBLAYER_STYLES), label="style"),
        ).validate()
        batch = data.draw(st.integers(1, 3), label="batch")
        k = data.draw(st.integers(1, 6), label="K")
        rng = make_rng(data.draw(st.integers(0, 2**16), label="seed"))
        # perturb gains and biases too, so that every tensor shapes the output
        params = EncoderParams(
            {n: t.astype(np.float64) + 0.3 * rng.standard_normal(t.shape)
             for n, t in init_params(config, rng).tensors.items()}, config)
        x = rng.standard_normal((batch, k, config.input_len))
        n_valid = data.draw(st.lists(st.integers(1, k), min_size=batch,
                                     max_size=batch), label="n_valid")
        valid = np.arange(k)[None, :] < np.array(n_valid)[:, None]
        if batch == 1 and data.draw(st.booleans(), label="unstacked"):
            x, valid = x[0], valid[0]
        seed_refined = rng.standard_normal((*x.shape[:-1], config.hidden))
        seed_recon = rng.standard_normal(x.shape)

        trace = encoder_trace(x, params, valid=valid)
        grads, x_grad = encoder_backward(trace, seed_refined, seed_recon)
        ref_grads, ref_x_grad = taped_backward(taped_trace(x, params, valid=valid),
                                               seed_refined, seed_recon)
        assert list(grads) == list(params.tensors)
        for name in params.tensors:
            assert grads[name].shape == params.tensors[name].shape, name
            assert max_rel_err(grads[name], ref_grads[name]) < 1e-6, name
        assert max_rel_err(x_grad, ref_x_grad) < 1e-6

    def test_no_seed_rejected(self):
        trace = encoder_trace(np.zeros((2, 6), dtype=np.float32), tiny_params())
        with pytest.raises(ValueError, match="seed"):
            encoder_backward(trace)


class TestEquivariance:
    def test_permuting_candidates_permutes_outputs(self):
        p = tiny_params(26)
        rng = make_rng(27)
        x = rng.standard_normal((8, 6)).astype(np.float32)
        valid = np.ones(8, dtype=bool)
        valid[6:] = False
        base = encoder_forward(x, p, valid=valid)
        for _ in range(10):
            perm = np.concatenate([[0], 1 + rng.permutation(7)])
            out = encoder_forward(x[perm], p, valid=valid[perm])
            assert np.max(np.abs(out - base[perm])) < 1e-5

    def test_forward_and_backward_bit_deterministic(self):
        p = tiny_params(28)
        x = make_rng(29).standard_normal((4, 6)).astype(np.float32)
        seed = make_rng(30).standard_normal((4, 8)).astype(np.float32)

        def run():
            tr = encoder_trace(x, p)
            grads, _ = encoder_backward(tr, seed, np.zeros((4, 6), np.float32))
            return tr.refined.tobytes(), grads["proj.w"].tobytes()

        assert run() == run()


class TestSublayerStyles:
    def test_conventional_style_differs_but_stays_equivariant(self):
        config = EncoderConfig(depth=1, heads=2, head_dim=4, hidden=8,
                               input_len=6, sublayer_style="add_then_ln").validate()
        p = init_params(config, make_rng(31))
        x = make_rng(32).standard_normal((5, 6)).astype(np.float32)
        out = encoder_forward(x, p)
        default_out = encoder_forward(x, tiny_params(31))
        assert not np.allclose(out, default_out)
        perm = make_rng(33).permutation(5)
        np.testing.assert_allclose(encoder_forward(x[perm], p), out[perm],
                                   atol=1e-5)

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="sublayer_style"):
            EncoderConfig(sublayer_style="bogus").validate()

    def test_dim_mismatch_needs_override(self):
        config = EncoderConfig(depth=1, heads=3, head_dim=4, hidden=8, input_len=6)
        with pytest.raises(ValueError, match="override"):
            config.validate()
        config.validate(allow_dim_mismatch=True)


GOLDEN_FORWARD = [
    [1.2895355224609375, -3.5140881538391113, 1.740980863571167,
     2.0221166610717773, 1.5877760648727417, -2.179126739501953,
     0.41536879539489746, -1.3233753442764282],
    [-0.6283833384513855, -3.1129822731018066, 1.7047688961029053,
     1.2264866828918457, 1.6972190141677856, -0.734998345375061,
     2.9249773025512695, -1.3200492858886719],
]
