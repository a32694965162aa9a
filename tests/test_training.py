"""Losses (hand values + FD), optimizer recursion, schedule, training loop."""

import gc
import json
import math
import warnings

import numpy as np
import pytest

from csarank.affinity import (
    RankingList,
    TrainingSample,
    build_affinity_sequence,
    build_training_samples,
)
from csarank.checkpoint import load_checkpoint
from csarank.encoder import (
    EncoderConfig,
    EncoderParams,
    EncoderTrace,
    _tensor_shapes,
    encoder_backward,
    encoder_trace,
    init_params,
)
from csarank.evaluation import average_precision
from csarank.kernels import ShapeError, Tape, l2_normalize_rows, make_rng
from csarank.rerank import csa_rerank
from csarank.training import (
    LossConfig,
    NonFiniteGradientError,
    NoPositivesError,
    SgdState,
    TrainAbortedError,
    TrainRunConfig,
    contrastive_loss,
    cosine_lr,
    mse_loss,
    sgd_step,
    total_loss,
    train,
    _validate,
)
from csarank.affinity import EmbeddingMatrix
from util import cast_params, central_diff, max_rel_err


def rows_with_cosines(cosines):
    """Unit 2-D rows whose cosine against row 0 = the given values."""
    rows = [[1.0, 0.0]]
    rows += [[c, math.sqrt(1.0 - c * c)] for c in cosines]
    return np.array(rows)


class TestContrastiveLoss:
    def test_all_relevant_is_exactly_zero(self):
        y = make_rng(0).standard_normal((5, 4))
        loss, grad = contrastive_loss(y, np.ones(5, dtype=bool), 2.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_hand_value_two_candidates(self):
        # cosines 0.9 (relevant) and 0.1 (not), tau 2 -> log(1 + exp(-0.4))
        y = rows_with_cosines([0.9, 0.1])
        loss, _ = contrastive_loss(y, np.array([True, True, False]), 2.0)
        np.testing.assert_allclose(loss, math.log(1 + math.exp(-0.4)), rtol=1e-12)

    def test_gradient_matches_fd(self):
        rng = make_rng(1)
        y = rng.standard_normal((6, 5))
        rel = np.array([True, True, False, True, False, False])

        def f(v):
            return contrastive_loss(v, rel, 2.0)[0]

        _, grad = contrastive_loss(y, rel, 2.0)
        assert max_rel_err(grad, central_diff(f, y, eps=1e-5)) < 1e-6

    def test_nonnegative_and_zero_iff_all_relevant(self):
        rng = make_rng(2)
        for trial in range(20):
            y = rng.standard_normal((6, 4))
            rel = np.zeros(6, dtype=bool)
            rel[0] = True
            rel[1 + rng.choice(5, size=int(rng.integers(1, 5)), replace=False)] = True
            loss, _ = contrastive_loss(y, rel, 2.0)
            assert loss >= 0.0
            if not rel.all():
                assert loss > 0.0

    def test_candidate_permutation_invariant(self):
        rng = make_rng(3)
        y = rng.standard_normal((7, 4))
        rel = np.array([True, True, False, True, False, False, True])
        base, _ = contrastive_loss(y, rel, 2.0)
        perm = np.concatenate([[0], 1 + rng.permutation(6)])
        permuted, _ = contrastive_loss(y[perm], rel[perm], 2.0)
        np.testing.assert_allclose(permuted, base, rtol=1e-12)

    def test_scale_invariant(self):
        y = make_rng(4).standard_normal((5, 3))
        rel = np.array([True, False, True, False, True])
        a, _ = contrastive_loss(y, rel, 2.0)
        b, _ = contrastive_loss(y * 37.5, rel, 2.0)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_no_positives_raises(self):
        y = make_rng(5).standard_normal((4, 3))
        with pytest.raises(NoPositivesError):
            contrastive_loss(y, np.array([True, False, False, False]), 2.0)

    def test_padding_excluded_from_both_sums(self):
        y = make_rng(6).standard_normal((6, 4))
        rel = np.array([True, True, False, True, False, True])
        valid = np.array([True, True, True, True, False, False])
        masked, _ = contrastive_loss(y, rel, 2.0, valid)
        direct, _ = contrastive_loss(y[:4], rel[:4], 2.0)
        np.testing.assert_allclose(masked, direct, rtol=1e-12)


class TestMseLoss:
    def test_exact_reconstruction_is_zero(self):
        x = make_rng(7).standard_normal((3, 5))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_unit_distance_single_row(self):
        loss, _ = mse_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert loss == 1.0

    def test_against_elementwise_oracle(self):
        rng = make_rng(8)
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((4, 6))
        expected = sum((b[i, j] - a[i, j]) ** 2 for i in range(4) for j in range(6))
        loss, _ = mse_loss(a, b)
        assert abs(loss - expected) < 1e-10

    def test_masked_rows_ignored(self):
        rng = make_rng(9)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))
        valid = np.array([True, True, False, False])
        loss, grad = mse_loss(a, b, valid)
        ref, _ = mse_loss(a[:2], b[:2])
        np.testing.assert_allclose(loss, ref, rtol=1e-12)
        np.testing.assert_array_equal(grad[2:], 0.0)

    def test_gradient_is_two_diff(self):
        rng = make_rng(10)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        _, grad = mse_loss(a, b)
        np.testing.assert_allclose(grad, 2 * (b - a), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestTotalLoss:
    def test_lambda_zero_is_contrastive_bit_for_bit(self):
        lc = 1.2345678901234567
        assert total_loss(lc, 99.0, 0.0) == lc

    def test_arithmetic(self):
        assert total_loss(1.0, 0.5, 0.2) == pytest.approx(1.1, abs=1e-15)

    def test_gradient_linearity_through_backward(self):
        config = EncoderConfig(depth=1, heads=2, head_dim=4, hidden=8,
                               input_len=6).validate()
        params = cast_params(init_params(config, make_rng(11)), np.float64)
        x = make_rng(12).standard_normal((4, 6))
        rel = np.array([True, True, False, True])
        lam = 0.2

        trace = encoder_trace(x, params)
        _, gc = contrastive_loss(trace.refined, rel, 2.0)
        _, gm = mse_loss(x, trace.recon)

        both, _ = encoder_backward(trace, gc, lam * gm)
        trace2 = encoder_trace(x, params)
        only_c, _ = encoder_backward(trace2, gc, np.zeros_like(gm))
        trace3 = encoder_trace(x, params)
        only_m, _ = encoder_backward(trace3, np.zeros_like(gc), lam * gm)
        for name in both:
            np.testing.assert_allclose(both[name], only_c[name] + only_m[name],
                                       atol=1e-12)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.1) == pytest.approx(0.1, abs=1e-15)
        assert cosine_lr(100, 100, 0.1) == pytest.approx(0.0, abs=1e-15)
        assert cosine_lr(50, 100, 0.1) == pytest.approx(0.05, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 0.1)


TINY = EncoderConfig(depth=1, heads=2, head_dim=4, hidden=8, input_len=6).validate()


def zero_grads(params):
    return {n: np.zeros_like(t) for n, t in params.tensors.items()}


class TestSgdStep:
    def test_zero_gradient_leaves_params(self):
        p = init_params(TINY, make_rng(13))
        before = {n: t.copy() for n, t in p.tensors.items()}
        sgd_step(p, zero_grads(p), SgdState(weight_decay=0.0), lr=0.1)
        for n in before:
            np.testing.assert_array_equal(p.tensors[n], before[n])

    def test_single_entry_plain_descent(self):
        p = init_params(TINY, make_rng(14))
        grads = zero_grads(p)
        grads["proj.b"][0] = 1.0
        before = p.tensors["proj.b"][0].copy()
        sgd_step(p, grads, SgdState(momentum=0.0, weight_decay=0.0), lr=0.1)
        np.testing.assert_allclose(p.tensors["proj.b"][0], before - 0.1, atol=1e-7)

    def test_two_momentum_steps_match_hand_recursion(self):
        p = cast_params(init_params(TINY, make_rng(15)), np.float64)
        state = SgdState(momentum=0.9, weight_decay=0.0)
        g = 0.25
        grads = zero_grads(p)
        grads["mse.b2"][:] = g
        x0 = p.tensors["mse.b2"].copy()
        sgd_step(p, grads, state, lr=0.1)
        sgd_step(p, grads, state, lr=0.1)
        buf1 = g
        x1 = x0 - 0.1 * buf1
        buf2 = 0.9 * buf1 + g
        x2 = x1 - 0.1 * buf2
        assert np.max(np.abs(p.tensors["mse.b2"] - x2)) < 1e-12

    def test_weight_decay_skips_vectors(self):
        p = cast_params(init_params(TINY, make_rng(16)), np.float64)
        p.tensors["layers.0.ln1.gain"][:] = 2.0
        p.tensors["proj.b"][:] = 3.0
        sgd_step(p, zero_grads(p), SgdState(momentum=0.0, weight_decay=0.5), lr=0.1)
        np.testing.assert_array_equal(p.tensors["layers.0.ln1.gain"], 2.0)
        np.testing.assert_array_equal(p.tensors["proj.b"], 3.0)
        # matrices do decay
        w = cast_params(init_params(TINY, make_rng(16)), np.float64).tensors["proj.w"]
        np.testing.assert_allclose(p.tensors["proj.w"], w - 0.1 * 0.5 * w,
                                   atol=1e-15)

    def test_nonfinite_gradient_aborts_without_touching_params(self):
        p = init_params(TINY, make_rng(17))
        before = {n: t.copy() for n, t in p.tensors.items()}
        grads = zero_grads(p)
        grads["proj.w"][0, 0] = np.nan
        state = SgdState()
        with pytest.raises(NonFiniteGradientError):
            sgd_step(p, grads, state, lr=0.1)
        assert state.step == 0
        for n in before:
            np.testing.assert_array_equal(p.tensors[n], before[n])

    def test_params_stay_finite(self):
        p = init_params(TINY, make_rng(18))
        rng = make_rng(19)
        grads = {n: rng.standard_normal(t.shape).astype(np.float32)
                 for n, t in p.tensors.items()}
        sgd_step(p, grads, SgdState(), lr=0.1)
        assert all(np.all(np.isfinite(t)) for t in p.tensors.values())


def toy_training_setup(seed=0, n_clusters=3, items=6, dim=8, k=8, l=8):
    rng = make_rng(seed)
    centers = l2_normalize_rows(rng.standard_normal((n_clusters, dim)))
    rows = np.repeat(centers, items, axis=0) + 0.15 * rng.standard_normal(
        (n_clusters * items, dim))
    emb = EmbeddingMatrix([f"s{i:03d}" for i in range(n_clusters * items)],
                          l2_normalize_rows(rows).astype(np.float32))
    labels = {f"s{i:03d}": i // items for i in range(n_clusters * items)}
    samples = build_training_samples([emb], labels, k, l)
    config = EncoderConfig(depth=1, heads=2, head_dim=8, hidden=16,
                           input_len=l).validate()
    return samples, config


class TestTrainLoop:
    def test_one_sample_one_epoch_equals_manual_step(self):
        samples, config = toy_training_setup()
        sample = samples[0]
        params = init_params(config, make_rng(20))
        manual = params.copy()

        result = train([sample], params, LossConfig(),
                       TrainRunConfig(epochs=1, batch_size=4, seed=5))

        trace = encoder_trace(sample.sequence.values[None], manual,
                              valid=sample.sequence.valid[None])
        lc, gc = contrastive_loss(trace.refined[0], sample.relevance,
                                  2.0, sample.sequence.valid)
        lm, gm = mse_loss(sample.sequence.values, trace.recon[0],
                          sample.sequence.valid)
        n_el = int(sample.sequence.valid.sum()) * sample.sequence.values.shape[1]
        grads, _ = encoder_backward(trace, gc[None], (0.2 / n_el) * gm[None])
        sgd_step(manual, grads, SgdState(), lr=cosine_lr(0, 1, 0.1))

        assert result.state.step == 1
        for name in manual.tensors:
            np.testing.assert_array_equal(result.params.tensors[name],
                                          manual.tensors[name], err_msg=name)

    def test_fixed_seed_gives_bit_identical_loss_log(self, tmp_path):
        samples, config = toy_training_setup(seed=1)
        logs = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            train(samples, init_params(config, make_rng(21)), LossConfig(),
                  TrainRunConfig(epochs=3, batch_size=8, seed=9), out_dir=out)
            logs.append((out / "loss_log.jsonl").read_bytes())
        assert logs[0] == logs[1]

    def test_loss_improves_over_twenty_epochs(self):
        samples, config = toy_training_setup(seed=2)
        params = init_params(config, make_rng(22))
        result = train(samples, params, LossConfig(),
                       TrainRunConfig(epochs=20, batch_size=16, seed=3))
        by_epoch = {}
        for rec in result.log:
            by_epoch.setdefault(rec["epoch"], []).append(rec["loss_total"])
        assert np.mean(by_epoch[19]) < np.mean(by_epoch[0])

    def test_all_skipped_aborts_with_diagnosis(self):
        samples, config = toy_training_setup(seed=3)
        for s in samples:
            s.relevance[1:] = False
        with pytest.raises(TrainAbortedError, match="nothing to train"):
            train(samples, init_params(config, make_rng(23)))

    def test_skipped_samples_counted(self):
        samples, config = toy_training_setup(seed=4)
        samples[0].relevance[1:] = False
        result = train(samples, init_params(config, make_rng(24)), LossConfig(),
                       TrainRunConfig(epochs=1, batch_size=8, seed=1))
        assert result.samples_skipped == 1
        assert result.samples_used == len(samples) - 1

    def test_checkpoints_and_log_written(self, tmp_path):
        samples, config = toy_training_setup(seed=5)
        result = train(samples, init_params(config, make_rng(25)), LossConfig(),
                       TrainRunConfig(epochs=2, batch_size=8, seed=2),
                       out_dir=tmp_path)
        assert (tmp_path / "last.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        records = [json.loads(line) for line in
                   (tmp_path / "loss_log.jsonl").read_text().splitlines()]
        assert len(records) == len(result.log)
        assert set(records[0]) == {"epoch", "step", "lr", "loss_contrastive",
                                   "loss_mse", "loss_total"}

    def test_validation_split_holds_out_queries(self):
        samples, config = toy_training_setup(seed=6)
        result = train(samples, init_params(config, make_rng(26)), LossConfig(),
                       TrainRunConfig(epochs=2, batch_size=8, seed=4,
                                      val_fraction=0.4))
        assert len(result.val_history) == 2
        assert all(v is None or 0.0 <= v <= 1.0 for v in result.val_history)
        assert result.val_history[-1] is not None

    def test_lambda_zero_still_logs_mse_term(self):
        samples, config = toy_training_setup(seed=7)
        result = train(samples, init_params(config, make_rng(27)),
                       LossConfig(lam=0.0),
                       TrainRunConfig(epochs=1, batch_size=8, seed=1))
        rec = result.log[0]
        assert rec["loss_mse"] > 0.0
        assert rec["loss_total"] == rec["loss_contrastive"]

    def test_train_leaves_no_trace_for_the_collector(self):
        # a step's trace has no reference cycle: it is freed without the
        # cyclic collector
        samples, config = toy_training_setup(seed=8)
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            train(samples, init_params(config, make_rng(28)), LossConfig(),
                  TrainRunConfig(epochs=1, batch_size=8, seed=1))
            leftover = [o for o in gc.get_objects()
                        if isinstance(o, (EncoderTrace, Tape))]
        finally:
            if was_enabled:
                gc.enable()
        assert leftover == []

    def test_no_validation_split_reports_no_best_map(self, tmp_path):
        samples, config = toy_training_setup(seed=9)
        result = train(samples, init_params(config, make_rng(29)), LossConfig(),
                       TrainRunConfig(epochs=2, batch_size=8, seed=1,
                                      val_fraction=0.0),
                       out_dir=tmp_path)
        assert result.val_history == [None, None]
        assert result.best_val_map is None
        assert result.best_epoch == 0
        _, extra, _ = load_checkpoint(tmp_path / "best.ckpt")
        assert extra["best_val_map"] is None


class TestValidationScoring:
    def test_zero_refined_row_ordered_as_served(self):
        # Depth 0 with an identity projection: refined rows are the affinity
        # rows. K=4 > L=2 and "z" is orthogonal to both anchors, so its
        # refined row is all zeros.
        config = EncoderConfig(depth=0, heads=1, head_dim=2, hidden=2,
                               input_len=2).validate()
        tensors = {n: np.zeros(shape, dtype=np.float32)
                   for n, shape in _tensor_shapes(config).items()}
        tensors["proj.w"] = np.eye(2, dtype=np.float32)
        params = EncoderParams(tensors, config)
        ids = ["q", "a", "z", "b"]
        emb = EmbeddingMatrix(ids, np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0],
                                             [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]))
        ranking = RankingList("q", ids, [1.0, 0.8, 0.0, -1.0])
        seq = build_affinity_sequence(emb, ranking, 4, 2)
        np.testing.assert_array_equal(seq.values[2], 0.0)

        sample = TrainingSample(seq, np.array([True, True, True, False]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            served = csa_rerank(emb, ranking, params, k=4)
            val_map = _validate([sample], params, batch_size=8)
        assert served.ids == ["q", "a", "z", "b"]
        assert val_map == average_precision(served.to_ranking(), {"a", "z"})
