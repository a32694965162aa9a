"""Kernel forward semantics and adjoint rules against finite differences."""

import math

import numpy as np
import pytest

from csarank.kernels import (
    ShapeError,
    Tape,
    gelu,
    l2_normalize_rows,
    layer_norm_rows,
    make_rng,
    matmul,
    softmax_rows,
)
from util import central_diff, max_rel_err


class TestMatmul:
    def test_identity(self):
        rng = make_rng(0)
        a = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(matmul(a, np.eye(4)), a)

    def test_one_by_one(self):
        np.testing.assert_array_equal(matmul([[2.0]], [[3.0]]), [[6.0]])

    def test_against_triple_loop(self):
        rng = make_rng(1)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for k in range(3):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.max(np.abs(matmul(a, b) - expected)) < 1e-12

    def test_dimension_mismatch_reports_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 5\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 5)))


class TestSoftmax:
    def test_constant_row_is_uniform(self):
        out = softmax_rows(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)

    def test_single_column(self):
        np.testing.assert_array_equal(softmax_rows(np.array([[-7.3]])), [[1.0]])

    def test_hand_ratio(self):
        out = softmax_rows(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one_even_for_extreme_logits(self):
        rng = make_rng(2)
        for scale in (1.0, 100.0, 1e4):
            x = rng.standard_normal((20, 7)) * scale
            sums = softmax_rows(x).sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        gain = np.ones(4)
        bias = np.zeros(4)
        out = layer_norm_rows(np.full((1, 4), 3.0), gain, bias)
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_already_standardized_row(self):
        out = layer_norm_rows(np.array([[-1.0, 1.0]]), np.ones(2), np.zeros(2),
                              eps=1e-20)
        np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-9)

    def test_against_direct_oracle(self):
        rng = make_rng(3)
        x = rng.standard_normal((1, 9))
        gain = rng.standard_normal(9)
        bias = rng.standard_normal(9)
        eps = 1e-5
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        expected = (x - mu) / np.sqrt(var + eps) * gain + bias
        assert np.max(np.abs(layer_norm_rows(x, gain, bias, eps) - expected)) < 1e-10

    def test_pre_affine_mean_is_zero(self):
        rng = make_rng(4)
        x = rng.standard_normal((6, 11))
        out = layer_norm_rows(x, np.ones(11), np.zeros(11))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)

    def test_mismatched_affine_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm_rows(np.zeros((2, 4)), np.ones(3), np.zeros(3))


class TestGelu:
    def test_zero(self):
        assert gelu(np.array(0.0)) == 0.0

    def test_asymptote(self):
        assert abs(gelu(np.array(10.0)) - 10.0) < 1e-6

    def test_closed_form_at_one(self):
        # independent evaluation of the tanh form at x = 1
        expected = 0.5 * (1 + math.tanh(math.sqrt(2 / math.pi) * (1 + 0.044715)))
        np.testing.assert_allclose(gelu(np.array(1.0)), expected, rtol=1e-12)
        assert abs(expected - 0.8412) < 5e-5


class TestL2Normalize:
    def test_three_four(self):
        np.testing.assert_allclose(
            l2_normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]], atol=1e-12
        )

    def test_idempotent_on_unit_rows(self):
        rng = make_rng(5)
        x = l2_normalize_rows(rng.standard_normal((4, 6)))
        np.testing.assert_allclose(l2_normalize_rows(x), x, atol=1e-12)

    def test_output_norms(self):
        rng = make_rng(6)
        out = l2_normalize_rows(rng.standard_normal((30, 8)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-6)

    def test_zero_row_unchanged(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = l2_normalize_rows(x)
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [math.sqrt(0.5)] * 2, atol=1e-12)


class TestPurity:
    @pytest.mark.parametrize("kernel", [
        softmax_rows,
        gelu,
        lambda x: layer_norm_rows(x, np.full(5, 1.5), np.full(5, 0.25)),
    ])
    def test_input_left_unchanged(self, kernel):
        x = make_rng(7).standard_normal((2, 3, 5)).astype(np.float32)
        before = x.copy()
        out = kernel(x)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(out, x)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).standard_normal(16)
        b = make_rng(42).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(make_rng(1).standard_normal(8),
                                  make_rng(2).standard_normal(8))


class TestAdjoints:
    """Every adjoint rule vs central finite differences (eps 1e-4)."""

    def _check(self, build, x, seed_shape, tol=1e-6, eps=1e-4):
        rng = make_rng(99)
        seed = rng.standard_normal(seed_shape)

        def scalar(xv):
            tape = Tape()
            out = build(tape, tape.leaf(xv))
            return float((out.value * seed).sum())

        tape = Tape()
        leaf = tape.leaf(x)
        out = build(tape, leaf)
        tape.backward([(out, seed)])
        assert max_rel_err(leaf.grad, central_diff(scalar, x, eps)) < tol

    def test_sum_gradient_is_ones(self):
        tape = Tape()
        x = tape.leaf(make_rng(0).standard_normal((3, 4)))
        y = tape.scale(x, 1.0)
        tape.backward([(y, np.ones((3, 4)))])
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_matmul_linear_map(self):
        # d/dA of sum(A B) = 1 B^T
        rng = make_rng(1)
        b = rng.standard_normal((3, 5))
        tape = Tape()
        a = tape.leaf(rng.standard_normal((4, 3)))
        out = tape.matmul(a, tape.leaf(b))
        tape.backward([(out, np.ones((4, 5)))])
        np.testing.assert_allclose(a.grad, np.ones((4, 5)) @ b.T, atol=1e-12)

    def test_matmul_both_sides_fd(self):
        rng = make_rng(2)
        b = rng.standard_normal((3, 5))
        self._check(lambda t, x: t.matmul(x, t.leaf(b)), rng.standard_normal((4, 3)),
                    (4, 5))

    def test_softmax_fd(self):
        self._check(lambda t, x: t.softmax_rows(x),
                    make_rng(3).standard_normal((4, 6)), (4, 6))

    def test_gelu_fd(self):
        self._check(lambda t, x: t.gelu(x),
                    make_rng(4).standard_normal((3, 7)), (3, 7))

    def test_layer_norm_fd_all_inputs(self):
        rng = make_rng(5)
        x = rng.standard_normal((3, 6))
        gain = rng.standard_normal(6)
        bias = rng.standard_normal(6)
        seed = rng.standard_normal((3, 6))

        def scalar_of(which):
            def f(v):
                parts = {"x": x, "gain": gain, "bias": bias, which: v}
                tape = Tape()
                out = tape.layer_norm_rows(tape.leaf(parts["x"]),
                                           tape.leaf(parts["gain"]),
                                           tape.leaf(parts["bias"]))
                return float((out.value * seed).sum())
            return f

        tape = Tape()
        lx, lg, lb = tape.leaf(x), tape.leaf(gain), tape.leaf(bias)
        out = tape.layer_norm_rows(lx, lg, lb)
        tape.backward([(out, seed)])
        for leaf, ref, name in ((lx, x, "x"), (lg, gain, "gain"), (lb, bias, "bias")):
            fd = central_diff(scalar_of(name), ref)
            assert max_rel_err(leaf.grad, fd) < 1e-6, name

    def test_l2_normalize_fd(self):
        self._check(lambda t, x: t.l2_normalize_rows(x),
                    make_rng(6).standard_normal((4, 5)), (4, 5))

    def test_concat_transpose_scale_add_fd(self):
        rng = make_rng(7)
        other = rng.standard_normal((3, 4))

        def build(t, x):
            y = t.concat([t.scale(x, 0.7), t.add(x, t.leaf(other))])
            return t.transpose(y)

        self._check(build, rng.standard_normal((3, 4)), (8, 3))

    def test_composed_softmax_matmul_fd(self):
        rng = make_rng(8)
        w = rng.standard_normal((5, 5))
        self._check(lambda t, x: t.softmax_rows(t.matmul(x, t.leaf(w))),
                    rng.standard_normal((4, 5)), (4, 5))

    def test_single_precision_tolerance(self):
        # the same composition at float32 still matches FD at 1e-4
        rng = make_rng(9)
        w = rng.standard_normal((5, 5)).astype(np.float32)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        seed = rng.standard_normal((4, 5)).astype(np.float32)

        tape = Tape()
        leaf = tape.leaf(x)
        out = tape.softmax_rows(tape.matmul(leaf, tape.leaf(w)))
        tape.backward([(out, seed)])

        def scalar(xv):
            tape = Tape()
            out = tape.softmax_rows(tape.matmul(tape.leaf(xv.astype(np.float64)),
                                                tape.leaf(w.astype(np.float64))))
            return float((out.value * seed).sum())

        fd = central_diff(scalar, x.astype(np.float64))
        assert max_rel_err(leaf.grad, fd, floor=1e-4) < 1e-4

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError, match="empty tape"):
            Tape().backward([])

    def test_foreign_variable_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf(np.zeros((2, 2)))
        t2.leaf(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not recorded on this tape"):
            t2.backward([(x, np.zeros((2, 2)))])

    def test_mixing_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.zeros((2, 2)))
        b = t2.leaf(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="different tape"):
            t1.add(a, b)


class TestDeterminism:
    def test_kernels_bit_identical_across_calls(self):
        rng = make_rng(10)
        x = rng.standard_normal((16, 16)).astype(np.float32)
        w = rng.standard_normal((16, 16)).astype(np.float32)
        first = softmax_rows(matmul(x, w))
        second = softmax_rows(matmul(x, w))
        assert first.tobytes() == second.tobytes()
