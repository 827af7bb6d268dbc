"""Neural-network primitives against naive loop references."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcfnet import ops
from hcfnet.errors import ContractError, ShapeError
from hcfnet.network import Network, NetworkConfig
from hcfnet.ops import (
    batch_norm,
    bilinear_resize,
    channel_conv1d,
    conv2d,
    conv_transpose2d,
    max_pool2d,
    softmax,
    unfold_patches,
)
from hcfnet.tensor import Tensor, backward, mul, no_grad, tape_length, tsum
from hcfnet.train import infer_image

from finite_difference import finite_difference_check
from reference import (
    batch_norm_composed,
    batch_norm_eval_composed,
    batch_norm_train_naive,
    bilinear_naive,
    channel_conv1d_naive,
    conv2d_naive,
    conv_transpose2d_naive,
    fold_patches_naive,
    max_pool2d_naive,
    softmax_naive,
)


def rand(shape, seed, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(shape)


class TestConv2d:
    def test_pointwise_scaling(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        assert np.array_equal(conv2d(x, w).data, np.full((1, 1, 3, 3), 2.0))

    def test_impulse_response(self):
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(Tensor(x), w, padding=1).data
        expected = np.zeros((5, 5))
        expected[1:4, 1:4] = 1.0
        assert np.array_equal(out[0, 0], expected)

    def test_dilation_tap_offsets(self):
        x = np.zeros((1, 1, 9, 9))
        x[0, 0, 4, 4] = 1.0
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(Tensor(x), w, padding=2, dilation=2).data[0, 0]
        hot = {(i, j) for i, j in zip(*np.nonzero(out))}
        assert hot == {(4 + a, 4 + b) for a in (-2, 0, 2) for b in (-2, 0, 2)}

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_matches_naive_grid(self, stride, padding, dilation, grouped):
        rng = np.random.default_rng(stride * 100 + padding * 10 + dilation + grouped)
        c = 4
        groups = c if grouped else 1
        size = 2 * padding + dilation * 2 + 1 + rng.integers(0, 3) * stride
        x = rng.standard_normal((2, c, size, size))
        w = rng.standard_normal((c, c // groups, 3, 3))
        b = rng.standard_normal(c)
        out = conv2d(
            Tensor(x), Tensor(w), Tensor(b),
            stride=stride, padding=padding, dilation=dilation, groups=groups,
        )
        ref = conv2d_naive(x, w, b, stride, padding, dilation, groups)
        assert np.max(np.abs(out.data - ref)) < 1e-10

    @pytest.mark.parametrize("groups", [2, 4])
    def test_grouped_equals_blockwise_dense(self, groups):
        rng = np.random.default_rng(groups)
        c = 8
        x = rng.standard_normal((1, c, 6, 6))
        w = rng.standard_normal((c, c // groups, 3, 3))
        grouped = conv2d(Tensor(x), Tensor(w), padding=1, groups=groups).data
        per = c // groups
        pieces = [
            conv2d(
                Tensor(x[:, g * per : (g + 1) * per]),
                Tensor(w[g * per : (g + 1) * per]),
                padding=1,
            ).data
            for g in range(groups)
        ]
        assert np.allclose(grouped, np.concatenate(pieces, axis=1), atol=1e-12)

    def test_group_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 1, 1, 1))), groups=2)

    def test_output_extent_must_be_positive(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    @pytest.mark.parametrize(
        "stride,padding,dilation,groups",
        [(1, 1, 1, 1), (2, 0, 1, 1), (1, 2, 2, 1), (1, 1, 1, 4), (2, 2, 3, 2)],
    )
    def test_gradients(self, stride, padding, dilation, groups):
        rng = np.random.default_rng(17)
        size = 2 * padding + dilation * 2 + 2
        x = Tensor(rng.standard_normal((1, 4, size, size)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4 // groups, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)

        def head(t):
            out = conv2d(t, w, b, stride=stride, padding=padding,
                         dilation=dilation, groups=groups)
            return tsum(mul(out, Tensor(rand(out.shape, 3))))

        assert finite_difference_check(head, x) < 1e-4

        def w_head(t):
            out = conv2d(x, t, b, stride=stride, padding=padding,
                         dilation=dilation, groups=groups)
            return tsum(mul(out, Tensor(rand(out.shape, 3))))

        assert finite_difference_check(w_head, w) < 1e-4


class TestConv2dBands:
    """The forward gathers whole output rows per band; bands must not show."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 3])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("band_rows", [1, 3])
    def test_banded_matches_naive(self, monkeypatch, stride, padding, dilation, grouped,
                                  band_rows):
        rng = np.random.default_rng(stride * 100 + padding * 10 + dilation + grouped)
        n, c, oh, ow = 2, 4, 7, 5
        groups = c if grouped else 1
        span = 2 * dilation + 1
        h = (oh - 1) * stride + span - 2 * padding
        w = (ow - 1) * stride + span - 2 * padding
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((c, c // groups, 3, 3))
        b = rng.standard_normal(c)
        field = Tensor(rng.standard_normal((n, c, oh, ow)))

        def run(band_bytes):
            monkeypatch.setattr(ops, "_BAND_BYTES", band_bytes)
            leaves = [Tensor(v, requires_grad=True) for v in (x, wt, b)]
            out = conv2d(*leaves, stride=stride, padding=padding, dilation=dilation,
                         groups=groups)
            backward(tsum(mul(out, field)))
            return out.data, [t.grad for t in leaves]

        # 7 rows split 1+1+...+1 or 3+3+1 (a ragged last band).
        out, grads = run(band_rows * n * c * 9 * ow * 8)
        assert out.shape == (n, c, oh, ow)
        ref = conv2d_naive(x, wt, b, stride, padding, dilation, groups)
        assert np.max(np.abs(out - ref)) < 1e-10
        # The backward bands the input gradient too; every gradient must be
        # bitwise what a single band gives.
        for got, want in zip(grads, run(sys.maxsize)[1]):
            assert np.array_equal(got, want)

    def test_frame_bitwise_equal_to_single_band(self, monkeypatch):
        # The 16-channel 3x3 convs at 256x256 need 75 MB of columns, so the
        # production constant splits them into many bands.
        assert ops._BAND_BYTES < 16 * 9 * 256 * 256 * 8
        net = Network(NetworkConfig(dropout=0.0), seed=3)
        image = np.random.default_rng(4).random((256, 256))
        banded = infer_image(net, image)
        monkeypatch.setattr(ops, "_BAND_BYTES", sys.maxsize)
        single = infer_image(net, image)
        assert banded.tobytes() == single.tobytes()

    def test_no_grad_peak_memory_is_bounded(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((1, 16, 256, 256)))
        w = Tensor(rng.standard_normal((16, 16, 3, 3)))
        output = 16 * 256 * 256 * 8
        padded = 16 * 258 * 258 * 8
        budget = output + padded + ops._BAND_BYTES + (1 << 20)
        tracemalloc.start()
        try:
            with no_grad():
                out = conv2d(x, w, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 16, 256, 256)
        assert peak <= budget, f"peak {peak} B exceeds {budget} B"


class TestConvTranspose:
    def test_doubles_extent_and_counts(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = conv_transpose2d(x, w, Tensor(np.zeros(1)))
        assert out.shape == (1, 1, 4, 4)
        assert out.data.sum() == 16.0

    def test_zero_input(self):
        bias = np.arange(4.0)
        out = conv_transpose2d(
            Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.ones((2, 4, 2, 2))), Tensor(bias)
        )
        assert np.array_equal(out.data, np.broadcast_to(bias.reshape(1, 4, 1, 1), (1, 4, 6, 6)))

    def test_matches_naive(self):
        x = rand((2, 3, 4, 5), 0)
        w = rand((3, 2, 2, 2), 1)
        b = rand(2, 2)
        out = conv_transpose2d(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, conv_transpose2d_naive(x, w, b), atol=1e-12)

    def test_adjoint_of_strided_conv(self):
        # <convT(x; w), y> == <x, conv(y; w, stride 2)> with w read as
        # [outC, inC, 2, 2] on the conv side.
        x = rand((1, 3, 4, 4), 5)
        y = rand((1, 5, 8, 8), 6)
        w = rand((3, 5, 2, 2), 7)
        left = float((conv_transpose2d(Tensor(x), Tensor(w), Tensor(np.zeros(5))).data * y).sum())
        right = float((x * conv2d(Tensor(y), Tensor(w), stride=2).data).sum())
        assert abs(left - right) < 1e-10

    def test_gradients(self):
        x = Tensor(rand((1, 2, 3, 3), 8), requires_grad=True)
        w = Tensor(rand((2, 3, 2, 2), 9), requires_grad=True)
        b = Tensor(rand(3, 11))
        field = Tensor(rand((1, 3, 6, 6), 10))

        def head(t):
            return tsum(mul(conv_transpose2d(t, w, b), field))

        assert finite_difference_check(head, x) < 1e-4


class TestMaxPool:
    def test_single_window(self):
        out = max_pool2d(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)))
        assert out.data.reshape(-1)[0] == 4.0

    def test_constant_tie_routes_first(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        backward(tsum(max_pool2d(x)))
        assert np.array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_matches_naive(self):
        x = rand((2, 3, 4, 6), 11)
        assert np.array_equal(max_pool2d(Tensor(x)).data, max_pool2d_naive(x))

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            max_pool2d(Tensor(np.zeros((1, 1, 3, 4))))

    def test_gradients(self):
        x = Tensor(rand((1, 2, 4, 4), 12), requires_grad=True)
        field = Tensor(rand((1, 2, 2, 2), 13))
        assert finite_difference_check(lambda t: tsum(mul(max_pool2d(t), field)), x) < 1e-4


class TestBilinearResize:
    def test_identity_bitwise(self):
        x = rand((1, 2, 5, 7), 14)
        out = bilinear_resize(Tensor(x), 5, 7)
        assert out.data.tobytes() == x.tobytes()

    def test_constant_preserved(self):
        x = Tensor(np.full((1, 1, 3, 3), 2.5))
        for oh, ow in [(1, 1), (5, 9), (6, 2)]:
            assert np.allclose(bilinear_resize(x, oh, ow).data, 2.5, atol=1e-12)

    def test_two_to_four_hand_weights(self):
        x = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(1, 1, 2, 2))
        expected = np.array(
            [
                [0.0, 0.25, 0.75, 1.0],
                [0.25, 0.375, 0.625, 0.75],
                [0.75, 0.625, 0.375, 0.25],
                [1.0, 0.75, 0.25, 0.0],
            ]
        )
        assert np.allclose(bilinear_resize(x, 4, 4).data[0, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("out_hw", [(3, 3), (8, 8), (2, 6), (7, 3)])
    def test_matches_naive(self, out_hw):
        x = rand((2, 2, 4, 5), 15)
        out = bilinear_resize(Tensor(x), *out_hw)
        assert np.allclose(out.data, bilinear_naive(x, *out_hw), atol=1e-12)

    def test_gradients(self):
        x = Tensor(rand((1, 2, 3, 4), 16), requires_grad=True)
        field = Tensor(rand((1, 2, 5, 6), 17))
        assert (
            finite_difference_check(lambda t: tsum(mul(bilinear_resize(t, 5, 6), field)), x)
            < 1e-4
        )


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_stable(self):
        out = softmax(Tensor([1000.0, 1000.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8).map(np.array)
    )
    def test_normalization(self, values):
        out = softmax(Tensor(values), axis=0)
        assert abs(out.data.sum() - 1.0) <= 1e-12
        assert np.all(out.data > 0)

    def test_matches_naive(self):
        x = rand((2, 5, 3), 18)
        for axis in range(3):
            assert np.allclose(
                softmax(Tensor(x), axis=axis).data, softmax_naive(x, axis), atol=1e-12
            )

    def test_gradients(self):
        x = Tensor(rand((3, 4), 19), requires_grad=True)
        field = Tensor(rand((3, 4), 20))
        assert finite_difference_check(lambda t: tsum(mul(softmax(t, 1), field)), x) < 1e-4


class TestUnfoldFold:
    def test_patch_one_is_reshape(self):
        x = rand((1, 2, 3, 3), 21)
        u = unfold_patches(Tensor(x), 1)
        assert u.shape == (1, 2, 1, 9)
        assert np.array_equal(fold_patches_naive(u.data, 1, 3, 3), x)

    def test_hand_enumeration(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        u = unfold_patches(x, 2)
        assert np.array_equal(u.data[0, 0, :, 0], [0.0, 1.0, 4.0, 5.0])

    @given(st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 2, 4]))
    @settings(max_examples=15)
    def test_round_trip_both_orders(self, n, c, p):
        x = np.random.default_rng(n * 10 + c).standard_normal((n, c, 2 * p, 3 * p))
        u = unfold_patches(Tensor(x), p)
        folded = fold_patches_naive(u.data, p, 2 * p, 3 * p)
        assert np.array_equal(folded, x)
        # fold then unfold on the patch layout is also identity
        again = unfold_patches(Tensor(folded), p)
        assert np.array_equal(again.data, u.data)

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            unfold_patches(Tensor(np.zeros((1, 1, 5, 4))), 2)

    def test_gradients(self):
        x = Tensor(rand((1, 2, 4, 4), 22), requires_grad=True)
        field = Tensor(rand((1, 2, 4, 4), 23))
        assert (
            finite_difference_check(lambda t: tsum(mul(unfold_patches(t, 2), field)), x) < 1e-4
        )


class TestBatchNorm:
    def _state(self, c):
        gamma = Tensor(np.ones(c), requires_grad=True)
        beta = Tensor(np.zeros(c), requires_grad=True)
        return gamma, beta, np.zeros(c), np.ones(c)

    def test_prenormalized_identity(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((4, 2, 8, 8))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        gamma, beta, rm, rv = self._state(2)
        out = batch_norm(Tensor(x), gamma, beta, rm, rv, train=True)
        # the epsilon inside sqrt(var + eps) rescales a unit-variance batch
        # by 1/sqrt(1 + eps), so the deviation floor is |x| * eps / 2
        assert np.max(np.abs(out.data - x)) < np.abs(x).max() * 1e-5

    def test_gamma_zero_gives_beta(self):
        x = Tensor(rand((2, 3, 4, 4), 25))
        gamma = Tensor(np.zeros(3))
        beta = Tensor(np.array([1.0, 2.0, 3.0]))
        out = batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), train=True)
        for c in range(3):
            assert np.allclose(out.data[:, c], beta.data[c])

    def test_train_output_moments(self):
        x = Tensor(rand((4, 3, 6, 6), 26, scale=3.0))
        gamma, beta, rm, rv = self._state(3)
        out = batch_norm(x, gamma, beta, rm, rv, train=True).data
        assert np.max(np.abs(out.mean(axis=(0, 2, 3)))) < 1e-10
        assert np.max(np.abs(out.var(axis=(0, 2, 3)) - 1.0)) < 1e-4

    def test_matches_naive_train(self):
        x = rand((3, 4, 5, 5), 27)
        gamma = Tensor(rand(4, 28))
        beta = Tensor(rand(4, 29))
        out = batch_norm(Tensor(x), gamma, beta, np.zeros(4), np.ones(4), train=True)
        ref = batch_norm_train_naive(x, gamma.data, beta.data)
        assert np.max(np.abs(out.data - ref)) < 1e-10

    def test_running_stats_updated_and_used(self):
        x = rand((4, 2, 4, 4), 30, scale=2.0)
        gamma, beta, rm, rv = self._state(2)
        batch_norm(Tensor(x), gamma, beta, rm, rv, train=True)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3), ddof=1)
        assert np.allclose(rm, 0.1 * mu, atol=1e-12)
        assert np.allclose(rv, 0.9 + 0.1 * var, atol=1e-12)
        out = batch_norm(Tensor(x), gamma, beta, rm, rv, train=False)
        expected = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_channel_mismatch(self):
        gamma, beta, rm, rv = self._state(3)
        with pytest.raises(ShapeError):
            batch_norm(Tensor(np.zeros((1, 2, 2, 2))), gamma, beta, rm, rv, train=True)

    @pytest.mark.parametrize("shape", [(3, 4, 5, 5), (1, 2, 3, 6), (4, 3, 1, 1), (1, 1, 1, 1)])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_train_bitwise_equal_to_composition(self, shape, x_grad):
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        x = rng.standard_normal(shape) * 3.0 + 1.0
        affine = rng.standard_normal((2, c))
        buffers = rng.random((2, c)) + 0.5
        field = Tensor(rng.standard_normal(shape))

        def run(fn):
            leaves = [Tensor(x, requires_grad=x_grad)]
            leaves += [Tensor(v, requires_grad=True) for v in affine]
            rm, rv = buffers[0].copy(), buffers[1].copy()
            before = tape_length()
            out = fn(*leaves, rm, rv)
            nodes = tape_length() - before
            backward(tsum(mul(out, field)))
            return out.data, rm, rv, [t.grad for t in leaves], nodes

        fused = run(lambda *a: batch_norm(*a, train=True))
        composed = run(batch_norm_composed)
        assert fused[4] == 1 and composed[4] == (11 if x_grad else 4)
        for got, want in zip(fused[:3], composed[:3]):
            assert np.array_equal(got, want)
        assert (fused[3][0] is None) == (not x_grad)
        for got, want in zip(fused[3], composed[3]):
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(3, 4, 5, 5), (1, 2, 3, 6), (4, 3, 1, 1), (1, 1, 1, 1)])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_eval_bitwise_equal_to_composition(self, shape, x_grad):
        rng = np.random.default_rng(sum(shape) + 1)
        c = shape[1]
        x = rng.standard_normal(shape) * 3.0 + 1.0
        affine = rng.standard_normal((2, c))
        rm, rv = rng.standard_normal(c), rng.random(c) + 0.5
        buffers = rm.copy(), rv.copy()
        field = Tensor(rng.standard_normal(shape))

        def run(fn):
            leaves = [Tensor(x, requires_grad=x_grad)]
            leaves += [Tensor(v, requires_grad=True) for v in affine]
            before = tape_length()
            out = fn(*leaves, rm, rv)
            nodes = tape_length() - before
            backward(tsum(mul(out, field)))
            return out.data, [t.grad for t in leaves], nodes

        fused = run(lambda *a: batch_norm(*a, train=False))
        composed = run(batch_norm_eval_composed)
        assert fused[2] == 1 and composed[2] == (6 if x_grad else 4)
        assert fused[0].tobytes() == composed[0].tobytes()
        assert (fused[1][0] is None) == (not x_grad)
        for got, want in zip(fused[1], composed[1]):
            assert (got is None) == (want is None)
            assert got is None or got.tobytes() == want.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip((rm, rv), buffers))

    def test_train_overflowing_variance_rejected(self):
        gamma, beta, rm, rv = self._state(1)
        x = Tensor(np.array([-1e200, 1e200]).reshape(2, 1, 1, 1))
        with pytest.raises(ContractError), np.errstate(over="ignore"):
            batch_norm(x, gamma, beta, rm, rv, train=True)
        assert rm[0] == 0.0 and rv[0] == 1.0

    def test_gradients_train_mode(self):
        x = Tensor(rand((3, 2, 3, 3), 31), requires_grad=True)
        gamma = Tensor(rand(2, 32), requires_grad=True)
        beta = Tensor(rand(2, 33), requires_grad=True)
        field = Tensor(rand((3, 2, 3, 3), 34))

        def head(t):
            rm, rv = np.zeros(2), np.ones(2)
            return tsum(mul(batch_norm(t, gamma, beta, rm, rv, train=True), field))

        assert finite_difference_check(head, x) < 1e-4


class TestChannelConv1d:
    def test_matches_naive(self):
        x = rand((3, 8), 35)
        w = rand(3, 36)
        out = channel_conv1d(Tensor(x), Tensor(w))
        assert np.allclose(out.data, channel_conv1d_naive(x, w), atol=1e-12)

    def test_gradients(self):
        x = Tensor(rand((2, 6), 37), requires_grad=True)
        w = Tensor(rand(3, 38), requires_grad=True)
        field = Tensor(rand((2, 6), 39))
        assert (
            finite_difference_check(lambda t: tsum(mul(channel_conv1d(t, w), field)), x) < 1e-4
        )
        assert (
            finite_difference_check(lambda t: tsum(mul(channel_conv1d(x, t), field)), w) < 1e-4
        )
