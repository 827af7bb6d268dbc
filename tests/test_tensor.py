"""Tensor core: construction, autodiff semantics, serialization."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from hcfnet.errors import ContractError, DomainError, FileFormatError, ShapeError
from hcfnet.tensor import (
    Parameter,
    Tensor,
    add,
    amax,
    backward,
    concat,
    create,
    div,
    finite_difference_check,
    matmul,
    mul,
    narrow,
    no_grad,
    pad2d,
    permute_channels,
    relu,
    reshape,
    set_finite_checks,
    sigmoid,
    softplus,
    sqrt,
    sub,
    tape_length,
    tensor_from_bytes,
    tensor_to_bytes,
    tmean,
    transpose,
    tsum,
    zero_grads,
)

small_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=6),
    elements=st.floats(-10, 10),
)


class TestCreate:
    def test_zeros(self):
        assert np.array_equal(create((2, 2), "zeros").data, np.zeros((2, 2)))

    def test_constant(self):
        assert np.array_equal(create((3,), "constant", value=1.5).data, [1.5, 1.5, 1.5])

    def test_ones(self):
        assert np.array_equal(create((2, 3), "ones").data, np.ones((2, 3)))

    def test_uniform_reproducible(self):
        a = create((4,), "uniform", seed=7, low=0.0, high=1.0)
        b = create((4,), "uniform", seed=7, low=0.0, high=1.0)
        assert a.data.tobytes() == b.data.tobytes()

    def test_kaiming_bound(self):
        t = create((8, 4, 3, 3), "kaiming", seed=0)
        bound = np.sqrt(6.0 / (4 * 3 * 3))
        assert np.all(np.abs(t.data) <= bound)

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            create((0, 2), "zeros")

    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_random_init_needs_seed(self):
        with pytest.raises(ContractError):
            create((2,), "uniform")

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Tensor(np.array([1.0, np.nan]))

    def test_finite_checks_toggle(self):
        set_finite_checks(False)
        try:
            t = Tensor(np.array([np.inf]))
            assert np.isinf(t.data[0])
        finally:
            set_finite_checks(True)


class TestElementwise:
    def test_sigmoid_origin(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_mul_hand_case(self):
        out = mul(Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0]))
        assert np.array_equal(out.data, [4.0, 10.0, 18.0])

    def test_relu_definition(self):
        assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_sigmoid_extreme_stable(self):
        out = sigmoid(Tensor([-500.0, 500.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] < 1e-200 and out.data[1] == 1.0

    def test_softplus_matches_log1p_exp(self):
        x = np.linspace(-20, 20, 41)
        assert np.allclose(softplus(Tensor(x)).data, np.log1p(np.exp(x)), atol=1e-12)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))

    def test_div_by_tensor(self):
        out = div(Tensor([8.0, 9.0]), Tensor([2.0, 3.0]))
        assert np.array_equal(out.data, [4.0, 3.0])


class TestBackward:
    def test_square_sum(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(tsum(mul(x, x)))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_sigmoid_derivative_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(tsum(sigmoid(x)))
        assert np.allclose(x.grad, [0.25])

    def test_reused_leaf_accumulates_paths(self):
        x = Tensor([3.0], requires_grad=True)
        backward(tsum(add(mul(x, x), x)))  # d/dx (x^2 + x) = 2x + 1
        assert np.allclose(x.grad, [7.0])

    def test_grads_accumulate_across_calls(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        backward(tsum(x))
        backward(tsum(x))
        assert np.allclose(x.grad, [2.0, 2.0])
        zero_grads([x])
        assert x.grad is None

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        with pytest.raises(ContractError):
            backward(y)

    def test_backward_consumes_tape(self):
        x = Tensor([1.0], requires_grad=True)
        loss = tsum(mul(x, x))
        backward(loss)
        assert tape_length() == 0

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            mul(x, x)
        assert tape_length() == 0

    @given(small_arrays)
    def test_broadcast_ones_identity(self, values):
        x = Tensor(values, requires_grad=True)
        ones = Tensor(np.ones((1,) * values.ndim))
        out = mul(x, ones)
        assert np.array_equal(out.data, values)
        backward(tsum(out))
        assert np.array_equal(x.grad, np.ones_like(values))

    def test_broadcast_unbroadcast_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        backward(tsum(add(a, b)))
        assert a.grad.shape == (2, 3) and np.all(a.grad == 1.0)
        assert b.grad.shape == (1, 3) and np.all(b.grad == 2.0)


class TestReductionsAndStructure:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(tsum(x, axis=0).data, x.data.sum(axis=0))
        assert tsum(x, axis=1, keepdims=True).shape == (3, 1)
        assert tmean(x).item() == x.data.mean()

    def test_amax_first_occurrence_tie(self):
        x = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        backward(tsum(amax(x, axis=1)))
        assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])

    def test_reshape_transpose_roundtrip(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        y = transpose(reshape(x, (6, 4)), (1, 0))
        assert y.shape == (4, 6)
        backward(tsum(mul(y, y)))
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_concat_narrow_inverse(self):
        a = Tensor(np.ones((1, 2, 2, 2)))
        b = Tensor(2.0 * np.ones((1, 3, 2, 2)))
        joined = concat([a, b], axis=1)
        assert np.array_equal(narrow(joined, 1, 0, 2).data, a.data)
        assert np.array_equal(narrow(joined, 1, 2, 3).data, b.data)

    def test_narrow_bounds(self):
        with pytest.raises(ShapeError):
            narrow(Tensor(np.zeros((2, 2))), 1, 1, 2)

    def test_permute_channels_inverse_grad(self):
        x = Tensor(np.arange(8.0).reshape(1, 4, 1, 2), requires_grad=True)
        perm = [2, 0, 3, 1]
        y = permute_channels(x, perm)
        assert np.array_equal(y.data, x.data[:, perm])
        weights = Tensor(np.arange(8.0).reshape(1, 4, 1, 2))
        backward(tsum(mul(y, weights)))
        expected = np.zeros((1, 4, 1, 2))
        expected[:, perm] = weights.data
        assert np.array_equal(x.grad, expected)

    def test_pad2d_values_and_grad(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        y = pad2d(x, 1, 0, 0, 2)
        assert y.shape == (1, 1, 3, 4)
        assert y.data.sum() == 4.0
        backward(tsum(y))
        assert np.array_equal(x.grad, np.ones((1, 1, 2, 2)))

    def test_matmul_batched(self):
        a = np.random.default_rng(0).standard_normal((2, 3, 4))
        b = np.random.default_rng(1).standard_normal((4, 5))
        out = matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.data, a @ b)


class TestFiniteDifference:
    def test_linear(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 3)), requires_grad=True)
        assert finite_difference_check(tsum, x) < 1e-8

    def test_cubic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        err = finite_difference_check(lambda t: tsum(mul(mul(t, t), t)), x, eps=1e-4)
        assert err < 1e-6

    def test_eps_domain(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            finite_difference_check(tsum, x, eps=1e-2)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda t: tsum(sigmoid(t)),
            lambda t: tsum(softplus(t)),
            lambda t: tsum(sqrt(add(mul(t, t), Tensor([1.0])))),
            lambda t: tmean(mul(t, t)),
            lambda t: tsum(amax(t, axis=1)),
            lambda t: tsum(div(t, Tensor([2.0]))),
        ],
    )
    def test_op_grid(self, fn):
        x = Tensor(
            0.5 + np.random.default_rng(5).uniform(0.1, 1.0, (4, 5)), requires_grad=True
        )
        assert finite_difference_check(fn, x) < 1e-4

    def test_composite_graph(self):
        w = Tensor(np.random.default_rng(7).standard_normal((5, 3)))

        def f(t):
            return tsum(sigmoid(matmul(relu(t), w)))

        x = Tensor(np.random.default_rng(8).standard_normal((2, 5)) + 0.3, requires_grad=True)
        assert finite_difference_check(f, x) < 1e-4


class TestSerialization:
    def test_round_trip_bitwise(self):
        t = Tensor(np.random.default_rng(3).standard_normal((2, 3, 4)))
        back = tensor_from_bytes(tensor_to_bytes(t.data))
        assert back.data.tobytes() == t.data.tobytes()
        assert back.shape == t.shape

    def test_bad_magic(self):
        blob = b"XXXX" + tensor_to_bytes(np.zeros(2))[4:]
        with pytest.raises(FileFormatError):
            tensor_from_bytes(blob)

    def test_truncated_payload(self):
        blob = tensor_to_bytes(np.zeros(4))[:-8]
        with pytest.raises(FileFormatError):
            tensor_from_bytes(blob)

    def test_zero_extent_is_format_error(self):
        blob = b"HCFT" + struct.pack("<3I", 2, 3, 0)
        with pytest.raises(FileFormatError, match="zero extent"):
            tensor_from_bytes(blob)


class TestParameter:
    def test_requires_grad_default(self):
        p = Parameter(np.zeros((2, 2)))
        assert p.requires_grad and p.is_leaf

    def test_determinism_same_sequence(self):
        def run():
            x = create((3, 3), "uniform", seed=11, low=-1, high=1, requires_grad=True)
            y = tsum(sigmoid(mul(x, x)))
            backward(y)
            return x.grad.tobytes()

        assert run() == run()
