"""Tests for the DASI block: the sigmoid gate, bitwise equal to the paper's
partition-wise form, and the aligned three-stream fusion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcfnet.dasi import DASI, gated_fuse
from hcfnet.errors import ConfigError, ContractError, ShapeError
from hcfnet.gradcheck import run_case
from hcfnet.tensor import (
    Tensor,
    add,
    backward,
    clear_tape,
    concat,
    mul,
    narrow,
    sigmoid,
    sub,
    tape_length,
    tsum,
)

from reference import dasi_naive, gated_fuse_naive


def rng(seed):
    return np.random.default_rng(seed)


def random_triplet(seed, shape=(2, 8, 4, 4)):
    g = rng(seed)
    return tuple(g.normal(size=shape) for _ in range(3))


def partitioned_gated_fuse(current, fine, context):
    """The paper's form on the tape: gate each of four channel partitions
    separately, then concatenate them."""
    quarter = current.shape[1] // 4
    parts = []
    for i in range(4):
        u = narrow(current, 1, i * quarter, quarter)
        f = narrow(fine, 1, i * quarter, quarter)
        c = narrow(context, 1, i * quarter, quarter)
        alpha = sigmoid(u)
        parts.append(add(mul(alpha, f), mul(sub(1.0, alpha), c)))
    return concat(parts, 1)


def fuse_and_grads(fuse, u, l, h, alias):
    """Forward output and input gradients of a weighted sum of ``fuse``.

    ``alias`` names the streams that are the current tensor itself, as at the
    boundary stages of the network."""
    current = Tensor(u, requires_grad=True)
    fine = current if "fine" in alias else Tensor(l, requires_grad=True)
    context = current if "context" in alias else Tensor(h, requires_grad=True)
    field = Tensor(rng(99).normal(size=u.shape))
    out = fuse(current, fine, context)
    backward(tsum(mul(out, field)))
    grads = [t.grad for t in {id(t): t for t in (current, fine, context)}.values()]
    return out.data, grads


class TestGatedFuse:
    def test_zero_gate_averages(self):
        u, l, h = random_triplet(0)
        out = gated_fuse(Tensor(np.zeros_like(u)), Tensor(l), Tensor(h))
        np.testing.assert_allclose(out.data, 0.5 * (l + h), atol=1e-12)

    def test_equal_streams_pass_through(self):
        u, l, _ = random_triplet(1)
        out = gated_fuse(Tensor(u), Tensor(l), Tensor(l.copy()))
        np.testing.assert_allclose(out.data, l, atol=1e-12)

    def test_saturated_gate_selects_fine(self):
        _, l, h = random_triplet(2)
        out = gated_fuse(Tensor(np.full_like(l, 50.0)), Tensor(l), Tensor(h))
        assert np.abs(out.data - l).max() < 1e-18

    def test_saturated_gate_selects_context(self):
        _, l, h = random_triplet(3)
        out = gated_fuse(Tensor(np.full_like(l, -50.0)), Tensor(l), Tensor(h))
        assert np.abs(out.data - h).max() < 1e-18

    def test_matches_reference(self):
        u, l, h = random_triplet(4)
        out = gated_fuse(Tensor(u), Tensor(l), Tensor(h))
        np.testing.assert_allclose(out.data, gated_fuse_naive(u, l, h), atol=1e-12)

    @given(st.integers(0, 10_000))
    def test_convex_combination_bound(self, seed):
        u, l, h = random_triplet(seed)
        out = gated_fuse(Tensor(u), Tensor(l), Tensor(h)).data
        lo = np.minimum(l, h)
        hi = np.maximum(l, h)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_partition_independence_pre_conv(self):
        # Perturbing the gate inside partition 2 must not move any other
        # partition of the fused tensor.
        u, l, h = random_triplet(5)
        base = gated_fuse(Tensor(u), Tensor(l), Tensor(h)).data
        bumped = u.copy()
        bumped[:, 2:4] += 3.0  # partition 1 of 4 over 8 channels
        out = gated_fuse(Tensor(bumped), Tensor(l), Tensor(h)).data
        changed = np.abs(out - base).reshape(out.shape[0], 4, 2, *out.shape[2:])
        assert changed[:, 1].max() > 0
        np.testing.assert_array_equal(changed[:, 0], 0.0)
        np.testing.assert_array_equal(changed[:, 2], 0.0)
        np.testing.assert_array_equal(changed[:, 3], 0.0)

    def test_gate_derivatives_match_alpha(self):
        # d out / d fine = alpha and d out / d context = 1 - alpha, so the
        # fine stream dominates exactly where alpha > 0.5.
        u, l, h = random_triplet(6)
        lt, ht = Tensor(l, requires_grad=True), Tensor(h, requires_grad=True)
        backward(tsum(gated_fuse(Tensor(u), lt, ht)))
        alpha = 1.0 / (1.0 + np.exp(-u))
        np.testing.assert_allclose(lt.grad, alpha, atol=1e-12)
        np.testing.assert_allclose(ht.grad, 1.0 - alpha, atol=1e-12)
        np.testing.assert_array_equal(lt.grad > ht.grad, alpha > 0.5)

    @pytest.mark.parametrize("alias", [(), ("fine",), ("context",), ("fine", "context")])
    def test_bitwise_equal_to_partitioned_form(self, alias):
        u, l, h = random_triplet(7, shape=(2, 12, 5, 3))
        out, grads = fuse_and_grads(gated_fuse, u, l, h, alias)
        ref_out, ref_grads = fuse_and_grads(partitioned_gated_fuse, u, l, h, alias)
        assert np.array_equal(out, ref_out)
        assert len(grads) == len(ref_grads) == 3 - len(alias)
        for grad, ref in zip(grads, ref_grads):
            assert np.array_equal(grad, ref)

    def test_records_five_tape_nodes(self):
        u, l, h = random_triplet(8)
        clear_tape()
        gated_fuse(*(Tensor(a, requires_grad=True) for a in (u, l, h)))
        assert tape_length() == 5
        clear_tape()

    def test_shape_mismatch_rejected(self):
        u = Tensor(np.zeros((1, 8, 4, 4)))
        with pytest.raises(ShapeError):
            gated_fuse(u, Tensor(np.zeros((1, 8, 4, 5))), u)

    def test_indivisible_channels_rejected(self):
        bad = Tensor(np.zeros((1, 6, 4, 4)))
        with pytest.raises(ConfigError):
            gated_fuse(bad, bad, bad)


class TestDasi:
    def make_block(self, seed=7, channels=8, fine_channels=4, context_channels=16):
        return DASI(
            channels,
            fine_channels=fine_channels,
            context_channels=context_channels,
            rng=rng(seed),
        )

    def test_zero_streams_zero_output(self):
        block = self.make_block()
        for conv in (block.align_fine, block.align_context, block.fuse):
            conv.bias.data[...] = 0.0
        out = block(
            Tensor(np.zeros((1, 8, 4, 4))),
            Tensor(np.zeros((1, 4, 8, 8))),
            Tensor(np.zeros((1, 16, 2, 2))),
        )
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "channels,fine,ctx",
        [(8, (4, 8, 8), (16, 2, 2)), (4, None, (8, 2, 2)), (12, (8, 8, 8), (24, 2, 2))],
    )
    def test_output_shape_matches_current(self, channels, fine, ctx):
        block = DASI(
            channels,
            fine_channels=fine[0] if fine else None,
            context_channels=ctx[0],
            rng=rng(8),
        )
        current = Tensor(rng(9).normal(size=(2, channels, 4, 4)))
        fine_t = Tensor(rng(10).normal(size=(2,) + fine)) if fine else None
        ctx_t = Tensor(rng(11).normal(size=(2,) + ctx))
        assert block(current, fine_t, ctx_t).shape == current.shape

    def test_matches_reference_pipeline(self):
        block = self.make_block(seed=12)
        g = rng(13)
        current = g.normal(size=(1, 8, 4, 4))
        fine = g.normal(size=(1, 4, 8, 8))
        context = g.normal(size=(1, 16, 2, 2))
        out = block(Tensor(current), Tensor(fine), Tensor(context))
        expected = dasi_naive(
            current, fine, context,
            block.align_fine.weight.data, block.align_fine.bias.data,
            block.align_context.weight.data, block.align_context.bias.data,
            block.fuse.weight.data, block.fuse.bias.data,
            block.bn.gamma.data, block.bn.beta.data,
            block.bn.running_mean, block.bn.running_var,
        )
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_boundary_streams_substitute_current(self):
        # The finest block has no shallower stage: current stands in for fine.
        block = DASI(8, fine_channels=None, context_channels=16, rng=rng(14))
        current = rng(15).normal(size=(2, 8, 4, 4))
        context = rng(19).normal(size=(2, 16, 2, 2))
        out = block(Tensor(current), None, Tensor(context))
        expected = dasi_naive(
            current, None, context,
            None, None,
            block.align_context.weight.data, block.align_context.bias.data,
            block.fuse.weight.data, block.fuse.bias.data,
            block.bn.gamma.data, block.bn.beta.data,
            block.bn.running_mean, block.bn.running_var,
        )
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_stream_configuration_mismatch_rejected(self):
        block = self.make_block(seed=16)
        current = Tensor(np.zeros((1, 8, 4, 4)))
        context = Tensor(np.zeros((1, 16, 2, 2)))
        with pytest.raises(ContractError):
            block(current, None, context)  # block expects a fine stream
        finest = DASI(8, context_channels=16, rng=rng(17))
        with pytest.raises(ContractError):
            finest(current, Tensor(np.zeros((1, 4, 8, 8))), context)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ConfigError):
            DASI(6, context_channels=8, rng=rng(18))

    def test_gradients_spot_check(self):
        assert run_case("dasi", max_coords=2) < 1e-4
