"""Tests for network assembly: config validation, deterministic builds,
forward contracts, parameter/MAC accounting and checkpoint persistence."""

import functools
import hashlib
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hcfnet import checkpoint
from hcfnet.checkpoint import load_checkpoint, restore_network, save_checkpoint
from hcfnet.errors import ConfigError, ContractError, FileFormatError, ShapeError
from hcfnet.losses import deep_supervision_loss
from hcfnet.network import DoubleConv, Network, NetworkConfig, build_network, count_params_macs
from hcfnet.nn import Conv2d
from hcfnet.optim import Adam
from hcfnet.tensor import (
    Parameter,
    Tensor,
    backward,
    clear_tape,
    mul,
    no_grad,
    observe,
    tape_length,
    tsum,
)
from reference import network_forward_composed


def rng(seed):
    return np.random.default_rng(seed)


TOY_FULL = NetworkConfig(stages=2, widths=(8, 8), loss_weights=(1.0, 0.5))
TOY_BASE = NetworkConfig(
    stages=2,
    widths=(4, 8),
    use_ppa=False,
    use_dasi=False,
    use_mdcr=False,
    loss_weights=(1.0, 0.5),
)


class TestNetworkConfig:
    def test_default_is_valid(self):
        NetworkConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stages": 1, "widths": (8,), "loss_weights": (1.0,)},
            {"widths": (16, 32, 64, 128)},
            {"widths": (16, 32, 64, 128, 250)},
            {"widths": (16, 32, 64, 128, 0)},
            {"in_channels": 0},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"patch_sizes": (2,)},
            {"patch_sizes": (0, 4)},
            {"dilations": (1, 3, 5)},
            {"dilations": (1, 3, 5, 0)},
            {"loss_weights": (1.0, 0.5)},
            {"loss_weights": (1.0, 0.5, 0.25, 0.125, 0.0)},
            {"loss_weights": (1.0, 0.5, 0.25, 0.125, float("nan"))},
            {"loss_weights": (1.0, 0.5, 0.25, 0.125, float("inf"))},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NetworkConfig(**kwargs).validate()

    def test_dict_round_trip(self):
        cfg = NetworkConfig(stages=3, widths=(8, 16, 32), loss_weights=(1.0, 0.5, 0.25))
        assert NetworkConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        raw = NetworkConfig().to_dict()
        raw["depth"] = 9
        with pytest.raises(ConfigError):
            NetworkConfig.from_dict(raw)


class TestBuild:
    def test_same_seed_identical_parameters(self):
        a = build_network(TOY_FULL, seed=3)
        b = build_network(TOY_FULL, seed=3)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build_network(TOY_FULL, seed=3)
        b = build_network(TOY_FULL, seed=4)
        diffs = [
            np.abs(pa.data - pb.data).max()
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        ]
        assert max(diffs) > 0

    def test_ablated_modules_absent(self):
        net = build_network(TOY_BASE, seed=0)
        assert net.bottleneck is None
        assert net.fusers is None
        assert all(isinstance(enc, DoubleConv) for enc in net.encoders)

    def test_baseline_forward_on_64(self):
        net = build_network(
            NetworkConfig(use_ppa=False, use_dasi=False, use_mdcr=False), seed=0
        )
        with no_grad():
            logits = net(Tensor(rng(1).uniform(size=(1, 1, 64, 64))))
        assert len(logits) == 5
        assert all(z.shape == (1, 1, 64, 64) for z in logits)


class TestForward:
    def test_zero_image_finite_logits(self):
        net = build_network(NetworkConfig(), seed=0)
        with no_grad():
            logits = net(Tensor(np.zeros((1, 1, 64, 64))))
        assert len(logits) == 5
        for z in logits:
            assert z.shape == (1, 1, 64, 64)
            assert np.all(np.isfinite(z.data))

    def test_eval_mode_idempotent(self):
        net = build_network(TOY_FULL, seed=5)
        x = Tensor(rng(6).uniform(size=(2, 1, 16, 16)))
        with no_grad():
            first = [z.data.copy() for z in net(x, train=False)]
            second = [z.data.copy() for z in net(x, train=False)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_scale_order_finest_first(self):
        # Pin each head to a distinct constant: logit map s must come from
        # head s (constant maps survive bilinear upsampling unchanged).
        net = build_network(TOY_FULL, seed=7)
        for s, head in enumerate(net.heads):
            head.weight.data[...] = 0.0
            head.bias.data[...] = float(s + 1)
        with no_grad():
            logits = net(Tensor(rng(8).uniform(size=(1, 1, 16, 16))))
        for s, z in enumerate(logits):
            np.testing.assert_allclose(z.data, float(s + 1), atol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(1, 1, 16), (1, 2, 16, 16), (1, 1, 13, 16), (1, 1, 16, 9)]
    )
    def test_bad_inputs_rejected(self, shape):
        net = build_network(TOY_FULL, seed=9)
        with pytest.raises(ShapeError):
            net(Tensor(np.zeros(shape)))

    def test_train_mode_updates_bn_stats(self):
        net = build_network(TOY_FULL, seed=10)
        before = {name: buf.copy() for name, buf in net.named_buffers()}
        net(Tensor(rng(11).uniform(size=(2, 1, 16, 16))), train=True, rng=rng(12))
        after = dict(net.named_buffers())
        assert any(np.abs(after[name] - before[name]).max() > 0 for name in before)

    def test_eval_forward_is_one_op_per_batch_norm(self):
        # 14 batch norms: 5 encoder and 4 decoder PPAs, 4 DASI blocks, MDCR.
        net = build_network(NetworkConfig(), seed=3)
        probe = Tensor(np.zeros((1, 1, 64, 64)))
        seen = []
        with no_grad(), observe(lambda op, inputs, out: seen.append(op)):
            net(probe)
        assert seen.count("batch_norm") == 14
        before = tape_length()
        net(probe)
        nodes = tape_length() - before
        clear_tape()
        assert nodes == 900


class TestTrainingStep:
    """One full-model step at batch 4 and 64x64, dropout off."""

    @staticmethod
    def _step_inputs():
        config = NetworkConfig(dropout=0.0)
        images = Tensor(rng(7).uniform(size=(4, 1, 64, 64)))
        masks = Tensor((rng(8).uniform(size=(4, 1, 64, 64)) > 0.9).astype(np.float64))
        return config, build_network(config, seed=3), images, masks

    @staticmethod
    def _loss(config, net, images, masks):
        logits = net(images, train=True, rng=rng(9))
        return deep_supervision_loss(logits, masks, config.loss_weights)

    def test_step_peak_bounded(self):
        # The tape keeps only the arrays each backward reads: a step peaks at
        # about 129 MiB over the network's parameters (230 MiB when every
        # node kept its output until the sweep reached it).
        inputs = self._step_inputs()
        tracemalloc.start()
        try:
            backward(self._loss(*inputs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 170 << 20, f"step peak {peak / 2**20:.1f} MiB"

    def test_records_989_nodes(self):
        inputs = self._step_inputs()
        before = tape_length()
        loss = self._loss(*inputs)
        assert tape_length() - before == 989
        backward(loss)

    def test_backward_peak_stays_near_forward_footprint(self):
        # Nodes are released as the sweep passes them, and conv2d's input
        # gradient never holds full-extent columns, so the sweep adds only a
        # few MiB to what the forward leaves alive.
        inputs = self._step_inputs()
        tracemalloc.start()
        try:
            loss = self._loss(*inputs)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= 16 << 20, f"sweep peak {(peak - held) / 2**20:.1f} MiB over forward"


def ppa_params(in_c, c):
    # proj + two patch branches + serial convs + attentions + bn, counted
    # layer by layer from the architecture definition.
    patch = lambda p: (p * p * 2 * p * p + 2 * p * p) + (2 * p * p * p * p + p * p) + c + c * c
    serial = 3 * (c * c * 9 + c)
    return (in_c * c + c) + patch(2) + patch(4) + serial + 3 + (2 * 49) + 2 * c


def double_conv_params(in_c, c):
    return (in_c * c * 9 + c) + 2 * c + (c * c * 9 + c) + 2 * c


# Counts from the hand-written per-module MAC formulas that the probe
# forward replaced: (config, height, width, params, macs, rows).
ABLATED = NetworkConfig(use_ppa=False, use_dasi=False, use_mdcr=False)
THREE_STAGE = NetworkConfig(
    stages=3, widths=(8, 16, 16), in_channels=2, patch_sizes=(3, 5), loss_weights=(1.0, 0.5, 0.25)
)
PINNED_REPORTS = [
    (
        NetworkConfig(), 64, 64, 3763070, 326455744,
        [
            ("encoder0", 8817, 29519920),
            ("encoder1", 31713, 29388896),
            ("encoder2", 122593, 29230784),
            ("encoder3", 485601, 29186048),
            ("encoder4", 1936609, 29172512),
            ("bottleneck", 70144, 1105920),
            ("up0", 2064, 2097152),
            ("skip_fuse0", 2880, 10027008),
            ("decoder0", 9313, 31551536),
            ("up1", 8224, 2097152),
            ("skip_fuse1", 11936, 12091392),
            ("decoder1", 33249, 30961760),
            ("up2", 32832, 2097152),
            ("skip_fuse2", 47424, 12075008),
            ("decoder2", 128737, 30803648),
            ("up3", 131200, 2097152),
            ("skip_fuse3", 189056, 12066816),
            ("decoder3", 510177, 30758912),
            ("head0", 17, 65536),
            ("head1", 33, 32768),
            ("head2", 65, 16384),
            ("head3", 129, 8192),
            ("head4", 257, 4096),
        ],
    ),
    (
        NetworkConfig(), 48, 80, 3763070, 306350478,
        [
            ("encoder0", 8817, 27674928),
            ("encoder1", 31713, 27552096),
            ("encoder2", 122593, 27403872),
            ("encoder3", 485601, 27401400),
            ("encoder4", 1936609, 27568446),
            ("bottleneck", 70144, 1036800),
            ("up0", 2064, 1966080),
            ("skip_fuse0", 2880, 9400320),
            ("decoder0", 9313, 29579568),
            ("up1", 8224, 1966080),
            ("skip_fuse1", 11936, 11335680),
            ("decoder1", 33249, 29026656),
            ("up2", 32832, 1966080),
            ("skip_fuse2", 47424, 11320320),
            ("decoder2", 128737, 28878432),
            ("up3", 131200, 1966080),
            ("skip_fuse3", 189056, 11312640),
            ("decoder3", 510177, 28875960),
            ("head0", 17, 61440),
            ("head1", 33, 30720),
            ("head2", 65, 15360),
            ("head3", 129, 7680),
            ("head4", 257, 3840),
        ],
    ),
    (
        ABLATED, 64, 64, 1944245, 188911616,
        [
            ("encoder0", 2544, 10158080),
            ("encoder1", 14016, 14221312),
            ("encoder2", 55680, 14188544),
            ("encoder3", 221952, 14172160),
            ("encoder4", 886272, 14163968),
            ("up0", 2064, 2097152),
            ("decoder0", 7008, 28442624),
            ("up1", 8224, 2097152),
            ("decoder1", 27840, 28377088),
            ("up2", 32832, 2097152),
            ("decoder2", 110976, 28344320),
            ("up3", 131200, 2097152),
            ("decoder3", 443136, 28327936),
            ("head0", 17, 65536),
            ("head1", 33, 32768),
            ("head2", 65, 16384),
            ("head3", 129, 8192),
            ("head4", 257, 4096),
        ],
    ),
    (
        THREE_STAGE, 16, 16, 48322, 2584940,
        [
            ("encoder0", 4963, 529032),
            ("encoder1", 10707, 474356),
            ("encoder2", 10835, 121716),
            ("bottleneck", 544, 7680),
            ("up0", 520, 32768),
            ("skip_fuse0", 736, 157696),
            ("decoder0", 5075, 557704),
            ("up1", 1040, 16384),
            ("skip_fuse1", 2768, 185344),
            ("decoder1", 11091, 498932),
            ("head0", 9, 2048),
            ("head1", 17, 1024),
            ("head2", 17, 256),
        ],
    ),
]

class TestCounting:
    def test_pointwise_conv_param_count(self):
        conv = Conv2d(4, 8, 1, rng=rng(20))
        assert conv.param_count() == 4 * 8 + 8

    def test_baseline_two_stage_hand_sum(self):
        net = build_network(TOY_BASE, seed=22)
        expected = (
            double_conv_params(1, 4)
            + double_conv_params(4, 8)
            + (8 * 4 * 4 + 4)  # 2x2 transposed conv 8->4
            + double_conv_params(8, 4)
            + (4 + 1)
            + (8 + 1)
        )
        assert net.param_count() == expected == 1718

    def test_full_two_stage_hand_sum(self):
        net = build_network(TOY_FULL, seed=23)
        mdcr = 4 * (2 * 9 + 2) + (8 * 4 + 8) + (8 * 8 + 8) + 2 * 8
        dasi = (8 * 8 + 8) + (8 * 8 * 9 + 8) + 2 * 8  # context align + fuse + bn
        expected = (
            ppa_params(1, 8)
            + ppa_params(8, 8)
            + mdcr
            + (8 * 8 * 4 + 8)
            + dasi
            + ppa_params(16, 8)
            + 2 * (8 + 1)
        )
        assert net.param_count() == expected == 10869

    def test_full_two_stage_mac_spreadsheet(self):
        # Independent per-layer multiply-accumulate arithmetic at 16x16.
        net = build_network(TOY_FULL, seed=24)

        def patch_macs(p, h, w, c):
            grid = (h // p) * (w // p)
            cells = p * p
            return grid * (cells * 2 * cells + 2 * cells * cells) + grid * c + grid * c * c

        def ppa_macs(in_c, c, h, w):
            return (
                h * w * c * in_c  # 1x1 projection
                + patch_macs(2, h, w, c)
                + patch_macs(4, h, w, c)
                + 3 * (h * w * c * 9 * c)
                + c * 3  # channel attention 1-D conv
                + h * w * 1 * 2 * 49  # spatial attention 7x7 over 2 maps
                + h * w * c  # batch norm
            )

        encoder0 = ppa_macs(1, 8, 16, 16)
        encoder1 = ppa_macs(8, 8, 8, 8)
        bottleneck = 4 * (8 * 8 * 2 * 9) + (8 * 8 * 8 * 4) + (8 * 8 * 8 * 8) + 8 * 8 * 8
        up0 = 16 * 16 * 8 * 8
        skip_fuse0 = (16 * 16 * 8 * 9 * 8) + 16 * 16 * 8 + (8 * 8 * 8 * 8)
        decoder0 = ppa_macs(16, 8, 16, 16)
        heads = 16 * 16 * 8 + 8 * 8 * 8
        expected = encoder0 + encoder1 + bottleneck + up0 + skip_fuse0 + decoder0 + heads
        params, macs, rows = count_params_macs(net, 16, 16)
        assert macs == expected == 1338216
        assert params == net.param_count()
        assert sum(r[1] for r in rows) == params

    def test_ablations_strictly_increase_params(self):
        base = dict(stages=2, widths=(8, 8), loss_weights=(1.0, 0.5))
        counts = [
            build_network(
                NetworkConfig(use_ppa=a, use_dasi=b, use_mdcr=c, **base), seed=25
            ).param_count()
            for a, b, c in [
                (False, False, False),
                (True, False, False),
                (True, True, False),
                (True, True, True),
            ]
        ]
        assert counts == sorted(counts) and len(set(counts)) == 4

    def test_report_resolution_must_divide(self):
        net = build_network(TOY_FULL, seed=26)
        with pytest.raises(ShapeError):
            count_params_macs(net, 15, 16)

    @pytest.mark.parametrize("config,height,width,params,macs,rows", PINNED_REPORTS)
    def test_report_matches_pinned_counts(self, config, height, width, params, macs, rows):
        net = build_network(config, seed=0)
        assert count_params_macs(net, height, width) == (params, macs, rows)

    def test_probe_leaves_tape_and_state_unchanged(self):
        net = build_network(TOY_FULL, seed=27)
        with no_grad():  # a training-mode pass moves the BN buffers off their init
            net(Tensor(rng(28).uniform(size=(2, 1, 16, 16))), train=True, rng=rng(29))
        params = [p.data.copy() for p in net.parameters()]
        buffers = [b.copy() for _, b in net.named_buffers()]
        pending = mul(Parameter(np.ones(2)), 2.0)
        length = tape_length()
        count_params_macs(net, 16, 16)
        assert tape_length() == length >= 1
        assert all(np.array_equal(a, p.data) for a, p in zip(params, net.parameters()))
        assert all(np.array_equal(a, b) for a, (_, b) in zip(buffers, net.named_buffers()))
        backward(tsum(pending))


class TestForwardLifetimes:
    """The forward drops each map after its last use; that must change
    neither its op order where it matters nor any result."""

    @pytest.mark.parametrize(
        "config",
        [
            NetworkConfig(),
            NetworkConfig(use_ppa=False),
            NetworkConfig(use_dasi=False),
            NetworkConfig(use_mdcr=False),
            THREE_STAGE,
        ],
        ids=["default", "no_ppa", "no_dasi", "no_mdcr", "three_stage"],
    )
    def test_bitwise_equal_to_composition(self, config):
        images = rng(40).uniform(size=(2, config.in_channels, 32, 32))
        masks = Tensor((rng(41).uniform(size=(2, 1, 32, 32)) > 0.8).astype(np.float64))

        def run(forward):
            net = build_network(config, seed=42)
            logits = forward(net, Tensor(images), train=True, rng=rng(43))
            backward(deep_supervision_loss(logits, masks, config.loss_weights))
            with no_grad():
                evaluated = forward(net, Tensor(images), train=False)
            return (
                [t.data for t in logits + evaluated],
                [p.grad for p in net.parameters()],
                [b for _, b in net.named_buffers()],
            )

        trimmed, composed = run(Network.forward), run(network_forward_composed)
        assert all(g is not None for g in trimmed[1])
        for got, want in zip(trimmed, composed):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_no_grad_peak_at_256(self):
        # Holding every map to the end of the forward peaks at 112 MiB;
        # dropping each after its last read, near 70 MiB.
        net = build_network(NetworkConfig(), seed=0)
        image = Tensor(rng(44).uniform(size=(1, 1, 256, 256)))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            with no_grad():
                net(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= 80 << 20, f"no-grad forward peak {(peak - held) / 2**20:.1f} MiB"


@functools.lru_cache(maxsize=None)
def small_checkpoint() -> bytes:
    """A valid checkpoint of a small network, with Adam state and meta."""
    net = build_network(TOY_BASE, seed=0)
    state = Adam(list(net.named_parameters())).state_dict()
    with tempfile.TemporaryDirectory() as workdir:
        path = f"{workdir}/net.ckpt"
        save_checkpoint(path, net, optimizer_state=state, meta={"epoch": 1, "seed": 0})
        with open(path, "rb") as fh:
            return fh.read()


def _overwrite(args):
    at, byte = args
    blob = small_checkpoint()
    at %= len(blob)
    return blob[:at] + bytes([byte]) + blob[at + 1 :]


# Arbitrary bytes, with and without a valid magic and version, and a valid
# checkpoint with one byte overwritten, mostly in its header and config frame.
checkpoint_blobs = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: b"HCFC" + struct.pack("<I", 1) + tail),
    st.tuples(
        st.one_of(st.integers(0, 400), st.integers(0, 1 << 20)), st.integers(0, 255)
    ).map(_overwrite),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "fuzz.ckpt")


class TestCheckpoint:
    @given(checkpoint_blobs)
    @example(b"HCFC" + struct.pack("<2I", 1, 100000) + b"[" * 100000)
    def test_arbitrary_bytes_load_or_fail_closed(self, fuzz_path, blob):
        with open(fuzz_path, "wb") as fh:
            fh.write(blob)
        try:
            snapshot = load_checkpoint(fuzz_path)
        except FileFormatError:
            return
        assert isinstance(snapshot["config"], NetworkConfig)

    def test_round_trip_reproduces_forward_bitwise(self, tmp_path):
        net = build_network(TOY_FULL, seed=30)
        x = Tensor(rng(31).uniform(size=(1, 1, 16, 16)))
        # Nudge BN buffers away from their init so they are exercised too.
        with no_grad():
            net(x, train=True, rng=rng(32))
            want = [z.data.copy() for z in net(x, train=False)]
        path = str(tmp_path / "net.ckpt")
        save_checkpoint(path, net)
        restored, snapshot = restore_network(path)
        assert snapshot["config"] == TOY_FULL
        assert snapshot["optimizer"] is None
        with no_grad():
            got = [z.data.copy() for z in restored(x, train=False)]
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)

    def test_restore_keeps_the_decoded_arrays(self, tmp_path):
        # The codec already returns a fresh float64 array per parameter, so
        # restoring adopts it instead of copying it again.
        path = str(tmp_path / "net.ckpt")
        save_checkpoint(path, build_network(TOY_FULL, seed=35))
        restored, snapshot = restore_network(path)
        for name, param in restored.named_parameters():
            assert param.data is snapshot["params"][name]
            assert param.data.flags.writeable and param.data.flags.c_contiguous

    def test_optimizer_state_round_trip(self, tmp_path):
        net = build_network(TOY_FULL, seed=33)
        state = {
            "step": 7,
            "hyper": {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
            "moments": {
                name: (np.full_like(p.data, 0.25), np.full_like(p.data, 0.5))
                for name, p in net.named_parameters()
            },
        }
        path = str(tmp_path / "net.ckpt")
        save_checkpoint(path, net, optimizer_state=state, meta={"epoch": 3, "seed": 33})
        snapshot = load_checkpoint(path)
        assert snapshot["optimizer"]["step"] == 7
        assert snapshot["meta"] == {"epoch": 3, "seed": 33}
        for name, (m, v) in snapshot["optimizer"]["moments"].items():
            np.testing.assert_array_equal(m, state["moments"][name][0])
            np.testing.assert_array_equal(v, state["moments"][name][1])

    def test_format_bytes_pinned(self, tmp_path):
        # Any change to the bytes on disk (a new format version included) must
        # be deliberate: it changes this digest.
        net = build_network(TOY_FULL, seed=0)
        state = Adam(list(net.named_parameters())).state_dict()
        path = tmp_path / "net.ckpt"
        save_checkpoint(str(path), net, optimizer_state=state, meta={"epoch": 1, "seed": 0})
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "c28a62477a0d04a885c5987f753cc0c121a3fd46cd9c73d5c3c0e4c50bd85db1"

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "net.ckpt"
        net = build_network(TOY_FULL, seed=0)
        state = Adam(list(net.named_parameters())).state_dict()
        save_checkpoint(str(path), net, optimizer_state=state)
        before = path.read_bytes()
        real = checkpoint.tensor_to_bytes
        calls = []

        def failing(array):
            calls.append(None)
            if len(calls) == 5:  # inside the parameter table
                raise OSError("disk full")
            return real(array)

        monkeypatch.setattr(checkpoint, "tensor_to_bytes", failing)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), build_network(TOY_FULL, seed=1))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.ckpt"]

    def test_meta_without_optimizer_state_rejected(self, tmp_path):
        path = tmp_path / "net.ckpt"
        with pytest.raises(ContractError, match="meta"):
            save_checkpoint(str(path), build_network(TOY_FULL, seed=0), meta={"epoch": 1})
        assert not path.exists()

    def test_int_in_float_field_restores(self, tmp_path):
        config = NetworkConfig(stages=2, widths=(8, 8), dropout=0, loss_weights=(1, 0.5))
        path = str(tmp_path / "net.ckpt")
        save_checkpoint(path, build_network(config, seed=36))
        _, snapshot = restore_network(path)
        assert snapshot["config"] == config

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FileFormatError):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        net = build_network(TOY_FULL, seed=34)
        path = tmp_path / "net.ckpt"
        save_checkpoint(str(path), net)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FileFormatError):
            load_checkpoint(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        net = build_network(TOY_FULL, seed=35)
        path = tmp_path / "net.ckpt"
        save_checkpoint(str(path), net)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError):
            load_checkpoint(str(path))
