"""Tests for the key=value config parser and the command-line interface."""

import dataclasses
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hcfnet import gradcheck
from hcfnet.checkpoint import load_checkpoint, restore_network, save_checkpoint
from hcfnet.cli import main
from hcfnet.config import configs_from_mapping, load_configs, parse_kv_file
from hcfnet.data import load_dataset, read_pgm, write_pgm
from hcfnet.errors import ConfigError, FileFormatError
from hcfnet.metrics import iou_metric, niou_metric
from hcfnet.network import NetworkConfig, build_network
from hcfnet.optim import Adam
from hcfnet.tensor import Tensor, mul, tsum
from hcfnet.train import TrainConfig, infer_image, predict_probs

README = Path(__file__).resolve().parent.parent / "README.md"

# One non-default spelling and its parsed value for every config field.
NON_DEFAULT = {
    "stages": ("3", 3),
    "widths": ("8, 16,32", (8, 16, 32)),
    "in_channels": ("2", 2),
    "patch_sizes": ("3,5", (3, 5)),
    "dilations": ("1,2,3,4", (1, 2, 3, 4)),
    "dropout": ("0.25", 0.25),
    "use_ppa": ("no", False),
    "use_dasi": ("OFF", False),
    "use_mdcr": ("0", False),
    "loss_weights": ("1,0.5,0.25", (1.0, 0.5, 0.25)),
    "epochs": ("3", 3),
    "batch_size": ("2", 2),
    "lr": ("0.01", 0.01),
    "seed": ("5", 5),
    "data_dir": ("scenes", "scenes"),
    "synthetic_n": ("4", 4),
    "synthetic_seed": ("7", 7),
    "image_size": ("32", 32),
    "checkpoint_path": ("out/model.ckpt", "out/model.ckpt"),
    "resume_from": ("in/model.ckpt", "in/model.ckpt"),
}


# Arbitrary bytes, and lines of known (and one unknown) keys over canned
# spellings, edge values and arbitrary text.
_config_lines = st.lists(
    st.tuples(
        st.sampled_from(sorted(NON_DEFAULT) + ["depth"]),
        st.one_of(
            st.sampled_from([text for text, _ in NON_DEFAULT.values()]),
            st.sampled_from(["none", "nan", "-inf", "1e999", "-1", "0", "2,", ",", "9" * 5000]),
            st.text(max_size=12),
        ),
    ),
    max_size=6,
).map(lambda pairs: "".join(f"{key} = {value}\n" for key, value in pairs).encode("utf-8"))
config_files = st.one_of(st.binary(max_size=80), _config_lines)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "fuzz.cfg")


class TestKvParser:
    def test_parses_pairs_comments_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\nstages = 2\n\nwidths = 8,8  # inline\n")
        assert parse_kv_file(str(path)) == {"stages": "2", "widths": "8,8"}

    def test_rejects_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("stages 2\n")
        with pytest.raises(FileFormatError, match=r"c\.cfg:1"):
            parse_kv_file(str(path))

    def test_rejects_empty_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("stages =\n")
        with pytest.raises(FileFormatError):
            parse_kv_file(str(path))

    def test_rejects_duplicate_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("stages = 2\nstages = 3\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            parse_kv_file(str(path))


class TestConfigMapping:
    def test_full_mapping(self):
        net, tr = configs_from_mapping(
            {
                "stages": "2",
                "widths": "8,8",
                "loss_weights": "1.0,0.5",
                "use_mdcr": "false",
                "dropout": "0.0",
                "epochs": "3",
                "lr": "0.01",
                "data_dir": "none",
                "checkpoint_path": "out/model.ckpt",
            }
        )
        assert net.stages == 2 and net.widths == (8, 8) and not net.use_mdcr
        assert net.dropout == 0.0
        assert tr.epochs == 3 and tr.lr == 0.01
        assert tr.data_dir is None
        assert tr.checkpoint_path == "out/model.ckpt"

    def test_every_field_parses_non_default(self):
        net, tr = configs_from_mapping({key: text for key, (text, _) in NON_DEFAULT.items()})
        fields = dataclasses.fields(NetworkConfig) + dataclasses.fields(TrainConfig)
        assert sorted(NON_DEFAULT) == sorted(f.name for f in fields)
        for f in fields:
            got = getattr(net if hasattr(net, f.name) else tr, f.name)
            want = NON_DEFAULT[f.name][1]
            assert want != f.default
            assert got == want and type(got) is type(want), f.name
            if isinstance(want, tuple):
                assert [type(v) for v in got] == [type(v) for v in want], f.name

    def test_readme_example_parses(self, tmp_path):
        (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        pairs = parse_kv_file(str(path))
        assert len(pairs) >= 5
        configs_from_mapping(pairs)

    def test_defaults_when_empty(self):
        net, tr = configs_from_mapping({})
        assert net == NetworkConfig()
        assert tr.epochs == 8 and tr.batch_size == 4

    @pytest.mark.parametrize("value,expected", [("true", True), ("off", False), ("1", True)])
    def test_bool_spellings(self, value, expected):
        net, _ = configs_from_mapping({"use_ppa": value})
        assert net.use_ppa is expected

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="depth"):
            configs_from_mapping({"depth": "5"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="widths"):
            configs_from_mapping({"widths": "16,foo"})

    def test_invalid_config_values_rejected(self):
        with pytest.raises(ConfigError):
            configs_from_mapping({"stages": "2", "widths": "8,8,8"})

    @given(config_files)
    def test_arbitrary_file_loads_or_fails_closed(self, fuzz_path, blob):
        with open(fuzz_path, "wb") as fh:
            fh.write(blob)
        try:
            configs_from_mapping(parse_kv_file(fuzz_path))
        except (FileFormatError, ConfigError):
            pass

    def test_seed_override(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 3\n")
        _, tr = load_configs(str(path), seed=11)
        assert tr.seed == 11
        _, tr = load_configs(str(path))
        assert tr.seed == 3


TOY_CONFIG = """
stages = 2
widths = 8,8
loss_weights = 1.0,0.5
dropout = 0.1
epochs = 2
batch_size = 2
synthetic_n = 2
image_size = 16
"""


@pytest.fixture
def toy_config(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CONFIG + f"checkpoint_path = {ckpt}\n")
    return cfg, ckpt


class TestCliTrainEvalInfer:
    def test_train_writes_log_and_checkpoint(self, toy_config, capsys):
        cfg, ckpt = toy_config
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        pattern = re.compile(r"^epoch=\d+ loss=\d+\.\d{6} iou=\d+\.\d{6}$")
        assert len(out) == 2 and all(pattern.match(line) for line in out)
        assert ckpt.exists()

    def test_train_seed_override_changes_log(self, toy_config, capsys):
        cfg, _ = toy_config
        main(["train", "--config", str(cfg)])
        base = capsys.readouterr().out
        main(["train", "--config", str(cfg), "--seed", "9"])
        other = capsys.readouterr().out
        assert base != other

    def test_eval_reports_metrics(self, toy_config, tmp_path, capsys):
        cfg, ckpt = toy_config
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir), "--n", "3", "--size", "16"]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^iou=\d+\.\d{6}$", out, re.M)
        assert re.search(r"^niou=\d+\.\d{6}$", out, re.M)
        assert re.search(r"^n_images=3$", out, re.M)

    def test_infer_writes_prob_and_mask(self, toy_config, tmp_path, capsys):
        cfg, ckpt = toy_config
        data_dir = tmp_path / "data"
        out_dir = tmp_path / "maps"
        main(["gen-data", "--out", str(data_dir), "--n", "1", "--size", "16"])
        main(["train", "--config", str(cfg)])
        capsys.readouterr()
        image = next(
            p for p in sorted(data_dir.iterdir()) if not p.name.endswith("_mask.pgm")
        )
        assert main(["infer", "--ckpt", str(ckpt), "--image", str(image), "--out-dir", str(out_dir)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        stem = image.name[:-4]
        prob_path = out_dir / f"{stem}_prob.pgm"
        mask_path = out_dir / f"{stem}_mask.pgm"
        assert printed == [str(prob_path), str(mask_path)]
        probs = read_pgm(str(prob_path))
        mask = read_pgm(str(mask_path))
        assert probs.shape == (16, 16) and mask.shape == (16, 16)
        assert set(np.unique(mask)) <= {0, 255}

    def test_infer_zero_width_image_is_io_error(self, tmp_path, capsys):
        ckpt = tmp_path / "toy.ckpt"
        config = NetworkConfig(stages=2, widths=(8, 8), loss_weights=(1.0, 0.5))
        save_checkpoint(str(ckpt), build_network(config, seed=0))
        image = tmp_path / "empty.pgm"
        image.write_bytes(b"P5\n0 4\n255\n")
        args = ["infer", "--ckpt", str(ckpt), "--image", str(image), "--out-dir", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "extents must be positive" in err and "Traceback" not in err

    def test_infer_scales_by_maxval(self, tmp_path, capsys):
        # v / 15 and 17 v / 255 are the same quotient, so they round alike.
        ckpt = tmp_path / "toy.ckpt"
        config = NetworkConfig(stages=2, widths=(8, 8), loss_weights=(1.0, 0.5))
        save_checkpoint(str(ckpt), build_network(config, seed=0))
        values = np.random.default_rng(0).integers(0, 16, size=(16, 16), dtype=np.uint8)
        (tmp_path / "low.pgm").write_bytes(b"P5\n16 16\n15\n" + values.tobytes())
        write_pgm(str(tmp_path / "full.pgm"), values * np.uint8(17))
        for stem in ("low", "full"):
            args = ["--image", str(tmp_path / f"{stem}.pgm"), "--out-dir", str(tmp_path)]
            assert main(["infer", "--ckpt", str(ckpt)] + args) == 0
        capsys.readouterr()
        for kind in ("prob", "mask"):
            low = (tmp_path / f"low_{kind}.pgm").read_bytes()
            assert low == (tmp_path / f"full_{kind}.pgm").read_bytes()
        assert len(set(read_pgm(str(tmp_path / "low_prob.pgm")).ravel())) > 1

    def test_eval_extent_mismatch_is_io_error(self, tmp_path, capsys):
        ckpt = tmp_path / "toy.ckpt"
        config = NetworkConfig(stages=2, widths=(8, 8), loss_weights=(1.0, 0.5))
        save_checkpoint(str(ckpt), build_network(config, seed=0))
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_pgm(str(data_dir / "a.pgm"), np.zeros((16, 16), np.uint8))
        write_pgm(str(data_dir / "a_mask.pgm"), np.zeros((8, 8), np.uint8))
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert "a.pgm is 16x16 but its mask" in err and "Traceback" not in err

    def test_eval_mixed_extents_scores_each_at_its_own(self, tmp_path, capsys):
        ckpt = tmp_path / "toy.ckpt"
        config = NetworkConfig(stages=2, widths=(8, 8), loss_weights=(1.0, 0.5))
        save_checkpoint(str(ckpt), build_network(config, seed=0))
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        rng = np.random.default_rng(25)
        for stem, size in (("a", 32), ("b", 48), ("c", 32)):
            image = rng.integers(0, 256, size=(size, size), dtype=np.uint8)
            mask = np.where(image > 200, 255, 0).astype(np.uint8)
            write_pgm(str(data_dir / f"{stem}.pgm"), image)
            write_pgm(str(data_dir / f"{stem}_mask.pgm"), mask)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 0
        printed = capsys.readouterr().out.splitlines()
        network, _ = restore_network(str(ckpt))
        a, b, c = load_dataset(str(data_dir))
        small = predict_probs(network, [a.image, c.image])
        probs = [small[0], predict_probs(network, [b.image])[0], small[1]]
        masks = [sample.mask[0] for sample in (a, b, c)]
        assert printed == [
            f"iou={iou_metric(probs, masks):.6f}",
            f"niou={niou_metric(probs, masks):.6f}",
            "n_images=3",
        ]

    def test_eval_pads_like_infer(self, tmp_path, capsys):
        ckpt = tmp_path / "toy.ckpt"
        config = NetworkConfig(stages=3, widths=(8, 8, 8), loss_weights=(1.0, 0.5, 0.25))
        save_checkpoint(str(ckpt), build_network(config, seed=0))
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        image = np.random.default_rng(26).integers(0, 256, size=(30, 30), dtype=np.uint8)
        write_pgm(str(data_dir / "a.pgm"), image)
        write_pgm(str(data_dir / "a_mask.pgm"), np.where(image > 200, 255, 0).astype(np.uint8))
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 0
        printed = capsys.readouterr().out.splitlines()
        network, _ = restore_network(str(ckpt))
        (sample,) = load_dataset(str(data_dir))
        probs = [infer_image(network, sample.image[0])]
        masks = [sample.mask[0]]
        assert printed == [
            f"iou={iou_metric(probs, masks):.6f}",
            f"niou={niou_metric(probs, masks):.6f}",
            "n_images=1",
        ]

    def test_infer_refuses_to_overwrite_dataset_mask(self, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "toy.ckpt"
        config = NetworkConfig(stages=2, widths=(8, 8), loss_weights=(1.0, 0.5))
        save_checkpoint(str(ckpt), build_network(config, seed=0))
        data_dir = tmp_path / "data"
        main(["gen-data", "--out", str(data_dir), "--n", "1", "--size", "32"])
        mask = data_dir / "sample-0-00000_mask.pgm"
        before = mask.read_bytes()
        capsys.readouterr()
        monkeypatch.chdir(data_dir)
        assert main(["infer", "--ckpt", str(ckpt), "--image", "sample-0-00000.pgm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sample-0-00000_mask.pgm" in err
        assert "Traceback" not in err
        assert mask.read_bytes() == before
        assert not (data_dir / "sample-0-00000_prob.pgm").exists()

    def test_infer_deterministic_bytes(self, toy_config, tmp_path, capsys):
        cfg, ckpt = toy_config
        data_dir = tmp_path / "data"
        main(["gen-data", "--out", str(data_dir), "--n", "1", "--size", "16"])
        main(["train", "--config", str(cfg)])
        image = next(
            p for p in sorted(data_dir.iterdir()) if not p.name.endswith("_mask.pgm")
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["infer", "--ckpt", str(ckpt), "--image", str(image), "--out-dir", str(out_a)])
        main(["infer", "--ckpt", str(ckpt), "--image", str(image), "--out-dir", str(out_b)])
        capsys.readouterr()
        stem = image.name[:-4]
        for name in (f"{stem}_prob.pgm", f"{stem}_mask.pgm"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestCliReportAndGradcheck:
    def test_report_prints_totals(self, toy_config, capsys):
        cfg, _ = toy_config
        assert main(["report", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        match = re.match(r"^params=(\d+) macs=(\d+)$", out[-1])
        assert match is not None
        net = build_network(
            NetworkConfig(stages=2, widths=(8, 8), dropout=0.1, loss_weights=(1.0, 0.5)),
            seed=0,
        )
        assert int(match.group(1)) == net.param_count()
        assert any(line.startswith("encoder0") for line in out)

    def test_gradcheck_single_module(self, capsys):
        assert main(["gradcheck", "--module", "mdcr", "--max-coords", "2"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^module=mdcr max_rel_err=\d\.\d{3}e[-+]\d+ status=ok$", out, re.M)


class TestCliExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_is_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("stages 2\n")
        assert main(["train", "--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_invalid_utf8_config_is_io_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"stages = 2\n\xff\xfe = 3\n")
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}: not valid UTF-8"), captured.err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_gradcheck_max_coords_below_one_is_contract_error(self, capsys, value):
        assert main(["gradcheck", "--module", "dasi", "--max-coords", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: max_coords must be at least 1, got {value}\n"

    @pytest.mark.parametrize("max_coords,probed", [(None, 1), (2, 2), (50, 50)])
    def test_gradcheck_net_honours_max_coords(self, monkeypatch, max_coords, probed):
        seen = []
        monkeypatch.setattr(
            gradcheck, "check_gradients", lambda fn, targets, **kw: seen.append(kw) or 0.0
        )
        gradcheck.run_case("net", max_coords=max_coords)
        assert seen == [{"max_coords": probed}]

    def test_gradcheck_probes_max_coords_per_tensor(self):
        a = Tensor(np.arange(1.0, 6.0), requires_grad=True)
        b = Tensor(np.array([0.5]), requires_grad=True)
        calls = []

        def fn():
            calls.append(None)
            return tsum(mul(mul(a, a), b))

        assert gradcheck.check_gradients(fn, [("a", a), ("b", b)], max_coords=2) < 1e-4
        assert len(calls) == 1 + 2 * (2 + 1)  # one backward, two probes per coordinate

    def test_unknown_key_is_contract_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("depth = 5\n")
        assert main(["train", "--config", str(cfg)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["beta1", "beta2", "eps", "threshold"])
    def test_fixed_training_constant_is_unknown_key(self, tmp_path, capsys, key):
        # Adam's betas and eps and the train-IoU threshold are not settable.
        cfg = tmp_path / "fixed.cfg"
        cfg.write_text(TOY_CONFIG + f"{key} = 0.5\n")
        assert main(["train", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: unknown config key '{key}'\n"

    def test_bad_checkpoint_is_io_error(self, tmp_path, capsys):
        ckpt = tmp_path / "junk.ckpt"
        ckpt.write_bytes(b"JUNKJUNKJUNK")
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("widths", 8),
            ("stages", "x"),
            ("widths", [8.0, 8.0]),
            ("stages", 2.0),
            ("use_ppa", "no"),
            ("stages", 1),
            ("dropout", 2),
        ],
    )
    def test_mistyped_checkpoint_config_is_io_error(self, tmp_path, capsys, field, value):
        config = NetworkConfig(stages=2, widths=(8, 8), loss_weights=(1.0, 0.5))
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), build_network(config, seed=0))
        blob = good.read_bytes()
        (frame_len,) = struct.unpack_from("<I", blob, 8)
        raw = json.loads(blob[12 : 12 + frame_len])
        raw[field] = value
        frame = json.dumps(raw, sort_keys=True).encode("utf-8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(frame)) + frame + blob[12 + frame_len :])
        main(["gen-data", "--out", str(tmp_path / "d"), "--n", "1", "--size", "16"])
        image = next((tmp_path / "d").glob("*.pgm"))
        capsys.readouterr()
        args = ["infer", "--ckpt", str(bad), "--image", str(image), "--out-dir", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint config") and "Traceback" not in err

    @pytest.mark.parametrize(
        "case",
        [
            "config_utf8",
            "blob_name_utf8",
            "moment_name_utf8",
            "trailing_bytes",
            "missing_step",
            "hyper_empty",
            "bad_optimizer_flag",
            "buffer_shape",
            "parameter_name_repeated",
            "buffer_name_repeated",
            "moment_name_repeated",
            "moment_missing",
            "moment_shape",
            "nan_parameter",
            "config_nested",
            "optimizer_nested",
            "negative_running_var",
        ],
    )
    def test_corrupt_checkpoint_is_io_error(self, tmp_path, capsys, case):
        config = NetworkConfig(stages=2, widths=(8, 8), loss_weights=(1.0, 0.5))
        network = build_network(config, seed=0)
        state = Adam(list(network.named_parameters())).state_dict()
        bare, full = tmp_path / "bare.ckpt", tmp_path / "full.ckpt"
        save_checkpoint(str(bare), network)
        save_checkpoint(str(full), network, optimizer_state=state, meta={"epoch": 1})
        flag_at = len(bare.read_bytes()) - 1  # the sections before the flag match
        blob = bytearray(full.read_bytes())
        (config_len,) = struct.unpack_from("<I", blob, 8)
        (header_len,) = struct.unpack_from("<I", blob, flag_at + 1)
        header_at = flag_at + 5

        def frames_end(at, count):
            for _ in range(count):
                (length,) = struct.unpack_from("<I", blob, at)
                at += 4 + length
            return at

        def repeat_first_row(table_at, width):
            (count,) = struct.unpack_from("<I", blob, table_at)
            first = blob[table_at + 4 : frames_end(table_at + 4, 1 + width)]
            blob[table_at + 4 : table_at + 4] = first
            struct.pack_into("<I", blob, table_at, count + 1)

        params_at = 12 + config_len
        if case == "config_utf8":
            blob[12] = 0xFF
        elif case == "blob_name_utf8":
            blob[12 + config_len + 8] = 0xFF  # after the table count and name length
        elif case == "moment_name_utf8":
            blob[header_at + header_len + 8] = 0xFF
        elif case == "trailing_bytes":
            blob += b"junk"
        elif case in ("missing_step", "hyper_empty"):
            header = json.loads(blob[header_at : header_at + header_len])
            if case == "missing_step":
                del header["step"]
            else:
                header["hyper"] = {}  # must not fall back to the config's Adam settings
            frame = json.dumps(header, sort_keys=True).encode("utf-8")
            tail = blob[header_at + header_len :]
            blob = blob[: flag_at + 1] + struct.pack("<I", len(frame)) + frame + tail
        elif case in ("config_nested", "optimizer_nested"):
            # Deep enough to exhaust the JSON decoder's recursion limit.
            frame = b"[" * 100000
            if case == "config_nested":
                start, end = 8, 12 + config_len
            else:
                start, end = flag_at + 1, header_at + header_len
            blob[start:end] = struct.pack("<I", len(frame)) + frame
        elif case == "bad_optimizer_flag":
            blob[flag_at] = 2
        elif case in ("buffer_shape", "negative_running_var"):
            bn = network.encoders[0].bn
            if case == "buffer_shape":
                bn.register_buffer("running_mean", np.zeros(3))
            else:
                bn.running_var[0] = -1.0
            save_checkpoint(str(full), network, optimizer_state=state, meta={"epoch": 1})
            blob = bytearray(full.read_bytes())
        elif case in ("moment_missing", "moment_shape"):
            first = next(iter(state["moments"]))
            if case == "moment_missing":
                del state["moments"][first]
            else:
                state["moments"][first] = (np.zeros(3), state["moments"][first][1])
            save_checkpoint(str(full), network, optimizer_state=state, meta={"epoch": 1})
            blob = bytearray(full.read_bytes())
        elif case == "parameter_name_repeated":
            repeat_first_row(params_at, 1)
        elif case == "nan_parameter":
            (name_len,) = struct.unpack_from("<I", blob, params_at + 4)
            blob_at = params_at + 8 + name_len + 4  # past the name and frame length
            (rank,) = struct.unpack_from("<I", blob, blob_at + 4)
            struct.pack_into("<d", blob, blob_at + 8 + 4 * rank, float("nan"))
        elif case == "buffer_name_repeated":
            (n_params,) = struct.unpack_from("<I", blob, params_at)
            repeat_first_row(frames_end(params_at + 4, 2 * n_params), 1)
        else:
            repeat_first_row(header_at + header_len, 2)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        # Names and shapes are only known once the config's network is built.
        checked_on_restore = (
            "buffer_shape",
            "moment_missing",
            "moment_shape",
            "negative_running_var",
        )
        with pytest.raises(FileFormatError):
            (restore_network if case in checked_on_restore else load_checkpoint)(str(bad))
        assert main(["eval", "--ckpt", str(bad), "--data", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and "Traceback" not in err

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("meta", "epoch", "x"),
            ("meta", "epoch", 0.9),
            ("hyper", "lr", "fast"),
            ("hyper", "lr", -1.0),
            ("hyper", "eps", 10**400),
        ],
        ids=["epoch-str", "epoch-float", "lr-str", "lr-negative", "eps-overflow"],
    )
    def test_bad_resume_state_is_io_error(self, toy_config, tmp_path, capsys, section, key, value):
        cfg, _ = toy_config
        net_config, train_config = load_configs(str(cfg))
        network = build_network(net_config, seed=train_config.seed)
        state = Adam(list(network.named_parameters())).state_dict()
        meta = {"epoch": 1, "seed": train_config.seed}
        (meta if section == "meta" else state["hyper"])[key] = value
        resume = tmp_path / "resume.ckpt"
        save_checkpoint(str(resume), network, optimizer_state=state, meta=meta)
        cfg.write_text(cfg.read_text() + f"resume_from = {resume}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: checkpoint")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "line",
        ["seed = -1", "synthetic_seed = -3", "loss_weights = nan,0.5"],
    )
    def test_bad_config_value_is_contract_error(self, toy_config, capsys, line):
        cfg, ckpt = toy_config
        key = line.split(" =")[0]
        kept = [old for old in cfg.read_text().splitlines() if not old.startswith(key + " ")]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        assert main(["train", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: {key}"), captured.err
        assert not ckpt.exists()

    def test_negative_seed_flag_is_contract_error(self, toy_config, capsys):
        cfg, ckpt = toy_config
        assert main(["train", "--config", str(cfg), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: seed")
        assert not ckpt.exists()

    def test_gen_data_negative_seed_is_contract_error(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--n", "1", "--seed", "-2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: seed")

    @pytest.mark.parametrize("threshold", ["2", "nan"])
    def test_eval_bad_threshold_is_contract_error(self, toy_config, tmp_path, capsys, threshold):
        cfg, ckpt = toy_config
        net_config, _ = load_configs(str(cfg))
        save_checkpoint(str(ckpt), build_network(net_config, seed=0))
        main(["gen-data", "--out", str(tmp_path / "d"), "--n", "1", "--size", "16"])
        capsys.readouterr()
        args = ["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "d")]
        assert main(args + ["--threshold", threshold]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: threshold")

    def test_bad_threshold_is_contract_error(self, toy_config, tmp_path, capsys):
        cfg, ckpt = toy_config
        main(["train", "--config", str(cfg)])
        assert (
            main(
                [
                    "infer",
                    "--ckpt",
                    str(ckpt),
                    "--image",
                    "x.pgm",
                    "--threshold",
                    "1.5",
                ]
            )
            == 1
        )
        capsys.readouterr()

    def test_gen_data_zero_samples_is_contract_error(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--n", "0"]) == 1
        capsys.readouterr()
