"""Tests for the key=value config parser and the command-line interface."""

import json
import re
import struct

import numpy as np
import pytest

from hcfnet.checkpoint import save_checkpoint
from hcfnet.cli import main
from hcfnet.config import configs_from_mapping, load_configs, parse_kv_file
from hcfnet.data import read_pgm
from hcfnet.errors import ConfigError, FileFormatError
from hcfnet.network import NetworkConfig, build_network


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

    def test_unknown_key_is_contract_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("depth = 5\n")
        assert main(["train", "--config", str(cfg)]) == 1
        capsys.readouterr()

    def test_bad_checkpoint_is_io_error(self, tmp_path, capsys):
        ckpt = tmp_path / "junk.ckpt"
        ckpt.write_bytes(b"JUNKJUNKJUNK")
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("field,value", [("widths", 8), ("stages", "x")])
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
