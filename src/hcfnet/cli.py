"""Command-line entry point.

Subcommands: train, eval, infer, gradcheck, report, gen-data.  Exit codes:
0 on success, 1 on a domain error (bad config, contract violation), 2 on
I/O or file-format problems.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .checkpoint import restore_network
from .config import load_configs
from .data import SyntheticConfig, generate_dataset, load_dataset, read_image, save_dataset, write_pgm
from .errors import ConfigError, FileFormatError, HcfnetError
from .gradcheck import CASES, GRADCHECK_TOL, run_all
from .network import build_network, count_params_macs
from .train import evaluate, infer_image, train

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcfnet",
        description="Train and run the multi-scale small-target segmentation network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train from a key=value config file")
    p_train.add_argument("--config", required=True, help="path to the config file")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a PGM dataset")
    p_eval.add_argument("--ckpt", required=True, help="checkpoint path")
    p_eval.add_argument("--data", required=True, help="dataset directory")
    p_eval.add_argument("--threshold", type=float, default=0.5)

    p_infer = sub.add_parser("infer", help="segment one PGM image")
    p_infer.add_argument("--ckpt", required=True, help="checkpoint path")
    p_infer.add_argument("--image", required=True, help="input PGM image")
    p_infer.add_argument("--out-dir", default=".", help="directory for the output maps")
    p_infer.add_argument("--threshold", type=float, default=0.5)

    p_grad = sub.add_parser("gradcheck", help="verify gradients against central differences")
    p_grad.add_argument("--module", choices=CASES + ("all",), default="all")
    p_grad.add_argument(
        "--max-coords",
        type=int,
        default=None,
        help="cap probed coordinates per tensor (default: every coordinate "
        "for the blocks, one per tensor for the net)",
    )

    p_report = sub.add_parser("report", help="print per-layer parameter and MAC counts")
    p_report.add_argument("--config", required=True, help="path to the config file")

    p_gen = sub.add_parser("gen-data", help="write a synthetic PGM dataset")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--n", type=int, required=True, help="number of samples")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--size", type=int, default=64, help="square image extent")

    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    net_config, train_config = load_configs(args.config, seed=args.seed)
    train(net_config, train_config, log=print)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    network, _ = restore_network(args.ckpt)
    samples = load_dataset(args.data)
    scores = evaluate(network, samples, threshold=args.threshold)
    print(f"iou={scores['iou']:.6f}")
    print(f"niou={scores['niou']:.6f}")
    print(f"n_images={scores['n_images']}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {args.threshold}")
    image_dir = os.path.dirname(args.image) or "."
    stem = os.path.splitext(os.path.basename(args.image))[0]
    truth = os.path.join(image_dir, f"{stem}_mask.pgm")
    if os.path.exists(truth) and os.path.isdir(args.out_dir):
        if os.path.samefile(image_dir, args.out_dir):
            raise FileExistsError(f"--out-dir would overwrite dataset mask {truth}")
    network, _ = restore_network(args.ckpt)
    image = read_image(args.image)
    probs = infer_image(network, image)
    os.makedirs(args.out_dir, exist_ok=True)
    prob_path = os.path.join(args.out_dir, f"{stem}_prob.pgm")
    mask_path = os.path.join(args.out_dir, f"{stem}_mask.pgm")
    write_pgm(prob_path, np.round(probs * 255.0).astype(np.uint8))
    write_pgm(mask_path, (probs > args.threshold).astype(np.uint8) * 255)
    print(prob_path)
    print(mask_path)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    names = CASES if args.module == "all" else (args.module,)
    failed = False
    for name, err in run_all(names, max_coords=args.max_coords):
        status = "ok" if err < GRADCHECK_TOL else "fail"
        failed = failed or status == "fail"
        print(f"module={name} max_rel_err={err:.3e} status={status}")
    if failed:
        raise HcfnetError(f"gradient check exceeded tolerance {GRADCHECK_TOL:.0e}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    net_config, train_config = load_configs(args.config)
    network = build_network(net_config, seed=0)
    size = train_config.image_size
    params, macs, rows = count_params_macs(network, size, size)
    name_width = max(len(name) for name, _, _ in rows)
    print(f"input {size}x{size}")
    print(f"{'layer'.ljust(name_width)}  {'params':>10}  {'macs':>14}")
    for name, n_params, n_macs in rows:
        print(f"{name.ljust(name_width)}  {n_params:>10d}  {n_macs:>14d}")
    print(f"params={params} macs={macs}")
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError(f"need at least one sample, got {args.n}")
    config = SyntheticConfig(height=args.size, width=args.size, seed=args.seed)
    samples = generate_dataset(config, args.n)
    save_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
    "gen-data": _cmd_gen_data,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HcfnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
