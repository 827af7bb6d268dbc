"""Overfit a full model on a handful of synthetic scenes.

Sanity experiment for the whole stack: with every module enabled the network
should drive its training loss well below the starting value and reach high
IoU on the scenes it memorizes.  Defaults match the release checklist run
(8 scenes at 64x64 from data seed 156, init seed 3, batch 4, 500 steps,
dropout off).  The last line is PASS when the run meets the release
criterion (final-to-initial loss ratio below 0.10 and train IoU above 0.8)
and FAIL otherwise, in which case the script exits 1.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hcfnet.network import NetworkConfig
from hcfnet.train import TrainConfig, train

MAX_LOSS_RATIO = 0.10
MIN_TRAIN_IOU = 0.8


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3, help="init and shuffle seed")
    parser.add_argument("--data-seed", type=int, default=156, help="synthetic scene seed")
    parser.add_argument("--epochs", type=int, default=250)
    parser.add_argument("--n", type=int, default=8, help="number of scenes")
    parser.add_argument("--size", type=int, default=64, help="scene extent")
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--dropout", type=float, default=0.0)
    parser.add_argument("--checkpoint", type=str, default=None)
    args = parser.parse_args()

    net_config = NetworkConfig(dropout=args.dropout)
    train_config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        seed=args.seed,
        synthetic_n=args.n,
        synthetic_seed=args.data_seed,
        image_size=args.size,
        checkpoint_path=args.checkpoint,
    )
    start = time.time()
    result = train(net_config, train_config, log=print)
    elapsed = time.time() - start

    ratio = result.epoch_losses[-1] / result.epoch_losses[0]
    iou = result.epoch_ious[-1]
    print(f"loss {result.epoch_losses[0]:.4f} -> {result.epoch_losses[-1]:.4f} (ratio {ratio:.4f})")
    print(f"train iou {iou:.4f}")
    print(f"wall {elapsed:.1f}s")
    passed = ratio < MAX_LOSS_RATIO and iou > MIN_TRAIN_IOU
    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict}: needs ratio < {MAX_LOSS_RATIO:.2f} and iou > {MIN_TRAIN_IOU}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
