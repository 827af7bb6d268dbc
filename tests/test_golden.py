"""Bit-for-bit pins of the default trajectory and of inference frames.

float64 GEMM results depend on the BLAS kernel the CPU selects, so these
digests hold for the configuration named in ``PINNED_ON``.  On another one a
mismatch is reported with both configurations, and the pins are re-taken on
purpose; the test is never skipped.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import hcfnet

from golden import blas_configuration, infer_digest, run_trajectory

PINNED_ON = (
    "numpy 2.4.6, OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell"
    " MAX_THREADS=64"
)

EPOCH_LINES = [
    "epoch=1 loss=3.323468 iou=0.003240",
    "epoch=2 loss=3.181837 iou=0.004775",
]
CHECKPOINT_SHA256 = "c1c5582f1d82334bdb36c4394246a1e8b2b556f83db07228a054000cce34170d"
FIRST_STEP_GRADS = "e76fcddfd3e7850cc8ed623381972d1209dde13d6bb364394d84cc0fa40ad404"
INFER_256 = "1c575d36b6f7fa0dad40dd0d1ea58be11c5e1010ecc8b1e61ad485063f694e23"
INFER_512 = "e30b64d0e6deb688379d263d1a8493c3323681965792065307d13f633e985637"


def where() -> str:
    return f"pinned on {PINNED_ON}; running on {blas_configuration()}"


def test_default_trajectory_is_pinned(tmp_path):
    path = tmp_path / "model.ckpt"
    lines, grads = run_trajectory(2, str(path))
    assert lines == EPOCH_LINES, where()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256, where()
    assert grads == FIRST_STEP_GRADS, where()
    assert infer_digest(256) == INFER_256, where()
    assert infer_digest(512) == INFER_512, where()


CHILD = """
from golden import infer_digest, run_trajectory
lines, grads = run_trajectory(1)
print(lines[0], grads, infer_digest(256))
"""


def test_blas_thread_count_changes_no_bit():
    # OpenBLAS reads its thread count once, when it loads, so each count
    # needs its own process.
    paths = [str(Path(hcfnet.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(paths))
        child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                               text=True, timeout=600)
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1], where()
