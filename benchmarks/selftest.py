"""Self-test of the benchmark.  From the repository root:

    python3 benchmarks/selftest.py        (or: python3 -m pytest benchmarks/selftest.py)

It checks that tracing changes no result bitwise (the train-64 final loss
and one infer-large probability map), that no wrapped name survives the
tracer's exit, also when the traced code raises, and that BENCHMARK.json
lists the metrics the code reports.  The file name keeps it out of the
repository's own test collection; it takes about a minute.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, hcfnet_modules, per_layer_metrics  # noqa: E402


def _namespace() -> dict:
    """Every attribute of every hcfnet module and of its classes."""
    names = {}
    for module in hcfnet_modules():
        for name, value in vars(module).items():
            names[module.__name__, name] = value
            if inspect.isclass(value) and value.__module__.startswith("hcfnet"):
                for attr, member in vars(value).items():
                    names[module.__name__, name, attr] = member
    return names


def _unchanged(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


def test_no_patch_survives_the_tracer():
    before = _namespace()
    with Tracer():
        during = _namespace()
    assert not _unchanged(before, during), "the tracer wrapped nothing"
    assert _unchanged(before, _namespace())
    try:
        with Tracer():
            raise RuntimeError("fail inside the traced block")
    except RuntimeError:
        pass
    assert _unchanged(before, _namespace())


def test_tracing_changes_no_result():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        plain = workloads.TrainWorkload(3, workdir).unit(None)
        train = workloads.TrainWorkload(3, workdir)
        with Tracer(skip_inside=train.skip_inside) as tracer:
            traced = train.unit(tracer)
        loss_plain, loss_traced = plain.samples["loss_final"][0], traced.samples["loss_final"][0]
        assert loss_plain.hex() == loss_traced.hex(), (loss_plain, loss_traced)
        steps = tracer.calls["optim.step"]
        assert steps == len(traced.samples["step_s"]) and steps > 0
        assert tracer.totals["tensor.nodes"] > 0

        infer = workloads.InferWorkload(3, workdir)
        infer.setup()
        _, _, digest_plain = infer._frame(256, 0)
        with Tracer() as tracer:
            _, _, digest_traced = infer._frame(256, 0)
        assert digest_plain == digest_traced
        assert tracer.calls["network.fwd"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
