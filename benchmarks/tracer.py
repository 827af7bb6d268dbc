"""Per-layer tracing of hcfnet from outside the program.

The tracer wraps hcfnet's public callables in every ``hcfnet`` module that
binds them (so ``from .x import f`` sites are covered too), records one span
per wrapped call, and puts every original object back on exit, even when the
traced code raises.  It never touches array data, so traced and untraced runs
compute bitwise identical results.

What is wrapped:

- ``Network.__call__`` and the ``__call__`` of every other module class:
  spans ``network.fwd`` and ``module.<path>.fwd`` for the network's direct
  children (``encoders.0`` ... ``heads.4``).
- every tape op (the functions of ``hcfnet.ops.__all__`` and the functions
  of ``hcfnet.tensor`` that call ``record``): forward seconds and calls per
  op.  The outermost op owns the time of the ops it composes, so the eleven
  nodes of a train-mode ``batch_norm`` count as ``batch_norm``.
- ``hcfnet.tensor.record``, including its re-binding in ``hcfnet.ops``:
  each tape node's ``backward_fn`` is timed under its op and under the
  top-level module that was open when the node was recorded.  FLOPs and
  bytes of conv2d, conv_transpose2d and matmul are computed here from the
  operand shapes.
- ``deep_supervision_loss``, ``backward``, ``Adam.step``, ``evaluate``,
  ``iou_metric``, ``niou_metric``, ``save_checkpoint``, ``restore_network``
  and the ``hcfnet.data`` readers and writers.

Model-level totals (network, modules, ops, losses, backward, Adam, nodes,
FLOPs) only accumulate while ``counting`` is true and no ``skip_inside``
span is open; the workload uses this to count exactly its timed units.
Call-level spans (evaluate, metrics, checkpoint, data) always accumulate.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

LISTED_OPS = (
    "conv2d",
    "conv_transpose2d",
    "batch_norm",
    "bilinear_resize",
    "max_pool2d",
    "unfold_patches",
    "softmax",
    "channel_conv1d",
    "matmul",
)
FLOP_OPS = ("conv2d", "conv_transpose2d", "matmul")
OTHER_OPS = "tensor.elementwise"
MODULE_PATHS = (
    tuple(f"encoders.{i}" for i in range(5))
    + ("bottleneck",)
    + tuple(f"ups.{i}" for i in range(4))
    + tuple(f"fusers.{i}" for i in range(4))
    + tuple(f"decoders.{i}" for i in range(4))
    + tuple(f"heads.{i}" for i in range(5))
)
NETWORK_SELF = "network_self"
LOSSES = "losses"

# Call-level spans: (metric prefix, module, attribute).
CALL_SPANS = (
    ("train.evaluate", "hcfnet.train", "evaluate"),
    ("metrics.iou", "hcfnet.metrics", "iou_metric"),
    ("metrics.niou", "hcfnet.metrics", "niou_metric"),
    ("checkpoint.save", "hcfnet.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "hcfnet.checkpoint", "restore_network"),
    ("data.read_pgm", "hcfnet.data", "read_pgm"),
    ("data.write_pgm", "hcfnet.data", "write_pgm"),
    ("data.load_dataset", "hcfnet.data", "load_dataset"),
    ("data.generate", "hcfnet.data", "generate_dataset"),
)


def _op_metric(label: str) -> str:
    return OTHER_OPS if label not in LISTED_OPS else f"ops.{label}"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    rows = [
        ("network.fwd_s", "s", "lower"),
        ("losses.fwd_s", "s", "lower"),
        ("losses.bwd_s", "s", "lower"),
        ("tensor.backward_s", "s", "lower"),
        ("tensor.sweep_s", "s", "lower"),
        ("tensor.nodes", "count", "lower"),
        ("optim.step_s", "s", "lower"),
    ]
    rows += [(f"{prefix}_s", "s", "lower") for prefix, _, _ in CALL_SPANS]
    rows.append(("checkpoint.save_bytes", "B", "lower"))
    for path in MODULE_PATHS + (NETWORK_SELF,):
        rows += [(f"module.{path}.fwd_s", "s", "lower"), (f"module.{path}.bwd_s", "s", "lower")]
    for prefix in [f"ops.{op}" for op in LISTED_OPS] + [OTHER_OPS]:
        rows += [
            (f"{prefix}.fwd_s", "s", "lower"),
            (f"{prefix}.bwd_s", "s", "lower"),
            (f"{prefix}.calls", "count", "lower"),
        ]
    for op in FLOP_OPS:
        rows += [
            (f"ops.{op}.gflop", "GFLOP-computed", "lower"),
            (f"ops.{op}.gbytes", "GB-computed", "lower"),
        ]
    rows += [
        ("ops.conv2d.gflops_rate", "GFLOP/s", "higher"),
        ("calib.dgemm_gflops", "GFLOP/s", "higher"),
        ("ops.conv2d.roofline_frac", "fraction", "higher"),
        ("trace.coverage", "fraction", "higher"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
    return rows


def _flop_cost(op: str, inputs, out_data) -> tuple[float, float, float, float]:
    """(fwd FLOP, fwd bytes, bwd FLOP, bwd bytes), computed from shapes.

    Bytes are the float64 operands each pass must read or write once:
    forward reads the inputs and writes the output; backward reads the
    output gradient and the inputs and writes one gradient per input that
    requires it.  Bias terms are ignored.
    """
    x, w = inputs[0], inputs[1]
    if op == "conv2d":
        _, c_per_g, kh, kw = w.shape
        macs = out_data.size * c_per_g * kh * kw
    elif op == "conv_transpose2d":
        n, c_in, h, wd = x.shape
        macs = n * h * wd * c_in * w.shape[1] * 4
    else:  # matmul: the output holds one k-long dot product per element
        macs = out_data.size * x.shape[-1]
    operands = x.size + w.size
    grads = sum(t.size for t in (x, w) if t.requires_grad)
    n_grads = sum(1 for t in (x, w) if t.requires_grad)
    return (
        2.0 * macs,
        8.0 * (operands + out_data.size),
        2.0 * macs * n_grads,
        8.0 * (out_data.size + operands + grads),
    )


class Patcher:
    """Replaces attributes and puts every original back, last patched first."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, replacement) -> None:
        self.saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def patch_everywhere(self, target, make_wrapper) -> None:
        """Wrap ``target`` in every hcfnet module that binds it."""
        wrapper = None
        for module in hcfnet_modules():
            for attr, value in list(vars(module).items()):
                if value is target:
                    wrapper = wrapper or make_wrapper(target)
                    self.patch(module, attr, wrapper)

    def restore(self) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)


def hcfnet_modules() -> list:
    return [
        sys.modules[name]
        for name in sorted(sys.modules)
        if name == "hcfnet" or name.startswith("hcfnet.")
    ]


def module_classes() -> list[type]:
    """hcfnet module classes that define their own ``__call__``."""
    base = sys.modules["hcfnet.nn"].Module
    found = []
    for module in hcfnet_modules():
        for value in vars(module).values():
            if (
                inspect.isclass(value)
                and issubclass(value, base)
                and "__call__" in vars(value)
                and value not in found
            ):
                found.append(value)
    return found


def op_functions() -> list:
    """Tape ops: ``hcfnet.ops.__all__`` plus tensor functions that record."""
    ops_mod = sys.modules["hcfnet.ops"]
    tensor_mod = sys.modules["hcfnet.tensor"]
    found = [getattr(ops_mod, name) for name in ops_mod.__all__]
    for name, value in vars(tensor_mod).items():
        if (
            inspect.isfunction(value)
            and value.__module__ == tensor_mod.__name__
            and not name.startswith("_")
            and name != "record"
            and "record" in value.__code__.co_names
        ):
            found.append(value)
    return found


class Tracer:
    """Context manager that installs the wraps and collects spans and totals.

    ``spans`` holds (name, start, end, parent index) for every span above
    op level; ``top`` holds (start, end) of the spans opened while no other
    span was open.
    """

    def __init__(self, skip_inside: str | None = None) -> None:
        self.skip_inside = skip_inside
        self.counting = True
        self.units = 0  # units of work a workload counts itself
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int]] = []
        self.top: list[tuple[float, float]] = []
        self.patcher = Patcher()
        self._skip_depth = 0
        self._open: list[int] = []
        self._regions: list[str] = []
        self._paths: dict[int, str] = {}
        self._op_label: str | None = None

    # -- install / restore ----------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.patcher.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.patcher.restore()

    def _install(self) -> None:
        mods = sys.modules
        patcher = self.patcher
        network_cls = mods["hcfnet.network"].Network
        for cls in module_classes():
            original = vars(cls)["__call__"]
            wrap = self._network_call if cls is network_cls else self._module_call
            patcher.patch(cls, "__call__", wrap(original))
        for fn in op_functions():
            patcher.patch_everywhere(fn, self._op_call)
        tensor_mod = mods["hcfnet.tensor"]
        patcher.patch_everywhere(tensor_mod.record, self._record)
        patcher.patch_everywhere(tensor_mod.backward, self._backward)
        patcher.patch_everywhere(
            mods["hcfnet.losses"].deep_supervision_loss,
            lambda fn: self._span_call("losses.fwd", fn, model=True, region=LOSSES),
        )
        adam = mods["hcfnet.optim"].Adam
        patcher.patch(adam, "step", self._span_call("optim.step", vars(adam)["step"], model=True))
        for prefix, module_name, attr in CALL_SPANS:
            after = self._count_bytes if prefix == "checkpoint.save" else None
            patcher.patch_everywhere(
                getattr(mods[module_name], attr),
                lambda fn, p=prefix, a=after: self._span_call(p, fn, after=a),
            )

    # -- bookkeeping ----------------------------------------------------------
    def counts_model(self) -> bool:
        return self.counting and self._skip_depth == 0

    def _begin(self, name: str) -> None:
        if name == self.skip_inside:
            self._skip_depth += 1
        self.spans.append((name, 0.0, 0.0, self._open[-1] if self._open else -1))
        self._open.append(len(self.spans) - 1)

    def _end(self, name: str, start: float, end: float) -> None:
        index = self._open.pop()
        self.spans[index] = (name, start, end, self.spans[index][3])
        if not self._open:
            self.top.append((start, end))
        if name == self.skip_inside:
            self._skip_depth -= 1

    def _add(self, key: str, seconds: float) -> None:
        self.totals[key] += seconds
        self.calls[key] += 1

    # -- wrappers -------------------------------------------------------------
    def _span_call(self, name, fn, *, model=False, region=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._begin(name)
            if region is not None:
                tracer._regions.append(region)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if region is not None:
                    tracer._regions.pop()
                if not model or tracer.counts_model():
                    tracer._add(name, end - start)
                tracer._end(name, start, end)
                if after is not None:
                    after(args)

        return traced

    def _count_bytes(self, args) -> None:
        path = args[0]
        if os.path.exists(path):
            self.totals["checkpoint.save_bytes"] += os.path.getsize(path)

    def _network_call(self, fn):
        tracer = self
        span = self._span_call("network.fwd", fn, model=True, region=NETWORK_SELF)
        module_list = sys.modules["hcfnet.nn"].ModuleList

        def traced(network, *args, **kwargs):
            paths = {}
            for name, child in network._children.items():
                if isinstance(child, module_list):
                    for index, item in enumerate(child):
                        paths[id(item)] = f"{name}.{index}"
                else:
                    paths[id(child)] = name
            tracer._paths = paths
            return span(network, *args, **kwargs)

        return traced

    def _module_call(self, fn):
        tracer = self
        label = fn.__qualname__.split(".")[0]

        def traced(module, *args, **kwargs):
            path = tracer._paths.get(id(module))
            is_top = path is not None and tracer._regions[-1:] == [NETWORK_SELF]
            region = path if is_top else (tracer._regions[-1] if tracer._regions else "other")
            name = f"module.{path}.fwd" if is_top else f"module.{label}"
            tracer._begin(name)
            tracer._regions.append(region)
            start = time.perf_counter()
            try:
                return fn(module, *args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._regions.pop()
                if is_top and tracer.counts_model():
                    tracer._add(name, end - start)
                tracer._end(name, start, end)

        return traced

    def _op_call(self, fn):
        tracer = self
        label = fn.__name__ if fn.__name__ in LISTED_OPS else "elementwise"
        key = f"{_op_metric(label)}.fwd"

        def traced(*args, **kwargs):
            if tracer._op_label is not None:
                return fn(*args, **kwargs)
            tracer._op_label = label
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._op_label = None
                if tracer.counts_model():
                    tracer._add(key, end - start)

        return traced

    def _record(self, fn):
        tracer = self

        def traced(op, inputs, out_data, backward_fn):
            label = tracer._op_label or (op if op in LISTED_OPS else "elementwise")
            region = tracer._regions[-1] if tracer._regions else "other"
            cost = _flop_cost(op, inputs, out_data) if op in FLOP_OPS else None
            if cost is not None and tracer.counts_model():
                tracer.totals[f"ops.{op}.flop"] += cost[0]
                tracer.totals[f"ops.{op}.bytes"] += cost[1]

            def timed_backward(gout):
                start = time.perf_counter()
                grads = backward_fn(gout)
                elapsed = time.perf_counter() - start
                if tracer.counts_model():
                    tracer.totals[f"{_op_metric(label)}.bwd"] += elapsed
                    tracer.totals[f"region.{region}.bwd"] += elapsed
                    tracer.totals["tensor.node_bwd"] += elapsed
                    if cost is not None:
                        tracer.totals[f"ops.{op}.flop"] += cost[2]
                        tracer.totals[f"ops.{op}.bytes"] += cost[3]
                return grads

            return fn(op, inputs, out_data, timed_backward)

        return traced

    def _backward(self, fn):
        tracer = self
        span = self._span_call("tensor.backward", fn, model=True)
        tape_length = sys.modules["hcfnet.tensor"].tape_length

        def traced(loss):
            if tracer.counts_model():
                tracer.totals["tensor.nodes"] += tape_length()
            return span(loss)

        return traced

    # -- report ---------------------------------------------------------------
    def per_layer(self, units: int, dgemm_gflops: float, coverage: float, overhead: float) -> dict:
        """Per-layer values: model-level totals per unit, call spans per call."""
        s, calls = self.totals, self.calls
        units = max(units, 1)

        def per_call(key: str) -> float:
            return s[key] / calls[key] if calls[key] else 0.0

        out = {
            "network.fwd_s": s["network.fwd"] / units,
            "losses.fwd_s": s["losses.fwd"] / units,
            "losses.bwd_s": s[f"region.{LOSSES}.bwd"] / units,
            "tensor.backward_s": s["tensor.backward"] / units,
            "tensor.sweep_s": (s["tensor.backward"] - s["tensor.node_bwd"]) / units,
            "tensor.nodes": s["tensor.nodes"] / units,
            "optim.step_s": s["optim.step"] / units,
        }
        for prefix, _, _ in CALL_SPANS:
            out[f"{prefix}_s"] = per_call(prefix)
        saves = calls["checkpoint.save"]
        out["checkpoint.save_bytes"] = s["checkpoint.save_bytes"] / saves if saves else 0.0
        top_fwd = 0.0
        for path in MODULE_PATHS:
            top_fwd += s[f"module.{path}.fwd"]
            out[f"module.{path}.fwd_s"] = s[f"module.{path}.fwd"] / units
            out[f"module.{path}.bwd_s"] = s[f"region.{path}.bwd"] / units
        out[f"module.{NETWORK_SELF}.fwd_s"] = (s["network.fwd"] - top_fwd) / units
        out[f"module.{NETWORK_SELF}.bwd_s"] = s[f"region.{NETWORK_SELF}.bwd"] / units
        for prefix in [f"ops.{op}" for op in LISTED_OPS] + [OTHER_OPS]:
            out[f"{prefix}.fwd_s"] = s[f"{prefix}.fwd"] / units
            out[f"{prefix}.bwd_s"] = s[f"{prefix}.bwd"] / units
            out[f"{prefix}.calls"] = calls[f"{prefix}.fwd"] / units
        for op in FLOP_OPS:
            out[f"ops.{op}.gflop"] = s[f"ops.{op}.flop"] / units / 1e9
            out[f"ops.{op}.gbytes"] = s[f"ops.{op}.bytes"] / units / 1e9
        conv_seconds = s["ops.conv2d.fwd"] + s["ops.conv2d.bwd"]
        rate = s["ops.conv2d.flop"] / conv_seconds / 1e9 if conv_seconds else 0.0
        out["ops.conv2d.gflops_rate"] = rate
        out["calib.dgemm_gflops"] = dgemm_gflops
        out["ops.conv2d.roofline_frac"] = rate / dgemm_gflops if dgemm_gflops else 0.0
        out["trace.coverage"] = coverage
        out["trace.overhead_frac"] = overhead
        return out

    def coverage(self, windows: list[tuple[float, float]]) -> float:
        """Share of the windows' wall time covered by top-level spans."""
        total = sum(end - start for start, end in windows)
        covered = 0.0
        for w_start, w_end in windows:
            for s_start, s_end in self.top:
                covered += max(0.0, min(w_end, s_end) - max(w_start, s_start))
        return covered / total if total else 0.0
