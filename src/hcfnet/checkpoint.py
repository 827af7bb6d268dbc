"""Binary checkpoint format for networks and optimizer state.

Layout (little-endian): magic ``HCFC``, u32 format version, one JSON frame
holding the network config (its fields, plus the ``stages`` and
``loss_weights`` they derive and the fixed MDCR ``dilations``, all of which
must match on load), the parameter table, the batch-norm buffer table, and
an optional optimizer section (JSON frame with step/hyper/meta plus the
moment table).  Frames are u32 length prefixes.  A table is a u32 row
count, then per row a name frame and one ``HCFT`` blob frame per array: one
for parameters and buffers, two (first then second moment) for the moments,
which are sorted by name.  Names are unique within a table.  The ``HCFT``
blobs round-trip float64 payloads bitwise.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import BinaryIO, Iterable

import numpy as np

from .errors import ConfigError, ContractError, FileFormatError
from .network import Network, NetworkConfig
from .optim import check_hyper
from .tensor import MAX_RANK, _all_finite, _check_shape

__all__ = ["save_checkpoint", "load_checkpoint", "restore_network"]

_MAGIC = b"HCFC"
_VERSION = 1
_BLOB_MAGIC = b"HCFT"


def tensor_to_bytes(array: np.ndarray) -> bytes:
    """Little-endian blob: magic, u32 rank, u32 extents, f64 payload."""
    _check_shape(array.shape)
    header = _BLOB_MAGIC + struct.pack(f"<{1 + array.ndim}I", array.ndim, *array.shape)
    return header + np.ascontiguousarray(array, dtype="<f8").tobytes()


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    """Decode one blob into a float64 array of rank 1 to ``MAX_RANK`` with
    positive extents and finite values, or raise ``FileFormatError``."""
    if len(blob) < 8 or blob[:4] != _BLOB_MAGIC:
        raise FileFormatError("bad tensor blob: missing HCFT magic")
    (rank,) = struct.unpack_from("<I", blob, 4)
    if not 1 <= rank <= MAX_RANK:
        raise FileFormatError(f"bad tensor blob: rank {rank}")
    need = 8 + 4 * rank
    if len(blob) < need:
        raise FileFormatError("bad tensor blob: truncated header")
    shape = struct.unpack_from(f"<{rank}I", blob, 8)
    if 0 in shape:
        raise FileFormatError(f"bad tensor blob: zero extent in shape {shape}")
    count = math.prod(shape)  # exact: four u32 extents overflow int64
    if len(blob) != need + 8 * count:
        raise FileFormatError("bad tensor blob: payload size mismatch")
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=need)
    data = data.reshape(shape).astype(np.float64)
    if not _all_finite(data):
        raise FileFormatError("bad tensor blob: non-finite values")
    return data


def _write_frame(fh: BinaryIO, payload: bytes) -> None:
    fh.write(struct.pack("<I", len(payload)))
    fh.write(payload)


def _write_table(fh: BinaryIO, rows: list[tuple[str, tuple[np.ndarray, ...]]]) -> None:
    fh.write(struct.pack("<I", len(rows)))
    for name, arrays in rows:
        _write_frame(fh, name.encode("utf-8"))
        for array in arrays:
            _write_frame(fh, tensor_to_bytes(array))


def _read_u32(fh: BinaryIO, where: str) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise FileFormatError(f"checkpoint truncated {where}")
    return struct.unpack("<I", raw)[0]


def _read_frame(fh: BinaryIO) -> bytes:
    length = _read_u32(fh, "inside a frame header")
    payload = fh.read(length)
    if len(payload) != length:
        raise FileFormatError("checkpoint truncated inside a frame payload")
    return payload


def _read_text(fh: BinaryIO, what: str) -> str:
    try:
        return _read_frame(fh).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"checkpoint {what} is not valid UTF-8") from exc


def _read_json(fh: BinaryIO, what: str):
    try:
        return json.loads(_read_text(fh, what))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"checkpoint {what} is not valid JSON") from exc
    except RecursionError as exc:
        raise FileFormatError(f"checkpoint {what} nests too deeply") from exc


def _read_array(fh: BinaryIO, what: str, name: str) -> np.ndarray:
    blob = _read_frame(fh)
    try:
        return tensor_from_bytes(blob)
    except FileFormatError as exc:
        raise FileFormatError(f"checkpoint {what} '{name}': {exc}") from exc


def _read_table(fh: BinaryIO, what: str, width: int) -> dict[str, tuple[np.ndarray, ...]]:
    out: dict[str, tuple[np.ndarray, ...]] = {}
    for _ in range(_read_u32(fh, f"before the {what} table")):
        name = _read_text(fh, f"{what} name")
        if name in out:
            raise FileFormatError(f"checkpoint {what} table repeats the name '{name}'")
        out[name] = tuple(_read_array(fh, what, name) for _ in range(width))
    return out


def save_checkpoint(
    path: str,
    network: Network,
    *,
    optimizer_state: dict | None = None,
    meta: dict | None = None,
) -> None:
    """Serialize config, parameters, running stats and optional training state.

    ``meta`` is stored in the optimizer section, so it needs ``optimizer_state``.
    A synced temp file beside ``path`` replaces it, so a crash keeps the old file.
    """
    if meta is not None and optimizer_state is None:
        raise ContractError("checkpoint meta is stored with the optimizer state, which is missing")
    temp = f"{path}.tmp"
    try:
        with open(temp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _VERSION))
            config = network.config.to_dict()
            _write_frame(fh, json.dumps(config, sort_keys=True).encode("utf-8"))
            _write_table(fh, [(n, (p.data,)) for n, p in network.named_parameters()])
            _write_table(fh, [(n, (b,)) for n, b in network.named_buffers()])
            if optimizer_state is None:
                fh.write(struct.pack("<B", 0))
            else:
                fh.write(struct.pack("<B", 1))
                header = {
                    "step": optimizer_state["step"],
                    "hyper": optimizer_state["hyper"],
                    "meta": meta or {},
                }
                _write_frame(fh, json.dumps(header, sort_keys=True).encode("utf-8"))
                moments = optimizer_state["moments"]
                _write_table(fh, [(n, moments[n]) for n in sorted(moments)])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise


def load_checkpoint(path: str) -> dict:
    """Parse a checkpoint into config, arrays and optional optimizer state."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise FileFormatError(f"not a checkpoint: magic {magic!r}")
        version = _read_u32(fh, "in header")
        if version != _VERSION:
            raise FileFormatError(f"unsupported checkpoint version {version}")
        config_raw = _read_json(fh, "config frame")
        try:
            config = NetworkConfig.from_dict(config_raw)
        except ConfigError as exc:
            raise FileFormatError(f"checkpoint config frame: {exc}") from exc
        params = {name: array for name, (array,) in _read_table(fh, "parameter", 1).items()}
        buffers = {name: array for name, (array,) in _read_table(fh, "buffer", 1).items()}
        flag = fh.read(1)
        if len(flag) != 1:
            raise FileFormatError("checkpoint truncated before optimizer flag")
        if flag[0] not in (0, 1):
            raise FileFormatError(f"checkpoint optimizer flag is {flag[0]}, expected 0 or 1")
        optimizer_state = None
        meta: dict = {}
        if flag[0] == 1:
            header = _read_json(fh, "optimizer frame")
            if not (
                isinstance(header, dict)
                and type(header.get("step")) is int
                and isinstance(header.get("hyper"), dict)
                and isinstance(header.get("meta"), dict)
            ):
                raise FileFormatError(
                    "checkpoint optimizer frame needs an integer step and object hyper/meta"
                )
            try:
                check_hyper(header["hyper"])
            except ConfigError as exc:
                raise FileFormatError(f"checkpoint optimizer frame: {exc}") from exc
            meta = header["meta"]
            for key in ("epoch", "seed"):
                if key in meta and not (type(meta[key]) is int and meta[key] >= 0):
                    raise FileFormatError(
                        f"checkpoint meta {key} must be a non-negative integer, got {meta[key]!r}"
                    )
            optimizer_state = {
                "step": header["step"],
                "hyper": header["hyper"],
                "moments": _read_table(fh, "moment", 2),
            }
        if fh.read(1):
            raise FileFormatError("checkpoint has trailing bytes after its last section")
    return {
        "config": config,
        "params": params,
        "buffers": buffers,
        "optimizer": optimizer_state,
        "meta": meta,
    }


def _match(named: Iterable[tuple[str, object]], stored: dict[str, np.ndarray], what: str) -> list:
    """Pair the network's ``what`` entries with stored arrays of equal names and shapes."""
    current = dict(named)
    if set(current) != set(stored):
        missing = sorted(set(current) - set(stored))
        extra = sorted(set(stored) - set(current))
        raise FileFormatError(
            f"checkpoint {what} names do not match this config (missing {missing}, extra {extra})"
        )
    for name, target in current.items():
        array = stored[name]
        if array.shape != target.shape:
            raise FileFormatError(
                f"checkpoint {what} '{name}' has shape {array.shape}, expected {target.shape}"
            )
    return [(target, stored[name]) for name, target in current.items()]


def restore_network(path: str) -> tuple[Network, dict]:
    """Rebuild the network a checkpoint describes and load its state.

    Every stored parameter, buffer and Adam moment must match the rebuilt
    network's names and shapes, and no running variance may be negative.
    Returns the network plus the full parsed checkpoint dictionary.
    """
    snapshot = load_checkpoint(path)
    network = Network(snapshot["config"], seed=0)
    params = _match(network.named_parameters(), snapshot["params"], "parameter")
    buffers = _match(network.named_buffers(), snapshot["buffers"], "buffer")
    # Running variances blend non-negative batch variances, so a negative
    # entry can only come from a damaged file; eval would take its sqrt.
    for name, array in snapshot["buffers"].items():
        if name.endswith("running_var") and (array < 0).any():
            raise FileFormatError(f"checkpoint buffer '{name}' holds a negative variance")
    if snapshot["optimizer"] is not None:
        moments = snapshot["optimizer"]["moments"]
        for k, what in enumerate(("first moment", "second moment")):
            _match(network.named_parameters(), {n: mv[k] for n, mv in moments.items()}, what)
    for param, array in params:
        param.data = array
    for buffer, array in buffers:
        buffer[...] = array
    return network, snapshot
