"""Binary checkpoint format for networks and optimizer state.

Layout (little-endian): magic ``HCFC``, u32 format version, one JSON frame
holding the network config, the named parameter blobs, the named batch-norm
buffers, and an optional optimizer section (JSON frame with step/hyper/meta
plus first and second moment blobs per parameter).  Frames are u32 length
prefixes; tensors use the ``HCFT`` blob format, so float64 payloads round-trip
bitwise.
"""

from __future__ import annotations

import json
import struct
from typing import BinaryIO

import numpy as np

from .errors import FileFormatError
from .network import Network, NetworkConfig
from .tensor import tensor_from_bytes, tensor_to_bytes

__all__ = ["save_checkpoint", "load_checkpoint", "restore_network"]

_MAGIC = b"HCFC"
_VERSION = 1


def _write_frame(fh: BinaryIO, payload: bytes) -> None:
    fh.write(struct.pack("<I", len(payload)))
    fh.write(payload)


def _write_named_blobs(fh: BinaryIO, items: list[tuple[str, np.ndarray]]) -> None:
    fh.write(struct.pack("<I", len(items)))
    for name, array in items:
        _write_frame(fh, name.encode("utf-8"))
        _write_frame(fh, tensor_to_bytes(array))


def _read_frame(fh: BinaryIO) -> bytes:
    header = fh.read(4)
    if len(header) != 4:
        raise FileFormatError("checkpoint truncated inside a frame header")
    (length,) = struct.unpack("<I", header)
    payload = fh.read(length)
    if len(payload) != length:
        raise FileFormatError("checkpoint truncated inside a frame payload")
    return payload


def _read_named_blobs(fh: BinaryIO) -> dict[str, np.ndarray]:
    header = fh.read(4)
    if len(header) != 4:
        raise FileFormatError("checkpoint truncated before a blob table")
    (count,) = struct.unpack("<I", header)
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = _read_frame(fh).decode("utf-8")
        out[name] = tensor_from_bytes(_read_frame(fh)).data
    return out


def save_checkpoint(
    path: str,
    network: Network,
    *,
    optimizer_state: dict | None = None,
    meta: dict | None = None,
) -> None:
    """Serialize config, parameters, running stats and optional training state."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        _write_frame(fh, json.dumps(network.config.to_dict(), sort_keys=True).encode("utf-8"))
        _write_named_blobs(fh, [(n, p.data) for n, p in network.named_parameters()])
        _write_named_blobs(fh, list(network.named_buffers()))
        if optimizer_state is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            header = {
                "step": optimizer_state["step"],
                "hyper": optimizer_state.get("hyper", {}),
                "meta": meta or {},
            }
            _write_frame(fh, json.dumps(header, sort_keys=True).encode("utf-8"))
            moments = optimizer_state["moments"]
            fh.write(struct.pack("<I", len(moments)))
            for name in sorted(moments):
                m, v = moments[name]
                _write_frame(fh, name.encode("utf-8"))
                _write_frame(fh, tensor_to_bytes(m))
                _write_frame(fh, tensor_to_bytes(v))


def load_checkpoint(path: str) -> dict:
    """Parse a checkpoint into config, arrays and optional optimizer state."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise FileFormatError(f"not a checkpoint: magic {magic!r}")
        version_raw = fh.read(4)
        if len(version_raw) != 4:
            raise FileFormatError("checkpoint truncated in header")
        (version,) = struct.unpack("<I", version_raw)
        if version != _VERSION:
            raise FileFormatError(f"unsupported checkpoint version {version}")
        try:
            config_raw = json.loads(_read_frame(fh).decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise FileFormatError("checkpoint config frame is not valid JSON") from exc
        try:
            config = NetworkConfig.from_dict(config_raw)
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"checkpoint config frame has a mistyped field: {exc}") from exc
        params = _read_named_blobs(fh)
        buffers = _read_named_blobs(fh)
        flag = fh.read(1)
        if len(flag) != 1:
            raise FileFormatError("checkpoint truncated before optimizer flag")
        optimizer_state = None
        meta: dict = {}
        if flag[0] == 1:
            try:
                header = json.loads(_read_frame(fh).decode("utf-8"))
            except json.JSONDecodeError as exc:
                raise FileFormatError("optimizer frame is not valid JSON") from exc
            count_raw = fh.read(4)
            if len(count_raw) != 4:
                raise FileFormatError("checkpoint truncated in optimizer table")
            (count,) = struct.unpack("<I", count_raw)
            moments = {}
            for _ in range(count):
                name = _read_frame(fh).decode("utf-8")
                m = tensor_from_bytes(_read_frame(fh)).data
                v = tensor_from_bytes(_read_frame(fh)).data
                moments[name] = (m, v)
            optimizer_state = {
                "step": header["step"],
                "hyper": header.get("hyper", {}),
                "moments": moments,
            }
            meta = header.get("meta", {})
    return {
        "config": config,
        "params": params,
        "buffers": buffers,
        "optimizer": optimizer_state,
        "meta": meta,
    }


def restore_network(path: str) -> tuple[Network, dict]:
    """Rebuild the network a checkpoint describes and load its state.

    Returns the network plus the full parsed checkpoint dictionary.
    """
    snapshot = load_checkpoint(path)
    network = Network(snapshot["config"], seed=0)
    stored = snapshot["params"]
    names = {name for name, _ in network.named_parameters()}
    if names != set(stored):
        missing = sorted(names - set(stored))
        extra = sorted(set(stored) - names)
        raise FileFormatError(
            f"parameter names do not match this config (missing {missing}, extra {extra})"
        )
    for name, param in network.named_parameters():
        array = stored[name]
        if array.shape != param.shape:
            raise FileFormatError(
                f"parameter '{name}' has shape {array.shape}, expected {param.shape}"
            )
        param.data = array.copy()
    buffer_names = {name for name, _ in network.named_buffers()}
    if buffer_names != set(snapshot["buffers"]):
        raise FileFormatError("buffer names do not match this config")
    for name, array in snapshot["buffers"].items():
        network.set_buffer(name, array)
    return network, snapshot
