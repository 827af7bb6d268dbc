"""Flat key=value config files for the command-line tools.

One ``key = value`` pair per line; ``#`` starts a comment; blank lines are
skipped.  The keys are exactly the NetworkConfig and TrainConfig fields, and
each value is parsed by its field's annotation: tuples as comma lists
(``widths = 16,32,64,128,256``), ``X | None`` as ``none`` or an ``X``, bools
as true/yes/on/1 or false/no/off/0.  Anything else is rejected.
"""

from __future__ import annotations

import typing
from dataclasses import replace

from .errors import ConfigError, FileFormatError
from .network import NetworkConfig
from .train import TrainConfig

__all__ = ["parse_kv_file", "configs_from_mapping", "load_configs"]


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parser(hint):
    """Text parser for one annotated field type."""
    if hint is bool:
        return _parse_bool
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        item = _parser(args[0])
        return lambda text: tuple(item(tok.strip()) for tok in text.split(","))
    if type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        parse = _parser(inner)
        return lambda text: None if text.lower() == "none" else parse(text)
    return hint


_FIELDS = {
    name: (cls, _parser(hint))
    for cls in (NetworkConfig, TrainConfig)
    for name, hint in typing.get_type_hints(cls).items()
}


def parse_kv_file(path: str) -> dict[str, str]:
    """Read raw key -> value strings, rejecting malformed or duplicate keys."""
    pairs: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise FileFormatError(f"{path}:{lineno}: empty key or value")
        if key in pairs:
            raise FileFormatError(f"{path}:{lineno}: duplicate key '{key}'")
        pairs[key] = value
    return pairs


def configs_from_mapping(pairs: dict[str, str]) -> tuple[NetworkConfig, TrainConfig]:
    """Convert raw string pairs into validated network and train configs."""
    kwargs: dict = {NetworkConfig: {}, TrainConfig: {}}
    for key, value in pairs.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key '{key}'")
        cls, parser = _FIELDS[key]
        try:
            kwargs[cls][key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"config key '{key}': {exc}") from exc
    net_config = NetworkConfig(**kwargs[NetworkConfig])
    train_config = TrainConfig(**kwargs[TrainConfig])
    net_config.validate()
    train_config.validate()
    return net_config, train_config


def load_configs(path: str, seed: int | None = None) -> tuple[NetworkConfig, TrainConfig]:
    """Parse a config file, optionally overriding the training seed."""
    net_config, train_config = configs_from_mapping(parse_kv_file(path))
    if seed is not None:
        train_config = replace(train_config, seed=seed)
    return net_config, train_config
