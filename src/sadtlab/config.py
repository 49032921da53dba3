"""Declarative experiment configuration: INI sections, strict keys, loud defaults.

Unknown sections or keys are rejected outright, and every defaulted value is
echoed into the resolved config so a run is reproducible from its output
directory alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .strategies import STRATEGY_IDS


class ConfigError(ValueError):
    """Rejected configuration: unknown key, bad value, or missing input."""


@dataclass
class ExperimentConfig:
    # [data]
    data_format: str = "idx"  # idx | cifar10
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_files: list[str] = field(default_factory=list)
    test_files: list[str] = field(default_factory=list)
    train_size: int = 4096
    test_size: int = 1000
    num_classes: int = 10
    cutmix: bool = True
    cutmix_alpha: float = 1.0
    # [model]
    arch: str = "simple_cnn"  # simple_cnn | tiny_mlp
    init_seed: int | None = None  # resolved to the master seed when absent
    hidden_dims: list[int] = field(default_factory=lambda: [64])
    # [strategy]
    strategy_id: str = "baseline"
    rho: float = 0.05
    sigma_w: float = 0.0001
    sigma_g: float = 0.0001
    ascent_lr: float | None = None  # None: follow the lr schedule
    agc_lambda: float = 0.01
    rollback_to_w: bool = False
    # [train]
    epochs: int = 20
    batch_size: int = 64
    lr0: float = 0.0001
    seed: int = 0
    probe_every: int = 5  # epochs between sharpness/divergence probes; 0 disables
    probe_rho: float = 0.05
    probe_batches: int = 2
    # [output]
    out_dir: str = "runs/run"
    wall_times: bool = False


_SECTIONS: dict[str, dict[str, tuple[str, str]]] = {
    # section -> key -> (dataclass field, type tag)
    "data": {
        "format": ("data_format", "str"),
        "train_images": ("train_images", "str"),
        "train_labels": ("train_labels", "str"),
        "test_images": ("test_images", "str"),
        "test_labels": ("test_labels", "str"),
        "train_files": ("train_files", "strlist"),
        "test_files": ("test_files", "strlist"),
        "train_size": ("train_size", "int"),
        "test_size": ("test_size", "int"),
        "num_classes": ("num_classes", "int"),
        "cutmix": ("cutmix", "bool"),
        "cutmix_alpha": ("cutmix_alpha", "float"),
    },
    "model": {
        "arch": ("arch", "str"),
        "init_seed": ("init_seed", "int"),
        "hidden_dims": ("hidden_dims", "intlist"),
    },
    "strategy": {
        "id": ("strategy_id", "str"),
        "rho": ("rho", "float"),
        "sigma_w": ("sigma_w", "float"),
        "sigma_g": ("sigma_g", "float"),
        "ascent_lr": ("ascent_lr", "lr_or_schedule"),
        "agc_lambda": ("agc_lambda", "float"),
        "rollback_to_w": ("rollback_to_w", "bool"),
    },
    "train": {
        "epochs": ("epochs", "int"),
        "batch_size": ("batch_size", "int"),
        "lr0": ("lr0", "float"),
        "seed": ("seed", "int"),
        "probe_every": ("probe_every", "int"),
        "probe_rho": ("probe_rho", "float"),
        "probe_batches": ("probe_batches", "int"),
    },
    "output": {
        "dir": ("out_dir", "str"),
        "wall_times": ("wall_times", "bool"),
    },
}


def _parse_value(tag: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if tag == "str":
            return raw
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if tag == "strlist":
            return [part.strip() for part in raw.split(",") if part.strip()]
        if tag == "intlist":
            return [int(part) for part in raw.split(",") if part.strip()]
        if tag == "lr_or_schedule":
            return None if raw == "schedule" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise AssertionError(tag)


def _format_value(tag: str, value) -> str:
    if tag == "bool":
        return "true" if value else "false"
    if tag in ("strlist", "intlist"):
        return ", ".join(str(v) for v in value)
    if tag == "lr_or_schedule":
        return "schedule" if value is None else repr(value)
    if tag == "float":
        return repr(value)
    return str(value)


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.strategy_id not in STRATEGY_IDS:
        raise ConfigError(f"invalid strategy id {cfg.strategy_id!r} (choose from {STRATEGY_IDS})")
    if cfg.data_format not in ("idx", "cifar10"):
        raise ConfigError(f"invalid data format {cfg.data_format!r}")
    if cfg.arch not in ("simple_cnn", "tiny_mlp"):
        raise ConfigError(f"invalid model arch {cfg.arch!r}")
    if cfg.data_format == "idx":
        missing = [k for k in ("train_images", "train_labels", "test_images", "test_labels")
                   if not getattr(cfg, k)]
        if missing:
            raise ConfigError(f"missing dataset paths in [data]: {', '.join(missing)}")
    else:
        if not cfg.train_files or not cfg.test_files:
            raise ConfigError("missing dataset paths in [data]: train_files, test_files")
    for name in ("epochs", "probe_every"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be >= 0")
    for name in ("batch_size", "train_size", "test_size", "num_classes", "probe_batches"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    if cfg.arch == "tiny_mlp" and cfg.strategy_id == "sadt_v2":
        raise ConfigError("sadt_v2 needs a conv layer; tiny_mlp has none")


def parse_config(path, seed: int | None = None, out_dir: str | None = None) -> ExperimentConfig:
    """Parse and fully resolve a config file; CLI overrides applied last."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        known = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            attr, tag = known[key]
            setattr(cfg, attr, _parse_value(tag, raw, f"[{section}] {key}"))
    if seed is not None:
        cfg.seed = seed
    if out_dir is not None:
        cfg.out_dir = out_dir
    if cfg.init_seed is None:
        cfg.init_seed = cfg.seed
    _validate(cfg)
    return cfg


def resolved_text(cfg: ExperimentConfig) -> str:
    """Canonical INI rendering with every value explicit."""
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key, (attr, tag) in keys.items():
            lines.append(f"{key} = {_format_value(tag, getattr(cfg, attr))}")
        lines.append("")
    return "\n".join(lines)


def write_resolved(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(resolved_text(cfg))


def config_fingerprint_fields(cfg: ExperimentConfig) -> dict:
    """The (dataset, model) identity used to decide run comparability."""
    return {
        "data_format": cfg.data_format,
        "train_size": cfg.train_size,
        "test_size": cfg.test_size,
        "num_classes": cfg.num_classes,
        "arch": cfg.arch,
        "hidden_dims": list(cfg.hidden_dims),
    }
