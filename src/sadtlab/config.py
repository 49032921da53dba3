"""Declarative experiment configuration: INI sections, strict keys, loud defaults.

Each INI section is one dataclass, and each key is one of its fields:
``[data]`` is :class:`DataConfig`, ``[model]`` :class:`ModelConfig`,
``[strategy]`` the :class:`~sadtlab.strategies.Strategy` that training runs,
``[train]`` :class:`TrainConfig` and ``[output]`` :class:`OutputConfig`. So
``[data] format`` is ``cfg.data.format``. Values are parsed and rendered by
the field's annotation. Unknown sections or keys are rejected outright, and
every defaulted value is echoed into the resolved config so a run is
reproducible from its output directory alone.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from . import InputError
from .strategies import PRESETS, Strategy


class ConfigError(InputError):
    """Rejected configuration: unknown key, bad value, or missing input."""


@dataclass
class DataConfig:
    format: str = "idx"  # idx | cifar10
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


@dataclass
class ModelConfig:
    arch: str = "simple_cnn"  # simple_cnn | tiny_mlp
    init_seed: int | None = None  # resolved to the master seed when absent
    hidden_dims: list[int] = field(default_factory=lambda: [64])


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    lr0: float = 0.0001
    seed: int = 0
    probe_every: int = 5  # epochs between sharpness/divergence probes; 0 disables
    probe_rho: float = 0.05
    probe_batches: int = 2


@dataclass
class OutputConfig:
    dir: str = "runs/run"
    wall_times: bool = False


@dataclass
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    strategy: Strategy = field(default_factory=lambda: Strategy("baseline"))
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _join(values) -> str:
    return ", ".join(str(v) for v in values)


# field annotation -> (parse, format)
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "int | None": (int, str),  # init_seed: None only until resolved
    "float": (float, repr),
    "float | None": (  # ascent_lr: None follows the lr schedule
        lambda raw: None if raw == "schedule" else float(raw),
        lambda value: "schedule" if value is None else repr(value),
    ),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "list[str]": (lambda raw: [part.strip() for part in raw.split(",") if part.strip()], _join),
    "list[int]": (lambda raw: [int(part) for part in raw.split(",") if part.strip()], _join),
}


def _validate(cfg: ExperimentConfig) -> None:
    data, model, train = cfg.data, cfg.model, cfg.train
    if data.format not in ("idx", "cifar10"):
        raise ConfigError(f"invalid data format {data.format!r}")
    if model.arch not in ("simple_cnn", "tiny_mlp"):
        raise ConfigError(f"invalid model arch {model.arch!r}")
    if data.format == "idx":
        missing = [k for k in ("train_images", "train_labels", "test_images", "test_labels")
                   if not getattr(data, k)]
        if missing:
            raise ConfigError(f"missing dataset paths in [data]: {', '.join(missing)}")
    else:
        if not data.train_files or not data.test_files:
            raise ConfigError("missing dataset paths in [data]: train_files, test_files")
    for name in ("epochs", "probe_every"):
        if getattr(train, name) < 0:
            raise ConfigError(f"{name} must be >= 0")
    # numpy rejects a negative seed only when the run draws from it
    for key, value in (("[train] seed", train.seed), ("[model] init_seed", model.init_seed)):
        if value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
    for name, value in (
        ("batch_size", train.batch_size), ("train_size", data.train_size),
        ("test_size", data.test_size), ("num_classes", data.num_classes),
        ("probe_batches", train.probe_batches),
    ):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1")
    # a bad rho would only surface at the first probe, an epoch into the run
    if train.probe_every and not (math.isfinite(train.probe_rho) and train.probe_rho > 0):
        raise ConfigError(f"probe_rho must be positive and finite, got {train.probe_rho}")
    if not (math.isfinite(train.lr0) and train.lr0 >= 0):
        raise ConfigError(f"lr0 must be finite and >= 0, got {train.lr0}")
    # both would only surface at the first step or at model build, after the
    # run directory is made
    if data.cutmix and not (math.isfinite(data.cutmix_alpha) and data.cutmix_alpha > 0):
        raise ConfigError(f"cutmix_alpha must be positive and finite, got {data.cutmix_alpha}")
    if model.arch == "tiny_mlp" and any(d < 1 for d in model.hidden_dims):
        raise ConfigError(f"hidden_dims must all be >= 1, got {_join(model.hidden_dims)}")
    if model.arch == "tiny_mlp" and "last-conv" in PRESETS[cfg.strategy.id].teachers:
        raise ConfigError(f"{cfg.strategy.id} needs a conv layer; tiny_mlp has none")


def parse_config(path, seed: int | None = None, out_dir: str | None = None) -> ExperimentConfig:
    """Parse and fully resolve a config file; CLI overrides applied last."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # e.g. a key before the first section, or a key or section given twice;
        # configparser's messages can span lines, the CLI prints one
        raise ConfigError(f"cannot parse config {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = ExperimentConfig()
    sections = {f.name for f in fields(cfg)}
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"unknown section [{name}]")
        default = getattr(cfg, name)
        types = {f.name: f.type for f in fields(default)}
        values = {}
        for key, raw in parser.items(name):
            if key not in types:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
            try:
                values[key] = _CODECS[types[key]][0](raw.strip())
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from exc
        try:
            setattr(cfg, name, replace(default, **values))
        except ValueError as exc:  # Strategy rejects an unknown id or a bad hyperparameter
            raise ConfigError(str(exc)) from exc
    if seed is not None:
        cfg.train.seed = seed
    if out_dir is not None:
        cfg.output.dir = out_dir
    if cfg.model.init_seed is None:
        cfg.model.init_seed = cfg.train.seed
    _validate(cfg)
    return cfg


def resolved_text(cfg: ExperimentConfig) -> str:
    """Canonical INI rendering with every value explicit."""
    lines = []
    for sec in fields(cfg):
        section = getattr(cfg, sec.name)
        lines.append(f"[{sec.name}]")
        for f in fields(section):
            lines.append(f"{f.name} = {_CODECS[f.type][1](getattr(section, f.name))}")
        lines.append("")
    return "\n".join(lines)
