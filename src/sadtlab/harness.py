"""Experiment runner: deterministic training loop with CSV/JSON logging.

All randomness is derived from the master seed through fixed spawn keys:
batch order from (1, epoch), CutMix draws from (2, epoch, batch), strategy
noise from (3, epoch, batch). Strategies therefore consume byte-identical
batch streams for a shared seed, and identical configs reproduce identical
logs, given the same BLAS thread count: OpenBLAS splits a matmul's sums by
its thread count, so one config run with a different number of threads
writes different floats. The ``sadtlab`` command pins one thread unless the
user set a count, and ``env.json`` records that environment beside the
outputs. Wall-clock timings and page-fault counts are kept out of the metric
CSV (they are the non-reproducible quantities) and go to an optional sidecar
instead.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, InputError, __version__
from .config import ConfigError, DataConfig, ExperimentConfig, ModelConfig, resolved_text
from .data import Dataset, MixedBatch, cutmix, load_cifar_binary, load_idx, make_batches
from .metrics import (
    estimate_sharpness, evaluate, model_divergence, probe_batches, probe_logits,
)
from .nn import Model, build_simple_cnn, build_tiny_mlp, replace_whole, save_checkpoint
from .optim import AdamState, Schedule, cosine_lr
from .strategies import STRATEGY_IDS, NonFiniteLossError

METRICS_FILE = "metrics.csv"
SUMMARY_FILE = "summary.json"
RESOLVED_FILE = "resolved.ini"
HASHES_FILE = "batch_hashes.txt"
CHECKPOINT_FILE = "final.ckpt"
ABORT_CHECKPOINT_FILE = "abort.ckpt"
WALL_TIMES_FILE = "wall_times.csv"
ENV_FILE = "env.json"
RUN_FILES = (METRICS_FILE, SUMMARY_FILE, RESOLVED_FILE, HASHES_FILE, CHECKPOINT_FILE,
             ABORT_CHECKPOINT_FILE, WALL_TIMES_FILE, ENV_FILE)


@dataclass
class RunRow:
    step: int
    epoch: int
    phase: str  # step | eval_train | eval_test | probe | final_test
    task_loss: float | None = None
    kl_loss: float | None = None
    lr: float | None = None
    grad_norm: float | None = None
    accuracy: float | None = None
    sharpness: float | None = None
    divergence: float | None = None
    wall_ms: float | None = None  # stays empty in the deterministic CSV

    def csv_line(self) -> str:
        cells = [str(self.step), str(self.epoch), self.phase]
        for name in _VALUE_COLUMNS:
            value = getattr(self, name)
            cells.append("" if value is None else repr(float(value)))
        return ",".join(cells)


CSV_HEADER = ",".join(f.name for f in fields(RunRow))
_VALUE_COLUMNS = tuple(f.name for f in fields(RunRow))[3:]  # after step, epoch, phase


@dataclass
class RunLog:
    config: ExperimentConfig
    rows: list[RunRow] = field(default_factory=list)
    batch_hashes: list[str] = field(default_factory=list)
    # step, wall ms, lane ms, minor faults
    wall_times: list[tuple[int, float, float, int]] = field(default_factory=list)
    final_accuracy: float | None = None
    final_loss: float | None = None

    def csv_text(self) -> str:
        return "\n".join([CSV_HEADER, *(row.csv_line() for row in self.rows)]) + "\n"


def _load_dataset(data: DataConfig) -> tuple[Dataset, Dataset, str]:
    """The train and test sets, and the train files as an error names them."""
    if data.format == "idx":
        train = load_idx(data.train_images, data.train_labels, data.num_classes)
        test = load_idx(data.test_images, data.test_labels, data.num_classes)
        sources = data.train_images, data.test_images
    else:
        train = load_cifar_binary(data.train_files, data.num_classes)
        test = load_cifar_binary(data.test_files, data.num_classes)
        sources = ", ".join(data.train_files), ", ".join(data.test_files)
    for key, dataset, source in zip(("train_size", "test_size"), (train, test), sources):
        size = getattr(data, key)
        if size > dataset.n:
            raise ConfigError(f"[data] {key} = {size}, but {source} holds {dataset.n} samples")
    return train.subset(data.train_size), test.subset(data.test_size), sources[0]


def _build_model(cfg: ModelConfig, train: Dataset, source: str) -> Model:
    shape = train.images.shape[1:]
    try:  # images too small for the pools, or of no pixels (a ShapeError is a ValueError)
        if cfg.arch == "simple_cnn":
            return build_simple_cnn(shape, train.num_classes, cfg.init_seed)
        return build_tiny_mlp(int(np.prod(shape)), cfg.hidden_dims, train.num_classes, cfg.init_seed)
    except ValueError as exc:
        raise ConfigError(f"[model] arch = {cfg.arch} does not fit {source}: {exc}") from exc


def _batch_hash(batch: MixedBatch) -> str:
    digest = hashlib.sha256()
    digest.update(batch.images.tobytes())
    digest.update(batch.label_a.tobytes())
    digest.update(batch.label_b.tobytes())
    digest.update(struct.pack("<d", batch.lam))
    return digest.hexdigest()


def _file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dataset_fingerprint(cfg: ExperimentConfig) -> str:
    """What compared runs must share: data and model settings, and data files."""
    data = cfg.data
    # the keys predate the per-section config and keep their names, since
    # every run's dataset_fingerprint hashes them
    settings = {"data_format": data.format, "train_size": data.train_size,
                "test_size": data.test_size, "num_classes": data.num_classes,
                "arch": cfg.model.arch, "hidden_dims": list(cfg.model.hidden_dims)}
    digest = hashlib.sha256(json.dumps(settings, sort_keys=True).encode())
    if data.format == "idx":
        paths = [data.train_images, data.train_labels, data.test_images, data.test_labels]
    else:
        paths = [*data.train_files, *data.test_files]
    for path in paths:
        digest.update(_file_digest(path).encode())
    return digest.hexdigest()


def _blas_core() -> str | None:
    """The kernel numpy's OpenBLAS runs, which it picks at run time unless
    ``OPENBLAS_CORETYPE`` forces one; None where its BLAS does not say."""
    try:  # a symbol lookup on numpy's extension also searches the libraries it links
        corename = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    """What a run's floats depend on beyond its config: the numpy version, its
    BLAS (name, version, build configuration, the kernel that runs and
    ``OPENBLAS_CORETYPE``), the BLAS thread variables (null when unset) and
    the count of CPUs the process may run on, its affinity where the OS has
    one: more than one starts the conv lane worker."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.26 has no mode="dicts"
        deps = {}
    blas = deps.get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "core": _blas_core(),
            "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        },
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count()),
    }


def _spawn(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))


def run_experiment(cfg: ExperimentConfig) -> RunLog:
    """Train per the config, logging every step, eval, and probe.

    A probe row holds the sharpness at the current weights and the divergence
    from the initial model. The initial model's logits on the probe batches
    are computed once, before the first epoch, and each probe's sharpness
    pass supplies the current logits, so no copy of the initial model is
    kept. Writes metrics.csv, resolved.ini, env.json, summary.json,
    batch_hashes.txt, and the final checkpoint into the output directory,
    which is made only once the data has loaded. A directory holds one run:
    the files an earlier run wrote there (``RUN_FILES``) are deleted first.
    The logs (``_write_logs``) are also rewritten at the end of every epoch,
    each replaced whole, so an interrupted run or a failed write keeps the
    finished epochs' logs, but an interrupted run has no summary.json. A
    non-finite loss aborts the run after saving the weights before the
    failing step and the logs.
    """
    opts = cfg.train
    seed, batch_size, epochs = opts.seed, opts.batch_size, opts.epochs
    train, test, train_source = _load_dataset(cfg.data)
    model = _build_model(cfg.model, train, train_source)
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in RUN_FILES:  # one run per directory: no file of an earlier run stays
        (out / name).unlink(missing_ok=True)
    (out / RESOLVED_FILE).write_text(resolved_text(cfg))
    (out / ENV_FILE).write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")
    state = AdamState(model.params)
    batches_per_epoch = (train.n + batch_size - 1) // batch_size
    total_steps = epochs * batches_per_epoch
    schedule = Schedule(total_steps, opts.lr0) if total_steps else None
    sharp_batches = probe_batches(train, opts.probe_batches, batch_size)

    log = RunLog(cfg)

    def eval_pair(step: int, epoch: int) -> None:
        for phase, dataset in (("eval_train", train), ("eval_test", test)):
            res = evaluate(model, dataset)
            log.rows.append(
                RunRow(step, epoch, phase, task_loss=res.mean_loss, accuracy=res.accuracy)
            )

    eval_pair(0, 0)
    # only a run that probes at some epoch compares with the initial logits
    initial_logits = probe_logits(model, sharp_batches) if 0 < opts.probe_every <= epochs else []
    step = 0
    try:
        for epoch in range(1, epochs + 1):
            for i, idx in enumerate(make_batches(train, batch_size, _spawn(seed, 1, epoch))):
                images, labels = train.images[idx], train.labels[idx]
                if cfg.data.cutmix and len(idx) >= 2:
                    mix_seed = int(_spawn(seed, 2, epoch, i).generate_state(1)[0])
                    batch = cutmix(images, labels, cfg.data.cutmix_alpha, mix_seed)
                else:
                    batch = MixedBatch.plain(images, labels)
                log.batch_hashes.append(_batch_hash(batch))
                lr = cosine_lr(schedule, step)
                report = cfg.strategy.step(
                    model, batch, state, lr, noise_seed=_spawn(seed, 3, epoch, i)
                )
                step += 1
                log.rows.append(
                    RunRow(
                        step, epoch, "step",
                        task_loss=report.task_loss, kl_loss=report.kl_loss,
                        lr=report.lr, grad_norm=report.grad_norm,
                    )
                )
                log.wall_times.append((step, report.wall_ms, report.lane_ms,
                                       report.minor_faults))
            eval_pair(step, epoch)
            if opts.probe_every and epoch % opts.probe_every == 0:
                sharp = estimate_sharpness(model, sharp_batches, opts.probe_rho)
                div = model_divergence(sharp.logits, initial_logits)
                log.rows.append(
                    RunRow(step, epoch, "probe", sharpness=sharp.value, divergence=div.value)
                )
            _write_logs(log, out)  # an interrupted run keeps its finished epochs' logs
    except NonFiniteLossError as exc:
        save_checkpoint(model.params, out / ABORT_CHECKPOINT_FILE)
        _write_outputs(log, out, aborted=str(exc))
        tail = "\n".join(row.csv_line() for row in log.rows[-5:])
        raise RuntimeError(
            f"non-finite loss at step {step + 1}: {exc}\nlast rows:\n{tail}"
        ) from exc

    final = evaluate(model, test)
    log.rows.append(
        RunRow(step, epochs, "final_test", task_loss=final.mean_loss, accuracy=final.accuracy)
    )
    log.final_accuracy = final.accuracy
    log.final_loss = final.mean_loss
    save_checkpoint(model.params, out / CHECKPOINT_FILE)
    _write_outputs(log, out)
    return log


def _replace_text(path: Path, text: str) -> None:
    with replace_whole(path) as part:
        part.write_text(text)


def _write_logs(log: RunLog, out: Path) -> None:
    _replace_text(out / METRICS_FILE, log.csv_text())
    _replace_text(out / HASHES_FILE, "".join(f"{h}\n" for h in log.batch_hashes))
    if log.config.output.wall_times:
        rows = (f"{s},{wall:.3f},{lane:.3f},{faults}" for s, wall, lane, faults in log.wall_times)
        lines = ["step,wall_ms,lane_ms,minor_faults", *rows]
        _replace_text(out / WALL_TIMES_FILE, "\n".join(lines) + "\n")


def _write_outputs(log: RunLog, out: Path, aborted: str | None = None) -> None:
    cfg = log.config
    _write_logs(log, out)
    hash_digest = hashlib.sha256("".join(log.batch_hashes).encode()).hexdigest()
    summary = {
        "version": __version__,
        "strategy": cfg.strategy.id,
        "arch": cfg.model.arch,
        "seed": cfg.train.seed,
        "init_seed": cfg.model.init_seed,
        "epochs": cfg.train.epochs,
        "batch_size": cfg.train.batch_size,
        "steps": sum(1 for r in log.rows if r.phase == "step"),
        "dataset_fingerprint": dataset_fingerprint(cfg),
        "batch_stream_digest": hash_digest,
        "final_test_accuracy": log.final_accuracy,
        "final_test_loss": log.final_loss,
        "aborted": aborted,
    }
    _replace_text(out / SUMMARY_FILE, json.dumps(summary, indent=2, sort_keys=True) + "\n")


class CompareError(InputError):
    """Runs are not comparable (different dataset, model or BLAS setup), or a
    run directory cannot be read back."""


# what ``compare`` reads from a run directory: key -> (what it must be, test);
# json.loads gives exact types, so ``type(v) is int`` turns away a bool
SUMMARY_KEYS = {
    "strategy": ("a strategy id", lambda v: isinstance(v, str) and v in STRATEGY_IDS),
    "arch": ("a string", lambda v: isinstance(v, str)),
    "seed": ("an integer", lambda v: type(v) is int),
    "dataset_fingerprint": ("a string", lambda v: isinstance(v, str)),
    "final_test_accuracy": (  # NaN fails 0 <= v
        "a number in [0, 1] or null", lambda v: v is None or (type(v) in (int, float) and 0 <= v <= 1)
    ),
}
_FLAT_OBJECT = (
    "an object of strings and nulls",
    lambda v: isinstance(v, dict) and all(x is None or isinstance(x, str) for x in v.values()),
)
ENV_KEYS = {"blas": _FLAT_OBJECT, "threads": _FLAT_OBJECT}


def _check_kinds(path: Path, values: dict, kinds: dict) -> None:
    for key, (what, test) in kinds.items():
        if not test(values[key]):
            raise CompareError(f"{path}: {key} must be {what}, got {json.dumps(values[key])}")


def _read_json_object(path: Path) -> dict:
    try:
        value = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both are
        raise CompareError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise CompareError(f"{path}: not a JSON object")
    return value


def load_run(run_dir) -> dict:
    """Read a completed run directory back for comparison; ``env`` is None
    for a run written before ``env.json`` existed. A file that does not parse,
    a summary without one of ``SUMMARY_KEYS``, or a value in it or in
    ``env.json`` of another kind than ``SUMMARY_KEYS`` or ``ENV_KEYS`` name,
    raises ``CompareError``."""
    run_dir = Path(run_dir)
    summary_path = run_dir / SUMMARY_FILE
    summary = _read_json_object(summary_path)
    missing = [key for key in SUMMARY_KEYS if key not in summary]
    if missing:
        raise CompareError(f"{summary_path}: missing {', '.join(missing)}")
    _check_kinds(summary_path, summary, SUMMARY_KEYS)
    env_path = run_dir / ENV_FILE
    env = _read_json_object(env_path) if env_path.exists() else None
    if env is not None:  # a missing blas or threads reads as {}: its keys count as null
        _check_kinds(env_path, {key: env.get(key, {}) for key in ENV_KEYS}, ENV_KEYS)
    rows: list[dict] = []
    metrics_path = run_dir / METRICS_FILE
    with open(metrics_path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for raw in reader:
                row = {"step": int(raw["step"]), "epoch": int(raw["epoch"]), "phase": raw["phase"]}
                for key in _VALUE_COLUMNS:
                    row[key] = float(raw[key]) if raw[key] else None
                rows.append(row)
        except (KeyError, TypeError, ValueError) as exc:  # no such column, a short row, not a number
            raise CompareError(
                f"{metrics_path}: line {reader.line_num}: bad or missing cell: {exc}"
            ) from exc
    return {"summary": summary, "env": env, "rows": rows}
