"""Command-line interface: train, compare, probe, make-data. Bad input (an
option, config, data file, checkpoint or run directory) gets one line and exit 2."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import BLAS_THREAD_VARS, InputError


class UsageError(InputError):
    """An option value out of its range."""


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="run one experiment from a config file")
    p.add_argument("--config", required=True, help="path to an INI experiment config")
    p.add_argument("--seed", type=int, default=None, help="override [train] seed")
    p.add_argument("--out", default=None, help="override [output] dir")
    p.add_argument(
        "--resolve-config", action="store_true",
        help="print the fully resolved config and exit",
    )
    p.set_defaults(run=_cmd_train)


def _add_compare(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("compare", help="tabulate and chart completed runs")
    p.add_argument("--logs", nargs="+", required=True, help="run output directories")
    p.add_argument("--out", required=True, help="directory for the comparison report")
    p.set_defaults(run=_cmd_compare)


def _add_probe(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("probe", help="sharpness/divergence of a saved checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument(
        "--data", required=True,
        help="IDX pair 'images:labels', a directory of IDX files, or a CIFAR .bin file",
    )
    p.add_argument("--rho", type=float, default=0.05)
    p.add_argument("--batches", type=int, default=4)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument(
        "--against", default=None,
        help="optional second checkpoint; reports divergence between the two",
    )
    p.set_defaults(run=_cmd_probe)


def _add_make_data(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("make-data", help="write synthetic IDX train/test files")
    p.add_argument("--out", required=True)
    p.add_argument("--train-n", type=int, default=4096)
    p.add_argument("--test-n", type=int, default=1000)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.35)
    p.set_defaults(run=_cmd_make_data)


def _resolve_probe_data(spec: str):
    from .data import DataFormatError, load_cifar_binary, load_idx

    if spec.endswith(".bin"):
        return load_cifar_binary([spec])
    if ":" in spec:
        images, labels = spec.split(":", 1)
        return load_idx(images, labels)
    root = Path(spec)
    for stem in ("t10k", "test", "train"):
        imgs = root / f"{stem}-images-idx3-ubyte"
        lbls = root / f"{stem}-labels-idx1-ubyte"
        if imgs.exists() and lbls.exists():
            return load_idx(imgs, lbls)
    raise DataFormatError(f"no IDX pair found under {spec}")


def _cmd_train(args) -> int:
    from .config import parse_config, resolved_text
    from .harness import run_experiment

    cfg = parse_config(args.config, seed=args.seed, out_dir=args.out)
    if args.resolve_config:
        print(resolved_text(cfg), end="")
        return 0
    log = run_experiment(cfg)
    print(f"run complete: {cfg.strategy.id} seed={cfg.train.seed}")
    print(f"final test accuracy {log.final_accuracy:.4f}, loss {log.final_loss:.4f}")
    print(f"outputs in {cfg.output.dir}")
    return 0


def _cmd_compare(args) -> int:
    from .report import compare_runs

    print(compare_runs(args.logs, args.out))
    print(f"report written to {Path(args.out)}")
    return 0


def _check_probe_args(args) -> None:
    for flag, count in (("--batches", args.batches), ("--batch-size", args.batch_size)):
        if count < 1:
            raise UsageError(f"{flag} must be >= 1, got {count}")
    if not (math.isfinite(args.rho) and args.rho > 0):
        raise UsageError(f"--rho must be positive and finite, got {args.rho}")


def _param_shapes(model) -> list[tuple[str, tuple[int, ...]]]:
    return [(e.name, e.tensor.shape) for e in model.params.entries]


def _load_model(path: str, shape: tuple[int, ...]):
    """A checkpoint's model; the path prefixes ``model_from_params``'s errors."""
    from .nn import CheckpointError, load_checkpoint, model_from_params

    params = load_checkpoint(path)
    try:
        return model_from_params(params, input_shape=shape)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _cmd_probe(args) -> int:
    from .autodiff import ShapeError
    from .data import DataFormatError
    from .metrics import estimate_sharpness, model_divergence, probe_batches, probe_logits
    from .nn import CheckpointError

    _check_probe_args(args)
    dataset = _resolve_probe_data(args.data)
    if dataset.n == 0:
        raise DataFormatError(f"--data {args.data} holds no samples")
    shape = dataset.images.shape[1:]
    model = _load_model(args.checkpoint, shape)
    if dataset.labels.max() >= model.num_classes:  # one_hot would index past the classes
        raise DataFormatError(f"--data {args.data} has label {dataset.labels.max()}, but "
                              f"{args.checkpoint} has {model.num_classes} classes")
    if args.against:
        other = _load_model(args.against, shape)
        if _param_shapes(other) != _param_shapes(model):
            raise CheckpointError(
                f"{args.against}: architecture differs from {args.checkpoint}; "
                "divergence is undefined"
            )
    batches = probe_batches(dataset, args.batches, args.batch_size)
    try:
        sharp = estimate_sharpness(model, batches, args.rho)
    except ShapeError as exc:  # the checkpoint's input size does not fit the data
        raise CheckpointError(f"{args.checkpoint} does not fit {args.data}: {exc}") from exc
    if sharp.value is None:  # NaN is not JSON
        raise UsageError(f"sharpness at --rho {args.rho} is not finite")
    result = {
        "sharpness": sharp.value,
        "rho": sharp.rho,
        "batches": sharp.batches,
        "zero_grad_batches": sharp.zero_grad_batches,
    }
    if args.against:  # the sharpness pass gave this model's logits; one forward gives the other's
        div = model_divergence(sharp.logits, probe_logits(other, batches))
        result["divergence"] = div.value
        result["divergence_samples"] = div.samples
    print(json.dumps(result, indent=2))
    return 0


def _check_make_data_args(args) -> None:
    for flag, value in (("--train-n", args.train_n), ("--test-n", args.test_n), ("--seed", args.seed)):
        if value < 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
    if not 1 <= args.classes <= 256:  # IDX labels are one byte
        raise UsageError(f"--classes must be in 1..256, got {args.classes}")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise UsageError(f"--noise must be finite and >= 0, got {args.noise}")


def _cmd_make_data(args) -> int:
    from .synth import generate_dataset_files

    _check_make_data_args(args)
    paths = generate_dataset_files(
        args.out, args.train_n, args.test_n, args.classes, seed=args.seed, noise=args.noise
    )
    for key, path in paths.items():
        print(f"{key}: {path}")
    return 0


def _pin_blas_threads() -> None:
    """One BLAS thread unless the user chose a count: the thread count changes
    the floats, so one config then gives one set of logs on any machine with
    the same BLAS build. BLAS reads the count once, when numpy loads, so a
    process that loaded numpy already is left as it is."""
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")


def main(argv: list[str] | None = None) -> int:
    _pin_blas_threads()
    parser = argparse.ArgumentParser(prog="sadtlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train(sub)
    _add_compare(sub)
    _add_probe(sub)
    _add_make_data(sub)
    args = parser.parse_args(argv)
    try:  # each _add_* names its command's handler
        return args.run(args)
    except InputError as exc:
        message = str(exc)
    except OSError as exc:  # a missing or unreadable file
        message = str(exc) if exc.filename is None else f"{exc.filename}: {exc.strerror}"
    # bad or missing files: one line, and argparse's exit code for bad usage
    print(f"sadtlab: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
