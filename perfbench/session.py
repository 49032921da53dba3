"""The benchmark's workloads and its closed measurement loop.

Every workload runs the same two-part episode, at its own image size and
proportions, so that every metric in BENCHMARK.json is measured on every
workload while each workload still puts its cost in a different layer:

* part A: ``rounds`` rounds of training steps. A round is one
  ``Strategy.step`` of each of the seven strategies in turn (each with its own
  model and optimizer state from one initial point), all on one shared batch
  stream with CutMix. Interleaving step by step makes noise on a shared
  machine hit every strategy alike.
* part B: one ``sadtlab.cli.main(["train", ...])`` run of ``sadt_v1`` on IDX
  files written by ``synth``, with a probe every epoch and wall times on.

One caller issues each step or CLI run only after the previous one returned
(a closed loop). Every episode starts from the same initial weights and
optimizer state, so every step it takes is checked bitwise against the
committed reference (``reference.json``), or, for a seed the reference does
not hold, against the first time the run computed it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import sadtlab.cli
import sadtlab.data
import sadtlab.nn
import sadtlab.optim
import sadtlab.strategies
import sadtlab.synth
from sadtlab.strategies import STRATEGY_IDS, NonFiniteLossError

import layers
import tracing
from tracing import ATTRS, END, NAME, START

NUM_CLASSES = 10
LR0 = 1e-3
CUTMIX_ALPHA = 1.0
SETUP_REPS = 3
CLI_STRATEGY = "sadt_v1"


@dataclass(frozen=True)
class Workload:
    size: int  # images are 1 x size x size
    batch: int
    rounds: int  # part A rounds per episode
    cli_train: int  # part B train-set size; its test set and probe follow
    cli_test: int
    cli_probe_batches: int
    cli_epochs: int


WORKLOADS = {
    # Conv forward/backward is ~85% of a step at 28x28, batch 64.
    "train_conv28": Workload(28, 64, 3, 64, 128, 1, 4),
    # At 8x8 the convs are tiny: tape walk, optimizer, noise, snapshots dominate.
    "train_small8": Workload(8, 16, 40, 128, 512, 2, 10),
    # Forward-only evaluation at batch 256, probes, CSV/checkpoint writes. At
    # 16x16 a step costs a sixth of a 28x28 one, so a run holds enough steps,
    # epochs and probes for steady figures.
    "cli_epoch": Workload(16, 32, 6, 128, 512, 2, 6),
}


def smoke_variant(wl: Workload) -> Workload:
    """The same shapes with the least work per episode."""
    return replace(wl, rounds=1, cli_train=wl.batch, cli_test=64, cli_probe_batches=1)


def _spawn(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def params_digest(params) -> str:
    digest = hashlib.sha256()
    for e in params.entries:
        digest.update(e.name.encode())
        digest.update(e.tensor.data.tobytes())
    return digest.hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Checker:
    """Bitwise comparison of every output against an expected value.

    With ``expected`` None the first value seen under a key becomes the
    expectation (self-consistency); that is also how a reference is recorded.
    """

    def __init__(self, expected: dict | None):
        self.from_reference = expected is not None
        self.expected = dict(expected) if expected is not None else {}
        self.mismatches: list[str] = []

    def check(self, key: str, value) -> bool:
        if key not in self.expected:
            if self.from_reference:
                self.mismatches.append(f"{key}: not in the reference")
                return False
            self.expected[key] = value
            return True
        if _bits(self.expected[key]) != _bits(value):
            self.mismatches.append(f"{key}: expected {self.expected[key]!r}, got {value!r}")
            return False
        return True


def _bits(value):
    if isinstance(value, list):  # floats compare by their bits, not by ==
        return [float(v).hex() for v in value]
    return value


@dataclass
class Inputs:
    images: np.ndarray  # part A, rounds * batch samples
    labels: np.ndarray
    config: Path  # part B
    out_dir: Path


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    """Benchmark inputs from the seed alone; not part of any timed metric."""
    images, labels = sadtlab.synth.make_synthetic_digits(
        wl.rounds * wl.batch, NUM_CLASSES, wl.size, wl.size, seed=seed
    )
    paths = sadtlab.synth.generate_dataset_files(
        work / "data", wl.cli_train, wl.cli_test, NUM_CLASSES, wl.size, wl.size, seed=seed
    )
    out_dir = work / "run"
    config = work / "experiment.ini"
    config.write_text(
        "[data]\nformat = idx\n"
        + "".join(f"{k} = {v}\n" for k, v in paths.items())
        + f"train_size = {wl.cli_train}\ntest_size = {wl.cli_test}\n"
        f"num_classes = {NUM_CLASSES}\ncutmix = true\ncutmix_alpha = {CUTMIX_ALPHA}\n"
        f"[strategy]\nid = {CLI_STRATEGY}\n"
        f"[train]\nepochs = {wl.cli_epochs}\nbatch_size = {wl.batch}\nlr0 = {LR0}\n"
        f"seed = {seed}\nprobe_every = 1\nprobe_batches = {wl.cli_probe_batches}\n"
        f"[output]\ndir = {out_dir}\nwall_times = true\n"
    )
    x = images[:, None, :, :].astype(np.float64) / 255.0
    return Inputs(x, labels.astype(np.int64), config, out_dir)


class PartA:
    """Seven strategies, each with its own model and optimizer state."""

    def __init__(self, wl: Workload, seed: int, inputs: Inputs):
        b = wl.batch
        self.batches = []
        for r in range(wl.rounds):
            mix_seed = int(_spawn(seed, 2, r).generate_state(1)[0])
            images, labels = inputs.images[r * b : (r + 1) * b], inputs.labels[r * b : (r + 1) * b]
            self.batches.append(sadtlab.data.cutmix(images, labels, CUTMIX_ALPHA, mix_seed))
        schedule = sadtlab.optim.Schedule(wl.rounds, LR0)
        self.lrs = [sadtlab.optim.cosine_lr(schedule, r) for r in range(wl.rounds)]
        self.seed = seed
        shape = (1, wl.size, wl.size)
        self.models = {s: sadtlab.nn.build_simple_cnn(shape, NUM_CLASSES, seed) for s in STRATEGY_IDS}
        self.strategies = {s: sadtlab.strategies.Strategy(s) for s in STRATEGY_IDS}
        self.initial = self.models[STRATEGY_IDS[0]].params.snapshot()
        self.states = {s: sadtlab.optim.AdamState(m.params) for s, m in self.models.items()}

    def reset(self) -> None:
        for s, model in self.models.items():
            model.params.restore(self.initial)
            self.states[s] = sadtlab.optim.AdamState(model.params)

    def step(self, s: str, r: int, check: Checker) -> tuple[float | None, list | None, bool]:
        """One timed step; returns its milliseconds and its task loss, KL loss
        and gradient norm (None if it raised), and whether they matched."""
        noise_seed = _spawn(self.seed, 3, r)  # spawn() mutates it: one per step
        start = time.perf_counter()
        try:
            report = self.strategies[s].step(
                self.models[s], self.batches[r], self.states[s], self.lrs[r], noise_seed=noise_seed
            )
        except NonFiniteLossError as exc:
            check.mismatches.append(f"steps/{s}/{r}: {exc}")
            return None, None, False
        ms = (time.perf_counter() - start) * 1e3
        values = [report.task_loss, report.kl_loss, report.grad_norm]
        return ms, values, check.check(f"steps/{s}/{r}", values)


def run_cli(inputs: Inputs, check: Checker) -> tuple[float, float | None, bool]:
    """One ``sadtlab train`` run; returns its start and end times (no end if
    it aborted) and whether its outputs matched."""
    argv = ["train", "--config", str(inputs.config)]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = sadtlab.cli.main(argv)
    except RuntimeError as exc:  # the harness reports a non-finite loss this way
        check.mismatches.append(f"cli: {exc}")
        return start, None, False
    end = time.perf_counter()  # outputs are checked after timing ends
    ok = code == 0
    for name in ("metrics.csv", "batch_hashes.txt"):
        ok &= check.check(f"cli/{name}", file_digest(inputs.out_dir / name))
    return start, end, ok


def cli_attempts(wl: Workload) -> int:
    """Steps, evaluations and probes one CLI run makes."""
    steps = -(-wl.cli_train // wl.batch) * wl.cli_epochs
    evals = 2 + 2 * wl.cli_epochs + 1
    return steps + evals + wl.cli_epochs


# ---------------------------------------------------------------------------
# end-to-end figures from step times and CLI boundary spans
# ---------------------------------------------------------------------------


def cli_figures(tracer: tracing.Tracer, calls: list[tuple[float, float]]) -> dict[str, list[float]]:
    """Per CLI run: set-up (before the first epoch, evaluations excluded),
    each epoch (train + eval + probe), each evaluation's samples/s and each
    probe (sharpness + divergence)."""
    out: dict[str, list[float]] = {"setup": [], "epoch": [], "eval": [], "probe": []}
    spans = tracer.spans
    for start, end in calls:
        inside = [s for s in spans if start <= s[START] and s[END] <= end]
        epochs = [s[START] for s in inside if s[NAME] == "data.make_batches"]
        evals = [s for s in inside if s[NAME] == "metrics.evaluate"]
        if not epochs or not evals:
            continue
        before = sum(s[END] - s[START] for s in evals if s[END] <= epochs[0])
        out["setup"].append(epochs[0] - start - before)
        bounds = epochs + [evals[-1][START]]
        out["epoch"] += [b - a for a, b in zip(bounds, bounds[1:])]
        out["eval"] += [s[ATTRS]["n"] / (s[END] - s[START]) for s in evals]
        sharp = [s for s in inside if s[NAME] == "metrics.estimate_sharpness"]
        div = [s for s in inside if s[NAME] == "metrics.model_divergence"]
        out["probe"] += [(a[END] - a[START]) + (b[END] - b[START]) for a, b in zip(sharp, div)]
    return out


def timing_summary(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(samples)
    summary = {"median": statistics.median(samples), "min": min(samples), "max": max(samples), "samples": n}
    if n > 10:
        p = int(100 * (1 - 10 / n))
        summary[f"p{p}"] = float(np.percentile(samples, p))
    return summary


def reported(unit: str, samples: list[float]) -> float:
    """The value a run reports for a timing: its fastest sample.

    On a shared box, whole stretches of a run slow down together when other
    tenants load the machine. Over five runs of each workload the per-run
    median of a step time spread 0.06-0.24 (quartile distance over median),
    its minimum 0.03-0.10. The fastest sample is the least disturbed one, as
    with ``timeit``; the median and a high percentile stay in the result file.
    """
    return max(samples) if unit == "samples/s" else min(samples)


def reported_metrics(figures: dict) -> dict:
    return {k: {"value": reported(u, v), "unit": u} for k, (u, v) in figures.items() if v}


def end_to_end(step_ms: dict[str, list[float]], cli: dict[str, list[float]], setup_s: float) -> dict:
    """name -> (unit, samples or single value)."""
    figures = {"setup_s": ("s", [setup_s])}
    for s in STRATEGY_IDS:
        figures[f"step_ms.{s}"] = ("ms", step_ms[s])
    figures["epoch_s"] = ("s", cli["epoch"])
    figures["eval_samples_per_s"] = ("samples/s", cli["eval"])
    figures["probe_ms"] = ("ms", [v * 1e3 for v in cli["probe"]])
    return figures


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


@dataclass
class Result:
    metrics: dict  # name -> {"value", "unit"}
    timings: dict  # name -> timing_summary
    attempted: int
    failed: int
    check: Checker
    nesting_errors: list[str]
    traced_equals_untraced: bool | None


def run(
    name: str, seed: int, seconds: float, trace: bool, import_s: float, work: Path,
    reference: dict | None, smoke: bool = False,
) -> Result:
    wl = WORKLOADS[name]
    if smoke:
        wl = smoke_variant(wl)
    check = Checker(reference)
    attempted = failed = 0

    synth_tracer = tracing.Tracer()
    synth_tracer.wrap(sadtlab.synth, "make_synthetic_digits", "synth.make_synthetic_digits")
    try:
        inputs = make_inputs(wl, seed, work)
    finally:
        synth_tracer.uninstall()

    # set-up: build everything part A needs, several times, then one warm-up
    # round whose first-touch costs stay out of the step times
    builds = []
    for _ in range(1 if smoke else SETUP_REPS):
        start = time.perf_counter()
        part_a = PartA(wl, seed, inputs)
        builds.append(time.perf_counter() - start)
    start = time.perf_counter()
    for s in STRATEGY_IDS:
        attempted += 1
        failed += not part_a.step(s, 0, check)[2]
    warm_up = time.perf_counter() - start

    timers = {False: tracing.Tracer(), True: tracing.Tracer()}
    conv_names = {
        e.tensor.shape: e.layer for e in part_a.models["baseline"].params.entries if e.kind == "conv"
    }
    step_ms = {mode: {s: [] for s in STRATEGY_IDS} for mode in (False, True)}
    losses = {False: {}, True: {}}
    calls = {False: [], True: []}
    min_episodes = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    episode = 0

    def over() -> bool:  # stop at the first round or CLI run due after the deadline
        return episode >= min_episodes and time.perf_counter() > deadline

    while not over():
        traced = trace and episode % 2 == 1
        part_a.reset()
        tracer = timers[traced]
        tracing.install_timers(tracer)
        if traced:
            tracing.install_layers(tracer, conv_names)
        try:
            done = True
            for r in range(wl.rounds):
                if over():
                    done = False
                    break
                for s in STRATEGY_IDS:
                    attempted += 1
                    ms, values, ok = part_a.step(s, r, check)
                    failed += not ok
                    if ms is not None:
                        step_ms[traced][s].append(ms)
                        losses[traced][(s, r)] = _bits(values)
            if done:
                for s, model in part_a.models.items():
                    check.check(f"params/{s}", params_digest(model.params))
            if done and not over():
                attempted += cli_attempts(wl)
                start, end, ok = run_cli(inputs, check)
                if end is not None:
                    calls[traced].append((start, end))
                failed += 0 if ok else cli_attempts(wl)
        finally:
            tracer.uninstall()
        episode += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cli_u = cli_figures(timers[False], calls[False])
    cli_setup = statistics.median(cli_u["setup"] or [0.0])
    setup_s = import_s + statistics.median(builds) + warm_up + cli_setup
    figures = end_to_end(step_ms[False], cli_u, setup_s)
    figures["peak_rss_mb"] = ("MB", [peak_rss_mb])
    timings = {k: timing_summary(v) for k, (_, v) in figures.items() if v}
    timings["setup_s"].update(import_s=import_s, build_s=builds, warm_up_s=warm_up, cli_s=cli_u["setup"])
    e2e = reported_metrics(figures)

    nesting, same = [], None
    metrics = e2e
    if trace:
        t = timers[True]
        nesting = t.nesting_errors()
        same = bool(losses[True]) and all(
            losses[False].get(k, v) == v for k, v in losses[True].items()
        )
        traced_e2e = reported_metrics(end_to_end(step_ms[True], cli_figures(t, calls[True]), setup_s))
        metrics = layers.per_layer(t, wl, e2e, traced_e2e, synth_tracer)
        metrics.update(layers.micro(wl, part_a.models["baseline"], seed, reps=2 if smoke else 10))
    return Result(metrics, timings, attempted, failed, check, nesting, same)
