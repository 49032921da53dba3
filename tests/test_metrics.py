"""The promises of the ``metrics`` docstrings, on an 8x8 ``simple_cnn``:
the sharpness probe leaves the weights bitwise as they were and returns the
logits of an off-tape forward, a model's divergence from itself is exactly 0,
and evaluation does not depend on dataset order. Then the probes of
``run_experiment``: the divergence column is the one two full forwards of
both models give, each probe batch costs two forwards per probe plus one
per run for the initial model, and a run interrupted mid-epoch, or whose log
write fails, keeps the ``metrics.csv`` rows, batch hashes and wall times of
its finished epochs, but writes no ``summary.json``; a failed write leaves no
part file. A run leaves no file of an earlier run in its directory. Each row of
``wall_times.csv`` holds the lane worker's busy time in its step, at most the
step's wall time, and 0 without a worker, and the step's minor page faults."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from sadtlab import autodiff, harness, synth
from sadtlab.autodiff import Tensor, log_softmax_rows
from sadtlab.config import parse_config
from sadtlab.data import Dataset, load_idx
from sadtlab.metrics import (
    estimate_sharpness,
    evaluate,
    model_divergence,
    probe_batches,
    probe_logits,
)
from sadtlab.nn import Model, build_simple_cnn, build_tiny_mlp
from sadtlab.strategies import Strategy

CLASSES = 3


@pytest.fixture
def model():
    return build_simple_cnn((1, 8, 8), CLASSES, seed=5)


@pytest.fixture
def dataset():
    gen = np.random.default_rng(9)
    return Dataset(gen.uniform(0.0, 1.0, (10, 1, 8, 8)), gen.integers(0, CLASSES, 10), CLASSES)


def _bits(model) -> dict[str, bytes]:
    return {e.name: e.tensor.data.tobytes() for e in model.params}


def test_estimate_sharpness_restores_params_bitwise(model, dataset):
    before = _bits(model)
    estimate = estimate_sharpness(model, probe_batches(dataset, 3, 4), rho=0.05)
    assert estimate.batches == 3 and estimate.zero_grad_batches == 0
    assert estimate.value != 0.0  # the ascent step really moved the weights
    assert _bits(model) == before


def test_zero_gradient_batch_skips_the_ascent_and_counts_zero():
    # zero weights and zero images give uniform logits, whose cross-entropy
    # gradient cancels over the labels [0, 1] for the bias and is 0 for the weight
    mlp = build_tiny_mlp(2, [], 2, seed=0)
    mlp.params.get("dense1.weight").data[:] = 0.0
    estimate = estimate_sharpness(mlp, [(np.zeros((2, 2)), np.array([0, 1]))], rho=0.05)
    assert (estimate.value, estimate.batches, estimate.zero_grad_batches) == (0.0, 1, 1)
    assert len(estimate.logits) == 1


def test_non_finite_sharpness_is_none_and_warns_nothing(model, dataset):
    # rho = 1e300 overflows the ascent point, so the loss there is not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = estimate_sharpness(model, probe_batches(dataset, 2, 4), rho=1e300)
    assert estimate.value is None and estimate.batches == 2 and len(estimate.logits) == 2


def test_finite_batches_whose_sum_overflows_give_none():
    # each batch's sharpness is 6e307, finite, but three of them sum past the float range
    mlp = build_tiny_mlp(1, [], 2, seed=0)
    batches = [(np.ones((2, 1)), np.array([0, 1]))] * 3
    assert estimate_sharpness(mlp, batches, rho=6e307).value is None


@pytest.mark.parametrize("rho", [0.0, -0.05, float("nan")])
def test_non_positive_rho_is_rejected(model, dataset, rho):
    with pytest.raises(ValueError, match="rho must be positive"):
        estimate_sharpness(model, probe_batches(dataset, 1, 4), rho)


def test_sharpness_logits_are_those_of_an_off_tape_forward(model, dataset):
    batches = probe_batches(dataset, 3, 4)
    estimate = estimate_sharpness(model, batches, rho=0.05)
    assert len(estimate.logits) == len(batches)
    for logits, (images, _) in zip(estimate.logits, batches):
        assert logits.tobytes() == model.forward(Tensor(images)).data.tobytes()


def test_divergence_from_itself_is_exactly_zero(model, dataset):
    batches = probe_batches(dataset, 3, 4)
    sharp = estimate_sharpness(model, batches, rho=0.05)
    result = model_divergence(sharp.logits, probe_logits(model, batches))
    assert result.value == 0.0
    assert result.samples == dataset.n


def test_evaluate_does_not_depend_on_order(model, dataset):
    order = np.random.default_rng(2).permutation(dataset.n)
    permuted = Dataset(dataset.images[order], dataset.labels[order], CLASSES)
    plain = evaluate(model, dataset, batch_size=4)
    shuffled = evaluate(model, permuted, batch_size=4)
    assert shuffled.accuracy == plain.accuracy
    assert shuffled.mean_loss.hex() == plain.mean_loss.hex()


EPOCHS, PROBE_BATCHES, BATCH = 3, 2, 8


@pytest.fixture
def probe_config(tmp_path):
    """A 3-epoch run on 8x8 synthetic digits with a probe every epoch."""
    paths = synth.generate_dataset_files(tmp_path / "data", 24, 8, 3, 8, 8, seed=3)
    config = tmp_path / "probe.ini"
    config.write_text(
        "[data]\n"
        + "".join(f"{key} = {path}\n" for key, path in paths.items())
        + "train_size = 24\ntest_size = 8\nnum_classes = 3\n"
        "[strategy]\nid = baseline\n"
        f"[train]\nepochs = {EPOCHS}\nbatch_size = {BATCH}\nlr0 = 0.01\nseed = 1\n"
        f"probe_every = 1\nprobe_batches = {PROBE_BATCHES}\n"
        f"[output]\ndir = {tmp_path / 'run'}\n"
    )
    return parse_config(config)


def _two_model_divergence(model_a: Model, model_b: Model, images: list[np.ndarray]) -> float:
    """KL(a || b) from one full forward of each model per batch."""
    per_sample = []
    for x in images:
        lp = log_softmax_rows(model_a.forward(Tensor(x)).data)
        lq = log_softmax_rows(model_b.forward(Tensor(x)).data)
        per_sample.extend(float(r) for r in np.sum(np.exp(lp) * (lp - lq), axis=1))
    return math.fsum(per_sample) / len(per_sample)


def test_run_divergence_matches_two_model_forwards(probe_config, monkeypatch):
    probed: list[Model] = []  # the weights each probe saw
    sharpness = harness.estimate_sharpness

    def record(model, batches, rho):
        probed.append(model.clone())
        return sharpness(model, batches, rho)

    monkeypatch.setattr(harness, "estimate_sharpness", record)
    log = harness.run_experiment(probe_config)
    train = load_idx(probe_config.data.train_images, probe_config.data.train_labels)
    initial = build_simple_cnn((1, 8, 8), 3, probe_config.model.init_seed)
    images = [x for x, _ in probe_batches(train, PROBE_BATCHES, BATCH)]
    expected = [_two_model_divergence(m, initial, images).hex() for m in probed]
    got = [row.divergence.hex() for row in log.rows if row.phase == "probe"]
    assert len(got) == EPOCHS and got == expected
    assert len(set(got)) == EPOCHS  # the weights moved between probes


@pytest.mark.parametrize("probe_every", [1, 0, EPOCHS + 1])  # the last: no epoch reaches it
def test_each_probe_batch_costs_two_forwards_per_probe(probe_config, monkeypatch, probe_every):
    probe_config.train.probe_every = probe_every
    forwards = {"estimate_sharpness": [], "model_divergence": [], "probe_logits": []}
    count = [0]
    forward = Model.forward

    def counted(self, *args, **kwargs):
        count[0] += 1
        return forward(self, *args, **kwargs)

    def counting(name):
        inner = getattr(harness, name)

        def wrapper(*args):
            before = count[0]
            result = inner(*args)
            forwards[name].append(count[0] - before)
            return result

        return wrapper

    monkeypatch.setattr(Model, "forward", counted)
    for name in forwards:
        monkeypatch.setattr(harness, name, counting(name))
    harness.run_experiment(probe_config)
    probes = EPOCHS // probe_every if probe_every else 0
    assert forwards == {
        "estimate_sharpness": [2 * PROBE_BATCHES] * probes,  # at w and at the ascent point
        "model_divergence": [0] * probes,
        "probe_logits": [PROBE_BATCHES] if probes else [],  # the initial model, once
    }


def test_a_run_interrupted_in_an_epoch_keeps_the_rows_of_the_epochs_before(probe_config,
                                                                          monkeypatch, tmp_path):
    whole = harness.run_experiment(probe_config).csv_text()
    probe_config.output.dir = str(tmp_path / "interrupted")
    steps, step = [0], Strategy.step

    def interrupted(self, *args, **kwargs):
        steps[0] += 1
        if steps[0] > 24 // BATCH:  # epoch 2's first step
            raise KeyboardInterrupt
        return step(self, *args, **kwargs)

    monkeypatch.setattr(Strategy, "step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        harness.run_experiment(probe_config)
    kept = (tmp_path / "interrupted" / harness.METRICS_FILE).read_text()
    # the header, eval rows at step 0, epoch 1's steps, its eval rows and its probe
    assert kept.count("\n") == 1 + 2 + 24 // BATCH + 2 + 1
    assert whole.startswith(kept)


def test_a_run_interrupted_in_an_epoch_keeps_the_hashes_and_wall_times_before(probe_config,
                                                                            monkeypatch,
                                                                            tmp_path):
    probe_config.output.wall_times = True
    harness.run_experiment(probe_config)
    whole = (tmp_path / "run" / harness.HASHES_FILE).read_text().splitlines()
    probe_config.output.dir = str(tmp_path / "interrupted")
    steps, step, finished = [0], Strategy.step, 2 * (24 // BATCH)

    def interrupted(self, *args, **kwargs):
        steps[0] += 1
        if steps[0] > finished:  # epoch 3's first step
            raise KeyboardInterrupt
        return step(self, *args, **kwargs)

    monkeypatch.setattr(Strategy, "step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        harness.run_experiment(probe_config)
    run = tmp_path / "interrupted"
    assert (run / harness.HASHES_FILE).read_text().splitlines() == whole[:finished]
    wall = (run / harness.WALL_TIMES_FILE).read_text().splitlines()
    assert wall[0] == "step,wall_ms,lane_ms,minor_faults"
    assert [int(line.split(",")[0]) for line in wall[1:]] == list(range(1, finished + 1))
    assert not (run / harness.SUMMARY_FILE).exists()  # compare refuses the run loudly


def test_a_failed_log_write_keeps_the_finished_epochs_logs(probe_config, monkeypatch, tmp_path):
    whole = harness.run_experiment(probe_config).csv_text()
    probe_config.output.dir = str(tmp_path / "full")
    writes, write_text = [0], Path.write_text

    def disk_fills(self, text, *args, **kwargs):
        if self.name.startswith(harness.METRICS_FILE):
            writes[0] += 1
            if writes[0] == 2:  # epoch 2's metrics.csv: a third of it fits
                write_text(self, text[: len(text) // 3], *args, **kwargs)
                raise OSError(28, "No space left on device")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", disk_fills)
    with pytest.raises(OSError, match="No space left on device"):
        harness.run_experiment(probe_config)
    kept = (tmp_path / "full" / harness.METRICS_FILE).read_text()
    assert kept.count("\n") == 1 + 2 + 24 // BATCH + 2 + 1  # all of epoch 1, as above
    assert whole.startswith(kept)
    assert not list((tmp_path / "full").glob("*.part"))  # the failed write left no part file


def test_a_rerun_leaves_no_wall_times_of_the_run_before(probe_config):
    probe_config.output.wall_times = True
    harness.run_experiment(probe_config)
    run = Path(probe_config.output.dir)
    assert (run / harness.WALL_TIMES_FILE).exists()
    probe_config.output.wall_times = False
    probe_config.train.epochs, probe_config.train.seed = 1, 2
    harness.run_experiment(probe_config)
    assert not (run / harness.WALL_TIMES_FILE).exists()
    assert sorted(p.name for p in run.iterdir()) == sorted(set(harness.RUN_FILES) - {
        harness.WALL_TIMES_FILE, harness.ABORT_CHECKPOINT_FILE})


def test_an_interrupted_rerun_leaves_no_summary_or_checkpoint_of_the_run_before(probe_config,
                                                                              monkeypatch):
    harness.run_experiment(probe_config)
    run = Path(probe_config.output.dir)
    (run / harness.ABORT_CHECKPOINT_FILE).write_bytes(b"an earlier aborted run's")
    (run / "notes.txt").write_text("not a run file\n")

    def interrupted(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(Strategy, "step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        harness.run_experiment(probe_config)
    for name in (harness.SUMMARY_FILE, harness.CHECKPOINT_FILE, harness.ABORT_CHECKPOINT_FILE,
                 harness.METRICS_FILE):
        assert not (run / name).exists(), name
    assert (run / "notes.txt").read_text() == "not a run file\n"  # only the run's files go


@pytest.mark.parametrize("lanes", [True, False], ids=["worker", "no-worker"])
def test_wall_times_hold_the_lane_workers_busy_share_of_each_step(tmp_path, monkeypatch, request,
                                                                    lanes):
    # 28x28 images at batch 64: the conv kernels split over the lanes
    paths = synth.generate_dataset_files(tmp_path / "data", 128, 8, 3, 28, 28, seed=3)
    config = tmp_path / "lanes.ini"
    config.write_text(
        "[data]\n" + "".join(f"{key} = {path}\n" for key, path in paths.items())
        + "train_size = 128\ntest_size = 8\nnum_classes = 3\n"
        "[train]\nepochs = 1\nbatch_size = 64\n"
        f"[output]\ndir = {tmp_path / 'run'}\nwall_times = true\n"
    )
    if lanes:
        request.getfixturevalue("worker")
    else:
        monkeypatch.setattr(autodiff, "_WORKER", None)
    harness.run_experiment(parse_config(config))
    lines = (tmp_path / "run" / harness.WALL_TIMES_FILE).read_text().splitlines()
    assert lines[0] == "step,wall_ms,lane_ms,minor_faults"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [1, 2]
    for _, wall_ms, lane_ms, faults in rows:
        wall_ms, lane_ms = float(wall_ms), float(lane_ms)
        assert 0.0 < lane_ms <= wall_ms if lanes else lane_ms == 0.0
        assert int(faults) >= 0
