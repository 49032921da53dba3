"""The seam the benchmark's tracer times the library through.

``perfbench/tracing.py`` replaces sadtlab names from outside (module globals,
methods, a classmethod), so a rename in the library breaks ``perfbench/run.py
--trace 1`` while every other test passes. Here the tracer is installed as a
traced benchmark episode installs it, one step of each strategy and a 1-epoch
run with a probe go through it, and every span the per-layer figures read
must have been recorded, nested in its parent, with the library put back as
imported afterwards.
"""

from pathlib import Path

import numpy as np
import pytest

from sadtlab import harness, metrics, nn, optim, strategies, synth
from sadtlab.config import parse_config
from sadtlab.data import cutmix
from sadtlab.optim import AdamState
from sadtlab.strategies import STRATEGY_IDS, Strategy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (harness, metrics, nn, strategies, nn.Model, nn.ParamSet, optim.GradSet,
          strategies.Strategy)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    return tracing, layers


def _one_epoch_config(tmp_path):
    """A 1-epoch CutMix run on an 8x8 IDX set with a probe."""
    paths = synth.generate_dataset_files(tmp_path / "data", 8, 4, 3, 8, 8, seed=0)
    config = tmp_path / "run.ini"
    config.write_text(
        "[data]\nformat = idx\n" + "".join(f"{key} = {path}\n" for key, path in paths.items())
        + "train_size = 8\ntest_size = 4\nnum_classes = 3\ncutmix = true\n"
        "[strategy]\nid = baseline\n"
        "[train]\nepochs = 1\nbatch_size = 4\nseed = 0\nprobe_every = 1\nprobe_batches = 1\n"
        f"[output]\ndir = {tmp_path / 'run'}\n"
    )
    return parse_config(config)


def test_every_span_the_benchmark_reads_is_recorded_and_uninstalled(perfbench, tmp_path):
    tracing, layers = perfbench
    cfg = _one_epoch_config(tmp_path)
    gen = np.random.default_rng(0)
    batch = cutmix(gen.uniform(0.0, 1.0, (4, 1, 8, 8)), gen.integers(0, 3, 4), 1.0, 0)
    params = nn.build_simple_cnn((1, 8, 8), 3, seed=0).params
    conv_names = {e.tensor.shape: e.layer for e in params.entries if e.kind == "conv"}

    imported = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    try:
        tracing.install_timers(tracer)
        tracing.install_layers(tracer, conv_names)
        wrapped = {id(owner) for owner, _, _ in tracer._undo}
        for strategy_id in STRATEGY_IDS:
            model = nn.build_simple_cnn((1, 8, 8), 3, seed=0)
            Strategy(strategy_id).step(model, batch, AdamState(model.params), 0.001,
                                       noise_seed=np.random.SeedSequence(0))
        harness.run_experiment(cfg)
    finally:
        tracer.uninstall()

    recorded = {span[tracing.NAME] for span in tracer.spans}
    expected = set(layers.MEAN_MS.values()) | {"harness.run_experiment"}
    expected |= {f"strategies.{s}" for s in STRATEGY_IDS}
    expected |= {f"autodiff.{layer}.{way}" for layer in layers.CONV_LAYERS
                 for way in ("fwd", "bwd")}
    assert expected - recorded == set()
    assert tracer.nesting_errors() == []
    assert wrapped <= {id(owner) for owner in OWNERS}  # every wrapped owner is checked below
    for owner, before in zip(OWNERS, imported):
        after = dict(vars(owner))
        assert after.keys() == before.keys(), owner
        assert [k for k in before if after[k] is not before[k]] == [], owner
