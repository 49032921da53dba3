"""Golden training runs: ``sadtlab train`` writes byte-identical outputs.

Each of the seven strategies trains a ``simple_cnn`` for two epochs on a tiny
synthetic 8x8 set through ``cli.main``, and the sha256 of every output file is
pinned. The ``sadt_v3`` run also sets ``ascent_lr`` and ``rollback_to_w``, so
the non-default config values are covered. The test also checks the harness's
two promises: all strategies see the same batch stream, and rerunning a config
reproduces its outputs byte for byte.

Like ``golden_steps.json``, the fixture pins the numerics of one BLAS thread,
which ``conftest.py`` sets for the suite. A change that only restructures the
code must leave it untouched. A change that deliberately moves the numerics or
an output format regenerates it with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden_runs.py`` and
says why in CHANGES.md.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from sadtlab import cli, synth
from sadtlab.strategies import STRATEGY_IDS

FIXTURE = Path(__file__).with_name("golden_runs.json")
OUTPUTS = ("metrics.csv", "final.ckpt", "batch_hashes.txt", "summary.json", "resolved.ini")
EXTRA = {"sadt_v3": "ascent_lr = 0.01\nrollback_to_w = yes\n"}


def _make_data() -> dict[str, str]:
    """Synthetic IDX files under ./data; returns their relative paths."""
    return synth.generate_dataset_files("data", 48, 32, 3, 8, 8, seed=5)


def _config(strategy_id: str, paths: dict[str, str]) -> str:
    return (
        "[data]\n"
        + "".join(f"{key} = {path}\n" for key, path in paths.items())
        + "train_size = 48\ntest_size = 32\nnum_classes = 3\n"
        "[model]\narch = simple_cnn\n"
        f"[strategy]\nid = {strategy_id}\n{EXTRA.get(strategy_id, '')}"
        "[train]\nepochs = 2\nbatch_size = 16\nlr0 = 0.003\nseed = 9\n"
        "probe_every = 1\nprobe_batches = 1\n"
        f"[output]\ndir = runs/{strategy_id}\nwall_times = on\n"
    )


def _train(strategy_id: str, paths: dict[str, str]) -> dict[str, str]:
    """One ``sadtlab train`` run in the current directory; output digests."""
    config = Path(f"{strategy_id}.ini")
    config.write_text(_config(strategy_id, paths))
    assert cli.main(["train", "--config", str(config)]) == 0
    out = Path("runs") / strategy_id
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Digests of all seven runs, made in one scratch directory."""
    root = tmp_path_factory.mktemp("golden_runs")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        paths = _make_data()
        digests = {sid: _train(sid, paths) for sid in STRATEGY_IDS}
    return root, paths, digests


@pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
def test_run_outputs_are_byte_golden(runs, strategy_id):
    _, _, digests = runs
    assert digests[strategy_id] == json.loads(FIXTURE.read_text())[strategy_id]


def test_fixture_covers_every_strategy():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(STRATEGY_IDS)


def test_strategies_share_one_batch_stream(runs):
    root, _, _ = runs
    streams = {(root / "runs" / sid / "batch_hashes.txt").read_bytes() for sid in STRATEGY_IDS}
    assert len(streams) == 1
    assert len(next(iter(streams)).splitlines()) == 6  # 2 epochs x 3 batches


def test_rerun_of_one_config_is_byte_identical(runs, monkeypatch):
    root, paths, digests = runs
    monkeypatch.chdir(root)
    assert _train("sadt_v1", paths) == digests["sadt_v1"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            data = _make_data()
            golden = {sid: _train(sid, data) for sid in STRATEGY_IDS}
        finally:
            os.chdir(here)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} runs to {FIXTURE}")
