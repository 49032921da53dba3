"""Golden step trajectories: every strategy replays its recorded losses,
gradient norms, flags and final parameters bitwise.

The fixture pins the numerics of ``Strategy.step``; a change that only
restructures the code must leave it untouched. A change that deliberately
moves the numerics regenerates it with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sadtlab.data import cutmix
from sadtlab.nn import build_simple_cnn, build_tiny_mlp
from sadtlab.optim import AdamState
from sadtlab.strategies import STRATEGY_IDS, Strategy

FIXTURE = Path(__file__).with_name("golden_steps.json")
LRS = (0.003, 0.002, 0.001)
CLASSES = 3


def _runs() -> dict[str, tuple[str, str, dict]]:
    """name -> (arch, strategy id, extra Strategy fields)."""
    runs = {f"cnn/{sid}": ("simple_cnn", sid, {}) for sid in STRATEGY_IDS}
    for sid in ("sadt_v1", "sadt_v2", "sadt_v3"):
        runs[f"cnn/{sid}/rollback"] = ("simple_cnn", sid, {"rollback_to_w": True})
    runs["cnn/sadt_v3/ascent"] = ("simple_cnn", "sadt_v3", {"ascent_lr": 0.03, "sigma_g": 0.01})
    for sid in STRATEGY_IDS:
        if sid != "sadt_v2":
            runs[f"mlp/{sid}"] = ("tiny_mlp", sid, {})
    return runs


def _batches():
    gen = np.random.default_rng(2024)
    images = gen.uniform(0.0, 1.0, (len(LRS), 8, 1, 8, 8))
    labels = gen.integers(0, CLASSES, (len(LRS), 8))
    return [cutmix(images[k], labels[k], 1.0, 50 + k) for k in range(len(LRS))]


def _params_digest(params) -> str:
    digest = hashlib.sha256()
    for e in params.entries:
        digest.update(e.name.encode())
        digest.update(np.ascontiguousarray(e.tensor.data).tobytes())
    return digest.hexdigest()


def replay(arch: str, strategy_id: str, extra: dict) -> dict:
    if arch == "simple_cnn":
        model = build_simple_cnn((1, 8, 8), CLASSES, seed=11)
    else:
        model = build_tiny_mlp(64, [16], CLASSES, seed=11)
    strategy = Strategy(strategy_id, **extra)
    state = AdamState(model.params)
    steps = []
    for k, (batch, lr) in enumerate(zip(_batches(), LRS)):
        report = strategy.step(model, batch, state, lr, noise_seed=np.random.SeedSequence(700 + k))
        steps.append({
            "task_loss": float.hex(report.task_loss),
            "kl_loss": float.hex(report.kl_loss),
            "grad_norm": float.hex(report.grad_norm),
            "flags": list(report.flags),
        })
    return {"steps": steps, "params_sha256": _params_digest(model.params)}


@pytest.mark.parametrize("name", sorted(_runs()))
def test_step_trajectory_is_bitwise_golden(name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert replay(*_runs()[name]) == expected


def test_fixture_covers_every_run():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(_runs())


if __name__ == "__main__":
    golden = {name: replay(*run) for name, run in sorted(_runs().items())}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} runs to {FIXTURE}")
