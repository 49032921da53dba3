"""Record ``reference.json``: what the current code outputs on each workload
and seed, for the benchmark's bitwise correctness check.

    python3 perfbench/make_reference.py --seeds 0-15,1000

For each workload and seed it runs one set-up and one episode, as the
benchmark does, and keeps every checked value: per strategy and step the task
loss, KL loss and gradient norm, each strategy's final parameter digest, and
the digests of the CLI run's ``metrics.csv`` and ``batch_hashes.txt``. For the
first seed it also runs the CLI part with every strategy id and requires one
``batch_hashes.txt`` for all of them, since the harness promises all
strategies one batch stream.

Regenerate it only in a change to the benchmark itself, never in one that
claims a speed-up: the reference is what such a change is checked against.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import run  # pins the BLAS threads before numpy loads

run.sys.path.insert(0, str(run.ROOT / "src"))

import session  # noqa: E402
from sadtlab.strategies import STRATEGY_IDS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def shared_stream(name: str, seed: int, work: Path) -> str:
    inputs = session.make_inputs(session.WORKLOADS[name], seed, work)
    text = inputs.config.read_text()
    digests = set()
    for sid in STRATEGY_IDS:
        inputs.config.write_text(text.replace(f"id = {session.CLI_STRATEGY}", f"id = {sid}"))
        check = session.Checker(None)
        session.run_cli(inputs, check)
        digests.add(check.expected["cli/batch_hashes.txt"])
    if len(digests) != 1:
        raise SystemExit(f"{name} seed {seed}: strategies saw different batch streams")
    return digests.pop()


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-15,1000")
    p.add_argument("--workloads", default=",".join(session.WORKLOADS))
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    reference = json.loads(run.REFERENCE.read_text())  # workloads not named stay
    for name in args.workloads.split(","):
        per_seed = reference["workloads"][name] = {}
        for seed in seeds:
            start = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=run.OUT) as work:
                result = session.run(name, seed, 0.0, False, 0.0, Path(work), None)
            if result.failed or result.check.mismatches:
                raise SystemExit(f"{name} seed {seed}: {result.check.mismatches[:3]}")
            per_seed[str(seed)] = dict(sorted(result.check.expected.items()))
            print(f"{name} seed {seed}: {time.perf_counter() - start:.1f} s", flush=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            if shared_stream(name, seeds[0], Path(work)) != per_seed[str(seeds[0])]["cli/batch_hashes.txt"]:
                raise SystemExit(f"{name}: the CLI batch stream differs from the recorded one")
    run.REFERENCE.write_text(dump(reference))


def dump(reference: dict) -> str:
    """JSON with one checked value per line, so a diff shows which one moved."""
    blocks = []
    for name, per_seed in reference["workloads"].items():
        seeds = []
        for seed, values in per_seed.items():
            rows = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in values.items())
            seeds.append(f'  "{seed}": {{\n{rows}\n  }}')
        blocks.append(f' "{name}": {{\n' + ",\n".join(seeds) + "\n }")
    return '{"workloads": {\n' + ",\n".join(blocks) + "\n}}\n"


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    main()
