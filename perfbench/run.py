"""Run one sadtlab benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload train_conv28 --seed 0 --seconds 30 --trace 0

Run from a source checkout: the program under test is ``src/sadtlab`` beside
this directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones. The full result, with provenance and sample counts, is also
written to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy loads: pin it first. One
# thread: on a shared 2-core box a second BLAS thread is often descheduled and
# the other waits for it, which spread run-to-run step times about twice as
# wide as one thread did.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--smoke", action="store_true",
        help="least work per episode and one set-up; checked for self-consistency only",
    )
    return p.parse_args(argv)


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    config = np.show_config(mode="dicts")
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "blas_threads": BLAS_THREADS,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sadtlab" / "__init__.py").is_file():
        print(f"no sadtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import sadtlab.cli  # noqa: F401  (the CLI pulls in harness, config, metrics)
    import sadtlab.harness  # noqa: F401
    import sadtlab.synth  # noqa: F401

    import_s = time.perf_counter() - start

    import session

    if args.workload not in session.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(session.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = None
    if not args.smoke:
        refs = json.loads(REFERENCE.read_text())["workloads"][args.workload]
        reference = refs.get(str(args.seed))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        result = session.run(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s, Path(work),
            reference, smoke=args.smoke,
        )
    check = result.check
    correct = (
        result.failed == 0
        and not check.mismatches
        and not result.nesting_errors
        and result.traced_equals_untraced is not False
    )
    line = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }
    record = {
        **line,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "failed_frac": result.failed / result.attempted,
        "checked_against": "reference" if check.from_reference else "self-consistency",
        "mismatches": check.mismatches[:20],
        "span_nesting_errors": result.nesting_errors[:20],
        "traced_losses_equal_untraced": result.traced_equals_untraced,
        "timings": result.timings,
        "claim": None,
        "provenance": provenance(args.seed),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
