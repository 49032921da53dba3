"""Smoke check of the benchmark itself; takes about a minute.

    python3 perfbench/smoke.py

Runs every workload with ``--smoke`` (least work per episode, checked for
self-consistency) untraced and traced, and checks that

* each run is correct and prints every metric BENCHMARK.json names, with its
  unit (end-to-end metrics untraced, per-layer metrics traced);
* traced spans nest within their parents;
* the traced and untraced episodes of one run gave bitwise-identical losses;
* in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv + ["--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, wl, trace)
            where = f"{wl} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                problems.append(f"{where}: correct={line['correct']} failed={line['failed']}")
            for metric in spec[section]:
                got = line["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} missing or not in {metric['unit']}")
            extra = set(line["metrics"]) - {m["name"] for m in spec[section]}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            record = json.loads((HERE / "out" / f"{wl}-seed0-trace{trace}-smoke.json").read_text())
            if trace and record["span_nesting_errors"]:
                problems.append(f"{where}: {record['span_nesting_errors'][:3]}")
            if trace and record["traced_losses_equal_untraced"] is not True:
                problems.append(f"{where}: traced losses differ from untraced ones")
            print(f"{where}: checked", flush=True)

    # the bare copy stays inside the checkout, as every benchmark file does
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = bench(Path(bare), spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the sources the benchmark still printed a result")
        print("bare directory: checked")

    for p in problems:
        print("PROBLEM:", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
