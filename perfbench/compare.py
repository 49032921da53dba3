"""Compare two sets of benchmark result files, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py`` (``perfbench/out/``
copied aside after each side's runs). Untraced runs are grouped by workload;
for each end-to-end metric the script prints both sides' medians and
quartiles, the change as a share of the parent's median, the share of
seed-paired runs the change won, and a verdict against the metric's bound in
BENCHMARK.json:

* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``unresolved``: the parent's own spread (quartile distance over median) is
  wider than the bound, and not every change run beats every parent run;
* ``gain``: the change won at least nine tenths of the pairs and the medians
  differ by more than the parent's spread;
* ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """workload -> metric -> {seed: value}, from untraced, non-smoke runs."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        r = json.loads(path.read_text())
        if r.get("trace") != 0 or r.get("smoke"):
            continue
        for name, m in r["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, {})[r["provenance"]["seed"]] = m["value"]
    return out


def verdict(parent: dict, change: dict, bound: float, lower_is_better: bool) -> tuple[str, str]:
    sign = 1 if lower_is_better else -1
    a, b = list(parent.values()), list(change.values())
    ma, mb = statistics.median(a), statistics.median(b)
    q = statistics.quantiles(a, n=4) if len(a) > 1 else [ma] * 3
    spread = (q[2] - q[0]) / ma
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)  # a tie is no win
    won = f"{wins}/{len(pairs)}"
    worse_by = sign * (mb - ma) / ma
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse_by > bound:
        return "worse", won
    if spread > bound and not all_better:
        return "unresolved", won
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) / ma > spread:
        return "gain", won
    return "same", won


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(Path(sys.argv[1])), load(Path(sys.argv[2]))
    for wl in (w["name"] for w in spec["workloads"]):
        print(wl)
        for m in spec["end_to_end"]:
            a = parent.get(wl, {}).get(m["name"])
            b = change.get(wl, {}).get(m["name"])
            if not a or not b:
                print(f"  {m['name']:22s} missing on one side")
                continue
            v, won = verdict(a, b, m["bound"], m["better"] == "lower")
            ma, mb = statistics.median(a.values()), statistics.median(b.values())
            qa = statistics.quantiles(a.values(), n=4) if len(a) > 1 else [ma] * 3
            print(
                f"  {m['name']:22s} parent {ma:11.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  change {mb:11.4g}"
                f"  {(mb - ma) / ma:+7.1%} {m['unit']:9s} won {won:6s} {v}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
