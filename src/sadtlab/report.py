"""Run comparison: final-accuracy table, aligned curves, and SVG charts."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .harness import load_run
from .strategies import STRATEGY_IDS

CURVE_METRICS = {
    "train_accuracy": ("eval_train", "accuracy"),
    "train_loss": ("eval_train", "task_loss"),
    "val_accuracy": ("eval_test", "accuracy"),
    "val_loss": ("eval_test", "task_loss"),
}


class CompareError(ValueError):
    """Runs are not comparable (different dataset or model)."""


@dataclass
class ComparisonReport:
    strategies: list[str]  # row order
    seeds: list[int]  # column order
    cells: dict[tuple[str, int], float]  # (strategy, seed) -> final accuracy
    best: dict[int, str]  # seed -> best strategy
    table_text: str
    out_dir: str


def _curve(rows: list[dict], phase: str, key: str) -> tuple[list[int], list[float]]:
    xs, ys = [], []
    for row in rows:
        if row["phase"] == phase and row[key] is not None:
            xs.append(row["epoch"])
            ys.append(row[key])
    return xs, ys


def epochs_to_reach(rows: list[dict], target_accuracy: float) -> int | None:
    """First epoch whose test evaluation reaches the target accuracy."""
    for epoch, acc in zip(*_curve(rows, "eval_test", "accuracy")):
        if epoch >= 1 and acc >= target_accuracy:
            return epoch
    return None


def compare_runs(run_dirs: list, out_dir) -> ComparisonReport:
    """Tabulate final test accuracies across runs and emit aligned curves.

    All runs must share one dataset fingerprint and model architecture. The
    best accuracy per seed column is flagged with '*' in the text table and
    the comparison CSV; aborted runs leave their cell empty.
    """
    if len(run_dirs) < 2:
        raise CompareError("compare needs at least two runs")
    runs = [load_run(d) for d in run_dirs]
    fingerprints = {r["summary"]["dataset_fingerprint"] for r in runs}
    archs = {r["summary"]["arch"] for r in runs}
    if len(fingerprints) > 1 or len(archs) > 1:
        raise CompareError(
            f"runs are not comparable: {len(fingerprints)} dataset fingerprints, "
            f"architectures {sorted(archs)}"
        )

    cells: dict[tuple[str, int], float] = {}
    for r in runs:
        key = (r["summary"]["strategy"], r["summary"]["seed"])
        if key in cells:
            raise CompareError(f"duplicate run for strategy/seed {key}")
        cells[key] = r["summary"]["final_test_accuracy"]
    strategies = [s for s in STRATEGY_IDS if any(k[0] == s for k in cells)]
    seeds = sorted({k[1] for k in cells})
    best: dict[int, str] = {}
    for seed in seeds:
        finished = [s for s in strategies if cells.get((s, seed)) is not None]
        if finished:  # aborted runs have no final accuracy and never win
            best[seed] = max(finished, key=lambda s: cells[(s, seed)])

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_lines = [",".join(["strategy", *(f"seed_{s}" for s in seeds), "mean"])]
    text_lines = []
    header = f"{'strategy':<10}" + "".join(f"{f'seed {s}':>12}" for s in seeds) + f"{'mean':>12}"
    text_lines.append(header)
    for strat in strategies:
        values = [cells.get((strat, seed)) for seed in seeds]
        present = [v for v in values if v is not None]
        mean = sum(present) / len(present) if present else float("nan")
        csv_cells = [strat]
        text_cells = [f"{strat:<10}"]
        for seed, v in zip(seeds, values):
            if v is None:
                csv_cells.append("")
                text_cells.append(f"{'-':>12}")
            else:
                flag = "*" if best.get(seed) == strat else ""
                csv_cells.append(f"{v:.6f}{flag}")
                text_cells.append(f"{v:.4f}{flag:<1}".rjust(12))
        csv_cells.append(f"{mean:.6f}")
        text_cells.append(f"{mean:.4f}".rjust(12))
        table_lines.append(",".join(csv_cells))
        text_lines.append("".join(text_cells))
    table_text = "\n".join(text_lines)
    (out / "comparison.csv").write_text("\n".join(table_lines) + "\n")

    labels = [f"{r['summary']['strategy']}-s{r['summary']['seed']}" for r in runs]
    for metric, (phase, key) in CURVE_METRICS.items():
        series = {}
        for label, r in zip(labels, runs):
            series[label] = _curve(r["rows"], phase, key)
        _write_curve_csv(out / f"curves_{metric}.csv", series)
        (out / f"chart_{metric}.svg").write_text(
            line_chart_svg(series, title=metric.replace("_", " "), xlabel="epoch", ylabel=metric)
        )
    return ComparisonReport(strategies, seeds, cells, best, table_text, str(out))


def _write_curve_csv(path, series: dict[str, tuple[list[int], list[float]]]) -> None:
    epochs = sorted({x for xs, _ in series.values() for x in xs})
    lines = [",".join(["epoch", *series])]
    lookup = {label: dict(zip(xs, ys)) for label, (xs, ys) in series.items()}
    for epoch in epochs:
        cells = [str(epoch)]
        for label in series:
            v = lookup[label].get(epoch)
            cells.append("" if v is None else repr(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def line_chart_svg(
    series: dict[str, tuple[list[float], list[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 420,
) -> str:
    """Self-contained SVG line chart; one polyline per labeled series."""
    ml, mr, mt, mb = 64, 160, 36, 48
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x: float) -> float:
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y: float) -> float:
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml + pw / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#888"/>',
    ]
    for i in range(5):
        yv = y0 + (y1 - y0) * i / 4
        parts.append(
            f'<line x1="{ml}" y1="{py(yv):.1f}" x2="{ml + pw}" y2="{py(yv):.1f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(yv) + 4:.1f}" text-anchor="end">{yv:.3g}</text>'
        )
        xv = x0 + (x1 - x0) * i / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{mt + ph + 16}" text-anchor="middle">{xv:.3g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        if points:
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = mt + 16 * i
        parts.append(
            f'<line x1="{ml + pw + 8}" y1="{ly + 6}" x2="{ml + pw + 28}" y2="{ly + 6}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{ml + pw + 32}" y="{ly + 10}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
