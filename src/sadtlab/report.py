"""Run comparison: final-accuracy table (a CSV, and text returned), aligned curves, SVG charts."""

from __future__ import annotations

import math
from pathlib import Path

from .harness import CompareError, load_run
from .strategies import STRATEGY_IDS

CURVE_METRICS = {
    "train_accuracy": ("eval_train", "accuracy"),
    "train_loss": ("eval_train", "task_loss"),
    "val_accuracy": ("eval_test", "accuracy"),
    "val_loss": ("eval_test", "task_loss"),
}


def _curve(rows: list[dict], phase: str, key: str) -> tuple[list[int], list[float]]:
    """The finite ``key`` values of ``phase`` rows by epoch; a nan or inf
    (an overflowed loss) is left out, as an empty cell would be."""
    points = [(r["epoch"], r[key]) for r in rows
              if r["phase"] == phase and r[key] is not None and math.isfinite(r[key])]
    return [x for x, _ in points], [y for _, y in points]


def _identity(run: dict) -> dict:
    """The keys that compared runs must agree on, as ``compare_runs`` lists them."""
    identity = {key: run["summary"][key] for key in ("dataset_fingerprint", "arch")}
    if run["env"] is not None:
        blas, threads = run["env"].get("blas", {}), run["env"].get("threads", {})
        setup = {f"blas {key}": blas.get(key) for key in ("name", "version", "core")}
        setup.update(OPENBLAS_CORETYPE=blas.get("OPENBLAS_CORETYPE"), **threads)
        identity.update({f"env.json {key}": value for key, value in setup.items()})
    return identity


def _cell(value: float | None, flag: str | None, digits: int, empty: str, flag_width: int) -> str:
    """A value to ``digits`` places, then its flag padded to ``flag_width`` in a
    flagged column (``flag`` not None); ``empty`` if the value is None."""
    if value is None:
        return empty
    return f"{value:.{digits}f}" + ("" if flag is None else flag.ljust(flag_width))


def compare_runs(run_dirs: list, out_dir) -> str:
    """Tabulate final test accuracies across runs and emit aligned curves;
    returns the text table.

    The runs must agree on every key of their identity: ``dataset_fingerprint``,
    ``arch`` and, among the runs that have an ``env.json``, ``env.json blas
    name``, ``env.json blas version``, ``env.json blas core`` (the kernel that
    ran), ``env.json OPENBLAS_CORETYPE`` and one ``env.json <VAR>`` per thread
    variable, since those change the floats. A run without an ``env.json``
    skips its keys; a key that one ``env.json`` lacks counts as null. The
    best accuracy per seed column is flagged with '*' in the text table and
    the comparison CSV; aborted runs leave their cell empty, and so does the
    mean of a strategy whose runs all aborted.
    """
    if len(run_dirs) < 2:
        raise CompareError("compare needs at least two runs")
    runs = [load_run(d) for d in run_dirs]
    identities = [_identity(r) for r in runs]
    for key in dict.fromkeys(k for identity in identities for k in identity):
        values = {i.get(key) for i, r in zip(identities, runs) if key in i or r["env"] is not None}
        if len(values) > 1:
            raise CompareError(f"runs are not comparable: {key} differs: {sorted(map(str, values))}")

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

    # one row per strategy: a (value, flag) cell per seed column, then the mean,
    # whose column has no flag; an aborted run, or a mean of none, is None
    columns = [*(f"seed {s}" for s in seeds), "mean"]
    rows = []
    for strat in strategies:
        values = [cells.get((strat, seed)) for seed in seeds]
        present = [v for v in values if v is not None]
        mean = sum(present) / len(present) if present else None
        flags = ["*" if best.get(seed) == strat else "" for seed in seeds]
        rows.append((strat, [*zip(values, flags), (mean, None)]))
    csv_lines = [",".join(["strategy", *(c.replace(" ", "_") for c in columns)])]
    csv_lines += [",".join([strat, *(_cell(v, f, 6, "", 0) for v, f in row)]) for strat, row in rows]
    text_lines = [f"{'strategy':<10}" + "".join(f"{c:>12}" for c in columns)]
    text_lines += [f"{strat:<10}" + "".join(_cell(v, f, 4, "-", 1).rjust(12) for v, f in row)
                   for strat, row in rows]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.csv").write_text("\n".join(csv_lines) + "\n")

    labels = [f"{r['summary']['strategy']}-s{r['summary']['seed']}" for r in runs]
    for metric, (phase, key) in CURVE_METRICS.items():
        series = {label: _curve(r["rows"], phase, key) for label, r in zip(labels, runs)}
        _write_curve_csv(out / f"curves_{metric}.csv", series)
        (out / f"chart_{metric}.svg").write_text(
            line_chart_svg(series, title=metric.replace("_", " "), ylabel=metric)
        )
    return "\n".join(text_lines)


def _write_curve_csv(path, series: dict[str, tuple[list[int], list[float]]]) -> None:
    epochs = sorted({x for xs, _ in series.values() for x in xs})
    lines = [",".join(["epoch", *series])]
    lookup = {label: dict(zip(xs, ys)) for label, (xs, ys) in series.items()}
    for epoch in epochs:
        values = (lookup[label].get(epoch) for label in series)
        lines.append(",".join([str(epoch), *("" if v is None else repr(v) for v in values)]))
    Path(path).write_text("\n".join(lines) + "\n")


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def line_chart_svg(
    series: dict[str, tuple[list[float], list[float]]],
    title: str = "",
    ylabel: str = "",
) -> str:
    """Self-contained 640x420 SVG line chart over epochs; one polyline per
    labeled series."""
    ml, mt, pw, ph = 64, 36, 416, 336  # margins: 64 left, 160 right, 36 top, 48 bottom
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
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420" '
        'viewBox="0 0 640 420" font-family="sans-serif" font-size="12">',
        '<rect width="640" height="420" fill="white"/>',
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
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="410" text-anchor="middle">epoch</text>')
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
