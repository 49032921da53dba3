import hashlib
import json
import math
import xml.etree.ElementTree as ET

import pytest

from sadtlab import cli
from sadtlab.harness import CSV_HEADER, RunRow
from sadtlab.report import CompareError, compare_runs, line_chart_svg


def write_run(run_dir, strategy, seed, accuracy, aborted=None, fingerprint="f" * 64,
              arch="simple_cnn"):
    run_dir.mkdir()
    summary = {
        "strategy": strategy,
        "arch": arch,
        "seed": seed,
        "dataset_fingerprint": fingerprint,
        "final_test_accuracy": accuracy,
        "aborted": aborted,
    }
    (run_dir / "summary.json").write_text(json.dumps(summary))
    rows = ["0,0,eval_train,2.3,,,,0.1,,,", "0,0,eval_test,2.3,,,,0.1,,,"]
    if accuracy is not None:
        rows += ["4,1,eval_test,1.9,,,,0.5,,,", f"4,1,final_test,1.9,,,,{accuracy},,,"]
    (run_dir / "metrics.csv").write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    return run_dir


class TestCompareRuns:
    def test_aborted_run_leaves_its_cell_empty_and_never_wins(self, tmp_path):
        runs = [
            write_run(tmp_path / "base-s0", "baseline", 0, 0.5),
            write_run(tmp_path / "v1-s0", "sadt_v1", 0, None, aborted="task loss is nan"),
            write_run(tmp_path / "v1-s1", "sadt_v1", 1, None, aborted="task loss is nan"),
        ]
        table = compare_runs(runs, tmp_path / "cmp")
        lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        assert lines[:2] == ["strategy,seed_0,seed_1,mean", "baseline,0.500000*,,0.500000"]
        assert lines[2] == "sadt_v1,,,"
        assert table.splitlines()[2].split() == ["sadt_v1", "-", "-", "-"]


def write_pinned_run(run_dir, strategy, seed, accuracy):
    """A run with eval_train and eval_test curves whose values are a function
    of its strategy, seed and epoch; an aborted run (``accuracy`` None) stops
    after epoch 1."""
    run_dir.mkdir()
    summary = {
        "strategy": strategy, "arch": "simple_cnn", "seed": seed,
        "dataset_fingerprint": "f" * 64, "final_test_accuracy": accuracy,
        "aborted": None if accuracy is not None else "task loss is nan",
    }
    (run_dir / "summary.json").write_text(json.dumps(summary))
    offset = len(strategy) + 3 * seed
    rows = []
    for epoch in range(4 if accuracy is not None else 2):
        for phase, scale in (("eval_train", 7), ("eval_test", 9)):
            acc = (offset + 5 * epoch) / (scale * 4)
            rows.append(RunRow(8 * epoch, epoch, phase, task_loss=scale / (offset + epoch + 1),
                               accuracy=acc).csv_line())
    if accuracy is not None:
        rows.append(RunRow(24, 3, "final_test", task_loss=0.5, accuracy=accuracy).csv_line())
    (run_dir / "metrics.csv").write_text("\n".join([CSV_HEADER, *rows]) + "\n")


# sha256 of every file `compare` writes, and of its stdout, for PINNED_RUNS
PINNED_RUNS = {
    "sam-s1": ("sam", 1, 4 / 7),
    "base-s0": ("baseline", 0, 0.5),
    "v1-s1": ("sadt_v1", 1, None),
    "sam-s0": ("sam", 0, 0.625),
    "base-s1": ("baseline", 1, 4 / 7),  # ties sam-s1: the earlier strategy wins
    "v1-s0": ("sadt_v1", 0, 2 / 3),
}
PINNED_DIGESTS = {
    "chart_train_accuracy.svg": "9653a26da0337cf5ba82e96b53c8e61725dcf79c733b292c0a997020fa2b8e35",
    "chart_train_loss.svg": "fe1f01960b8e272e8a8107d2c8a6cb8c8b5b04292d1386cd6c6ac89c9bb4056d",
    "chart_val_accuracy.svg": "3b923876ef6560205ba150366b53d2e0ca9c3388a1ab4badefb43c96cdb0d5c7",
    "chart_val_loss.svg": "31e9677669601914d829cfbc2c4175870e39764333f34bbdb91d4a301bc3707e",
    "comparison.csv": "226ab1f8dbf2f8eb272c56fafa0aeda36054ffaa236ee127f87f71af40f56374",
    "curves_train_accuracy.csv": "808ffe5d22657547a07dbc55b5aed283f19b3e197604ddcdd0d705d80281ffb2",
    "curves_train_loss.csv": "a818a66ec33bc07b22edcd81b867ae8a054194337c647ab6f966e350de5539dc",
    "curves_val_accuracy.csv": "1eef19704b1717e5a15bcbfbbdb59506dc4ba2540eb96e69f2eb3faf7a8c1aa8",
    "curves_val_loss.csv": "5ac69ee24f6031ed35046c7855da2f37b3f331fd1438658e722358356b706ff3",
    "stdout": "7b220d1cb0805e62a1bc006022127d70e6067fcf9c56c90cb68b79b0377cc8ef",
}


class TestPinnedOutputs:
    def test_compare_writes_the_pinned_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, (strategy, seed, accuracy) in PINNED_RUNS.items():
            write_pinned_run(tmp_path / name, strategy, seed, accuracy)
        assert cli.main(["compare", "--logs", *PINNED_RUNS, "--out", "cmp"]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted((tmp_path / "cmp").iterdir())}
        digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == PINNED_DIGESTS


ENV = {
    "numpy": "2.0.0",
    "blas": {"name": "scipy-openblas", "version": "0.3.27", "configuration": "USE64BITINT",
             "core": "SkylakeX", "OPENBLAS_CORETYPE": None},
    "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None},
    "cpu_count": 2,
}


def write_env(run_dir, blas=None, threads=None, **rest):
    env = {**ENV, "blas": {**ENV["blas"], **(blas or {})},
           "threads": {**ENV["threads"], **(threads or {})}, **rest}
    (run_dir / "env.json").write_text(json.dumps(env))


def incomparable_runs(tmp_path, case):
    """Two or more run directories that ``compare`` must reject."""
    if case == "one-run":
        return [write_run(tmp_path / "a", "baseline", 0, 0.5)]
    if case == "fingerprint":  # e.g. two runs of different train_size
        return [write_run(tmp_path / "a", "baseline", 0, 0.5),
                write_run(tmp_path / "b", "sadt_v1", 0, 0.6, fingerprint="e" * 64)]
    if case == "arch":
        return [write_run(tmp_path / "a", "baseline", 0, 0.5),
                write_run(tmp_path / "b", "sadt_v1", 0, 0.6, arch="tiny_mlp")]
    if case == "duplicate":
        return [write_run(tmp_path / "a", "baseline", 0, 0.5),
                write_run(tmp_path / "b", "baseline", 0, 0.6)]
    runs = [write_run(tmp_path / "a", "baseline", 0, 0.5),
            write_run(tmp_path / "b", "sadt_v1", 0, 0.6)]
    write_env(runs[0])
    write_env(runs[1], **{
        "blas-name": {"blas": {"name": "mkl"}},
        "blas-version": {"blas": {"version": "0.3.21"}},
        "blas-core": {"blas": {"core": "Haswell"}},
        "coretype": {"blas": {"OPENBLAS_CORETYPE": "SkylakeX"}},  # the kernel it would pick anyway
        "thread-unset": {"threads": {"OPENBLAS_NUM_THREADS": None}},
        "thread-count": {"threads": {"OMP_NUM_THREADS": "2"}},
        "thread-missing": {"threads": {"OMP_NUM_THREADS": "2"}},
    }[case])
    if case == "thread-missing":  # the first env.json lacks the key, which counts as null
        env = json.loads((runs[0] / "env.json").read_text())
        del env["threads"]["OMP_NUM_THREADS"]
        (runs[0] / "env.json").write_text(json.dumps(env))
    return runs


COMPARE_ERRORS = {
    "one-run": "compare needs at least two runs",
    "fingerprint": f"runs are not comparable: dataset_fingerprint differs: {['e' * 64, 'f' * 64]}",
    "arch": "runs are not comparable: arch differs: ['simple_cnn', 'tiny_mlp']",
    "duplicate": "duplicate run for strategy/seed ('baseline', 0)",
    "blas-name": "runs are not comparable: env.json blas name differs: ['mkl', 'scipy-openblas']",
    "blas-version": "runs are not comparable: env.json blas version differs: ['0.3.21', '0.3.27']",
    "blas-core": "runs are not comparable: env.json blas core differs: ['Haswell', 'SkylakeX']",
    "coretype": "runs are not comparable: env.json OPENBLAS_CORETYPE differs: ['None', 'SkylakeX']",
    "thread-unset": (
        "runs are not comparable: env.json OPENBLAS_NUM_THREADS differs: ['1', 'None']"
    ),
    "thread-count": "runs are not comparable: env.json OMP_NUM_THREADS differs: ['2', 'None']",
    "thread-missing": "runs are not comparable: env.json OMP_NUM_THREADS differs: ['2', 'None']",
}


class TestCompareErrors:
    @pytest.mark.parametrize("case", COMPARE_ERRORS)
    def test_compare_runs_names_the_mismatch(self, tmp_path, case):
        runs = incomparable_runs(tmp_path, case)
        with pytest.raises(CompareError) as info:
            compare_runs(runs, tmp_path / "cmp")
        assert str(info.value) == COMPARE_ERRORS[case]
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("case", COMPARE_ERRORS)
    def test_cli_prints_one_error_line_and_returns_2(self, tmp_path, capsys, case):
        runs = incomparable_runs(tmp_path, case)
        argv = ["compare", "--logs", *map(str, runs), "--out", str(tmp_path / "cmp")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sadtlab: error: {COMPARE_ERRORS[case]}\n"
        assert not (tmp_path / "cmp").exists()

    def test_equal_environments_and_runs_without_one_compare(self, tmp_path):
        runs = [write_run(tmp_path / name, sid, 0, 0.5)
                for name, sid in (("a", "baseline"), ("b", "sadt_v1"), ("c", "sam"))]
        write_env(runs[0])
        write_env(runs[1], numpy="1.26.4", cpu_count=8)  # neither changes the BLAS setup
        # runs[2] predates env.json and skips the check
        compare_runs(runs, tmp_path / "cmp")
        lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["baseline", "sam", "sadt_v1"]


def unreadable_runs(tmp_path, case):
    """Two run directories, the first with a file ``compare`` cannot read;
    returns them and the path and message the error names."""
    runs = [write_run(tmp_path / "a", "baseline", 0, 0.5),
            write_run(tmp_path / "b", "sadt_v1", 0, 0.6)]
    if case in BAD_VALUES:  # one key of summary.json or env.json holds a value of another kind
        name, key, value, message = BAD_VALUES[case]
        bad = runs[0] / name
        if name == "env.json":
            write_env(runs[0])
        content = json.loads(bad.read_text())
        content[key] = value
        bad.write_text(json.dumps(content))
        return runs, f"{bad}: {message}"
    bad = runs[0] / {"metrics-cell": "metrics.csv", "env-json": "env.json"}.get(
        case, "summary.json")
    if case == "missing-keys":
        summary = json.loads(bad.read_text())
        del summary["strategy"], summary["seed"]
        bad.write_text(json.dumps(summary))
    elif case == "metrics-cell":
        bad.write_text(bad.read_text().replace("0,0,eval_train", "x,0,eval_train"))
    else:
        bad.write_text("[1, 2]" if case == "not-an-object" else "{bad")
    message = {
        "summary-json": "not valid JSON: Expecting property name enclosed in double quotes: "
                        "line 1 column 2 (char 1)",
        "env-json": "not valid JSON: Expecting property name enclosed in double quotes: "
                    "line 1 column 2 (char 1)",
        "not-an-object": "not a JSON object",
        "missing-keys": "missing strategy, seed",
        "metrics-cell": "line 2: bad or missing cell: invalid literal for int() with base 10: 'x'",
    }[case]
    return runs, f"{bad}: {message}"


# case -> (file, key, value, message): one value of another kind than compare reads
BAD_VALUES = {
    "accuracy-string": ("summary.json", "final_test_accuracy", "0.9",
                        'final_test_accuracy must be a number in [0, 1] or null, got "0.9"'),
    "accuracy-nan": ("summary.json", "final_test_accuracy", float("nan"),
                     "final_test_accuracy must be a number in [0, 1] or null, got NaN"),
    "seed-string": ("summary.json", "seed", "0", 'seed must be an integer, got "0"'),
    "seed-bool": ("summary.json", "seed", True, "seed must be an integer, got true"),
    "strategy-unknown": ("summary.json", "strategy", "nope",
                         'strategy must be a strategy id, got "nope"'),
    "arch-list": ("summary.json", "arch", ["simple_cnn"], 'arch must be a string, got ["simple_cnn"]'),
    "fingerprint-null": ("summary.json", "dataset_fingerprint", None,
                         "dataset_fingerprint must be a string, got null"),
    "blas-null": ("env.json", "blas", None, "blas must be an object of strings and nulls, got null"),
    "threads-list": ("env.json", "threads", ["1"],
                     'threads must be an object of strings and nulls, got ["1"]'),
    "thread-list": ("env.json", "threads", {"OMP_NUM_THREADS": ["1"]},
                    'threads must be an object of strings and nulls, got {"OMP_NUM_THREADS": ["1"]}'),
}
UNREADABLE = ("summary-json", "env-json", "not-an-object", "missing-keys", "metrics-cell",
              *BAD_VALUES)


class TestUnreadableRuns:
    @pytest.mark.parametrize("case", UNREADABLE)
    def test_compare_runs_names_the_file(self, tmp_path, case):
        runs, message = unreadable_runs(tmp_path, case)
        with pytest.raises(CompareError) as info:
            compare_runs(runs, tmp_path / "cmp")
        assert str(info.value) == message

    @pytest.mark.parametrize("case", UNREADABLE)
    def test_cli_prints_one_error_line_and_returns_2(self, tmp_path, capsys, case):
        runs, message = unreadable_runs(tmp_path, case)
        argv = ["compare", "--logs", *map(str, runs), "--out", str(tmp_path / "cmp")]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"sadtlab: error: {message}\n")
        assert not (tmp_path / "cmp").exists()


def write_curve_run(run_dir, strategy, accuracies, losses=None):
    """A finished run whose eval_test rows hold ``accuracies`` and ``losses``
    (epoch -> value; a loss defaults to 1.0)."""
    run_dir.mkdir()
    summary = {
        "strategy": strategy, "arch": "simple_cnn", "seed": 0,
        "dataset_fingerprint": "f" * 64, "final_test_accuracy": 0.5, "aborted": None,
    }
    (run_dir / "summary.json").write_text(json.dumps(summary))
    losses = losses or {}
    rows = [RunRow(4 * epoch, epoch, "eval_test", task_loss=losses.get(epoch, 1.0),
                   accuracy=acc).csv_line()
            for epoch, acc in accuracies.items()]
    (run_dir / "metrics.csv").write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    return run_dir


SVG = "{http://www.w3.org/2000/svg}"


def polylines(root: ET.Element) -> list[list[tuple[float, float]]]:
    out = []
    for line in root.iter(f"{SVG}polyline"):
        out.append([tuple(map(float, p.split(","))) for p in line.get("points").split()])
    return out


def texts(root: ET.Element) -> list[str]:
    return [t.text for t in root.iter(f"{SVG}text")]


class TestCurves:
    def test_epochs_are_the_union_and_missing_cells_blank(self, tmp_path):
        runs = [
            write_curve_run(tmp_path / "base", "baseline", {0: 0.1, 1: 0.25, 2: 1 / 3}),
            write_curve_run(tmp_path / "v1", "sadt_v1", {0: 0.2, 2: 0.7, 3: 2 / 3}),
        ]
        compare_runs(runs, tmp_path / "cmp")
        lines = (tmp_path / "cmp" / "curves_val_accuracy.csv").read_text().splitlines()
        assert lines == [
            "epoch,baseline-s0,sadt_v1-s0",
            "0,0.1,0.2",
            "1,0.25,",
            f"2,{1 / 3!r},0.7",
            f"3,,{2 / 3!r}",
        ]
        # no run has eval_train rows: the epoch column is empty, not missing
        assert (tmp_path / "cmp" / "curves_train_loss.csv").read_text() == (
            "epoch,baseline-s0,sadt_v1-s0\n"
        )


    def test_non_finite_values_leave_empty_cells_and_no_nan_in_the_chart(self, tmp_path):
        accuracies = {0: 0.1, 1: 0.2, 2: 0.3}
        runs = [
            write_curve_run(tmp_path / "base", "baseline", accuracies, {0: math.nan, 1: 2.0}),
            write_curve_run(tmp_path / "v1", "sadt_v1", accuracies, {1: math.inf, 2: 1.25}),
        ]
        compare_runs(runs, tmp_path / "cmp")
        assert (tmp_path / "cmp" / "curves_val_loss.csv").read_text().splitlines() == [
            "epoch,baseline-s0,sadt_v1-s0",
            "0,,1.0",
            "1,2.0,",
            "2,1.0,1.25",
        ]
        svg = (tmp_path / "cmp" / "chart_val_loss.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
        assert [len(points) for points in polylines(ET.fromstring(svg))] == [2, 2]


class TestLineChart:
    def test_one_polyline_per_non_empty_series_and_one_label_each(self):
        series = {"a": ([0, 1, 2], [1.0, 2.0, 3.0]), "b": ([], []), "c": ([0, 2], [0.5, 0.5])}
        root = ET.fromstring(line_chart_svg(series, title="t"))
        lines = polylines(root)
        assert [len(points) for points in lines] == [3, 2]
        assert [texts(root).count(label) for label in series] == [1, 1, 1]

    @pytest.mark.parametrize(
        "series",
        [
            {},
            {"a": ([], [])},
            {"a": ([3, 3], [2.0, 2.0])},  # one x and one y: both spans are zero
            {"a": ([0, 1], [2.0, 2.0]), "b": ([5], [2.0])},
        ],
        ids=["no-series", "empty-series", "one-point", "constant"],
    )
    def test_degenerate_series_render_finite_coordinates(self, series):
        root = ET.fromstring(line_chart_svg(series))
        for points in polylines(root):
            assert all(math.isfinite(x) and math.isfinite(y) for x, y in points)
        assert "nan" not in ET.tostring(root, encoding="unicode")
