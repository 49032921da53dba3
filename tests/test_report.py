import json

from sadtlab.harness import CSV_HEADER
from sadtlab.report import compare_runs


def write_run(run_dir, strategy, seed, accuracy, aborted=None):
    run_dir.mkdir()
    summary = {
        "strategy": strategy,
        "arch": "simple_cnn",
        "seed": seed,
        "dataset_fingerprint": "f" * 64,
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
        report = compare_runs(runs, tmp_path / "cmp")
        assert report.best == {0: "baseline"}
        lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        assert lines[:2] == ["strategy,seed_0,seed_1,mean", "baseline,0.500000*,,0.500000"]
        assert lines[2].split(",")[:3] == ["sadt_v1", "", ""]
