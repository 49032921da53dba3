"""``sadtlab`` end to end: make-data, train two strategies, probe one final
checkpoint against the other, compare the two runs.

``make-data`` has no size option, so the set is 28x28 but tiny (48 train and
16 test samples, 3 classes), and each run is one epoch of three batches. The
probe rebuilds both models from their checkpoints alone
(``nn.model_from_params``), which no other test drives through the CLI. Its
values pin the numerics of one BLAS thread, which ``conftest.py`` sets.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sadtlab import BLAS_THREAD_VARS, InputError, cli, synth
from sadtlab.config import ConfigError, parse_config
from sadtlab.data import DataFormatError, load_idx, write_idx_images, write_idx_labels
from sadtlab.harness import CompareError, environment, run_experiment
from sadtlab.nn import CheckpointError, build_simple_cnn, load_checkpoint, save_checkpoint
from sadtlab.optim import NoiseError

STRATEGIES = ("baseline", "sadt_v1")

# float.hex of the probe JSON: sharpness of baseline's final checkpoint and its
# divergence from sadt_v1's, on one batch of 16 test images
PROBE = {
    "sharpness": "0x1.c100429980fecp+0",
    "rho": "0x1.999999999999ap-5",
    "batches": 1,
    "zero_grad_batches": 0,
    "divergence": "0x1.1f861740e944bp-1",
    "divergence_samples": 16,
}


def _config(strategy_id: str) -> str:
    return (
        "[data]\n"
        "train_images = data/train-images-idx3-ubyte\n"
        "train_labels = data/train-labels-idx1-ubyte\n"
        "test_images = data/t10k-images-idx3-ubyte\n"
        "test_labels = data/t10k-labels-idx1-ubyte\n"
        "train_size = 48\ntest_size = 16\nnum_classes = 3\n"
        f"[strategy]\nid = {strategy_id}\n"
        "[train]\nepochs = 1\nbatch_size = 16\nlr0 = 0.003\nseed = 4\nprobe_every = 0\n"
        f"[output]\ndir = runs/{strategy_id}\n"
    )


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """Every command's exit code and stdout, run in order in one scratch
    directory."""
    root = tmp_path_factory.mktemp("cli")
    commands = {
        "make-data": ["make-data", "--out", "data", "--train-n", "48", "--test-n", "16",
                      "--classes", "3", "--seed", "2"],
        **{f"train {sid}": ["train", "--config", f"{sid}.ini"] for sid in STRATEGIES},
        "probe": ["probe", "--checkpoint", "runs/baseline/final.ckpt", "--data", "data",
                  "--batches", "1", "--batch-size", "16",
                  "--against", "runs/sadt_v1/final.ckpt"],
        "compare": ["compare", "--logs", *(f"runs/{sid}" for sid in STRATEGIES), "--out", "cmp"],
    }
    codes, stdout = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for sid in STRATEGIES:
            Path(f"{sid}.ini").write_text(_config(sid))
        for name, argv in commands.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[name] = cli.main(argv)
            stdout[name] = buf.getvalue()
    return root, codes, stdout


def test_every_command_succeeds(session):
    _, codes, _ = session
    assert codes == dict.fromkeys(codes, 0)


def test_probe_values_are_pinned(session):
    _, _, stdout = session
    result = json.loads(stdout["probe"])
    assert {k: v.hex() if isinstance(v, float) else v for k, v in result.items()} == PROBE


def test_comparison_lists_both_strategies(session):
    root, _, _ = session
    lines = (root / "cmp" / "comparison.csv").read_text().splitlines()
    assert lines[0] == "strategy,seed_4,mean"
    assert [line.split(",")[0] for line in lines[1:]] == list(STRATEGIES)


def test_run_directory_records_its_environment(session):
    root, _, _ = session
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert json.loads((root / "runs" / "baseline" / "env.json").read_text()) == {
        "numpy": np.__version__,
        "blas": {
            "name": blas["name"],
            "version": blas["version"],
            "configuration": blas["openblas configuration"],
        },
        # conftest.py pins one BLAS thread
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
        "cpu_count": len(os.sched_getaffinity(0)),
    }


def test_cpu_count_is_the_cpus_the_process_may_run_on(monkeypatch):
    # as under `taskset -c 0` on a 2-CPU host, where os.cpu_count() reads 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert environment()["cpu_count"] == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # an OS without affinity
    assert environment()["cpu_count"] == os.cpu_count()


def test_unset_thread_variable_is_recorded_as_null(monkeypatch):
    monkeypatch.delenv("MKL_NUM_THREADS")
    assert environment()["threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None,
    }


def test_missing_dataset_file_prints_one_error_line(tmp_path, capsys):
    config = tmp_path / "missing.ini"
    config.write_text(_config("baseline").replace("data/", f"{tmp_path}/absent/"))
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    missing = tmp_path / "absent" / "train-images-idx3-ubyte"
    assert captured.err == f"sadtlab: error: {missing}: No such file or directory\n"
    assert not (tmp_path / "run").exists()  # nothing is written before the inputs load


@pytest.mark.parametrize("key, value, source, count", [
    ("train_size", 64, "train-images-idx3-ubyte", 48),
    ("test_size", 17, "t10k-images-idx3-ubyte", 16),
])
def test_size_beyond_the_file_prints_one_error_line(session, tmp_path, capsys, key, value,
                                                     source, count):
    root, _, _ = session
    config = tmp_path / "big.ini"
    text = _config("baseline").replace("data/", f"{root}/data/")
    config.write_text(text.replace(f"{key} = {count}\n", f"{key} = {value}\n"))
    message = f"[data] {key} = {value}, but {root}/data/{source} holds {count} samples"
    out = tmp_path / "run"
    with pytest.raises(ConfigError) as info:
        run_experiment(parse_config(config, out_dir=str(out)))
    assert str(info.value) == message
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"sadtlab: error: {message}\n")
    assert not out.exists()


PROBE_ARGS = ["probe", "--checkpoint", "runs/baseline/final.ckpt", "--data", "data"]


@pytest.mark.parametrize("extra, message", [
    (["--batches", "0"], "--batches must be >= 1, got 0"),
    (["--batch-size", "0"], "--batch-size must be >= 1, got 0"),
    (["--rho", "-1"], "--rho must be positive and finite, got -1.0"),
    (["--rho", "0"], "--rho must be positive and finite, got 0.0"),
    (["--rho", "nan"], "--rho must be positive and finite, got nan"),
    (["--rho", "inf"], "--rho must be positive and finite, got inf"),
])
def test_probe_option_out_of_range_prints_one_error_line(session, monkeypatch, capsys, extra,
                                                         message):
    root, _, _ = session
    monkeypatch.chdir(root)
    assert cli.main(PROBE_ARGS + extra) == 2
    assert capsys.readouterr() == ("", f"sadtlab: error: {message}\n")


def test_probe_without_idx_pair_prints_one_error_line(session, tmp_path, monkeypatch, capsys):
    root, _, _ = session
    monkeypatch.chdir(root)
    argv = ["probe", "--checkpoint", "runs/baseline/final.ckpt", "--data", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"sadtlab: error: no IDX pair found under {tmp_path}\n")


def test_probe_against_another_architecture_prints_one_error_line(session, tmp_path,
                                                                  monkeypatch, capsys):
    root, _, _ = session
    monkeypatch.chdir(root)
    other = tmp_path / "two-class.ckpt"
    save_checkpoint(build_simple_cnn((1, 28, 28), 2, seed=0).params, other)
    assert cli.main(PROBE_ARGS + ["--against", str(other)]) == 2
    message = f"{other}: architecture differs from runs/baseline/final.ckpt; divergence is undefined"
    assert capsys.readouterr() == ("", f"sadtlab: error: {message}\n")


def test_probe_against_itself_reports_zero_divergence(session, monkeypatch, capsys):
    root, _, _ = session
    monkeypatch.chdir(root)
    argv = PROBE_ARGS + ["--batches", "2", "--batch-size", "8",
                         "--against", "runs/baseline/final.ckpt"]
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["divergence"], result["divergence_samples"]) == (0.0, 16)


def test_non_finite_sharpness_leaves_an_empty_probe_cell(session, tmp_path, monkeypatch):
    # rho = 1e300 overflows the ascent point; the run completes without a warning
    root, _, _ = session
    monkeypatch.chdir(root)
    config = tmp_path / "overflow.ini"
    probe = "probe_every = 1\nprobe_batches = 1\nprobe_rho = 1e300\n"
    config.write_text(_config("baseline").replace("probe_every = 0\n", probe))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    (row,) = [line for line in (tmp_path / "run" / "metrics.csv").read_text().splitlines()
              if ",probe," in line]
    sharpness, divergence = row.split(",")[8:10]
    assert sharpness == "" and float(divergence) > 0.0


def test_probe_with_non_finite_sharpness_prints_one_error_line(session, monkeypatch, capsys):
    root, _, _ = session
    monkeypatch.chdir(root)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(PROBE_ARGS + ["--batches", "1", "--rho", "1e300"]) == 2
    message = "sharpness at --rho 1e+300 is not finite"
    assert capsys.readouterr() == ("", f"sadtlab: error: {message}\n")


@pytest.mark.parametrize("trained, size, fault", [
    ((1, 28, 28), 8, "dense1 expects 576 features, got 64"),
    ((1, 8, 8), 4, "max_pool2x2 needs extents >= 2"),
])
def test_probe_on_data_of_another_size_prints_one_error_line(tmp_path, capsys, trained, size,
                                                             fault):
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(build_simple_cnn(trained, 3, seed=0).params, checkpoint)
    data = tmp_path / "data"
    synth.generate_dataset_files(data, 4, 4, 3, size, size, seed=0)
    assert cli.main(["probe", "--checkpoint", str(checkpoint), "--data", str(data)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"sadtlab: error: {checkpoint} does not fit {data}: ")
    assert fault in err


def test_probe_on_data_with_more_classes_than_the_checkpoint_prints_one_error_line(tmp_path,
                                                                                  capsys):
    checkpoint = tmp_path / "two-class.ckpt"
    save_checkpoint(build_simple_cnn((1, 8, 8), 2, seed=0).params, checkpoint)
    data = tmp_path / "data"
    synth.generate_dataset_files(data, 4, 10, 10, 8, 8, seed=0)
    top = load_idx(data / "t10k-images-idx3-ubyte", data / "t10k-labels-idx1-ubyte").labels.max()
    assert top >= 2
    assert cli.main(["probe", "--checkpoint", str(checkpoint), "--data", str(data)]) == 2
    message = f"--data {data} has label {top}, but {checkpoint} has 2 classes"
    assert capsys.readouterr() == ("", f"sadtlab: error: {message}\n")


def test_simple_cnn_on_small_images_prints_one_error_line(tmp_path, capsys):
    paths = synth.generate_dataset_files(tmp_path / "data", 8, 4, 3, 4, 4, seed=0)
    config = tmp_path / "small.ini"
    config.write_text(
        "[data]\n" + "".join(f"{key} = {path}\n" for key, path in paths.items())
        + "train_size = 8\ntest_size = 4\nnum_classes = 3\n[model]\narch = simple_cnn\n"
    )
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
    message = (f"[model] arch = simple_cnn does not fit {paths['train_images']}: "
               "input 1x4x4 too small for three 2x2 pools (need H,W >= 8)")
    assert capsys.readouterr() == ("", f"sadtlab: error: {message}\n")
    assert not out.exists()


def test_tiny_mlp_on_images_of_no_pixels_prints_one_error_line(tmp_path, capsys):
    images, labels = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
    write_idx_images(images, np.zeros((4, 0, 0)))
    write_idx_labels(labels, np.array([0, 1, 0, 1]))
    config = tmp_path / "empty.ini"
    config.write_text(
        f"[data]\ntrain_images = {images}\ntrain_labels = {labels}\n"
        f"test_images = {images}\ntest_labels = {labels}\n"
        "train_size = 4\ntest_size = 4\nnum_classes = 2\n[model]\narch = tiny_mlp\n"
    )
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
    message = (f"[model] arch = tiny_mlp does not fit {images}: "
               "dimensions must be positive, got [0, 64, 2]")
    assert capsys.readouterr() == ("", f"sadtlab: error: {message}\n")
    assert not out.exists()


def test_abort_checkpoint_holds_the_initial_weights(session, tmp_path, monkeypatch):
    # rho = 1e300 makes the first step's ascent pass non-finite
    root, _, _ = session
    monkeypatch.chdir(root)
    config = tmp_path / "abort.ini"
    config.write_text(_config("sam").replace("[strategy]\n", "[strategy]\nrho = 1e300\n"))
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="non-finite loss at step 1"), np.errstate(all="ignore"):
        cli.main(["train", "--config", str(config), "--out", str(out)])
    initial = build_simple_cnn((1, 28, 28), 3, seed=4).params
    saved = load_checkpoint(out / "abort.ckpt")
    assert saved.names() == initial.names()
    for e in initial:
        assert saved.get(e.name).data.tobytes() == e.tensor.data.tobytes(), e.name


def test_importing_the_cli_loads_no_numerics():
    # `sadtlab --help` and argument errors need argparse only; each command
    # imports what it runs
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, sadtlab.cli; print(sorted({'numpy', 'sadtlab.autodiff'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("given, recorded", [
    ({}, {var: "1" for var in BLAS_THREAD_VARS}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                                     "MKL_NUM_THREADS": "1"}),
], ids=["unset", "user-set"])
def test_the_cli_pins_unset_blas_thread_counts_to_one(tmp_path, given, recorded):
    paths = synth.generate_dataset_files(tmp_path / "data", 8, 4, 3, 8, 8, seed=0)
    config = tmp_path / "tiny.ini"
    config.write_text(
        "[data]\n" + "".join(f"{key} = {path}\n" for key, path in paths.items())
        + "train_size = 8\ntest_size = 4\nnum_classes = 3\n"
        "[train]\nepochs = 1\nbatch_size = 4\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    env.update(given, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "sadtlab.cli", "train", "--config", str(config),
                    "--out", str(tmp_path / "run")], env=env, capture_output=True, check=True)
    threads = json.loads((tmp_path / "run" / "env.json").read_text())["threads"]
    assert threads == recorded


@pytest.mark.parametrize("extra, message", [
    (["--classes", "0"], "--classes must be in 1..256, got 0"),
    (["--classes", "300"], "--classes must be in 1..256, got 300"),
    (["--train-n", "-1", "--test-n", "4"], "--train-n must be >= 0, got -1"),
    (["--test-n", "-1"], "--test-n must be >= 0, got -1"),
    (["--noise", "nan"], "--noise must be finite and >= 0, got nan"),
    (["--noise", "inf"], "--noise must be finite and >= 0, got inf"),
    (["--noise", "-0.1"], "--noise must be finite and >= 0, got -0.1"),
    (["--seed", "-5"], "--seed must be >= 0, got -5"),
], ids=["classes-0", "classes-300", "train-n-negative", "test-n-negative", "noise-nan",
        "noise-inf", "noise-negative", "seed-negative"])
def test_make_data_option_out_of_range_prints_one_error_line(tmp_path, capsys, extra, message):
    out = tmp_path / "bad"
    assert cli.main(["make-data", "--out", str(out), "--train-n", "4", "--test-n", "4", *extra]) == 2
    assert capsys.readouterr() == ("", f"sadtlab: error: {message}\n")
    assert not out.exists()


def test_make_data_accepts_the_edges_of_each_range(tmp_path):
    # 256 classes is the most one label byte holds; load_idx infers them all back
    out = tmp_path / "edge"
    argv = ["make-data", "--out", str(out), "--train-n", "256", "--test-n", "0",
            "--classes", "256", "--noise", "0", "--seed", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    train = load_idx(out / "train-images-idx3-ubyte", out / "train-labels-idx1-ubyte")
    assert train.num_classes == 256
    assert sorted(train.labels.tolist()) == list(range(256))
    test = load_idx(out / "t10k-images-idx3-ubyte", out / "t10k-labels-idx1-ubyte")
    assert test.n == 0


def test_probe_on_an_empty_set_prints_one_error_line(tmp_path, capsys):
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(build_simple_cnn((1, 8, 8), 3, seed=0).params, checkpoint)
    data = tmp_path / "data"
    synth.generate_dataset_files(data, 4, 0, 3, 8, 8, seed=0)  # an empty t10k pair
    assert cli.main(["probe", "--checkpoint", str(checkpoint), "--data", str(data)]) == 2
    assert capsys.readouterr() == ("", f"sadtlab: error: --data {data} holds no samples\n")


@pytest.mark.parametrize("error", [cli.UsageError, ConfigError, DataFormatError, CheckpointError,
                                   CompareError])
def test_every_input_error_prints_one_error_line(tmp_path, monkeypatch, capsys, error):
    assert issubclass(error, InputError)

    def bad_input(args):
        raise error("bad input")

    monkeypatch.setattr(cli, "_cmd_make_data", bad_input)
    assert cli.main(["make-data", "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr() == ("", "sadtlab: error: bad input\n")


def test_a_program_error_keeps_its_traceback(tmp_path, monkeypatch):
    # NoiseError is a ValueError, as InputError is, but a fault of the program
    def program_fault(args):
        raise NoiseError("noise record does not match")

    monkeypatch.setattr(cli, "_cmd_make_data", program_fault)
    with pytest.raises(NoiseError, match="noise record does not match"):
        cli.main(["make-data", "--out", str(tmp_path / "data")])
