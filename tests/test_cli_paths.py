"""``sadtlab train`` and ``sadtlab probe`` on the paths no other test runs:
unmixed batches (``cutmix = false``, or a last batch of one sample), ``arch =
tiny_mlp``, CIFAR-10 binary data, and ``probe --data`` given an IDX pair or a
``.bin`` file. Each goes through ``cli.main``, must exit 0 and must write the
same bytes when run again; an IDX pair of unequal counts fails in one line.
"""

import contextlib
import hashlib
import io
import shutil
import struct

import numpy as np
import pytest

from sadtlab import cli, synth
from sadtlab.data import (
    CIFAR_RECORD_BYTES, DataFormatError, MixedBatch, load_idx, make_batches,
)
from sadtlab.nn import build_simple_cnn, save_checkpoint


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _train_twice(config) -> dict[str, bytes]:
    """Train ``config`` twice into one directory; both runs exit 0 and write
    the same files, whose bytes are returned."""
    out = config.parent / "run"
    outputs = []
    for _ in range(2):
        shutil.rmtree(out, ignore_errors=True)
        assert _run(["train", "--config", str(config), "--out", str(out)])[0] == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    return outputs[0]


def _steps_and_hashes(files: dict[str, bytes]) -> tuple[int, list[str]]:
    rows = files["metrics.csv"].decode().splitlines()
    return sum(",step," in row for row in rows), files["batch_hashes.txt"].decode().split()


def _idx_config(tmp_path, train_size: int, extra: str) -> tuple:
    """An 8x8 IDX set of 3 classes and a config for it, batch 4 and seed 3."""
    paths = synth.generate_dataset_files(tmp_path / "data", 12, 4, 3, 8, 8, seed=1)
    config = tmp_path / "run.ini"
    config.write_text(
        "[data]\n" + "".join(f"{key} = {path}\n" for key, path in paths.items())
        + f"train_size = {train_size}\ntest_size = 4\nnum_classes = 3\n{extra}"
        + "[train]\nepochs = 2\nbatch_size = 4\nseed = 3\nprobe_every = 0\n"
    )
    return config, paths


def _plain_hashes(paths, train_size: int, seed: int, epochs: int, batch_size: int) -> list[str]:
    """sha256 of each unmixed batch (images, both label arrays, lam = 1) in
    the harness's batch order: epoch e shuffles with spawn key (1, e)."""
    train = load_idx(paths["train_images"], paths["train_labels"], 3).subset(train_size)
    hashes = []
    for epoch in range(1, epochs + 1):
        order = np.random.SeedSequence(entropy=seed, spawn_key=(1, epoch))
        for idx in make_batches(train, batch_size, order):
            batch = MixedBatch.plain(train.images[idx], train.labels[idx])
            blob = [batch.images, batch.label_a, batch.label_b]
            digest = hashlib.sha256(b"".join(a.tobytes() for a in blob) + struct.pack("<d", 1.0))
            hashes.append(digest.hexdigest())
    return hashes


def test_cutmix_off_hashes_the_plain_batches(tmp_path):
    config, paths = _idx_config(tmp_path, 10, "cutmix = false\n")
    steps, hashes = _steps_and_hashes(_train_twice(config))
    assert steps == 2 * 3  # batches of 4, 4 and 2 in each epoch
    assert hashes == _plain_hashes(paths, 10, seed=3, epochs=2, batch_size=4)


def test_a_last_batch_of_one_sample_is_not_mixed(tmp_path):
    config, paths = _idx_config(tmp_path, 9, "")
    steps, hashes = _steps_and_hashes(_train_twice(config))
    assert steps == 2 * 3  # batches of 4, 4 and 1 in each epoch
    plain = _plain_hashes(paths, 9, seed=3, epochs=2, batch_size=4)
    assert [hashes[2], hashes[5]] == [plain[2], plain[5]]  # CutMix needs 2 samples
    assert hashes[0] != plain[0]


def test_tiny_mlp_from_a_config(tmp_path):
    config, _ = _idx_config(tmp_path, 12, "[model]\narch = tiny_mlp\nhidden_dims = 5, 4\n")
    files = _train_twice(config)
    steps, hashes = _steps_and_hashes(files)
    assert (steps, len(hashes)) == (2 * 3, 2 * 3)
    assert b'"arch": "tiny_mlp"' in files["summary.json"]


def _write_cifar(path, n: int, seed: int, num_classes: int = 3) -> None:
    records = np.random.default_rng(seed).integers(0, 256, (n, CIFAR_RECORD_BYTES), np.uint8)
    records[:, 0] %= num_classes
    path.write_bytes(records.tobytes())


def test_cifar10_data_from_a_config(tmp_path):
    for name, n, seed in (("a.bin", 4, 0), ("b.bin", 3, 1), ("test.bin", 4, 2)):
        _write_cifar(tmp_path / name, n, seed)
    config = tmp_path / "run.ini"
    config.write_text(
        f"[data]\nformat = cifar10\ntrain_files = {tmp_path / 'a.bin'}, {tmp_path / 'b.bin'}\n"
        f"test_files = {tmp_path / 'test.bin'}\ntrain_size = 7\ntest_size = 4\nnum_classes = 3\n"
        "[train]\nepochs = 1\nbatch_size = 4\nseed = 0\nprobe_every = 0\n"
    )
    files = _train_twice(config)
    steps, hashes = _steps_and_hashes(files)
    assert (steps, len(hashes)) == (2, 2)
    # the fingerprint hashes every data file, the test file too
    blob = bytearray((tmp_path / "test.bin").read_bytes())
    blob[100] ^= 1
    (tmp_path / "test.bin").write_bytes(bytes(blob))
    assert _train_twice(config)["summary.json"] != files["summary.json"]


def _probe_twice(argv) -> str:
    runs = [_run(argv) for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    return runs[0][1]


def test_probe_data_as_an_idx_pair(tmp_path):
    paths = synth.generate_dataset_files(tmp_path / "data", 4, 6, 3, 8, 8, seed=0)
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(build_simple_cnn((1, 8, 8), 3, seed=0).params, checkpoint)
    probe = ["probe", "--checkpoint", str(checkpoint), "--batches", "2", "--batch-size", "3"]
    pair = _probe_twice([*probe, "--data", f"{paths['test_images']}:{paths['test_labels']}"])
    # a directory resolves to its t10k pair first
    assert pair == _probe_twice([*probe, "--data", str(tmp_path / "data")])
    assert '"batches": 2' in pair


def test_probe_data_as_a_cifar_file(tmp_path):
    _write_cifar(tmp_path / "test.bin", 5, 0, num_classes=10)
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(build_simple_cnn((3, 32, 32), 10, seed=0).params, checkpoint)
    out = _probe_twice(["probe", "--checkpoint", str(checkpoint),
                        "--data", str(tmp_path / "test.bin"), "--batch-size", "5"])
    assert '"batches": 1' in out


def test_idx_pair_of_unequal_counts_prints_one_error_line(tmp_path, capsys):
    paths = synth.generate_dataset_files(tmp_path / "data", 4, 6, 3, 8, 8, seed=0)
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(build_simple_cnn((1, 8, 8), 3, seed=0).params, checkpoint)
    with pytest.raises(DataFormatError, match="^count mismatch: 4 images vs 6 labels$"):
        load_idx(paths["train_images"], paths["test_labels"])
    data = f"{paths['train_images']}:{paths['test_labels']}"
    assert cli.main(["probe", "--checkpoint", str(checkpoint), "--data", data]) == 2
    assert capsys.readouterr() == ("", "sadtlab: error: count mismatch: 4 images vs 6 labels\n")
