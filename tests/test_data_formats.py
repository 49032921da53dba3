"""Loaders fail loudly on cut files: every proper prefix of a checkpoint, of
an IDX image or label file, and every CIFAR prefix off a record boundary
raises ``CheckpointError`` or ``DataFormatError``, never a stray
``struct.error``, ``IndexError`` or the like.

Checkpoint format v1 carries no entry count, so a file cut exactly between
two entries, or right after the header, still loads: as the shorter set of
the entries before the cut. Detecting that is left for checkpoint v2.
"""

from pathlib import Path

import numpy as np
import pytest

from sadtlab import cli, synth
from sadtlab.data import CIFAR_RECORD_BYTES, DataFormatError, load_cifar_binary, load_idx
from sadtlab.nn import CHECKPOINT_MAGIC, CheckpointError, load_checkpoint, save_checkpoint


def _entry_ends(params) -> list[int]:
    """Byte offsets at which the header and then each entry end."""
    ends = [len(CHECKPOINT_MAGIC) + 4]
    for e in params:
        arr = e.tensor.data
        ends.append(ends[-1] + 4 + len(e.name.encode()) + 4 + 8 * arr.ndim + 8 * arr.size)
    return ends


class TestCheckpointPrefixes:
    def test_every_proper_prefix_raises_unless_cut_between_entries(self, tiny_conv_model, tmp_path):
        params = tiny_conv_model.params
        full = tmp_path / "full.ckpt"
        save_checkpoint(params, full)
        blob = full.read_bytes()
        ends = _entry_ends(params)
        assert ends[-1] == len(blob)
        cut = tmp_path / "cut.ckpt"
        for length in range(len(blob)):
            cut.write_bytes(blob[:length])
            if length in ends:  # v1 has no entry count: a shorter set loads
                loaded = load_checkpoint(cut)
                kept = params.entries[: ends.index(length)]
                assert loaded.names() == [e.name for e in kept]
                for e in kept:
                    assert np.array_equal(loaded.get(e.name).data, e.tensor.data)
            else:
                with pytest.raises(CheckpointError):
                    load_checkpoint(cut)

    def test_cli_probe_prints_one_error_line_and_returns_2(self, tmp_path, capsys):
        synth.generate_dataset_files(tmp_path / "data", 4, 4, 3, 8, 8, seed=1)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(CHECKPOINT_MAGIC + b"\x01\x00")  # cut inside the version field
        argv = ["probe", "--checkpoint", str(cut), "--data", str(tmp_path / "data")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sadtlab: error: truncated checkpoint {cut}: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class TestIdxPrefixes:
    @pytest.mark.parametrize("cut_file", ["images", "labels"])
    def test_every_proper_prefix_raises(self, tmp_path, cut_file):
        paths = synth.generate_dataset_files(tmp_path / "data", 6, 2, 3, 8, 8, seed=1)
        full = {"images": Path(paths["train_images"]), "labels": Path(paths["train_labels"])}
        assert load_idx(full["images"], full["labels"]).n == 6
        blob = full[cut_file].read_bytes()
        cut = tmp_path / "cut"
        files = {**full, cut_file: cut}
        for length in range(len(blob)):
            cut.write_bytes(blob[:length])
            with pytest.raises(DataFormatError):
                load_idx(files["images"], files["labels"])


class TestCifarPrefixes:
    def test_every_prefix_off_a_record_boundary_raises(self, tmp_path):
        records = np.random.default_rng(3).integers(0, 256, (2, CIFAR_RECORD_BYTES), np.uint8)
        records[:, 0] = [1, 7]  # valid labels
        blob = records.tobytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(blob)
        assert load_cifar_binary([cut]).n == 2
        for length in range(len(blob)):
            if length % CIFAR_RECORD_BYTES == 0:
                continue
            cut.write_bytes(blob[:length])
            with pytest.raises(DataFormatError):
                load_cifar_binary([cut])
