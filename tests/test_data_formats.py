"""Loaders fail loudly on cut files: every proper prefix of a checkpoint, of
an IDX image or label file, and every CIFAR prefix off a record boundary
raises ``CheckpointError`` or ``DataFormatError``, never a stray
``struct.error``, ``IndexError`` or the like.

A label byte outside ``[0, num_classes)`` is a ``DataFormatError`` naming the
file too, not the bare ``ValueError`` of ``Dataset``.

Corrupt bytes fail the same way: a checkpoint or IDX header with one to
three bytes changed either loads or raises ``CheckpointError`` or
``DataFormatError`` (hypothesis), never an ``OverflowError`` from an extent
too large for a C integer.

Checkpoint format v1 carries no entry count, so a file cut exactly between
two entries, or right after the header, still loads: as the shorter set of
the entries before the cut. Detecting that is left for checkpoint v2. A
model is rebuilt only from whole layers up to a dense one: ``probe`` fails
in one line on a cut with no dense layer or with a weight but not its bias,
and on whole files with an entry no layer runs or a weight or bias of a shape
no layer has.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sadtlab import cli, synth
from sadtlab.data import (
    CIFAR_RECORD_BYTES, DataFormatError, load_cifar_binary, load_idx, write_idx_labels,
)
from sadtlab.nn import (
    CHECKPOINT_MAGIC, CheckpointError, ParamSet, build_simple_cnn, load_checkpoint,
    model_from_params, save_checkpoint,
)


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


class TestCheckpointNoModelRuns:
    # simple_cnn's 12 entries: conv1-conv3 then dense1-dense3, weight then bias
    @pytest.fixture
    def cut_at(self, tmp_path):
        params = build_simple_cnn((1, 8, 8), 3, seed=0).params
        full = tmp_path / "full.ckpt"
        save_checkpoint(params, full)

        def cut_at(entries):
            cut = tmp_path / f"cut{entries}.ckpt"
            cut.write_bytes(full.read_bytes()[: _entry_ends(params)[entries]])
            return cut

        return cut_at

    @pytest.mark.parametrize("entries, message", [
        (0, "no model runs parameters without a dense layer"),
        (6, "no model runs parameters without a dense layer"),
        (11, "layer dense3 lacks dense3.bias"),
    ], ids=["header-only", "convs-only", "weight-without-bias"])
    def test_cli_probe_prints_one_error_line_and_returns_2(self, cut_at, tmp_path, capsys,
                                                          entries, message):
        synth.generate_dataset_files(tmp_path / "data", 4, 4, 3, 8, 8, seed=1)
        cut = cut_at(entries)
        assert cli.main(["probe", "--checkpoint", str(cut), "--data", str(tmp_path / "data")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sadtlab: error: {cut}: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        ({"dense3.weight": np.array(1.0)}, "layer dense3 has weight () and bias (3,)"),
        ({"dense3.bias": np.zeros((3, 1))}, "layer dense3 has weight (128, 3) and bias (3, 1)"),
        ({"foo.weight": np.ones((2, 2)), "foo.bias": np.ones(2), "dense1.gamma": np.ones(256)},
         "no layer runs dense1.gamma, foo.bias, foo.weight"),
        # layers that do not chain fail on any data, so the checkpoint is named, not the data
        ({"conv1.weight": np.ones((32, 1, 2, 2))}, "layer conv1 has a 2x2 kernel, not an odd square"),
        ({"conv2.weight": np.ones((64, 16, 3, 3))}, "layer conv2 takes 16 inputs, but conv1 gives 32"),
        ({"dense2.weight": np.ones((100, 128))}, "layer dense2 takes 100 inputs, but dense1 gives 256"),
    ], ids=["scalar-weight", "column-bias", "stray-entries", "even-kernel", "conv-chain",
            "dense-chain"])
    def test_cli_probe_refuses_entries_no_layer_runs(self, tmp_path, capsys, edit, message):
        synth.generate_dataset_files(tmp_path / "data", 4, 4, 3, 8, 8, seed=1)
        named = {e.name: e.tensor.data for e in build_simple_cnn((1, 8, 8), 3, seed=0).params}
        path = tmp_path / "edited.ckpt"
        save_checkpoint(ParamSet.from_named_arrays(list({**named, **edit}.items())), path)
        assert cli.main(["probe", "--checkpoint", str(path), "--data", str(tmp_path / "data")]) == 2
        assert capsys.readouterr() == ("", f"sadtlab: error: {path}: {message}\n")

    def test_cli_probe_names_the_against_checkpoint(self, cut_at, tmp_path, capsys):
        synth.generate_dataset_files(tmp_path / "data", 4, 4, 3, 8, 8, seed=1)
        whole, cut = cut_at(12), cut_at(11)
        argv = ["probe", "--checkpoint", str(whole), "--data", str(tmp_path / "data"),
                "--against", str(cut)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"sadtlab: error: {cut}: layer dense3 lacks dense3.bias\n")

    def test_a_cut_after_whole_layers_still_rebuilds(self, cut_at):
        # conv1-dense1: v1 has no entry count, so this is left for checkpoint v2
        model = model_from_params(load_checkpoint(cut_at(8)), input_shape=(1, 8, 8))
        assert model.layers() == ["conv1", "conv2", "conv3", "dense1"]


def _mutations(span: int):
    """One to three (offset, byte) overwrites within the first ``span`` bytes."""
    return st.lists(st.tuples(st.integers(0, span - 1), st.integers(0, 255)), min_size=1, max_size=3)


def _mutate(blob: bytes, mutations) -> bytes:
    out = bytearray(blob)
    for offset, value in mutations:
        out[offset] = value
    return bytes(out)


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCorruptCheckpoint:
    # 8x8 simple_cnn: magic (8) + version (4) + name length (4) + "conv1.weight"
    # (12) + rank (4) put the first u64 extent at bytes 32-39
    FIRST_EXTENT_TOP = 39

    @pytest.fixture
    def blob(self, tmp_path):
        path = tmp_path / "full.ckpt"
        save_checkpoint(build_simple_cnn((1, 8, 8), 3, seed=0).params, path)
        return path.read_bytes()

    def test_extent_beyond_any_c_integer_raises(self, blob, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_mutate(blob, [(self.FIRST_EXTENT_TOP, 142)]))
        with pytest.raises(CheckpointError, match="'conv1.weight' needs"):
            load_checkpoint(path)

    def test_name_corrupted_into_a_later_entry_raises(self, blob, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_mutate(blob, [(20, ord("2"))]))  # conv1.weight -> conv2.weight
        with pytest.raises(CheckpointError, match="duplicate parameter names"):
            load_checkpoint(path)

    def test_cli_probe_prints_one_error_line_and_returns_2(self, blob, tmp_path, capsys):
        synth.generate_dataset_files(tmp_path / "data", 4, 4, 3, 8, 8, seed=1)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_mutate(blob, [(self.FIRST_EXTENT_TOP, 142)]))
        argv = ["probe", "--checkpoint", str(path), "--data", str(tmp_path / "data")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sadtlab: error: truncated checkpoint {path}: ")
        assert captured.err.count("\n") == 1

    @FUZZ
    @given(mutations=_mutations(200))
    def test_mutated_bytes_load_or_raise_checkpoint_error(self, blob, tmp_path, mutations):
        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(_mutate(blob, mutations))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


class TestCorruptIdxHeader:
    @pytest.fixture
    def files(self, tmp_path):
        paths = synth.generate_dataset_files(tmp_path / "data", 6, 2, 3, 8, 8, seed=1)
        return {"images": Path(paths["train_images"]), "labels": Path(paths["train_labels"])}

    @FUZZ
    @given(corrupt=st.one_of(  # the header is magic + 3 dims, or magic + 1 dim
        _mutations(16).map(lambda m: ("images", m)), _mutations(8).map(lambda m: ("labels", m)),
    ))
    def test_mutated_header_loads_or_raises_data_format_error(self, files, tmp_path, corrupt):
        which, mutations = corrupt
        path = tmp_path / "fuzz"
        path.write_bytes(_mutate(files[which].read_bytes(), mutations))
        files = {**files, which: path}
        try:
            load_idx(files["images"], files["labels"], num_classes=3)
        except DataFormatError:
            pass


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


class TestLabelRange:
    def _idx_with_label(self, root, label: int) -> dict[str, str]:
        paths = synth.generate_dataset_files(root, 6, 2, 3, 8, 8, seed=1)
        blob = bytearray(Path(paths["train_labels"]).read_bytes())
        blob[8 + 4] = label  # the fifth label, after the 8-byte header
        Path(paths["train_labels"]).write_bytes(bytes(blob))
        return paths

    def test_idx_label_outside_num_classes(self, tmp_path):
        paths = self._idx_with_label(tmp_path, 200)
        with pytest.raises(DataFormatError, match=r"train-labels-idx1-ubyte: label 200 outside \[0, 3\)"):
            load_idx(paths["train_images"], paths["train_labels"], num_classes=3)
        # without num_classes the class count is inferred from the labels
        assert load_idx(paths["train_images"], paths["train_labels"]).num_classes == 201

    def test_cifar_label_outside_num_classes(self, tmp_path):
        record = np.zeros(CIFAR_RECORD_BYTES, np.uint8)
        record[0] = 200
        path = tmp_path / "bad.bin"
        path.write_bytes(record.tobytes())
        with pytest.raises(DataFormatError, match=r"bad.bin: label 200 outside \[0, 10\)"):
            load_cifar_binary([path])
        record[0] = 9
        path.write_bytes(record.tobytes())
        assert load_cifar_binary([path]).labels.tolist() == [9]

    def test_cli_train_prints_one_error_line_and_returns_2(self, tmp_path, capsys):
        paths = self._idx_with_label(tmp_path / "data", 200)
        config = tmp_path / "bad.ini"
        config.write_text(
            "[data]\n"
            + "".join(f"{key} = {path}\n" for key, path in paths.items())
            + "train_size = 6\ntest_size = 2\nnum_classes = 3\n"
            + f"[train]\nepochs = 1\nbatch_size = 2\n[output]\ndir = {tmp_path / 'run'}\n"
        )
        assert cli.main(["train", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"sadtlab: error: {paths['train_labels']}: label 200 outside [0, 3)\n"
        )


@pytest.mark.parametrize("labels", [[0, 256], [-1, 3], [1000]], ids=["256", "negative", "1000"])
def test_label_writer_rejects_labels_a_byte_cannot_hold(tmp_path, labels):
    path = tmp_path / "labels-idx1-ubyte"
    with pytest.raises(ValueError, match="labels must lie in 0..255"):
        write_idx_labels(path, np.array(labels))
    assert not path.exists()


@pytest.mark.parametrize("classes", [0, 257])
def test_synthetic_digits_reject_class_counts_a_byte_cannot_hold(classes):
    with pytest.raises(ValueError, match=f"num_classes must be in 1..256, got {classes}"):
        synth.make_synthetic_digits(4, classes, 8, 8)


@pytest.mark.parametrize("train_n, test_n, message", [
    (-1, 4, "train_n must be >= 0, got -1"),
    (4, -2, "test_n must be >= 0, got -2"),
], ids=["train-n", "test-n"])
def test_synthetic_files_reject_negative_counts_before_writing(tmp_path, train_n, test_n, message):
    out = tmp_path / "data"
    with pytest.raises(ValueError, match=message):
        synth.generate_dataset_files(out, train_n, test_n, 3, 8, 8)
    assert not out.exists()
