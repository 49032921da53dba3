import numpy as np
import pytest

from sadtlab.autodiff import ShapeError, Tensor
from sadtlab.nn import (
    CheckpointError,
    build_simple_cnn,
    build_tiny_mlp,
    load_checkpoint,
    model_from_params,
    save_checkpoint,
)

# hand audit of the 3x32x32, 10-class instantiation:
#   conv1 32*3*9+32=896, conv2 64*32*9+64=18496, conv3 64*64*9+64=36928
#   flatten 64*4*4=1024 -> dense1 1024*256+256=262400,
#   dense2 256*128+128=32896, dense3 128*10+10=1290
SIMPLE_CNN_32_PARAMS = 896 + 18496 + 36928 + 262400 + 32896 + 1290  # = 352906


class TestBuildSimpleCnn:
    def test_parameter_count_frozen(self):
        model = build_simple_cnn((3, 32, 32), 10, seed=0)
        assert model.params.total_count() == SIMPLE_CNN_32_PARAMS == 352906

    def test_same_seed_is_bitwise_identical(self):
        a = build_simple_cnn((1, 28, 28), 10, seed=3)
        b = build_simple_cnn((1, 28, 28), 10, seed=3)
        assert a.params.names() == b.params.names()
        for ea, eb in zip(a.params, b.params):
            assert np.array_equal(ea.tensor.data, eb.tensor.data)

    def test_different_seed_differs(self):
        a = build_simple_cnn((1, 28, 28), 10, seed=3)
        b = build_simple_cnn((1, 28, 28), 10, seed=4)
        assert not np.array_equal(a.params.get("conv1.weight").data,
                                  b.params.get("conv1.weight").data)

    def test_input_too_small_for_three_pools(self):
        with pytest.raises(ShapeError, match="too small"):
            build_simple_cnn((3, 4, 4), 10, seed=0)

    def test_layer_kinds_and_last_layers(self):
        model = build_simple_cnn((1, 28, 28), 10, seed=0)
        params = model.params
        assert params.last_conv_layer() == "conv3"
        assert params.last_dense_layer() == "dense3"
        assert params.entry("conv2.weight").kind == "conv"
        assert params.entry("conv2.bias").kind == "bias"
        assert params.entry("dense1.weight").kind == "dense"
        # frozen layer list, the reference for noise-filter audits
        assert params.names() == [
            "conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias",
            "conv3.weight", "conv3.bias", "dense1.weight", "dense1.bias",
            "dense2.weight", "dense2.bias", "dense3.weight", "dense3.bias",
        ]


class TestBuildTinyMlp:
    def test_parameter_count_formula(self):
        model = build_tiny_mlp(4, [8], 3, seed=0)
        assert model.params.total_count() == 4 * 8 + 8 + 8 * 3 + 3 == 67

    def test_empty_hidden_dims_single_linear(self):
        model = build_tiny_mlp(6, [], 4, seed=0)
        assert model.params.names() == ["dense1.weight", "dense1.bias"]
        assert model.params.get("dense1.weight").shape == (6, 4)

    def test_same_seed_identical(self):
        a = build_tiny_mlp(5, [7, 7], 2, seed=9)
        b = build_tiny_mlp(5, [7, 7], 2, seed=9)
        for ea, eb in zip(a.params, b.params):
            assert np.array_equal(ea.tensor.data, eb.tensor.data)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError):
            build_tiny_mlp(4, [0], 3, seed=0)


class TestForwardLogits:
    def test_zero_final_dense_gives_zero_logits(self, rng):
        model = build_simple_cnn((1, 8, 8), 5, seed=0)
        model.params.get("dense3.weight").data[...] = 0.0
        model.params.get("dense3.bias").data[...] = 0.0
        logits = model.forward(Tensor(rng.uniform(0, 1, (2, 1, 8, 8))))
        assert np.array_equal(logits.data, np.zeros((2, 5)))

    def test_fixed_seed_fixed_input_bitwise_identical(self, rng):
        model = build_simple_cnn((1, 8, 8), 5, seed=1)
        x = Tensor(rng.uniform(0, 1, (3, 1, 8, 8)))
        a = model.forward(x).data
        b = model.forward(x).data
        assert np.array_equal(a, b)

    def test_batch_independence(self, rng):
        model = build_simple_cnn((1, 8, 8), 5, seed=1)
        batch = rng.uniform(0, 1, (4, 1, 8, 8))
        full = model.forward(Tensor(batch)).data
        single = model.forward(Tensor(batch[2:3])).data
        assert np.max(np.abs(full[2] - single[0])) < 1e-12

    def test_shape_mismatch_rejected(self, rng):
        model = build_simple_cnn((1, 8, 8), 5, seed=1)
        with pytest.raises(ShapeError):
            model.forward(Tensor(rng.uniform(0, 1, (2, 3, 8, 8))))

    def test_batch_permutation_equivariance(self, rng):
        model = build_simple_cnn((1, 8, 8), 5, seed=2)
        batch = rng.uniform(0, 1, (6, 1, 8, 8))
        perm = rng.permutation(6)
        out = model.forward(Tensor(batch)).data
        out_perm = model.forward(Tensor(batch[perm])).data
        assert np.allclose(out[perm], out_perm, rtol=0, atol=1e-12)

    def test_mlp_accepts_flat_and_image_batches(self, rng):
        model = build_tiny_mlp(16, [8], 3, seed=0)
        flat = rng.normal(size=(2, 16))
        images = flat.reshape(2, 1, 4, 4)
        a = model.forward(Tensor(flat)).data
        b = model.forward(Tensor(images)).data
        assert np.array_equal(a, b)


class TestCheckpointRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        model = build_simple_cnn((1, 8, 8), 4, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model.params, path)
        loaded = load_checkpoint(path)
        assert loaded.names() == model.params.names()
        for ea, eb in zip(model.params, loaded):
            assert ea.kind == eb.kind
            assert np.array_equal(ea.tensor.data, eb.tensor.data)

    def test_header_layout(self, tmp_path):
        model = build_tiny_mlp(2, [], 2, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.params, path)
        blob = path.read_bytes()
        assert blob[:8] == b"SADTCKPT"
        assert int.from_bytes(blob[8:12], "little") == 1
        name_len = int.from_bytes(blob[12:16], "little")
        assert blob[16 : 16 + name_len].decode() == "dense1.weight"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        model = build_tiny_mlp(2, [], 2, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.params, path)
        (tmp_path / "cut.ckpt").write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_model_from_params_reproduces_forward(self, tmp_path, rng):
        model = build_simple_cnn((1, 8, 8), 4, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model.params, path)
        rebuilt = model_from_params(load_checkpoint(path), input_shape=(1, 8, 8))
        x = Tensor(rng.uniform(0, 1, (2, 1, 8, 8)))
        assert np.array_equal(model.forward(x).data, rebuilt.forward(x).data)

    def test_model_from_params_mlp_infers_shape(self, rng):
        model = build_tiny_mlp(6, [4], 2, seed=1)
        rebuilt = model_from_params(model.params.clone())
        x = Tensor(rng.normal(size=(3, 6)))
        assert np.array_equal(model.forward(x).data, rebuilt.forward(x).data)


class TestParamSet:
    def test_clone_is_independent(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        dup = model.params.clone()
        dup.get("dense1.weight").data[...] = 0.0
        assert not np.array_equal(
            model.params.get("dense1.weight").data, dup.get("dense1.weight").data
        )

    def test_snapshot_restore_roundtrip(self, rng):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        snap = model.params.snapshot()
        for e in model.params:
            e.tensor.data += rng.normal(size=e.tensor.shape)
        model.params.restore(snap)
        for e in model.params:
            assert np.array_equal(e.tensor.data, snap[e.name])

    def test_duplicate_names_rejected(self):
        from sadtlab.nn import ParamSet

        with pytest.raises(ValueError, match="duplicate"):
            ParamSet.from_named_arrays(
                [("a.weight", np.zeros(2)), ("a.weight", np.zeros(2))]
            )
