import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadtlab.autodiff import Tape, Tensor, backward
from sadtlab.nn import ParamSet, build_simple_cnn, build_tiny_mlp
from sadtlab.optim import (
    AdamState,
    AlignmentError,
    GradSet,
    NoiseError,
    Schedule,
    adam_step,
    adaptive_gradient_clip,
    add_noise,
    aggregate_gradients,
    cosine_lr,
    gradient_centralize,
    noise_targets,
    subtract_noise,
    _unit_axes,
)

from conftest import zero_grads


def random_gradset(params: ParamSet, seed: int, scale: float = 1.0) -> GradSet:
    gen = np.random.default_rng(seed)
    return GradSet({e.name: gen.normal(scale=scale, size=e.tensor.shape) for e in params})


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        sched = Schedule(total_steps=100, initial_lr=0.0001)
        assert cosine_lr(sched, 0) == 0.0001
        assert cosine_lr(sched, 100) == pytest.approx(0.0, abs=1e-20)
        assert cosine_lr(sched, 50) == pytest.approx(0.00005, abs=1e-18)

    def test_step_beyond_total_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(Schedule(10), 11)
        with pytest.raises(ValueError):
            cosine_lr(Schedule(10), -1)

    def test_monotone_non_increasing(self):
        sched = Schedule(total_steps=137, initial_lr=0.0001)
        values = [cosine_lr(sched, t) for t in range(138)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 0.0001 for v in values)


class TestAdamStep:
    def test_zero_grads_leave_params_and_advance_t(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        state = AdamState(model.params)
        before = model.params.snapshot()
        adam_step(model.params, zero_grads(model.params), state, lr=0.01)
        assert state.t == 1
        for e in model.params:
            assert np.array_equal(e.tensor.data, before[e.name])

    def test_first_step_is_signed_lr(self):
        params = ParamSet.from_named_arrays([("dense1.weight", np.array([[1.0]]))])
        grads = GradSet({"dense1.weight": np.array([[0.5]])})
        adam_step(params, grads, AdamState(params), lr=0.01)
        delta = params.get("dense1.weight").data[0, 0] - 1.0
        assert delta == pytest.approx(-0.01, abs=1e-9)

    def test_two_runs_bitwise_identical(self):
        results = []
        for _ in range(2):
            model = build_tiny_mlp(3, [4], 2, seed=0)
            state = AdamState(model.params)
            for i in range(5):
                adam_step(model.params, random_gradset(model.params, i), state, lr=0.01)
            results.append(model.params.snapshot())
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])

    def test_misaligned_gradset_rejected(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        other = build_tiny_mlp(3, [5], 2, seed=0)
        with pytest.raises(AlignmentError):
            adam_step(model.params, zero_grads(other.params), AdamState(model.params), 0.01)


class TestGradientCentralize:
    def test_dense_row_subtracts_mean(self):
        # dense weights are (in, out): per output unit means over inputs
        params = ParamSet.from_named_arrays([("dense1.weight", np.zeros((3, 1)))])
        grads = GradSet({"dense1.weight": np.array([[1.0], [2.0], [3.0]])})
        out = gradient_centralize(grads)
        assert np.array_equal(out.get("dense1.weight"), [[-1.0], [0.0], [1.0]])

    def test_constant_slice_becomes_zero(self):
        grads = GradSet({"conv1.weight": np.full((2, 3, 3, 3), 7.0)})
        out = gradient_centralize(grads)
        assert np.array_equal(out.get("conv1.weight"), np.zeros((2, 3, 3, 3)))

    def test_bias_untouched(self):
        bias = np.array([1.0, 2.0, 4.0])
        grads = GradSet({"conv1.bias": bias.copy()})
        out = gradient_centralize(grads)
        assert np.array_equal(out.get("conv1.bias"), bias)

    def test_exactly_zero_mean_is_fixed_point(self):
        arr = np.array([[-1.0], [0.0], [1.0]])
        grads = GradSet({"dense1.weight": arr.copy()})
        out = gradient_centralize(grads)
        assert np.array_equal(out.get("dense1.weight"), arr)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_centralized_slices_have_tiny_means(self, seed):
        model = build_simple_cnn((1, 8, 8), 3, seed=seed % 11)
        out = gradient_centralize(random_gradset(model.params, seed))
        for name, arr in out.items():
            kind = model.params.entry(name).kind
            if kind == "conv":
                means = arr.mean(axis=(1, 2, 3))
            elif kind == "dense":
                means = arr.mean(axis=0)
            else:
                continue
            assert np.max(np.abs(means)) < 1e-12, name

    @pytest.mark.parametrize("model", [
        build_simple_cnn((1, 8, 8), 3, seed=0), build_tiny_mlp(5, [4, 3], 2, seed=0),
    ], ids=["simple_cnn", "tiny_mlp"])
    def test_each_entry_unit_is_the_one_its_kind_implies(self, model):
        # gc and agc pick a unit by shape; for every entry these models build,
        # that is the unit its kind names, so both act as when they read kinds
        implied = {"conv": (1, 2, 3), "dense": (0,), "bias": None}
        for e in model.params:
            assert _unit_axes(e.tensor.data) == implied[e.kind], e.name


class TestAdaptiveGradientClip:
    def test_unit_norm_clipped_to_lambda(self):
        params = ParamSet.from_named_arrays([("dense1.weight", np.array([[0.6], [0.8]]))])
        grads = GradSet({"dense1.weight": np.array([[0.6], [0.8]])})
        out = adaptive_gradient_clip(params, grads, lam=0.01)
        norm = np.linalg.norm(out.get("dense1.weight"))
        assert norm == pytest.approx(0.01, abs=1e-12)

    def test_inside_bound_unchanged(self):
        params = ParamSet.from_named_arrays([("dense1.weight", np.array([[3.0], [4.0]]))])
        g = np.array([[0.003], [0.004]])
        grads = GradSet({"dense1.weight": g.copy()})
        out = adaptive_gradient_clip(params, grads, lam=0.01)
        assert np.array_equal(out.get("dense1.weight"), g)

    def test_zero_gradient_passes_through(self):
        params = ParamSet.from_named_arrays([("dense1.weight", np.array([[1.0], [1.0]]))])
        grads = GradSet({"dense1.weight": np.zeros((2, 1))})
        out = adaptive_gradient_clip(params, grads, lam=0.01)
        assert np.array_equal(out.get("dense1.weight"), np.zeros((2, 1)))

    def test_tiny_weight_norm_floored(self):
        params = ParamSet.from_named_arrays([("dense1.weight", np.array([[1e-9]]))])
        grads = GradSet({"dense1.weight": np.array([[1.0]])})
        out = adaptive_gradient_clip(params, grads, lam=0.01)
        # bound = lam * max(||w||, 1e-3) = 1e-5
        assert out.get("dense1.weight")[0, 0] == pytest.approx(1e-5, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -0.01, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_ratio_is_rejected(self, lam):
        params = ParamSet.from_named_arrays([("dense1.weight", np.ones((2, 1)))])
        grads = GradSet({"dense1.weight": np.ones((2, 1))})
        with pytest.raises(ValueError, match=f"clip ratio must be positive and finite, got {lam}"):
            adaptive_gradient_clip(params, grads, lam)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_post_clip_bound_holds_everywhere(self, seed):
        model = build_simple_cnn((1, 8, 8), 3, seed=seed % 7)
        lam = 0.01
        out = adaptive_gradient_clip(model.params, random_gradset(model.params, seed, 5.0), lam)
        from sadtlab.optim import _unit_norms, AGC_EPS

        for e, (name, arr) in zip(model.params, out.items()):
            bound = lam * np.maximum(_unit_norms(e.tensor.data), AGC_EPS)
            assert np.all(_unit_norms(arr) <= bound + 1e-12), name


def drawn_noise(params, sigma, layer_filter, seed):
    """A teacher's shift: N(0, sigma^2) per entry the filter selects, in entry order."""
    gen = np.random.default_rng(seed)
    targets = noise_targets(params, layer_filter)
    return {n: gen.normal(0.0, sigma, size=a.shape) for n, a in targets.items()}


class TestNoise:
    # a negative sigma is rejected by the strategy that draws the noise
    # (test_strategies.py, TestStrategyDispatch: sigma_w, sigma_g < 0)

    def test_sigma_zero_leaves_target_and_records_zeros(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        before = model.params.snapshot()
        record = add_noise(model.params, drawn_noise(model.params, 0.0, "all", 0))
        for e in model.params:
            assert np.array_equal(e.tensor.data, before[e.name])
        for name in record.shifts:
            assert np.array_equal(record.shifts[name], np.zeros_like(before[name]))

    def test_add_then_subtract_restores_bitwise(self):
        model = build_simple_cnn((1, 8, 8), 3, seed=1)
        before = model.params.snapshot()
        record = add_noise(model.params, drawn_noise(model.params, 0.0001, "all", 5))
        changed = any(
            not np.array_equal(e.tensor.data, before[e.name]) for e in model.params
        )
        assert changed
        subtract_noise(model.params, record)
        for e in model.params:
            assert np.array_equal(e.tensor.data, before[e.name])

    @given(seed=st.integers(0, 10_000),
           sigma=st.floats(0.0, 10.0, allow_nan=False),
           layer_filter=st.sampled_from(["all", "last-conv", "last-dense"]))
    @settings(max_examples=60, deadline=None)
    def test_restore_property_over_sigmas_and_filters(self, seed, sigma, layer_filter):
        model = build_simple_cnn((1, 8, 8), 3, seed=seed % 5)
        before = model.params.snapshot()
        record = add_noise(model.params, drawn_noise(model.params, sigma, layer_filter, seed))
        subtract_noise(model.params, record)
        for e in model.params:
            assert np.array_equal(e.tensor.data, before[e.name])

    def test_last_dense_filter_touches_only_dense3(self):
        model = build_simple_cnn((1, 8, 8), 3, seed=0)
        assert list(noise_targets(model.params, "last-dense")) == ["dense3.weight", "dense3.bias"]
        record = add_noise(model.params, drawn_noise(model.params, 0.0001, "last-dense", 0))
        assert list(record.shifts) == ["dense3.weight", "dense3.bias"]

    def test_last_conv_filter_touches_only_conv3(self):
        model = build_simple_cnn((1, 8, 8), 3, seed=0)
        assert list(noise_targets(model.params, "last-conv")) == ["conv3.weight", "conv3.bias"]
        record = add_noise(model.params, drawn_noise(model.params, 0.0001, "last-conv", 0))
        assert list(record.shifts) == ["conv3.weight", "conv3.bias"]

    def test_wrong_model_rejected(self):
        a = build_tiny_mlp(3, [4], 2, seed=0)
        b = build_tiny_mlp(3, [4], 2, seed=1)
        record = add_noise(a.params, drawn_noise(a.params, 0.0001, "all", 0))
        with pytest.raises(NoiseError):
            subtract_noise(b.params, record)

    def test_double_subtract_rejected(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        record = add_noise(model.params, drawn_noise(model.params, 0.0001, "all", 0))
        subtract_noise(model.params, record)
        with pytest.raises(NoiseError, match="single-use"):
            subtract_noise(model.params, record)

    def test_empty_filter_selection_rejected(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)  # no conv layers
        with pytest.raises(NoiseError):
            noise_targets(model.params, "last-conv")

    def test_param_filter_on_gradset_rejected(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        grads = zero_grads(model.params)
        with pytest.raises(NoiseError):
            noise_targets(grads, "all")
        with pytest.raises(NoiseError):
            add_noise(grads, drawn_noise(model.params, 0.0001, "all", 0))


class TestShiftParams:
    """The record every teacher uses, here with a gradient-style shift: every
    entry moves by 0.001 * (g + noise)."""

    @staticmethod
    def ascent_shifts(params, seed):
        gen = np.random.default_rng(seed)
        grads = random_gradset(params, seed)
        return {n: 0.001 * (g + gen.normal(0.0, 0.01, size=g.shape)) for n, g in grads.items()}

    def test_shift_then_subtract_restores_bitwise(self):
        model = build_simple_cnn((1, 8, 8), 3, seed=2)
        before = model.params.snapshot()
        shifts = self.ascent_shifts(model.params, 3)
        record = add_noise(model.params, shifts)
        assert list(record.shifts) == model.params.names()
        for e in model.params:
            assert np.array_equal(e.tensor.data, before[e.name] + shifts[e.name])
        subtract_noise(model.params, record)
        for e in model.params:
            assert np.array_equal(e.tensor.data, before[e.name])

    def test_params_changed_between_shift_and_removal_rejected(self):
        model = build_simple_cnn((1, 8, 8), 3, seed=2)
        record = add_noise(model.params, self.ascent_shifts(model.params, 3))
        adam_step(model.params, random_gradset(model.params, 4), AdamState(model.params), 1e-3)
        moved = model.params.snapshot()
        with pytest.raises(NoiseError, match="not in the state"):
            subtract_noise(model.params, record)
        for e in model.params:  # the failed removal changed nothing
            assert np.array_equal(e.tensor.data, moved[e.name])
        assert not record.consumed

    def test_one_changed_element_rejected(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        record = add_noise(model.params, self.ascent_shifts(model.params, 1))
        model.params.get("dense2.bias").data[0] += 1e-12
        with pytest.raises(NoiseError):
            subtract_noise(model.params, record)

    def test_unknown_name_rejected_before_anything_moves(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        before = model.params.snapshot()
        shifts = self.ascent_shifts(model.params, 1)
        shifts["dense9.weight"] = np.ones((4, 2))
        with pytest.raises(NoiseError, match="dense9.weight"):
            add_noise(model.params, shifts)
        for e in model.params:
            assert np.array_equal(e.tensor.data, before[e.name])

    def test_shape_mismatch_rejected_before_anything_moves(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        before = model.params.snapshot()
        shifts = self.ascent_shifts(model.params, 1)
        shifts["dense2.bias"] = np.ones(3)  # the bias has 2 entries
        with pytest.raises(NoiseError, match="dense2.bias"):
            add_noise(model.params, shifts)
        for e in model.params:
            assert np.array_equal(e.tensor.data, before[e.name])

    def test_gradset_target_rejected(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        grads = zero_grads(model.params)
        with pytest.raises(NoiseError):
            add_noise(grads, self.ascent_shifts(model.params, 1))


class TestAggregateGradients:
    def test_additive_identity(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        g = random_gradset(model.params, 0)
        out = aggregate_gradients([g, zero_grads(model.params)])
        for name, arr in out.items():
            assert np.array_equal(arr, g.get(name))

    def test_double_counts(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        g = random_gradset(model.params, 0)
        out = aggregate_gradients([g, g])
        for name, arr in out.items():
            assert np.array_equal(arr, 2.0 * g.get(name))

    def test_three_way_sum_matches_scalar_oracle(self):
        model = build_tiny_mlp(2, [3], 2, seed=0)
        parts = [random_gradset(model.params, s) for s in (1, 2, 3)]
        out = aggregate_gradients(parts)
        for name, arr in out.items():
            flats = [p.get(name).ravel() for p in parts]
            for i in range(arr.size):
                expected = flats[0][i] + flats[1][i] + flats[2][i]
                assert arr.ravel()[i] == expected

    def test_fixed_order_is_bitwise_deterministic(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        parts = [random_gradset(model.params, s) for s in (1, 2, 3)]
        a = aggregate_gradients(parts)
        b = aggregate_gradients(parts)
        for (n1, a1), a2 in zip(a.items(), b.values()):
            assert np.array_equal(a1, a2), n1

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_gradients([])

    def test_misaligned_parts_rejected(self):
        a = build_tiny_mlp(3, [4], 2, seed=0)
        b = build_tiny_mlp(3, [5], 2, seed=0)
        with pytest.raises(AlignmentError):
            aggregate_gradients([zero_grads(a.params), zero_grads(b.params)])


class TestGradSet:
    def test_global_norm_matches_flat_norm(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        g = random_gradset(model.params, 3)
        flat = np.concatenate([arr.ravel() for arr in g.values()])
        assert g.global_norm() == pytest.approx(float(np.linalg.norm(flat)), rel=1e-12)

    def test_from_backward_alignment(self):
        model = build_tiny_mlp(3, [4], 2, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        with Tape():
            loss = model.forward(x).sum()
        g = GradSet.from_backward(model.params, backward(loss))
        g.check_aligned(model.params)
        assert list(g) == model.params.names()
