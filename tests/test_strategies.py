import numpy as np
import pytest

from sadtlab.data import MixedBatch, cutmix
from sadtlab.nn import build_simple_cnn, build_tiny_mlp
from sadtlab.optim import AdamState, adam_step, gradient_centralize
from sadtlab.strategies import (
    STRATEGY_IDS,
    NonFiniteLossError,
    StepTrace,
    Strategy,
    _task_pass,
)


def small_cnn(seed=0, classes=3):
    return build_simple_cnn((1, 8, 8), classes, seed=seed)


def small_batch(seed=0, n=6, classes=3, shape=(1, 8, 8)):
    gen = np.random.default_rng(seed)
    images = gen.uniform(0.0, 1.0, (n, *shape))
    labels = gen.integers(0, classes, n)
    return MixedBatch.plain(images, labels)


def mlp_and_batch(seed=0):
    model = build_tiny_mlp(4, [8], 3, seed=seed)
    gen = np.random.default_rng(seed + 100)
    images = gen.uniform(-1.0, 1.0, (6, 4))
    labels = gen.integers(0, 3, 6)
    return model, MixedBatch.plain(images, labels)


def snapshots_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestDegenerateNoOp:
    @pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
    def test_lr_zero_and_zero_noise_leave_params_bitwise(self, strategy_id):
        model = small_cnn(seed=2)
        before = model.params.snapshot()
        strat = Strategy(strategy_id, sigma_w=0.0, sigma_g=0.0, ascent_lr=0.0)
        state = AdamState(model.params)
        batch = small_batch(seed=3)
        for step in range(10):
            strat.step(model, batch, state, lr=0.0, noise_seed=np.random.SeedSequence(step))
        assert snapshots_equal(model.params.snapshot(), before)


class TestBaseline:
    def test_lr_zero_leaves_params(self):
        model, batch = mlp_and_batch()
        before = model.params.snapshot()
        Strategy("baseline").step(model, batch, AdamState(model.params), lr=0.0)
        assert snapshots_equal(model.params.snapshot(), before)

    def test_fixed_seed_identical_reports(self):
        reports = []
        for _ in range(2):
            model, batch = mlp_and_batch(seed=5)
            report = Strategy("baseline").step(model, batch, AdamState(model.params), lr=0.001)
            reports.append(report)
        a, b = reports
        assert (a.task_loss, a.kl_loss, a.lr, a.grad_norm, a.flags) == (
            b.task_loss, b.kl_loss, b.lr, b.grad_norm, b.flags
        )

    def test_descent_on_separable_toy_set(self):
        # two well-separated clusters; 200 steps of mixed-label descent
        model = build_tiny_mlp(2, [8], 2, seed=1)
        images = np.array([[2.0, 2.0], [-2.0, -2.0]])
        labels = np.array([0, 1])
        batch = MixedBatch.plain(images, labels)
        state = AdamState(model.params)
        strat = Strategy("baseline")
        first = strat.step(model, batch, state, lr=0.01).task_loss
        last = first
        for _ in range(199):
            last = strat.step(model, batch, state, lr=0.01).task_loss
        assert last < first

    def test_kl_loss_zero_in_report(self):
        model, batch = mlp_and_batch()
        report = Strategy("baseline").step(model, batch, AdamState(model.params), lr=0.001)
        assert report.kl_loss == 0.0

    def test_non_finite_loss_aborts_with_diagnostics(self):
        model, batch = mlp_and_batch()
        model.params.get("dense1.weight").data[0, 0] = np.nan
        with pytest.raises(NonFiniteLossError, match="nan"):
            Strategy("baseline").step(model, batch, AdamState(model.params), lr=0.001)


class TestGcAgc:
    def test_gc_step_equals_adam_on_centralized_grads(self):
        batch = small_batch(seed=1)
        model_a = small_cnn(seed=4)
        model_b = small_cnn(seed=4)
        Strategy("gc").step(model_a, batch, AdamState(model_a.params), lr=0.001)
        _, _, grads = _task_pass(model_b, batch)
        adam_step(model_b.params, gradient_centralize(grads), AdamState(model_b.params), 0.001)
        assert snapshots_equal(model_a.params.snapshot(), model_b.params.snapshot())

    def test_agc_huge_lambda_equals_baseline_bitwise(self):
        batch = small_batch(seed=1)
        model_a = small_cnn(seed=4)
        model_b = small_cnn(seed=4)
        Strategy("agc", agc_lambda=1e30).step(model_a, batch, AdamState(model_a.params), 0.001)
        Strategy("baseline").step(model_b, batch, AdamState(model_b.params), 0.001)
        assert snapshots_equal(model_a.params.snapshot(), model_b.params.snapshot())

    def test_gc_post_condition_inside_step(self):
        batch = small_batch(seed=1)
        model = small_cnn(seed=4)
        trace = StepTrace()
        # the gc strategy centralizes before the update; replicate and check the invariant
        _, _, grads = _task_pass(model, batch)
        out = gradient_centralize(grads)
        for name, arr, kind in out:
            if kind == "conv":
                assert np.max(np.abs(arr.mean(axis=(1, 2, 3)))) < 1e-12
            elif kind == "dense":
                assert np.max(np.abs(arr.mean(axis=0))) < 1e-12


class TestSam:
    def test_delta_norm_equals_rho(self):
        # gradient (3, 4) flattened: delta = (0.03, 0.04) at rho = 0.05
        from sadtlab.nn import ParamSet
        from sadtlab.optim import GradSet

        params = ParamSet.from_named_arrays([("dense1.weight", np.array([[1.0], [1.0]]))])
        grads = GradSet([("dense1.weight", np.array([[3.0], [4.0]]), "dense")])
        norm = grads.global_norm()
        assert norm == 5.0
        params.add_scaled(grads, 0.05 / norm)
        delta = params.get("dense1.weight").data - 1.0
        assert np.allclose(delta.ravel(), [0.03, 0.04], rtol=0, atol=1e-15)
        assert np.linalg.norm(delta) == pytest.approx(0.05, abs=1e-9)

    def test_sam_perturbation_norm_in_step(self):
        model = small_cnn(seed=6)
        batch = small_batch(seed=7)
        trace = StepTrace()
        Strategy("sam", rho=0.05).step(model, batch, AdamState(model.params), lr=0.001, trace=trace)
        w = trace.marks["w"]
        pert = trace.marks["perturbed"]
        delta = np.concatenate([(pert[k] - w[k]).ravel() for k in w])
        assert np.linalg.norm(delta) == pytest.approx(0.05, abs=1e-9)

    def test_restore_is_exact_before_descent(self):
        model = small_cnn(seed=6)
        batch = small_batch(seed=7)
        trace = StepTrace()
        Strategy("sam", rho=0.05).step(model, batch, AdamState(model.params), lr=0.001, trace=trace)
        assert snapshots_equal(trace.marks["w"], trace.marks["restored"])

    def test_tiny_rho_converges_to_baseline(self):
        model_a = small_cnn(seed=6)
        model_b = small_cnn(seed=6)
        batch = small_batch(seed=7)
        before = model_a.params.snapshot()
        Strategy("sam", rho=1e-12).step(model_a, batch, AdamState(model_a.params), lr=0.001)
        Strategy("baseline").step(model_b, batch, AdamState(model_b.params), lr=0.001)
        diff = np.concatenate(
            [
                (model_a.params.get(k).data - model_b.params.get(k).data).ravel()
                for k in model_a.params.names()
            ]
        )
        assert np.linalg.norm(diff) < 1e-9
        moved = np.concatenate(
            [(model_a.params.get(k).data - before[k]).ravel() for k in before]
        )
        assert np.linalg.norm(moved) > 0.0

    def test_zero_gradient_flagged_and_degenerates_to_baseline(self):
        model = build_tiny_mlp(2, [], 2, seed=0)
        # symmetric logits for every sample: uniform targets at lam 0.5 with
        # mirrored labels give an exactly-zero gradient only in contrived
        # cases, so zero the inputs and weights instead
        model.params.get("dense1.weight").data[...] = 0.0
        images = np.zeros((2, 2))
        labels = np.array([0, 1])
        batch = MixedBatch(images, labels, labels[::-1].copy(), 0.5)
        report = Strategy("sam", rho=0.05).step(model, batch, AdamState(model.params), lr=0.001)
        assert report.flags == ("zero-gradient",)

    def test_rho_must_be_positive(self):
        model, batch = mlp_and_batch()
        with pytest.raises(ValueError):
            Strategy("sam", rho=0.0).step(model, batch, AdamState(model.params), lr=0.001)


class TestSadtV1:
    def test_fully_degenerate_step(self):
        model = small_cnn(seed=8)
        batch = small_batch(seed=9)
        before = model.params.snapshot()
        trace = StepTrace()
        report = Strategy("sadt_v1", sigma_w=0.0).step(
            model, batch, AdamState(model.params), lr=0.0,
            noise_seed=np.random.SeedSequence(0), trace=trace,
        )
        assert snapshots_equal(model.params.snapshot(), before)
        assert snapshots_equal(trace.marks["w_up"], before)  # w_up == w at lr 0
        assert report.kl_loss == 0.0

    def test_sigma_zero_lr_positive_kl_nonnegative(self):
        model, batch = mlp_and_batch(seed=2)
        report = Strategy("sadt_v1", sigma_w=0.0).step(
            model, batch, AdamState(model.params), lr=0.01,
            noise_seed=np.random.SeedSequence(0),
        )
        assert np.isfinite(report.kl_loss)
        assert report.kl_loss >= 0.0

    def test_noise_rollback_restores_w_up_bitwise(self):
        model = small_cnn(seed=8)
        batch = small_batch(seed=9)
        trace = StepTrace()
        Strategy("sadt_v1", sigma_w=0.0001).step(
            model, batch, AdamState(model.params), lr=0.0001,
            noise_seed=np.random.SeedSequence(3), trace=trace,
        )
        assert not snapshots_equal(trace.marks["w_up"], trace.marks["aux_0"])
        assert snapshots_equal(trace.marks["w_up"], trace.marks["rollback_0"])

    def test_noise_touches_every_entry(self):
        model = small_cnn(seed=8)
        batch = small_batch(seed=9)
        trace = StepTrace()
        Strategy("sadt_v1", sigma_w=0.0001).step(
            model, batch, AdamState(model.params), lr=0.0001,
            noise_seed=np.random.SeedSequence(3), trace=trace,
        )
        assert trace.records[0].names() == model.params.names()

    def test_trajectory_determinism(self):
        finals = []
        for _ in range(2):
            model, batch = mlp_and_batch(seed=4)
            state = AdamState(model.params)
            for step in range(5):
                Strategy("sadt_v1", sigma_w=0.0001).step(
                    model, batch, state, lr=0.001, noise_seed=np.random.SeedSequence(step),
                )
            finals.append(model.params.snapshot())
        assert snapshots_equal(finals[0], finals[1])

    def test_rollback_to_w_applies_final_update_at_w(self):
        model, batch = mlp_and_batch(seed=4)
        w0 = model.params.snapshot()
        trace = StepTrace()
        state = AdamState(model.params)
        Strategy("sadt_v1", sigma_w=0.0001, rollback_to_w=True).step(
            model, batch, state, lr=0.01, noise_seed=np.random.SeedSequence(1), trace=trace,
        )
        # reconstruct: one persistent Adam step at w with the traced gradient
        expected = build_tiny_mlp(4, [8], 3, seed=4)
        expected.params.restore(w0)
        adam_step(expected.params, trace.final_grads, AdamState(expected.params), 0.01)
        assert snapshots_equal(model.params.snapshot(), expected.params.snapshot())

    def test_persistent_state_advances_once_per_step(self):
        model, batch = mlp_and_batch(seed=4)
        state = AdamState(model.params)
        Strategy("sadt_v1", sigma_w=0.0001).step(
            model, batch, state, lr=0.001, noise_seed=np.random.SeedSequence(0)
        )
        assert state.t == 1


class TestSadtV2:
    def test_records_touch_last_conv_then_last_dense(self):
        model = small_cnn(seed=10)
        batch = small_batch(seed=11)
        trace = StepTrace()
        Strategy("sadt_v2", sigma_w=0.0001).step(
            model, batch, AdamState(model.params), 0.0001,
            noise_seed=np.random.SeedSequence(0), trace=trace,
        )
        assert trace.records[0].names() == ["conv3.weight", "conv3.bias"]
        assert trace.records[1].names() == ["dense3.weight", "dense3.bias"]

    def test_both_rollbacks_restore_w_up_bitwise(self):
        model = small_cnn(seed=10)
        batch = small_batch(seed=11)
        trace = StepTrace()
        Strategy("sadt_v2", sigma_w=0.0001).step(
            model, batch, AdamState(model.params), 0.0001,
            noise_seed=np.random.SeedSequence(0), trace=trace,
        )
        assert snapshots_equal(trace.marks["w_up"], trace.marks["rollback_0"])
        assert snapshots_equal(trace.marks["w_up"], trace.marks["rollback_1"])

    def test_mlp_without_conv_rejected(self):
        model, batch = mlp_and_batch()
        with pytest.raises(ValueError, match="conv"):
            Strategy("sadt_v2").step(
                model, batch, AdamState(model.params), 0.001,
                noise_seed=np.random.SeedSequence(0),
            )

    def test_kl_loss_sums_both_teachers_and_is_nonnegative(self):
        model = small_cnn(seed=10)
        batch = small_batch(seed=11)
        report = Strategy("sadt_v2", sigma_w=0.01).step(
            model, batch, AdamState(model.params), 0.0001,
            noise_seed=np.random.SeedSequence(1),
        )
        assert report.kl_loss >= 0.0


class TestSadtV3:
    def test_ascent_point_matches_sam_perturbation(self):
        # sigma_g = 0 and ascent_lr = rho/||grad|| land exactly on the point
        # sam ascends to (lr = 0 keeps w_up == w)
        model_a, batch = mlp_and_batch(seed=12)
        model_b = build_tiny_mlp(4, [8], 3, seed=12)
        _, _, grads = _task_pass(model_b, batch)
        rho = 0.05
        ascent = rho / grads.global_norm()

        trace_sam = StepTrace()
        Strategy("sam", rho=rho).step(
            model_b, batch, AdamState(model_b.params), lr=0.0, trace=trace_sam
        )
        trace_v3 = StepTrace()
        Strategy("sadt_v3", sigma_g=0.0, ascent_lr=ascent).step(
            model_a, batch, AdamState(model_a.params), lr=0.0,
            noise_seed=np.random.SeedSequence(0), trace=trace_v3,
        )
        sam_point = trace_sam.marks["perturbed"]
        v3_point = trace_v3.marks["aux_0"]
        for name in sam_point:
            assert np.max(np.abs(sam_point[name] - v3_point[name])) < 1e-12, name

    def test_restore_after_ascent_is_bitwise(self):
        model = small_cnn(seed=13)
        batch = small_batch(seed=14)
        trace = StepTrace()
        Strategy("sadt_v3", sigma_g=0.0001, ascent_lr=0.0001).step(
            model, batch, AdamState(model.params), lr=0.0001,
            noise_seed=np.random.SeedSequence(2), trace=trace,
        )
        assert snapshots_equal(trace.marks["w_up"], trace.marks["rollback_0"])

    def test_lr_zero_ascent_zero_unchanged(self):
        model, batch = mlp_and_batch(seed=15)
        before = model.params.snapshot()
        Strategy("sadt_v3", sigma_g=0.0, ascent_lr=0.0).step(
            model, batch, AdamState(model.params), lr=0.0, noise_seed=np.random.SeedSequence(0),
        )
        assert snapshots_equal(model.params.snapshot(), before)

    def test_gradient_noise_record_covers_all_entries(self):
        model, batch = mlp_and_batch(seed=15)
        trace = StepTrace()
        Strategy("sadt_v3", sigma_g=0.01, ascent_lr=0.001).step(
            model, batch, AdamState(model.params), lr=0.001,
            noise_seed=np.random.SeedSequence(0), trace=trace,
        )
        assert trace.records[0].names() == model.params.names()

    def test_default_ascent_lr_follows_schedule(self):
        model, batch = mlp_and_batch(seed=16)
        strat = Strategy("sadt_v3", sigma_g=0.0)
        assert strat.ascent_lr is None
        report = strat.step(
            model, batch, AdamState(model.params), 0.002,
            noise_seed=np.random.SeedSequence(0),
        )
        assert report.lr == 0.002


class TestStrategyDispatch:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy("sttrategy")

    @pytest.mark.parametrize(
        "strategy_id, fields, match",
        [
            ("sam", {"rho": 0.0}, "rho"),
            ("sadt_v1", {"sigma_w": -0.1}, "sigma_w"),
            ("sadt_v2", {"sigma_w": -0.1}, "sigma_w"),
            ("sadt_v3", {"sigma_g": -0.1}, "sigma_g"),
            ("sadt_v3", {"ascent_lr": -0.1}, "ascent_lr"),
        ],
    )
    def test_bad_hyperparameters_rejected_before_any_update(self, strategy_id, fields, match):
        model = small_cnn(seed=23)
        batch = small_batch(seed=24)
        before = model.params.snapshot()
        state = AdamState(model.params)
        with pytest.raises(ValueError, match=match):
            Strategy(strategy_id, **fields).step(
                model, batch, state, 0.001, noise_seed=np.random.SeedSequence(0)
            )
        assert snapshots_equal(model.params.snapshot(), before)
        assert state.t == 0

    @pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
    def test_reports_are_finite_with_nonnegative_kl(self, strategy_id):
        model = small_cnn(seed=20)
        batch = small_batch(seed=21)
        report = Strategy(strategy_id).step(
            model, batch, AdamState(model.params), 0.0001,
            noise_seed=np.random.SeedSequence(5),
        )
        assert np.isfinite(report.task_loss)
        assert np.isfinite(report.grad_norm)
        assert report.kl_loss >= 0.0
        if strategy_id in ("baseline", "gc", "agc", "sam"):
            assert report.kl_loss == 0.0

    def test_cutmix_batch_consumable_by_all_strategies(self):
        gen = np.random.default_rng(0)
        images = gen.uniform(0, 1, (6, 1, 8, 8))
        labels = gen.integers(0, 3, 6)
        batch = cutmix(images, labels, 1.0, 42)
        for strategy_id in STRATEGY_IDS:
            model = small_cnn(seed=22)
            report = Strategy(strategy_id).step(
                model, batch, AdamState(model.params), 0.0001,
                noise_seed=np.random.SeedSequence(6),
            )
            assert np.isfinite(report.task_loss)
