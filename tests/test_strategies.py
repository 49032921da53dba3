import contextlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import sadtlab.nn
from sadtlab import autodiff, strategies
from sadtlab.autodiff import Tensor
from sadtlab.data import MixedBatch, cutmix
from sadtlab.nn import build_simple_cnn, build_tiny_mlp
from sadtlab.optim import AdamState, GradSet, NoiseRecord, adam_step, gradient_centralize
from sadtlab.strategies import (
    PRESETS,
    STRATEGY_IDS,
    NonFiniteLossError,
    Strategy,
    _grad_pass,
    mixed_cross_entropy,
)


def small_cnn(seed=0, classes=3):
    return build_simple_cnn((1, 8, 8), classes, seed=seed)


def small_batch(seed=0, n=6, classes=3, shape=(1, 8, 8)):
    gen = np.random.default_rng(seed)
    images = gen.uniform(0.0, 1.0, (n, *shape))
    labels = gen.integers(0, classes, n)
    return MixedBatch.plain(images, labels)


def task_grads(model, batch):
    """The task gradient at the model's weights, as the step's first pass takes it."""
    task = lambda z: mixed_cross_entropy(z, batch, model.num_classes)  # noqa: E731
    return _grad_pass(model, Tensor(batch.images), task, "task")[2]


def mlp_and_batch(seed=0):
    model = build_tiny_mlp(4, [8], 3, seed=seed)
    gen = np.random.default_rng(seed + 100)
    images = gen.uniform(-1.0, 1.0, (6, 4))
    labels = gen.integers(0, 3, 6)
    return model, MixedBatch.plain(images, labels)


def snapshots_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


@dataclass
class Spied:
    """What ``spy_step`` saw: snapshots of the shifted copies ("perturbed",
    "w_up", "aux_<i>", "rollback_<i>"), one shift record per teacher in
    teacher order, and the gradient of the last ``adam_step`` (the final update)."""

    marks: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    records: list[NoiseRecord] = field(default_factory=list)
    final_grads: GradSet | None = None


@contextlib.contextmanager
def spy_step():
    """Watch the steps run inside the block through the module globals that
    ``Strategy.step`` calls. Each spy calls the function it wraps unchanged,
    then snapshots what it was given or returned."""
    seen = Spied()
    wrapped = {attr: getattr(strategies, attr)
               for attr in ("sam_point", "add_noise", "subtract_noise", "adam_step")}

    def sam_point(model, grads, rho):
        shifted = wrapped["sam_point"](model, grads, rho)
        if shifted is not None:
            seen.marks["perturbed"] = shifted.params.snapshot()
        return shifted

    def add_noise(params, shift):
        i = len(seen.records)
        if i == 0:  # the first teacher shifts w_up
            seen.marks["w_up"] = params.snapshot()
        seen.records.append(wrapped["add_noise"](params, shift))
        seen.marks[f"aux_{i}"] = params.snapshot()
        return seen.records[i]

    def subtract_noise(params, record):
        wrapped["subtract_noise"](params, record)  # right after its own add_noise
        seen.marks[f"rollback_{len(seen.records) - 1}"] = params.snapshot()

    def adam_step(params, grads, state, lr):
        seen.final_grads = grads
        return wrapped["adam_step"](params, grads, state, lr)

    with pytest.MonkeyPatch.context() as mp:
        for spy in (sam_point, add_noise, subtract_noise, adam_step):
            mp.setattr(strategies, spy.__name__, spy)
        yield seen


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

    def test_minor_faults_are_the_rusage_delta_around_the_step(self, monkeypatch):
        calls = []

        class Resource:
            RUSAGE_SELF = 0

            @staticmethod
            def getrusage(who):
                calls.append(who)
                return type("Usage", (), {"ru_minflt": 1000 + 7 * len(calls)})

        model, batch = mlp_and_batch()
        monkeypatch.setattr(strategies, "resource", Resource)
        report = Strategy("baseline").step(model, batch, AdamState(model.params), lr=0.001)
        assert report.minor_faults == 7 and calls == [0, 0]
        monkeypatch.setattr(strategies, "resource", None)  # no resource module: no count
        report = Strategy("baseline").step(model, batch, AdamState(model.params), lr=0.001)
        assert report.minor_faults == 0

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
        grads = task_grads(model_b, batch)
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
        # the final update is fed the centralized task gradient: every conv
        # filter and dense output unit of it has mean zero
        batch = small_batch(seed=1)
        model = small_cnn(seed=4)
        with spy_step() as seen:
            Strategy("gc").step(model, batch, AdamState(model.params), lr=0.001)
        expected = gradient_centralize(task_grads(small_cnn(seed=4), batch))
        assert _bytes(seen.final_grads) == _bytes(expected)
        units = {"conv": (1, 2, 3), "dense": 0}  # a filter's, an output unit's axes
        centred = set()
        for name, arr in seen.final_grads.items():
            kind = model.params.entry(name).kind
            if kind in units:
                assert np.max(np.abs(arr.mean(axis=units[kind]))) < 1e-12, name
                centred.add(kind)
        assert centred == set(units)


class TestSam:
    def test_delta_norm_equals_rho(self):
        # gradient (3, 4) flattened: delta = (0.03, 0.04) at rho = 0.05
        from sadtlab.nn import ParamSet
        from sadtlab.optim import GradSet

        params = ParamSet.from_named_arrays([("dense1.weight", np.array([[1.0], [1.0]]))])
        grads = GradSet({"dense1.weight": np.array([[3.0], [4.0]])})
        norm = grads.global_norm()
        assert norm == 5.0
        params.add_scaled(grads, 0.05 / norm)
        delta = params.get("dense1.weight").data - 1.0
        assert np.allclose(delta.ravel(), [0.03, 0.04], rtol=0, atol=1e-15)
        assert np.linalg.norm(delta) == pytest.approx(0.05, abs=1e-9)

    def test_sam_perturbation_norm_in_step(self):
        model = small_cnn(seed=6)
        batch = small_batch(seed=7)
        w = model.params.snapshot()
        with spy_step() as seen:
            Strategy("sam", rho=0.05).step(model, batch, AdamState(model.params), lr=0.001)
        pert = seen.marks["perturbed"]
        delta = np.concatenate([(pert[k] - w[k]).ravel() for k in w])
        assert np.linalg.norm(delta) == pytest.approx(0.05, abs=1e-9)

    def test_restore_is_exact_before_descent(self):
        # the ascent ran on a copy: the descent is one Adam step from w exactly
        model = small_cnn(seed=6)
        expected = small_cnn(seed=6)
        batch = small_batch(seed=7)
        with spy_step() as seen:
            Strategy("sam", rho=0.05).step(model, batch, AdamState(model.params), lr=0.001)
        adam_step(expected.params, seen.final_grads, AdamState(expected.params), 0.001)
        assert snapshots_equal(model.params.snapshot(), expected.params.snapshot())

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
        with spy_step() as seen:
            report = Strategy("sadt_v1", sigma_w=0.0).step(
                model, batch, AdamState(model.params), lr=0.0,
                noise_seed=np.random.SeedSequence(0),
            )
        assert snapshots_equal(model.params.snapshot(), before)
        assert snapshots_equal(seen.marks["w_up"], before)  # w_up == w at lr 0
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
        with spy_step() as seen:
            Strategy("sadt_v1", sigma_w=0.0001).step(
                model, batch, AdamState(model.params), lr=0.0001,
                noise_seed=np.random.SeedSequence(3),
            )
        assert not snapshots_equal(seen.marks["w_up"], seen.marks["aux_0"])
        assert snapshots_equal(seen.marks["w_up"], seen.marks["rollback_0"])

    def test_noise_touches_every_entry(self):
        model = small_cnn(seed=8)
        batch = small_batch(seed=9)
        with spy_step() as seen:
            Strategy("sadt_v1", sigma_w=0.0001).step(
                model, batch, AdamState(model.params), lr=0.0001,
                noise_seed=np.random.SeedSequence(3),
            )
        assert list(seen.records[0].shifts) == model.params.names()

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
        state = AdamState(model.params)
        with spy_step() as seen:
            Strategy("sadt_v1", sigma_w=0.0001, rollback_to_w=True).step(
                model, batch, state, lr=0.01, noise_seed=np.random.SeedSequence(1),
            )
        # reconstruct: one persistent Adam step at w with the spied final gradient
        expected = build_tiny_mlp(4, [8], 3, seed=4)
        expected.params.restore(w0)
        adam_step(expected.params, seen.final_grads, AdamState(expected.params), 0.01)
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
        with spy_step() as seen:
            Strategy("sadt_v2", sigma_w=0.0001).step(
                model, batch, AdamState(model.params), 0.0001,
                noise_seed=np.random.SeedSequence(0),
            )
        assert list(seen.records[0].shifts) == ["conv3.weight", "conv3.bias"]
        assert list(seen.records[1].shifts) == ["dense3.weight", "dense3.bias"]

    def test_both_rollbacks_restore_w_up_bitwise(self):
        model = small_cnn(seed=10)
        batch = small_batch(seed=11)
        with spy_step() as seen:
            Strategy("sadt_v2", sigma_w=0.0001).step(
                model, batch, AdamState(model.params), 0.0001,
                noise_seed=np.random.SeedSequence(0),
            )
        assert snapshots_equal(seen.marks["w_up"], seen.marks["rollback_0"])
        assert snapshots_equal(seen.marks["w_up"], seen.marks["rollback_1"])

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
        grads = task_grads(model_b, batch)
        rho = 0.05
        ascent = rho / grads.global_norm()

        with spy_step() as seen_sam:
            Strategy("sam", rho=rho).step(model_b, batch, AdamState(model_b.params), lr=0.0)
        with spy_step() as seen_v3:
            Strategy("sadt_v3", sigma_g=0.0, ascent_lr=ascent).step(
                model_a, batch, AdamState(model_a.params), lr=0.0,
                noise_seed=np.random.SeedSequence(0),
            )
        sam_point = seen_sam.marks["perturbed"]
        v3_point = seen_v3.marks["aux_0"]
        for name in sam_point:
            assert np.max(np.abs(sam_point[name] - v3_point[name])) < 1e-12, name

    def test_restore_after_ascent_is_bitwise(self):
        model = small_cnn(seed=13)
        batch = small_batch(seed=14)
        with spy_step() as seen:
            Strategy("sadt_v3", sigma_g=0.0001, ascent_lr=0.0001).step(
                model, batch, AdamState(model.params), lr=0.0001,
                noise_seed=np.random.SeedSequence(2),
            )
        assert snapshots_equal(seen.marks["w_up"], seen.marks["rollback_0"])

    def test_lr_zero_ascent_zero_unchanged(self):
        model, batch = mlp_and_batch(seed=15)
        before = model.params.snapshot()
        Strategy("sadt_v3", sigma_g=0.0, ascent_lr=0.0).step(
            model, batch, AdamState(model.params), lr=0.0, noise_seed=np.random.SeedSequence(0),
        )
        assert snapshots_equal(model.params.snapshot(), before)

    def test_gradient_noise_covers_all_entries(self):
        # the teacher sits at w_up + ascent_lr * (g + noise), one N(0, sigma_g^2)
        # draw per entry in parameter order from the teacher's rng
        model, batch = mlp_and_batch(seed=15)
        grads = task_grads(model, batch)
        with spy_step() as seen:
            Strategy("sadt_v3", sigma_g=0.01, ascent_lr=0.001).step(
                model, batch, AdamState(model.params), lr=0.001,
                noise_seed=np.random.SeedSequence(0),
            )
        (child,) = np.random.SeedSequence(0).spawn(1)
        rng = np.random.default_rng(child)
        (record,) = seen.records  # one shift record for the one teacher
        assert list(record.shifts) == model.params.names()
        assert record.consumed
        for name, g in grads.items():
            noise = rng.normal(0.0, 0.01, size=g.shape)
            assert np.all(noise != 0.0)
            assert np.array_equal(record.shifts[name], 0.001 * (g + noise)), name
            expected = seen.marks["w_up"][name] + 0.001 * (g + noise)
            assert np.array_equal(seen.marks["aux_0"][name], expected), name

    def test_default_ascent_lr_follows_schedule(self):
        model, batch = mlp_and_batch(seed=16)
        strat = Strategy("sadt_v3", sigma_g=0.0)
        assert strat.ascent_lr is None
        report = strat.step(
            model, batch, AdamState(model.params), 0.002,
            noise_seed=np.random.SeedSequence(0),
        )
        assert report.lr == 0.002


class TestFailedStepLeavesWeights:
    """Every shifted point lives on a copy: a step whose second pass (the sam
    ascent or a teacher's KL pass) goes non-finite leaves the live weights
    and the persistent optimizer state as they were."""

    @pytest.mark.parametrize("rollback_to_w", [False, True])
    @pytest.mark.parametrize(
        "strategy_id, fields",
        [
            ("sam", {"rho": 1e300}),
            ("sadt_v1", {"sigma_w": 1e300}),
            ("sadt_v2", {"sigma_w": 1e307}),  # at 1e300 its KL loss stays finite
            ("sadt_v3", {"sigma_g": 1e300}),
        ],
    )
    def test_weights_and_state_unchanged(self, strategy_id, fields, rollback_to_w):
        model = small_cnn(seed=25)
        batch = small_batch(seed=26)
        state = AdamState(model.params)
        before = model.params.snapshot()
        strat = Strategy(strategy_id, rollback_to_w=rollback_to_w, **fields)
        with pytest.raises(NonFiniteLossError), np.errstate(all="ignore"):
            strat.step(model, batch, state, 0.001, noise_seed=np.random.SeedSequence(0))
        assert snapshots_equal(model.params.snapshot(), before)
        assert state.t == 0


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
            ("sadt_v1", {"noise_seed": None}, "noise_seed"),
            ("sadt_v3", {"lr": -0.1}, "ascent_lr"),  # the scheduled ascent lr
        ],
    )
    def test_bad_hyperparameters_rejected_before_any_update(self, strategy_id, fields, match):
        fields = dict(fields)  # "noise_seed" and "lr" go to step, the rest to Strategy
        noise_seed = fields.pop("noise_seed", np.random.SeedSequence(0))
        lr = fields.pop("lr", 0.001)
        model = small_cnn(seed=23)
        batch = small_batch(seed=24)
        before = model.params.snapshot()
        state = AdamState(model.params)
        with pytest.raises(ValueError, match=match):
            Strategy(strategy_id, **fields).step(model, batch, state, lr, noise_seed=noise_seed)
        assert snapshots_equal(model.params.snapshot(), before)
        assert state.t == 0

    # a forward runs simple_cnn's 3 convs; sadt_v2's teachers share conv1-conv2
    CONV_CALLS = {"baseline": 3, "gc": 3, "agc": 3, "sam": 6,
                  "sadt_v1": 6, "sadt_v2": 7, "sadt_v3": 6}

    @pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
    def test_conv_calls_per_step(self, strategy_id, monkeypatch):
        calls = []
        conv2d = sadtlab.nn.conv2d

        def counted(x, kernel, *args):
            calls.append(kernel.shape)
            return conv2d(x, kernel, *args)

        monkeypatch.setattr(sadtlab.nn, "conv2d", counted)
        model = small_cnn(seed=20)
        Strategy(strategy_id).step(model, small_batch(seed=21), AdamState(model.params), 0.0001,
                                   noise_seed=np.random.SeedSequence(5))
        assert len(calls) == self.CONV_CALLS[strategy_id]

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


TEACHER_IDS = [s for s in STRATEGY_IDS if PRESETS[s].teachers]


def _teacher_step(strategy_id, steps=2):
    """Two steps of a teacher preset on simple_cnn at 8x8: the final params,
    Adam moments and the shift records of the last step."""
    model = small_cnn(seed=30)
    state = AdamState(model.params)
    strat = Strategy(strategy_id, sigma_w=0.01, sigma_g=0.01, ascent_lr=0.001)
    for step in range(steps):
        with spy_step() as seen:
            strat.step(model, small_batch(seed=31 + step), state, 0.001,
                       noise_seed=np.random.SeedSequence(step))
    return model.params.snapshot(), state, seen.records


def _bytes(arrays):
    return {name: a.tobytes() for name, a in arrays.items()}


class TestTeacherNoiseDrawnAhead:
    """Every teacher's normals are drawn on the lane worker from the start of
    the step, and consumed on the caller thread with the same bits."""

    @pytest.mark.parametrize("strategy_id", TEACHER_IDS)
    def test_a_step_with_the_worker_matches_one_without(self, worker, monkeypatch, strategy_id):
        params, state, records = _teacher_step(strategy_id)
        assert worker.handed == 2  # one draw per step: no conv at 8x8 reaches the lane floor
        monkeypatch.setattr(autodiff, "_WORKER", None)
        params_1, state_1, records_1 = _teacher_step(strategy_id)
        assert _bytes(params) == _bytes(params_1)
        assert _bytes(state.m) == _bytes(state_1.m) and _bytes(state.v) == _bytes(state_1.v)
        assert [list(r.shifts) for r in records] == [list(r.shifts) for r in records_1]
        for record, record_1 in zip(records, records_1):
            for name in record.shifts:
                assert record.shifts[name].tobytes() == record_1.shifts[name].tobytes(), name

    @pytest.mark.parametrize("strategy_id", TEACHER_IDS)
    def test_each_teacher_draws_from_its_own_spawned_rng_in_teacher_order(self, worker,
                                                                          strategy_id):
        model = small_cnn(seed=32)
        batch = small_batch(seed=33)
        grads = task_grads(model.clone(), batch)
        strat = Strategy(strategy_id, sigma_w=0.01, sigma_g=0.02, ascent_lr=0.003)
        with spy_step() as seen:
            strat.step(model, batch, AdamState(model.params), 0.001,
                       noise_seed=np.random.SeedSequence(7))
        teachers = PRESETS[strategy_id].teachers
        children = np.random.SeedSequence(7).spawn(len(teachers))
        assert len(seen.records) == len(teachers)
        for layer_filter, child, record in zip(teachers, children, seen.records):
            rng = np.random.default_rng(child)
            for name in record.shifts:
                if layer_filter == "gradient-all":
                    g = grads.get(name)
                    expected = 0.003 * (g + rng.normal(0.0, 0.02, size=g.shape))
                else:
                    expected = rng.normal(0.0, 0.01, size=record.shifts[name].shape)
                assert np.array_equal(record.shifts[name], expected), (layer_filter, name)

    @pytest.mark.parametrize("strategy_id", TEACHER_IDS)
    def test_each_record_names_the_entries_its_filter_selects(self, strategy_id):
        model = small_cnn(seed=32)
        every = model.params.names()  # "all" and "gradient-all" shift every entry
        expected = {
            "sadt_v1": [every],
            "sadt_v2": [["conv3.weight", "conv3.bias"], ["dense3.weight", "dense3.bias"]],
            "sadt_v3": [every],
        }
        with spy_step() as seen:
            Strategy(strategy_id).step(model, small_batch(seed=33), AdamState(model.params),
                                       0.001, noise_seed=np.random.SeedSequence(7))
        assert [list(record.shifts) for record in seen.records] == expected[strategy_id]

    @pytest.mark.parametrize("strategy_id", TEACHER_IDS)
    def test_a_non_finite_task_loss_raises_once_the_draw_has_ended(self, worker, monkeypatch,
                                                                   strategy_id):
        ended = []
        draw = strategies._draw

        def slow_draw(*job):
            time.sleep(0.2)  # far longer than the task pass at 8x8
            ended.append(draw(*job))
            return ended[-1]

        monkeypatch.setattr(strategies, "_draw", slow_draw)
        model = small_cnn(seed=34)
        model.params.get("dense3.weight").data[0, 0] = np.nan
        with pytest.raises(NonFiniteLossError, match="task loss"):
            Strategy(strategy_id).step(model, small_batch(seed=35), AdamState(model.params),
                                       0.001, noise_seed=np.random.SeedSequence(0))
        assert len(ended) == len(PRESETS[strategy_id].teachers)
        assert worker.handed == 1

    @pytest.mark.parametrize("strategy_id", TEACHER_IDS)
    def test_the_worker_calls_no_name_a_profiler_may_wrap(self, worker, monkeypatch, strategy_id):
        callers = set()

        def on_caller_thread(owner, attr):
            fn = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                callers.add(threading.get_ident())
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for attr in ("backward", "adam_step", "add_noise", "subtract_noise",
                     "aggregate_gradients", "noise_targets"):
            on_caller_thread(strategies, attr)
        for attr in ("snapshot", "restore", "add_scaled", "clone"):
            on_caller_thread(sadtlab.nn.ParamSet, attr)
        _teacher_step(strategy_id, steps=1)
        assert worker.handed == 1
        assert callers == {threading.get_ident()}


class TestInBackground:
    def test_a_failure_in_the_worker_reraises_at_each_wait(self, worker):
        def fail():
            time.sleep(0.05)
            raise ValueError("in the background")

        wait = autodiff._in_background(fail)
        for _ in range(2):  # a second wait neither blocks nor forgets the failure
            with pytest.raises(ValueError, match="in the background"):
                wait()
        done = []
        wait = autodiff._in_background(lambda: done.append(threading.get_ident()))
        wait()
        wait()
        assert len(done) == 1 and done[0] != threading.get_ident()  # the worker serves the next job
        assert worker.handed == 2

    def test_without_a_worker_the_job_runs_inline(self, monkeypatch):
        monkeypatch.setattr(autodiff, "_WORKER", None)
        done = []
        wait = autodiff._in_background(lambda: done.append(threading.get_ident()))
        assert done == [threading.get_ident()]
        wait()

        def fail():
            raise ValueError("inline")

        with pytest.raises(ValueError, match="inline"):
            autodiff._in_background(fail)
