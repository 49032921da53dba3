import gc
import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadtlab.autodiff import (
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    backward,
    conv2d,
    kl_divergence,
    matmul,
    max_pool2x2,
    relu,
    softmax_cross_entropy,
)
from sadtlab.optim import GradSet

from conftest import finite_diff_grads, max_rel_err, mul


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(a, b)


class TestConv2d:
    """Channels-last inputs: x is N x H x W x C, kernels F x C x k x k;
    stride 1 with zero "same" padding."""

    def test_one_by_one_identity_kernel(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 5, 1)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, k, Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x.data)

    def test_all_ones_kernel_sums_window(self):
        x = Tensor(np.ones((1, 4, 4, 1)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, k, Tensor(np.zeros(1)))
        # each output cell counts the in-bounds cells of its zero-padded 3x3 window
        window_sums = [[4, 6, 6, 4], [6, 9, 9, 6], [6, 9, 9, 6], [4, 6, 6, 4]]
        assert out.shape == (1, 4, 4, 1)
        assert np.array_equal(out.data[0, :, :, 0], window_sums)

    def test_delta_kernel_is_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 6, 6, 1)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv2d(x, Tensor(k), Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x.data)

    def test_even_or_non_square_kernel_rejected(self):
        x = Tensor(np.zeros((1, 6, 6, 1)))
        for kh, kw in [(2, 2), (4, 4), (3, 1), (1, 3), (3, 5)]:
            k = Tensor(np.zeros((1, 1, kh, kw)))
            with pytest.raises(ShapeError, match=f"odd, square kernel, got {kh}x{kw}"):
                conv2d(x, k, Tensor(np.zeros(1)))

    def test_output_extent_formula(self, rng):
        x = Tensor(rng.normal(size=(1, 9, 7, 2)))
        for size in (1, 3, 5):  # "same" padding keeps H and W
            k = Tensor(rng.normal(size=(3, 2, size, size)))
            assert conv2d(x, k, Tensor(np.zeros(3))).shape == (1, 9, 7, 3)

    def test_bias_added_per_output_channel(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 4, 2)))
        k = Tensor(np.zeros((3, 2, 3, 3)))
        out = conv2d(x, k, Tensor([1.0, 2.0, 3.0]))
        assert np.array_equal(out.data, np.broadcast_to([1.0, 2.0, 3.0], (2, 4, 4, 3)))

    def test_bias_must_match_kernel_count(self):
        x = Tensor(np.zeros((1, 4, 4, 1)))
        k = Tensor(np.zeros((2, 1, 3, 3)))
        with pytest.raises(ShapeError, match="bias"):
            conv2d(x, k, Tensor(np.zeros(3)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_one_hot(self):
        logits = Tensor(np.zeros((3, 10)))
        target = Tensor(np.eye(10)[[0, 4, 9]])
        loss = softmax_cross_entropy(logits, target)
        assert loss.item() == pytest.approx(math.log(10.0), abs=1e-12)

    def test_saturated_correct_prediction(self):
        logits = np.zeros((1, 10))
        logits[0, 3] = 50.0
        target = np.eye(10)[[3]]
        loss = softmax_cross_entropy(Tensor(logits), Tensor(target))
        assert 0.0 <= loss.item() < 1e-9

    def test_two_class_closed_form(self):
        loss = softmax_cross_entropy(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]))
        assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_unnormalized_target_rejected(self):
        with pytest.raises(ValueError, match="probability vector"):
            softmax_cross_entropy(Tensor(np.zeros((1, 3))), Tensor([[0.5, 0.2, 0.2]]))

    def test_class_count_mismatch(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 4)) / 4.0))


class TestKLDivergence:
    def test_identical_logits_zero(self, rng):
        logits = rng.normal(size=(5, 7))
        assert kl_divergence(Tensor(logits), Tensor(logits)).item() == 0.0

    def test_onehotish_vs_uniform_is_ln2(self):
        p = Tensor([[50.0, 0.0]])
        q = Tensor([[0.0, 0.0]])
        assert kl_divergence(p, q).item() == pytest.approx(math.log(2.0), abs=1e-9)

    def test_half_half_vs_quarter_three_quarter(self):
        p = Tensor(np.log([[0.5, 0.5]]))
        q = Tensor(np.log([[0.25, 0.75]]))
        expected = 0.5 * math.log(4.0 / 3.0)
        assert kl_divergence(p, q).item() == pytest.approx(expected, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kl_divergence(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_for_random_logit_pairs(self, seed):
        gen = np.random.default_rng(seed)
        p = gen.normal(scale=3.0, size=(4, 6))
        q = gen.normal(scale=3.0, size=(4, 6))
        assert kl_divergence(Tensor(p), Tensor(q)).item() >= -1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_self_divergence_zero(self, seed):
        logits = np.random.default_rng(seed).normal(scale=5.0, size=(3, 8))
        assert abs(kl_divergence(Tensor(logits), Tensor(logits)).item()) < 1e-12

    def test_detach_p_blocks_teacher_gradient(self, rng):
        p = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        q = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape():
            loss = kl_divergence(p, q, detach_p=True)
        grads = backward(loss)
        assert p not in grads
        assert q in grads


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape():
            loss = w.sum()
        grads = backward(loss)
        assert np.array_equal(grads[w], np.ones((3, 4)))

    def test_unused_leaf_gets_exact_zero(self, rng):
        used = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        unused = Tensor(rng.normal(size=(5,)), requires_grad=True)
        from sadtlab.nn import ParamSet, ParamEntry

        entries = [
            ParamEntry("a.weight", used, "dense", "a"),
            ParamEntry("b.weight", unused, "dense", "b"),
        ]
        params = ParamSet(entries)
        with Tape():
            loss = used.sum()
        grads = GradSet.from_backward(params, backward(loss))
        assert np.array_equal(grads.get("b.weight"), np.zeros(5))

    def test_non_scalar_loss_rejected(self, rng):
        w = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with Tape():
            out = relu(w)
        with pytest.raises(TapeError, match="scalar"):
            backward(out)

    def test_double_backward_rejected(self, rng):
        w = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with Tape():
            loss = w.sum()
        backward(loss)
        with pytest.raises(TapeError, match="already ran"):
            backward(loss)

    def test_loss_off_tape_rejected(self):
        with pytest.raises(TapeError, match="not recorded"):
            backward(Tensor(1.0))

    def test_reused_operand_accumulates(self, rng):
        w = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with Tape():
            loss = mul(w, w).sum()
        grads = backward(loss)
        assert np.allclose(grads[w], 2.0 * w.data, rtol=0, atol=0)

    def test_each_node_visited_once_in_reverse_order(self, rng):
        w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with Tape() as tape:
            a = mul(w, w)
            b = add(a, w)
            loss = b.sum()
        visited = []
        for node in tape.nodes:
            original = node.backward_fn

            def spy(g, needs, _orig=original, _idx=node.index):
                visited.append(_idx)
                return _orig(g, needs)

            node.backward_fn = spy
        backward(loss)
        assert visited == sorted(visited, reverse=True)
        assert len(visited) == len(set(visited))

    def test_graph_released_at_next_backward(self, rng):
        """A pass's intermediates are freed by refcount one backward later,
        with the cyclic garbage collector off."""
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape() as tape:
                hidden = mul(w, v)
                loss = relu(hidden).sum()
            probe = weakref.ref(hidden.data)
            del hidden
            grads = backward(loss)
            kept = {t: g.copy() for t, g in grads.items()}
            nodes = len(tape.nodes)
            assert probe() is not None  # the latest graph lives until the next backward
            with Tape():
                backward(mul(w, w).sum())
            assert probe() is None
        finally:
            if was_enabled:
                gc.enable()
        assert grads.keys() == kept.keys()
        assert all(np.array_equal(grads[t], kept[t]) for t in kept)
        assert len(tape.nodes) == nodes
        with pytest.raises(TapeError, match="already ran"):
            backward(loss)

    def test_another_threads_backward_leaves_this_threads_graph(self, rng):
        """Each thread keeps its own latest walked tape: a backward on another
        thread releases nothing of this one's, and this thread's next does."""
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape() as tape:
                hidden = mul(w, w)
                loss = relu(hidden).sum()
            probe = weakref.ref(hidden.data)
            del hidden
            backward(loss)

            released = []

            def other_thread():
                tapes = [Tape(), Tape()]
                for other in tapes:
                    with other:
                        backward(mul(w, w).sum())
                released.extend(other.released for other in tapes)

            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert released == [True, False]  # that thread's second walk released its first tape
            assert probe() is not None and not tape.released
            with Tape():
                backward(mul(w, w).sum())
            assert probe() is None and tape.released
        finally:
            if was_enabled:
                gc.enable()


class TestTapeWalkedOncePerLoss:
    """Heads recorded over one shared prefix, each walked from its own loss."""

    SHIFTS = (0.0, 0.25)  # added to dense1.weight while a head runs, as a teacher does

    def _targets(self, gen, n):
        return [np.eye(3)[gen.integers(0, 3, n)] for _ in self.SHIFTS]

    def _heads(self, model, x, targets, shared):
        """Leaf-gradient bytes per head: each head shifts dense1.weight, runs
        from conv1's pooled output (shared) or from the images on a tape of its
        own, walks its loss and removes the shift."""
        w = model.params.get("dense1.weight")
        tape = Tape()
        if shared:
            with tape:
                prefix = model.forward(Tensor(x), stop="dense1")
        out = []
        for shift, target in zip(self.SHIFTS, targets):
            before = w.data.copy()
            w.data += shift
            with tape if shared else Tape():
                logits = (model.forward(prefix, start="dense1") if shared
                          else model.forward(Tensor(x)))
                loss = softmax_cross_entropy(logits, Tensor(target))
            grads = backward(loss)
            w.data[...] = before
            out.append([grads[e.tensor].tobytes() for e in model.params])
        return out

    def test_heads_over_a_shared_prefix_match_separate_tapes(self, tiny_conv_model, rng):
        x = rng.uniform(-1.0, 1.0, (5, 1, 8, 8))
        targets = self._targets(rng, 5)
        separate = self._heads(tiny_conv_model, x, targets, shared=False)
        assert self._heads(tiny_conv_model, x, targets, shared=True) == separate
        assert separate[0] != separate[1]  # the heads really differ

    def test_walking_a_loss_twice_still_raises(self, tiny_conv_model, rng):
        with Tape() as tape:  # the shared prefix in a session of its own
            prefix = tiny_conv_model.forward(Tensor(rng.uniform(size=(2, 1, 8, 8))), stop="dense1")
        with tape:
            first = tiny_conv_model.forward(prefix, start="dense1").sum()
        backward(first)
        with tape:
            second = tiny_conv_model.forward(prefix, start="dense1").sum()
        backward(second)
        for loss in (first, second):
            with pytest.raises(TapeError, match="already ran"):
                backward(loss)

    def test_shared_graph_survives_its_second_walk_until_the_next_tape(self, tiny_conv_model, rng):
        model = tiny_conv_model
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape() as tape:  # the shared prefix in a session of its own
                prefix = model.forward(Tensor(rng.uniform(size=(2, 1, 8, 8))), stop="dense1")
            # each head's backward reads the weights; the pool keeps no output to watch
            weights = Tensor(rng.normal(size=(2, 3)))
            probe = weakref.ref(weights.data)
            with tape:
                first = mul(model.forward(prefix, start="dense1"), weights).sum()
            backward(first)
            with tape:
                second = mul(model.forward(prefix, start="dense1"), weights).sum()
            del prefix, weights
            backward(second)
            assert probe() is not None  # the second walk kept its own tape's graph
            with Tape():
                backward(model.forward(Tensor(rng.uniform(size=(2, 1, 8, 8)))).sum())
            assert probe() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_a_head_recorded_on_a_released_tape_is_refused(self, rng):
        w = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with Tape() as tape:
            hidden = mul(w, w)
            first = hidden.sum()
        backward(first)
        with Tape():
            backward(w.sum())  # releases the first tape's graph
        with tape:
            late = relu(hidden).sum()
        with pytest.raises(TapeError, match="released"):
            backward(late)


class TestFiniteDifferenceAgreement:
    """Reverse-mode gradients vs the central-difference oracle, h = 1e-5."""

    def _check(self, params, loss_fn, tol=1e-4):
        with Tape():
            loss = loss_fn()
        grads = GradSet.from_backward(params, backward(loss))
        oracle = finite_diff_grads(lambda: loss_fn().item(), params)
        for name, fd in oracle.items():
            assert max_rel_err(grads.get(name), fd) < tol, name

    def test_mlp_three_layers_cross_entropy(self, rng):
        from sadtlab.nn import build_tiny_mlp

        model = build_tiny_mlp(5, [6, 4], 3, seed=11)
        x = rng.uniform(-1.0, 1.0, (4, 5))
        target = np.eye(3)[rng.integers(0, 3, 4)]
        self._check(
            model.params,
            lambda: softmax_cross_entropy(model.forward(Tensor(x)), Tensor(target)),
        )

    def test_conv_pool_dense_cross_entropy(self, tiny_conv_model, rng):
        x = rng.uniform(-1.0, 1.0, (3, 1, 8, 8))
        target = np.eye(3)[rng.integers(0, 3, 3)]
        self._check(
            tiny_conv_model.params,
            lambda: softmax_cross_entropy(tiny_conv_model.forward(Tensor(x)), Tensor(target)),
        )

    def test_conv_bias_same_padding(self, rng):
        from sadtlab.nn import ParamSet

        params = ParamSet.from_named_arrays(
            [("conv1.weight", rng.uniform(-0.5, 0.5, (3, 2, 3, 3))),
             ("conv1.bias", rng.uniform(-0.5, 0.5, 3))]
        )
        x = rng.uniform(-1.0, 1.0, (2, 7, 7, 2))
        weights = Tensor(rng.uniform(-1.0, 1.0, (2, 7, 7, 3)))  # distinct per output cell

        def loss_fn():
            out = conv2d(Tensor(x), params.get("conv1.weight"), params.get("conv1.bias"))
            return mul(out, weights).sum()

        self._check(params, loss_fn)

    def test_relu_path(self, rng):
        from sadtlab.nn import ParamSet

        params = ParamSet.from_named_arrays([("dense1.weight", rng.uniform(0.1, 1.0, (4, 4)))])
        x = rng.uniform(0.1, 1.0, (3, 4))  # kept away from the kink

        def loss_fn():
            return relu(matmul(Tensor(x), params.get("dense1.weight"))).sum()

        self._check(params, loss_fn)

    def test_kl_both_sides(self, rng):
        from sadtlab.nn import ParamSet

        params = ParamSet.from_named_arrays(
            [("dense1.weight", rng.uniform(-1.0, 1.0, (4, 5))),
             ("dense2.weight", rng.uniform(-1.0, 1.0, (4, 5)))]
        )
        x = rng.uniform(-1.0, 1.0, (3, 4))

        def loss_fn():
            p = matmul(Tensor(x), params.get("dense1.weight"))
            q = matmul(Tensor(x), params.get("dense2.weight"))
            return kl_divergence(p, q)

        self._check(params, loss_fn)

    def test_max_pool_path(self, rng):
        from sadtlab.nn import ParamSet

        params = ParamSet.from_named_arrays([("conv1.weight", rng.uniform(-1.0, 1.0, (2, 1, 3, 3)))])
        x = rng.uniform(-1.0, 1.0, (2, 6, 6, 1))

        def loss_fn():
            conv = conv2d(Tensor(x), params.get("conv1.weight"), Tensor(np.zeros(2)))
            return max_pool2x2(conv).sum()

        self._check(params, loss_fn)


class TestDeterminism:
    def test_forward_and_backward_bitwise_repeatable(self, tiny_conv_model, rng):
        x = rng.uniform(-1.0, 1.0, (3, 1, 8, 8))
        target = np.eye(3)[[0, 1, 2]]

        def run():
            with Tape():
                loss = softmax_cross_entropy(
                    tiny_conv_model.forward(Tensor(x)), Tensor(target)
                )
            grads = GradSet.from_backward(tiny_conv_model.params, backward(loss))
            return loss.item(), grads

        loss1, g1 = run()
        loss2, g2 = run()
        assert loss1 == loss2
        for (n1, a1), (n2, a2) in zip(g1.items(), g2.items()):
            assert n1 == n2
            assert np.array_equal(a1, a2)

    def test_tensor_data_is_row_major_f64(self, rng):
        t = Tensor(rng.normal(size=(2, 3, 4)))
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert np.prod(t.shape) == t.data.size
