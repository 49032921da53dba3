"""Per-layer figures: from the spans of a traced run, and from single ops
timed at the workload's exact shapes."""

from __future__ import annotations

import statistics
import time

import numpy as np

from sadtlab import autodiff
from sadtlab.strategies import STRATEGY_IDS

from tracing import ATTRS, END, NAME, START, Tracer

CONV_LAYERS = ("conv1", "conv2", "conv3")
MEAN_MS = {  # metric -> span name; value is mean milliseconds per call
    "autodiff.backward.ms": "autodiff.backward",
    "nn.forward.ms": "nn.forward",
    "nn.snapshot.ms": "nn.snapshot",
    "nn.restore.ms": "nn.restore",
    "nn.add_scaled.ms": "nn.add_scaled",
    "nn.save_checkpoint.ms": "nn.save_checkpoint",
    "optim.adam_step.ms": "optim.adam_step",
    "optim.add_noise.ms": "optim.add_noise",
    "optim.subtract_noise.ms": "optim.subtract_noise",
    "optim.aggregate_gradients.ms": "optim.aggregate_gradients",
    "optim.from_backward.ms": "optim.from_backward",
    "optim.gradient_centralize.ms": "optim.gradient_centralize",
    "optim.adaptive_gradient_clip.ms": "optim.adaptive_gradient_clip",
    "data.cutmix.ms": "data.cutmix",
    "data.make_batches.ms": "data.make_batches",
    "data.load_idx.ms": "data.load_idx",
    "metrics.evaluate.ms": "metrics.evaluate",
    "metrics.estimate_sharpness.ms": "metrics.estimate_sharpness",
    "metrics.model_divergence.ms": "metrics.model_divergence",
}
OVERHEAD = [f"step_ms.{s}" for s in STRATEGY_IDS] + ["epoch_s", "eval_samples_per_s", "probe_ms"]


def _ms(span) -> float:
    return (span[END] - span[START]) * 1e3


def conv_flops(attrs: dict, backward: bool) -> float:
    """Multiply-adds x 2 of the conv matmuls, computed from the shapes
    (stride 1, same padding). Backward is the kernel gradient plus, when the
    input needs one, the input gradient."""
    n, c, h, w = attrs["x"]
    f, _, kh, kw = attrs["k"]
    fwd = 2.0 * n * h * w * f * c * kh * kw
    if not backward:
        return fwd
    return fwd * (2 if attrs["needs_x"] else 1)


def per_layer(tracer: Tracer, wl, e2e: dict, traced: dict, synth: Tracer) -> dict:
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    # conv layers at the training batch size, forward and backward
    for layer in CONV_LAYERS:
        fwd = [s for s in by_name.get(f"autodiff.{layer}.fwd", []) if s[ATTRS]["x"][0] == wl.batch]
        bwd = [s for s in by_name.get(f"autodiff.{layer}.bwd", []) if s[ATTRS]["x"][0] == wl.batch]
        put(f"autodiff.{layer}.fwd_ms", statistics.fmean(map(_ms, fwd)), "ms")
        put(f"autodiff.{layer}.bwd_ms", statistics.fmean(map(_ms, bwd)), "ms")
        flops = sum(conv_flops(s[ATTRS], False) for s in fwd) + sum(
            conv_flops(s[ATTRS], True) for s in bwd
        )
        seconds = sum(s[END] - s[START] for s in fwd + bwd)
        put(f"autodiff.{layer}.gflops_per_s", flops / seconds / 1e9, "GFLOP/s")
    put(
        "autodiff.backward.nodes",
        statistics.fmean(s[ATTRS]["nodes"] for s in by_name["autodiff.backward"]),
        "count",
    )
    for metric, span in MEAN_MS.items():
        put(metric, statistics.fmean(map(_ms, by_name[span])), "ms")

    # strategies: passes per step, and the step time no child span covers
    kids = tracer.children()

    def descendants(i):
        for k in kids[i]:
            yield k
            yield from descendants(k)

    base = e2e["step_ms.baseline"]["value"]
    for sid in STRATEGY_IDS:
        steps = [i for i, s in enumerate(spans) if s[NAME] == f"strategies.{sid}"]
        counts = {"fwd_passes": [], "bwd_passes": [], "conv_calls": []}
        self_ms = []
        for i in steps:
            names = [spans[k][NAME] for k in descendants(i)]
            counts["fwd_passes"].append(names.count("nn.forward"))
            counts["bwd_passes"].append(names.count("autodiff.backward"))
            counts["conv_calls"].append(sum(n.endswith(".fwd") and ".conv" in n for n in names))
            self_ms.append(_ms(spans[i]) - sum(_ms(spans[k]) for k in kids[i]))
        for key, values in counts.items():
            put(f"strategies.{sid}.{key}", statistics.fmean(values), "count")
        put(f"strategies.{sid}.self_ms", statistics.fmean(self_ms), "ms")
        if sid != "baseline":
            put(f"strategies.{sid}.overhead_x", e2e[f"step_ms.{sid}"]["value"] / base, "x")

    # harness: each epoch's time not spent in run_experiment's direct children
    epoch_self = []
    for i, s in enumerate(spans):
        if s[NAME] != "harness.run_experiment":
            continue
        top = [spans[k] for k in kids[i]]
        starts = [c[START] for c in top if c[NAME] == "data.make_batches"]
        last_eval = [c[START] for c in top if c[NAME] == "metrics.evaluate"][-1]
        for a, b in zip(starts, starts[1:] + [last_eval]):
            busy = sum(c[END] - c[START] for c in top if a <= c[START] < b)
            epoch_self.append((b - a - busy) * 1e3)
    put("harness.epoch_self_ms", statistics.fmean(epoch_self), "ms")
    put("synth.make_synthetic_digits.ms", statistics.fmean(map(_ms, synth.spans)), "ms")

    # what tracing itself costs: traced minus untraced, same run, same units
    for name in OVERHEAD:
        put(f"trace.overhead.{name}", traced[name]["value"] - e2e[name]["value"], e2e[name]["unit"])
    return out


def _fwd_bwd(op, operands: list[np.ndarray], reps: int) -> tuple[float, float]:
    """Median ms of ``op`` under its own tape, and of backward on its sum."""
    fwd, bwd = [], []
    for _ in range(reps):
        tensors = [autodiff.Tensor(a, requires_grad=True) for a in operands]
        with autodiff.Tape():
            start = time.perf_counter()
            out = op(*tensors)
            fwd.append((time.perf_counter() - start) * 1e3)
            total = out.sum()
        start = time.perf_counter()
        autodiff.backward(total)
        bwd.append((time.perf_counter() - start) * 1e3)
    return statistics.median(fwd), statistics.median(bwd)


def micro(wl, model, seed: int, reps: int) -> dict:
    """Pool, dense and the two losses, each per forward pass of the CNN."""
    rng = np.random.default_rng(seed)
    n, s = wl.batch, wl.size
    widths = [e.tensor.shape[0] for e in model.params.entries if e.kind == "conv"]
    pool_in = [(n, widths[i], s >> i, s >> i) for i in range(len(widths))]
    dense = [e.tensor.shape for e in model.params.entries if e.kind == "dense"]
    logits = (n, dense[-1][1])
    targets = np.eye(logits[1])[rng.integers(0, logits[1], n)]

    def ce(x):
        return autodiff.softmax_cross_entropy(x, autodiff.Tensor(targets))

    teacher = autodiff.Tensor(rng.normal(size=logits))

    def kl(q):
        return autodiff.kl_divergence(teacher, q, detach_p=True)

    parts = {
        "pool": [(autodiff.max_pool2x2, [rng.normal(size=shape)]) for shape in pool_in],
        "dense": [
            (autodiff.matmul, [rng.normal(size=(n, k)), rng.normal(size=(k, m))]) for k, m in dense
        ],
        "ce_loss": [(ce, [rng.normal(size=logits)])],
        "kl_loss": [(kl, [rng.normal(size=logits)])],
    }
    out = {}
    for name, calls in parts.items():
        times = [_fwd_bwd(op, operands, reps) for op, operands in calls]
        out[f"autodiff.{name}.fwd_ms"] = {"value": sum(t[0] for t in times), "unit": "ms"}
        out[f"autodiff.{name}.bwd_ms"] = {"value": sum(t[1] for t in times), "unit": "ms"}
    return out
