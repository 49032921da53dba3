"""In-memory spans around sadtlab's public functions, installed from outside.

sadtlab modules bind their dependencies with ``from .x import y``, so a
wrapper must replace the name in the module that *calls* it (for example
``sadtlab.nn.conv2d``, not ``sadtlab.autodiff.conv2d``). Every wrapper is
undone by :meth:`Tracer.uninstall`, which leaves the library exactly as
imported.

A span is ``[name, start, end, parent, attrs]`` with times from
``time.perf_counter`` in seconds and ``parent`` the index of the span that
was open when it started (``-1`` for none).
"""

from __future__ import annotations

import time

import sadtlab.harness
import sadtlab.metrics
import sadtlab.nn
import sadtlab.optim
import sadtlab.strategies

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, attrs]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                kids[span[PARENT]].append(i)
        return kids

    def nesting_errors(self) -> list[str]:
        """Spans that end before they start, or leave their parent's interval."""
        errors = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                errors.append(f"span {i} {name} ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if start < p[START] or end > p[END]:
                    errors.append(f"span {i} {name} leaves parent {parent} {p[NAME]}")
        return errors

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name, attrs_fn=None) -> None:
        """Replace ``owner.attr`` (a module function or a plain method) with a
        span-recording wrapper. ``name`` is a string or a function of the call
        arguments; ``attrs_fn`` maps (args, result) to extra span data."""
        orig = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if attrs_fn is None:
                return tracer.call(label, orig, args, kwargs)
            attrs: dict = {}
            result = tracer.call(label, orig, args, kwargs, attrs)
            attrs.update(attrs_fn(args, result))
            return result

        self._replace(owner, attr, wrapper)

    def wrap_classmethod(self, cls, attr: str, name: str) -> None:
        func = cls.__dict__[attr].__func__
        tracer = self

        def wrapper(klass, *args, **kwargs):
            return tracer.call(name, func, (klass, *args), kwargs)

        self._replace(cls, attr, classmethod(wrapper))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def install_timers(tracer: Tracer) -> None:
    """The few boundary spans the end-to-end metrics of the CLI path need:
    epoch starts, evaluation and the two probes. A handful of calls per
    epoch, so they stay on in untraced runs."""
    h = sadtlab.harness
    tracer.wrap(h, "run_experiment", "harness.run_experiment")
    tracer.wrap(h, "make_batches", "data.make_batches")
    tracer.wrap(h, "evaluate", "metrics.evaluate", lambda a, r: {"n": a[1].n})
    tracer.wrap(h, "estimate_sharpness", "metrics.estimate_sharpness")
    tracer.wrap(h, "model_divergence", "metrics.model_divergence")


def install_layers(tracer: Tracer, conv_names: dict[tuple, str]) -> None:
    """Spans on every layer boundary a training step or a CLI run crosses.

    ``conv_names`` maps a conv kernel shape to its layer name (``conv1`` ...),
    since clones of a model share shapes but not tensors.
    """
    nn, opt, st, h = sadtlab.nn, sadtlab.optim, sadtlab.strategies, sadtlab.harness

    orig_conv = nn.__dict__["conv2d"]

    def conv2d(x, kernel, *args, **kwargs):
        layer = conv_names.get(kernel.shape, "conv")
        attrs = {"x": x.shape, "k": kernel.shape}
        out = tracer.call(f"autodiff.{layer}.fwd", orig_conv, (x, kernel, *args), kwargs, attrs)
        node = out.node
        if node is not None:  # off-tape calls (evaluation) have no backward
            bw = node.backward_fn
            attrs["needs_x"] = node.needs[0]

            def timed_bw(g, needs):
                return tracer.call(f"autodiff.{layer}.bwd", bw, (g, needs), {}, attrs)

            node.backward_fn = timed_bw
        return out

    tracer._replace(nn, "conv2d", conv2d)

    nodes = lambda a, r: {"nodes": len(a[0].node.tape.nodes)}  # noqa: E731
    for mod in (st, sadtlab.metrics):
        tracer.wrap(mod, "backward", "autodiff.backward", nodes)
    tracer.wrap(nn.Model, "forward", "nn.forward")
    for method in ("snapshot", "restore", "add_scaled"):
        tracer.wrap(nn.ParamSet, method, f"nn.{method}")
    tracer.wrap(h, "save_checkpoint", "nn.save_checkpoint")
    for fn in ("adam_step", "add_noise", "subtract_noise", "aggregate_gradients",
               "gradient_centralize", "adaptive_gradient_clip"):
        tracer.wrap(st, fn, f"optim.{fn}")
    tracer.wrap_classmethod(opt.GradSet, "from_backward", "optim.from_backward")
    tracer.wrap(st.Strategy, "step", lambda a: f"strategies.{a[0].id}")
    tracer.wrap(h, "cutmix", "data.cutmix")
    tracer.wrap(h, "load_idx", "data.load_idx")
