"""Outside-in layer tracing for the campaign benchmark.

The tracer rebinds functions of the program under test to wrappers that
record one span per call: the call count, the inclusive duration and the
self time, which is the duration minus the durations of the spans opened
inside it.  Nothing in the program changes; ``restore`` puts every original
binding back.  Spans live on one stack, so traced code must run on one
thread, which the benchmark guarantees by keeping ``threads`` at 1.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

# The modules whose public functions get one span each.  ``cli``, ``errors``
# and ``__main__`` do no measurable work of their own.
LAYER_MODULES = ("linalg", "calculus", "bipartite", "entropy", "oracles", "report")

# Channel factories that campaigns call directly; together they are the
# ``bipartite.channel_build`` span group.
CHANNEL_BUILDERS = ("random_pinching", "conditional_expectation_1_channel", "random_mixed_unitary")


class Tracer:
    """Span statistics per name, plus the bindings to undo on ``restore``."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[list[int]] = []
        self._bindings: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_return=None):
        """A wrapper of ``fn`` that records a span named ``name``.

        ``on_return`` is called with each result, outside the span.
        """
        clock, open_spans = self.clock, self._open
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                calls[name] += 1
                self_ns[name] += elapsed - children[0]
                total_ns[name] += elapsed
                if open_spans:
                    open_spans[-1][0] += elapsed
            if on_return is not None:
                on_return(result)
            return result

        traced.traced_span = name
        return traced

    def bind(self, owner, key: str, value) -> None:
        """Set ``owner.key`` (or ``owner[key]`` for a dict), remembering the old value."""
        if isinstance(owner, dict):
            self._bindings.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._bindings.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def restore(self) -> None:
        """Undo every binding, newest first."""
        while self._bindings:
            owner, key, original = self._bindings.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()


def package_modules(package) -> list:
    """The package object and every loaded submodule of it."""
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


def _rebind_everywhere(tracer: Tracer, modules, original, wrapper) -> None:
    # Modules use ``from ... import``, so one function has one binding per
    # importing module; each one is replaced.
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                tracer.bind(module, attr, wrapper)


def _count_channel(tracer: Tracer, channel) -> None:
    # Computed from the returned channel's shape: the idempotence probe of a
    # conditional expectation pushes every probe through every term twice,
    # on the full matrix-unit basis up to dimension 16 and on 16 probes above.
    # A channel stored some other way than as a stack of unitaries counts 0.
    unitaries = getattr(channel, "unitaries", None)
    if unitaries is None:
        return
    terms, dim = unitaries.shape[0], unitaries.shape[1]
    tracer.counts["bipartite.channel_terms"] += terms
    if getattr(channel, "is_conditional_expectation", False):
        probes = dim * dim if dim <= 16 else 16
        tracer.counts["bipartite.probe_applications"] += probes * terms * 2


def instrument(tracer: Tracer, package) -> None:
    """Wrap the layer functions of ``package`` (the imported ``entropygap``).

    Besides the public functions of the layer modules, a few named internals
    are wrapped when they exist; a later version of the program without one
    of them reports no calls for it instead of failing.
    """
    modules = package_modules(package)
    prefix = package.__name__ + "."
    for layer in LAYER_MODULES:
        module = sys.modules[prefix + layer]
        public = [(attr, value) for attr, value in vars(module).items()
                  if inspect.isfunction(value) and value.__module__ == module.__name__
                  and not attr.startswith("_")]
        for attr, fn in public:
            hook = None
            if layer == "bipartite" and attr in CHANNEL_BUILDERS:
                hook = functools.partial(_count_channel, tracer)
            _rebind_everywhere(tracer, modules, fn, tracer.wrap(f"{layer}.{attr}", fn, hook))

    linalg = sys.modules[prefix + "linalg"]
    bipartite = sys.modules[prefix + "bipartite"]
    campaigns = sys.modules[prefix + "campaigns"]
    # Constructors are traced through their methods so that the classes, and
    # every isinstance check against them, stay untouched.
    for owner, method, name in ((getattr(linalg, "RngStream", None), "__init__", "linalg.RngStream"),
                                (getattr(bipartite, "MixedUnitaryChannel", None), "__post_init__",
                                 "bipartite.MixedUnitaryChannel")):
        if owner is not None and method in vars(owner):
            tracer.bind(owner, method, tracer.wrap(name, vars(owner)[method]))
    for module, attr, name in ((bipartite, "_idempotence_defect", "bipartite.idempotence_probe"),
                               (campaigns, "run_campaign", "campaigns.run_campaign"),
                               (campaigns, "_c9_descent", "campaigns.c9_descent")):
        original = getattr(module, attr, None)
        if original is not None:
            _rebind_everywhere(tracer, modules, original, tracer.wrap(name, original))
    samplers = getattr(campaigns, "_SAMPLERS", {})
    for campaign, sampler in list(samplers.items()):
        tracer.bind(samplers, campaign, tracer.wrap("campaigns.sample", sampler))
