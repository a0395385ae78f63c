"""In-memory span tracer that wraps blgi's module-level functions by attribute.

A span is ``(id, parent, name, start, end, thread)``.  Spans opened in a
worker thread with no open span of their own take the innermost span open
on the main thread as their parent, which is the ``monte_carlo`` span that
submitted them to the pool.  Spans are kept in memory; :meth:`Tracer.dump`
writes them once the traced run has ended.

:func:`instrument` is the single list of layer boundaries the benchmark
measures.  It only rebinds module attributes, so the program's own code is
untouched and the un-instrumented runs pay nothing.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, threading.get_ident()))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, thread in self.spans:
                record = {
                    "run": self.run_id,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "thread": thread,
                }
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"run": self.run_id, "counts": dict(self.counts)}) + "\n")


class TimedGenerator:
    """Proxy for a ``numpy.random.Generator``: each draw is a span and a count."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._rng, attr)
        if not callable(value):
            return value

        def timed(*args, **kwargs):
            out = self._tracer.call("measurement.rng", value, *args, **kwargs)
            self._tracer.count("measurement.rng_draws", int(getattr(out, "size", 1)))
            return out

        return timed


def _rebind(modules, original, wrapper) -> None:
    """Point every module attribute bound to ``original`` at ``wrapper``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _spanned(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return tracer.call(name, func, *args, **kwargs)

    return wrapper


def _counted(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return func(*args, **kwargs)

    return wrapper


def _kernel(tracer: Tracer, name: str, func):
    """Batch kernel ``f(coeff, arm, spec, basis, rng)``: one span per arm, timed RNG."""
    signature = inspect.signature(func)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["rng"] = TimedGenerator(bound.arguments["rng"], tracer)
        arm = bound.arguments["arm"]
        return tracer.call(f"{name}.arm{arm}", func, *bound.args, **bound.kwargs)

    return wrapper


def _generator(tracer: Tracer, name: str, func):
    """Generator function: one span around each ``next`` so the consumer's work is not charged."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        inner = func(*args, **kwargs)
        while True:
            try:
                item = tracer.call(name, next, inner)
            except StopIteration:
                return
            yield item

    return wrapper


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported ``blgi`` by attribute."""
    import blgi
    from blgi import cli, config, lhv, measurement, protocol, qmath

    modules = (blgi, cli, config, lhv, measurement, protocol, qmath)

    def wrap(module, attr, make, name):
        original = getattr(module, attr, None)
        if original is not None:
            _rebind(modules, original, make(tracer, name, original))

    wrap(cli, "cmd_simulate", _spanned, "cli.cmd_simulate")
    wrap(protocol, "monte_carlo", _spanned, "protocol.monte_carlo")
    wrap(protocol, "iter_records", _generator, "protocol.iter_records")
    wrap(protocol, "exact_mean", _spanned, "protocol.exact_mean")
    wrap(protocol, "_integrate_mean", _counted, "protocol.integrate_mean_calls")
    wrap(protocol, "_run_chunk", _counted, "protocol.chunks")
    wrap(measurement, "bell_coefficients", _spanned, "measurement.bell_coefficients")
    wrap(measurement, "sample_gaussian_batch", _kernel, "measurement.gaussian_batch")
    wrap(measurement, "sample_ancilla_batch", _kernel, "measurement.ancilla_batch")
    wrap(measurement, "sample_projective_batch", _kernel, "measurement.projective_batch")
    wrap(qmath, "analyzer_basis", _counted, "qmath.analyzer_basis_calls")
    wrap(lhv, "random_strategy", _spanned, "lhv.random_strategy")
    wrap(lhv, "lhv_mean", _spanned, "lhv.lhv_mean")
    wrap(lhv, "calibration_check", _spanned, "lhv.calibration_check")
    manifest = config.RunManifest
    for attr in ("create", "write"):
        original = inspect.getattr_static(manifest, attr)
        func = original.__func__ if isinstance(original, classmethod) else original
        wrapped = _spanned(tracer, "config.manifest", func)
        setattr(manifest, attr, classmethod(wrapped) if isinstance(original, classmethod) else wrapped)
