"""Out-of-program tracing: counted wrappers on sdualkit's public names, plus spans.

Wrappers replace a function wherever a caller looks it up: on its defining
module or class, and on every loaded ``sdualkit`` module that imported the
name (``sdualkit.abelian_coulomb.eval_product`` as well as
``sdualkit.exactalg.eval_product``). Hot functions keep a call count and
total inclusive time, not one span per call. Spans mark the outer
boundaries (check, table, product, chain reading); they
live in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


class Stat:
    __slots__ = ("calls", "seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.phase = None
        # chain_to_orbit slow path and the partitions it enumerates
        self.slow_calls = 0
        self.enumerated = 0
        self._in_chain = 0
        self._counting = 0
        # (weights, exponents) pairs passed to eval_product
        self._factors_seen: set = set()
        self.factor_calls: dict[str, list[int]] = {}

    # -- spans -------------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, func):
        stat = self.stats.setdefault(name, Stat())

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if stat.depth:
                return func(*args, **kwargs)
            stat.depth = 1
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                stat.seconds += perf_counter() - start
                stat.depth = 0

        return wrapper

    def install(self, wrapped: dict[str, tuple[str, str]]) -> None:
        """Wrap each (module, attribute path) and rebind every alias of it."""
        for name, (module_name, path) in wrapped.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._timed(name, func)
            if name == "partitions.chain_to_orbit":
                wrapper = self._chain_wrapper(wrapper)
            elif name == "exactalg.eval_product":
                wrapper = self._factor_wrapper(wrapper)
            replacement = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
            _rebind(owner, func, raw, replacement, wrapper)
        self._wrap_partitions_of()

    def _chain_wrapper(self, inner):
        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            before = self.enumerated
            self._in_chain += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._in_chain -= 1
                if self.enumerated != before:
                    self.slow_calls += 1

        return wrapper

    def _factor_wrapper(self, inner):
        @functools.wraps(inner)
        def wrapper(factors, rank=None):
            factors = list(factors)
            key = (rank, tuple((form.coeffs, e) for form, e in factors))
            counts = self.factor_calls.setdefault(self.phase or "all", [0, 0])
            counts[0] += 1
            if key in self._factors_seen:
                counts[1] += 1
            else:
                self._factors_seen.add(key)
            return inner(factors, rank=rank)

        return wrapper

    def _wrap_partitions_of(self) -> None:
        """Count the candidates the slow path of chain_to_orbit enumerates."""
        partitions = sys.modules["sdualkit.partitions"]
        raw = partitions.partitions_of
        tracer = self

        def counted(gen):
            tracer._counting += 1
            try:
                for item in gen:
                    tracer.enumerated += 1
                    yield item
            finally:
                tracer._counting -= 1

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            gen = raw(*args, **kwargs)
            if tracer._in_chain and not tracer._counting:
                return counted(gen)
            return gen

        _rebind(partitions, raw, raw, wrapper, wrapper)

    # -- results -----------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def repeat_share(self, phase: str | None = None) -> float:
        if phase is None:
            calls = sum(c for c, _ in self.factor_calls.values())
            repeats = sum(r for _, r in self.factor_calls.values())
        else:
            calls, repeats = self.factor_calls.get(phase, (0, 0))
        return repeats / calls if calls else 0.0

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str, extra: dict) -> None:
        doc = {
            "spans": self.spans,
            "self_s": self.self_times(),
            "counters": {k: {"calls": v.calls, "s": v.seconds} for k, v in self.stats.items()},
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name, "parent": None, "start": 0.0, "end": 0.0}

    def __enter__(self):
        t = self.tracer
        self.record["parent"] = t._open[-1] if t._open else None
        t.spans.append(self.record)
        t._open.append(self.record["id"])
        self.record["start"] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.tracer._open.pop()
        return False


def _rebind(owner, func, raw, replacement, wrapper) -> None:
    """Replace ``raw`` on its owner and every sdualkit alias of ``func``."""
    for key, value in list(vars(owner).items()):
        if value is raw or value is func:
            setattr(owner, key, replacement)
    if isinstance(owner, type):
        return
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("sdualkit"):
            continue
        for key, value in list(vars(module).items()):
            if value is func:
                setattr(module, key, wrapper)


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one call."""

    phase = None

    def span(self, name: str):
        return _NULL_SPAN


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
