"""Call tracer for the benchmark's traced runs.

Wraps functions and methods of the program in place (no source edits),
records per-name call counts and *self* time — a span's duration minus
the time its child spans cover — and restores every original binding
on :meth:`Tracer.restore`.  Only serial workloads are traced: the
span stack is a single list, not per thread.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class HitProbe:
    """How a cache-backed span reports its hits.

    ``hits`` names the counter attribute of the call's first argument
    (the cache object) whose increase counts hits; ``lookups`` names the
    attributes whose summed increase is the base.  With ``lookups``
    empty, every outermost call is one lookup.
    """

    hits: str
    lookups: Tuple[str, ...] = ()


class Tracer:
    """Span accounting over wrapped callables.

    ``calls[name]`` and ``self_s[name]`` accumulate per span name;
    ``samples[name]`` keeps inclusive durations for names installed
    with ``keep_samples``; ``hits``/``lookups`` accumulate the
    :class:`HitProbe` deltas of outermost calls.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.hits: Dict[str, int] = defaultdict(int)
        self.lookups: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []       # child time of open spans
        self._depth: Dict[str, int] = defaultdict(int)
        self._restore: List[Tuple[object, str, object, bool]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, *, keep_samples: bool = False,
             probe: Optional[HitProbe] = None) -> Callable:
        """*fn* wrapped so each call is one span named *name*."""
        stack, depth = self._stack, self._depth
        calls, self_s, samples = self.calls, self.self_s, self.samples
        hits, lookups = self.hits, self.lookups

        def counters(obj) -> Tuple[int, int]:
            base = sum(getattr(obj, attr) for attr in probe.lookups)
            return getattr(obj, probe.hits), base

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outer = probe is not None and depth[name] == 0
            if outer:
                hits0, base0 = counters(args[0])
            depth[name] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if keep_samples:
                    samples[name].append(elapsed)
                if outer:
                    hits1, base1 = counters(args[0])
                    hits[name] += hits1 - hits0
                    lookups[name] += (base1 - base0 if probe.lookups
                                      else 1)

        span.__tracer__ = self
        return span

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    # -- installation ----------------------------------------------------

    def install_method(self, cls: type, attr: str, name: str,
                       **options) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method) on *cls*."""
        own = attr in cls.__dict__
        original = cls.__dict__[attr] if own else getattr(cls, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__,
                                            **options))
        elif isinstance(original, staticmethod):
            wrapped = staticmethod(self.wrap(name, original.__func__,
                                             **options))
        else:
            wrapped = self.wrap(name, original, **options)
        self._restore.append((cls, attr, original, own))
        setattr(cls, attr, wrapped)

    def install_function(self, module, attr: str, name: str,
                         **options) -> int:
        """Wrap the module-level function ``module.attr`` at every
        module global that binds it (``from m import f`` copies the
        reference into the importer).  Returns the bindings patched."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **options)
        patched = 0
        for namespace in list(sys.modules.values()):
            space = getattr(namespace, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for key, value in list(space.items()):
                if value is original:
                    self._restore.append((namespace, key, original, True))
                    setattr(namespace, key, wrapped)
                    patched += 1
        return patched

    def restore(self) -> None:
        """Put every original binding back, newest first."""
        while self._restore:
            target, attr, original, own = self._restore.pop()
            if own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)

    def leaked(self) -> List[str]:
        """Every module global or class attribute still bound to one of
        this tracer's spans (empty after :meth:`restore`)."""
        def is_span(value) -> bool:
            func = getattr(value, "__func__", value)
            return getattr(func, "__tracer__", None) is self

        found = []
        for module in list(sys.modules.values()):
            space = getattr(module, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for key, value in list(space.items()):
                if is_span(value):
                    found.append(f"{module.__name__}.{key}")
                elif isinstance(value, type):
                    found.extend(f"{module.__name__}.{key}.{attr}"
                                 for attr, member in vars(value).items()
                                 if is_span(member))
        return sorted(set(found))


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of *values* (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]
