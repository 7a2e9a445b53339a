"""Per-function counters for the traced run, patched into stairstep from outside.

Every public function defined in a ``stairstep`` module, plus
``MonomialIdeal.contains`` and any extra benchmark callables, is replaced in
every namespace that holds it by a wrapper that counts calls and
accumulates total time and the time spent in wrapped callees.  Self time is
the difference.  No span is kept per call, so the hot ``contains`` costs a
counter update, not an allocation.  ``standard_monomials`` is left alone:
its ``lru_cache`` statistics already count its calls.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time


class Stat:
    __slots__ = ("calls", "total", "child", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.extra: dict[str, int] = {}

    @property
    def self_s(self) -> float:
        return self.total - self.child


def _add(extra: dict, key: str, n: int) -> None:
    extra[key] = extra.get(key, 0) + n


# Counts taken from a wrapped function's arguments and result.  They run
# outside every timed interval, so their cost shows as unattributed time.
HOOKS = {
    "resolution.build_resolution": lambda extra, args, res: (
        _add(extra, "generators", sum(m.rank for m in res.modules)),
        _add(extra, "entries", sum(len(d.entries) for d in res.differentials)),
    ),
    "oracle.check_exactness": lambda extra, args, report: _add(
        extra, "with_blocks", int(args[0].blocks is not None)),
    "oracle.graded_piece": lambda extra, args, piece: _add(
        extra, "nonzeros", sum(len(col) for col in piece.columns)),
    "oracle.sparse_nullspace": lambda extra, args, null: _add(extra, "vectors", len(null)),
    # generators of stage >= 2 are the ones the oracle draws from nullspaces
    "oracle.minimal_resolution_bruteforce": lambda extra, args, table: _add(
        extra, "generators", sum(v for (i, _d), v in table.entries.items() if i >= 2)),
}


class Tracer:
    """Wraps the package while active (``with tracer:``); counters persist."""

    def __init__(self, package, extra=()):
        """``extra``: (namespace, attribute, span name) for benchmark callables."""
        self.stats: dict[str, Stat] = {}
        self._stack = [0.0]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        names: dict[int, str] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    names[id(obj)] = f"{layer}.{attr}"
        wrappers = {}
        self._patches = []  # (namespace, attribute, original, wrapper)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                name = names.get(id(obj))
                if name is not None:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(name, obj)
                    self._patches.append((mod, attr, obj, wrappers[id(obj)]))
        ideal_cls = package.MonomialIdeal
        contains = ideal_cls.contains
        self._patches.append((ideal_cls, "contains", contains, self._wrap("monomials.contains", contains)))
        for namespace, attr, span in extra:
            original = getattr(namespace, attr)
            self._patches.append((namespace, attr, original, self._wrap(span, original)))

    def _wrap(self, name: str, fn):
        stat = self.stats[name] = Stat()
        stack = self._stack
        clock = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.child += stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stack[-1] += elapsed
            if hook is not None:
                h0 = clock()
                hook(stat.extra, args, result)
                stack[-1] += clock() - h0
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for namespace, attr, _original, wrapper in self._patches:
            setattr(namespace, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, original, _wrapper in reversed(self._patches):
            setattr(namespace, attr, original)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def self_total(self) -> float:
        """Sum of every wrapped function's self time."""
        return sum(s.self_s for s in self.stats.values())
