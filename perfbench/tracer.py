"""Outside-in layer tracer: timed spans around the program's entry points.

The tracer replaces module attributes and class methods of the ``repro``
package with thin wrappers for the duration of one traced session, and puts
every original back on :meth:`Tracer.restore`.  Nothing under ``src/`` knows
it is being traced.

Each wrapper is one span.  A span's *self time* is its duration minus the
time covered by the spans nested inside it, so the self times of all spans
plus the untraced remainder (``other``) add up to the traced wall time.
Generators are traced per resumption: only the time spent inside the
generator counts, not the time its consumer spends between items.

Forked pool workers inherit the patched attributes.  At fork the child's
totals are zeroed, and after every cell the child writes its totals to
``<dump_dir>/worker-<pid>.json``; :func:`read_worker_dumps` merges them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, Generator, Iterator, List, Optional, Tuple


class Tracer:
    """Span bookkeeping plus the record of every attribute it patched.

    ``dump_dir`` is where forked workers write their totals; ``clock``
    exists so tests can drive the tracer with a fake clock.
    """

    def __init__(
        self, dump_dir: Optional[str] = None, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.dump_dir = dump_dir
        self.clock = clock
        #: span name -> accumulated self time in seconds
        self.self_s: Dict[str, float] = defaultdict(float)
        #: counter name -> accumulated count
        self.counts: Dict[str, float] = defaultdict(float)
        # One accumulator of child time per open span; the bottom entry is
        # the root and collects the duration of every top-level span.
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[object, str, bool, object]] = []
        self.in_fork_child = False
        os.register_at_fork(after_in_child=functools.partial(_reset_in_child, weakref.ref(self)))

    # -- spans ------------------------------------------------------------
    @property
    def top_level_s(self) -> float:
        """Summed duration of all top-level spans (the traced part of the wall)."""
        return self._stack[0]

    def span(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped as a span named ``name``.

        ``on_result`` receives each return value (after the span closed), so
        counters can be read where the work happened.
        """
        totals, stack, clock = self.self_s, self._stack, self.clock

        if on_result is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    totals[name] += elapsed - stack.pop()
                    stack[-1] += elapsed

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    totals[name] += elapsed - stack.pop()
                    stack[-1] += elapsed
                on_result(result)
                return result

        return traced

    def span_iter(self, fn: Callable, name: str) -> Callable:
        """``fn`` (which returns a generator) wrapped so that every resumption
        of the generator, and closing it, is a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(fn(*args, **kwargs), name)

        return traced

    def _iterate(self, generator: Generator, name: str) -> Iterator:
        step = self.span(generator.__next__, name)
        close = self.span(generator.close, name)
        try:
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item
        finally:
            close()

    def lookup(self, fn: Callable, name: str, miss_counter: str) -> Callable:
        """``fn`` wrapped to count calls as ``<name>.lookups`` and, among
        them, the calls that did not move ``miss_counter`` as ``<name>.hits``."""
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = counts[miss_counter]
            result = fn(*args, **kwargs)
            counts[name + ".lookups"] += 1
            if counts[miss_counter] == before:
                counts[name + ".hits"] += 1
            return result

        return traced

    def counter(self, name: str) -> Callable:
        """An ``on_result`` hook that counts calls as ``name``."""
        counts = self.counts

        def hook(_result: object) -> None:
            counts[name] += 1

        return hook

    # -- patching -----------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering how to undo it."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr`` (defined in the class body) with
        ``make(original)``; a classmethod is wrapped around its function."""
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            self.patch(cls, attr, classmethod(make(original.__func__)))
        else:
            self.patch(cls, attr, make(original))

    def patch_function(
        self,
        module_name: str,
        attr: str,
        make: Callable[[Callable], Callable],
        skip: Tuple[str, ...] = (),
    ) -> None:
        """Replace a module-level function with ``make(fn)`` at its home *and*
        at every ``repro`` module that bound it with ``from module import
        fn``, except the modules named in ``skip``."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for module_key, module in list(sys.modules.items()):
            if module is None or not module_key.startswith("repro") or module_key in skip:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, key, wrapper)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- pool workers ---------------------------------------------------------
    def dump_if_worker(self, _result: object) -> None:
        """In a forked worker, write this process's totals (atomically)."""
        if not self.in_fork_child or self.dump_dir is None:
            return
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump({"self_s": self.self_s, "counts": self.counts}, handle)
        os.replace(path + ".tmp", path)


def _reset_in_child(ref: "weakref.ReferenceType[Tracer]") -> None:
    tracer = ref()
    if tracer is None:
        return
    tracer.in_fork_child = True
    tracer.self_s.clear()
    tracer.counts.clear()
    tracer._stack[:] = [0.0]


def read_worker_dumps(dump_dir: str) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Sum the totals every worker of a traced pooled session wrote."""
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    for entry in sorted(os.listdir(dump_dir)):
        if not (entry.startswith("worker-") and entry.endswith(".json")):
            continue
        with open(os.path.join(dump_dir, entry), encoding="utf-8") as handle:
            dump = json.load(handle)
        for key, value in dump["self_s"].items():
            self_s[key] += value
        for key, value in dump["counts"].items():
            counts[key] += value
    return self_s, counts
