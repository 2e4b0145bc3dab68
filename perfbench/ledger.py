"""Per-layer self-time ledger for the traced run.

The traced run wraps every public function of each layer from here, so
the program under test is unchanged.  A wrapper records one span per
call (one per resumption for generator functions): the span's duration
minus the part its child spans cover is the layer's *self time*.  Spans
nest through a single stack, because the benchmark runs on one thread.

Module-level functions are patched in their module and in every
``repro`` module that imported them by name, so a call site that holds
its own reference still reaches the wrapper.  A call site that escapes
anyway shows up as a layer with zero calls, which the benchmark treats
as a failure, never as 0%.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer name -> (module, class or None for module-level functions).
#: ``backends`` is filled in per workload with the adapter class.
LAYER_TARGETS: Dict[str, Tuple[Tuple[str, Optional[str]], ...]] = {
    "core.generator": (("repro.core.generator", "DatabaseGenerator"),),
    "core.operations": (("repro.core.operations", "Operations"),),
    "backends": (),
    "engine.store": (("repro.engine.store", "ObjectStore"),),
    "engine.serializer": (("repro.engine.serializer", None),),
    "engine.btree": (("repro.engine.btree", "BTree"),),
    "engine.heap": (
        ("repro.engine.heap", "HeapFile"),
        ("repro.engine.slotted", None),
    ),
    "engine.buffer": (
        ("repro.engine.buffer", "BufferPool"),
        ("repro.engine.pages", "PageFile"),
        ("repro.engine.vfs", "RealVFS"),
        ("repro.engine.vfs", "RealVFSFile"),
    ),
    "engine.wal": (
        ("repro.engine.wal", "WriteAheadLog"),
        ("repro.engine.wal", None),
    ),
    "netsim.cache": (("repro.netsim.cache", "WorkstationCache"),),
    "netsim.server": (("repro.netsim.server", "ObjectServer"),),
    "sharding.router": (("repro.sharding.router", "ShardRouter"),),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_TARGETS)

#: Public functions left unwrapped: O(1) accessors called once per
#: record, whose span would cost several times their body and inflate
#: the caller's self time.  Their time stays with the caller.
UNWRAPPED = frozenset({"repro.engine.buffer.BufferPool.frame_lsn"})

#: Wrapped functions whose call counts the per-layer metrics report.
DECODE_FUNCTIONS = (
    "repro.engine.serializer.decode",
    "repro.engine.serializer.decode_view",
)
PROBE_FUNCTIONS = (
    "repro.engine.btree.BTree.search",
    "repro.engine.btree.BTree.search_unique",
    "repro.engine.btree.BTree.contains",
    "repro.engine.btree.BTree.scan_range",
)
PAGE_READ_FUNCTIONS = ("repro.engine.pages.PageFile.read_page",)


class Snapshot:
    """Ledger totals at one instant; subtract two to get a pass's share."""

    __slots__ = ("self_s", "top_s", "layer_calls", "calls")

    def __init__(self, self_s, top_s: float, layer_calls, calls) -> None:
        #: Layer -> self time in seconds.
        self.self_s: Dict[str, float] = self_s
        #: Time covered by outermost spans; the rest of a timed region
        #: is unattributed.
        self.top_s = top_s
        #: Layer -> calls.
        self.layer_calls: Dict[str, int] = layer_calls
        #: Qualified function name -> calls.
        self.calls: Dict[str, int] = calls

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        return Snapshot(
            {k: v - other.self_s[k] for k, v in self.self_s.items()},
            self.top_s - other.top_s,
            {k: v - other.layer_calls[k] for k, v in self.layer_calls.items()},
            {k: v - other.calls.get(k, 0) for k, v in self.calls.items()},
        )

    def function_calls(self, names: Sequence[str]) -> int:
        """Calls recorded for the named functions."""
        return sum(self.calls.get(name, 0) for name in names)


class _Site:
    """Totals of one wrapped function."""

    __slots__ = ("layer", "calls", "self_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0


class Ledger:
    """Self-time and call accounting for the wrapped layers."""

    def __init__(self) -> None:
        self._sites: Dict[str, _Site] = {}
        # Child time of each open span; the bottom entry collects the
        # time of outermost spans.
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- accounting --------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Current totals."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for site in self._sites.values():
            self_s[site.layer] += site.self_s
            layer_calls[site.layer] += site.calls
        calls = {key: site.calls for key, site in self._sites.items()}
        return Snapshot(self_s, self._stack[0], layer_calls, calls)

    def _span(self, layer: str, key: str, fn: Callable) -> Callable:
        site = self._sites.setdefault(key, _Site(layer))
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                site.self_s += elapsed - stack.pop()
                site.calls += 1
                stack[-1] += elapsed

        return span

    def _wrap(self, layer: str, key: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            # Each resumption is a span, so the work of a lazily
            # consumed iterator lands in its own layer, not the caller's.
            def generator_span(*args, **kwargs):
                step = self._span(layer, key, fn(*args, **kwargs).__next__)
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    yield item

            return functools.wraps(fn)(generator_span)
        return functools.wraps(fn)(self._span(layer, key, fn))

    # -- patching ----------------------------------------------------

    def _patch(self, owner: object, name: str, value: object) -> None:
        # vars(), not getattr(): getattr on a class unwraps staticmethods.
        original = vars(owner).get(name)
        self._patches.append((owner, name, original, original is not None))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        seen = set()
        for base in cls.__mro__:
            if not base.__module__.startswith("repro."):
                continue
            for name, raw in vars(base).items():
                if name.startswith("_") or name in seen:
                    continue
                seen.add(name)
                key = f"{cls.__module__}.{cls.__qualname__}.{name}"
                if key in UNWRAPPED:
                    continue
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(layer, key, raw.__func__))
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, key, raw.__func__))
                elif inspect.isfunction(raw):
                    wrapped = self._wrap(layer, key, raw)
                else:
                    continue  # properties and constants are not calls
                self._patch(cls, name, wrapped)

    def _wrap_module(self, layer: str, module) -> None:
        for name, fn in list(vars(module).items()):
            if (
                name.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
            ):
                continue
            wrapped = self._wrap(layer, f"{module.__name__}.{name}", fn)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and (
                    vars(other).get(name) is fn
                ):
                    self._patch(other, name, wrapped)

    def install(self, adapter: type) -> None:
        """Wrap every layer's public functions; ``adapter`` is the backend class."""
        if self._patches:
            raise RuntimeError("ledger wrappers are already installed")
        for layer, targets in LAYER_TARGETS.items():
            if layer == "backends":
                self._wrap_class(layer, adapter)
                continue
            for module_name, class_name in targets:
                module = importlib.import_module(module_name)
                if class_name is None:
                    self._wrap_module(layer, module)
                else:
                    self._wrap_class(layer, getattr(module, class_name))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original, owned = self._patches.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        if len(self._stack) != 1:
            raise RuntimeError("ledger uninstalled inside an open span")
