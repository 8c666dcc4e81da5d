"""Span shims installed around each layer's public entry points.

Nothing here runs unless a traced run calls :func:`install`.  A shim
replaces *every* binding of an entry point that ``repro`` modules hold:
the defining module's attribute, each ``from ... import`` copy in other
modules, and, for methods, each subclass override.  A missed binding
would make a layer read zero calls, which the layer-coverage self-test
turns into a failure.

Spans nest on the one Python thread.  A span's self time is its
duration minus the durations of the spans opened directly inside it;
a layer re-entered while already open (a subclass method calling its
base, a helper calling a sibling entry point) records no second span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: Attribute set on every shim; a module scan for it finds leftovers.
SHIM_MARK = "__perfbench_layer__"


class Recorder:
    """Aggregates spans while armed: per-layer totals and parent edges."""

    def __init__(self) -> None:
        self.armed = False
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: (parent layer or "-", layer) -> inclusive seconds.
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []
        self._open: set[str] = set()

    def reset(self) -> None:
        self.__init__()

    def enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open.add(layer)
        return frame

    def exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        layer = frame[0]
        self._stack.pop()
        self._open.discard(layer)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.calls[layer] += 1
        self.inclusive[layer] += duration
        self.self_time[layer] += duration - frame[2]
        self.edges[(parent[0] if parent else "-", layer)] += duration

    def is_open(self, layer: str) -> bool:
        return layer in self._open


def _make_shim(recorder: Recorder, layer: str, fn, counter):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if not recorder.armed or recorder.is_open(layer):
            return fn(*args, **kwargs)
        frame = recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if counter is not None:
            name, measure = counter
            recorder.counts[name] += measure(args, result)
        return result

    setattr(shim, SHIM_MARK, layer)
    return shim


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def _import_all() -> None:
    """Import every ``repro`` module, so that each ``from ... import``
    copy and each subclass exists before the installer scans for them
    (a module first imported under the shims would keep one after
    :meth:`Installation.remove`)."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


#: Extra per-call counts some layers record: ``layer -> (stat, f)``.
COUNTERS = {
    "core.race_select": ("core.race_select.keys", lambda args, _r: len(args[0])),
}


class Installation:
    """The patches one :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, value: object) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(recorder: Recorder, layers) -> Installation:
    """Wrap every binding of every layer entry point with a span shim."""
    _import_all()
    done = Installation()
    modules = _repro_modules()
    for layer in layers:
        counter = COUNTERS.get(layer.name)
        for module_name, attr in layer.entries:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                for klass in _subclasses(getattr(module, cls_name)):
                    fn = klass.__dict__.get(method)
                    if fn is not None:
                        done.patch(
                            klass, method,
                            _make_shim(recorder, layer.name, fn, counter),
                        )
                continue
            fn = getattr(module, attr)
            shim = _make_shim(recorder, layer.name, fn, counter)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        done.patch(holder, name, shim)
    return done


def leftover_shims() -> list[str]:
    """Every shim still bound in a ``repro`` module or class."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if hasattr(value, SHIM_MARK):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, SHIM_MARK):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


def unwrapped_bindings(layers) -> list[str]:
    """Bindings of a run-phase entry point that still hold the original.

    Called while shims are installed: any hit is a ``from ... import``
    copy (or a subclass override) the installer missed.
    """
    missed = []
    modules = _repro_modules()
    for layer in layers:
        for module_name, attr in layer.entries:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                for klass in _subclasses(getattr(module, cls_name)):
                    fn = klass.__dict__.get(method)
                    if fn is not None and not hasattr(fn, SHIM_MARK):
                        missed.append(f"{klass.__qualname__}.{method}")
                continue
            bound = getattr(module, attr)
            if not hasattr(bound, SHIM_MARK):
                missed.append(f"{module_name}.{attr}")
                continue
            original = bound.__wrapped__
            for holder in modules:
                for name, value in vars(holder).items():
                    if value is original:
                        missed.append(f"{holder.__name__}.{name}")
    return missed
