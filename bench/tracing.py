"""Span tracer for the benchmark's traced pass.

The tracer wraps public dbpdet functions from the outside.  Each call
made while the tracer is active records one span: the traced name, the
span that was open when the call started (its parent), and start and
end times.  Spans stay in memory until :meth:`Tracer.drain`, which turns
them into per-name call counts and self times (a span's duration minus
the durations of its direct children).  Nothing under ``src/`` changes.
"""

import time
from functools import wraps

import numpy as np


class Tracer:
    """Records spans for a fixed list of traced names."""

    def __init__(self, labels):
        self.labels = list(labels)
        self.active = False
        self.calls = np.zeros(len(self.labels), dtype=np.int64)
        self.self_s = np.zeros(len(self.labels))
        self._ids: list[int] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._stack = [-1]         # -1 is the benchmark step that encloses every span
        self._patches = []         # (owner, attribute, original) in install order

    def wrap(self, label, fn, on_return=None):
        """Return ``fn`` wrapped so that each active call records a span.

        ``on_return`` is called with the result of each active call.
        """
        name_id = self.labels.index(label)
        ids, parents, starts, ends, stack = (self._ids, self._parents, self._starts,
                                             self._ends, self._stack)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def install(self, targets, modules, on_return=None):
        """Patch every target where it is called.

        ``targets`` maps a label to ``(module, qualname)``.  A method
        (``Class.name``) is patched on its class.  A function is patched
        in every module of ``modules`` that binds the same object, since
        modules import names directly (``from .modem import qam_map``).
        ``on_return`` maps a label to the callback passed to :meth:`wrap`.
        """
        on_return = on_return or {}
        for label, (module, qualname) in targets.items():
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                self._patch(owner, attr, self.wrap(label, original, on_return.get(label)))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(label, original, on_return.get(label))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def drain(self, scale=1.0):
        """Fold the recorded spans into ``calls`` and ``self_s``; forget the spans.

        Self times are multiplied by ``scale`` (seconds to reference seconds).
        """
        if self._stack != [-1]:
            raise RuntimeError("cannot drain while a traced call is open")
        n = len(self._ids)
        if n == 0:
            return
        ids = np.asarray(self._ids)
        parents = np.asarray(self._parents)
        dur = np.asarray(self._ends) - np.asarray(self._starts)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        k = len(self.labels)
        self.calls += np.bincount(ids, minlength=k)
        self.self_s += scale * np.bincount(ids, weights=dur - children, minlength=k)
        for spans in (self._ids, self._parents, self._starts, self._ends):
            spans.clear()
