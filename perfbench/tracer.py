"""Layer-boundary span recorder for the traced benchmark run.

The recorder patches the methods of every class defined in a layer's
modules (see ``LAYERS``) with thin wrappers, for the duration of one
traced measurement, and restores the originals afterwards.  Nothing
under ``src/`` is edited.  A wrapper opens a span only when control
crosses from one layer into another; a call that stays inside the
current layer passes straight through.  Generator methods (the
simulator's processes) are wrapped so that every *resumption* is a
span, which is how a coordinator's ``run_transaction`` or a NIC
handler gets charged for the slices it actually executes.

A span is (name, start, end, parent) with host times from
``time.perf_counter``.  Spans stay in memory (typed arrays) and are
written out once, after the measurement (:meth:`Tracer.dump`).  A
layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children; spans nest strictly, so
the self times of all layers add up to the root span.

``Simulator.run`` is also sliced: each ``run(until=T)`` executes as a
sequence of ``run(until=t)`` calls ``SLICE_US`` of simulated time
apart, and the pending-event count is sampled between slices
(``queue_peak``).  Stopping a run at a boundary and resuming it pops
the same entries in the same order, so slicing is neutral; the
benchmark checks that on every traced run.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import os
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

# Layer -> modules, as named in the benchmark's rationale (README.md).
# ``repro.sim._ckern`` belongs to ``sim`` but is compiled code: its
# functions cannot be wrapped, and their time lands on the caller.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.core", "repro.sim.equeue", "repro.sim.resources",
            "repro.sim.link", "repro.sim.fusion"),
    "core": ("repro.core.protocol", "repro.core.nic_runtime",
             "repro.core.node", "repro.core.messages", "repro.core.cluster",
             "repro.core.txn"),
    "store": ("repro.store.robinhood", "repro.store.nic_index",
              "repro.store.log", "repro.store.chained", "repro.store.object"),
    "hw": ("repro.hw.cpu", "repro.hw.dma", "repro.hw.ethernet",
           "repro.hw.network", "repro.hw.pcie", "repro.hw.nic",
           "repro.hw.rdma"),
    "baselines": ("repro.baselines.common", "repro.baselines.drtmh"),
    "workloads": ("repro.workloads.base", "repro.workloads.smallbank",
                  "repro.workloads.retwis"),
}

# Constructors are dunders and so are not wrapped by the sweep; cluster
# construction is a set-up entry point the benchmark reports
# (``core.cluster_build_s``), so these two are wrapped by name.
CONSTRUCTORS = (("repro.core.cluster", "XenicCluster"),
                ("repro.baselines.common", "BaselineCluster"))

ROOT_LAYER = "bench"
SLICE_US = 1.0


class Tracer:
    """Records spans for one traced measurement (see module docstring)."""

    def __init__(self) -> None:
        self.layer = ROOT_LAYER  # layer whose code is executing now
        self.top = -1  # index of the innermost open span
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._name_ix: Dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.queue_peak = 0
        self._patched: List[Tuple[type, str, object, object]] = []

    # -- spans ----------------------------------------------------------------

    def intern(self, name: str, layer: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return ix

    def call(self, ix: int, layer: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a new span."""
        prev_layer, parent = self.layer, self.top
        i = len(self.start)
        self.name_ix.append(ix)
        self.parent.append(parent)
        self.end.append(0.0)
        self.layer, self.top = layer, i
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self.layer, self.top = prev_layer, parent

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> Dict[str, float]:
        """Self time per layer over spans ``lo..hi-1`` (one subtree)."""
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        names = np.frombuffer(self.name_ix, dtype=np.int32)[lo:hi]
        dur = end - start
        local = parent - lo
        inside = local >= 0
        child = np.bincount(local[inside], weights=dur[inside],
                            minlength=hi - lo)
        own = dur - child
        by_name = np.bincount(names, weights=own, minlength=len(self.names))
        out = {layer: 0.0 for layer in LAYERS}
        out[ROOT_LAYER] = 0.0
        for ix, t in enumerate(by_name):
            out[self.name_layer[ix]] += float(t)
        return out

    def durations(self, name: str, lo: int, hi: int) -> List[float]:
        """Inclusive durations of the spans called ``name`` in ``lo..hi-1``."""
        ix = self._name_ix.get(name)
        if ix is None:
            return []
        return [self.end[i] - self.start[i] for i in range(lo, hi)
                if self.name_ix[i] == ix]

    def count(self, name: str, lo: int, hi: int) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            return 0
        names = np.frombuffer(self.name_ix, dtype=np.int32)[lo:hi]
        return int(np.count_nonzero(names == ix))

    def dump(self, path: str, meta: dict) -> None:
        """Write every recorded span (and ``meta``) to ``path`` (.npz)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            name_ix=np.frombuffer(self.name_ix, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
            layers=np.array(self.name_layer),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer class's methods; :meth:`uninstall` undoes it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from repro.sim.core import Simulator

        run = Simulator.__dict__["run"]
        for layer, modules in LAYERS.items():
            for modname in modules:
                module = importlib.import_module(modname)
                for cls in vars(module).values():
                    if (isinstance(cls, type) and cls.__module__ == modname
                            and not issubclass(cls, (BaseException,
                                                     enum.Enum))):
                        self._wrap_class(cls, layer)
        for modname, clsname in CONSTRUCTORS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._patch(cls, "__init__", self._plain(
                cls.__init__, "%s.__init__" % clsname, "core"))
        self._patch(Simulator, "run", self._plain(
            self._sliced_run(run), "Simulator.run", "sim"))

    def uninstall(self) -> None:
        for cls, attr, original, wrapper in reversed(self._patched):
            if cls.__dict__.get(attr) is not wrapper:
                continue  # replaced since, e.g. by the compiled leg
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._patched.clear()

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, fn in list(vars(cls).items()):
            if attr.startswith("__") or not inspect.isfunction(fn):
                continue  # dunders, properties, static/class methods
            name = "%s.%s" % (cls.__name__, attr)
            if inspect.isgeneratorfunction(fn):
                self._patch(cls, attr, self._generator(fn, name, layer))
            else:
                self._patch(cls, attr, self._plain(fn, name, layer))

    def _patch(self, cls: type, attr: str, wrapper) -> None:
        original = cls.__dict__.get(attr)
        self._patched.append((cls, attr, original, wrapper))
        setattr(cls, attr, wrapper)

    def _plain(self, fn, name: str, layer: str):
        ix = self.intern(name, layer)
        tracer = self
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.layer is layer:
                return fn(*args, **kwargs)
            return call(ix, layer, fn, args, kwargs)

        return traced

    def _generator(self, fn, name: str, layer: str):
        ix = self.intern(name, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return TracedGenerator(fn(*args, **kwargs), tracer, ix, layer)

        return traced

    def _sliced_run(self, run):
        tracer = self

        def sliced_run(sim, until=None):
            if until is None:
                return run(sim)
            t = sim.now
            while until - t > SLICE_US:
                t += SLICE_US
                run(sim, t)
                pending = sim.pending_events
                if pending > tracer.queue_peak:
                    tracer.queue_peak = pending
            return run(sim, until)

        return sliced_run


class TracedGenerator:
    """A generator proxy whose resumptions are spans.

    Supports what ``yield from`` and :class:`repro.sim.core.Process`
    use: iteration, ``send``, ``throw`` and ``close``."""

    __slots__ = ("_gen", "_tracer", "_ix", "_layer")

    def __init__(self, gen, tracer: Tracer, ix: int, layer: str):
        self._gen = gen
        self._tracer = tracer
        self._ix = ix
        self._layer = layer

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self) -> "TracedGenerator":
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        if tracer.layer is self._layer:
            return self._gen.send(value)
        return tracer.call(self._ix, self._layer, self._gen.send, (value,), {})

    def throw(self, *args):
        tracer = self._tracer
        if tracer.layer is self._layer:
            return self._gen.throw(*args)
        return tracer.call(self._ix, self._layer, self._gen.throw, args, {})

    def close(self) -> None:
        self._gen.close()
