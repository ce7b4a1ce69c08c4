"""Per-layer host-time ledger, recorded from outside the program.

The tracer wraps the public entry points of each simulator layer (the
table :data:`LAYERS` below) with a span that reads ``time.perf_counter``
on entry and exit.  A layer's *self time* is the time inside its spans
minus the time inside the spans nested in them, so the self times of all
layers plus the root span's own remainder add up exactly to the root
span's wall time: every interval of the root belongs to exactly one
innermost open span.

Nothing in ``src/`` is edited.  Methods are replaced on their classes and
module-level functions are replaced in every ``repro`` module that bound
them, including by ``from x import f``, so the wrappers must be installed
before the cluster is built: objects that cache a bound method at
construction then cache the wrapper.  A missing entry point raises
:class:`TracerError`, so a rename in the program fails the traced run
instead of silently moving its time to the caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Entry",
    "LAYERS",
    "LAYER_NAMES",
    "LOOP_ENTRY",
    "DIGEST_ENTRY",
    "Tracer",
    "TracerError",
]


class TracerError(RuntimeError):
    """An entry point named in the layer table does not exist."""


@dataclass(frozen=True)
class Entry:
    """Entry points of one layer on one class (or module)."""

    layer: str
    module: str
    #: Class name, or ``None`` when ``methods`` are module-level functions.
    #: Overrides in subclasses are wrapped too, except where another entry
    #: claims the subclass for the same method.
    owner: Optional[str]
    methods: Tuple[str, ...]
    #: ``count(tracer, method, args, result)``, called after each call
    #: that is not nested directly inside another call of this entry (a
    #: ``super()`` chain or a batch method looping over its single form).
    count: Optional[Callable] = None
    #: ``enter(tracer)``, called before each call, outside its span.
    enter: Optional[Callable] = None


def _count_link(tracer, method, args, result):
    if method == "send":
        tracer.counts["link.packets"] += 1
    else:
        tracer.counts["link.trains"] += 1
        tracer.counts["link.packets"] += len(args[1])


def _count_fwd(tracer, method, args, result):
    if method == "handle_packet":
        tracer.counts["fwd.packets"] += 1
    elif method == "handle_train":
        tracer.counts["fwd.packets"] += len(args[1].packets)


def _count_accel(tracer, method, args, result):
    counts = tracer.counts
    if method == "contribute":
        counts["accel.segments"] += 1
        if result is not None:
            counts["accel.completions"] += (
                len(result) if isinstance(result, list) else 1
            )
    elif method == "contribute_batch":
        counts["accel.segments"] += len(args[1])
        counts["accel.completions"] += len(result)
    elif method == "force_broadcast" and result is not None:
        counts["accel.force_bcasts"] += 1


def _count_client(tracer, method, args, result):
    if method == "request_help":
        client, seg = args[0], args[1]
        tracer.counts["client.help"] += 1
        tracer.help_rounds.add((id(client), client.plan.round_of_seg(seg)))


def _count_coll(tracer, method, args, result):
    if method == "send_vector":
        tracer.counts["coll.chunks"] += result


def _count_codec(tracer, method, args, result):
    tracer.counts["codec.calls"] += 1
    tracer.counts["codec.elems"] += int(np.size(args[1]))


def _count_env(tracer, method, args, result):
    if method == "step":
        tracer.counts["env.steps"] += getattr(args[0], "num_envs", 1)


def _count_grad(tracer, method, args, result):
    tracer.counts["grad.calls"] += 1


def _count_optim(tracer, method, args, result):
    if method == "apply_update":
        tracer.counts["optim.steps"] += 1


def _mark_loop_start(tracer):
    tracer.marks.setdefault("loop_start", tracer._clock())


def _digest_update(tracer, method, args, result):
    update = np.ascontiguousarray(args[1])
    tracer.digests[id(args[0])].append(
        (zlib.crc32(update.view(np.uint8)), update.dtype.str, update.shape)
    )


#: The event loop; marks ``loop_start``, the first simulated event.
LOOP_ENTRY = Entry("loop", "repro.netsim.events", "Simulator", ("run",),
                   enter=_mark_loop_start)

#: The layer table: README.md maps each layer to its modules.
LAYERS: Tuple[Entry, ...] = (
    LOOP_ENTRY,
    Entry("link", "repro.netsim.link", "LinkEnd", ("send", "send_train"),
          _count_link),
    Entry("fwd", "repro.netsim.switch", "EthernetSwitch",
          ("handle_packet", "handle_train"), _count_fwd),
    Entry("fwd", "repro.netsim.node", "Host",
          ("send", "send_burst", "handle_packet", "handle_train"),
          _count_fwd),
    Entry("accel", "repro.core.switch", "ISwitch",
          ("handle_packet", "handle_train")),
    Entry("accel", "repro.core.accelerator", "AggregationEngine",
          ("contribute", "contribute_batch", "force_broadcast"),
          _count_accel),
    Entry("client", "repro.core.client", "AggregationClient",
          ("send_gradient", "request_help", "_receive", "_receive_train"),
          _count_client),
    Entry("client", "repro.core.protocol", "SegmentPlan", ("split",)),
    Entry("coll", "repro.distributed.transport", None, ("send_vector",),
          _count_coll),
    Entry("coll", "repro.distributed.transport", "VectorReceiver",
          ("_receive",)),
    Entry("coll", "repro.distributed.collectives.ps", "PsGather",
          ("submit", "submit_local", "_receive")),
    Entry("coll", "repro.distributed.collectives.ps", "PsScatter",
          ("broadcast", "send_to", "_deliver")),
    Entry("codec", "repro.core.compression", "GradientCodec",
          ("roundtrip", "engine_ingest", "engine_emit", "finalize_sum"),
          _count_codec),
    Entry("env", "repro.rl.envs.base", "Environment", ("step", "reset"),
          _count_env),
    Entry("env", "repro.rl.envs.vector", "VectorEnv", ("step", "reset"),
          _count_env),
    Entry("grad", "repro.rl.base", "Algorithm", ("compute_gradient",),
          _count_grad),
    Entry("optim", "repro.rl.base", "Algorithm", ("apply_update",),
          _count_optim),
    Entry("optim", "repro.nn.optim", "Optimizer", ("step", "step_flat")),
    Entry("setup", "repro.distributed.runner", None, ("build_cluster",)),
    Entry("setup", "repro.distributed.sync", "SyncStrategy", ("create",)),
)

#: Layers in report order; ``run`` is the root span's own remainder.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(e.layer for e in LAYERS))

#: Records a digest of every ``apply_update`` argument per algorithm
#: instance, for the per-round replica comparison.
DIGEST_ENTRY = Entry("optim", "repro.rl.base", "Algorithm", ("apply_update",),
                     _digest_update)


class Tracer:
    """Wraps the entry points of ``entries`` and keeps the ledger.

    Use as a context manager, or call :meth:`install` and
    :meth:`uninstall`.  Spans are kept as running sums per layer.
    """

    def __init__(self, entries=LAYERS, clock=time.perf_counter) -> None:
        self.entries = tuple(entries)
        self._clock = clock
        self._stack: List[list] = []
        self._undo: List[tuple] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.help_rounds: set = set()
        self.digests: Dict[int, list] = defaultdict(list)
        self.marks: Dict[str, float] = {}
        self.root_s = 0.0

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._undo:
            raise TracerError("tracer is already installed")
        try:
            for entry in self.entries:
                self._install_entry(entry)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    # ------------------------------------------------------------------
    def _install_entry(self, entry: Entry) -> None:
        module = importlib.import_module(entry.module)
        if entry.owner is None:
            for name in entry.methods:
                original = getattr(module, name, None)
                if not callable(original):
                    raise TracerError(
                        f"entry point {entry.module}.{name} not found"
                    )
                self._patch_function(original, self._wrap(original, entry, name))
            return
        cls = getattr(module, entry.owner, None)
        if not isinstance(cls, type):
            raise TracerError(f"class {entry.module}.{entry.owner} not found")
        claimed = {
            (getattr(importlib.import_module(e.module), e.owner, None), name)
            for e in self.entries
            if e.owner is not None and e is not entry
            for name in e.methods
        }
        for name in entry.methods:
            patched = 0
            if name in vars(cls):
                self._patch_method(cls, name, entry)
                patched += 1
            seen, todo = set(), list(cls.__subclasses__())
            while todo:
                sub = todo.pop()
                if sub in seen or (sub, name) in claimed:
                    continue
                seen.add(sub)
                if name in vars(sub):
                    self._patch_method(sub, name, entry)
                    patched += 1
                todo.extend(sub.__subclasses__())
            if not patched:
                raise TracerError(
                    f"entry point {entry.module}.{entry.owner}.{name} not found"
                )

    def _patch_method(self, cls: type, name: str, entry: Entry) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, entry, name))
        else:
            wrapped = self._wrap(raw, entry, name)
        setattr(cls, name, wrapped)
        self._undo.append((cls, name, raw))

    def _patch_function(self, original, wrapper) -> None:
        """Rebind ``original`` in every ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def _wrap(self, fn, entry: Entry, method: str):
        stack = self._stack
        clock = self._clock
        self_time = self.self_time
        layer = entry.layer
        count = entry.count
        enter = entry.enter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(tracer)
            nested = bool(stack) and stack[-1][1] is entry
            frame = [layer, entry, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_time[layer] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
            if count is not None and not nested:
                count(tracer, method, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def root(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span; its remainder is layer ``run``."""
        if self._stack:
            raise TracerError("root span must not be nested")
        frame = ["run", None, 0.0]
        self._stack.append(frame)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self._clock() - start
            self._stack.pop()
            self.root_s += elapsed
            self.self_time["run"] += elapsed - frame[2]
