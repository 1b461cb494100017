"""Per-layer census of a simulation, taken from outside the simulator.

A :class:`Census` patches a fixed set of public methods of ``repro`` at
class level while it is installed (``with census.installed(): ...``) and
restores them afterwards.  Nothing in ``src/repro`` knows it is being
watched.

Two kinds of records are kept, both in memory until the run ends:

* **Spans** around calls into a layer's public methods (``Link.send``,
  ``Host.receive``, ``PaseControlPlane.request``, ...).  Spans nest on one
  stack; a span's *self time* is its duration minus the time of the spans
  opened inside it.  A span re-entered with its own key (a subclass method
  calling ``super()``) is not opened twice.
* **Event spans** around every engine callback.  The scheduling methods
  ``Simulator.post/post_at/schedule/schedule_at`` are wrapped so that each
  callback is replaced by a closure that opens a span keyed by the layer
  owning the callback.  Only the callback object changes, never the
  number or order of scheduling calls, so sequence numbers and therefore
  the simulated results are identical to an untraced run.

The wrappers must be installed before any ``Simulator`` is built, because
``Link.__init__`` caches the bound ``sim.post``.

A callback's owner is the object a bound method is bound to (its class
and that class's bases are mapped through :data:`LAYER_OF_MODULE`), or
the module of a plain function.  Callbacks no layer claims are counted as
unattributed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Module prefix -> layer.  The longest matching prefix wins.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.link", "link"),
    ("repro.sim.queues", "link"),
    ("repro.sim.node", "node"),
    ("repro.transports", "transport"),
    ("repro.core.endhost", "transport"),
    ("repro.core.control_plane", "control"),
    ("repro.core.arbitration", "control"),
    ("repro.faults", "faults"),
    ("repro.harness", "harness"),
    ("repro.sim.topology", "harness"),
    ("repro.metrics", "harness"),
    ("repro.workloads", "harness"),
    ("repro.runner", "runner"),
)

#: Span key of an engine callback, by the layer that owns it.
EVENT_SPAN: Dict[Optional[str], str] = {
    "engine": "engine.event",
    "link": "link.wakeup",
    "node": "node.deliver",
    "transport": "transport.timer",
    "control": "control.event",
    "faults": "faults.event",
    "harness": "harness.launch",
    "runner": "runner.event",
    None: "unattributed.event",
}

Clock = Callable[[], float]


def layer_of_module(module: str) -> Optional[str]:
    """The layer a module belongs to, or None when no prefix matches."""
    best, best_len = None, -1
    for prefix, layer in LAYER_OF_MODULE:
        if ((module == prefix or module.startswith(prefix + "."))
                and len(prefix) > best_len):
            best, best_len = layer, len(prefix)
    return best


def owner_layer(fn: Callable) -> Optional[str]:
    """The layer owning an engine callback.

    A bound method belongs to its instance's class; a subclass defined
    outside ``repro`` (or one overriding the method) inherits the layer of
    the first ``repro`` class in its MRO.  A plain function or closure
    belongs to its module.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        for cls in type(owner).__mro__:
            layer = layer_of_module(cls.__module__)
            if layer is not None:
                return layer
        return None
    return layer_of_module(getattr(fn, "__module__", None) or "")


class Census:
    """Span stack plus per-key aggregates for one traced sweep."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        #: Open spans, innermost last: ``[key, start, child_time]``.
        self._stack: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Plain counters recorded at layer boundaries.
        self.counts: Dict[str, int] = defaultdict(int)
        #: Host seconds per harness phase (build, workload, metrics) and
        #: whole simulation points.
        self.phase_s: Dict[str, float] = defaultdict(float)
        #: Data-plane counters harvested from every link at point end.
        self.link_totals: Dict[str, int] = defaultdict(int)
        self._point: Optional[Dict[str, float]] = None
        self._links: list = []
        self._layer_by_type: Dict[type, Optional[str]] = {}

    # -- spans ---------------------------------------------------------
    def enter(self, key: str) -> None:
        self._stack.append([key, self.clock(), 0.0])

    def exit(self) -> None:
        key, start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[key] += 1
        self.total_s[key] += duration
        self.self_s[key] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def call(self, key: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span, unless a span with ``key`` is the
        innermost open one (a ``super()`` chain of one logical call)."""
        stack = self._stack
        if stack and stack[-1][0] == key:
            return fn(*args, **kwargs)
        self.enter(key)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def layer_self_s(self, layer: str) -> float:
        """Self time of every span key of one layer."""
        prefix = layer + "."
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)),
                   0.0)

    def attributed_events(self) -> int:
        """Engine callbacks that fired inside some layer's event span."""
        return sum(self.calls[key] for layer, key in EVENT_SPAN.items()
                   if layer is not None)

    # -- engine callbacks ----------------------------------------------
    def callback_layer(self, fn: Callable) -> Optional[str]:
        owner = getattr(fn, "__self__", None)
        if owner is None:
            return owner_layer(fn)
        cls = type(owner)
        try:
            return self._layer_by_type[cls]
        except KeyError:
            layer = self._layer_by_type[cls] = owner_layer(fn)
            return layer

    def wrap_callback(self, fn: Callable) -> Callable:
        """The closure the engine fires instead of ``fn``."""
        layer = self.callback_layer(fn)
        key = EVENT_SPAN[layer]
        enter, exit_ = self.enter, self.exit
        if layer == "link":
            link = getattr(fn, "__self__", None)
            counts = self.counts

            def fire_link(*args):
                # Read at fire time: a fault may swap the link's queue.
                queue = getattr(link, "queue", None)
                if queue is not None and len(queue) == 0:
                    counts["link.idle_wakeups"] += 1
                enter(key)
                try:
                    fn(*args)
                finally:
                    exit_()
            return fire_link

        def fire(*args):
            enter(key)
            try:
                fn(*args)
            finally:
                exit_()
        return fire

    # -- simulation points -----------------------------------------------
    def point_started(self) -> None:
        if self._point is None:
            self._point = {"start": self.clock()}
            self._links = []

    def mark(self, name: str, first: bool = True) -> None:
        """Record a phase boundary of the open point (first or last)."""
        point = self._point
        if point is not None and (not first or name not in point):
            point[name] = self.clock()

    def link_built(self, link) -> None:
        if self._point is not None:
            self._links.append(link)

    def point_finished(self) -> None:
        point = self._point
        if point is None:
            return
        end = self.clock()
        start = point["start"]
        workload = point.get("workload", start)
        run_start = point.get("run_start", workload)
        run_end = point.get("run_end", run_start)
        self.phase_s["build"] += workload - start
        self.phase_s["workload"] += run_start - workload
        self.phase_s["metrics"] += end - run_end
        self.phase_s["point"] += end - start
        self.counts["points"] += 1
        totals = self.link_totals
        for link in self._links:
            totals["pkts_sent"] += link.pkts_sent
            totals["queue_drops"] += link.queue.drops
            totals["ecn_marks"] += link.queue.marks
            totals["down_drops"] += link.down_drops
        self._links = []
        self._point = None

    # -- installation ----------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["Census"]:
        """Patch the traced methods for the duration of the block."""
        patches = _patch_table(self)
        originals = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
        try:
            for cls, name, wrapper in patches:
                setattr(cls, name, wrapper)
            yield self
        finally:
            for cls, name, original in originals:
                setattr(cls, name, original)


def _subclasses(root: type) -> List[type]:
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _span(census: Census, key: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return census.call(key, original, *args, **kwargs)
    return wrapper


def _schedule(census: Census, original: Callable) -> Callable:
    wrap = census.wrap_callback

    @functools.wraps(original)
    def wrapper(self, when, fn, *args):
        return original(self, when, wrap(fn), *args)
    return wrapper


def _marker(census: Census, original: Callable, before=None,
            after=None) -> Callable:
    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        if before is not None:
            before(self)
        result = original(self, *args, **kwargs)
        if after is not None:
            after(self)
        return result
    return wrapper


def _run_loop(census: Census, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        census.mark("run_start")
        try:
            return census.call("engine.loop", original, self, *args, **kwargs)
        finally:
            census.mark("run_end", first=False)
    return wrapper


def _patch_table(census: Census) -> List[Tuple[type, str, Callable]]:
    """Every ``(class, attribute, wrapper)`` the census installs."""
    from repro.core import PaseControlPlane
    from repro.core.arbitration import LinkArbitrator
    from repro.harness.experiment import ExperimentResult
    from repro.runner.cache import ResultCache
    from repro.sim.engine import Simulator
    from repro.sim.link import Link
    from repro.sim.node import Host, Switch
    from repro.transports.base import ReceiverAgent, SenderAgent
    from repro.workloads.generator import WorkloadConfig

    table: List[Tuple[type, str, Callable]] = []

    def span(cls, name, key):
        table.append((cls, name, _span(census, key, cls.__dict__[name])))

    for name in ("post", "post_at", "schedule", "schedule_at"):
        table.append((Simulator, name,
                      _schedule(census, Simulator.__dict__[name])))
    table.append((Simulator, "run", _run_loop(census, Simulator.run)))
    table.append((Simulator, "__init__", _marker(
        census, Simulator.__init__,
        before=lambda _sim: census.point_started())))
    table.append((WorkloadConfig, "__post_init__", _marker(
        census, WorkloadConfig.__post_init__,
        before=lambda _cfg: census.mark("workload"))))
    table.append((ExperimentResult, "__init__", _marker(
        census, ExperimentResult.__init__,
        after=lambda _res: census.point_finished())))
    table.append((Link, "__init__", _marker(
        census, Link.__init__, after=census.link_built)))

    span(Link, "send", "link.send")
    span(Switch, "receive", "node.switch_rx")
    span(Host, "receive", "node.host_rx")
    span(Host, "send", "node.host_tx")
    for cls in _subclasses(SenderAgent):
        if "on_packet" in cls.__dict__:
            span(cls, "on_packet", "transport.ack_rx")
        if "start" in cls.__dict__:
            span(cls, "start", "transport.start")
    for cls in _subclasses(ReceiverAgent):
        if "on_packet" in cls.__dict__:
            span(cls, "on_packet", "transport.data_rx")
    span(PaseControlPlane, "request", "control.request")
    for cls in _subclasses(LinkArbitrator):
        for name, key in (("arbitrate", "control.arbitrate"),
                          ("decide_all", "control.decide_all"),
                          ("expire", "control.expire")):
            if name in cls.__dict__:
                span(cls, name, key)
    span(ResultCache, "get", "runner.cache_get")
    span(ResultCache, "put", "runner.cache_put")
    return table
