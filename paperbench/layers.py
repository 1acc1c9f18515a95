"""Per-layer self time, measured from outside the program.

:class:`LayerTimer` replaces the public entry points of each ``repro``
layer with timing wrappers for the duration of a traced run and puts the
original class attributes back afterwards.  The program's source is not
touched.  Accounting is stack based: a call's *self* time is its wall
time minus the time spent in wrapped calls it made, so the self times of
all layers plus the unattributed remainder add up to the traced wall time.

Only calls on the thread that created the timer are timed.  The
multiprocess backend fires its speculation checks on ``threading.Timer``
threads and runs workers in forked processes; their time overlaps the
driving thread's and is left out rather than double counted.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Dict, Iterator, List, Tuple

#: (metric key, "module:Class", method names).  A method is wrapped on the
#: class and on every subclass that defines it concretely, so e.g. each
#: model's own ``loss_and_grad`` is timed.  ``events`` is the event loop:
#: its self time includes the ``ps.engine`` callbacks it dispatches.
TARGETS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("events", "repro.events.simulator:Simulator", ("run",)),
    ("netsim.send", "repro.netsim.network:Network", ("send",)),
    ("ps.snapshot", "repro.ps.store:ParameterStore", ("snapshot",)),
    ("ps.apply_push", "repro.ps.store:ParameterStore", ("apply_push",)),
    ("ps.shm.create", "repro.ps.shm:ShmParamStore", ("create",)),
    ("ps.shm.unlink", "repro.ps.shm:ShmParamStore", ("unlink",)),
    ("ml.grad", "repro.ml.models.base:Model", ("loss_and_grad",)),
    ("ml.eval", "repro.ml.models.base:Model", ("loss",)),
    ("ml.optim", "repro.ml.optim:SgdUpdateRule", ("apply", "apply_stale")),
    ("ml.batch", "repro.ml.datasets.base:Partition", ("sample_batch",)),
    ("core.tuning", "repro.core.tuning:HyperparamTuner", ("retune",)),
    # Algorithm 2's two scheduler procedures: HandleNotification and the
    # timer-driven CheckResync.
    ("core.scheduler.notify", "repro.core.scheduler:SpecSyncScheduler",
     ("handle_notify",)),
    ("core.scheduler.check", "repro.core.scheduler:SpecSyncScheduler",
     ("_check_resync",)),
    ("sync", "repro.ps.policy:SyncPolicy",
     ("can_start_iteration", "on_iteration_complete")),
    ("obs.emit", "repro.obs.core:Tracer",
     ("span", "instant", "count", "observe",
      "flow_begin", "flow_end", "flow_discard")),
    ("obs.export", "repro.obs:", ("write_chrome_trace",)),
    ("runtime.run", "repro.runtime.multiprocess:MultiprocessRun", ("run",)),
    # The lock adapter that feeds notifies to the scheduler in the parent.
    ("runtime.notify", "repro.runtime.threaded:_ThreadSafeScheduler",
     ("handle_notify",)),
]

#: Modules whose subclasses must be imported before wrapping, so that
#: every concrete override exists when the class tree is walked.
_SUBCLASS_MODULES = (
    "repro.ml.models",
    "repro.ml.optim",
    "repro.sync",
    "repro.core.specsync",
)


def _resolve(spec: str):
    module_name, _, attr = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


def _class_tree(cls) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen


class LayerTimer:
    """Install, account and remove the layer timing wrappers."""

    def __init__(self) -> None:
        self._owner = threading.get_ident()
        #: Active calls: [metric key, time spent in wrapped callees].
        self._stack: List[list] = []
        keys = {key for key, _, _ in TARGETS}
        self.self_s: Dict[str, float] = dict.fromkeys(keys, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(keys, 0)
        self._saved: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero the accounting in place (the wrappers hold these dicts)."""
        for key in self.self_s:
            self.self_s[key] = 0.0
            self.calls[key] = 0

    def _timed(self, key: str, fn):
        owner = self._owner
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            # Count entries into a layer, not its calls to itself (a
            # policy delegating to its base policy is one sync call).
            if not stack or stack[-1][0] != key:
                calls[key] += 1
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return timed

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` to restore them."""
        if self._saved:
            raise RuntimeError("layer timers are already installed")
        for key, holder, name, original in _targets():
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._timed(key, original.__func__))
            elif getattr(original, "__isabstractmethod__", False):
                continue
            else:
                wrapped = self._timed(key, original)
            self._saved.append((holder, name, original))
            setattr(holder, name, wrapped)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)

    def __enter__(self) -> "LayerTimer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()


def _targets() -> Iterator[Tuple[str, object, str, object]]:
    """(metric key, holder, attribute name, current value) of each target."""
    for module_name in _SUBCLASS_MODULES:
        importlib.import_module(module_name)
    for key, spec, names in TARGETS:
        owner = _resolve(spec)
        holders = _class_tree(owner) if isinstance(owner, type) else [owner]
        for holder in holders:
            for name in names:
                if name in vars(holder):
                    yield key, holder, name, vars(holder)[name]


def wrapped_attributes() -> Dict[Tuple[object, str], object]:
    """Every attribute :class:`LayerTimer` may replace, as it is now.

    The self-test compares this before and after a traced run.
    """
    return {(holder, name): value for _, holder, name, value in _targets()}
