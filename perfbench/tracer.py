"""In-memory spans around the public functions of each blochsteer layer.

``Tracer.install`` wraps every public function defined in a layer module and
rebinds each name under which a blochsteer module refers to it, so a call
through ``from .environment import decay_and_shift`` is traced as well as one
through ``environment.decay_and_shift``.  Three methods are wrapped on their
classes: ``TrajectorySpec.evaluate`` and ``ControlSchedule.value``, which the
pipeline calls per sample, and the batched ``TrajectorySpec.sample``.  No
source file changes; ``uninstall`` puts the originals back.

A span is ``(name, parent, start, end, self_s, op)``: ``parent`` is the index
of the enclosing span (-1 at top level), ``self_s`` the duration minus the
part covered by child spans, and ``op`` the benchmark operation it belongs to.
Each thread keeps its own span stack.  A span that starts on another thread
than the one that installed the tracer, with no span open on that thread, has
``parent`` CONCURRENT: it overlaps its caller in time, so its duration is not
subtracted from any span's self time.
"""

import inspect
import sys
import threading
from collections import Counter
from math import ceil
from time import perf_counter

PACKAGE = "blochsteer"
LAYERS = ("cli", "environment", "trajectories", "controls", "simulator",
          "liouvillian", "sun_algebra", "selfcheck")
METHODS = (("trajectories", "TrajectorySpec", "evaluate"),
           ("trajectories", "TrajectorySpec", "sample"),
           ("controls", "ControlSchedule", "value"))


def _rk4_steps(key):
    """Counter hook: RK4 steps of one integrator call, grid * ceil(min_steps / grid)."""
    def count(counts, signature, args, kwargs, result, exc):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid = len(bound.arguments["times"]) - 1
        counts[key] += grid * ceil(bound.arguments["min_steps"] / grid)
    return count


def _eval_points(counts, signature, args, kwargs, result, exc):
    t = args[1] if len(args) > 1 else kwargs["t"]
    counts["environment.eval_points"] += int(getattr(t, "size", 1))


def _singular(counts, signature, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "SingularControlError":
        counts["controls.singular_samples"] += 1


def _inserted_knots(counts, signature, args, kwargs, result, exc):
    # knots = ((component, times, values, slopes), ...); the table has 3 knots
    if result is not None and result.knots:
        counts["trajectories.inserted_knots"] += len(result.knots[0][1]) - 3


COUNTERS = {
    "simulator.integrate_bloch": _rk4_steps("simulator.rk4_steps"),
    "simulator.integrate_density": _rk4_steps("simulator.density_rk4_steps"),
    "environment.decay_and_shift": _eval_points,
    "environment.decay_shift_derivatives": _eval_points,
    "environment.propagator_u": _eval_points,
    "controls.two_level_controls": _singular,
    "controls.two_level_controls_detuning": _singular,
    "trajectories.mixed_inversion_trajectory": _inserted_knots,
}
"""Counts recorded at a boundary from its arguments, result or exception."""


CONCURRENT = -2


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner = threading.current_thread()
        self._patches = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def call(self, name, fn, args, kwargs, count=None, signature=None):
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1][0]
        else:
            parent = -1 if threading.current_thread() is self._owner else CONCURRENT
        with self._lock:
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
        stack.append(frame)
        result = exc = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as error:
            exc = error
            raise
        finally:
            end = perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            self.spans[frame[0]] = (name, parent, start, end, end - start - frame[1], self.op)
            if count is not None:
                with self._lock:
                    count(self.counts, signature, args, kwargs, result, exc)

    def _wrapper(self, name, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, signature)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrapper(f"{layer}.{attr}", value)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrapper(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
