"""Measurement core: fresh imports, the host-speed reference, the closed-loop
pass runner and the run stamp.

Every workload is a list of *units*: zero-argument callables that make one
call into the public API of ``stabilitylab`` and return its output.  A pass
calls every unit once, in order, each call starting only after the previous
one returned (a closed loop with one caller).  Passes repeat until the run's
time budget is spent, with a floor of ``MIN_PASSES``.

Two kinds of host noise are handled.  Bursts much shorter than a pass are
removed by taking each unit's median over the passes.  Stretches of a
different host speed, which reached 45% and lasted up to a minute on a
shared 2-vCPU VM, are removed by ``Speed``: between calls, outside the timed
regions, a fixed pure-Python kernel is timed, and every call's wall time is
scaled by ``REFERENCE_S`` over the kernel's median duration within
``Speed.WINDOW_S`` of the call.  Reported times are therefore *reference
seconds*: seconds on a host where the kernel takes ``REFERENCE_S``.  The raw
wall-clock values are kept in the run stamp.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

PACKAGE = "stabilitylab"
SUBMODULES = (
    "graphs",
    "graph6",
    "canonical",
    "catalog",
    "independence",
    "stability",
    "critical",
    "structure",
    "enumeration",
    "cli",
)
MIN_PASSES = 3


def src_dir(root: str) -> str | None:
    """The checkout's ``src`` directory, or None when the package is not there."""
    src = os.path.join(root, "src")
    if os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        return src
    return None


def fresh_import(src: str) -> SimpleNamespace:
    """Import the package from ``src`` with every module-level cache empty."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module(PACKAGE)
    expected = os.path.join(src, PACKAGE)
    if os.path.dirname(os.path.abspath(pkg.__file__)) != expected:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not {expected}")
    mods = SimpleNamespace(package=pkg)
    for name in SUBMODULES:
        setattr(mods, name, importlib.import_module(f"{PACKAGE}.{name}"))
    return mods


@dataclass
class Unit:
    """One API call of a workload."""

    label: str
    call: Callable[[], Any]


#: duration of one calibration kernel on the reference host
REFERENCE_S = 0.0005


def _kernel() -> int:
    """Fixed calibration work: bit counts, tuples, a sort and a dict.

    Its mix resembles the package's hot loops.  Changing it changes the unit
    every reported time is expressed in.
    """
    acc = 0
    rows = []
    for i in range(600):
        x = (i * 2654435761) & 0xFFFFF
        rows.append((x.bit_count(), x >> 3))
        acc ^= x & -x
    rows.sort()
    index = {r: j for j, r in enumerate(rows)}
    return acc + len(index)


class Speed:
    """Host speed over time, from the kernel timed between calls."""

    INTERVAL_S = 0.05  # least wall time between two samples
    WINDOW_S = 0.5  # samples this close to a call, or twice its length, set its scale
    BURST = 5  # kernel runs per sample; the sample is their median

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        runs = []
        for _ in range(self.BURST):
            t0 = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - t0)
        self.at.append(t0)
        self.kernel_s.append(statistics.median(runs))

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.INTERVAL_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time around ``[t0, t1]``.

        A long call sees few samples (none are taken while it runs), so its
        window grows with its length.
        """
        window = max(self.WINDOW_S, 2 * (t1 - t0))
        lo = bisect.bisect_left(self.at, t0 - window)
        hi = bisect.bisect_right(self.at, t1 + window)
        near = self.kernel_s[lo:hi]
        if not near:  # no sample that close: take the nearest one
            j = min(range(len(self.at)), key=lambda k: abs(self.at[k] - t0))
            near = [self.kernel_s[j]]
        return REFERENCE_S / statistics.median(near)

    def kernel_ms(self) -> float:
        return statistics.median(self.kernel_s) * 1e3


@dataclass
class Passes:
    """Per-unit times and outputs from a sequence of closed-loop passes.

    ``times`` are raw wall seconds and ``starts`` their start instants.
    ``wall_s`` and ``cpu_s`` sum over the calls alone; ``cpu_s`` includes
    the CPU of child processes reaped during a call.
    """

    speed: Speed
    times: list[list[float]]
    starts: list[list[float]]
    outputs: list[Any]
    failed: list[int]
    errors: list[str] = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @classmethod
    def empty(cls, speed: Speed, n: int) -> "Passes":
        return cls(speed, [[] for _ in range(n)], [[] for _ in range(n)], [None] * n, [0] * n)

    def unit_medians(self, scaled: bool = True) -> list[float]:
        """Each unit's median time over the passes, in reference seconds
        (``scaled``) or in raw wall seconds."""
        if not scaled:
            return [statistics.median(t) for t in self.times]
        scale = self.speed.scale
        return [
            statistics.median(dt * scale(t0, t0 + dt) for dt, t0 in zip(times, starts))
            for times, starts in zip(self.times, self.starts)
        ]

    def pass_s(self, scaled: bool = True) -> float:
        return sum(self.unit_medians(scaled))

    def call(self, i: int, unit: Unit, digest: Callable[[Any], Any], wrap=None) -> None:
        """Time one call of ``unit`` and record its output or failure.

        ``wrap``, when given, is a context-manager factory entered around the
        call inside the timed region (the tracer's operation span).
        """
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        try:
            if wrap is None:
                out = unit.call()
            else:
                with wrap(unit.label):
                    out = unit.call()
        except Exception as exc:  # a failed call is counted, the loop goes on
            self._timed(i, t0, cpu0)
            self.failed[i] += 1
            self.errors.append(f"{unit.label}: {type(exc).__name__}: {exc}")
            return
        self._timed(i, t0, cpu0)
        value = digest(out)
        if len(self.times[i]) == 1:
            self.outputs[i] = value
        elif value != self.outputs[i]:
            self.failed[i] += 1
            self.errors.append(f"{unit.label}: output differs from the first pass")

    def _timed(self, i: int, t0: float, cpu0: float) -> None:
        dt = time.perf_counter() - t0
        self.cpu_s += cpu_now() - cpu0
        self.times[i].append(dt)
        self.starts[i].append(t0)
        self.wall_s += dt
        self.speed.maybe_sample()


def cpu_now() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_passes(speed: Speed, units: list[Unit], digest: Callable[[Any], Any], seconds: float) -> Passes:
    """Call every unit once per pass until ``seconds`` have passed.

    ``digest`` turns an output into the comparable value that is stored; a
    repeat whose digest differs from the first pass's counts as failed.
    """
    res = Passes.empty(speed, len(units))
    start = time.perf_counter()
    while res.passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for i, unit in enumerate(units):
            res.call(i, unit, digest)
        res.passes += 1
    return res


def run_paired(
    speed: Speed, units_a: list[Unit], units_b: list[Unit], digest, passes: int, around_b=None, wrap_b=None
) -> tuple[Passes, Passes]:
    """Run unit i of ``units_a`` and then unit i of ``units_b``, back to back.

    Pairing keeps slow drifts of the host's speed out of the comparison of
    the two sequences.  ``around_b`` is a context manager entered around each
    ``b`` call outside its timed region; ``wrap_b`` is passed to
    :meth:`Passes.call`.
    """
    a, b = Passes.empty(speed, len(units_a)), Passes.empty(speed, len(units_b))
    for _ in range(passes):
        for i, (ua, ub) in enumerate(zip(units_a, units_b)):
            a.call(i, ua, digest)
            if around_b is None:
                b.call(i, ub, digest, wrap_b)
            else:
                with around_b():
                    b.call(i, ub, digest, wrap_b)
        a.passes += 1
        b.passes += 1
    return a, b


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile, so small samples stay inside their range."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit(root: str) -> str:
    """Commit of the checkout from ``.git`` files, without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: str) -> str:
    """sha256 over the package's Python sources, in path order."""
    h = hashlib.sha256()
    pkg = os.path.join(src, PACKAGE)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(root: str, src: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
    }
