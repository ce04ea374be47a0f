"""In-memory span tracer and the layer probes of the traced benchmark run.

A span is (name, start, end, parent index).  Spans nest through a stack, so
the span open when a layer function is entered becomes its parent.  A span's
self time is its duration minus the part of its interval that its children
cover.

The layer probes rebind the public layer functions at the names where
``wlanradar.bench``, ``wlanradar.airlink`` and ``wlanradar.sync`` look them up
to timing wrappers, and restore them afterwards.  No library file changes.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name) of every wrapped layer function
LAYER_PROBES = (
    ("bench", "assemble_frame", "frame.assemble"),
    ("bench", "assemble_cpi", "frame.assemble"),
    ("bench", "pulse_shape", "dsp.pulse_shape"),
    ("airlink", "apply_delay_doppler", "dsp.delay_doppler"),
    ("bench", "synthesize_radar_rx", "airlink.synth"),
    ("bench", "synthesize_radar_rx_symbol_rate", "airlink.synth_symbol_rate"),
    ("bench", "fine_timing_preamble", "sync.fine_timing"),
    ("bench", "estimate_channel_cef", "sync.cef_estimate"),
    ("sync", "golay_pair_correlate", "golay.pair_correlate"),
    ("bench", "matched_preamble_statistic", "radar.matched_stat"),
    ("bench", "estimate_velocity_moose", "radar.moose"),
    ("bench", "build_delay_doppler_map", "radar.map_build"),
    ("bench", "detect_targets_map", "radar.map_detect"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYER_PROBES))
OP_SPAN = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the children's coverage.

    Child intervals are clipped to their parent's interval before the union
    is taken, so overlapping or overhanging children are never subtracted
    twice or beyond the parent.
    """
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out: dict = {}
    for i, s in enumerate(spans):
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(i, ())]
        covered = covered_length([iv for iv in clipped if iv[1] > iv[0]])
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
    return out


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, fn, name: str, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


# ---------------------------------------------------------------------------
# counts recorded at the layer boundaries
# ---------------------------------------------------------------------------


def _samples_out(tracer, result):
    samples = getattr(result, "samples", result)
    tracer.add("airlink.samples_out", len(samples))


def _map_cells(tracer, ddm):
    tracer.peak("radar.map_cells", ddm.grid.size)


def _map_detections(truth):
    """Count detections, and how many true targets they contain.

    ``truth`` maps a target's delay bin to (velocity, tolerance); a target is
    found when some detection sits in its delay bin within the tolerance.
    """

    def after(tracer, dets):
        tracer.add("radar.map_detections", len(dets))
        found = sum(
            any(d.delay_bin == b and abs(d.velocity_mps - v) <= tol for d in dets)
            for b, (v, tol) in truth.items()
        )
        tracer.add("radar.map_true_found", found)

    return after


def _delay_doppler_with_fft_spy(tracer, fn):
    """apply_delay_doppler, recording the length of every numpy FFT it runs."""
    import numpy.fft as npfft

    def wrapper(*args, **kwargs):
        real_fft = npfft.fft

        def spy(a, *fa, **fk):
            tracer.peak("dsp.delay_fft_len", len(a))
            return real_fft(a, *fa, **fk)

        with tracer.span("dsp.delay_doppler"):
            npfft.fft = spy
            try:
                return fn(*args, **kwargs)
            finally:
                npfft.fft = real_fft

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def layer_probes(tracer: Tracer, truth: dict):
    """Rebind the layer functions to timing wrappers for the duration."""
    import wlanradar.airlink
    import wlanradar.bench
    import wlanradar.sync

    modules = {"bench": wlanradar.bench, "airlink": wlanradar.airlink,
               "sync": wlanradar.sync}
    after = {
        "synthesize_radar_rx": _samples_out,
        "synthesize_radar_rx_symbol_rate": _samples_out,
        "build_delay_doppler_map": _map_cells,
        "detect_targets_map": _map_detections(truth),
    }
    saved = []
    try:
        for mod_name, attr, span_name in LAYER_PROBES:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            if attr == "apply_delay_doppler":
                wrapped = _delay_doppler_with_fft_spy(tracer, fn)
            else:
                wrapped = tracer.wrap(fn, span_name, after.get(attr))
            setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# process-level probes: pools, worker threads, CPU
# ---------------------------------------------------------------------------


@contextmanager
def pool_counter(tracer: Tracer):
    """Count the process pools ``wlanradar.bench`` creates."""
    import wlanradar.bench

    original = wlanradar.bench.ProcessPoolExecutor

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.add("bench.pools_created", 1)
            super().__init__(*args, **kwargs)

    wlanradar.bench.ProcessPoolExecutor = CountingPool
    try:
        yield
    finally:
        wlanradar.bench.ProcessPoolExecutor = original


def child_pids(parent: int) -> list:
    """Pids whose parent is ``parent``, read from /proc/<pid>/stat."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # the process ended while we looked
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            out.append(int(entry))
    return out


def threads_of(pid: int) -> int:
    """Thread count from /proc/<pid>/status, 0 once the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@contextmanager
def worker_thread_sampler(tracer: Tracer, interval_s: float = 0.05):
    """Poll the live worker processes and keep the most threads any one had.

    Reads /proc only, so it never reaps or otherwise touches the workers.  The
    poller keeps its maximum to itself; the tracer gets it after the join.
    """
    stop = threading.Event()
    me = os.getpid()
    most = [0]

    def poll():
        while not stop.is_set():
            for pid in child_pids(me):
                most[0] = max(most[0], threads_of(pid))
            stop.wait(interval_s)

    thread = threading.Thread(target=poll, name="worker-thread-sampler", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=5.0)
        if thread.is_alive():
            raise RuntimeError("worker-thread sampler did not stop")
        tracer.peak("bench.worker_threads", most[0])


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system
