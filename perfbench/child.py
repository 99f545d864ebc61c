"""One measured run of one workload in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

run.py writes SPEC.json and reads back the result file it names.  The
child imports supergaudin from the checkout's ``src`` directory only,
builds the workload's shared set-up, times each item, stops tracing (if
on), then checks every item and writes its result.
"""

import gc
import importlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

import tracer as tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Probe:
    """Samples the machine's current speed with a fixed piece of work.

    On a shared virtual machine the effective CPU speed can switch between
    states (1.7x apart on the reference machine) for tenths of a second
    to minutes, for every process alike.
    The probe is pure Python exact arithmetic and dict traffic, like the
    workloads, and independent of the program under test.  It runs right
    before every item and once after the last, and a timer signal runs it
    every ``period`` seconds of wall time, during set-up and long items
    alike.  Its time is subtracted from every measured interval; run.py
    divides each item's time by the mean of the probes next to and during
    that item, and whole-run times by the mean of all probes, to report
    them at a reference speed.
    """

    period = 0.1

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    @staticmethod
    def work():
        size = 9
        rows = [[Fraction(i * j + 1, i + j + 1) for j in range(size)] for i in range(size)]
        out = {}
        for i in range(size):
            for j in range(size):
                total = Fraction(0)
                for k in range(size):
                    total += rows[i][k] * rows[k][j]
                out[(i, j)] = total
        return out

    def sample(self, *_):
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        # with collection paused, the probe's short-lived objects leave the
        # program's garbage-collection schedule as it was
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.work()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append(took)
        self.spent += took
        self._busy = False

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


class CollectorClock:
    """Time spent in the cyclic garbage collector.

    A full collection scans every live object and lands on whichever item
    happens to cross the allocation threshold, so its pause depends on the
    item order.  Item latencies exclude it; whole-child times keep it.
    """

    def __init__(self):
        self.spent = 0.0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.spent += time.perf_counter() - self._start
            self._start = None


def import_package():
    """Import supergaudin from ROOT/src; refuse any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import supergaudin

    if not os.path.abspath(supergaudin.__file__).startswith(src + os.sep):
        raise SystemExit("supergaudin imported from %s, not %s" % (supergaudin.__file__, src))
    return supergaudin


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    probe = Probe()
    if not spec.get("trace") and not spec.get("warmup"):
        probe.start()
    workload = WORKLOADS.get(spec.get("workload"))
    spent, start = probe.spent, time.perf_counter()
    package = import_package()
    for name in workload.imports if workload else ():
        importlib.import_module(name)
    result = {"import_s": time.perf_counter() - start - (probe.spent - spent),
              "backend": package.kernels.BACKEND, "version": package.__version__}
    if spec.get("warmup"):
        # compile the bytecode of every module a workload may load
        for name in ("cli", "verify", "serialize", "laxmatrix", "cache"):
            importlib.import_module("supergaudin." + name)
        _write(spec["result"], result)
        return
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    ctx = workload.setup(spec)
    result["probe_setup_s"] = probe.spent
    first = time.time()
    if spec.get("setup_only"):
        probe.stop()
        result.update(first_item_time=first, probe_samples=probe.samples, probe_s=probe.spent,
                      wrappers_left=tracing.find_wrappers())
        _write(spec["result"], result)
        return
    timings = []
    outputs = []
    items_start = time.perf_counter()
    windows = []
    collector = CollectorClock()
    gc.callbacks.append(collector)
    for key, payload in ctx.items:
        if probe.samples:
            probe.sample()
        window = len(probe.samples) - 1
        spent, collected = probe.spent, collector.spent
        t0 = time.perf_counter()
        raw = workload.run(ctx, payload)
        elapsed = time.perf_counter() - t0
        timings.append(elapsed - (probe.spent - spent) - (collector.spent - collected))
        outputs.append(raw)
        windows.append(window)
    gc.callbacks.remove(collector)
    result["collector_s"] = collector.spent
    if probe.samples:
        probe.stop()
    items_s = time.perf_counter() - items_start - (probe.spent - result["probe_setup_s"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.metrics()
        _write(spec["spans"], tracer.span_document())
    result["wrappers_left"] = tracing.find_wrappers()
    items = []
    ends = windows[1:] + [len(probe.samples) - 1]
    for (key, payload), seconds, raw, first_probe, last_probe in zip(
            ctx.items, timings, outputs, windows, ends):
        fingerprint, ok, detail = workload.check(ctx, payload, raw)
        local = probe.samples[first_probe:last_probe + 1]
        items.append({"key": key, "ms": seconds * 1e3, "ok": bool(ok),
                      "fingerprint": fingerprint, "detail": detail,
                      "probe_s": sum(local) / len(local) if local else None})
    result.update(first_item_time=first, items_s=items_s, items=items,
                  probe_samples=probe.samples, probe_s=probe.spent)
    _write(spec["result"], result)


def _write(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    main(sys.argv[1])
