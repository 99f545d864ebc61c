"""Benchmark entry point for supergaudin.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Every measured run is a fresh child
interpreter (child.py) after one discarded warm-up child that compiles
bytecode.  Children run one at a time with SUPERGAUDIN_PURE=1, a fresh
SUPERGAUDIN_CACHE and TMPDIR inside the checkout each, and single-threaded
numerical libraries.

A run makes S // round_s rounds of children (at least one), where round_s
is the workload's round length at the reference speed (see end_to_end),
so the sample count does not depend on how fast the machine is today.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` one round runs untraced and then traced, and the last
line carries the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The run exits 1 when a correctness gate fails and 2 when
the checkout or the arguments are unusable.  Details (quartiles, sample
counts, the environment stamp, every item) go to .perfbench/results/.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
CHILD_TIMEOUT = 150
# Stop starting rounds once a run has taken this many times --seconds.
SLOW_MACHINE_FACTOR = 3
# Duration of one speed probe (child.Probe) at the reference speed, as
# measured when the benchmark was defined; end-to-end times are reported
# at this speed.  Only the ratio to the probes of a run matters.
PROBE_REFERENCE_S = 0.0022

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (bad checkout, child crash at warm-up)."""


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "supergaudin", "__init__.py")):
        raise BenchError("no supergaudin sources under %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        raise BenchError("no BENCHMARK.json at %s" % ROOT)


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def tail(values):
    """The highest whole percentile with at least ten values beyond it.

    With fewer than 20 values that percentile would not exceed the
    median, so the maximum is reported (as percentile 100) instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return ordered[-1], 100
    pct = (100 * (count - 10)) // count
    return ordered[math.ceil(pct * count / 100) - 1], pct


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    """Spawns child interpreters for one workload invocation."""

    def __init__(self, scratch):
        self.scratch = scratch
        self.count = 0

    def env(self, base):
        """A fresh disk cache and temporary directory inside the checkout."""
        os.makedirs(base + ".tmp")
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update(SUPERGAUDIN_PURE="1", SUPERGAUDIN_CACHE=base + ".cache", TMPDIR=base + ".tmp",
                   PYTHONHASHSEED="0",
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        return env

    def spawn(self, spec):
        """Run one child; returns its result with wall_s and setup_s added."""
        self.count += 1
        base = os.path.join(self.scratch, "child-%d" % self.count)
        spec = dict(spec, result=base + ".result.json", spans=base + ".spans.json")
        with open(base + ".spec.json", "w") as fh:
            json.dump(spec, fh)
        spawned = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), base + ".spec.json"],
            cwd=ROOT, env=self.env(base),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            tail_lines = err.decode(errors="replace").strip().splitlines()[-5:]
            return {"error": "child exited %s: %s" % (proc.returncode, " | ".join(tail_lines)),
                    "spec": spec, "wall_s": wall}
        result = load_json(spec["result"])
        result["wall_s"] = wall
        result["spec"] = spec
        if "first_item_time" in result:
            result["setup_s"] = result["first_item_time"] - spawned
        return result


def gate(workload, seed, children, expected):
    """Count attempted and failed items; a crashed child is one failure."""
    table = expected.get(workload, {})
    digests = table.get("items", {}) if table.get("seed") in (None, seed) else {}
    attempted = failed = 0
    failures = []
    for child in children:
        if "error" in child:
            attempted += 1
            failed += 1
            failures.append(child["error"])
            continue
        for item in child.get("items", ()):
            attempted += 1
            want = digests.get(item["key"])
            if not item["ok"] or (want is not None and item["fingerprint"] != want):
                failed += 1
                failures.append(item["key"])
    return attempted, failed, failures


def end_to_end(children):
    """End-to-end metrics over the untraced children of one run.

    Set-up time comes from every child, the rest from the children that
    ran items.  Each child's times exclude its probe samples and are scaled by
    PROBE_REFERENCE_S over the mean probe time: of the probes next to and
    during the item for item latencies, of all the child's probes for the
    rest.  The unscaled whole-child values are kept under ``raw``.
    """
    good = [c for c in children if "error" not in c]
    if not any("items" in c for c in good):
        return {}, {}
    samples = {name: [] for name in ("wall_s", "setup_s", "items_per_s", "peak_rss_mb",
                                     "item_ms", "speed")}
    raw = {name: [] for name in ("wall_s", "setup_s", "items_per_s")}
    for c in good:
        speed = PROBE_REFERENCE_S / statistics.mean(c["probe_samples"])
        setup = c["setup_s"] - c["probe_setup_s"]
        raw["setup_s"].append(setup)
        samples["setup_s"].append(setup * speed)
        if "items" not in c:  # a set-up-only child
            continue
        wall = c["wall_s"] - c["probe_s"]
        raw["wall_s"].append(wall)
        raw["items_per_s"].append(len(c["items"]) / c["items_s"])
        samples["speed"].append(speed)
        samples["wall_s"].append(wall * speed)
        samples["items_per_s"].append(len(c["items"]) / (c["items_s"] * speed))
        samples["peak_rss_mb"].append(c["peak_rss_mb"])
        samples["item_ms"] += [item["ms"] * PROBE_REFERENCE_S / item["probe_s"]
                               for item in c["items"]]
    detail = {name: summary(values) for name, values in samples.items()}
    detail["raw"] = {name: summary(values) for name, values in raw.items()}
    value, pct = tail(samples["item_ms"])
    detail["item_tail"] = {"value": value, "percentile": pct, "n": len(samples["item_ms"])}
    metrics = {
        "wall_s": detail["wall_s"]["median"],
        "setup_s": detail["setup_s"]["median"],
        "items_per_s": detail["items_per_s"]["median"],
        "item_p50_ms": detail["item_ms"]["median"],
        "item_tail_ms": value,
        "peak_rss_mb": detail["peak_rss_mb"]["median"],
    }
    return metrics, detail


def per_layer(names, workload, plain, traced):
    """Combine the traced children's statistics (unscaled seconds); the
    overhead compares traced with untraced walls, probe time excluded."""
    good = [c for c in traced if "trace" in c]
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = (sum(c["wall_s"] for c in traced)
                             - sum(c["wall_s"] - c.get("probe_s", 0.0) for c in plain))
        elif name == "cli.import_s":
            values = [c["import_s"] for c in plain if "error" not in c]
            uses_cli = "supergaudin.cli" in workload.imports
            metrics[name] = statistics.median(values) if values and uses_cli else 0.0
        elif name.endswith(".hit_ratio"):
            calls_name = name[: -len("hit_ratio")] + "calls"
            calls = sum(c["trace"][calls_name] for c in good)
            hits = sum(c["trace"][name] * c["trace"][calls_name] for c in good)
            metrics[name] = hits / calls if calls else 0.0
        elif name.endswith(".max_dim"):
            metrics[name] = max((c["trace"][name] for c in good), default=0)
        else:
            metrics[name] = sum(c["trace"][name] for c in good)
    return metrics


def run_workload(name, seed, seconds, trace, size="full", expected=None):
    """One benchmark invocation; returns the result document."""
    check_checkout()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(EXPECTED) if expected is None else expected
    workload = WORKLOADS[name]
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(STATE, "tmp"))
    try:
        runner = Runner(scratch)
        warm = runner.spawn({"warmup": True})
        if "error" in warm:
            raise BenchError("warm-up child failed: " + warm["error"])
        base = {"workload": name, "seed": seed, "size": size, "trace": False}
        plain, traced = [], []
        started = time.perf_counter()
        rounds = 1 if trace else max(1, int(seconds // workload.round_s))
        for round_index in range(rounds):
            specs = workload.rounds(seed, size, round_index)
            plain += [runner.spawn(dict(base, round=round_index, **s)) for s in specs]
            if trace:
                traced += [runner.spawn(dict(base, round=round_index, trace=True, **s))
                           for s in specs]
            if time.perf_counter() - started > SLOW_MACHINE_FACTOR * seconds:
                break
        if not trace:
            plain += [runner.spawn(dict(base, round=0, setup_only=True))
                      for _ in range(workload.setup_samples)]
        children = plain + traced
        attempted, failed, failures = gate(name, seed, children, expected)
        e2e, detail = end_to_end(plain)
        if trace:
            listed = bench["per_layer"]
            values = per_layer([m["name"] for m in listed], workload, plain, traced)
        else:
            listed = bench["end_to_end"]
            values = e2e
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in listed if m["name"] in values}
        stamp = {
            "backend": warm["backend"],
            "version": warm["version"],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "seed": seed,
        }
        doc = {
            "workload": name, "trace": bool(trace), "size": size, "seconds": seconds,
            "stamp": stamp,
            "correct": failed == 0 and len(metrics) == len(listed),
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted if attempted else 1.0,
            "failures": failures[:20],
            "metrics": metrics, "detail": detail,
            "children": [_brief(c) for c in children],
        }
        _save(doc, traced)
        return doc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _brief(child):
    keep = ("error", "wall_s", "setup_s", "items_s", "peak_rss_mb", "import_s", "collector_s",
            "probe_s", "probe_setup_s", "probe_samples", "wrappers_left", "items")
    out = {k: child[k] for k in keep if k in child}
    out["trace"] = bool(child["spec"].get("trace"))
    return out


def _save(doc, traced):
    stem = "%s-seed%s-trace%d" % (doc["workload"], doc["stamp"]["seed"], doc["trace"])
    if doc["size"] != "full":
        stem += "-" + doc["size"]
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(STATE, sub), exist_ok=True)
    with open(os.path.join(STATE, "results", stem + ".json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    for k, child in enumerate(traced):
        spans = child["spec"]["spans"]
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(STATE, "traces", "%s-child%d.json" % (stem, k)))


def report(doc):
    """Human-readable lines: every metric with its unit, then the gates."""
    lines = []
    for name, metric in doc["metrics"].items():
        line = "%s %s = %.6g %s" % (doc["workload"], name, metric["value"], metric["unit"])
        key = {"item_p50_ms": "item_ms"}.get(name, name)
        if key in doc["detail"]:
            d = doc["detail"][key]
            line += "  (median of %d; q1 %.6g, q3 %.6g)" % (d["n"], d["q1"], d["q3"])
        elif name == "item_tail_ms":
            d = doc["detail"]["item_tail"]
            line += "  (p%d of %d items)" % (d["percentile"], d["n"])
        lines.append(line)
    lines.append("%s fail_ratio = %d/%d%s" % (
        doc["workload"], doc["failed"], doc["attempted"],
        "  failures: " + ", ".join(doc["failures"][:5]) if doc["failures"] else ""))
    lines.append("%s stamp = %s" % (doc["workload"], json.dumps(doc["stamp"], sort_keys=True)))
    return lines


def last_line(doc):
    return json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": doc["metrics"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        seconds = args.seconds
        if seconds is None:
            seconds = load_json(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"]
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        docs = []
        for name in names:
            doc = run_workload(name, args.seed, seconds, args.trace)
            print("\n".join(report(doc)), flush=True)
            docs.append(doc)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if len(docs) == 1:
        print(last_line(docs[0]))
    else:
        print(json.dumps({
            "correct": all(d["correct"] for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
            "metrics": {"%s.%s" % (d["workload"], k): v
                        for d in docs for k, v in d["metrics"].items()},
        }))
    return 0 if all(d["correct"] for d in docs) else 1


if __name__ == "__main__":
    sys.exit(main())
