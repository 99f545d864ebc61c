"""Summarize benchmark runs into a baseline and compare two summaries.

    python3 perfbench/compare.py summarize OUT.json RESULT.json...
    python3 perfbench/compare.py diff BASE.json NEW.json

``summarize`` merges untraced run results (the files run.py writes under
.perfbench/results/) into one document: per workload and end-to-end
metric, the median and quartiles across runs and the run count, plus the
environment stamp the runs share.  ``diff`` prints, per workload and
metric, both medians, the change as a share of the base median and the
metric's bound from BENCHMARK.json.  It refuses summaries taken with a
different kernel backend, Python version or core count.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COMPARABLE = ("backend", "python", "nproc")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def summarize(out_path, result_paths):
    stamp = None
    seeds = {}
    values = {}
    units = {}
    for path in result_paths:
        doc = load(path)
        if doc["trace"] or doc["size"] != "full":
            continue
        if not doc["correct"]:
            raise SystemExit("%s: run failed its correctness gates" % path)
        run_stamp = {k: v for k, v in doc["stamp"].items() if k != "seed"}
        if stamp is None:
            stamp = run_stamp
        elif run_stamp != stamp:
            raise SystemExit("%s: stamp %s differs from %s" % (path, run_stamp, stamp))
        seeds.setdefault(doc["workload"], []).append(doc["stamp"]["seed"])
        for name, metric in doc["metrics"].items():
            values.setdefault(doc["workload"], {}).setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    if stamp is None:
        raise SystemExit("no untraced full-size results given")
    workloads = {}
    for workload, metrics in sorted(values.items()):
        workloads[workload] = {"seeds": sorted(seeds[workload]), "metrics": {}}
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            workloads[workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(vals), "unit": units[name]}
    with open(out_path, "w") as fh:
        json.dump({"stamp": stamp, "workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def diff(base_path, new_path):
    base, new = load(base_path), load(new_path)
    mismatched = [k for k in COMPARABLE if base["stamp"].get(k) != new["stamp"].get(k)]
    if mismatched:
        print("refusing to compare: %s differ (%s vs %s)" % (
            ", ".join(mismatched),
            [base["stamp"].get(k) for k in mismatched],
            [new["stamp"].get(k) for k in mismatched]), file=sys.stderr)
        return 2
    bench = {m["name"]: m for m in load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]}
    worse = 0
    for workload, entry in sorted(base["workloads"].items()):
        other = new["workloads"].get(workload)
        if other is None:
            print("%s: missing from %s" % (workload, new_path))
            continue
        for name, b in entry["metrics"].items():
            n = other["metrics"].get(name)
            spec = bench.get(name)
            if n is None or spec is None:
                continue
            change = (n["median"] - b["median"]) / b["median"]
            if spec["better"] == "higher":
                change = -change
            spread = (b["q3"] - b["q1"]) / b["median"]
            if spread > spec["bound"]:
                verdict = "unresolved"
            elif change > spec["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "within bound"
            print("%-14s %-13s base %-11.6g new %-11.6g worse by %+7.2f%% (bound %g%%): %s" % (
                workload, name, b["median"], n["median"], 100 * change,
                100 * spec["bound"], verdict))
    return 1 if worse else 0


def main(argv):
    if len(argv) >= 3 and argv[0] == "summarize":
        summarize(argv[1], argv[2:])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
