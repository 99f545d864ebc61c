"""Record the correctness fingerprints that the benchmark's gates compare.

    python3 perfbench/record_expected.py

Runs every fingerprinted item once at full size in fresh child processes
and writes expected.json: weight-multiplicity digests per module-oracle
case, char-poly digests per duality-z item at the default seed, and the
stdout sha256 of every verify-cli (seed, m|n) pair.  An item whose own
gate fails is not recorded; the script stops instead.  Run it only on a
commit whose outputs are trusted: later commits must reproduce them.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def child_specs(name):
    if name == "verify-cli":
        workload = WORKLOADS[name]
        return [{"verify_seed": s, "m": m, "n": n}
                for s in workload.verify_seeds for m, n in workload.flavors]
    return [{}]


def main():
    run.check_checkout()
    os.makedirs(run.STATE, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=run.STATE)
    expected = {}
    try:
        runner = run.Runner(scratch)
        for name in ("module-oracle", "duality-z", "verify-cli"):
            items = {}
            for extra in child_specs(name):
                spec = dict(workload=name, seed=DEFAULT_SEED, size="full", trace=False,
                            round=0, **extra)
                child = runner.spawn(spec)
                if "error" in child:
                    raise SystemExit("%s: %s" % (name, child["error"]))
                for item in child["items"]:
                    if not item["ok"]:
                        raise SystemExit("%s: item %s fails its own gate" % (name, item["key"]))
                    items[item["key"]] = item["fingerprint"]
            seed = DEFAULT_SEED if WORKLOADS[name].seed_dependent else None
            expected[name] = {"seed": seed, "items": items}
            print("%s: %d fingerprints" % (name, len(items)), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
