"""Smoke tests of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Also collectable by pytest when named explicitly:
``python3 -m pytest perfbench/selftest.py``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
_DOCS = {}


def smoke(name, trace, expected=None):
    key = (name, trace)
    if expected is not None:
        return run.run_workload(name, 0, 1, trace, size="tiny", expected=expected)
    if key not in _DOCS:
        _DOCS[key] = run.run_workload(name, 0, 1, trace, size="tiny")
    return _DOCS[key]


def test_every_metric_is_emitted_with_its_unit():
    for name in WORKLOADS:
        for trace, listed in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            doc = smoke(name, trace)
            assert doc["correct"], (name, trace, doc["failures"])
            assert doc["fail_ratio"] == 0
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in listed}, (name, trace)
            line = json.loads(run.last_line(doc))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_traced_run_confirms_workload_design():
    calls = {name: smoke(name, 1)["metrics"] for name in WORKLOADS}

    def count(workload, target):
        return calls[workload][target + ".calls"]["value"]

    assert count("module-oracle", "gaudin.pair_matrix") == 0
    assert count("duality-z", "gaudin.pair_matrix") > 0
    assert count("kz-monodromy", "modules.polynomial_module") == 0
    for workload in ("module-oracle", "duality-z"):
        assert count(workload, "kz.KZSystem.hamiltonian_float") == 0
    for workload in WORKLOADS:
        lax = count(workload, "laxmatrix.lax_str_expansion")
        assert (lax > 0) == (workload == "verify-cli"), workload


def test_corrupted_digest_fails_the_gate():
    expected = copy.deepcopy(run.load_json(run.EXPECTED))
    items = expected["module-oracle"]["items"]
    key = "1|1:1"
    items[key] = "0" * 64
    doc = smoke("module-oracle", 0, expected=expected)
    assert not doc["correct"]
    assert doc["fail_ratio"] > 0 and key in doc["failures"]


def test_untraced_run_leaves_no_wrapper():
    for name in WORKLOADS:
        for child in smoke(name, 0)["children"]:
            assert child["wrappers_left"] == [], (name, child["wrappers_left"])
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import supergaudin
    from supergaudin import kernels, linalg, modules, verify

    def bindings():
        return [linalg.charpoly, kernels.mat_mul, modules.TensorModule.slot_act_sparse,
                supergaudin.Weight.__init__] + list(verify.ALL_CHECKS)

    originals = bindings()
    trace = tracer.Tracer()
    trace.install()
    assert tracer.find_wrappers()
    trace.uninstall()
    assert tracer.find_wrappers() == []
    assert all(a is b for a, b in zip(originals, bindings()))


def test_refuses_a_directory_without_sources():
    os.makedirs(run.STATE, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.STATE)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main():
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print("ok   %s" % name, flush=True)
            except Exception as exc:  # report every test, then fail
                failed += 1
                print("FAIL %s: %r" % (name, exc), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
