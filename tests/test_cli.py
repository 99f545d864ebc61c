"""CLI surface: outputs, schemas, exit codes and determinism."""

import json

import pytest
from click.testing import CliRunner

from supergaudin.cli import main
from supergaudin.serialize import validate_document


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_module_build_and_schema(tmp_path):
    res = run("--json", "--cache-dir", str(tmp_path), "module", "build", "--m", "1", "--n", "1", "--lam", "2")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    validate_document(doc, "module.schema.json")
    assert doc["provenance"] == "polynomial"
    # second invocation hits the cache and prints the same bytes
    res2 = run("--json", "--cache-dir", str(tmp_path), "module", "build", "--m", "1", "--n", "1", "--lam", "2")
    assert res2.output == res.output


def test_tensor_and_singular():
    res = run("--json", "tensor", "--ell", "2", "--factor-kind", "natural")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["total_dim"] == 4
    res = run("--json", "singular", "--ell", "2", "--factor-kind", "natural", "--mu", "1,1")
    doc = json.loads(res.output)
    assert doc["dim"] == 1 and doc["ambient_dim"] == 2


def test_hamiltonian_document():
    res = run(
        "--json",
        "hamiltonian",
        "--ell", "2", "--factor-kind", "natural",
        "--kind", "quadratic", "--z", "0,1", "--mu", "1,1",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    validate_document(doc, "hamiltonian.schema.json")
    assert doc["certificates"]["commutators_zero"] is True


def test_spectrum_worked_case():
    res = run(
        "--json",
        "spectrum",
        "--ell", "2", "--factor-kind", "natural",
        "--kind", "quadratic", "--z", "0,1", "--mu", "1,1",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    # H^1 eigenvalue -1/(z1 - z2) = 1 on the singular line
    assert doc["charpolys"][0] == ["-1", "1"]
    assert doc["spectrum"][0][0] == [1.0, 0.0]
    assert doc["certificates"]["squarefree"] is True


def test_duality_check_and_cubic():
    res = run("--json", "duality", "check", "--lams", "1;1", "--m", "1", "--n", "1", "--mu", "1,1", "--z", "0,1")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    validate_document(doc, "duality_report.schema.json")
    assert doc["equal"] is True
    res = run("--json", "duality", "cubic", "--lams", "1;1", "--m", "1", "--n", "1", "--mu", "2", "--z", "0,1")
    assert res.exit_code == 0, res.output


def test_lax_expand():
    res = run(
        "--json", "lax", "expand",
        "--ell", "2", "--factor-kind", "natural", "--k-power", "2", "--z", "0,1",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["matches"] is True


def test_lax_flavor_k_is_the_classical_rank():
    # --k belongs to the flavor options; the Lax power is --k-power only
    res = run(
        "--json", "lax", "expand", "--flavor", "classical", "--k", "3",
        "--ell", "2", "--factor-kind", "natural", "--z", "0,1",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["k"] == 2
    assert len(doc["weights"]) == 6  # e_a + e_b over the three gl(3) indices
    assert doc["matches"] is True


def test_kz_commands():
    path = json.dumps([[[0, 0], [1, 0]], [[0, 0.5], [2, 0]]])
    res = run(
        "--json", "kz", "solve",
        "--ell", "2", "--factor-kind", "natural", "--mu", "1,1",
        "--path", path, "--psi0", "singular",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    validate_document(doc, "kz_solution.schema.json")
    res = run("--json", "kz", "flatness", "--ell", "2", "--factor-kind", "natural", "--mu", "1,1", "--z", "0,1")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"mode": "exact", "residual": "0", "zero": True}
    loop = json.dumps([[[0, 0], [1, 0]], [[0, 0.4], [2, 0]], [[0, 0], [1, 0]]])
    res = run("--json", "kz", "monodromy", "--ell", "2", "--factor-kind", "natural", "--mu", "1,1", "--loop", loop)
    assert res.exit_code == 0, res.output


def test_verify_all_subset_and_report_schema():
    res = run("--json", "verify", "all", "--checks", "io,truncation", "--seed", "3")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    validate_document(doc, "verify_report.schema.json")
    assert doc["failed"] == 0


def test_exit_code_two_on_bad_input():
    assert run("spectrum", "--ell", "2", "--z", "0,1", "--mu", "1,1", "--no-such-flag").exit_code == 2
    assert run("nonsense").exit_code == 2
    assert run("module", "build", "--lam", "1,2").exit_code == 2
    assert run("hamiltonian", "--ell", "2", "--kind", "quadratic", "--z", "1,1", "--mu", "1,1").exit_code == 2
    res = run("duality", "check", "--lams", "2,2", "--mu", "4", "--m", "1", "--n", "1", "--z", "0,1")
    assert res.exit_code == 2


LOOP = json.dumps([[[0, 0], [1, 0]], [[0, 0.4], [2, 0]], [[0, 0], [1, 0]]])
TWO_SITES = ["--lam", "1", "--lam", "1"]
BAD_INPUT = {
    "hamiltonian-too-few-levels": (
        ["hamiltonian", *TWO_SITES, "--z", "0,1", "--mu", "2", "--convention", "central", "--levels", "1"],
        "need one level per tensor factor",
    ),
    "hamiltonian-too-many-levels": (
        ["hamiltonian", *TWO_SITES, "--z", "0,1", "--mu", "2", "--convention", "central", "--levels", "1,2,3"],
        "need one level per tensor factor",
    ),
    "hamiltonian-cubicC-too-many-levels": (
        ["hamiltonian", "--ell", "3", "--kind", "cubicC", "--z", "0,1,3", "--mu", "2,1", "--levels", "1,2,3,4,5"],
        "need one level per tensor factor",
    ),
    "hamiltonian-cubicD-too-few-levels": (
        ["hamiltonian", *TWO_SITES, "--kind", "cubicD", "--z", "0,1", "--mu", "2", "--levels", "1"],
        "need one level per tensor factor",
    ),
    "kz-too-few-levels": (
        ["kz", "monodromy", *TWO_SITES, "--mu", "1,1", "--convention", "central", "--levels", "5", "--loop", LOOP],
        "need one level per tensor factor",
    ),
    "kz-too-many-levels": (
        ["kz", "monodromy", *TWO_SITES, "--mu", "1,1", "--convention", "central", "--levels", "1,2,3", "--loop", LOOP],
        "need one level per tensor factor",
    ),
    "tensor-polynomial-with-p": (["tensor", "--lam", "2", "--p", "1"], "polynomial modules need p = q = 0"),
    "tensor-empty-partition": (["tensor", "--lam", "0"], "the empty partition labels the trivial module"),
    "tensor-irreducible-wide": (
        ["tensor", "--lam", "2", "--factor-kind", "irreducible", "--flavor", "wide"],
        "unsupported flavor",
    ),
    "weight-number": (["singular", *TWO_SITES, "--weight", "5"], "malformed weight document"),
    "weight-list": (["singular", *TWO_SITES, "--weight", "[1]"], "malformed weight document"),
    "weight-coeffs-number": (["singular", *TWO_SITES, "--weight", '{"coeffs":5}'], "malformed weight document"),
    "module-negative-depth": (
        ["module", "build", "--lam", "2", "--kind", "irreducible", "--depth", "-1"],
        "depth must be nonnegative",
    ),
}


@pytest.mark.parametrize("args, message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_factor_weight_and_level_input_exits_two(tmp_path, args, message):
    res = run("--cache-dir", str(tmp_path), *args)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not list(tmp_path.rglob("*.json"))  # nothing reached the disk cache


def test_kz_bad_input_exits_two_with_a_message():
    system = ["--ell", "2", "--factor-kind", "natural", "--mu", "1,1"]
    short = json.dumps([[[0, 0]], [[1, 0]], [[0, 0]]])
    long = json.dumps([[[0, 0], [1, 0], [5, 0]], [[0, 0.4], [2, 0], [5, 0]], [[0, 0], [1, 0], [5, 0]]])
    for loop in (short, long):
        for cmd in (["monodromy", "--loop", loop], ["solve", "--path", loop]):
            res = run("--json", "kz", *cmd, *system)
            assert res.exit_code == 2, (cmd, res.output)
            assert "coordinates" in res.output
    cases = [
        (["--z", "0,1", "--float-step", "0"], "step"),
        (["--z", "0,1,2"], "points"),
        (["--z", "0", "--float-step", "1e-5"], "points"),
    ]
    for extra, message in cases:
        res = run("--json", "kz", "flatness", *system, *extra)
        assert res.exit_code == 2, (extra, res.output)
        assert message in res.output


def test_determinism_of_verify_all():
    args = ["--json", "verify", "all", "--checks", "structure,io", "--seed", "11"]
    out1 = run(*args).output
    out2 = run(*args).output
    assert out1 == out2
