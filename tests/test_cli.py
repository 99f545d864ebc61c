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


def test_determinism_of_verify_all():
    args = ["--json", "verify", "all", "--checks", "structure,io", "--seed", "11"]
    out1 = run(*args).output
    out2 = run(*args).output
    assert out1 == out2
