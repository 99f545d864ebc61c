"""CLI surface: outputs, schemas, exit codes and determinism."""

import hashlib
import inspect
import json
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from supergaudin.cli import MAX_TENSOR_DIM, main
from supergaudin.serialize import validate_document
from supergaudin.verify import ALL_CHECKS


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
    res = run("--json", "tensor", "--ell", "2")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["total_dim"] == 4
    res = run("--json", "singular", "--ell", "2", "--mu", "1,1")
    doc = json.loads(res.output)
    assert doc["dim"] == 1 and doc["ambient_dim"] == 2


def test_hamiltonian_document():
    res = run(
        "--json",
        "hamiltonian",
        "--ell", "2",
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
        "--ell", "2",
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
        "--ell", "2", "--k-power", "2", "--z", "0,1",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["matches"] is True


def test_lax_flavor_k_is_the_classical_rank():
    # --k belongs to the flavor options; the Lax power is --k-power only
    res = run(
        "--json", "lax", "expand", "--flavor", "classical", "--k", "3",
        "--ell", "2", "--z", "0,1",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["k"] == 2
    assert len(doc["weights"]) == 6  # e_a + e_b over the three gl(3) indices
    assert doc["matches"] is True


LAX_FLAVORS = {
    "gl(1|1)": ["--m", "1", "--n", "1"],
    "gl(2|1)": ["--m", "2", "--n", "1"],
    "gl(3)": ["--flavor", "classical", "--k", "3"],
}
# sha256 of `--json lax expand` stdout, recorded from the dense Lax
# composition that the operator-word expansion replaced
LAX_DIGESTS = {
    ("gl(1|1)", "1/3,2", 1): "96c27445091be520857ef4fd9058552e274ef522b93ee5e43303d09ec35d27e3",
    ("gl(1|1)", "1/3,2", 2): "bdf817566d9fcadbf8e3c43e0a89668f63bc06943b240f0eefe9f3292eaeb443",
    ("gl(1|1)", "1/3,2", 3): "d4b3343111f8701334ec153ca87eef3495fc733ac7ce41f0a6a8d75518b4c889",
    ("gl(2|1)", "1/3,2", 1): "63d350b76b6941bf9e865d6b575007f3fb996d68f290ded24a0322da7db27996",
    ("gl(2|1)", "1/3,2", 2): "d458eb49e97521af9f8cc2da4671516e5cf059f3cc3f03454342407cfeef7f99",
    ("gl(2|1)", "1/3,2", 3): "157b9a2c9a9f49bc76aa8d1cc89168f5c432b6bc408f96480873e8c0331e4e33",
    ("gl(3)", "1/3,2", 1): "3c6e4cab6355f5132043ce448189e72d07c44d8a688d8fc1fe35be408e8f7bba",
    ("gl(3)", "1/3,2", 2): "0e68042c6fb44bcae1bb48b817426f611a64fe89f6e3989002af78ffa83af2d1",
    ("gl(3)", "1/3,2", 3): "2d9fb7d1a51d4790f3aba9d28d398eecc516808c63d6597f22121862654336ae",
    ("gl(2|1)", "0,1,3", 3): "5818a464c68cc2099b97664f64b62724bf2e8a18445a3ca81b129df1b70358d1",
}


@pytest.mark.parametrize("flavor, z, kpow", LAX_DIGESTS, ids=["%s-z=%s-k%d" % key for key in LAX_DIGESTS])
def test_lax_expand_stdout_matches_the_recorded_digests(flavor, z, kpow):
    ell = str(len(z.split(",")))
    res = run(
        "--json", "lax", "expand", *LAX_FLAVORS[flavor],
        "--ell", ell, "--k-power", str(kpow), "--z", z,
    )
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == LAX_DIGESTS[flavor, z, kpow]


# sha256 of `--json` stdout in the central convention on gl(1+1|1)^3,
# recorded while K and the iota pull-back were scalar factors of the words
# that TensorModule.apply read; now gaudin expands them into words itself
CENTRAL_SYSTEM = [
    "--p", "1", "--m", "1", "--n", "1", "--ell", "3",
    "--weight", '{"level":"0","coeffs":[[-2,1],[1,1],[2,1]]}',
    "--convention", "central", "--levels", "1,2,3",
]
# z_1 circles z_2 = 1/2 once, counterclockwise; z_3 = 2 stays put
CENTRAL_LOOP = json.dumps(
    [[[0, 0], [0.5, 0], [2, 0]], [[0.5, 0.5], [0.5, 0], [2, 0]], [[1, 0], [0.5, 0], [2, 0]],
     [[0.5, -0.5], [0.5, 0], [2, 0]], [[0, 0], [0.5, 0], [2, 0]]]
)
CENTRAL_DIGESTS = {
    "hamiltonian": (
        ["hamiltonian", *CENTRAL_SYSTEM, "--z", "0,1/2,2"],
        "bca4711e194c2e904305934dcd1c6fc54ffd889637387fb815a479e0dd994f71",
    ),
    "hamiltonian-restrict-singular": (
        ["hamiltonian", *CENTRAL_SYSTEM, "--z", "0,1/2,2", "--restrict-singular"],
        "aefaf9b22e922b8bf7ee75eb9619c6c57a673ac12d52ec3098f5f52c25cb4cd0",
    ),
    "kz-monodromy": (
        ["kz", "monodromy", *CENTRAL_SYSTEM, "--kappa", "3", "--loop", CENTRAL_LOOP],
        "f411076405b5eae11ea1b6349410b797f02f5ae3776a0d2a5ce2373f378c0aa0",
    ),
    "kz-flatness": (
        ["kz", "flatness", *CENTRAL_SYSTEM, "--kappa", "3", "--z", "0,1/2,2"],
        "1b53aef1ca22241959e025197aafc4fda53515f9370adcf6f6326538f1e4ce1e",
    ),
}


@pytest.mark.parametrize("args, digest", CENTRAL_DIGESTS.values(), ids=CENTRAL_DIGESTS.keys())
def test_central_convention_stdout_matches_the_recorded_digests(args, digest):
    res = run("--json", *args)
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# sha256 of `--json kz solve` stdout from a singular start, in both
# conventions, on natural and on polynomial factors, each along a path of
# two segments.  The printed floats are the stepper's own, so the digests
# depend on numpy and hold on the machine they were recorded on, as the
# verify-cli digests do
SOLVE_PATH = json.dumps(
    [[[0, 0], [0.5, 0], [2, 0]], [[0.5, 0.5], [0.5, 0], [2, 0]], [[1, 0], [0.5, 0], [2.5, 0.5]]]
)
SOLVE_PATH_2 = json.dumps([[[0, 0], [1, 0]], [[0, 0.4], [2, 0]], [[0.5, -0.5], [1, 0]]])
KZ_SOLVE_DIGESTS = {
    "central-natural": (
        [*CENTRAL_SYSTEM, "--kappa", "3", "--path", SOLVE_PATH],
        "3613392105cc1c12f30e77550d60262a8426d37d63c4ffe5ab948ad1e5b8f56b",
    ),
    "plain-natural": (
        ["--ell", "3", "--mu", "2,1", "--kappa", "3", "--path", SOLVE_PATH],
        "f26aa583bd445122aa8320f4ffe7604dc9484b5c2f526e9e6c541344979b00cd",
    ),
    "plain-polynomial": (
        ["--m", "2", "--lam", "2", "--lam", "1,1", "--lam", "1", "--mu", "2,2,1", "--kappa", "3", "--path", SOLVE_PATH],
        "921e9f8c3541ced63ec3eabc6fa2eac208c0d5aa6311aa8beb88718d5c9601a7",
    ),
    "central-polynomial": (
        ["--lam", "2", "--lam", "1", "--mu", "2,1", "--convention", "central", "--levels", "1,2", "--kappa", "2",
         "--path", SOLVE_PATH_2],
        "3894882e397695e50c41cfbe22e1d639046a7c0f591ab9a5515e03c81049a7f6",
    ),
}


@pytest.mark.parametrize("args, digest", KZ_SOLVE_DIGESTS.values(), ids=KZ_SOLVE_DIGESTS.keys())
def test_kz_solve_stdout_matches_the_recorded_digests(args, digest):
    res = run("--json", "kz", "solve", *args)
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# sha256 of `--json` stdout of the commands that print exact char polys,
# recorded from the Hessenberg charpoly over Q that the integer Berkowitz
# recursion replaced: a dim-10 and a dim-5 duality chain, a dim-2 one and
# a dim-5 cubic spectrum.  The three duality digests were re-recorded when
# the classical side moved to the smallest stable rank: only setup.k
# changed (6 -> 3, 5 -> 2, 4 -> 3), char polys and weights did not
DUALITY_DIGESTS = {
    "duality-gl(1|1)-dim10": (
        ["duality", "check", "--lams", "1;1;1;1;1;1", "--m", "1", "--n", "1", "--mu", "3,1,1,1",
         "--z", "0,1/2,2,3,9/2,6"],
        "7b08b1b97d51f2db13d4a8c42052f1f1ad2279f56d6e6b59e1d78cba4cb83a84",
    ),
    "duality-gl(2|1)-dim5": (
        ["duality", "check", "--lams", "1;1;1;1;1", "--m", "2", "--n", "1", "--mu", "2,2,1", "--z", "0,1/3,1,5/2,4"],
        "471a345af10b104706933bf7e92ae9dc55a4cd68a2e3e67a422a5c2b7429a72a",
    ),
    "duality-gl(1|1)-dim2": (
        ["duality", "check", "--lams", "2;1;1", "--m", "1", "--n", "1", "--mu", "3,1", "--z", "0,1/2,3"],
        "e447c84923ccc96026efb4a86b0e2a112b2307eba6a9f27c81c65119a70b63eb",
    ),
    "spectrum-gl(2|1)-cubicC-dim5": (
        ["spectrum", "--m", "2", "--n", "1", "--ell", "5", "--mu", "2,2,1",
         "--z", "0,1/3,1,5/2,4", "--kind", "cubicC"],
        "fdc9cbb95f9ed0ae0be64580a0aa8d40365e8ad90aa8f9e97f2d3d93cc56b0d1",
    ),
}


@pytest.mark.parametrize("args, digest", DUALITY_DIGESTS.values(), ids=DUALITY_DIGESTS.keys())
def test_charpoly_stdout_matches_the_recorded_digests(args, digest):
    res = run("--json", *args)
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# sha256 of `--json module build --no-cache` stdout, recorded from the
# prefix-state Gram walk that the Shapovalov recursion replaced: radicals,
# pivots and blocks of every realization must come out the same
MODULE_DIGESTS = {
    "irreducible-gl(2|1)-21": (
        ["--kind", "irreducible", "--lam", "2,1", "--m", "2", "--n", "1"],
        "16c8657cc6386b025a051a246c28282f4f3d1dc2020b69098b16449a393d1702",
    ),
    "irreducible-gl(1|1)-3-depth3": (
        ["--kind", "irreducible", "--lam", "3", "--depth", "3"],
        "b4271ad89f9356a1ddd3a441ea4a20d77e7cb2ebd16ddfb1a682932a857f5523",
    ),
    "verma-gl(1|1)-2-depth2": (
        ["--kind", "verma", "--lam", "2", "--depth", "2"],
        "2e0b28110a3e75f39167a406438a9adc4fa5d399c53ba6eb2331491d39102682",
    ),
    # depth is a deficit height: only whole weight spaces are listed
    "verma-gl(2|1)-1-depth3": (
        ["--kind", "verma", "--lam", "1", "--m", "2", "--n", "1", "--depth", "3"],
        "b070f6719623fd4eb819c49c3a1c97744100ee5d2fc5ff671779a5ea05d7dff9",
    ),
    "irreducible-gl(3)-21": (
        ["--kind", "irreducible", "--lam", "2,1", "--flavor", "classical", "--k", "3"],
        "9bbbe2185fe29d33579588c65e77d4994fc78d714a2eadd5e53535d405d42395",
    ),
    "irreducible-gl(2|2)-31-depth4": (
        ["--kind", "irreducible", "--lam", "3,1", "--m", "2", "--n", "2", "--depth", "4"],
        "3dd6fa70e09d054b47e7c324ccbb7b90ca7dbd98dffe75deb135e81066730192",
    ),
    # the heaviest module-oracle item (32 of the 153 weights of its
    # truncated Verma have a nonzero quotient) and a deep gl(1|2) one (10
    # of 20)
    "irreducible-gl(2|2)-2111-depth9": (
        ["--kind", "irreducible", "--lam", "2,1,1,1", "--m", "2", "--n", "2", "--depth", "9"],
        "2d0a01517063cc846c5cda5a2bbb77bdff94ea627bb363c8b6f26801a887b334",
    ),
    "irreducible-gl(1|2)-311-depth7": (
        ["--kind", "irreducible", "--lam", "3,1,1", "--m", "1", "--n", "2", "--depth", "7"],
        "2ac583fd7e39dc390da4aa2b1833fa5e05fd68eb5b50cd7fcbe396b82963b64f",
    ),
}


@pytest.mark.parametrize("args, digest", MODULE_DIGESTS.values(), ids=MODULE_DIGESTS.keys())
def test_module_build_stdout_matches_the_recorded_digests(args, digest):
    res = run("--json", "module", "build", "--no-cache", *args)
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


def test_kz_commands():
    path = json.dumps([[[0, 0], [1, 0]], [[0, 0.5], [2, 0]]])
    res = run(
        "--json", "kz", "solve",
        "--ell", "2", "--mu", "1,1",
        "--path", path, "--psi0", "singular",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    validate_document(doc, "kz_solution.schema.json")
    res = run("--json", "kz", "flatness", "--ell", "2", "--mu", "1,1", "--z", "0,1")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"mode": "exact", "residual": "0", "zero": True}
    loop = json.dumps([[[0, 0], [1, 0]], [[0, 0.4], [2, 0]], [[0, 0], [1, 0]]])
    res = run("--json", "kz", "monodromy", "--ell", "2", "--mu", "1,1", "--loop", loop)
    assert res.exit_code == 0, res.output


def test_restricted_hamiltonian_has_the_spectrum_charpolys():
    from supergaudin.linalg import charpoly
    from supergaudin.serialize import frac_str, matrix_from_triplets

    tensor = ["--ell", "3", "--mu", "2,1", "--z", "0,1,3"]
    for kind in ("quadratic", "cubicC", "cubicD"):
        res = run("--json", "hamiltonian", *tensor, "--kind", kind, "--restrict-singular")
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        validate_document(doc, "hamiltonian.schema.json")
        assert doc["dim"] == 2
        mats = [matrix_from_triplets(m["triplets"], doc["dim"], doc["dim"]) for m in doc["matrices"]]
        res = run("--json", "spectrum", *tensor, "--kind", kind)
        assert res.exit_code == 0, res.output
        expected = json.loads(res.output)["charpolys"]
        assert [[frac_str(c) for c in charpoly(m)] for m in mats] == expected, kind


def test_lax_expand_third_power_matches_its_closed_form():
    res = run(
        "--json", "lax", "expand",
        "--ell", "2", "--k-power", "3", "--z", "0,1",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["k"] == 3
    assert all(entry["matches_closed_form"] for entry in doc["weights"])
    assert doc["matches"] is True


def test_kz_solve_takes_a_psi0_list_of_the_space_dimension():
    system = ["--ell", "2", "--mu", "1,1"]
    path = json.dumps([[[0, 0], [1, 0]], [[0, 0.5], [2, 0]]])
    res = run("--json", "kz", "solve", *system, "--path", path, "--psi0", "[1, 0]")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    validate_document(doc, "kz_solution.schema.json")
    assert doc["samples"][0]["psi"] == [[1.0, 0.0], [0.0, 0.0]]
    for psi0 in ("[1]", "[1, 0, 0]"):
        res = run("--json", "kz", "solve", *system, "--path", path, "--psi0", psi0)
        assert res.exit_code == 2, (psi0, res.output)
        assert "psi0 has the wrong dimension" in res.output


def test_kz_flatness_float_step_cross_check():
    res = run(
        "--json", "kz", "flatness", "--ell", "2",
        "--mu", "1,1", "--z", "0,1", "--float-step", "1e-5",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["mode"] == "float"
    assert doc["zero"] is True


def test_verify_all_subset_and_report_schema():
    res = run("--json", "verify", "all", "--checks", "io,truncation", "--seed", "3")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    validate_document(doc, "verify_report.schema.json")
    assert doc["failed"] == 0


def test_verify_checks_drop_empty_names():
    # a stray comma names no check: it neither fails nor widens the selection
    plain = run("--json", "verify", "all", "--checks", "io", "--seed", "3")
    padded = run("--json", "verify", "all", "--checks", " io, ,", "--seed", "3")
    assert padded.exit_code == 0, padded.output
    assert padded.output == plain.output


def test_exit_code_two_on_bad_input():
    assert run("spectrum", "--ell", "2", "--z", "0,1", "--mu", "1,1", "--no-such-flag").exit_code == 2
    assert run("nonsense").exit_code == 2
    assert run("module", "build", "--lam", "1,2").exit_code == 2
    assert run("hamiltonian", "--ell", "2", "--kind", "quadratic", "--z", "1,1", "--mu", "1,1").exit_code == 2
    res = run("duality", "check", "--lams", "2,2", "--mu", "4", "--m", "1", "--n", "1", "--z", "0,1")
    assert res.exit_code == 2


LOOP = json.dumps([[[0, 0], [1, 0]], [[0, 0.4], [2, 0]], [[0, 0], [1, 0]]])
TWO_SITES = ["--lam", "1", "--lam", "1"]
# e(1/2) + e(1) + 3 e(2): in V_4 (x) V over gl(2|1) it holds (3 e(2) + e(1/2)) (x) e(1),
# whose first factor lies five steps below the top of V_4
DEEP = '{"level":"0","coeffs":[[1,1],[2,1],[4,3]]}'
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
    "kz-infinite-kappa": (
        ["kz", "monodromy", *TWO_SITES, "--mu", "1,1", "--kappa", "inf", "--loop", LOOP],
        "Invalid value for '--kappa': kappa must be finite and nonzero, got inf",
    ),
    **{
        "kz-%s-zero-kappa" % cmd: (
            ["kz", cmd, *TWO_SITES, "--mu", "1,1", "--kappa", "0", *extra],
            "Invalid value for '--kappa': kappa must be finite and nonzero, got 0.0",
        )
        for cmd, extra in (("solve", ["--path", LOOP]), ("flatness", ["--z", "0,1"]), ("monodromy", ["--loop", LOOP]))
    },
    # the plain convention and the cubic Hamiltonians read no levels
    "hamiltonian-plain-levels": (
        ["hamiltonian", "--ell", "3", "--z", "0,1,3", "--mu", "2,1", "--levels", "7,8,9"],
        "--levels applies only with --convention central",
    ),
    "hamiltonian-cubicC-levels": (
        ["hamiltonian", "--ell", "3", "--kind", "cubicC", "--z", "0,1,3", "--mu", "2,1", "--levels", "7,8,9"],
        "--levels applies only with --convention central",
    ),
    "kz-plain-levels": (
        ["kz", "monodromy", *TWO_SITES, "--mu", "1,1", "--levels", "1,2", "--loop", LOOP],
        "--levels applies only with --convention central",
    ),
    "tensor-polynomial-with-p": (["tensor", "--lam", "2", "--p", "1"], "polynomial modules need p = q = 0"),
    "tensor-empty-partition": (["tensor", "--lam", "0"], "--lam 0: the empty partition labels the trivial module"),
    "module-build-empty-partition": (
        ["module", "build", "--kind", "polynomial", "--lam", "0"],
        "--lam 0: the empty partition labels the trivial module",
    ),
    "module-build-irreducible-wide": (
        ["module", "build", "--kind", "irreducible", "--lam", "2", "--flavor", "wide"],
        "unsupported flavor",
    ),
    "weight-number": (["singular", *TWO_SITES, "--weight", "5"], "malformed weight document"),
    "weight-list": (["singular", *TWO_SITES, "--weight", "[1]"], "malformed weight document"),
    "weight-coeffs-number": (["singular", *TWO_SITES, "--weight", '{"coeffs":5}'], "malformed weight document"),
    "weight-non-integral": (
        ["singular", "--ell", "2", "--weight", '{"coeffs":[[2,1.5],[1,0.5]],"level":"0"}'],
        "malformed weight document",
    ),
    "weight-infinite-coefficient": (
        ["singular", "--ell", "2", "--weight", '{"coeffs":[[2,Infinity]],"level":"0"}'],
        "malformed weight document",
    ),
    "weight-infinite-level": (
        ["singular", "--ell", "2", "--weight", '{"coeffs":[[2,2]],"level":Infinity}'],
        "malformed weight document",
    ),
    "weight-repeated-index": (
        ["singular", *TWO_SITES, "--weight", '{"coeffs":[[2,1],[2,3]],"level":"0"}'],
        "malformed weight document",
    ),
    # the weight schema's additionalProperties: false; an unknown key was silently dropped
    "weight-unknown-key": (
        ["spectrum", "--m", "1", "--n", "1", "--ell", "2", "--z", "0,1", "--weight", '{"level":"0","coeffs":[[1,1]],"x":1}'],
        "Invalid value for '--weight': malformed weight document {'level': '0', 'coeffs': [[1, 1]], 'x': 1}",
    ),
    # the decoder's words alone did not show what was read
    "weight-not-json": (
        ["singular", *TWO_SITES, "--weight", "nope"],
        "Invalid value for '--weight': need a JSON weight document, got 'nope': Expecting value",
    ),
    "weight-and-mu": (
        ["singular", *TWO_SITES, "--mu", "2", "--weight", '{"coeffs":[[2,2]],"level":"0"}'],
        "give --mu or --weight, not both",
    ),
    "tensor-lam-and-ell": (["tensor", "--lam", "1", "--ell", "3"], "give --lam factors or --ell, not both"),
    "tensor-no-factors": (["tensor"], "need --lam factors or --ell for natural powers"),
    "tensor-super-k": (["tensor", "--flavor", "super", "--k", "3", "--lam", "1"], "--k is the rank"),
    "tensor-classical-zero-k": (["tensor", "--flavor", "classical", "--k", "0", "--ell", "2"], "Invalid value for '--k': 0 is not in the range x>=1"),
    # the classical and wide flavors read --p and --n only
    "tensor-classical-m-q": (
        ["tensor", "--flavor", "classical", "--k", "2", "--ell", "2", "--m", "5", "--q", "2"],
        "reads --p and --n only, not --q or --m",
    ),
    "tensor-wide-default-m": (["tensor", "--flavor", "wide", "--k", "2", "--ell", "2", "--m", "1"], "not --m"),
    # the natural module has shape 1: any other --lam would be ignored
    "module-natural-lam": (["module", "build", "--kind", "natural", "--lam", "2"], "the natural module is the module of shape 1"),
    "lax-repeated-point": (["lax", "expand", "--ell", "2", "--z", "0,0"], "pairwise distinct"),
    "lax-too-few-points": (["lax", "expand", "--ell", "2", "--z", "0"], "--z needs 2 points"),
    "lax-cubic-needs-p-q-zero": (
        ["lax", "expand", "--k-power", "3", "--q", "1", "--p", "1", "--ell", "2", "--z", "0,1"],
        "cubic Hamiltonians need p = q = 0",
    ),
    "lax-one-site": (["lax", "expand", "--lam", "1", "--z", "0"], "need at least two sites"),
    "duality-check-repeated-point": (
        ["duality", "check", "--lams", "1;1", "--mu", "2", "--z", "0,0"],
        "pairwise distinct",
    ),
    "duality-cubic-repeated-point": (
        ["duality", "cubic", "--lams", "1;1", "--mu", "2", "--z", "0,0"],
        "pairwise distinct",
    ),
    **{
        "duality-%s-trials" % name: (
            ["duality", "check", "--lams", "1;1", "--mu", "2", "--trials", trials],
            "Invalid value for '--trials': %s is not in the range 1<=x<=30" % trials,
        )
        for name, trials in (("zero", "0"), ("too-many", "31"))
    },
    # more trials at the given points would repeat one report
    "duality-trials-with-z": (
        ["duality", "check", "--lams", "1;1", "--mu", "1,1", "--z", "0,1", "--trials", "3"],
        "--trials above 1 samples points, so it cannot go with --z",
    ),
    "duality-one-factor": (["duality", "check", "--lams", "1", "--mu", "1"], "at least two factors"),
    # an empty --z was read as no --z, and the points were sampled
    "duality-empty-z": (["duality", "check", "--lams", "1;1", "--mu", "1,1", "--z", ""], "--z needs 2 points, got 0"),
    "verify-one-site": (
        ["verify", "all", "--ell", "1", "--checks", "cyclic"],
        "Invalid value for '--ell': 1 is not in the range x>=2",
    ),
    # the natural tensor power would have 2^99 basis tuples: refused at once
    "verify-huge-ell": (
        ["verify", "all", "--ell", "99"],
        "--ell 99 with --m 1 --n 1 builds a tensor of size above the 243 allowed",
    ),
    # tensor used to build any power: --ell 16 held 65,536 basis tuples in a
    # 59 MB process, and the memory doubles with each factor
    **{
        "tensor-huge-ell-%s" % ell: (
            ["tensor", "--ell", ell],
            "--ell %s with --flavor super --q 0 --m 1 --p 0 --n 1 builds a tensor of size above the 243 allowed" % ell,
        )
        for ell in ("99", "99999999999999999999")
    },
    # V_(2,1) over gl(2|2) has dimension 20, and 20^2 = 400; truncated
    # factors were small enough to pass, and printed "dim": 0 at this mu,
    # whose singular space is a line
    "spectrum-factors-above-the-cap": (
        ["spectrum", "--m", "2", "--n", "2", "--lam", "2,1", "--lam", "2,1", "--mu", "2,2,2", "--z", "0,1"],
        "--lam 2,1 --lam 2,1 with --flavor super --q 0 --m 2 --p 0 --n 2 builds a tensor of size above the 243 allowed",
    ),
    # the classical side of eight (1) factors is a gl(7) tensor power of
    # 5,764,801 tuples: under a 1.5 GB address-space limit its build ended
    # in a MemoryError traceback
    **{
        "duality-%s-super-tensor-above-the-cap" % cmd: (
            ["duality", cmd, "--lams", "1;1;1;1;1;1;1;1", "--mu", "7,1", "--z", "0,1,2,3,4,5,6,7"],
            "--lams 1;1;1;1;1;1;1;1 with --m 1 --n 1 builds a tensor of size above the 243 allowed",
        )
        for cmd in ("check", "cubic")
    },
    # V_(3) over gl(2|1) has dimension 7, and 7^3 = 343
    "tensor-huge-factors": (
        ["tensor", "--m", "2", "--lam", "3", "--lam", "3", "--lam", "3"],
        "--lam 3 --lam 3 --lam 3 with --flavor super --q 0 --m 2 --p 0 --n 1 builds a tensor of size above the 243 allowed",
    ),
    "verify-negative-m": (["verify", "all", "--m", "-1"], "Invalid value for '--m': -1 is not in the range x>=0"),
    "verify-zero-n": (["verify", "all", "--n", "0"], "Invalid value for '--n': 0 is not in the range x>=1"),
    "module-build-negative-m": (
        ["module", "build", "--m", "-1", "--lam", "1"],
        "Invalid value for '--m': -1 is not in the range x>=0",
    ),
    "module-build-zero-n": (["module", "build", "--n", "0", "--lam", "1"], "Invalid value for '--n': 0 is not in the range x>=1"),
    "tensor-negative-q": (["tensor", "--q", "-1", "--ell", "2"], "Invalid value for '--q': -1 is not in the range x>=0"),
    # a zero denominator in a rational list or a weight level
    "hamiltonian-zero-denominator-z": (
        ["hamiltonian", "--ell", "2", "--z", "1/0,1", "--mu", "1,1"],
        "Invalid value for '--z': zero denominator in '1/0,1'",
    ),
    "hamiltonian-zero-denominator-level": (
        ["hamiltonian", *TWO_SITES, "--z", "0,1", "--mu", "1,1", "--convention", "central", "--levels", "1,1/0"],
        "Invalid value for '--levels': zero denominator in '1,1/0'",
    ),
    "duality-zero-denominator-z": (
        ["duality", "check", "--lams", "1;1", "--mu", "1,1", "--z", "0,1/0"],
        "Invalid value for '--z': zero denominator in '0,1/0'",
    ),
    "weight-zero-denominator-level": (
        ["singular", "--ell", "2", "--weight", '{"coeffs":[[2,2]],"level":"1/0"}'],
        "malformed weight document",
    ),
    # 0 and nan used to step forever, -1 ended in the stepper's own error,
    # and 1e-16 was raised to 100 EPS with only a warning
    **{
        "kz-%s-rel-tol-%s" % (cmd, tol): (
            ["kz", cmd, *TWO_SITES, "--mu", "1,1", path, LOOP, "--rel-tol", tol],
            "Invalid value for '--rel-tol': rel_tol must be a number in (0, 1)",
        )
        for cmd, path in (("solve", "--path"), ("monodromy", "--loop"))
        for tol in ("0", "nan", "-1", "1e-16")
    },
    # nan and inf made every float gate hold, and spectrum raised -1 to 1e-9
    **{
        "tol-%s-%s" % (where, tol): (
            ["--tol", tol, "spectrum", "--lam", "1", "--lam", "1", "--lam", "1", "--mu", "2,1", "--z", "0,1,3"]
            if where == "global" else ["verify", "all", "--tol", tol, "--checks", "kz"],
            "Invalid value for '--tol': must be a finite number >= 0",
        )
        for where in ("global", "verify")
        for tol in ("nan", "inf", "-1")
    },
    # spectrum used to raise any --tol below its floor to 1e-9 without a word
    **{
        "spectrum-tol-%s" % tol: (
            ["--tol", tol, "spectrum", "--lam", "1", "--lam", "1", "--lam", "1", "--mu", "2,1", "--z", "0,1,3"],
            "spectrum needs --tol >= 1e-09, got %s" % tol,
        )
        for tol in ("0", "1e-12")
    },
    "module-negative-depth": (
        ["module", "build", "--lam", "2", "--kind", "irreducible", "--depth", "-1"],
        "Invalid value for '--depth': -1 is not in the range 0<=x<=20",
    ),
    # with an even lowering generator the truncated Verma module grows
    # with its depth, so this build never ended
    "module-build-huge-depth": (
        ["module", "build", "--m", "2", "--n", "1", "--kind", "verma", "--lam", "1", "--depth", "99999999999999999999"],
        "Invalid value for '--depth': 99999999999999999999 is not in the range 0<=x<=20",
    ),
    # the size of a truncated Verma module is known before the build: V_(1)
    # over gl(3|2) to deficit height 20 has 96,672 monomials
    "module-build-verma-too-large": (
        ["module", "build", "--m", "3", "--n", "2", "--kind", "verma", "--lam", "1", "--depth", "20"],
        "--depth 20 truncates a Verma module of 96672 monomials here, above the 4000 allowed",
    ),
    "module-build-no-lam": (["module", "build"], "--lam is required for kind polynomial"),
    # --depth sizes the verma and irreducible truncations; the other kinds
    # used to ignore it without a word
    "module-build-polynomial-depth": (
        ["module", "build", "--lam", "2,1", "--m", "2", "--n", "1", "--depth", "5"],
        "--depth applies to the verma and irreducible kinds only, not polynomial",
    ),
    "module-build-natural-depth": (
        ["module", "build", "--kind", "natural", "--depth", "4"],
        "--depth applies to the verma and irreducible kinds only, not natural",
    ),
    # a tensor factor is V_lam, or the natural module of an --ell power: a
    # factor kind or depth is no option of a tensor command.  A truncated
    # factor is not a module: spectrum-truncated-factors printed "dim": 0
    # where the singular space is a line, and singular-factor-kind read
    # ambient_dim 2 of 3
    "hamiltonian-polynomial-depth": (
        ["hamiltonian", *TWO_SITES, "--m", "1", "--n", "1", "--mu", "2", "--z", "0,1", "--depth", "5"],
        "No such option '--depth'",
    ),
    "lax-polynomial-depth": (
        ["lax", "expand", *TWO_SITES, "--m", "1", "--n", "1", "--z", "0,1", "--depth", "5"],
        "No such option '--depth'",
    ),
    "tensor-natural-power-depth": (
        ["tensor", "--ell", "2", "--depth", "3"],
        "No such option '--depth'",
    ),
    "spectrum-truncated-factors": (
        ["spectrum", "--lam", "4", "--lam", "1", "--m", "2", "--mu", "4,1", "--z", "0,1", "--depth", "0"],
        "No such option '--depth'",
    ),
    "tensor-factor-kind": (["tensor", "--ell", "2", "--factor-kind", "natural"], "No such option '--factor-kind'"),
    "singular-factor-kind": (
        ["singular", "--lam", "4", "--lam", "1", "--m", "2", "--weight", DEEP, "--factor-kind", "irreducible"],
        "No such option '--factor-kind'",
    ),
    "tensor-zero-ell": (["tensor", "--ell", "0"], "Invalid value for '--ell': 0 is not in the range x>=1"),
    "tensor-negative-ell": (["tensor", "--ell", "-1"], "Invalid value for '--ell': -1 is not in the range x>=1"),
    "singular-no-target": (["singular", "--ell", "2"], "need --mu or --weight"),
    "hamiltonian-cubicC-central": (
        ["hamiltonian", "--ell", "2", "--kind", "cubicC", "--z", "0,1", "--mu", "1,1",
         "--convention", "central"],
        "cubic Hamiltonians exist only in the plain convention",
    ),
    "kz-solve-bad-path": (
        ["kz", "solve", *TWO_SITES, "--mu", "1,1", "--path", "{"],
        "Invalid value for '--path': need [[[re,im],...],...], got '{'",
    ),
    # the natural square has the weight 2 e(1/2) but no singular vector there
    "kz-solve-zero-singular-space": (
        ["kz", "solve", "--ell", "2", "--weight", '{"coeffs":[[1,2]],"level":"0"}',
         "--path", LOOP],
        "the singular space at --weight is zero",
    ),
    # 2 e(1) + 2 e(2) is a weight of V_(2) (x) V_(1,1) over gl(2|1), but
    # (2,2) is no constituent of the product
    "kz-solve-zero-singular-space-mu": (
        ["kz", "solve", "--lam", "2", "--lam", "1,1", "--m", "2", "--mu", "2,2", "--path", LOOP],
        "the singular space at --mu is zero",
    ),
    "kz-solve-bad-psi0": (
        ["kz", "solve", *TWO_SITES, "--mu", "1,1", "--psi0", "notjson", "--path", LOOP],
        "Invalid value for '--psi0': need 'singular' or a JSON list of numbers",
    ),
    # the length of a --psi0 list is checked against the weight space
    **{
        "kz-solve-psi0-length-%d" % len(psi0): (
            ["kz", "solve", *TWO_SITES, "--mu", "1,1", "--path", LOOP, "--psi0", json.dumps(psi0)],
            "--psi0: psi0 has the wrong dimension, %d entries for the weight space of dimension 2 at --mu" % len(psi0),
        )
        for psi0 in ([1, 2, 3], [])
    },
    "verify-unknown-check": (["verify", "all", "--checks", "nosuch"], "Invalid value for '--checks': unknown checks: nosuch"),
    "verify-empty-checks": (["verify", "all", "--checks", ""], "Invalid value for '--checks': no check named in ''"),
    "verify-comma-checks": (["verify", "all", "--checks", " , "], "Invalid value for '--checks': no check named in ' , '"),
    # a mu of another size is no weight of the tensor product: both
    # singular spaces are zero and the comparison would hold vacuously
    "duality-check-mu-size": (
        ["duality", "check", "--lams", "1;1", "--mu", "3"],
        "--lams 1;1 --mu 3 with --m 1 --n 1: mu has 3 boxes; the factors have 2",
    ),
    "duality-cubic-mu-size": (
        ["duality", "cubic", "--lams", "1;1", "--mu", "3"],
        "--lams 1;1 --mu 3 with --m 1 --n 1: mu has 3 boxes; the factors have 2",
    ),
    # a shape outside the hook labels no polynomial gl(m|n)-module
    **{
        "duality-%s-%s-hook" % (cmd, which): (
            ["duality", cmd, "--lams", lams, "--mu", mu],
            "--lams %s --mu %s with --m 1 --n 1: hook condition violated: %s = Partition([2, 2]) lies outside the (1|1) hook"
            % (lams, mu, refused),
        )
        for cmd in ("check", "cubic")
        for which, lams, mu, refused in (
            ("lams", "2,2;1", "3,2", "factor"),
            ("mu", "2;2", "2,2", "mu"),
        )
    },
    # the hook rule of a polynomial shape names the shape's option and the ranks
    "singular-mu-outside-the-hook": (
        ["singular", "--ell", "3", "--m", "2", "--n", "1", "--mu", "3,2,2"],
        "--mu 3,2,2 with --flavor super --q 0 --m 2 --p 0 --n 1: hook condition violated",
    ),
    "tensor-classical-lam-outside-the-hook": (
        ["tensor", "--flavor", "classical", "--k", "2", "--lam", "3"],
        "--lam 3 with --flavor classical --p 0 --n 2: hook condition violated",
    ),
    # squaring the segment direction in the clearance test overflowed
    **{
        "kz-%s-huge-waypoint" % cmd: (
            ["kz", cmd, "--ell", "2", "--mu", "1,1", flag,
             json.dumps([[[0, 0], [1, 0]], [[1e308, 0], [1, 0]], [[0, 0], [1, 0]]])],
            "Invalid value for '%s': waypoint 1 has a coordinate of modulus above 1e+100" % flag,
        )
        for cmd, flag in (("solve", "--path"), ("monodromy", "--loop"))
    },
    # JSON true and false were read as 1 and 0
    "weight-bool-coefficients": (
        ["hamiltonian", *TWO_SITES, "--z", "0,1", "--weight", '{"level":"0","coeffs":[[1,true],[2,true]]}'],
        "Invalid value for '--weight': malformed weight document {'level': '0', 'coeffs': [[1, True], [2, True]]}",
    ),
    "weight-bool-level": (
        ["hamiltonian", *TWO_SITES, "--z", "0,1", "--weight", '{"level":false,"coeffs":[[1,1],[2,1]]}'],
        "true or false where a number goes",
    ),
    # e(3/2) is no weight over gl(1|1): its weight space printed as "dim": 0
    "weight-off-the-index-set": (
        ["hamiltonian", *TWO_SITES, "--z", "0,1", "--weight", '{"level":"0","coeffs":[[3,1]]}'],
        "bad --weight: doubled index 3 is outside the index set of --flavor super --q 0 --m 1 --p 0 --n 1",
    ),
    # complex() read a JSON true as 1 and a JSON string as the number it spells
    **{
        "kz-solve-psi0-%s" % name: (
            ["kz", "solve", *TWO_SITES, "--mu", "1,1", "--path", LOOP, "--psi0", psi0],
            "Invalid value for '--psi0': need 'singular' or a JSON list of numbers",
        )
        for name, psi0 in (("bool", "[true, 1]"), ("string", '["1", 1]'), ("object", '{"1": 1}'))
    },
    # a NaN reached the stepper, which named its own y0; an infinite or
    # huge entry overflowed numpy's norms with RuntimeWarnings first
    **{
        "kz-solve-psi0-%s" % name: (
            ["kz", "solve", *TWO_SITES, "--mu", "1,1", "--path", LOOP, "--psi0", psi0],
            "Invalid value for '--psi0': psi0 needs finite entries of modulus at most 1e+100",
        )
        for name, psi0 in (
            ("nan", "[NaN, 1]"),
            ("infinity", "[Infinity, 1]"),
            ("huge", "[1e308, 1e308]"),
            ("huge-integer", "[1%s, 1]" % ("0" * 400)),
        )
    },
    # an overflow to nan in the float flatness residual read as flat, exit 0
    "kz-flatness-float-overflow-close-points": (
        ["kz", "flatness", "--ell", "3", "--mu", "1,1,1", "--z", "0,1e-300,1", "--float-step", "1e-5"],
        "the float residual at sites 1, 2 is not finite",
    ),
    "kz-flatness-float-overflow-tiny-kappa": (
        ["kz", "flatness", "--ell", "3", "--mu", "2,1", "--z", "0,1/3,1", "--kappa", "1e-310", "--float-step", "1e-5"],
        "the float residual at sites 1, 2 is not finite",
    ),
    # a point beyond every float was an OverflowError traceback (exit 1),
    # and one below every float collided with another as "point lies on a
    # diagonal", naming no option
    "kz-flatness-float-huge-point": (
        ["kz", "flatness", "--ell", "2", "--mu", "1,1", "--z", "0,1e400", "--float-step", "1e-5"],
        "--float-step needs --z points of modulus at most 1e+100, distinct as floats",
    ),
    "kz-flatness-float-colliding-points": (
        ["kz", "flatness", "--ell", "2", "--mu", "1,1", "--z", "0,1e-400", "--float-step", "1e-5"],
        "--float-step needs --z points of modulus at most 1e+100, distinct as floats",
    ),
    # a step that carries a point onto another overflows the residual
    "kz-flatness-float-step-onto-a-point": (
        ["kz", "flatness", "--ell", "2", "--mu", "1,1", "--z", "0,1", "--float-step", "-1"],
        "--float-step -1.0 with --z: the float residual at sites 1, 2 is not finite",
    ),
    # an exact entry too large for a float was an OverflowError traceback
    # (exit 1), or numpy's "must not contain infs or NaNs" (exit 1)
    **{
        "kz-%s-huge-level" % cmd: (
            ["kz", cmd, "--p", "1", "--ell", "2", "--weight", '{"level":"0","coeffs":[[-2,1],[2,1]]}',
             "--convention", "central", "--levels", "1,1e400", *extra],
            "a matrix entry has modulus above 1e+100",
        )
        for cmd, extra in (("solve", ["--path", LOOP]), ("flatness", ["--z", "0,1"]), ("monodromy", ["--loop", LOOP]))
    },
    "spectrum-entry-beyond-float": (
        ["spectrum", "--ell", "2", "--mu", "1,1", "--z", "0,1e-320"],
        "a matrix entry has modulus above 1e+100",
    ),
    "spectrum-entry-overflowing-the-combination": (
        ["spectrum", "--ell", "3", "--mu", "2,1", "--z", "0,1e-308,1"],
        "a matrix entry has modulus above 1e+100",
    ),
    # a negative rank reached Partition.part as an IndexError traceback, or
    # was refused as a hook violation
    "duality-check-negative-n": (
        ["duality", "check", "--lams", "1;1", "--mu", "1,1", "--m", "1", "--n", "-1"],
        "Invalid value for '--n': -1 is not in the range x>=1",
    ),
    "duality-cubic-negative-m": (
        ["duality", "cubic", "--lams", "1;1", "--mu", "1,1", "--m", "-1"],
        "Invalid value for '--m': -1 is not in the range x>=0",
    ),
    # an empty field was skipped: 1,,1 read as 1,1
    "singular-mu-empty-field": (["singular", "--ell", "2", "--mu", "1,,1"], "Invalid value for '--mu': empty field in '1,,1'"),
    "singular-mu-trailing-comma": (["singular", "--ell", "2", "--mu", "1,1,"], "Invalid value for '--mu': empty field in '1,1,'"),
    "hamiltonian-z-empty-field": (
        ["hamiltonian", "--ell", "2", "--mu", "1,1", "--z", "0,,1"],
        "Invalid value for '--z': empty field in '0,,1'",
    ),
    "hamiltonian-levels-empty-field": (
        ["hamiltonian", *TWO_SITES, "--z", "0,1", "--mu", "2", "--convention", "central", "--levels", "1,,2"],
        "Invalid value for '--levels': empty field in '1,,2'",
    ),
    "tensor-lam-empty-field": (["tensor", "--lam", "2,,1"], "Invalid value for '--lam': empty field in '2,,1'"),
    # an empty factor was refused as "the empty partition labels the
    # trivial module", naming no option
    **{
        "duality-empty-factor-%d" % k: (
            ["duality", "check", "--lams", lams, "--mu", "1,1"],
            "Invalid value for '--lams': empty factor in %r" % lams,
        )
        for k, lams in enumerate(("1;;1", "1;0", ";1,1"))
    },
}


def refused_option_line(output):
    """The last ``Error:`` line of a refusal, which must name an option (the
    usage line above it always does, through its ``--help``)."""
    line = [line for line in output.splitlines() if line.startswith("Error:")][-1]
    assert "--" in line, output
    return line


# a refusal prints its message alone, with no RuntimeWarning before it
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_factor_weight_and_level_input_exits_two(tmp_path, args, message):
    res = run("--cache-dir", str(tmp_path), *args)
    assert res.exit_code == 2, res.output
    assert message in refused_option_line(res.output)
    assert not list(tmp_path.rglob("*.json"))  # nothing reached the disk cache


def test_kz_bad_input_exits_two_with_a_message():
    system = ["--ell", "2", "--mu", "1,1"]
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


def test_kz_non_finite_waypoint_exits_two_with_a_message():
    # a nan passed every clearance and closedness check, and the stepper
    # then retried a nan step forever
    system = ["--m", "1", "--n", "1", "--ell", "3", "--mu", "2,1", "--kappa", "3"]
    for re, im in (("NaN", "0"), ("Infinity", "0"), ("-Infinity", "0"), ("0", "NaN")):
        loop = "[[[0,0],[1,0],[2,0]],[[%s,%s],[1,0],[2,0]],[[0,0],[1,0],[2,0]]]" % (re, im)
        for cmd in (["monodromy", "--loop", loop], ["solve", "--path", loop]):
            res = run("--json", "kz", *cmd, *system)
            assert res.exit_code == 2, (cmd, res.output)
            assert "waypoint 1 has a non-finite coordinate" in res.output


def _leaf_commands(cmd, path=()):
    if isinstance(cmd, click.Group):
        for name, sub in sorted(cmd.commands.items()):
            yield from _leaf_commands(sub, path + (name,))
    else:
        yield path


def test_every_leaf_command_has_help():
    # click's duplicate-option warning is an error under pytest, so a
    # miswired resolver shows here even on commands no other test runs
    leaves = list(_leaf_commands(main))
    assert len(leaves) == 12
    for path in leaves:
        res = run(*path, "--help")
        assert res.exit_code == 0, (path, res.output)


def test_tensor_commands_read_whole_polynomial_factors():
    # an irreducible factor truncated by --depth missed vectors: singular
    # read ambient_dim 2 at DEEP, and hamiltonian --restrict-singular ended
    # in a "subspace is not invariant" traceback with V_(2,1) at depth 2
    res = run("--json", "singular", "--lam", "4", "--lam", "1", "--m", "2", "--weight", DEEP)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ambient_dim"] == 3
    res = run(
        "--json", "hamiltonian", "--m", "2", "--n", "1", "--lam", "2,1", "--lam", "1", "--lam", "1",
        "--mu", "2,2,1", "--z", "0,1,2", "--restrict-singular",
    )
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["dim"] == 2


def test_verma_and_irreducible_kinds_read_depth():
    for cmd in (
        ["module", "build", "--no-cache", "--kind", "verma", "--lam", "2", "--m", "2"],
        ["module", "build", "--no-cache", "--kind", "irreducible", "--lam", "2", "--m", "2"],
    ):
        outputs = [run("--json", *cmd, *depth) for depth in ([], ["--depth", "0"], ["--depth", "4"])]
        assert all(res.exit_code == 0 for res in outputs), [res.output for res in outputs]
        default, shallow, given = (res.output for res in outputs)
        assert shallow != default and given == default


def _readers(param):
    names = [fn.__name__[len("check_"):] for fn in ALL_CHECKS if param in inspect.signature(fn).parameters]
    return names[0] if len(names) == 1 else ", ".join(names[:-1]) + " and " + names[-1]


def test_verify_help_names_the_checks_that_read_each_option():
    # --checks structure, say, ignores --m/--n, --ell and --tol alike
    helps = {param.name: param.help for param in main.commands["verify"].params if isinstance(param, click.Option)}
    for param in ("m", "n", "ell", "tol"):
        readers = _readers(param)
        suffix = "read by the %s check%s" % (readers, "s" if " and " in readers else "")
        assert helps[param].endswith(suffix), (param, helps[param])


def test_verify_ell_cap_sits_between_the_largest_powers_allowed_and_refused():
    # the largest natural powers allowed: 2^7, 3^5 and 6^3 (ell = 3 stays
    # allowed up to m + n = 6), the smallest refused: 2^8, 3^6 and 7^3
    for m, n, ell, allowed in ((1, 1, 7, True), (2, 1, 5, True), (3, 3, 3, True), (0, 1, 7, True),
                               (1, 1, 8, False), (1, 2, 6, False), (4, 3, 3, False), (0, 1, 8, False)):
        res = run("verify", "all", "--checks", "io", "--m", str(m), "--n", str(n), "--ell", str(ell))
        assert res.exit_code == (0 if allowed else 2), (m, n, ell, res.output)
        assert ("above the %d allowed" % MAX_TENSOR_DIM in res.output) is not allowed


def test_natural_kind_takes_lam_one(tmp_path):
    assert run("--json", "tensor", *TWO_SITES).output == run("--json", "tensor", "--ell", "2").output
    build = ["--json", "--cache-dir", str(tmp_path), "module", "build", "--kind", "natural"]
    first = run(*build, "--lam", "1")
    assert first.exit_code == 0, first.output
    assert run(*build).output == first.output
    assert len(list(tmp_path.rglob("*.json"))) == 1  # one cache entry for both spellings


def test_verify_all_stdout_matches_the_recorded_digests(tmp_path):
    # perfbench/expected.json holds the sha256 of each `verify all` stdout;
    # a scalar change that alters any printed byte ("3" -> "3/1") shows here
    recorded = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())["verify-cli"]["items"]
    for m, n in ((1, 1), (2, 1)):
        res = run("--json", "--cache-dir", str(tmp_path), "verify", "all", "--seed", "0", "--m", str(m), "--n", str(n))
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == recorded["seed=0:%d|%d" % (m, n)]


def test_determinism_of_verify_all():
    args = ["--json", "verify", "all", "--checks", "structure,io", "--seed", "11"]
    out1 = run(*args).output
    out2 = run(*args).output
    assert out1 == out2
