"""Acceptance suite: one test per criterion, exact tolerances pinned.

Every test prints a PASS line on success (visible with -s or -rA); a
failure fails the test the normal way.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from supergaudin.algebra import (
    AlgebraElement,
    BasisElement,
    off_diagonal_units,
    star_omega,
    supercommutator,
)
from supergaudin.duality import build_setup, cubic_spectrum_match, spectrum_match, truncation_check
from supergaudin.gaudin import (
    HamiltonianFamily,
    central_shift,
    cyclic_vector_test,
    joint_diagonalize,
    pairwise_commutator_residual,
)
from supergaudin.indices import IndexSet
from supergaudin.kz import (
    KZSystem,
    flatness_residual,
    gauge_transform,
    integrate_path,
    singular_preservation,
)
from supergaudin.linalg import charpoly, is_zero_matrix, mat_add, mat_mul, poly_shift
from supergaudin.modules import (
    NaturalModule,
    irreducible_truncated,
    polynomial_module,
    singular_space,
    tensor_product,
    truncate_module,
)
from supergaudin.partitions import GeneralizedPartition, Partition, all_partitions
from supergaudin.verify import _deficit_height, _oracle_dims, _sample_z
from supergaudin.weights import Weight, eps, unitarizable_weight

from oracles import restrict_to_basis


def report(criterion, text):
    print("ACCEPTANCE %s: PASS  %s" % (criterion, text))


def seeded_z_tuples(seed, ell, count=5):
    rng = random.Random(seed)
    return [_sample_z(rng, ell) for _ in range(count)]


def test_criterion_01_structure_exactness():
    """Super Jacobi and star identities, exact zero, 200 triples each."""
    rng = random.Random(101)
    flavors = [
        IndexSet.gl(0, 1, 0, 1),
        IndexSet.gl(0, 2, 0, 1),
        IndexSet.gl(0, 1, 0, 2),
        IndexSet.classical(0, 2),
        IndexSet.classical(0, 3),
        IndexSet.classical(0, 4),
    ]
    checked = 0
    for iset in flavors:
        members = list(iset)

        def rand_hom(parity):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                a, b = rng.choice(members), rng.choice(members)
                if (a.parity ^ b.parity) == parity:
                    terms[BasisElement(a, b)] = Fraction(rng.randint(-4, 4))
            return AlgebraElement(terms)

        for _ in range(200):
            px, py, pz = (rng.randint(0, 1) for _ in range(3))
            x, y, z = rand_hom(px), rand_hom(py), rand_hom(pz)
            sgn = -1 if (px and py) else 1
            lhs = supercommutator(x, supercommutator(y, z))
            rhs = supercommutator(supercommutator(x, y), z) + sgn * supercommutator(
                y, supercommutator(x, z)
            )
            assert (lhs - rhs).is_zero()
            assert (star_omega(star_omega(x)) - x).is_zero()
            anti = star_omega(supercommutator(x, y)) - supercommutator(
                star_omega(y), star_omega(x)
            )
            assert anti.is_zero()
            checked += 1
    report(1, "structure identities exact on %d random triples" % checked)


def _assert_equivariant(tensor, mats):
    """E H(w) = H(w') E, exactly, for every member H of ``mats[w]`` and
    every off-diagonal unit E taking the w-space to the w'-space; a
    diagonal unit acts on a weight space by a scalar."""
    for w, here in mats.items():
        for gen in off_diagonal_units(tensor.index_set):
            res = tensor.act(gen, w)
            if res is not None:
                target, block = res
                for a, b in zip(here, mats[target]):
                    assert mat_mul(block, a) == mat_mul(b, block), (gen, w)


def _hamiltonian_algebra_case(tensor, z):
    fam = HamiltonianFamily(tensor, z)
    mats = {w: fam.matrices(w) for w in tensor.weights()}
    for here in mats.values():
        assert pairwise_commutator_residual(here) == 0
        total = here[0]
        for mm in here[1:]:
            total = mat_add(total, mm)
        assert is_zero_matrix(total)
    _assert_equivariant(tensor, mats)


def test_criterion_02_hamiltonian_algebra():
    """[H,H]=0, sum H=0, [H, diagonal action]=0, exact, at 5 seeded z."""
    cases = []
    gl11 = IndexSet.gl(0, 1, 0, 1)
    gl21 = IndexSet.gl(0, 2, 0, 1)
    cases.append(tensor_product([NaturalModule(gl11)] * 3))
    cases.append(tensor_product([NaturalModule(gl21)] * 3))
    mixed1 = [polynomial_module(gl11, Partition(p)) for p in ([2], [1, 1], [1])]
    cases.append(tensor_product(mixed1))
    mixed2 = [polynomial_module(gl21, Partition(p)) for p in ([2, 1], [1], [1])]
    cases.append(tensor_product(mixed2))
    count = 0
    for tensor in cases:
        for z in seeded_z_tuples(202, len(tensor.factors)):
            _hamiltonian_algebra_case(tensor, z)
            count += 1
    report(2, "Hamiltonian algebra exact on %d (tensor, z) cases" % count)


def test_criterion_03_module_realization_oracle():
    """Polynomial and irreducible realizations match the tableau oracle,
    every weight, |lam| <= 6, four flavor pairs.  Exact equality."""
    cases = 0
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        iset = IndexSet.gl(0, m, 0, n)
        for lam in all_partitions(6, 1):
            if not lam.hook_ok(m, n):
                continue
            oracle = _oracle_dims(lam, m, n)
            poly = polynomial_module(iset, lam)
            assert {w: poly.dim(w) for w in poly.weights()} == oracle, (m, n, lam)
            hw = poly.highest_weight
            depth = max(
                d for d in (_deficit_height(iset, hw, w) for w in oracle) if d is not None
            )
            irr = irreducible_truncated(iset, hw, depth)
            assert {w: irr.dim(w) for w in irr.weights()} == oracle, (m, n, lam)
            cases += 1
    report(3, "oracle equality for %d (flavor, partition) cases" % cases)


def _duality_setups(m, n, max_boxes=5):
    shapes = [lam for lam in all_partitions(max_boxes - 1, 1) if lam.hook_ok(m, n)]
    seen = set()
    for ell in (2, 3):
        def rec(prefix, start, remaining):
            if len(prefix) == ell:
                yield list(prefix)
                return
            slots_left = ell - len(prefix) - 1
            for idx in range(start, len(shapes)):
                lam = shapes[idx]
                if lam.size + slots_left <= remaining:
                    yield from rec(prefix + [lam], idx, remaining - lam.size)

        for lams in rec([], 0, max_boxes):
            key = (ell, tuple(sorted(l.parts for l in lams)))
            if key in seen:
                continue
            seen.add(key)
            total = sum(l.size for l in lams)
            for mu in all_partitions(total, total):
                if mu.hook_ok(m, n):
                    yield lams, mu


def test_criterion_04_super_duality_quadratic():
    """Exact char-poly equality on matched singular spaces at 5 seeded z,
    with squarefree certificates at one sampled z per setup."""
    rng = random.Random(404)
    setups = 0
    checks = 0
    for m, n in ((1, 1), (2, 1)):
        for lams, mu in _duality_setups(m, n):
            setup = build_setup(lams, m, n, mu)
            sup, cla = setup.singular_pair()
            assert sup.dim == cla.dim, (m, n, lams, mu)
            if sup.dim == 0:
                continue
            setups += 1
            z_list = [_sample_z(rng, setup.ell) for _ in range(5)]
            for z in z_list:
                rep = spectrum_match(setup, z)
                assert rep["equal"], (m, n, lams, mu, z, rep)
                checks += 1
            fam = HamiltonianFamily(setup.super_tensor, z_list[0])
            mats = [fam.restricted(i, sup) for i in range(1, setup.ell + 1)]
            jd = joint_diagonalize(mats, rng)
            assert jd.all_certified, (m, n, lams, mu)
    # the closed 1x1 case at z = (0, 1): eigenvalue -1/(z1-z2) = 1
    rep = spectrum_match(build_setup([[1], [1]], 1, 1, [1, 1]), [0, 1])
    assert rep["per_i"][0]["charpoly_super"] == ["-1", "1"]
    assert rep["per_i"][0]["charpoly_classical"] == ["-1", "1"]
    report(4, "quadratic duality exact on %d setups (%d z-checks)" % (setups, checks))


def test_criterion_05_cubic_hamiltonians():
    """Cubic commutation with the diagonal action, duality char-poly
    equality for gl(1|1) at ell in {2,3}, and joint certificates."""
    rng = random.Random(505)
    gl11 = IndexSet.gl(0, 1, 0, 1)
    nat = NaturalModule(gl11)
    for ell in (2, 3):
        tensor = tensor_product([nat] * ell)
        z = _sample_z(rng, ell)
        for kind in ("cubicC", "cubicD"):
            fam = HamiltonianFamily(tensor, z, kind)
            _assert_equivariant(tensor, {w: fam.matrices(w) for w in tensor.weights()})
    checks = 0
    for ell in (2, 3):
        shapes = [[[1]] * ell]
        if ell == 2:
            shapes.append([[2], [1]])
        for lams in shapes:
            total = sum(sum(p) for p in lams)
            for mu in all_partitions(total, total):
                if not mu.hook_ok(1, 1):
                    continue
                setup = build_setup(lams, 1, 1, mu)
                sup, cla = setup.singular_pair()
                if sup.dim == 0:
                    continue
                z = _sample_z(rng, ell)
                rep = cubic_spectrum_match(setup, z)
                assert rep["equal"], (lams, mu, rep)
                checks += 1
                for kind in ("cubicC", "cubicD"):
                    fam = HamiltonianFamily(setup.super_tensor, z, kind)
                    mats = [fam.restricted(i, sup) for i in range(1, ell + 1)]
                    jd = joint_diagonalize(mats, rng)
                    assert jd.all_certified, (lams, mu, kind)
    report(5, "cubic duality and equivariance exact (%d matched setups)" % checks)


def test_criterion_06_lax_expansion():
    """S22 and S33 equal the closed forms as exact partial fractions."""
    from supergaudin.laxmatrix import lax_str_expansion, s22_closed, s33_closed

    rng = random.Random(606)
    count = 0
    for q, m, p, n in ((0, 1, 0, 1), (0, 2, 0, 1)):
        iset = IndexSet.gl(q, m, p, n)
        tensor = tensor_product([NaturalModule(iset)] * 2)
        z = _sample_z(rng, 2)
        e2 = lax_str_expansion(tensor, z, 2)
        e3 = lax_str_expansion(tensor, z, 3)
        c2 = s22_closed(tensor, z)
        c3 = s33_closed(tensor, z)
        for w in tensor.weights():
            assert e2[w][2] == c2[w], (m, n, w)
            assert e3[w][3] == c3[w], (m, n, w)
            count += 1
    report(6, "Lax S22/S33 identities exact on %d weight spaces" % count)


def test_criterion_07_cyclic_vector():
    """Exact Krylov span over 5 seeded z per case, including z=(0,1,2,...)."""
    rng = random.Random(707)
    cases = []
    gl11 = IndexSet.gl(0, 1, 0, 1)
    gl21 = IndexSet.gl(0, 2, 0, 1)
    for ell in (2, 3, 4):
        cases.append((gl11, ell))
    cases.append((gl21, 3))
    total = 0
    for iset, ell in cases:
        tensor = tensor_product([NaturalModule(iset)] * ell)
        z_tuples = [[Fraction(i) for i in range(ell)]] + [
            _sample_z(rng, ell) for _ in range(4)
        ]
        for z in z_tuples:
            fam = HamiltonianFamily(tensor, z)
            for w in tensor.weights():
                space = singular_space(tensor, w)
                if not space.dim:
                    continue
                mats = [fam.restricted(i, space) for i in range(1, ell + 1)]
                found, profile = cyclic_vector_test(mats, space.dim, rng, trials=4)
                assert found, (iset, ell, z, w, profile)
                total += 1
    report(7, "cyclic vector found in %d singular spaces" % total)


def test_criterion_08_central_shifts():
    """Char polys of the central convention are exact shifts of the plain
    ones by (p-q) sum d_i d_j/(z_i - z_j), for p=1, q=0, d in {1,2}."""
    rng = random.Random(808)
    iset = IndexSet.gl(0, 1, 1, 1)
    combos = [((1, (1,)), (2, (1, 1))), ((2, (2, 1)), (1, (1,))), ((2, (1, 1)), (2, (2, 1)))]
    spaces = 0
    for specs in combos:
        mods = []
        levels = []
        for d, parts in specs:
            xi = unitarizable_weight(iset, GeneralizedPartition(parts))
            mods.append(irreducible_truncated(iset, xi, 3))
            levels.append(Fraction(d))
        tensor = tensor_product(mods)
        z = _sample_z(rng, 2)
        plain = HamiltonianFamily(tensor, z)
        central = HamiltonianFamily(tensor, z, convention="central", levels=levels)
        for w in tensor.weights():
            space = singular_space(tensor, w)
            if not space.dim:
                continue
            spaces += 1
            for i in (1, 2):
                shift = central_shift(iset, levels, z, i)
                mp = restrict_to_basis(plain.matrix(i, w), space.basis)
                mc = restrict_to_basis(central.matrix(i, w), space.basis)
                assert charpoly(mc) == poly_shift(charpoly(mp), shift), (specs, w, i)
    report(8, "central-shift char-poly identity exact on %d spaces" % spaces)


def test_criterion_09_kz():
    """Flatness exactly zero; closed form to 1e-8; singular preservation
    1e-8; gauge round trip 1e-7; truncation stability 1e-7; full rank."""
    gl11 = IndexSet.gl(0, 1, 0, 1)
    t2 = tensor_product([NaturalModule(gl11)] * 2)
    mu = eps(1) + eps("1/2")
    # the gauge factor is 1 on gl(1|1), where c = 0; gl(1+1|1) has c = 1
    twin = tensor_product([NaturalModule(IndexSet.gl(0, 1, 1, 1))] * 2)
    rng = random.Random(909)
    for kappa in (1, 2):
        system = KZSystem(t2, mu, kappa=kappa)
        assert flatness_residual(system, _sample_z(rng, 2)) == 0
        space = singular_space(t2, mu)
        psi0 = [complex(x) for x in space.basis[0]]
        path = [(0, 1), (0.5j, 2), (1j, 3)]
        sol = integrate_path(system, path, psi0, rel_tol=1e-10)
        z_end = sol.samples[-1]["z"]
        ratio = (z_end[0] - z_end[1]) / (0 - 1)
        expect = np.array(psi0) * ratio ** (-1.0 / kappa)
        assert float(np.max(np.abs(sol.final_psi - expect))) <= 1e-8
        assert singular_preservation(sol) <= 1e-8
        twin_sol = integrate_path(KZSystem(twin, mu, kappa=kappa, levels=[1, 1]), path[:2], [1.0, 0.5], rel_tol=1e-10)
        back = gauge_transform(gauge_transform(twin_sol, "plain_to_central"), "central_to_plain")
        assert float(np.max(np.abs(back.final_psi - twin_sol.final_psi))) <= 1e-7
    big = NaturalModule(IndexSet.classical(0, 3))
    small = truncate_module(big, IndexSet.classical(0, 2))
    mu_c = eps("1/2") + eps("3/2")
    path = [(0, 1), (0.3j, 1.5), (0.7j, 2.5)]
    a = integrate_path(
        KZSystem(tensor_product([big, big]), mu_c), path, [1.0, -0.5], rel_tol=1e-10
    ).final_psi
    b = integrate_path(
        KZSystem(tensor_product([small, small]), mu_c), path, [1.0, -0.5], rel_tol=1e-10
    ).final_psi
    assert float(np.max(np.abs(a - b))) <= 1e-7
    t3 = tensor_product([NaturalModule(gl11)] * 3)
    mu3 = eps(1) + eps("1/2") + eps("1/2")
    system3 = KZSystem(t3, mu3, kappa=2)
    path3 = [(0, 1, 3), (0.5j, 2, 3.5), (0.1, 1.2, 2.9)]
    cols = []
    for k in range(system3.dim):
        e = [0.0] * system3.dim
        e[k] = 1.0
        cols.append(integrate_path(system3, path3, e, rel_tol=1e-10).final_psi)
    assert np.linalg.matrix_rank(np.array(cols).T, tol=1e-8) == system3.dim
    sing3 = singular_space(t3, mu3)
    sing_cols = []
    for vec in sing3.basis:
        sol = integrate_path(system3, path3, [complex(x) for x in vec], rel_tol=1e-10)
        assert singular_preservation(sol) <= 1e-8
        sing_cols.append(sol.final_psi)
    assert np.linalg.matrix_rank(np.array(sing_cols).T, tol=1e-8) == sing3.dim
    report(9, "KZ flatness, closed form, gauge, truncation and rank checks")


def test_criterion_10_truncation():
    """Band restriction equals the smaller-rank irreducible or vanishes,
    weight by weight, on 10 classical cases."""
    cases = [
        ([1], 3, 2), ([1], 3, 1),
        ([2], 3, 2), ([2], 3, 1),
        ([1, 1], 3, 2),
        ([2, 1], 3, 2), ([2, 1], 4, 3),
        ([3], 4, 2),
        ([2, 2], 4, 2), ([1, 1, 1], 3, 1),
    ]
    assert len(cases) == 10
    for parts, k_big, k_small in cases:
        mod = polynomial_module(IndexSet.classical(0, k_big), Partition(parts))
        rep = truncation_check(mod, IndexSet.classical(0, k_small))
        assert rep["equal"], (parts, k_big, k_small, rep)
    report(10, "truncation functor verified on 10 classical cases")


def test_criterion_11_determinism():
    """`verify all` emits byte-identical JSON for a fixed seed, whatever
    the string hash seed: weights hash by identity, so an iteration that
    followed hash order would differ between these runs."""
    for m, n in ((1, 1), (2, 1)):
        cmd = [
            sys.executable,
            "-m",
            "supergaudin.cli",
            "--json",
            "verify",
            "all",
            "--m",
            str(m),
            "--n",
            str(n),
            "--ell",
            "3",
            "--seed",
            "7",
        ]
        runs = [
            subprocess.run(cmd, capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("0", "1")
        ]
        for r in runs:
            assert r.returncode == 0, r.stdout + r.stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()
    report(11, "verify all is byte-identical across runs and hash seeds (seed 7, gl(1|1) and gl(2|1))")
