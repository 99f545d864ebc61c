"""Named verification checks driven by the CLI.

Every check is deterministic given the seed and returns a JSON-ready dict
with a boolean "passed".  ``run_checks`` executes a selection in order.
"""

import random
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    BasisElement,
    iota,
    star_omega,
    supercommutator,
    supertrace,
)
from .duality import build_setup, central_shift, cubic_spectrum_match, spectrum_match, truncation_check
from .gaudin import cyclic_vector_test, family_commutator_residual, quadratic_family
from .indices import IndexSet
from .linalg import charpoly, commutator, is_zero_matrix, mat_add, poly_shift
from .modules import (
    NaturalModule,
    deficit_height as _deficit_height,
    irreducible_truncated,
    polynomial_module,
    singular_space,
    tensor_product,
    truncate_module,
)
from .partitions import Partition, all_partitions, hook_tableau_contents
from .weights import Weight, eps


def _sample_z(rng, ell):
    """Distinct rationals from the 1/7-spaced grid in [0, ell]."""
    grid = [Fraction(k, 7) for k in range(7 * ell + 1)]
    while True:
        pts = rng.sample(grid, ell)
        if len(set(pts)) == ell:
            return pts


def _random_homogeneous(rng, members, parity):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a = rng.choice(members)
        b = rng.choice(members)
        if (a.parity ^ b.parity) != parity:
            continue
        terms[BasisElement(a, b)] = Fraction(rng.randint(-3, 3))
    return AlgebraElement(terms)


def _flavors_under_test():
    sets = [
        IndexSet.gl(0, 1, 0, 1),
        IndexSet.gl(0, 2, 0, 1),
        IndexSet.gl(0, 1, 0, 2),
        IndexSet.gl(1, 1, 1, 1),
    ]
    sets += [IndexSet.classical(0, k) for k in (2, 3, 4)]
    return sets


def check_structure(seed, trials=200, **_):
    """Super Jacobi, cocycle, iota and star-structure identities."""
    rng = random.Random(seed)
    failures = 0
    tested = 0
    for iset in _flavors_under_test():
        members = list(iset)
        for _ in range(trials):
            px, py, pz = (rng.randint(0, 1) for _ in range(3))
            x = _random_homogeneous(rng, members, px)
            y = _random_homogeneous(rng, members, py)
            z = _random_homogeneous(rng, members, pz)
            tested += 1
            for central in (False, True):
                lhs = supercommutator(x, supercommutator(y, z, central), central)
                rhs = supercommutator(supercommutator(x, y, central), z, central)
                sgn = -1 if (px and py) else 1
                rhs = rhs + sgn * supercommutator(y, supercommutator(x, z, central), central)
                if not (lhs - rhs).is_zero():
                    failures += 1
            if supertrace(supercommutator(x, y)):
                failures += 1
            # iota intertwines the plain and extended brackets
            if not (
                iota(supercommutator(x, y)) - supercommutator(iota(x), iota(y), central=True)
            ).is_zero():
                failures += 1
            # omega is an anti-involution: w(w(x)) = x, w[x,y] = [w(y), w(x)]
            if not (star_omega(star_omega(x)) - x).is_zero():
                failures += 1
            if not (
                star_omega(supercommutator(x, y))
                - supercommutator(star_omega(y), star_omega(x))
            ).is_zero():
                failures += 1
    return {"name": "structure", "passed": failures == 0, "tested": tested, "failures": failures}


def check_hamiltonians(seed, m=1, n=1, ell=3, **_):
    """[H^i, H^j] = 0, sum H^i = 0 and [H^i, diagonal action] = 0, exactly."""
    rng = random.Random(seed)
    iset = IndexSet.gl(0, m, 0, n)
    nat = NaturalModule(iset)
    tensor = tensor_product([nat] * ell)
    z = _sample_z(rng, ell)
    fam = quadratic_family(tensor, z)
    failures = []
    members = list(iset)
    for w in tensor.weights():
        mats = fam.matrices(w)
        if family_commutator_residual(fam, fam, w):
            failures.append("commutator@" + repr(w))
        total = mats[0]
        for mm in mats[1:]:
            total = mat_add(total, mm)
        if not is_zero_matrix(total):
            failures.append("sum@" + repr(w))
        for a in members:
            for b in members:
                gen = BasisElement(a, b)
                res = tensor.act(gen, w)
                if res is None or res[0] != w:
                    continue
                for mm in mats:
                    if not is_zero_matrix(commutator(mm, res[1])):
                        failures.append("equivariance@" + repr(w))
    return {
        "name": "hamiltonians",
        "passed": not failures,
        "z": [str(x) for x in z],
        "weights": len(list(tensor.weights())),
        "failures": failures[:5],
    }


def _oracle_dims(lam, m, n):
    contents = hook_tableau_contents(lam, m, n)
    out = {}
    for content, cnt in contents.items():
        coeffs = {}
        for i in range(m):
            if content[i]:
                coeffs[2 * (i + 1)] = content[i]
        for j in range(n):
            if content[m + j]:
                coeffs[2 * (j + 1) - 1] = content[m + j]
        out[Weight(coeffs, 0)] = cnt
    return out


def check_modules(seed, m=1, n=1, max_boxes=3, **_):
    """Polynomial and irreducible realizations match the tableau oracle."""
    iset = IndexSet.gl(0, m, 0, n)
    bad = []
    count = 0
    for lam in all_partitions(max_boxes, 1):
        if not lam.hook_ok(m, n):
            continue
        count += 1
        oracle = _oracle_dims(lam, m, n)
        poly = polynomial_module(iset, lam)
        if {w: poly.dim(w) for w in poly.weights()} != oracle:
            bad.append("poly:" + repr(lam))
        hw = poly.highest_weight
        depth = max(
            (d for d in (_deficit_height(iset, hw, w) for w in oracle) if d is not None),
            default=0,
        )
        irr = irreducible_truncated(iset, hw, depth)
        if {w: irr.dim(w) for w in irr.weights()} != oracle:
            bad.append("irr:" + repr(lam))
    return {"name": "modules", "passed": not bad, "cases": count, "failures": bad}


def check_duality(seed, m=1, n=1, max_boxes=3, ell_max=3, **_):
    """Quadratic spectrum equality across the correspondence."""
    rng = random.Random(seed)
    cases = 0
    bad = []
    shapes = [lam for lam in all_partitions(2, 1) if lam.hook_ok(m, n)]
    lists = []
    for a in shapes:
        for b in shapes:
            if a.size + b.size <= max_boxes:
                lists.append([a, b])
            for c in shapes:
                if ell_max >= 3 and a.size + b.size + c.size <= max_boxes:
                    lists.append([a, b, c])
    for lams in lists:
        total = sum(l.size for l in lams)
        for mu in all_partitions(total, total):
            if not mu.hook_ok(m, n):
                continue
            setup = build_setup(lams, m, n, mu)
            sup, cla = setup.singular_pair()
            if sup.dim != cla.dim:
                bad.append("dim:" + repr(lams) + repr(mu))
                continue
            if sup.dim == 0:
                continue
            cases += 1
            z = _sample_z(rng, setup.ell)
            rep = spectrum_match(setup, z)
            if not rep["equal"]:
                bad.append("spec:" + repr(lams) + repr(mu))
    return {"name": "duality", "passed": not bad, "cases": cases, "failures": bad[:5]}


def check_duality_cubic(seed, **_):
    rng = random.Random(seed)
    bad = []
    cases = 0
    for lams, mu in (
        ([[1], [1]], [1, 1]),
        ([[1], [1]], [2]),
        ([[1], [1], [1]], [2, 1]),
    ):
        setup = build_setup(lams, 1, 1, mu)
        z = _sample_z(rng, setup.ell)
        rep = cubic_spectrum_match(setup, z)
        cases += 1
        if not rep["equal"]:
            bad.append(repr((lams, mu)))
    return {"name": "duality_cubic", "passed": not bad, "cases": cases, "failures": bad}


def check_lax(seed, **_):
    from .laxmatrix import lax_str_expansion, s22_closed, s33_closed

    rng = random.Random(seed)
    bad = []
    for q, m, p, n in ((0, 1, 0, 1), (0, 2, 0, 1)):
        iset = IndexSet.gl(q, m, p, n)
        nat = NaturalModule(iset)
        tensor = tensor_product([nat, nat])
        z = _sample_z(rng, 2)
        e2 = lax_str_expansion(tensor, z, 2)
        e3 = lax_str_expansion(tensor, z, 3)
        for w in tensor.weights():
            if e2[w][2] != s22_closed(tensor, z, w):
                bad.append("S22@gl(%d|%d)" % (m, n))
            if e3[w][3] != s33_closed(tensor, z, w):
                bad.append("S33@gl(%d|%d)" % (m, n))
    return {"name": "lax", "passed": not bad, "failures": bad[:4]}


def check_cyclic(seed, ell=3, **_):
    rng = random.Random(seed)
    iset = IndexSet.gl(0, 1, 0, 1)
    nat = NaturalModule(iset)
    results = []
    ok = True
    for ell_here in (2, ell, 4):
        tensor = tensor_product([nat] * ell_here)
        for z in (_sample_z(rng, ell_here), [Fraction(i) for i in range(ell_here)]):
            fam = quadratic_family(tensor, z)
            for w in tensor.weights():
                space = singular_space(tensor, w)
                if not space.dim:
                    continue
                mats = [fam.restricted(i, space) for i in range(1, ell_here + 1)]
                found, profile = cyclic_vector_test(mats, space.dim, rng)
                results.append({"ell": ell_here, "dim": space.dim, "found": found})
                ok = ok and found
    return {"name": "cyclic", "passed": ok, "cases": len(results)}


def check_central_shift(seed, **_):
    """Char polys of the central-convention Hamiltonians are shifts of the
    plain ones by (p - q) sum d_i d_j / (z_i - z_j)."""
    from .partitions import GeneralizedPartition
    from .weights import unitarizable_weight

    rng = random.Random(seed)
    iset = IndexSet.gl(0, 1, 1, 1)
    bad = []
    mods = []
    for d, parts in ((1, (1,)), (2, (1, 1))):
        xi = unitarizable_weight(GeneralizedPartition(parts), 1, 0, 1, 1)
        # the Verma builder reads only the coefficients; the level rides along
        mods.append(irreducible_truncated(iset, Weight(xi.coeffs, d), 3))
    tensor = tensor_product(mods)
    levels = [Fraction(1), Fraction(2)]
    z = _sample_z(rng, 2)
    plain = quadratic_family(tensor, z)
    central = quadratic_family(tensor, z, convention="central", levels=levels)
    count = 0
    for w in tensor.weights():
        space = singular_space(tensor, w)
        if not space.dim:
            continue
        count += 1
        for i in (1, 2):
            shift = central_shift(1, 0, levels, z, i, flavor="super")
            mp = plain.restricted(i, space)
            mc = central.restricted(i, space)
            if charpoly(mc) != poly_shift(charpoly(mp), shift):
                bad.append(repr(w))
    return {"name": "central_shift", "passed": not bad, "spaces": count, "failures": bad[:4]}


def check_kz(seed, tol=1e-8, **_):
    import numpy as np

    from .kz import (
        KZSystem,
        flatness_residual,
        gauge_transform,
        integrate_path,
        monodromy,
        singular_preservation,
    )

    rng = random.Random(seed)
    iset = IndexSet.gl(0, 1, 0, 1)
    nat = NaturalModule(iset)
    t2 = tensor_product([nat, nat])
    mu = eps(1) + eps("1/2")
    details = {}
    ok = True
    for kappa in (1, 2):
        system = KZSystem(t2, mu, kappa=kappa)
        exact0 = flatness_residual(system, _sample_z(rng, 2))
        details["flatness_exact_kappa%d" % kappa] = str(exact0)
        ok = ok and exact0 == 0
        space = singular_space(t2, mu)
        psi0 = [complex(x) for x in space.basis[0]]
        path = [(0, 1), (0.5j, 2), (1j, 3)]
        sol = integrate_path(system, path, psi0, rel_tol=1e-10)
        zend = sol.samples[-1]["z"]
        ratio = (zend[0] - zend[1]) / (0 - 1)
        expect = np.array(psi0) * ratio ** (-1.0 / kappa)
        err = float(np.max(np.abs(sol.final_psi - expect)))
        details["closed_form_err_kappa%d" % kappa] = round(err, 14)
        ok = ok and err <= tol
        sp = singular_preservation(sol)
        details["singular_ratio_kappa%d" % kappa] = round(sp, 14)
        ok = ok and sp <= tol
        back = gauge_transform(
            gauge_transform(sol, "plain_to_central", 1, 0, levels=[1, 1]),
            "central_to_plain",
            1,
            0,
            levels=[1, 1],
        )
        gerr = float(np.max(np.abs(back.final_psi - sol.final_psi)))
        details["gauge_roundtrip_kappa%d" % kappa] = round(gerr, 14)
        ok = ok and gerr <= 10 * tol
    # truncation stability: rank-3 classical pair of naturals against rank 2
    big = NaturalModule(IndexSet.classical(0, 3))
    small_set = IndexSet.classical(0, 2)
    small = truncate_module(big, small_set)
    mu_c = eps("1/2") + eps("3/2")
    tb = tensor_product([big, big])
    ts = tensor_product([small, small])
    sys_b = KZSystem(tb, mu_c, kappa=1)
    sys_s = KZSystem(ts, mu_c, kappa=1)
    psi0 = [1.0, 0.5]
    path = [(0, 1), (0.3j, 1.5)]
    sol_b = integrate_path(sys_b, path, psi0, rel_tol=1e-10)
    sol_s = integrate_path(sys_s, path, psi0, rel_tol=1e-10)
    import numpy as _np

    terr = float(_np.max(_np.abs(sol_b.final_psi - sol_s.final_psi)))
    details["truncation_gap"] = round(terr, 14)
    ok = ok and terr <= 10 * tol
    # fundamental solution rank equals the weight space dimension
    system = KZSystem(t2, mu, kappa=1)
    fundamental = monodromy(system, [(0, 1), (0.4j, 2), (0, 1)], rel_tol=1e-10)
    rank = int(_np.linalg.matrix_rank(fundamental, tol=1e-8))
    details["solution_rank"] = rank
    ok = ok and rank == system.dim
    mono = monodromy(system, [(0, 1), (0.5j, 2), (0, 1)], rel_tol=1e-10)
    details["contractible_monodromy_err"] = round(
        float(_np.max(_np.abs(mono - _np.eye(system.dim)))), 12
    )
    ok = ok and details["contractible_monodromy_err"] <= 1e-7
    return {"name": "kz", "passed": ok, **details}


def check_truncation(seed, **_):
    bad = []
    cases = 0
    shapes = [Partition(p) for p in ([1], [2], [1, 1], [2, 1], [3], [2, 2])]
    for lam in shapes:
        big = IndexSet.classical(0, max(lam.part(1) + 1, 3))
        mod = polynomial_module(big, lam)
        for k_small in (lam.part(1), max(lam.part(1) - 1, 1)):
            small = IndexSet.classical(0, k_small)
            rep = truncation_check(mod, small)
            cases += 1
            if not rep["equal"]:
                bad.append("%r->%d" % (lam, k_small))
    return {"name": "truncation", "passed": not bad, "cases": cases, "failures": bad}


def check_io(seed, **_):
    import json
    import tempfile

    import jsonschema

    from .cache import DiskCache, content_key
    from .serialize import dumps, module_to_json, module_from_json, validate_document

    iset = IndexSet.gl(0, 1, 0, 1)
    mod = polynomial_module(iset, Partition([2]))
    doc = module_to_json(mod)
    back = module_from_json(doc)
    ok = module_to_json(back) == doc
    try:
        validate_document(doc, "module.schema.json")
        registry_ok = True
    except jsonschema.ValidationError:
        registry_ok = False
    with tempfile.TemporaryDirectory() as root:
        cache = DiskCache(root)
        key = content_key({"demo": 1})
        cache.store(key, doc)
        ok = ok and cache.lookup(key) == doc
        bad_path = cache._path("deadbeef")
        with open(bad_path, "w") as fh:
            fh.write("{not json")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ok = ok and cache.lookup("deadbeef") is None
    det = dumps(doc) == dumps(json.loads(dumps(doc)))
    return {
        "name": "io",
        "passed": ok and det and registry_ok,
        "schema_validated": registry_ok,
    }


ALL_CHECKS = [
    check_structure,
    check_hamiltonians,
    check_modules,
    check_duality,
    check_duality_cubic,
    check_lax,
    check_cyclic,
    check_central_shift,
    check_kz,
    check_truncation,
    check_io,
]

CHECKS_BY_NAME = {fn.__name__.replace("check_", ""): fn for fn in ALL_CHECKS}


def run_checks(names=None, seed=0, **params):
    """Run the named checks (all by default); returns the aggregate report."""
    selected = ALL_CHECKS if not names else [CHECKS_BY_NAME[n] for n in names]
    results = [fn(seed=seed, **params) for fn in selected]
    passed = sum(1 for r in results if r["passed"])
    return {
        "seed": seed,
        "passed": passed,
        "failed": len(results) - passed,
        "checks": results,
    }
