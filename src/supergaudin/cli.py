"""Command-line surface.

Everything prints one JSON document to stdout.  Exit codes: 0 on success,
1 when a verification ran and failed (the report still prints), 2 on
argument or validation errors.
"""

import json
import random
import sys
from fractions import Fraction

import click

from .cache import DiskCache, content_key
from .duality import build_setup, cubic_spectrum_match, spectrum_match
from .gaudin import cubic_family, joint_diagonalize, quadratic_family
from .indices import IndexSet
from .linalg import charpoly, commutator, is_zero_matrix
from .modules import (
    NaturalModule,
    irreducible_truncated,
    polynomial_module,
    singular_space,
    tensor_product,
    verma_truncated,
)
from .partitions import Partition
from .serialize import (
    dumps,
    frac_str,
    matrix_triplets,
    module_to_json,
)
from .weights import Weight


def _emit(ctx, doc):
    click.echo(dumps(doc, pretty=not ctx.obj["compact"]))


def _parse_partition(text, flag):
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
        return Partition(parts)
    except ValueError as exc:
        raise click.UsageError("bad partition for %s: %s" % (flag, exc))


def _parse_fracs(text, flag):
    try:
        return [Fraction(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise click.UsageError("bad rational list for %s: %s" % (flag, exc))


def _index_set(flavor, q, m, p, n, k):
    try:
        if flavor == "classical":
            return IndexSet.classical(p, k if k is not None else n)
        if flavor == "wide":
            return IndexSet.wide(p, k if k is not None else n)
        return IndexSet.gl(q, m, p, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _hook_weight(iset, mu):
    from .modules import polynomial_highest_weight

    try:
        return polynomial_highest_weight(iset, mu)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _target_weight(iset, mu, weight_json):
    if weight_json:
        try:
            return Weight.from_json(json.loads(weight_json))
        except ValueError as exc:
            raise click.UsageError("bad --weight: %s" % (exc,))
    if mu is None:
        raise click.UsageError("need --mu or --weight")
    return _hook_weight(iset, _parse_partition(mu, "--mu"))


def _factors(iset, lams, kind, depth):
    mods = []
    for lam in lams:
        if kind == "natural":
            mods.append(NaturalModule(iset))
        elif kind == "polynomial":
            mods.append(polynomial_module(iset, lam))
        elif kind == "irreducible":
            from .modules import polynomial_highest_weight

            hw = polynomial_highest_weight(iset, lam)
            mods.append(irreducible_truncated(iset, hw, depth))
        else:
            raise click.UsageError("unsupported factor kind %r" % (kind,))
    if not mods:
        raise click.UsageError("need at least one --lam (or --ell for naturals)")
    return mods


flavor_options = [
    click.option("--flavor", type=click.Choice(["super", "classical", "wide"]), default="super"),
    click.option("--q", type=int, default=0, show_default=True),
    click.option("--m", type=int, default=1, show_default=True),
    click.option("--p", type=int, default=0, show_default=True),
    click.option("--n", type=int, default=1, show_default=True),
    click.option("--k", type=int, default=None, help="classical rank shorthand for --n"),
]


def with_flavor(fn):
    for opt in reversed(flavor_options):
        fn = opt(fn)
    return fn


@click.group()
@click.option("--json", "compact", is_flag=True, help="compact single-line JSON output")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--cache-dir", default=None, help="cache root (or SUPERGAUDIN_CACHE)")
@click.pass_context
def main(ctx, compact, seed, tol, cache_dir):
    """Exact Gaudin Hamiltonians, super duality and KZ equations."""
    ctx.obj = {
        "compact": compact,
        "seed": seed,
        "tol": tol,
        "cache": DiskCache(cache_dir) if cache_dir else DiskCache(),
    }


@main.group()
def module():
    """Module realizations."""


@module.command("build")
@with_flavor
@click.option("--lam", default=None, help="partition, e.g. 2,1")
@click.option(
    "--kind",
    type=click.Choice(["natural", "polynomial", "irreducible", "verma"]),
    default="polynomial",
    show_default=True,
)
@click.option("--depth", type=int, default=4, show_default=True)
@click.option("--no-cache", is_flag=True)
@click.pass_context
def module_build(ctx, flavor, q, m, p, n, k, lam, kind, depth, no_cache):
    """Build one weight module and print its JSON realization."""
    iset = _index_set(flavor, q, m, p, n, k)
    if kind != "natural" and lam is None:
        raise click.UsageError("--lam is required for kind %s" % kind)
    descriptor = {
        "op": "module",
        "index_set": {"flavor": iset.flavor, **iset.params()},
        "kind": kind,
        "lam": lam,
        "depth": depth if kind in ("verma", "irreducible") else None,
    }

    def compute():
        if kind == "natural":
            return module_to_json(NaturalModule(iset))
        shape = _parse_partition(lam, "--lam")
        if kind == "polynomial":
            return module_to_json(polynomial_module(iset, shape))
        hw = _hook_weight(iset, shape)
        if kind == "verma":
            return module_to_json(verma_truncated(iset, hw, depth))
        return module_to_json(irreducible_truncated(iset, hw, depth))

    try:
        if no_cache:
            doc = compute()
        else:
            doc, _ = ctx.obj["cache"].get_or_compute(content_key(descriptor), compute)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(ctx, doc)


def _tensor_from_options(flavor, q, m, p, n, k, lams, kind, depth, ell):
    iset = _index_set(flavor, q, m, p, n, k)
    if not lams and not ell:
        raise click.UsageError("need --lam factors or --ell for natural powers")
    shapes = [_parse_partition(t, "--lam") for t in lams]
    try:
        mods = _factors(iset, shapes, kind, depth) if shapes else [NaturalModule(iset)] * ell
        return iset, tensor_product(mods)
    except ValueError as exc:
        raise click.UsageError(str(exc))


tensor_options = [
    click.option("--lam", "lams", multiple=True, help="factor partition (repeatable)"),
    click.option(
        "--factor-kind",
        "kind",
        type=click.Choice(["natural", "polynomial", "irreducible"]),
        default="polynomial",
        show_default=True,
    ),
    click.option("--depth", type=int, default=4, show_default=True),
    click.option("--ell", type=int, default=None, help="tensor power of the natural module"),
]


def with_tensor(fn):
    for opt in reversed(flavor_options + tensor_options):
        fn = opt(fn)
    return fn


@main.command()
@with_tensor
@click.pass_context
def tensor(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell):
    """Weight multiplicities of a tensor product."""
    _, tens = _tensor_from_options(flavor, q, m, p, n, k, lams, kind, depth, ell)
    doc = {
        "total_dim": tens.total_dim,
        "weights": [{"weight": w.to_json(), "dim": tens.dim(w)} for w in tens.weights()],
    }
    _emit(ctx, doc)


@main.command()
@with_tensor
@click.option("--mu", default=None, help="singular weight as a partition")
@click.option("--weight", default=None, help="singular weight as JSON")
@click.pass_context
def singular(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, mu, weight):
    """Basis of a singular weight space."""
    iset, tens = _tensor_from_options(flavor, q, m, p, n, k, lams, kind, depth, ell)
    target = _target_weight(iset, mu, weight)
    space = singular_space(tens, target)
    doc = {
        "weight": target.to_json(),
        "ambient_dim": tens.dim(target),
        "dim": space.dim,
        "basis": [[frac_str(x) for x in vec] for vec in space.basis],
    }
    _emit(ctx, doc)


def _build_family(tens, kind, z, convention, levels):
    try:
        if kind == "quadratic":
            return quadratic_family(tens, z, convention=convention, levels=levels)
        if convention != "plain":
            raise ValueError("cubic Hamiltonians exist only in the plain convention")
        if levels is not None and len(levels) != len(tens.factors):
            raise ValueError("need one level per tensor factor")
        return cubic_family(tens, z, kind[-1])
    except ValueError as exc:
        raise click.UsageError(str(exc))


@main.command()
@with_tensor
@click.option("--kind", "ham_kind", type=click.Choice(["quadratic", "cubicC", "cubicD"]), default="quadratic", show_default=True)
@click.option("--z", required=True, help="rational points, e.g. 0,1,3")
@click.option("--convention", type=click.Choice(["plain", "central"]), default="plain", show_default=True)
@click.option("--levels", default=None, help="K scalars per factor")
@click.option("--mu", default=None)
@click.option("--weight", default=None)
@click.option("--restrict-singular", is_flag=True, help="restrict to the singular subspace")
@click.pass_context
def hamiltonian(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, ham_kind, z, convention, levels, mu, weight, restrict_singular):
    """Exact Hamiltonian matrices on one weight space."""
    iset, tens = _tensor_from_options(flavor, q, m, p, n, k, lams, kind, depth, ell)
    zs = _parse_fracs(z, "--z")
    lv = _parse_fracs(levels, "--levels") if levels else None
    target = _target_weight(iset, mu, weight)
    fam = _build_family(tens, ham_kind, zs, convention, lv)
    if restrict_singular:
        space = singular_space(tens, target)
        mats = [fam.restricted(i, space) for i in range(1, fam.ell + 1)]
        dim = space.dim
    else:
        mats = [fam.matrix(i, target) for i in range(1, fam.ell + 1)]
        dim = tens.dim(target)
    comm_zero = all(
        is_zero_matrix(commutator(mats[a], mats[b]))
        for a in range(len(mats))
        for b in range(a + 1, len(mats))
    )
    doc = {
        "z": [frac_str(x) for x in zs],
        "weight": target.to_json(),
        "kind": ham_kind,
        "convention": convention,
        "dim": dim,
        "matrices": [{"site": i + 1, "triplets": matrix_triplets(mm)} for i, mm in enumerate(mats)],
        "certificates": {"commutators_zero": comm_zero},
    }
    _emit(ctx, doc)


@main.command()
@with_tensor
@click.option("--kind", "ham_kind", type=click.Choice(["quadratic", "cubicC", "cubicD"]), default="quadratic", show_default=True)
@click.option("--z", required=True)
@click.option("--mu", default=None)
@click.option("--weight", default=None)
@click.pass_context
def spectrum(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, ham_kind, z, mu, weight):
    """Joint spectrum on a singular weight space, with exact certificates."""
    iset, tens = _tensor_from_options(flavor, q, m, p, n, k, lams, kind, depth, ell)
    zs = _parse_fracs(z, "--z")
    target = _target_weight(iset, mu, weight)
    space = singular_space(tens, target)
    fam = _build_family(tens, ham_kind, zs, "plain", None)
    mats = [fam.restricted(i, space) for i in range(1, fam.ell + 1)]
    rng = random.Random(ctx.obj["seed"])
    try:
        jd = joint_diagonalize(mats, rng, tol=max(ctx.obj["tol"], 1e-9))
    except ValueError as exc:
        _emit(ctx, {"error": str(exc), "weight": target.to_json()})
        sys.exit(1)
    doc = {
        "z": [frac_str(x) for x in zs],
        "weight": target.to_json(),
        "kind": ham_kind,
        "dim": space.dim,
        "charpolys": [[frac_str(c) for c in charpoly(mm)] for mm in mats],
        "spectrum": [
            [[round(val.real, 12), round(val.imag, 12)] for val in row]
            for row in jd.eigenvalues
        ],
        "certificates": {
            "squarefree": jd.all_certified,
            "commutators_zero": True,
        },
    }
    _emit(ctx, doc)
    if not jd.all_certified:
        sys.exit(1)


@main.group()
def duality():
    """Super-duality spectrum comparisons."""


def _duality_args(fn):
    opts = [
        click.option("--lams", required=True, help="factor partitions, e.g. '1;2,1'"),
        click.option("--m", type=int, default=1, show_default=True),
        click.option("--n", type=int, default=1, show_default=True),
        click.option("--mu", required=True, help="master singular partition"),
        click.option("--z", default=None, help="rational points; sampled when omitted"),
        click.option("--trials", type=int, default=1, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _run_duality(ctx, lams, m, n, mu, z, trials, matcher):
    from .verify import _sample_z

    shapes = [_parse_partition(t, "--lams") for t in lams.split(";")]
    mu_p = _parse_partition(mu, "--mu")
    try:
        setup = build_setup(shapes, m, n, mu_p)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rng = random.Random(ctx.obj["seed"])
    reports = []
    ok = True
    for t in range(trials):
        zs = _parse_fracs(z, "--z") if z else _sample_z(rng, setup.ell)
        if len(zs) != setup.ell:
            raise click.UsageError("--z needs %d points" % setup.ell)
        rep = matcher(setup, zs)
        reports.append(rep)
        ok = ok and rep["equal"]
    doc = reports[0] if trials == 1 else {"reports": reports, "equal": ok}
    _emit(ctx, doc)
    if not ok:
        sys.exit(1)


@duality.command("check")
@_duality_args
@click.pass_context
def duality_check(ctx, lams, m, n, mu, z, trials):
    """Quadratic char-poly equality across the correspondence."""
    _run_duality(ctx, lams, m, n, mu, z, trials, spectrum_match)


@duality.command("cubic")
@_duality_args
@click.pass_context
def duality_cubic(ctx, lams, m, n, mu, z, trials):
    """Cubic char-poly equality across the correspondence."""
    _run_duality(ctx, lams, m, n, mu, z, trials, cubic_spectrum_match)


def _pf_to_json(pf):
    out = []
    for key in sorted(pf.terms, key=lambda kk: (-1, 0) if kk == ("c",) else kk):
        label = "const" if key == ("c",) else "pole_%d_order_%d" % key
        out.append({"term": label, "triplets": matrix_triplets(pf.terms[key])})
    return out


@main.command("lax")
@click.argument("action", type=click.Choice(["expand"]))
@with_tensor
@click.option("--k-power", "kpow", type=click.IntRange(1, 3), default=2, show_default=True)
@click.option("--z", required=True)
@click.pass_context
def lax(ctx, action, flavor, q, m, p, n, k, lams, kind, depth, ell, kpow, z):
    """Supertrace expansion of Lax powers; checks the closed forms."""
    from .laxmatrix import lax_str_expansion, s22_closed, s33_closed

    iset, tens = _tensor_from_options(flavor, q, m, p, n, k, lams, kind, depth, ell)
    zs = _parse_fracs(z, "--z")
    expansion = lax_str_expansion(tens, zs, kpow)
    weights_doc = []
    matches = True
    for w in tens.weights():
        entry = {
            "weight": w.to_json(),
            "S": {
                "S_%d%d" % (kpow, j): _pf_to_json(pf)
                for j, pf in enumerate(expansion[w])
            },
        }
        if kpow == 2:
            entry["matches_closed_form"] = expansion[w][2] == s22_closed(tens, zs, w)
        elif kpow == 3:
            entry["matches_closed_form"] = expansion[w][3] == s33_closed(tens, zs, w)
        matches = matches and entry.get("matches_closed_form", True)
        weights_doc.append(entry)
    doc = {"k": kpow, "z": [frac_str(x) for x in zs], "weights": weights_doc, "matches": matches}
    _emit(ctx, doc)
    if not matches:
        sys.exit(1)


@main.group()
def kz():
    """Knizhnik-Zamolodchikov equations."""


def _kz_system(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, mu, weight, kappa, convention, levels):
    from .kz import KZSystem

    iset, tens = _tensor_from_options(flavor, q, m, p, n, k, lams, kind, depth, ell)
    target = _target_weight(iset, mu, weight)
    lv = _parse_fracs(levels, "--levels") if levels else None
    try:
        return tens, target, KZSystem(tens, target, kappa=kappa, convention=convention, levels=lv)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _parse_path(text, flag):
    try:
        data = json.loads(text)
        return [tuple(complex(re, im) for re, im in wp) for wp in data]
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise click.UsageError("bad %s (need [[[re,im],...],...]): %s" % (flag, exc))


kz_options = [
    click.option("--mu", default=None),
    click.option("--weight", default=None),
    click.option("--kappa", type=float, default=1.0, show_default=True),
    click.option("--convention", type=click.Choice(["plain", "central"]), default="plain"),
    click.option("--levels", default=None),
]


def with_kz(fn):
    for opt in reversed(flavor_options + tensor_options + kz_options):
        fn = opt(fn)
    return fn


@kz.command("solve")
@with_kz
@click.option("--path", "path_json", required=True, help="waypoints [[[re,im],...],...]")
@click.option("--psi0", default="singular", help="'singular', basis index, or JSON vector")
@click.option("--rel-tol", type=float, default=1e-10, show_default=True)
@click.pass_context
def kz_solve(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, mu, weight, kappa, convention, levels, path_json, psi0, rel_tol):
    """Integrate the KZ system along a path."""
    from .kz import integrate_path

    tens, target, system = _kz_system(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, mu, weight, kappa, convention, levels)
    path = _parse_path(path_json, "--path")
    if psi0 == "singular":
        space = singular_space(tens, target)
        if not space.dim:
            raise click.UsageError("the singular space at --mu is zero")
        vec = [complex(x) for x in space.basis[0]]
    else:
        try:
            vec = [complex(idx) for idx in json.loads(psi0)]
        except (json.JSONDecodeError, TypeError, ValueError):
            raise click.UsageError("bad --psi0")
    try:
        sol = integrate_path(system, path, vec, rel_tol=rel_tol)
    except (ValueError, RuntimeError) as exc:
        raise click.UsageError(str(exc))
    _emit(ctx, sol.to_json())


@kz.command("flatness")
@with_kz
@click.option("--z", required=True)
@click.option("--float-step", type=float, default=None, help="finite-difference cross-check step")
@click.pass_context
def kz_flatness(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, mu, weight, kappa, convention, levels, z, float_step):
    """Curvature residual of the KZ connection (exact by default)."""
    from .kz import flatness_residual

    tens, target, system = _kz_system(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, mu, weight, kappa, convention, levels)
    zs = _parse_fracs(z, "--z")
    try:
        if float_step is None:
            resid = flatness_residual(system, zs)
            doc = {"mode": "exact", "residual": frac_str(resid), "zero": resid == 0}
        else:
            resid = flatness_residual(system, [complex(float(x), 0.0) for x in zs], h=float_step)
            doc = {"mode": "float", "residual": resid, "zero": resid <= ctx.obj["tol"]}
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(ctx, doc)
    if not doc["zero"]:
        sys.exit(1)


@kz.command("monodromy")
@with_kz
@click.option("--loop", "loop_json", required=True)
@click.option("--rel-tol", type=float, default=1e-10, show_default=True)
@click.pass_context
def kz_monodromy(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, mu, weight, kappa, convention, levels, loop_json, rel_tol):
    """Transport matrix around a closed loop."""
    from .kz import monodromy

    tens, target, system = _kz_system(ctx, flavor, q, m, p, n, k, lams, kind, depth, ell, mu, weight, kappa, convention, levels)
    loop = _parse_path(loop_json, "--loop")
    try:
        mat = monodromy(system, loop, rel_tol=rel_tol)
    except (ValueError, RuntimeError) as exc:
        raise click.UsageError(str(exc))
    doc = {
        "dim": system.dim,
        "matrix": [[[round(c.real, 12), round(c.imag, 12)] for c in row] for row in mat],
    }
    _emit(ctx, doc)


@main.command()
@click.argument("what", type=click.Choice(["all"]))
@click.option("--checks", default=None, help="comma-separated check names")
@click.option("--m", type=int, default=1, show_default=True)
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--ell", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=None, help="overrides the global seed")
@click.option("--tol", type=float, default=None, help="overrides the global tolerance")
@click.pass_context
def verify(ctx, what, checks, m, n, ell, seed, tol):
    """Run the invariant suite; exit 1 on any failure."""
    from .verify import CHECKS_BY_NAME, run_checks

    names = None
    if checks:
        names = [c.strip() for c in checks.split(",")]
        unknown = [c for c in names if c not in CHECKS_BY_NAME]
        if unknown:
            raise click.UsageError("unknown checks: %s" % ", ".join(unknown))
    report = run_checks(
        names,
        seed=seed if seed is not None else ctx.obj["seed"],
        m=m,
        n=n,
        ell=ell,
        tol=tol if tol is not None else ctx.obj["tol"],
    )
    _emit(ctx, report)
    if report["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
