"""Command-line surface.

Everything prints one JSON document to stdout.  Exit codes: 0 on success,
1 when a verification ran and failed (the report still prints), 2 on
argument or validation errors.

Each input is resolved once, before a command runs: ``with_flavor``,
``with_tensor`` and ``with_kz`` hand the commands the index set, the
tensor, the target weight and the KZ system, and every --z goes through
``_points``.  Bad input exits 2 with a message before anything is
computed or cached; any other exception keeps its traceback.
"""

import functools
import json
import random
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from .cache import DiskCache, content_key
from .duality import build_setup, cubic_spectrum_match, spectrum_match
from .gaudin import cubic_family, family_levels, joint_diagonalize, pairwise_commutator_residual, quadratic_family
from .indices import IndexSet
from .kz import KZSystem, check_path, flatness_residual, integrate_path, monodromy
from .linalg import charpoly
from .modules import (
    NaturalModule,
    irreducible_truncated,
    polynomial_highest_weight,
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
    validate_document,
)
from .weights import Weight


def _emit(ctx, doc):
    click.echo(dumps(doc, pretty=not ctx.obj["compact"]))


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), its input-check ValueError as a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _parse_partition(text, flag):
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
        return Partition(parts)
    except ValueError as exc:
        raise click.UsageError("bad partition for %s: %s" % (flag, exc))


def _parse_fracs(text, flag):
    try:
        return [Fraction(x) for x in text.split(",") if x.strip() != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError("bad rational list for %s: %s" % (flag, exc))


# the float eigenbasis of a correct family diagonalizes it only to within
# double-precision rounding, so spectrum refuses a tighter tolerance
SPECTRUM_TOL_FLOOR = 1e-9


def _tolerance(ctx, param, value):
    """A --tol value: finite and nonnegative, or a float gate holds vacuously."""
    if value is not None and not 0 <= value < float("inf"):
        raise click.BadParameter("must be a finite number >= 0, got %r" % (value,))
    return value


def _points(text, ell):
    """The --z points: one rational per tensor factor, pairwise distinct."""
    zs = _parse_fracs(text, "--z")
    if len(zs) != ell:
        raise click.UsageError("--z needs %d points, got %d" % (ell, len(zs)))
    if len(set(zs)) != ell:
        raise click.UsageError("--z points must be pairwise distinct")
    return zs


def _index_set(flavor, q, m, p, n, k):
    if k is not None:
        if flavor == "super":
            raise click.UsageError("--k is the rank of the classical and wide flavors; use --m and --n")
        if k < 1:
            raise click.UsageError("--k must be at least 1")
        n = k
    if flavor != "super":
        # the classical and wide flavors read p and n only
        given = ["--" + name for name in ("q", "m") if _given(name)]
        if given:
            raise click.UsageError("the %s flavor reads --p and --n only, not %s" % (flavor, " or ".join(given)))
        q = m = 0
    return _checked(IndexSet, flavor, p=p, q=q, m=m, n=n)


def _shape(kind, text):
    """The partition of one --lam; the natural module has shape 1 only."""
    lam = _parse_partition(text, "--lam")
    if kind == "natural" and lam != Partition([1]):
        raise click.UsageError("--lam %s: the natural module is the module of shape 1" % (text,))
    return lam


def _given(name):
    """Whether the option ``name`` was set, not left at its default."""
    return click.get_current_context().get_parameter_source(name) is not ParameterSource.DEFAULT


def _check_depth(kind):
    """--depth sizes the verma and irreducible truncations; refuse a given
    --depth for any other kind, which would ignore it."""
    if kind not in ("verma", "irreducible") and _given("depth"):
        raise click.UsageError("--depth applies to the verma and irreducible kinds only, not %s" % kind)


def _module(iset, kind, lam, depth):
    """One weight module of the given kind; lam is read by all but natural."""
    if kind == "natural":
        return NaturalModule(iset)
    if kind == "polynomial":
        return _checked(polynomial_module, iset, lam)
    hw = _checked(polynomial_highest_weight, iset, lam)
    return _checked(verma_truncated if kind == "verma" else irreducible_truncated, iset, hw, depth)


def _tensor(iset, lams, kind, depth, ell):
    if lams and ell is not None:
        raise click.UsageError("give --lam factors or --ell, not both")
    if not lams and not ell:
        raise click.UsageError("need --lam factors or --ell for natural powers")
    if ell and kind != "natural" and _given("kind"):
        raise click.UsageError("--ell builds natural powers; --factor-kind %s applies to --lam factors" % kind)
    _check_depth(kind if lams else "natural")
    if lams:
        mods = [_module(iset, kind, _shape(kind, t), depth) for t in lams]
    else:
        mods = [NaturalModule(iset)] * ell
    return _checked(tensor_product, mods)


def _target_weight(iset, mu, weight_json):
    if mu is not None and weight_json is not None:
        raise click.UsageError("give --mu or --weight, not both")
    if weight_json is not None:
        try:
            weight = Weight.from_json(json.loads(weight_json))
        except ValueError as exc:
            raise click.UsageError("bad --weight: %s" % (exc,))
        # an index outside the set names no Cartan element: its weight
        # space would silently read as zero
        outside = [h for h in weight.support() if h not in iset]
        if outside:
            options = " ".join("--%s %d" % item for item in iset.params().items())
            raise click.UsageError(
                "bad --weight: doubled index %d is outside the index set of --flavor %s %s"
                % (outside[0].doubled, iset.flavor, options)
            )
        return weight
    if mu is None:
        raise click.UsageError("need --mu or --weight")
    return _checked(polynomial_highest_weight, iset, _parse_partition(mu, "--mu"))


def _levels(tens, convention, text):
    """--levels: one rational per tensor factor, read by the central
    convention only; the others would silently ignore it."""
    if text is None:
        return None
    levels = _parse_fracs(text, "--levels")
    _checked(family_levels, tens, convention, levels)
    if convention != "central":
        raise click.UsageError("--levels applies only with --convention central")
    return levels


def _resolver(options, resolve):
    """A decorator adding ``options`` to a command; ``resolve`` replaces
    their raw values in the keyword arguments by resolved objects."""

    def decorate(fn):
        @functools.wraps(fn)
        def run(**kwargs):
            resolve(kwargs)
            return fn(**kwargs)

        for opt in reversed(options):
            run = opt(run)
        return run

    return decorate


FLAVOR_OPTIONS = [
    click.option("--flavor", type=click.Choice(["super", "classical", "wide"]), default="super"),
    click.option("--q", type=int, default=0, show_default=True),
    click.option("--m", type=int, default=1, show_default=True),
    click.option("--p", type=int, default=0, show_default=True),
    click.option("--n", type=int, default=1, show_default=True),
    click.option("--k", type=int, default=None, help="classical rank shorthand for --n"),
]

TENSOR_OPTIONS = [
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


def _resolve_flavor(kwargs):
    kwargs["iset"] = _index_set(*(kwargs.pop(name) for name in ("flavor", "q", "m", "p", "n", "k")))


with_flavor = _resolver(FLAVOR_OPTIONS, _resolve_flavor)


def with_tensor(target=False, mu_help=None, weight_help=None):
    """The flavor and tensor options, resolved to ``tens``; with ``target``
    also --mu/--weight, resolved to the ``target`` weight."""
    options = list(TENSOR_OPTIONS)
    if target:
        options += [click.option("--mu", default=None, help=mu_help), click.option("--weight", default=None, help=weight_help)]

    def resolve(kwargs):
        iset = kwargs.pop("iset")
        kwargs["tens"] = _tensor(iset, *(kwargs.pop(name) for name in ("lams", "kind", "depth", "ell")))
        if target:
            kwargs["target"] = _target_weight(iset, kwargs.pop("mu"), kwargs.pop("weight"))

    layer = _resolver(options, resolve)
    return lambda fn: with_flavor(layer(fn))


def _resolve_kz(kwargs):
    tens, target, kappa, convention = (kwargs.pop(name) for name in ("tens", "target", "kappa", "convention"))
    levels = _levels(tens, convention, kwargs.pop("levels"))
    kwargs["system"] = _checked(KZSystem, tens, target, kappa=kappa, convention=convention, levels=levels)


KZ_OPTIONS = [
    click.option("--kappa", type=float, default=1.0, show_default=True),
    click.option("--convention", type=click.Choice(["plain", "central"]), default="plain"),
    click.option("--levels", default=None),
]


def with_kz(fn):
    """The tensor, target weight and KZ options, resolved to ``system``."""
    return with_tensor(target=True)(_resolver(KZ_OPTIONS, _resolve_kz)(fn))


@click.group()
@click.option("--json", "compact", is_flag=True, help="compact single-line JSON output")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--tol",
    type=float,
    default=1e-8,
    show_default=True,
    callback=_tolerance,
    help="float tolerance, >= 0; spectrum needs >= %g" % SPECTRUM_TOL_FLOOR,
)
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
def module_build(ctx, iset, lam, kind, depth, no_cache):
    """Build one weight module and print its JSON realization."""
    if kind != "natural" and lam is None:
        raise click.UsageError("--lam is required for kind %s" % kind)
    _check_depth(kind)
    shape = None if lam is None else _shape(kind, lam)
    descriptor = {
        "op": "module",
        "index_set": {"flavor": iset.flavor, **iset.params()},
        "kind": kind,
        "lam": None if kind == "natural" else lam,
        "depth": depth if kind in ("verma", "irreducible") else None,
    }

    def compute():
        return module_to_json(_module(iset, kind, shape, depth))

    if no_cache:
        doc = compute()
    else:
        check = functools.partial(validate_document, schema_name="module.schema.json")
        doc, _ = ctx.obj["cache"].get_or_compute(content_key(descriptor), compute, check)
    _emit(ctx, doc)


@main.command()
@with_tensor()
@click.pass_context
def tensor(ctx, tens):
    """Weight multiplicities of a tensor product."""
    doc = {
        "total_dim": tens.total_dim,
        "weights": [{"weight": w.to_json(), "dim": tens.dim(w)} for w in tens.weights()],
    }
    _emit(ctx, doc)


@main.command()
@with_tensor(target=True, mu_help="singular weight as a partition", weight_help="singular weight as JSON")
@click.pass_context
def singular(ctx, tens, target):
    """Basis of a singular weight space."""
    space = singular_space(tens, target)
    doc = {
        "weight": target.to_json(),
        "ambient_dim": tens.dim(target),
        "dim": space.dim,
        "basis": [[frac_str(x) for x in vec] for vec in space.basis],
    }
    _emit(ctx, doc)


def _build_family(tens, kind, zs, convention="plain", levels=None):
    """The Hamiltonian family of a kind at checked points; ``levels`` is
    the raw --levels text."""
    if kind != "quadratic" and convention != "plain":
        raise click.UsageError("cubic Hamiltonians exist only in the plain convention")
    levels = _levels(tens, convention, levels)
    if kind == "quadratic":
        return _checked(quadratic_family, tens, zs, convention=convention, levels=levels)
    return _checked(cubic_family, tens, zs, kind[-1])


@main.command()
@with_tensor(target=True)
@click.option("--kind", "ham_kind", type=click.Choice(["quadratic", "cubicC", "cubicD"]), default="quadratic", show_default=True)
@click.option("--z", required=True, help="rational points, e.g. 0,1,3")
@click.option("--convention", type=click.Choice(["plain", "central"]), default="plain", show_default=True)
@click.option("--levels", default=None, help="K scalars per factor")
@click.option("--restrict-singular", is_flag=True, help="restrict to the singular subspace")
@click.pass_context
def hamiltonian(ctx, tens, target, ham_kind, z, convention, levels, restrict_singular):
    """Exact Hamiltonian matrices on one weight space."""
    zs = _points(z, len(tens.factors))
    fam = _build_family(tens, ham_kind, zs, convention, levels)
    if restrict_singular:
        space = singular_space(tens, target)
        mats = [fam.restricted(i, space) for i in range(1, fam.ell + 1)]
        dim = space.dim
    else:
        mats = [fam.matrix(i, target) for i in range(1, fam.ell + 1)]
        dim = tens.dim(target)
    doc = {
        "z": [frac_str(x) for x in zs],
        "weight": target.to_json(),
        "kind": ham_kind,
        "convention": convention,
        "dim": dim,
        "matrices": [{"site": i + 1, "triplets": matrix_triplets(mm)} for i, mm in enumerate(mats)],
        "certificates": {"commutators_zero": not pairwise_commutator_residual(mats)},
    }
    _emit(ctx, doc)


@main.command()
@with_tensor(target=True)
@click.option("--kind", "ham_kind", type=click.Choice(["quadratic", "cubicC", "cubicD"]), default="quadratic", show_default=True)
@click.option("--z", required=True)
@click.pass_context
def spectrum(ctx, tens, target, ham_kind, z):
    """Joint spectrum on a singular weight space, with exact certificates."""
    if ctx.obj["tol"] < SPECTRUM_TOL_FLOOR:
        raise click.UsageError(
            "spectrum needs --tol >= %g, got %g" % (SPECTRUM_TOL_FLOOR, ctx.obj["tol"])
        )
    zs = _points(z, len(tens.factors))
    fam = _build_family(tens, ham_kind, zs)
    space = singular_space(tens, target)
    mats = [fam.restricted(i, space) for i in range(1, fam.ell + 1)]
    rng = random.Random(ctx.obj["seed"])
    try:
        jd = joint_diagonalize(mats, rng, tol=ctx.obj["tol"])
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


def _resolve_duality(kwargs):
    from .verify import _sample_z

    lams, m, n, mu, z, trials = (kwargs.pop(name) for name in ("lams", "m", "n", "mu", "z", "trials"))
    if trials < 1:
        raise click.UsageError("--trials must be at least 1")
    if z and trials > 1:
        raise click.UsageError("--trials above 1 samples points, so it cannot go with --z")
    _index_set("super", 0, m, 0, n, None)
    shapes = [_parse_partition(t, "--lams") for t in lams.split(";")]
    if not all(shapes):
        raise click.UsageError("--lams has an empty factor")
    setup = _checked(build_setup, shapes, m, n, _parse_partition(mu, "--mu"))
    if setup.ell < 2:
        raise click.UsageError("--lams needs at least two factors")
    zs = _points(z, setup.ell) if z else None
    rng = random.Random(click.get_current_context().obj["seed"])
    kwargs["setup"] = setup
    kwargs["points"] = [zs or _sample_z(rng, setup.ell) for _ in range(trials)]


with_duality = _resolver(
    [
        click.option("--lams", required=True, help="factor partitions, e.g. '1;2,1'"),
        click.option("--m", type=int, default=1, show_default=True),
        click.option("--n", type=int, default=1, show_default=True),
        click.option("--mu", required=True, help="master singular partition"),
        click.option("--z", default=None, help="rational points; sampled when omitted"),
        click.option("--trials", type=int, default=1, show_default=True),
    ],
    _resolve_duality,
)


def _emit_reports(ctx, reports):
    ok = all(rep["equal"] for rep in reports)
    _emit(ctx, reports[0] if len(reports) == 1 else {"reports": reports, "equal": ok})
    if not ok:
        sys.exit(1)


@duality.command("check")
@with_duality
@click.pass_context
def duality_check(ctx, setup, points):
    """Quadratic char-poly equality across the correspondence."""
    _emit_reports(ctx, [spectrum_match(setup, z) for z in points])


@duality.command("cubic")
@with_duality
@click.pass_context
def duality_cubic(ctx, setup, points):
    """Cubic char-poly equality across the correspondence."""
    _emit_reports(ctx, [cubic_spectrum_match(setup, z) for z in points])


def _pf_to_json(terms):
    out = []
    for key in sorted(terms, key=lambda kk: (-1, 0) if kk == ("c",) else kk):
        label = "const" if key == ("c",) else "pole_%d_order_%d" % key
        out.append({"term": label, "triplets": matrix_triplets(terms[key])})
    return out


@main.command("lax")
@click.argument("action", type=click.Choice(["expand"]))
@with_tensor()
@click.option("--k-power", "kpow", type=click.IntRange(1, 3), default=2, show_default=True)
@click.option("--z", required=True)
@click.pass_context
def lax(ctx, action, tens, kpow, z):
    """Supertrace expansion of Lax powers; checks the closed forms."""
    from .laxmatrix import lax_str_expansion, s22_closed, s33_closed

    zs = _points(z, len(tens.factors))
    closed = None
    if kpow > 1:
        # the closed forms are read off the quadratic (k = 2) or cubic
        # families, whose checks refuse what has no closed form
        closed = _checked(s22_closed if kpow == 2 else s33_closed, tens, zs)
    expansion = lax_str_expansion(tens, zs, kpow)
    weights_doc = []
    matches = True
    for w in tens.weights():
        entry = {
            "weight": w.to_json(),
            "S": {
                "S_%d%d" % (kpow, j): _pf_to_json(terms)
                for j, terms in enumerate(expansion[w])
            },
        }
        if closed is not None:
            entry["matches_closed_form"] = expansion[w][kpow] == closed[w]
        matches = matches and entry.get("matches_closed_form", True)
        weights_doc.append(entry)
    doc = {"k": kpow, "z": [frac_str(x) for x in zs], "weights": weights_doc, "matches": matches}
    _emit(ctx, doc)
    if not matches:
        sys.exit(1)


@main.group()
def kz():
    """Knizhnik-Zamolodchikov equations."""


def _parse_path(text, flag, ell):
    """Waypoints of --path or --loop, checked by ``kz.check_path``."""
    try:
        data = json.loads(text)
        path = [tuple(complex(re, im) for re, im in wp) for wp in data]
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise click.UsageError("bad %s (need [[[re,im],...],...]): %s" % (flag, exc))
    try:
        return check_path(path, ell)
    except ValueError as exc:
        raise click.UsageError("bad %s: %s" % (flag, exc))


@kz.command("solve")
@with_kz
@click.option("--path", "path_json", required=True, help="waypoints [[[re,im],...],...]")
@click.option("--psi0", default="singular", help="'singular' (a singular vector at --mu or --weight) or a JSON list of one number per basis vector")
@click.option("--rel-tol", type=float, default=1e-10, show_default=True)
@click.pass_context
def kz_solve(ctx, system, path_json, psi0, rel_tol):
    """Integrate the KZ system along a path."""
    path = _parse_path(path_json, "--path", system.ell)
    if psi0 == "singular":
        space = singular_space(system.tensor, system.mu)
        if not space.dim:
            raise click.UsageError("the singular space at %s is zero" % ("--weight" if _given("weight") else "--mu"))
        vec = [complex(x) for x in space.basis[0]]
    else:
        try:
            # as floats, an integer too large for one reads as inf
            vec = json.loads(psi0, parse_int=float)
        except json.JSONDecodeError:
            vec = None
        # complex() would read a JSON true or "1" as a number
        if not (isinstance(vec, list) and all(type(x) is float for x in vec)):
            raise click.UsageError("bad --psi0: need a JSON list of numbers")
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
def kz_flatness(ctx, system, z, float_step):
    """Curvature residual of the KZ connection (exact by default)."""
    zs = _points(z, system.ell)
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
def kz_monodromy(ctx, system, loop_json, rel_tol):
    """Transport matrix around a closed loop."""
    loop = _parse_path(loop_json, "--loop", system.ell)
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
@click.option("--m", type=int, default=1, show_default=True, help="read by the hamiltonians, modules and duality checks")
@click.option("--n", type=int, default=1, show_default=True, help="read by the hamiltonians, modules and duality checks")
@click.option("--ell", type=int, default=3, show_default=True, help="read by the hamiltonians and cyclic checks")
@click.option("--seed", type=int, default=None, help="overrides the global seed")
@click.option("--tol", type=float, default=None, callback=_tolerance, help="overrides the global tolerance; read by the kz check")
@click.pass_context
def verify(ctx, what, checks, m, n, ell, seed, tol):
    """Run the invariant suite; exit 1 on any failure."""
    from .verify import CHECKS_BY_NAME, run_checks

    names = None
    if checks is not None:
        names = [c.strip() for c in checks.split(",") if c.strip()]
        if not names:
            raise click.UsageError("--checks names no check")
        unknown = [c for c in names if c not in CHECKS_BY_NAME]
        if unknown:
            raise click.UsageError("unknown checks: %s" % ", ".join(unknown))
    _index_set("super", 0, m, 0, n, None)
    if ell < 2:
        raise click.UsageError("--ell must be at least 2: the Hamiltonians need two sites")
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
