"""Command-line surface.

Everything prints one JSON document to stdout.  Exit codes: 0 on success,
1 when a verification ran and failed (the report still prints), 2 on
argument or validation errors.

Each option is parsed and bounded by its declared type (``click.IntRange``
or ``Parsed``), so click's refusal names it.  ``with_flavor``,
``with_tensor`` and ``with_kz`` resolve the index set, the tensor, the
target weight and the KZ system once, before a command runs; ``_checked``
names the options of the rules that relate several.  A tensor factor is
the polynomial module V_lam of a ``--lam``, or the natural module of an
``--ell`` power; only ``module build`` prints truncated modules.  Bad
input exits 2 with a message before anything is computed or cached; any
other exception keeps its traceback.
"""

import functools
import json
import math
import random
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from .cache import DiskCache, content_key
from .duality import build_setup, cubic_spectrum_match, spectrum_match
from .gaudin import CONVENTIONS, KINDS, MAX_MODULUS, FloatRangeError, HamiltonianFamily, family_levels, joint_diagonalize, pairwise_commutator_residual
from .indices import IndexSet
from .kz import KZSystem, check_kappa, check_path, check_psi0, check_rel_tol, flatness_residual, integrate_path, monodromy
from .linalg import charpoly
from .modules import (
    NaturalModule,
    irreducible_truncated,
    polynomial_highest_weight,
    polynomial_module,
    singular_space,
    tensor_product,
    verma_size,
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


def _checked(options, fn, *args, errors=ValueError, **kwargs):
    """fn(*args, **kwargs), with its ``errors`` turned into a usage error
    whose message names ``options``, the options its rule relates, before
    the library's own words."""
    try:
        return fn(*args, **kwargs)
    except errors as exc:
        raise click.UsageError("%s: %s" % (options, exc))


class Parsed(click.ParamType):
    """An option value read by ``parse``, whose ValueError or TypeError
    click prints in its words under the option's name."""

    def __init__(self, name, parse):
        self.name, self.parse = name, parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value)
        except (ValueError, TypeError) as exc:
            self.fail(str(exc), param, ctx)


def _split(text):
    """The comma-separated fields of ``text``; an empty field is refused, not skipped."""
    fields = text.split(",") if text.strip() else []
    if not all(map(str.strip, fields)):
        raise ValueError("empty field in %r" % (text,))
    return fields


def _factors(text):
    shapes = [PARTITION.parse(t) for t in text.split(";")]
    if not all(shapes):
        raise ValueError("empty factor in %r" % (text,))
    if len(shapes) < 2:
        raise ValueError("need at least two factors, got %r" % (text,))
    return shapes


def _rationals(text):
    try:
        return [Fraction(x) for x in _split(text)]
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,))


def _tolerance(value):
    """A --tol value: finite and nonnegative, or a float gate holds vacuously."""
    tol = float(value)
    if not 0 <= tol < float("inf"):
        raise ValueError("must be a finite number >= 0, got %r" % (tol,))
    return tol


def _psi0(text):
    """--psi0: "singular", or a JSON list of numbers ``kz.check_psi0`` admits."""
    if text == "singular":
        return text
    try:
        # as floats, an integer too large for one reads as inf
        vec = json.loads(text, parse_int=float)
    except json.JSONDecodeError:
        vec = None
    # complex() would read a JSON true or "1" as a number
    if not (isinstance(vec, list) and all(type(x) is float for x in vec)):
        raise ValueError("need 'singular' or a JSON list of numbers")
    return check_psi0(vec)


def _weight(text):
    try:
        return Weight.from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError("need a JSON weight document, got %r: %s" % (text, exc))


def _waypoints(text):
    """Waypoints [[[re,im],...],...] of one length, checked by ``kz.check_path``;
    ``integrate_path`` and ``monodromy`` check the length against the sites."""
    try:
        path = [tuple(complex(re, im) for re, im in wp) for wp in json.loads(text)]
    except (TypeError, ValueError) as exc:
        raise ValueError("need [[[re,im],...],...], got %r: %s" % (text, exc))
    return check_path(path)


# a partition, e.g. 2,1 (0 is the empty one), a ;-separated list of at
# least two nonempty ones, e.g. 1;2,1, or rationals, e.g. 0,1/2,3
PARTITION = Parsed("partition", lambda text: Partition(int(x) for x in _split(text)))
FACTORS = Parsed("partitions", _factors)
RATIONALS = Parsed("rationals", _rationals)
TOLERANCE = Parsed("float", _tolerance)
WEIGHT = Parsed("weight", _weight)
PATH = Parsed("path", _waypoints)
PSI0 = Parsed("psi0", _psi0)

# the float eigenbasis of a correct family diagonalizes it only to within
# double-precision rounding, so spectrum refuses a tighter tolerance
SPECTRUM_TOL_FLOOR = 1e-9


def _points(zs, ell):
    """The --z points: one per tensor factor, pairwise distinct."""
    if len(zs) != ell:
        raise click.UsageError("--z needs %d points, got %d" % (ell, len(zs)))
    if len(set(zs)) != ell:
        raise click.UsageError("--z points must be pairwise distinct")
    return zs


def _index_set(flavor, q, m, p, n, k):
    if k is not None:
        if flavor == "super":
            raise click.UsageError("--k is the rank of the classical and wide flavors; use --m and --n")
        n = k
    if flavor != "super":
        # the classical and wide flavors read p and n only
        given = ["--" + name for name in ("q", "m") if _given(name)]
        if given:
            raise click.UsageError("the %s flavor reads --p and --n only, not %s" % (flavor, " or ".join(given)))
        q = m = 0
    return IndexSet(flavor, p=p, q=q, m=m, n=n)


def _ranks(iset):
    """The flavor and rank options that give ``iset``, as a refusal names them."""
    return " ".join(["--flavor " + iset.flavor] + ["--%s %d" % item for item in iset.params().items()])


def _spelled(lam):
    return ",".join(map(str, lam.parts)) or "0"


def _shape(kind, lam):
    """The partition of one --lam; the natural module has shape 1 only,
    and a polynomial module is never of the empty shape."""
    if kind == "natural" and lam != Partition([1]):
        raise click.UsageError("--lam %s: the natural module is the module of shape 1" % _spelled(lam))
    if kind == "polynomial" and not lam.size:
        raise click.UsageError("--lam %s: the empty partition labels the trivial module" % _spelled(lam))
    return lam


def _given(name):
    """Whether the option ``name`` was set, not left at its default."""
    return click.get_current_context().get_parameter_source(name) is not ParameterSource.DEFAULT


# --depth is a deficit height.  With an even lowering generator a truncated
# Verma module grows without bound with it, the faster the larger the
# algebra: at depth 20 V_(1) has 2,484 monomials over gl(2|2) and 96,672
# over gl(3|2).  The size cap clears every truncation in use (372 at most,
# gl(2|2) at depth 9) and gl(2|2) at depth 20
MAX_DEPTH = 20
MAX_VERMA_SIZE = 4000

# The size of a tensor is its dimension, each factor counted as at least
# 2, so a power of a one-dimensional module is bounded too.  On a 2-vCPU
# VM (CPython 3.11) the slowest commands take 5-6 s at 2^7 and 3^5, and
# at 2^8 ``spectrum`` takes 53 s and ``verify all`` 35 s, while ``tensor``
# stays under 0.1 s up to 2^10.  The cap keeps ell = 3 for m + n <= 6
MAX_TENSOR_DIM = 243


def _check_tensor_dim(dims, options):
    """Refuse, naming ``options``, a tensor whose factors have the
    dimensions ``dims`` if its size is above MAX_TENSOR_DIM.  Each factor
    counts at least 2, so a list cut at MAX_TENSOR_DIM factors is enough."""
    if math.prod(max(dim, 2) for dim in dims) > MAX_TENSOR_DIM:
        raise click.UsageError("%s builds a tensor of size above the %d allowed" % (options, MAX_TENSOR_DIM))


def _module(iset, kind, lam, depth):
    """One weight module of the given kind; lam is read by all but natural."""
    if kind == "natural":
        return NaturalModule(iset)
    options = "--lam %s with %s" % (_spelled(lam), _ranks(iset))
    if kind == "polynomial":
        return _checked(options, polynomial_module, iset, lam)
    hw = _checked(options, polynomial_highest_weight, iset, lam)
    return _checked(options, verma_truncated if kind == "verma" else irreducible_truncated, iset, hw, depth)


def _tensor(iset, lams, ell):
    if lams and ell is not None:
        raise click.UsageError("give --lam factors or --ell, not both")
    if not lams and ell is None:
        raise click.UsageError("need --lam factors or --ell for natural powers")
    if lams:
        mods = [_module(iset, "polynomial", _shape("polynomial", lam), None) for lam in lams]
        spelled = " ".join("--lam " + _spelled(lam) for lam in lams)
        _check_tensor_dim([mod.total_dim for mod in mods], "%s with %s" % (spelled, _ranks(iset)))
    else:
        _check_tensor_dim([len(iset)] * min(ell, MAX_TENSOR_DIM), "--ell %d with %s" % (ell, _ranks(iset)))
        mods = [NaturalModule(iset)] * ell
    return tensor_product(mods)


def _target_weight(iset, mu, weight):
    if mu is not None and weight is not None:
        raise click.UsageError("give --mu or --weight, not both")
    if weight is not None:
        # an index outside the set names no Cartan element: its weight
        # space would silently read as zero
        outside = [h for h in weight.support() if h not in iset]
        if outside:
            raise click.UsageError(
                "bad --weight: doubled index %d is outside the index set of %s" % (outside[0].doubled, _ranks(iset))
            )
        return weight
    if mu is None:
        raise click.UsageError("need --mu or --weight")
    return _checked("--mu %s with %s" % (_spelled(mu), _ranks(iset)), polynomial_highest_weight, iset, mu)


def _levels(tens, convention, levels):
    """--levels: one rational per tensor factor, read by the central
    convention only; the others would silently ignore it."""
    if levels is None:
        return None
    _checked("--levels", family_levels, tens, convention, levels)
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
    click.option("--q", type=click.IntRange(min=0), default=0, show_default=True),
    click.option("--m", type=click.IntRange(min=0), default=1, show_default=True),
    click.option("--p", type=click.IntRange(min=0), default=0, show_default=True),
    click.option("--n", type=click.IntRange(min=1), default=1, show_default=True),
    click.option("--k", type=click.IntRange(min=1), default=None, help="classical rank shorthand for --n"),
]

TENSOR_OPTIONS = [
    click.option("--lam", "lams", type=PARTITION, multiple=True, help="factor partition (repeatable)"),
    click.option("--ell", type=click.IntRange(min=1), default=None, help="tensor power of the natural module"),
]


def _resolve_flavor(kwargs):
    kwargs["iset"] = _index_set(*(kwargs.pop(name) for name in ("flavor", "q", "m", "p", "n", "k")))


with_flavor = _resolver(FLAVOR_OPTIONS, _resolve_flavor)


def with_tensor(target=False, mu_help=None, weight_help=None):
    """The flavor and tensor options, resolved to ``tens``; with ``target``
    also --mu/--weight, resolved to the ``target`` weight."""
    options = list(TENSOR_OPTIONS)
    if target:
        options += [
            click.option("--mu", type=PARTITION, default=None, help=mu_help),
            click.option("--weight", type=WEIGHT, default=None, help=weight_help),
        ]

    def resolve(kwargs):
        iset = kwargs.pop("iset")
        kwargs["tens"] = _tensor(iset, *(kwargs.pop(name) for name in ("lams", "ell")))
        if target:
            kwargs["target"] = _target_weight(iset, kwargs.pop("mu"), kwargs.pop("weight"))

    layer = _resolver(options, resolve)
    return lambda fn: with_flavor(layer(fn))


def _resolve_kz(kwargs):
    tens, target, kappa, convention = (kwargs.pop(name) for name in ("tens", "target", "kappa", "convention"))
    levels = _levels(tens, convention, kwargs.pop("levels"))
    # a level is all that can lift a float entry above MAX_MODULUS
    at = "--weight" if _given("weight") else "--mu"
    options = at if levels is None else "%s with --levels" % at
    kwargs["system"] = _checked(options, KZSystem, tens, target, kappa=kappa, convention=convention, levels=levels)


KZ_OPTIONS = [
    click.option("--kappa", type=Parsed("float", lambda v: check_kappa(float(v))), default=1.0, show_default=True),
    click.option("--convention", type=click.Choice(CONVENTIONS), default="plain"),
    click.option("--levels", type=RATIONALS, default=None),
]


def with_kz(fn):
    """The tensor, target weight and KZ options, resolved to ``system``."""
    return with_tensor(target=True)(_resolver(KZ_OPTIONS, _resolve_kz)(fn))


@click.group()
@click.option("--json", "compact", is_flag=True, help="compact single-line JSON output")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--tol",
    type=TOLERANCE,
    default=1e-8,
    show_default=True,
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
@click.option("--lam", type=PARTITION, default=None, help="partition, e.g. 2,1")
@click.option(
    "--kind",
    type=click.Choice(["natural", "polynomial", "irreducible", "verma"]),
    default="polynomial",
    show_default=True,
)
@click.option(
    "--depth", type=click.IntRange(0, MAX_DEPTH), default=4, show_default=True, help="deficit height of the Verma truncation"
)
@click.option("--no-cache", is_flag=True)
@click.pass_context
def module_build(ctx, iset, lam, kind, depth, no_cache):
    """Build one weight module and print its JSON realization."""
    if kind != "natural" and lam is None:
        raise click.UsageError("--lam is required for kind %s" % kind)
    # --depth sizes the verma and irreducible truncations; any other kind would ignore it
    if kind not in ("verma", "irreducible"):
        if _given("depth"):
            raise click.UsageError("--depth applies to the verma and irreducible kinds only, not %s" % kind)
    elif (size := verma_size(iset, depth)) > MAX_VERMA_SIZE:
        raise click.UsageError("--depth %d truncates a Verma module of %d monomials here, above the %d allowed" % (depth, size, MAX_VERMA_SIZE))
    shape = None if lam is None else _shape(kind, lam)
    descriptor = {
        "op": "module",
        "index_set": {"flavor": iset.flavor, **iset.params()},
        "kind": kind,
        "lam": None if kind == "natural" else _spelled(shape),
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


@main.command()
@with_tensor(target=True)
@click.option("--kind", "ham_kind", type=click.Choice(KINDS), default="quadratic", show_default=True)
@click.option("--z", type=RATIONALS, required=True, help="rational points, e.g. 0,1,3")
@click.option("--convention", type=click.Choice(CONVENTIONS), default="plain", show_default=True)
@click.option("--levels", type=RATIONALS, default=None, help="K scalars per factor")
@click.option("--restrict-singular", is_flag=True, help="restrict to the singular subspace")
@click.pass_context
def hamiltonian(ctx, tens, target, ham_kind, z, convention, levels, restrict_singular):
    """Exact Hamiltonian matrices on one weight space."""
    zs = _points(z, len(tens.factors))
    levels = _levels(tens, convention, levels)
    options = "--kind %s --convention %s with %s" % (ham_kind, convention, _ranks(tens.index_set))
    fam = _checked(options, HamiltonianFamily, tens, zs, ham_kind, convention, levels)
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
@click.option("--kind", "ham_kind", type=click.Choice(KINDS), default="quadratic", show_default=True)
@click.option("--z", type=RATIONALS, required=True)
@click.pass_context
def spectrum(ctx, tens, target, ham_kind, z):
    """Joint spectrum on a singular weight space, with exact certificates."""
    if ctx.obj["tol"] < SPECTRUM_TOL_FLOOR:
        raise click.UsageError(
            "spectrum needs --tol >= %g, got %g" % (SPECTRUM_TOL_FLOOR, ctx.obj["tol"])
        )
    zs = _points(z, len(tens.factors))
    fam = _checked("--kind %s with %s" % (ham_kind, _ranks(tens.index_set)), HamiltonianFamily, tens, zs, ham_kind)
    space = singular_space(tens, target)
    mats = [fam.restricted(i, space) for i in range(1, fam.ell + 1)]
    rng = random.Random(ctx.obj["seed"])
    try:
        # the entries grow only through the poles 1/(z_i - z_j)
        jd = _checked("--z", joint_diagonalize, mats, rng, tol=ctx.obj["tol"], errors=FloatRangeError)
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

    shapes, m, n, mu, z, trials = (kwargs.pop(name) for name in ("lams", "m", "n", "mu", "z", "trials"))
    if z is not None and trials > 1:
        raise click.UsageError("--trials above 1 samples points, so it cannot go with --z")
    spelled = ";".join(map(_spelled, shapes))
    # the super tensor is bounded before either side is built (its factors
    # are memoized for build_setup, which refuses a shape off the hook)
    super_set = IndexSet.gl(0, m, 0, n)
    dims = [polynomial_module(super_set, lam).total_dim for lam in shapes if lam.hook_ok(m, n)]
    _check_tensor_dim(dims, "--lams %s with --m %d --n %d" % (spelled, m, n))
    options = "--lams %s --mu %s with --m %d --n %d" % (spelled, _spelled(mu), m, n)
    setup = _checked(options, build_setup, shapes, m, n, mu)
    zs = None if z is None else _points(z, setup.ell)
    rng = random.Random(click.get_current_context().obj["seed"])
    kwargs["setup"] = setup
    kwargs["points"] = [zs or _sample_z(rng, setup.ell) for _ in range(trials)]


with_duality = _resolver(
    [
        click.option("--lams", type=FACTORS, required=True, help="factor partitions, e.g. '1;2,1'"),
        click.option("--m", type=click.IntRange(min=0), default=1, show_default=True),
        click.option("--n", type=click.IntRange(min=1), default=1, show_default=True),
        click.option("--mu", type=PARTITION, required=True, help="master singular partition"),
        click.option("--z", type=RATIONALS, default=None, help="rational points; sampled when omitted"),
        # every trial's points are drawn, and its report held, before the document
        # prints: a cubic trial on gl(1|1)^7 takes 0.3 s on a 2-vCPU VM, 30 about 9 s
        click.option("--trials", type=click.IntRange(1, 30), default=1, show_default=True),
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
@click.option("--z", type=RATIONALS, required=True)
@click.pass_context
def lax(ctx, action, tens, kpow, z):
    """Supertrace expansion of Lax powers; checks the closed forms."""
    from .laxmatrix import lax_str_expansion, s22_closed, s33_closed

    zs = _points(z, len(tens.factors))
    closed = None
    if kpow > 1:
        # the closed forms are read off the quadratic (k = 2) or cubic
        # families, whose checks refuse what has no closed form
        options = "--k-power %d with %s" % (kpow, _ranks(tens.index_set))
        closed = _checked(options, s22_closed if kpow == 2 else s33_closed, tens, zs)
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


REL_TOL_OPTION = click.option("--rel-tol", type=Parsed("float", lambda v: check_rel_tol(float(v))), default=1e-10, show_default=True)


@kz.command("solve")
@with_kz
@click.option("--path", type=PATH, required=True, help="waypoints [[[re,im],...],...]")
@click.option("--psi0", type=PSI0, default="singular", help="'singular' (a singular vector at --mu or --weight) or a JSON list of one number per basis vector")
@REL_TOL_OPTION
@click.pass_context
def kz_solve(ctx, system, path, psi0, rel_tol):
    """Integrate the KZ system along a path."""
    at = "--weight" if _given("weight") else "--mu"
    if psi0 == "singular":
        space = singular_space(system.tensor, system.mu)
        if not space.dim:
            raise click.UsageError("the singular space at %s is zero" % at)
        psi0 = [complex(x) for x in space.basis[0]]
    elif len(psi0) != system.dim:
        message = "--psi0: psi0 has the wrong dimension, %d entries for the weight space of dimension %d at %s"
        raise click.UsageError(message % (len(psi0), system.dim, at))
    sol = _checked("--path", integrate_path, system, path, psi0, rel_tol=rel_tol, errors=(ValueError, RuntimeError))
    _emit(ctx, sol.to_json())


@kz.command("flatness")
@with_kz
@click.option("--z", type=RATIONALS, required=True)
@click.option("--float-step", type=float, default=None, help="finite-difference cross-check step")
@click.pass_context
def kz_flatness(ctx, system, z, float_step):
    """Curvature residual of the KZ connection (exact by default)."""
    zs = _points(z, system.ell)
    if float_step is None:
        resid = flatness_residual(system, zs)
        doc = {"mode": "exact", "residual": frac_str(resid), "zero": resid == 0}
    else:
        points = [complex(float(x), 0.0) for x in zs if abs(x) <= MAX_MODULUS]
        if len(set(points)) < len(zs):
            raise click.UsageError("--float-step needs --z points of modulus at most %g, distinct as floats" % MAX_MODULUS)
        resid = _checked("--float-step %r with --z" % float_step, flatness_residual, system, points, h=float_step)
        doc = {"mode": "float", "residual": resid, "zero": resid <= ctx.obj["tol"]}
    _emit(ctx, doc)
    if not doc["zero"]:
        sys.exit(1)


@kz.command("monodromy")
@with_kz
@click.option("--loop", type=PATH, required=True)
@REL_TOL_OPTION
@click.pass_context
def kz_monodromy(ctx, system, loop, rel_tol):
    """Transport matrix around a closed loop."""
    mat = _checked("--loop", monodromy, system, loop, rel_tol=rel_tol, errors=(ValueError, RuntimeError))
    doc = {
        "dim": system.dim,
        "matrix": [[[round(c.real, 12), round(c.imag, 12)] for c in row] for row in mat],
    }
    _emit(ctx, doc)


def _check_names(text):
    """--checks: the check names, stray commas dropped, each one known."""
    from .verify import CHECKS_BY_NAME

    names = [c.strip() for c in text.split(",") if c.strip()]
    if not names:
        raise ValueError("no check named in %r" % (text,))
    unknown = [c for c in names if c not in CHECKS_BY_NAME]
    if unknown:
        raise ValueError("unknown checks: %s" % ", ".join(unknown))
    return names


@main.command()
@click.argument("what", type=click.Choice(["all"]))
@click.option("--checks", type=Parsed("checks", _check_names), default=None, help="comma-separated check names")
@click.option("--m", type=click.IntRange(min=0), default=1, show_default=True, help="read by the hamiltonians, modules and duality checks")
@click.option("--n", type=click.IntRange(min=1), default=1, show_default=True, help="read by the hamiltonians, modules and duality checks")
@click.option("--ell", type=click.IntRange(min=2), default=3, show_default=True, help="read by the hamiltonians and cyclic checks")
@click.option("--seed", type=int, default=None, help="overrides the global seed")
@click.option("--tol", type=TOLERANCE, default=None, help="overrides the global tolerance; read by the kz check")
@click.pass_context
def verify(ctx, what, checks, m, n, ell, seed, tol):
    """Run the invariant suite; exit 1 on any failure."""
    from .verify import run_checks

    # the hamiltonians check builds the natural power of gl(m|n), the
    # cyclic one that of gl(1|1)
    _check_tensor_dim([m + n] * min(ell, MAX_TENSOR_DIM), "--ell %d with --m %d --n %d" % (ell, m, n))
    report = run_checks(
        checks,
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
