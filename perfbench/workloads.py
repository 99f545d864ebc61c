"""The four benchmark workloads.

Each workload is chosen so that one layer does most of its work there and
little elsewhere (see README.md).  The parent process (run.py) plans the
child processes of a run and never imports supergaudin; everything that
does runs in a fresh child interpreter (child.py).  A workload has:

- ``round_s``: seconds one round of children takes at the reference speed;
- ``setup_samples``: extra children per run that only set up, so that a
  run with a single full child still reports a median set-up time;
- ``rounds(seed, size, round_index)``: the child specs of one round;
- ``imports``: modules imported (and timed) right after the package;
- ``setup(spec)``: every construction the items share; returns a context
  whose ``items`` list holds ``(key, payload)`` pairs in seeded order;
- ``run(ctx, payload)``: one timed item; returns its raw output;
- ``check(ctx, payload, raw)``: untimed, after tracing stopped, returns
  ``(fingerprint, ok, detail)``.  The parent compares fingerprints with
  ``expected.json``; ``ok`` is a gate that needs no recorded value.

Inputs depend only on the seed.  Gates never call the program's own
oracles (``verify._oracle_dims``, ``verify._deficit_height``).
"""

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

DEFAULT_SEED = 0


def digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class Workload:
    """Defaults: one child per round, no set-up-only children, no extra
    imports, and fingerprints that do not depend on the seed."""

    imports = ()
    seed_dependent = False
    setup_samples = 0

    def rounds(self, seed, size, round_index):
        return [{}]


def _shuffled(items, seed, round_index):
    items = list(items)
    random.Random("%s:%s:order" % (seed, round_index)).shuffle(items)
    return items


class ModuleOracle(Workload):
    """Polynomial and truncated-Verma realizations of every hook shape.

    ``polynomial_module`` then ``irreducible_truncated`` for each hook
    shape with |lam| <= 5 over gl(1|1), gl(2|1), gl(1|2), gl(2|2): 69
    cases.  The modules layer (polynomial build, Verma/Gram, weights,
    row reduction) does nearly all the work; gaudin and kz do none.
    """

    name = "module-oracle"
    round_s = 7.5
    setup_samples = 2
    flavors = ((1, 1), (2, 1), (1, 2), (2, 2))
    max_boxes = {"full": 5, "tiny": 2}

    def setup(self, spec):
        from supergaudin import IndexSet, all_partitions

        cases = []
        for m, n in self.flavors:
            iset = IndexSet.gl(0, m, 0, n)
            for lam in all_partitions(self.max_boxes[spec["size"]], 1):
                if lam.hook_ok(m, n):
                    key = "%d|%d:%s" % (m, n, ",".join(map(str, lam.parts)))
                    cases.append((key, (iset, lam)))
        return SimpleNamespace(items=_shuffled(cases, spec["seed"], spec["round"]))

    @staticmethod
    def _height(index_set, xi, w):
        """Height of xi - w in the cone of simple roots; None outside it."""
        members = list(index_set)
        diff = xi - w
        total = partial = 0
        for h in members[:-1]:
            partial += diff(h)
            if partial < 0:
                return None
            total += partial
        partial += diff(members[-1])
        if partial != 0 or diff.level != 0:
            return None
        return total

    def run(self, ctx, payload):
        from supergaudin import irreducible_truncated, polynomial_module

        iset, lam = payload
        poly = polynomial_module(iset, lam)
        hw = poly.highest_weight
        heights = (self._height(iset, hw, w) for w in poly.weights())
        depth = max((h for h in heights if h is not None), default=0)
        irr = irreducible_truncated(iset, hw, depth)
        return poly, irr

    @staticmethod
    def _multiplicities(iset, module):
        members = list(iset)
        return sorted(
            ([w(h) for h in members], str(w.level), module.dim(w)) for w in module.weights()
        )

    def check(self, ctx, payload, raw):
        iset = payload[0]
        poly, irr = (self._multiplicities(iset, mod) for mod in raw)
        return digest(poly), poly == irr, None


def _duality_setups(m, n, max_boxes):
    """The criterion-04 enumeration: ell in {2, 3} shapes of total size
    <= max_boxes (each below max_boxes), unordered, with every hook mu."""
    from supergaudin import all_partitions

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
            key = (ell, tuple(sorted(lam.parts for lam in lams)))
            if key in seen:
                continue
            seen.add(key)
            total = sum(lam.size for lam in lams)
            for mu in all_partitions(total, total):
                if mu.hook_ok(m, n):
                    yield [lam.parts for lam in lams], mu.parts


def _sample_z(rng, ell):
    """ell distinct rationals from the 1/7-spaced grid in [0, ell]."""
    return rng.sample([Fraction(k, 7) for k in range(7 * ell + 1)], ell)


class DualityZ(Workload):
    """Quadratic super duality at several seeded z per tensor.

    The criterion-04 enumeration (gl(1|1) and gl(2|1), <= 5 boxes, ell in
    {2, 3}; 155 setups with a nonzero singular space) plus two deep
    natural chains: gl(1|1)^6 at mu = (3,1,1,1) and gl(2|1)^5 at
    mu = (2,2,1).  Module construction sits in setup; pair-block
    assembly, restriction and charpoly fill the items.
    """

    name = "duality-z"
    round_s = 16.0
    seed_dependent = True
    flavors = ((1, 1), (2, 1))
    deep = ((((1,),) * 6, 1, 1, (3, 1, 1, 1)), (((1,),) * 5, 2, 1, (2, 2, 1)))
    sizes = {"full": (5, 2, True), "tiny": (3, 1, False)}  # boxes, z per setup, deep

    def setup(self, spec):
        from supergaudin import build_setup

        max_boxes, per_setup, with_deep = self.sizes[spec["size"]]
        candidates = [(lams, m, n, mu) for m, n in self.flavors
                      for lams, mu in _duality_setups(m, n, max_boxes)]
        if with_deep:
            candidates += self.deep
        items = []
        for lams, m, n, mu in candidates:
            setup = build_setup([list(p) for p in lams], m, n, list(mu))
            sup, cla = setup.singular_pair()
            if not (sup.dim or cla.dim):
                continue
            key = "%d|%d:%s:%s" % (
                m, n, "/".join(",".join(map(str, p)) for p in lams), ",".join(map(str, mu))
            )
            for t in range(per_setup):
                rng = random.Random("%s:%s:%d" % (spec["seed"], key, t))
                items.append(("%s#%d" % (key, t), (setup, _sample_z(rng, setup.ell))))
        return SimpleNamespace(items=_shuffled(items, spec["seed"], spec["round"]))

    def run(self, ctx, payload):
        from supergaudin import spectrum_match

        setup, z = payload
        return spectrum_match(setup, z)

    def check(self, ctx, payload, raw):
        ok = bool(raw["equal"]) and raw["dims"]["super"] == raw["dims"]["classical"]
        polys = [entry["charpoly_super"] for entry in raw.get("per_i", [])]
        return digest({"z": raw["z"], "charpolys": polys}), ok, None


class KZMonodromy(Workload):
    """Monodromy of the KZ equations at kappa = 3 around z_i = z_j.

    gl(2|1)^5 on the (2,2,1) weight space (dim 30) and gl(1|1)^6 on the
    (3,1,1,1) weight space (dim 20).  Each item transports a basis around
    one loop in which an adjacent pair circles its midpoint once; base
    points are seeded.  Float right-hand sides and solve_ivp do the work;
    the exact layers run once, in setup.  At kappa = 2 resonant
    eigenvalues make the eigenvalue gate ill-conditioned, hence kappa = 3.
    """

    name = "kz-monodromy"
    round_s = 9.0
    setup_samples = 4
    kappa = 3
    corners = 12
    tolerance = 1e-8
    sizes = {
        "full": (("A", 2, 1, 5, (2, 2, 1)), ("B", 1, 1, 6, (3, 1, 1, 1))),
        "tiny": (("T", 1, 1, 3, (2, 1)),),
    }

    def setup(self, spec):
        from supergaudin import IndexSet, KZSystem, NaturalModule, Partition, tensor_product
        from supergaudin.modules import polynomial_highest_weight

        systems = {}
        items = []
        for label, m, n, ell, mu in self.sizes[spec["size"]]:
            iset = IndexSet.gl(0, m, 0, n)
            weight = polynomial_highest_weight(iset, Partition(mu))
            system = KZSystem(tensor_product([NaturalModule(iset)] * ell), weight, kappa=self.kappa)
            systems[label] = (iset, weight, system)
            rng = random.Random("%s:%s:base" % (spec["seed"], label))
            base = [complex(k + rng.uniform(-0.05, 0.05)) for k in range(ell)]
            for i in range(ell - 1):
                items.append(("%s:%d-%d" % (label, i + 1, i + 2), (label, i, self._loop(base, i))))
        return SimpleNamespace(items=_shuffled(items, spec["seed"], spec["round"]), systems=systems)

    def _loop(self, base, i):
        centre = (base[i] + base[i + 1]) / 2
        radius = (base[i + 1] - base[i]) / 2
        loop = []
        for k in range(self.corners):
            turn = cmath.exp(2j * math.pi * k / self.corners)
            z = list(base)
            z[i], z[i + 1] = centre - radius * turn, centre + radius * turn
            loop.append(tuple(z))
        return loop + [loop[0]]

    def run(self, ctx, payload):
        from supergaudin import monodromy

        label, _, loop = payload
        return monodromy(ctx.systems[label][2], loop)

    @staticmethod
    def _flip_spectrum(iset, weight, ell, i):
        """Exact eigenvalues of Omega^(i,i+1) on a weight space of V^ell.

        On V (x) V the Casimir acts as the super flip, which permutes the
        basis tuples up to sign: a tuple fixed by the swap is an
        eigenvector for (-1)^parity, a swapped pair gives +1 and -1.
        """
        members = list(iset)
        even = odd = swapped = 0

        def tuples(prefix):
            if len(prefix) == ell:
                yield prefix
                return
            for h in members:
                yield from tuples(prefix + (h,))

        for t in tuples(()):
            if any(t.count(h) != weight(h) for h in members):
                continue
            if t[i] != t[i + 1]:
                swapped += 1
            elif t[i].parity:
                odd += 1
            else:
                even += 1
        half = swapped // 2
        return even + odd + swapped, [1] * (even + half) + [-1] * (odd + half)

    def check(self, ctx, payload, raw):
        import numpy as np

        label, i, _ = payload
        iset, weight, system = ctx.systems[label]
        dim, lambdas = self._flip_spectrum(iset, weight, system.ell, i)
        if dim != system.dim or raw.shape != (dim, dim):
            return None, False, {"error": "weight space dimension %d != %d" % (system.dim, dim)}
        expected = [cmath.exp(2j * math.pi * lam / self.kappa) for lam in lambdas]
        err = 0.0
        for value in np.linalg.eigvals(raw):
            k = min(range(len(expected)), key=lambda q: abs(expected[q] - value))
            err = max(err, abs(expected.pop(k) - value))
        return None, err <= self.tolerance, {"eigen_err": err}


class VerifyCli(Workload):
    """``supergaudin --json verify all`` in a fresh interpreter per pair.

    The only workload that runs laxmatrix, the cubic family, cli and
    serialize; fully cold with one z per setup, so a cache that pays on
    duality-z but costs here shows up.  Each child imports the CLI (its
    set-up) and runs one (seed, m|n) pair as its one item.  A round is
    every pair of ``verify_seeds`` x ``flavors`` in seeded order; the pairs
    are fixed so that every run does the same work.
    """

    name = "verify-cli"
    round_s = 12.0
    imports = ("supergaudin.cli",)
    verify_seeds = (0, 1, 2)
    flavors = ((1, 1), (2, 1), (1, 2))

    def rounds(self, seed, size, round_index):
        if size == "tiny":
            return [{"verify_seed": 0, "m": 1, "n": 1}]
        specs = [{"verify_seed": s, "m": m, "n": n}
                 for s in self.verify_seeds for m, n in self.flavors]
        return _shuffled(specs, seed, round_index)

    @staticmethod
    def key(spec):
        return "seed=%d:%d|%d" % (spec["verify_seed"], spec["m"], spec["n"])

    def setup(self, spec):
        from supergaudin import cli

        args = ["--json", "verify", "all", "--seed", str(spec["verify_seed"]),
                "--m", str(spec["m"]), "--n", str(spec["n"])]
        return SimpleNamespace(items=[(self.key(spec), args)], cli=cli)

    def run(self, ctx, payload):
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out):
            try:
                ctx.cli.main(payload, prog_name="supergaudin", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code or 0
        return code, out.getvalue()

    def check(self, ctx, payload, raw):
        code, text = raw
        try:
            failed = json.loads(text)["failed"]
        except (ValueError, KeyError, TypeError):
            failed = None
        fingerprint = hashlib.sha256(text.encode()).hexdigest()
        return fingerprint, code == 0 and failed == 0, {"exit": code, "failed": failed}


WORKLOADS = {w.name: w for w in (ModuleOracle(), DualityZ(), KZMonodromy(), VerifyCli())}
