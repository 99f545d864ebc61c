"""Matched super/classical Gaudin data and spectrum comparison.

One master partition list drives both sides: the super side takes the
polynomial modules of the partitions over gl(m|n); the classical side
takes the polynomial modules of the same partitions over the purely odd
realization of gl(k), whose highest weights carry the conjugate parts.
Spectra are compared through exact characteristic polynomials, so the
headline checks carry no tolerances at all.

Each side's tensor comes from ``polynomial_tensor``, memoized per (index
set, partition list) for the life of the process, as polynomial modules
are.  So one tensor, and with it one block store, serves every singular
weight mu of a factor list: the setups for all mu share their slot blocks
and the stored Omega^{(ij)} and cubic blocks T(a, b, c).
"""

from fractions import Fraction

from .gaudin import central_shift, cubic_family, quadratic_family
from .indices import IndexSet
from .linalg import charpoly, mat_mul
from .modules import (
    irreducible_truncated,
    polynomial_module,
    polynomial_tensor,
    singular_space,
    truncate_module,
)
from .partitions import Partition
from .weights import hook_correspondence

__all__ = [
    "DualitySetup",
    "build_setup",
    "spectrum_match",
    "cubic_spectrum_match",
    "central_shift",
    "truncation_check",
]


class DualitySetup:
    """Everything needed to compare the two sides of one correspondence."""

    def __init__(self, partitions, m, n, mu, k):
        self.partitions = tuple(partitions)
        self.m = m
        self.n = n
        self.mu = mu
        self.k = k
        self.super_set = IndexSet.gl(0, m, 0, n)
        self.classical_set = IndexSet.classical(0, k)
        self.super_weight, self.classical_weight = hook_correspondence(mu, m, n, k)
        self.super_tensor = polynomial_tensor(self.super_set, self.partitions)
        self.classical_tensor = polynomial_tensor(self.classical_set, self.partitions)
        self.super_factors = self.super_tensor.factors
        self.classical_factors = self.classical_tensor.factors
        self._singular_pair = None

    @property
    def ell(self):
        return len(self.partitions)

    def singular_pair(self):
        """(super, classical) singular spaces; computed once per setup."""
        if self._singular_pair is None:
            self._singular_pair = (
                singular_space(self.super_tensor, self.super_weight),
                singular_space(self.classical_tensor, self.classical_weight),
            )
        return self._singular_pair

    def describe(self):
        return {
            "partitions": [list(lam.parts) for lam in self.partitions],
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "mu": list(self.mu.parts),
            "super_weight": self.super_weight.to_json(),
            "classical_weight": self.classical_weight.to_json(),
        }


def build_setup(partitions, m, n, mu):
    """Choose a provably sufficient classical rank and build both sides.

    k = max(total box count, mu_1) keeps every singular weight of the
    classical tensor product inside the band.
    """
    partitions = [Partition(p) if not isinstance(p, Partition) else p for p in partitions]
    mu = Partition(mu) if not isinstance(mu, Partition) else mu
    for lam in partitions:
        if not lam.hook_ok(m, n):
            raise ValueError("partition %r violates the (%d|%d) hook condition" % (lam, m, n))
    if not mu.hook_ok(m, n):
        raise ValueError("mu %r violates the (%d|%d) hook condition" % (mu, m, n))
    total = sum(lam.size for lam in partitions)
    k = max(total, mu.part(1), 1)
    return DualitySetup(partitions, m, n, mu, k)


def _charpoly_report(mats_super, mats_classical):
    per_i = []
    all_equal = True
    for ms, mc in zip(mats_super, mats_classical):
        ps = charpoly(ms)
        pc = charpoly(mc)
        equal = ps == pc
        all_equal = all_equal and equal
        per_i.append(
            {
                "charpoly_super": [str(c) for c in ps],
                "charpoly_classical": [str(c) for c in pc],
                "equal": equal,
            }
        )
    return per_i, all_equal


def spectrum_match(setup, z):
    """Exact equality of quadratic char polys on the matched singular spaces."""
    z = [Fraction(x) for x in z]
    sup, cla = setup.singular_pair()
    report = {
        "setup": setup.describe(),
        "z": [str(x) for x in z],
        "kind": "quadratic",
        "dims": {"super": sup.dim, "classical": cla.dim},
    }
    if sup.dim != cla.dim:
        report["equal"] = False
        report["error"] = "singular space dimensions differ"
        return report
    fam_s = quadratic_family(setup.super_tensor, z)
    fam_c = quadratic_family(setup.classical_tensor, z)
    mats_s = [fam_s.restricted(i, sup) for i in range(1, setup.ell + 1)]
    mats_c = [fam_c.restricted(i, cla) for i in range(1, setup.ell + 1)]
    per_i, all_equal = _charpoly_report(mats_s, mats_c)
    report["per_i"] = per_i
    report["equal"] = all_equal
    return report


def cubic_spectrum_match(setup, z):
    """Exact char-poly equality for both cubic kinds across the duality."""
    z = [Fraction(x) for x in z]
    sup, cla = setup.singular_pair()
    report = {
        "setup": setup.describe(),
        "z": [str(x) for x in z],
        "kind": "cubic",
        "dims": {"super": sup.dim, "classical": cla.dim},
    }
    if sup.dim != cla.dim:
        report["equal"] = False
        report["error"] = "singular space dimensions differ"
        return report
    report["per_kind"] = {}
    all_equal = True
    for kind in ("C", "D"):
        fam_s = cubic_family(setup.super_tensor, z, kind)
        fam_c = cubic_family(setup.classical_tensor, z, kind)
        mats_s = [fam_s.restricted(i, sup) for i in range(1, setup.ell + 1)]
        mats_c = [fam_c.restricted(i, cla) for i in range(1, setup.ell + 1)]
        per_i, equal = _charpoly_report(mats_s, mats_c)
        report["per_kind"][kind] = per_i
        all_equal = all_equal and equal
    report["equal"] = all_equal
    return report


def _pair_traces(module, w):
    """Basis-independent invariants of one weight space: traces and char
    polys of E_{a,b} E_{b,a} over the simple pairs."""
    from .algebra import BasisElement

    out = []
    d = module.dim(w)
    zero = [[Fraction(0)] * d for _ in range(d)]
    for a, b in module.index_set.simple_pairs():
        up = module.act(BasisElement(a, b), w)
        prod = zero
        if up is not None:
            back = module.act(BasisElement(b, a), up[0])
            if back is not None:
                prod = mat_mul(back[1], up[1])
        out.append([str(c) for c in charpoly(prod)])
    return out


def truncation_check(module, smaller):
    """Band restriction versus the small-rank irreducible realization.

    The restriction must equal the smaller-rank realization weight by
    weight (dims plus basis-independent invariants), or vanish when the
    highest weight leaves the band.
    """
    truncated = truncate_module(module, smaller)
    hw = getattr(module, "highest_weight", None)
    if hw is None:
        raise ValueError("truncation_check needs an irreducible realization")
    report = {
        "flavor": smaller.flavor,
        "band": smaller.params(),
        "hw": hw.to_json(),
    }
    supported = all(h in smaller for h in hw.support())
    if not supported:
        report["expected"] = "zero"
        report["equal"] = truncated.total_dim == 0
        report["dims"] = truncated.total_dim
        return report
    report["expected"] = "irreducible"
    if module.provenance == "polynomial":
        rebuilt = polynomial_module(smaller, module.shape)
    else:
        depth = getattr(module, "depth")
        rebuilt = irreducible_truncated(smaller, hw, depth)
    trunc_dims = {w: truncated.dim(w) for w in truncated.weights()}
    new_dims = {w: rebuilt.dim(w) for w in rebuilt.weights()}
    equal = trunc_dims == new_dims
    mism = []
    if equal:
        for w in trunc_dims:
            if _pair_traces(truncated, w) != _pair_traces(rebuilt, w):
                equal = False
                mism.append(w.to_json())
    report["equal"] = equal
    report["dims"] = {
        "truncated": sum(trunc_dims.values()),
        "rebuilt": sum(new_dims.values()),
    }
    if mism:
        report["invariant_mismatches"] = mism
    return report
