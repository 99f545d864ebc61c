"""Matched super/classical Gaudin data and spectrum comparison.

One master partition list drives both sides: the super side takes the
polynomial modules of the partitions over gl(m|n); the classical side
takes the polynomial modules of the same partitions over the purely odd
realization of gl(k), whose highest weights carry the conjugate parts.
The singular weights are matched by the same rule: each side reads the
master partition mu through ``polynomial_highest_weight`` on its own index
set, as its factor modules read theirs.  Spectra are compared through
exact characteristic polynomials, so the headline checks carry no
tolerances at all.

The classical side is gl(k) at the smallest rank every shape fits,
k = max(mu_1, max_i lam^(i)_1, 1) (``build_setup``): the singular
multiplicities and the quadratic and cubic blocks on the singular spaces
come from the symmetric group acting on slots, so they are the same at
every rank where all the shapes exist.

Each side's tensor comes from ``polynomial_tensor``, memoized per (index
set, partition list) for the life of the process, as polynomial modules
are.  So one tensor, and with it one block store, serves every singular
weight mu of a factor list on the super side, and every mu of the same
classical rank on the classical side: those setups share their slot
blocks and the stored Omega^{(ij)} and cubic blocks T(a, b, c).
"""

from fractions import Fraction

from .algebra import BasisElement, simple_raising_ops
from .gaudin import HamiltonianFamily
from .indices import IndexSet
from .linalg import charpoly, mat_mul
from .modules import (
    irreducible_truncated,
    polynomial_highest_weight,
    polynomial_module,
    polynomial_tensor,
    singular_space,
    truncate_module,
)
from .partitions import Partition

__all__ = [
    "DualitySetup",
    "build_setup",
    "spectrum_match",
    "cubic_spectrum_match",
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
        self.super_weight = polynomial_highest_weight(self.super_set, mu)
        self.classical_weight = polynomial_highest_weight(self.classical_set, mu)
        self.super_tensor = polynomial_tensor(self.super_set, self.partitions)
        self.classical_tensor = polynomial_tensor(self.classical_set, self.partitions)
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
    """Build both sides, the classical one at the smallest stable rank.

    mu must have as many boxes as the factors together: any other mu is
    not a weight of the tensor product, and its singular spaces would be
    zero on both sides.  The classical rank is k = max(mu_1, max_i
    lam^(i)_1, 1), the smallest at which every shape exists: the classical
    index set is purely odd, so a shape is a gl(k) highest weight through
    its conjugate parts, and it fits when its first part is at most k.
    Every rank from k on gives the same singular dimensions and char polys:

    - the singular space at mu is Hom(V_mu, V_lam^(1) (x) ... (x)
      V_lam^(ell)), whose dimension is a Littlewood-Richardson coefficient,
      the same at every rank where all the shapes fit;
    - inside V^{(x)N}, N = |mu|, each factor is cut out by a Young
      symmetrizer on its own slots, and Omega^{(ij)} acts as the signed sum
      of the transpositions of one slot of factor i with one of factor j.
      A cubic block T(a, b, c) is likewise a sum of signed permutations of
      slots: three distinct slots give a 3-cycle, and a repeated one
      contracts E_{tr} E_{st} = delta_{rs} E_{tt}, whose sum over t is the
      identity on that slot, never a trace k.  So every member of every
      kind is an element of the symmetric group algebra of the slots;
    - by Schur-Weyl duality the singular space is a fixed multiplicity
      space of that algebra, on which these elements act by matrices that
      do not depend on k.
    """
    partitions = [Partition(p) if not isinstance(p, Partition) else p for p in partitions]
    mu = Partition(mu) if not isinstance(mu, Partition) else mu
    for lam in partitions:
        lam.check_hook(m, n, "factor")
    mu.check_hook(m, n, "mu")
    total = sum(lam.size for lam in partitions)
    if mu.size != total:
        raise ValueError("mu has %d boxes; the factors have %d" % (mu.size, total))
    k = max([lam.part(1) for lam in partitions] + [mu.part(1), 1])
    return DualitySetup(partitions, m, n, mu, k)


def _charpoly_report(fam_s, fam_c, sup, cla):
    """Char polys of each member of both families on the matched singular
    spaces, and whether all of them agree."""
    per_i = []
    all_equal = True
    for i in range(1, fam_s.ell + 1):
        ps = charpoly(fam_s.restricted(i, sup))
        pc = charpoly(fam_c.restricted(i, cla))
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


def _singular_header(setup, z, kind):
    """The header both matchers report and the singular pair; when the pair's
    dimensions differ the report is already final and the pair is None."""
    sup, cla = setup.singular_pair()
    report = {
        "setup": setup.describe(),
        "z": [str(x) for x in z],
        "kind": kind,
        "dims": {"super": sup.dim, "classical": cla.dim},
    }
    if sup.dim != cla.dim:
        report["equal"] = False
        report["error"] = "singular space dimensions differ"
        return report, None
    return report, (sup, cla)


def spectrum_match(setup, z):
    """Exact equality of quadratic char polys on the matched singular spaces."""
    z = [Fraction(x) for x in z]
    report, pair = _singular_header(setup, z, "quadratic")
    if pair is not None:
        fam_s = HamiltonianFamily(setup.super_tensor, z)
        fam_c = HamiltonianFamily(setup.classical_tensor, z)
        report["per_i"], report["equal"] = _charpoly_report(fam_s, fam_c, *pair)
    return report


def cubic_spectrum_match(setup, z):
    """Exact char-poly equality for both cubic kinds across the duality."""
    z = [Fraction(x) for x in z]
    report, pair = _singular_header(setup, z, "cubic")
    if pair is None:
        return report
    report["per_kind"] = {}
    all_equal = True
    for kind, label in (("cubicC", "C"), ("cubicD", "D")):
        fam_s = HamiltonianFamily(setup.super_tensor, z, kind)
        fam_c = HamiltonianFamily(setup.classical_tensor, z, kind)
        report["per_kind"][label], equal = _charpoly_report(fam_s, fam_c, *pair)
        all_equal = all_equal and equal
    report["equal"] = all_equal
    return report


def _pair_traces(module, w):
    """Basis-independent invariants of one weight space: traces and char
    polys of E_{a,b} E_{b,a} over the simple pairs."""
    out = []
    d = module.dim(w)
    zero = [[Fraction(0)] * d for _ in range(d)]
    for op in simple_raising_ops(module.index_set):
        up = module.act(op, w)
        prod = zero
        if up is not None:
            back = module.act(BasisElement(op.col, op.row), up[0])
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
