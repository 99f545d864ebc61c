"""Exact Gaudin Hamiltonians for general linear Lie superalgebras.

Builds weight modules with exact rational action matrices, assembles
quadratic and cubic Gaudin Hamiltonians, verifies their algebra exactly,
matches spectra across the super-duality weight correspondence and
integrates the (super) KZ equations numerically.

Floats enter only in the KZ layer ``kz`` and in
``gaudin.joint_diagonalize``, and numpy is loaded only by them and by the
CLI: ``import supergaudin`` loads none, and resolves the KZ names on
access.
"""

import os

from .indices import HalfIndex, IndexSet, idx
from .partitions import GeneralizedPartition, Partition, all_partitions, frobenius_theta
from .weights import (
    Weight,
    eps,
    highest_weight,
    unitarizable_weight,
)
from .algebra import (
    AlgebraElement,
    BasisElement,
    E,
    iota,
    simple_raising_ops,
    star_omega,
    supercommutator,
    supertrace,
)
from .modules import (
    NaturalModule,
    SingularSpace,
    TensorModule,
    WeightModule,
    irreducible_truncated,
    polynomial_module,
    polynomial_tensor,
    singular_space,
    tensor_product,
    truncate_module,
    verma_truncated,
)
from .gaudin import (
    HamiltonianFamily,
    casimir,
    central_shift,
    commutator_residual,
    cyclic_vector_test,
    joint_diagonalize,
)
from .laxmatrix import lax_str_expansion, s22_closed, s33_closed
from .duality import DualitySetup, build_setup, cubic_spectrum_match, spectrum_match, truncation_check

__version__ = "0.1.0"

# The KZ names resolve on access (PEP 562), from ``kz`` each time and never
# bound here: a binding would be a second copy that a later replacement of
# ``kz``'s own attribute (as a tracer makes and undoes) would miss.
_KZ_NAMES = frozenset(
    {
        "KZSystem",
        "PathSolution",
        "flatness_residual",
        "gauge_transform",
        "integrate_path",
        "monodromy",
        "singular_preservation",
    }
)


def __getattr__(name):
    if name in _KZ_NAMES:
        from . import kz

        return getattr(kz, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _KZ_NAMES)


def schemas_path():
    """Directory holding the shipped JSON schema documents."""
    return os.path.join(os.path.dirname(__file__), "schemas")
