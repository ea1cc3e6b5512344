"""Combinatorial stratified bundles with finite structure categories.

Bundles of finite discrete fibres over finite cell complexes, encoded as
face-poset functors.  The package builds them (attachment, pull-back,
fibrewise product, function spaces, coends, associated bundles), checks
them (validators, trivializations, covering realizations, push-out
universality) and verifies the expected structure theorems on seeded
random instances.
"""

from .cellbase import (
    BaseComplex,
    SimplicialMap,
    Stratification,
    attach_base,
    cycle_complex,
    poset_spanning_tree,
    simplex_complex,
    validate_complex,
)
from .fincat import (
    CatFunctor,
    FibreFunctor,
    FiniteCategory,
    faithful_image,
    hom_fibre_functor,
    product_category,
    validate_category,
)
from .funcspace import (
    DiagramBundle,
    associated_bundle,
    coend,
    function_bundle,
    principal_diagram,
    reconstruct_check,
    validate_diagram,
)
from .oracle import (
    InstanceSpec,
    SplitMix64,
    gen_bundle,
    gen_category,
    run_suite,
)
from .strabundle import (
    FBundleMap,
    StratBundle,
    TotalComplex,
    attach_bundle,
    fiberwise_product,
    product_bundle,
    pullback,
    pushout_universality_check,
    realize_total,
    restrict,
    validate_bundle,
)
from .triviality import (
    Trivialization,
    covering_space,
    local_triviality_certificate,
    stratify_bundle,
    trivialize_over,
)
from .validation import (
    DocumentError,
    PreconditionError,
    StructureError,
    ValidationReport,
)

__version__ = "0.1.0"
