"""cptower: exact cohomology rings of iterated complex projective bundles.

The package builds quotient presentations H*(tower) = Z[x1..xm]/(relations)
from a stage-by-stage tower description, does Chern-class arithmetic for the
stage bundles, and decides graded ring isomorphism between presentations by
bounded exhaustive search over unimodular integer matrices.  Everything is
exact integer arithmetic end to end.
"""

__version__ = "0.1.0"

from .polyring import Poly, PolyJSONError, monomial_key
from .towers import (
    DualityError,
    RingPresentation,
    Stage,
    TowerSpec,
    TowerSpecError,
    matrix_det,
    presentation,
    towerspec_from_json,
    towerspec_to_json,
)
from .isosearch import (
    IsoShapeError,
    SearchVerdict,
    compose,
    invert_unimodular,
    search,
    search_all,
    verify,
)
from .catalog import (
    FamilyId,
    Pi6Record,
    Pi6Verdict,
    build,
    canonical_families,
    coincidence_fixtures,
    cp_spec,
    families_for_theorem,
    hirzebruch_spec,
    pi6_distinguish,
    pi6_record,
    presentation_of,
    stage_bundle,
    sweep_distinctness,
)

__all__ = [
    "__version__",
    "Poly",
    "PolyJSONError",
    "monomial_key",
    "Stage",
    "TowerSpec",
    "TowerSpecError",
    "RingPresentation",
    "DualityError",
    "presentation",
    "matrix_det",
    "towerspec_from_json",
    "towerspec_to_json",
    "BundleDescriptor",
    "BundleError",
    "tensor_line",
    "whitney_sum_of_lines",
    "normalize_c1",
    "dual_complement_of_tautological",
    "projectivize",
    "IsoShapeError",
    "SearchVerdict",
    "verify",
    "search",
    "search_all",
    "invert_unimodular",
    "compose",
    "FamilyId",
    "Pi6Record",
    "Pi6Verdict",
    "build",
    "cp_spec",
    "hirzebruch_spec",
    "presentation_of",
    "stage_bundle",
    "canonical_families",
    "families_for_theorem",
    "coincidence_fixtures",
    "pi6_record",
    "pi6_distinguish",
    "sweep_distinctness",
]

# The chern names load cptower.chern on first use (PEP 562): no search or
# sweep needs it.
_CHERN_NAMES = frozenset({
    "BundleDescriptor", "BundleError", "dual_complement_of_tautological",
    "normalize_c1", "projectivize", "tensor_line", "whitney_sum_of_lines",
})


def __getattr__(name):
    if name in _CHERN_NAMES:
        from . import chern
        return getattr(chern, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
