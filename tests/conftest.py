"""Shared builders for the test suite."""

from cptower import FamilyId, Poly, Stage, TowerSpec, presentation, presentation_of
from cptower.catalog import cp_spec, hirzebruch_spec


def cp(n: int):
    return presentation(cp_spec(n))


def trivial_tower(*fiber_dims: int):
    """CP^n1 x CP^n2 x ..., built stage by stage with every Chern class 0."""
    return presentation(TowerSpec(tuple(
        Stage(n, tuple(Poly.zero(k) for _ in range(n + 1)))
        for k, n in enumerate(fiber_dims)
    )))


def hirzebruch(k: int):
    return presentation(hirzebruch_spec(k))


def fam(text: str) -> FamilyId:
    return FamilyId.parse(text)


def pres(text: str):
    return presentation_of(FamilyId.parse(text))


# Verdict-cache entries with fields edited so that no search at the bound
# could have printed them: (a, b, bound, edits merged into the entry's JSON).
# The towers are spelled as ``cpt`` arguments.
TAMPERED_CACHE_ENTRIES = [
    ("GB2:1", "GB2:2", 2, {"det": "7"}),  # the matrix has det -1
    # a certificate that verifies, with an entry outside the bound
    ("H2", "H2", 1, {"matrix": [["-1", "2"], ["-1", "1"]], "det": "1"}),
    ("Eta2:1,2", "Eta2:1,-2", 2, {"bound": "9"}),
    ("Eta2:1,2", "Eta2:1,-2", 2, {"reason": "proved_by_oracle"}),
    ("Eta2:1,2", "Eta2:1,-2", 2, {"bound": "9", "reason": "proved_by_oracle"}),
    ("Eta2:1,2", "Eta2:1,-2", 2, {"reason": "betti_mismatch"}),  # equal series
    ("Eta2:0,0", "M8:0,0", 2, {"reason": "exhausted"}),  # series differ
]
