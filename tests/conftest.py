"""Shared builders for the test suite."""

from pathlib import Path

from cptower import FamilyId, Poly, Stage, TowerSpec, presentation, presentation_of
from cptower.catalog import _cache_key, cp_spec, hirzebruch_spec
from cptower.cli import _resolve_presentation


def cp(n: int):
    return presentation(cp_spec(n))


def trivial_tower(*fiber_dims: int):
    """CP^n1 x CP^n2 x ..., built stage by stage with every Chern class 0."""
    return presentation(TowerSpec(tuple(
        Stage(n, tuple(Poly.zero(k) for _ in range(n + 1)))
        for k, n in enumerate(fiber_dims)
    )))


def bott(*coeffs: int):
    """A Bott tower of CP^1 stages: stage k + 2 has c_1 = coeffs[k] times
    the generator of stage k + 1, and c_2 = 0."""
    return presentation(TowerSpec((Stage(1, (Poly.zero(0),) * 2),) + tuple(
        Stage(1, (Poly.monomial(k + 1, [0] * k + [1], e), Poly.zero(k + 1)))
        for k, e in enumerate(coeffs)
    )))


def hirzebruch(k: int):
    return presentation(hirzebruch_spec(k))


def fam(text: str) -> FamilyId:
    return FamilyId.parse(text)


def pres(text: str):
    return presentation_of(FamilyId.parse(text))


def cache_entry_path(directory, a: str, b: str, bound: int) -> Path:
    """Where the verdict cache in ``directory`` keeps the entry of the
    towers ``a`` and ``b`` (``cpt`` arguments) at ``bound``."""
    key = _cache_key(_resolve_presentation(a), _resolve_presentation(b), bound)
    return Path(directory) / f"{key}.json"


def tampered(entry: dict, edits: dict) -> dict:
    """``entry`` with ``edits`` merged in, a key edited to None dropped."""
    merged = {**entry, **edits}
    return {k: v for k, v in merged.items() if v is not None}


# Verdict-cache entries with fields edited so that no search at the bound
# could have printed them: (a, b, bound, edits applied by ``tampered``).
# The towers are spelled as ``cpt`` arguments.  A pair whose Poincare series
# differ has no entry at all: one planted for it is never read or rewritten.
TAMPERED_CACHE_ENTRIES = [
    ("GB2:1", "GB2:2", 2, {"det": "7"}),  # the matrix has det -1
    # a certificate that verifies, with an entry outside the bound
    ("H2", "H2", 1, {"matrix": [["-1", "2"], ["-1", "1"]], "det": "1"}),
    ("Eta2:1,2", "Eta2:1,-2", 2, {"bound": "9"}),
    ("Eta2:1,2", "Eta2:1,-2", 2, {"reason": "proved_by_oracle"}),
    ("Eta2:1,2", "Eta2:1,-2", 2, {"bound": "9", "reason": "proved_by_oracle"}),
    ("Eta2:1,2", "Eta2:1,-2", 2, {"reason": "betti_mismatch"}),  # equal series
    ("Eta2:0,0", "M8:0,0", 2, {"reason": "exhausted"}),  # series differ
    ("Eta2:1,2", "Eta2:1,-2", 2, {"reason": None}),  # a negative without one
    # an entry is trusted only as the exact text a search writes, so what
    # int() would read as the written number is recomputed too; GB2:1/GB2:2
    # at bound 1 writes [["-1", "1"], ["0", "1"]] with det "-1"
    ("GB2:1", "GB2:2", 1, {"det": float("inf")}),  # JSON Infinity
    ("GB2:1", "GB2:2", 1, {"matrix": [[float("inf"), "1"], ["0", "1"]]}),
    ("GB2:1", "GB2:2", 1, {"matrix": [[-1.0, 1.0], [0.0, 1.0]]}),
    ("H0", "H0", 1, {"det": True}),  # the certificate's det is 1
    ("GB2:1", "GB2:2", 1, {"matrix": [["-1", "+1"], ["0", "1"]]}),
    ("GB2:1", "GB2:2", 1, {"matrix": [["-1", "01"], ["0", "1"]]}),
    ("GB2:1", "GB2:2", 1, {"note": "checked by hand"}),  # an extra key
    # a 3 x 3 matrix for a pair of 2-generator rings
    ("GB2:1", "GB2:2", 1, {"matrix": [["-1", "1", "0"], ["0", "1", "0"],
                                      ["0", "0", "1"]]}),
    ("Eta2:1,2", "Eta2:1,-2", 2, {"bound": 2}),  # a JSON number
    ("GB2:1", "GB2:2", 1, {"matrix": [[-1, 1], [0, 1]]}),  # JSON numbers
    ("GB2:1", "GB2:2", 1, {"matrix": None}),  # a certificate with no matrix
]
