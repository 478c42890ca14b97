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
