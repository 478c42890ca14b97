"""Shared builders for the test suite."""

from cptower import FamilyId, Poly, Stage, TowerSpec, presentation, presentation_of


def cp_spec(n: int) -> TowerSpec:
    return TowerSpec((Stage(n, tuple(Poly.zero(0) for _ in range(n + 1))),))


def hirzebruch_spec(k: int) -> TowerSpec:
    return TowerSpec((
        Stage(1, (Poly.zero(0), Poly.zero(0))),
        Stage(1, (Poly(1, {(1,): k}), Poly.zero(1))),
    ))


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
