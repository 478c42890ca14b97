"""Chern-class arithmetic for the bundles that feed tower stages.

Everything here manipulates Chern classes as reduced polynomials over a base
presentation: Whitney sums of line bundles, twisting a bundle of any rank
by a line bundle, the normalization of c_1 modulo the rank, and the
hyperplane-complement construction behind the Milnor hypersurfaces.  The
tests check the twist formula against independent splitting-principle
expansions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import comb

from . import towers
from .polyring import Poly
from .towers import RingPresentation, Stage, TowerSpec, presentation


class BundleError(ValueError):
    """Malformed bundle descriptor or unsupported operation."""


def _is_cp3(base: RingPresentation) -> bool:
    if base.caps != (3,):
        return False
    return base.relations[0] == Poly(1, {(4,): 1})


class BundleDescriptor(namedtuple("BundleDescriptor", "base rank chern alpha")):
    """A complex vector bundle over a tower stage, up to its Chern data.

    ``chern`` lists c_1..c_rank as polynomials over the base presentation's
    generators; they are stored in normal form (every construction path
    reduces them: ``BundleDescriptor(...)``, ``_make``, ``_replace`` and
    unpickling).  ``alpha`` is an optional Z/2 tag completing (c_1, c_2) to
    a classification of rank-2 bundles over CP^3; it is recorded data only,
    nothing here ever computes it, and it is forced to 0 whenever c_1 is
    odd.  As a namedtuple it also equals the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, base: RingPresentation, rank: int,
                chern: tuple[Poly, ...], alpha: int | None = None):
        if rank < 1:
            raise BundleError("rank must be positive")
        if len(chern) != rank:
            raise BundleError(
                f"rank {rank} bundle needs {rank} chern classes, "
                f"got {len(chern)}"
            )
        reduced = []
        for i, c in enumerate(chern, start=1):
            if c.nvars != base.ngens:
                raise BundleError(
                    f"chern class {i} has {c.nvars} generators, base has "
                    f"{base.ngens}"
                )
            r = base.normal_form(c)
            if not r.is_homogeneous(i):
                raise BundleError(
                    f"chern class {i} must be homogeneous of cohomological "
                    f"degree {2 * i} after reduction"
                )
            reduced.append(r)
        if alpha is not None:
            if alpha not in (0, 1):
                raise BundleError("alpha must be 0 or 1")
            if rank != 2:
                raise BundleError("alpha tag only applies to rank-2 bundles")
            if not _is_cp3(base):
                raise BundleError("alpha tag only applies over CP^3")
            if alpha == 1 and _c1_is_odd(reduced[0]):
                raise BundleError("alpha is forced to 0 when c1 is odd")
        return super().__new__(cls, base, rank, tuple(reduced), alpha)

    # namedtuple's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def c1(self) -> Poly:
        return self.chern[0]

    def to_json(self) -> dict:
        return {
            "rank": str(self.rank),
            "chern": [c.to_json() for c in self.chern],
            "alpha": None if self.alpha is None else str(self.alpha),
        }


def _c1_is_odd(c1: Poly) -> bool:
    return any(c % 2 for c in c1.terms.values())


def tensor_line(xi: BundleDescriptor, gamma_c1: Poly) -> BundleDescriptor:
    """Twist by the line bundle with first Chern class t = ``gamma_c1``.

    Each Chern root moves by t, so for rank r

        c_q' = sum over i <= q of C(r - i, q - i) c_i t^(q - i),   c_0 = 1;

    at rank 2 that is c_1' = c_1 + 2 t and c_2' = t^2 + t c_1 + c_2.  The
    projectivization is unchanged by the twist, so the alpha tag rides
    along untouched.
    """
    t = xi.base.normal_form(gamma_c1)
    if not t.is_homogeneous(1):
        raise BundleError("line-bundle class must be homogeneous of degree 2")
    r, g = xi.rank, xi.base.ngens
    c = (Poly.constant(g, 1),) + xi.chern
    return xi._replace(chern=tuple(
        sum((comb(r - i, q - i) * c[i] * t ** (q - i) for i in range(q + 1)),
            Poly.zero(g))
        for q in range(1, r + 1)
    ))


def whitney_sum_of_lines(
    base: RingPresentation, c1s: Sequence[Poly]
) -> BundleDescriptor:
    """Sum of line bundles; c_i is the i-th elementary symmetric polynomial
    of the line classes.  A sum of more than ``towers.MAX_FIBER_DIM + 1``
    lines projectivizes to no legal stage, so it is refused before any
    product (the products are quadratic in the count)."""
    if not c1s:
        raise BundleError("whitney sum of an empty list of line bundles")
    if len(c1s) > towers.MAX_FIBER_DIM + 1:
        raise BundleError(
            f"whitney sum of {len(c1s)} line bundles: its projectivization's "
            f"fiber_dim {len(c1s) - 1} is above the limit of "
            f"{towers.MAX_FIBER_DIM}"
        )
    roots = []
    for i, c in enumerate(c1s, start=1):
        r = base.normal_form(c)
        if not r.is_homogeneous(1):
            raise BundleError(
                f"line class {i} must be homogeneous of degree 2 (or zero)"
            )
        roots.append(r)
    # elementary symmetric functions by the usual one-root-at-a-time update
    elems = [Poly.constant(base.ngens, 1)] + [
        Poly.zero(base.ngens) for _ in roots
    ]
    for r in roots:
        for i in range(len(roots), 0, -1):
            elems[i] = elems[i] + r * elems[i - 1]
    return BundleDescriptor(base=base, rank=len(roots), chern=tuple(elems[1:]))


def normalize_c1(xi: BundleDescriptor) -> tuple[BundleDescriptor, Poly]:
    """Twist so that every coordinate of c_1 lands in [0, rank - 1].

    A twist by t moves c_1 by rank * t, so t is -floor(s / rank) in each
    coordinate s of c_1, a linear form since the descriptor holds it
    homogeneous of weight 1.  Returns the twisted descriptor together with
    the line class used, so a caller can report how the other classes moved.
    """
    twist = Poly(xi.base.ngens, {
        mono: -(s // xi.rank) for mono, s in xi.c1.terms.items()
    })
    return tensor_line(xi, twist), twist


def dual_complement_of_tautological(i: int, j: int) -> TowerSpec:
    """Tower description of the bidegree-(1,1) hypersurface in CP^i x CP^j.

    Realized as the projectivization, over CP^i, of the rank-j complement
    of the tautological line bundle inside a trivial bundle.  In terms of
    the hyperplane generator x of the base, the complement's total Chern
    class is 1 + x + x^2 + ... truncated at rank j and reduced mod x^(i+1).
    """
    if i < 1:
        raise BundleError("base exponent must be at least 1")
    if i > j:
        raise BundleError(f"need i <= j, got ({i}, {j})")
    if j < 2:
        raise BundleError(
            f"({i}, {j}) is degenerate: the rank-{j} complement projectivizes "
            "to a point fiber"
        )
    # the stages hold i + 1 and j Chern classes: refuse before building them
    for idx, fiber_dim in ((1, i), (2, j - 1)):
        if fiber_dim > towers.MAX_FIBER_DIM:
            raise BundleError(
                f"stage {idx} fiber_dim {fiber_dim} is above the limit of "
                f"{towers.MAX_FIBER_DIM}"
            )
    base_stage = Stage(fiber_dim=i, chern=(Poly.zero(0),) * (i + 1))
    chern = []
    for q in range(1, j + 1):
        chern.append(Poly(1, {(q,): 1}) if q <= i else Poly.zero(1))
    fiber_stage = Stage(fiber_dim=j - 1, chern=tuple(chern))
    return TowerSpec(stages=(base_stage, fiber_stage))


def projectivize(base_spec: TowerSpec, xi: BundleDescriptor) -> TowerSpec:
    """Append the projectivization of ``xi`` as a new stage."""
    if xi.base != presentation(base_spec):
        raise BundleError("bundle is not defined over the given base tower")
    if xi.rank < 2:
        raise BundleError("projectivizing a line bundle gives a point fiber")
    stage = Stage(fiber_dim=xi.rank - 1, chern=xi.chern)
    return TowerSpec(stages=base_spec.stages + (stage,))
