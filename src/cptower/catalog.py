"""Named constructors for the bundled classification catalog, plus the
regression sweeps that check it.

One id grammar ("Family:params", integer parameters) is shared by the CLI,
the sweep reports and the fixtures:

  CP3          complex projective 3-space (one stage, fiber CP^3)
  GB2:k        P(gamma^k + eps + eps) over CP^1, a rank-3 sum of lines
  Eta2:s,a     P(rank-2 bundle with c = (s*x, a*x^2)) over CP^2
  Zeta3:s,r,a  P(rank-2 bundle with c1 = s*x + r*y, c2 = a*x*y) over H_0
  Xi3:s,r,b    the same bundle shape over H_1
  M8:alpha,u   P(rank-2 bundle with c = (0, u*x^2)) over CP^3; alpha is the
               Z_2 bundle tag and never shows up in the ring presentation
  N8:u         P(rank-2 bundle with c = (x, u*x^2)) over CP^3; a tower
               only for even u (chi(CP^3, E) = 5 - 5u/2), a ring for odd u

Each family is one ``_FAMILIES`` entry: a builder that adds the family's
last stage to a base tower, whose parameter count is the family's arity.

``canonical_families`` lists one id per 6-dimensional ring-isomorphism
class (with recorded exceptions the sweep flags rather than hides);
``coincidence_fixtures`` freezes an explicit certificate for every recorded
coincidence; ``sweep_distinctness`` runs the all-pairs regression;
``pi6_record``/``pi6_distinguish`` hold the recorded sixth homotopy group
data that separates same-ring M8 pairs (the non-rigidity witness).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import repeat

from . import __version__
from .isosearch import SearchVerdict, admit, search, verify
from .polyring import Poly, PolyJSONError, _parse_int
from .towers import (
    MAX_FIBER_DIM,
    RingPresentation,
    Stage,
    TowerSpec,
    matrix_det,
    presentation,
)

THEOREMS = ("main", "two-stage", "three-stage", "eight-dim")

class FamilyId(namedtuple("FamilyId", "tag params")):
    """A catalog family: a tag of ``_FAMILIES`` and its integer parameters,
    each an int or a decimal of the tower-file rule (``_parse_int``),
    checked on every path (``_make``, ``_replace``, unpickling too).  As a
    namedtuple it also equals the plain tuple ``(tag, params)``."""

    __slots__ = ()

    def __new__(cls, tag: str, params: tuple = ()):
        if tag not in _FAMILIES:
            raise ValueError(f"unknown family tag {tag!r}")
        what = repeat(f"family {tag} parameter")
        params = tuple(map(_parse_int, params, what))
        arity = _FAMILIES[tag].__code__.co_argcount
        if len(params) != arity:
            raise ValueError(
                f"family {tag} takes {arity} parameter(s), got {len(params)}"
            )
        return super().__new__(cls, tag, params)

    # namedtuple's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def parse(cls, text: str) -> "FamilyId":
        text = text.strip()
        tag, sep, rest = text.partition(":")
        try:
            return cls(tag, rest.split(",") if sep else ())
        except PolyJSONError:  # a parameter that is not a decimal
            raise ValueError(f"malformed family id {text!r}") from None

    def __str__(self) -> str:
        if not self.params:
            return self.tag
        return f"{self.tag}:{','.join(str(p) for p in self.params)}"


# -- constructors ----------------------------------------------------------


def _zeros(nvars: int, count: int) -> tuple:
    return tuple(Poly.zero(nvars) for _ in range(count))


def cp_spec(n: int) -> TowerSpec:
    """CP^n as a one-stage tower; n above
    :data:`~cptower.towers.MAX_FIBER_DIM` is refused before anything is
    built."""
    if n > MAX_FIBER_DIM:
        raise ValueError(f"CP{n} is above the limit of CP{MAX_FIBER_DIM}")
    return TowerSpec((Stage(n, _zeros(0, n + 1)),))


def hirzebruch_spec(k: int) -> TowerSpec:
    """The Hirzebruch surface H_k: P(gamma^k + eps) over CP^1."""
    return TowerSpec((
        Stage(1, _zeros(0, 2)),
        Stage(1, (Poly(1, {(1,): k}), Poly.zero(1))),
    ))


# The bases every family adds its stage to, built once.
_CP1, _CP2, _CP3 = cp_spec(1), cp_spec(2), cp_spec(3)
_H0, _H1 = hirzebruch_spec(0), hirzebruch_spec(1)


def _over(base: TowerSpec, fiber_dim: int, *chern: Poly) -> TowerSpec:
    """``base`` with one more stage: a CP^fiber_dim bundle of Chern classes
    ``chern``."""
    return TowerSpec(base.stages + (Stage(fiber_dim, chern),))


# Each family's builder, from its integer parameters; the builder's own
# parameter count is the family's arity (FamilyId reads it).
_FAMILIES = {
    "CP3": lambda: _CP3,
    "GB2": lambda k: _over(_CP1, 2, Poly(1, {(1,): k}), *_zeros(1, 2)),
    "Eta2": lambda s, a: _over(
        _CP2, 1, Poly(1, {(1,): s}), Poly(1, {(2,): a})),
    "Zeta3": lambda s, r, a: _over(
        _H0, 1, Poly(2, {(1, 0): s, (0, 1): r}), Poly(2, {(1, 1): a})),
    "Xi3": lambda s, r, b: _over(
        _H1, 1, Poly(2, {(1, 0): s, (0, 1): r}), Poly(2, {(1, 1): b})),
    "M8": lambda alpha, u: _over(
        _CP3, 1, Poly.zero(1), Poly(1, {(2,): u})),
    "N8": lambda u: _over(_CP3, 1, Poly.variable(1, 0), Poly(1, {(2,): u})),
}


def build(fid: FamilyId) -> TowerSpec:
    """Tower spec for a family id (any integer parameters; the canonical
    parameter domains only matter for list membership, not construction)."""
    return _FAMILIES[fid.tag](*fid.params)


@lru_cache(maxsize=None)
def presentation_of(fid: FamilyId) -> RingPresentation:
    return presentation(build(fid))


def stage_bundle(fid: FamilyId) -> BundleDescriptor:
    """The last-stage bundle as a descriptor over the prefix tower.

    For M8 the Z_2 tag alpha rides along on the descriptor (it is part of
    the bundle data but invisible to the ring); N8 has odd c1, which forces
    the tag to 0.
    """
    from .chern import BundleDescriptor  # loaded on first use
    spec = build(fid)
    if len(spec.stages) < 2:
        raise ValueError(f"{fid} is a single-stage tower; no stage bundle")
    base = presentation(TowerSpec(spec.stages[:-1]))
    last = spec.stages[-1]
    alpha = None
    if fid.tag == "M8":
        alpha = fid.params[0]
    elif fid.tag == "N8":
        alpha = 0
    return BundleDescriptor(base, last.fiber_dim + 1, last.chern, alpha)


# -- canonical lists -------------------------------------------------------


# The largest family range a list is built for: the lists grow linearly
# with the range, and a sweep over one quadratically.
MAX_RANGE = 1_000
# The most rows a sweep plans; ``eight-dim`` at range 20 has 7,626.
MAX_SWEEP_ROWS = 100_000


def _check_range(n: int) -> None:
    if n < 0:
        raise ValueError("range must be non-negative")
    if n > MAX_RANGE:
        raise ValueError(f"range {n} is above the limit of {MAX_RANGE}")


def _two_stage(n: int) -> list[FamilyId]:
    out = [FamilyId("GB2", (k,)) for k in range(0, min(2, n) + 1)]
    out += [
        FamilyId("Eta2", (0, a)) for a in range(-n, n + 1) if a != 0
    ]
    out += [FamilyId("Eta2", (1, a)) for a in range(-n, n + 1)]
    return out


def _three_stage(n: int) -> list[FamilyId]:
    out = [FamilyId("Zeta3", (0, 0, a)) for a in range(0, n + 1)]
    out += [FamilyId("Zeta3", (1, 0, a)) for a in range(0, n + 1)]
    out += [FamilyId("Zeta3", (1, 1, a)) for a in range(1, n + 1)]
    out += [FamilyId("Xi3", (0, 0, b)) for b in range(1, n + 1)]
    out += [FamilyId("Xi3", (1, 0, b)) for b in range(0, n + 1)]
    out += [FamilyId("Xi3", (0, 1, b)) for b in range(-n, n + 1)]
    return out


def canonical_families(n: int = 4) -> list[FamilyId]:
    """One id per 6-dimensional class with parameters in [-n, n].

    Parameter domains: GB2 k in {0,1,2}; Eta2 (0,a) with a != 0 and (1,a)
    with any a; Zeta3 (0,0,a>=0), (1,0,a>=0), (1,1,a>=1); Xi3 (0,0,b>=1),
    (1,0,b>=0), (0,1,b) with any b.  The Xi3 (1,1,*) spelling is dropped in
    favor of (0,1,*) via the recorded (0,1,b) ~ (1,1,-b) coincidence, and
    Eta2:0,0 is dropped in favor of GB2:0 (both are CP^1 x CP^2).
    """
    _check_range(n)
    return [FamilyId("CP3", ())] + _two_stage(n) + _three_stage(n)


def families_for_theorem(theorem: str, n: int = 4) -> list[FamilyId]:
    """The family ids of a theorem's list at range ``n``; ``n`` above
    :data:`MAX_RANGE` is refused before any id is built."""
    _check_range(n)
    if theorem == "main":
        return canonical_families(n)
    if theorem == "two-stage":
        return _two_stage(n)
    if theorem == "three-stage":
        return _three_stage(n)
    if theorem == "eight-dim":
        out = [
            FamilyId("M8", (alpha, u))
            for alpha in (0, 1)
            for u in range(-n, n + 1)
        ]
        out += [FamilyId("N8", (u,)) for u in range(-n, n + 1)]
        return out
    raise ValueError(f"unknown theorem tag {theorem!r}")


# -- recorded coincidences -------------------------------------------------


def coincidence_fixtures() -> list[tuple]:
    """(a, b, matrix) triples: every recorded coincidence class, pinned at
    small parameter values, with an explicit certificate (entries within
    [-2, 2], so search at B=2 re-finds each one).

    Matrix convention matches the search engine: rows of integers, column k
    holding the target-generator coordinates of the image of source
    generator k.
    """
    swap3 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))       # x<->y base swap
    flip_y = ((1, 0, 0), (0, -1, 0), (0, 0, 1))     # y -> -y sign flip
    shear_11 = ((0, 1, 0), (-1, 0, 1), (0, 0, 1))   # a -> 1-a shear
    negsum = ((1, -1, 0), (0, -1, 0), (0, 0, 1))    # y -> -x-y
    relabel = ((1, -1, 1), (0, -1, 1), (0, 0, 1))   # (0,1,b) -> (1,1,-b)
    cross = ((1, 0, 0), (0, 0, 1), (0, 1, 0))       # the one H_0/H_1 overlap
    return [
        (FamilyId.parse("Zeta3:1,0,2"), FamilyId.parse("Zeta3:0,1,2"), swap3),
        (FamilyId.parse("Zeta3:0,0,2"), FamilyId.parse("Zeta3:0,0,-2"), flip_y),
        (FamilyId.parse("Zeta3:1,0,2"), FamilyId.parse("Zeta3:1,0,-2"), flip_y),
        (FamilyId.parse("Zeta3:1,1,2"), FamilyId.parse("Zeta3:1,1,-1"), shear_11),
        (FamilyId.parse("Zeta3:1,1,0"), FamilyId.parse("Zeta3:1,1,1"), shear_11),
        (FamilyId.parse("Xi3:0,0,2"), FamilyId.parse("Xi3:0,0,-2"), negsum),
        (FamilyId.parse("Xi3:1,0,2"), FamilyId.parse("Xi3:1,0,-2"), negsum),
        (FamilyId.parse("Xi3:0,1,2"), FamilyId.parse("Xi3:1,1,-2"), relabel),
        (FamilyId.parse("Xi3:0,1,-1"), FamilyId.parse("Xi3:1,1,1"), relabel),
        (FamilyId.parse("Zeta3:1,0,0"), FamilyId.parse("Xi3:0,0,0"), cross),
        (FamilyId.parse("GB2:0"), FamilyId.parse("Eta2:0,0"), ((0, 1), (1, 0))),
        (FamilyId.parse("GB2:1"), FamilyId.parse("GB2:2"), ((1, -1), (0, -1))),
    ]


# -- recorded pi_6 data (the 8-dimensional non-rigidity witness) -----------


class Pi6Record(namedtuple("Pi6Record", "family divisibility_ok t pi6")):
    """Recorded sixth homotopy group of an M8 family member.

    The recorded rule: when u(u+1)/12 is an integer t, pi_6 is Z12 for
    alpha = t (mod 2) and Z6 otherwise; when the divisibility fails the
    recorded data says nothing (u=1 is a genuine counterexample, where
    pi_6 vanishes).  ``pi6`` is "Z12", "Z6" or "unknown".  As a namedtuple
    it also equals the plain tuple of its fields.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "family": str(self.family),
            "divisibility_ok": self.divisibility_ok,
            "t": None if self.t is None else str(self.t),
            "pi6": self.pi6,
        }


class Pi6Verdict(namedtuple("Pi6Verdict", "result left right")):
    """``result`` ("distinct", "same_ring" or "unknown") of comparing ``left``
    with ``right``; as a namedtuple it also equals a plain tuple."""

    __slots__ = ()


def pi6_record(fid: FamilyId) -> Pi6Record:
    if fid.tag != "M8":
        raise ValueError("pi6 data is recorded for M8 families only")
    alpha, u = fid.params
    if (u * (u + 1)) % 12 != 0:
        return Pi6Record(fid, False, None, "unknown")
    t = (u * (u + 1)) // 12
    pi6 = "Z12" if (alpha - t) % 2 == 0 else "Z6"
    return Pi6Record(fid, True, t, pi6)


def pi6_distinguish(a: FamilyId, b: FamilyId) -> Pi6Verdict:
    """Separate two same-u M8 families by their recorded pi_6.

    "distinct" means different pi_6 despite isomorphic (indeed identical)
    cohomology presentations; "same_ring" means the recorded data does not
    separate them (equal tags); "unknown" means the divisibility condition
    fails and the recorded rule is inapplicable.  Unequal u is a caller
    error: those pairs are already separated by the ring search.
    """
    left, right = pi6_record(a), pi6_record(b)
    if a.params[1] != b.params[1]:
        raise ValueError("pi6 comparison requires equal u parameters")
    if not left.divisibility_ok:
        return Pi6Verdict("unknown", left, right)
    if (a.params[0] - b.params[0]) % 2 == 0:
        return Pi6Verdict("same_ring", left, right)
    return Pi6Verdict("distinct", left, right)


# -- distinctness sweeps ---------------------------------------------------


def _expected_row(a: FamilyId, b: FamilyId) -> tuple:
    """(expected, flag) for a catalog pair.

    Two recorded exceptions to "distinct unless identical": GB2:1/GB2:2,
    whose rings (and manifolds) coincide even though both labels sit in the
    canonical list, and same-u M8 pairs, whose presentations are literally
    identical while the manifolds differ -- the non-rigidity witness.
    """
    if a == b:
        return "coincident", None
    if a.tag == b.tag == "GB2" and {a.params, b.params} == {(1,), (2,)}:
        return "coincident", "catalog-overcount"
    if a.tag == "M8" and b.tag == "M8" and a.params[1] == b.params[1]:
        return "coincident", "non-rigidity"
    return "distinct", None


def _plan_rows(theorem: str, n: int) -> list[tuple]:
    """(a, b, expected, flag, note) for every row of a sweep, in report
    order: each unordered pair of the theorem's list (self pairs included),
    then any recorded claim pairs.  More than :data:`MAX_SWEEP_ROWS` rows
    are refused before any pair is built."""
    fams = families_for_theorem(theorem, n)
    claims = []
    if theorem in ("main", "three-stage"):
        # Two recorded coincidence claims for the H_0/H_1 overlap disagree
        # with each other; both are swept under one flag, with the expected
        # values set to what the search actually certifies.
        claims.append((
            FamilyId("Zeta3", (1, 0, 0)), FamilyId("Xi3", (0, 0, 0)),
            "coincident", "conflicting-claims",
            "recorded-claim-pair: certificate exists",
        ))
        if n >= 1:
            claims.append((
                FamilyId("Zeta3", (0, 0, 1)), FamilyId("Xi3", (0, 0, 0)),
                "distinct", "conflicting-claims",
                "recorded-claim-pair: no certificate within bound",
            ))
    rows = len(fams) * (len(fams) + 1) // 2 + len(claims)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(
            f"the {theorem} sweep at range {n} has {rows} rows, above the "
            f"limit of {MAX_SWEEP_ROWS}"
        )
    return [
        (a, b, *_expected_row(a, b), None)
        for i, a in enumerate(fams) for b in fams[i:]
    ] + claims


# Cache directories a write already failed in, so each warns only once.
_unwritable_cache_dirs: set = set()


def _entry_text(verdict: SearchVerdict) -> str:
    """The one text the cache writes, and trusts, for ``verdict``."""
    # one C-encoded call: json.dump streams through the pure-Python encoder
    return json.dumps(verdict.to_json())


def _trusted_entry(text: str, pres_a: RingPresentation,
                   pres_b: RingPresentation, bound: int) -> SearchVerdict:
    """The verdict a cache entry claims, re-derived in one pass; raise
    ValueError unless the entry is byte for byte its :func:`_entry_text`.

    ``found`` is re-derived from the matrix alone: its entries read as ints
    within ``bound``, :func:`verify` accepting it (g x g is checked before
    any determinant), and the determinant computed here.  Anything else
    can only be the bounded exhaustion at ``bound``, which only a new
    search could re-check.
    """
    entry = json.loads(text)
    if entry["result"] == "found":
        mat = tuple(tuple(int(e) for e in row) for row in entry["matrix"])
        within = all(abs(e) <= bound for row in mat for e in row)
        if not (within and verify(pres_a, pres_b, mat)):
            raise ValueError("cached certificate is not one a search finds")
        verdict = SearchVerdict("found", mat, matrix_det(mat), bound, None)
    else:
        verdict = SearchVerdict(
            "none_within_bound", None, None, bound, "exhausted")
    if _entry_text(verdict) != text:
        raise ValueError("cached entry is not one a search writes")
    return verdict


def _cache_key(
    pres_a: RingPresentation, pres_b: RingPresentation, bound: int
) -> str:
    """Hex SHA-256 naming a pair's verdict-cache entry, derived from
    (schema, tool version, both presentations' canonical identities,
    bound), so a version bump or any presentation change invalidates old
    entries."""
    import hashlib  # only a cached search pays for loading it

    # repr of nested int tuples is injective and holds no "|"
    key = (
        f"cpt/1|{__version__}|{pres_a.identity!r}|{pres_b.identity!r}"
        f"|{bound}"
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def _cached_search(
    pres_a: RingPresentation,
    pres_b: RingPresentation,
    bound: int,
    cache_dir: str | None,
) -> SearchVerdict:
    """search() with an optional on-disk verdict cache, keyed by
    :func:`_cache_key`.

    A pair whose Poincare series differ is decided before any file is
    opened: its ``betti_mismatch`` verdict is returned with no cache read
    or write, so the cache holds no such verdict.  An entry is read in one
    binary read, decoded as strict UTF-8 (a byte-order mark or an invalid
    byte makes it unreadable) and re-derived in one pass by
    :func:`_trusted_entry`; one that is not byte for byte its re-derived
    verdict, or cannot be read, is recomputed and overwritten.  A failed
    cache write costs only a warning on stderr, once per directory and
    process: the computed verdict is still returned.
    """
    if cache_dir is None or not admit(pres_a, pres_b, bound):
        return search(pres_a, pres_b, bound)
    path = os.path.join(cache_dir, f"{_cache_key(pres_a, pres_b, bound)}.json")
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        return _trusted_entry(text, pres_a, pres_b, bound)
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            RecursionError):
        pass
    verdict = search(pres_a, pres_b, bound)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_entry_text(verdict))
        os.replace(tmp, path)
    except OSError as exc:
        if cache_dir not in _unwritable_cache_dirs:
            _unwritable_cache_dirs.add(cache_dir)
            print(f"warning: verdict not cached: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):
            os.remove(tmp)
    return verdict


def _sweep_worker(args: tuple) -> dict:
    """The verdict JSON of one sweep row, (a, b, bound, cache_dir), by the
    call ``cpt iso a b`` makes; a row timer may rebind it in this module."""
    a, b, bound, cache_dir = args
    return _cached_search(
        presentation_of(a), presentation_of(b), bound, cache_dir
    ).to_json()


def sweep_distinctness(
    theorem: str = "main",
    n: int = 4,
    bound: int = 3,
    cache_dir: str | None = None,
) -> dict:
    """All-pairs distinctness regression over a theorem's family list.

    Every unordered pair (self pairs included) gets a row; a row passes
    when the search verdict matches the expected classification.  Rows are
    searched target by target but emitted in planning order, so reports
    are deterministic up to the caller-supplied metadata.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    plan = _plan_rows(theorem, n)
    # Target-major: rows with one target presentation run back to back, so
    # the search tables, keyed on it alone (isosearch._box_powers), are
    # built once per target.  Ids with equal presentations share one rank,
    # as M8 ids differing only in alpha do.  Each id is ranked and named
    # once, targets first in plan order.
    rank: dict = {}
    rank_of: dict = {}
    name: dict = {}
    for fid in [b for _, b, *_ in plan] + [a for a, *_ in plan]:
        if fid not in rank_of:
            rank_of[fid] = rank.setdefault(presentation_of(fid), len(rank))
            name[fid] = str(fid)
    ranks = [rank_of[b] for _, b, *_ in plan]
    # every presentation is a target of its self pair: refuse up front a
    # sweep whose tables, or any of them, are above the search budget
    for pres in rank:
        admit(pres, pres, bound)
    verdicts: list = [None] * len(plan)
    for i in sorted(range(len(plan)), key=ranks.__getitem__):
        a, b = plan[i][:2]
        verdicts[i] = _sweep_worker((a, b, bound, cache_dir))
    rows = []
    for (a, b, expected, flag, note), verdict in zip(plan, verdicts):
        found = verdict["result"] == "found"
        row = {
            "a": name[a],
            "b": name[b],
            "expected": expected,
            "verdict": verdict,
            "pass": found == (expected == "coincident"),
        }
        if flag:
            row["flag"] = flag
        if a != b and rank_of[a] == rank_of[b]:  # equal presentations
            note = "identical_presentations"
        if note:
            row["note"] = note
        if flag == "non-rigidity":
            v = pi6_distinguish(a, b)
            row["pi6"] = {
                "a": v.left.to_json(),
                "b": v.right.to_json(),
                "verdict": v.result,
            }
        rows.append(row)
    return {
        "rows": rows,
        "summary": {
            "pairs": str(len(rows)),
            "failures": str(sum(not row["pass"] for row in rows)),
            "flagged": str(sum("flag" in row for row in rows)),
        },
    }
