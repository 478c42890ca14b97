"""The immutable records: FamilyId, Pi6Record, Pi6Verdict, Stage,
TowerSpec, SearchVerdict and BundleDescriptor.

Each is a namedtuple: frozen, equal and hashed by its fields, with a repr
that names them.  Those that check or normalise their fields do so on every
construction path: the constructor, ``_make``, ``_replace`` and unpickling.
"""

import pickle

import pytest

from cptower import (
    BundleDescriptor,
    BundleError,
    FamilyId,
    Poly,
    SearchVerdict,
    Stage,
    TowerSpec,
    TowerSpecError,
    pi6_distinguish,
    pi6_record,
)
from cptower.towers import MAX_FIBER_DIM
from conftest import cp, cp_spec

X = Poly(1, {(1,): 1})

# (build, repr): ``build`` makes a fresh record on each call
RECORDS = {
    "FamilyId": (
        lambda: FamilyId("GB2", (1,)),
        "FamilyId(tag='GB2', params=(1,))",
    ),
    "Stage": (
        lambda: Stage(1, (Poly.zero(0), Poly.zero(0))),
        "Stage(fiber_dim=1, chern=(Poly(0, 0), Poly(0, 0)))",
    ),
    "TowerSpec": (
        lambda: cp_spec(1),
        "TowerSpec(stages=(Stage(fiber_dim=1, chern=(Poly(0, 0), "
        "Poly(0, 0))),))",
    ),
    "SearchVerdict": (
        lambda: SearchVerdict("found", ((1, 0), (0, 1)), 1, 2, None),
        "SearchVerdict(result='found', matrix=((1, 0), (0, 1)), det=1, "
        "bound=2, reason=None)",
    ),
    "Pi6Record": (
        lambda: pi6_record(FamilyId("M8", (1, 3))),
        "Pi6Record(family=FamilyId(tag='M8', params=(1, 3)), "
        "divisibility_ok=True, t=1, pi6='Z12')",
    ),
    "Pi6Verdict": (
        lambda: pi6_distinguish(FamilyId("M8", (0, 3)), FamilyId("M8", (1, 3))),
        "Pi6Verdict(result='distinct', left=Pi6Record(family=FamilyId("
        "tag='M8', params=(0, 3)), divisibility_ok=True, t=1, pi6='Z6'), "
        "right=Pi6Record(family=FamilyId(tag='M8', params=(1, 3)), "
        "divisibility_ok=True, t=1, pi6='Z12'))",
    ),
    "BundleDescriptor": (
        lambda: BundleDescriptor(cp(3), 2, (X, Poly.zero(1)), 0),
        "BundleDescriptor(base=RingPresentation(caps=(3,)), rank=2, "
        "chern=(Poly(1, {(1,): 1}), Poly(1, 0)), alpha=0)",
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    build, text = RECORDS[request.param]
    return build, text


def test_fields_cannot_be_assigned(record):
    build, _ = record
    rec = build()
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None  # __slots__ = (): no instance dict


def test_equal_fields_mean_equal_records_and_hashes(record):
    build, _ = record
    one, two = build(), build()
    assert one is not two
    assert one == two and hash(one) == hash(two)
    # as a namedtuple, a record also equals the plain tuple of its fields
    assert one == tuple(one)


def test_repr_names_the_fields(record):
    build, text = record
    assert repr(build()) == text


def test_pickle_round_trip(record):
    build, _ = record
    rec = build()
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec


def _raw(cls, *fields):
    """A record made without its checks, as a corrupt pickle could hold."""
    return tuple.__new__(cls, fields)


def test_family_id_normalises_params_on_every_path():
    assert FamilyId("GB2", ("1",)).params == (1,)
    assert FamilyId._make(["Eta2", ["0", "-3"]]).params == (0, -3)
    assert FamilyId("GB2", (1,))._replace(params=("2",)).params == (2,)
    assert pickle.loads(pickle.dumps(_raw(FamilyId, "GB2", ("4",)))).params == (4,)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FamilyId("Bogus"),
        lambda: FamilyId._make(["GB2", (1, 2)]),
        lambda: FamilyId("GB2", (1,))._replace(tag="CP3"),
        lambda: pickle.loads(pickle.dumps(_raw(FamilyId, "N8", ()))),
        # a parameter is an int or a decimal string of the tower-file rule,
        # so int() may not round a float or read a bool on any path
        lambda: FamilyId("GB2", (1.5,)),
        lambda: FamilyId("GB2", (True,)),
        lambda: FamilyId("Eta2", (0, -3))._replace(params=(2.9, -1.2)),
        lambda: FamilyId._make(["GB2", ("1_0",)]),
        lambda: pickle.loads(pickle.dumps(_raw(FamilyId, "GB2", (False,)))),
    ],
)
def test_family_id_checks_every_path(make):
    with pytest.raises(ValueError):
        make()


def _too_wide():
    n = MAX_FIBER_DIM + 1
    return (Stage(n, (Poly.zero(0),) * (n + 1)),)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TowerSpec(_too_wide()),
        lambda: TowerSpec._make([_too_wide()]),
        lambda: cp_spec(1)._replace(stages=_too_wide()),
        lambda: pickle.loads(pickle.dumps(_raw(TowerSpec, _too_wide()))),
    ],
)
def test_tower_spec_checks_every_path(make):
    with pytest.raises(TowerSpecError, match="fiber_dim 1001 is above"):
        make()


def test_bundle_descriptor_reduces_chern_classes_on_every_path():
    # x^4 vanishes over CP^3, so c_2 = x^2 + x^4 is stored as x^2
    base, x2 = cp(3), X * X
    c2 = x2 + x2 * x2
    made = [
        BundleDescriptor(base, 2, (X, c2)),
        BundleDescriptor._make([base, 2, (X, c2), None]),
        BundleDescriptor(base, 2, (X, x2))._replace(chern=(X, c2)),
        pickle.loads(pickle.dumps(_raw(BundleDescriptor, base, 2, (X, c2), None))),
    ]
    assert [d.chern for d in made] == [(X, x2)] * 4


@pytest.mark.parametrize(
    "make",
    [
        lambda: BundleDescriptor(cp(3), 2, (X, Poly.zero(1)), 1),
        lambda: BundleDescriptor._make([cp(3), 2, (X, Poly.zero(1)), 1]),
        lambda: BundleDescriptor(cp(3), 2, (X, Poly.zero(1)))._replace(alpha=1),
        lambda: pickle.loads(pickle.dumps(
            _raw(BundleDescriptor, cp(3), 2, (X, Poly.zero(1)), 1)
        )),
    ],
)
def test_bundle_descriptor_checks_every_path(make):
    with pytest.raises(BundleError, match="alpha is forced to 0 when c1 is odd"):
        make()
