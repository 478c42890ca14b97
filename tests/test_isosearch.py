"""Certificate verification and the bounded unimodular matrix search."""

import gc
import itertools
import random
from array import array
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cptower import (
    IsoShapeError,
    Poly,
    RingPresentation,
    SearchVerdict,
    compose,
    families_for_theorem,
    invert_unimodular,
    matrix_det,
    presentation_of,
    search,
    search_all,
    verify,
)
from cptower import isosearch
from cptower.catalog import THEOREMS
from cptower.isosearch import (
    MAX_SEARCH_CELLS,
    _box_powers,
    _BoxPowers,
    _ColumnWalk,
    _image_index,
    _Lanes,
    _survivors,
    _wedge,
    admit,
    images_from_matrix,
    table_cells,
)
from conftest import bott, cp, hirzebruch, pres, trivial_tower
from oracles import (
    image_index_reference,
    node_survivors_by_substitution,
    search_all_reference,
)


# -- SearchVerdict serialization -------------------------------------------


def test_verdict_found_json_shape():
    v = SearchVerdict("found", ((1, 0), (0, -1)), -1, 2, None)
    assert v.found
    assert v.to_json() == {
        "result": "found",
        "matrix": [["1", "0"], ["0", "-1"]],
        "det": "-1",
    }


def test_verdict_none_json_shape():
    v = SearchVerdict("none_within_bound", None, None, 3, "exhausted")
    assert not v.found
    assert v.to_json() == {
        "result": "none_within_bound",
        "bound": "3",
        "reason": "exhausted",
    }


# -- verify -----------------------------------------------------------------


def test_verify_known_certificates():
    # x <-> y swap between the trivial 2-stage towers
    assert verify(pres("GB2:0"), pres("Eta2:0,0"), ((0, 1), (1, 0)))
    # x -> x, y -> -x - y identifies the k=1 and k=2 six-dimensional towers
    assert verify(pres("GB2:1"), pres("GB2:2"), ((1, -1), (0, -1)))
    # identity always certifies a presentation against itself
    assert verify(pres("Zeta3:1,1,2"), pres("Zeta3:1,1,2"),
                  ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_verify_rejects_bad_certificates():
    h0, h1 = hirzebruch(0), hirzebruch(1)
    # right shape, unimodular, but the relations do not map to zero
    assert not verify(h0, h1, ((1, 0), (0, 1)))
    # determinant 0
    assert not verify(h0, h0, ((1, 1), (1, 1)))
    # determinant 2
    assert not verify(h0, h0, ((2, 0), (0, 1)))


def test_verify_shape_errors_and_poincare():
    with pytest.raises(IsoShapeError, match="generator counts differ: 1 vs 2"):
        verify(cp(3), hirzebruch(0), ((1,),))
    with pytest.raises(IsoShapeError, match="expected a 2x2 matrix"):
        verify(hirzebruch(0), hirzebruch(0), ((1, 0),))
    with pytest.raises(IsoShapeError, match="entries must be integers"):
        verify(cp(3), cp(3), (("x",),))
    # same generator count, different graded ranks: False, not an error
    assert not verify(cp(1), cp(2), ((1,),))


@pytest.mark.parametrize("bad", [
    ((1.5, 0), (0, 1)),
    ((True, 0), (0, 1)),
    ((-1.0, 0), (0, 1)),
    (("1", 0), (0, 1)),
    ((1.5, 0), (0, True)),  # int() would read it as the identity
])
def test_certificate_entries_must_be_ints(bad):
    # a float, a bool or a decimal string is refused, never read as an int
    h0, one = hirzebruch(0), ((1, 0), (0, 1))
    with pytest.raises(IsoShapeError, match="entries must be integers"):
        verify(h0, h0, bad)
    with pytest.raises(IsoShapeError, match="entries must be integers"):
        invert_unimodular(bad)
    for pair in ((bad, one), (one, bad)):
        with pytest.raises(IsoShapeError, match="entries must be integers"):
            compose(*pair)


def test_images_from_matrix():
    h0 = hirzebruch(0)
    images = images_from_matrix(h0, ((0, 1), (1, 0)))
    assert images[0] == Poly(2, {(0, 1): 1})
    assert images[1] == Poly(2, {(1, 0): 1})
    images = images_from_matrix(h0, ((1, -1), (0, -1)))
    assert images[1] == Poly(2, {(1, 0): -1, (0, 1): -1})


# -- search fixtures --------------------------------------------------------


def test_search_cp3_self_bound_1():
    v = search(cp(3), cp(3), 1)
    assert v.found and v.matrix == ((-1,),) and v.det == -1
    assert search_all(cp(3), cp(3), 1) == [((-1,),), ((1,),)]


def test_search_all_h0_self_bound_1():
    # the 8 signed permutation matrices, in column-major enumeration order
    assert search_all(hirzebruch(0), hirzebruch(0), 1) == [
        ((-1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
        ((0, -1), (-1, 0)),
        ((0, 1), (-1, 0)),
        ((0, -1), (1, 0)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, -1)),
        ((1, 0), (0, 1)),
    ]


def test_search_all_eta_self_bound_2():
    certs = search_all(pres("Eta2:0,3"), pres("Eta2:0,3"), 2)
    assert certs == [
        ((-1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
        ((1, 0), (0, -1)),
        ((1, 0), (0, 1)),
    ]


def test_search_eta_sign_flip_has_no_certificate():
    v = search(pres("Eta2:0,3"), pres("Eta2:0,-3"), 2)
    assert v.result == "none_within_bound"
    assert v.reason == "exhausted"
    assert v.bound == 2
    assert search_all(pres("Eta2:0,3"), pres("Eta2:0,-3"), 3) == []


def test_search_h0_to_h2():
    v = search(hirzebruch(0), hirzebruch(2), 1)
    assert v.found and v.matrix == ((-1, -1), (-1, 0)) and v.det == -1
    assert verify(hirzebruch(0), hirzebruch(2), v.matrix)


def test_search_betti_mismatch_short_circuit():
    v = search(cp(1), cp(2), 3)
    assert v.result == "none_within_bound"
    assert v.reason == "betti_mismatch"


def test_search_preconditions():
    # different generator counts mean different Poincare series: a proof
    v = search(cp(3), hirzebruch(0), 2)
    assert v == ("none_within_bound", None, None, 2, "betti_mismatch")
    assert search_all(cp(3), hirzebruch(0), 2) == []
    assert search_all_reference(cp(3), hirzebruch(0), 2) == []
    with pytest.raises(ValueError, match="bound"):
        search(cp(3), cp(3), -1)
    # bound 0 admits only the zero matrix, which has det 0
    assert search(cp(3), cp(3), 0).reason == "exhausted"
    # no generators: the empty matrix (det 1) is the one certificate
    point = RingPresentation((), ())
    assert search_all(point, point, 1) == search_all_reference(point, point, 1)
    assert search(point, point, 1).matrix == ()


def test_bound_zero_builds_no_tables(monkeypatch):
    # the bound-0 box holds only the zero column, which is in no
    # certificate: the search is exhausted before any target table is built
    def refuse(*args):
        raise AssertionError("a bound-0 search built its tables")

    _box_powers.cache_clear()
    monkeypatch.setattr(isosearch, "_BoxPowers", refuse)
    ring = pres("Zeta3:1,0,2")
    assert search(ring, ring, 0) == (
        "none_within_bound", None, None, 0, "exhausted"
    )
    assert search_all(ring, ring, 0) == []


def test_search_refuses_tables_above_the_cell_budget(monkeypatch):
    # refused before any table is built; a Betti mismatch and a bound-0
    # search keep their verdicts
    def refuse(*args):
        raise AssertionError("a refused search built its tables")

    _box_powers.cache_clear()
    monkeypatch.setattr(isosearch, "_BoxPowers", refuse)
    big = trivial_tower(20, 20, 20)
    with pytest.raises(ValueError, match="box of 343 columns and tables of "
                       f"at least 702121 cells, above the limit of "
                       f"{MAX_SEARCH_CELLS}"):
        search(big, big, 3)
    ring = trivial_tower(2, 2)  # 9 columns at bound 1, rank 9
    assert table_cells(ring, 1) == 9 * (2 + 3 + 2) + 9
    # above the box's pre-check (9 columns x 2 generators), below the tables
    monkeypatch.setattr(isosearch, "MAX_SEARCH_CELLS", 71)
    for entry in (search, search_all):
        with pytest.raises(ValueError, match="box of 9 columns and tables "
                           "of at least 72 cells, above the limit of 71"):
            entry(ring, ring, 1)
    assert search(ring, ring, 0).reason == "exhausted"
    assert search(ring, cp(4), 1).reason == "betti_mismatch"


def test_the_cell_budget_admits_the_catalog():
    # the check itself, with no search run: every catalog id (the cells
    # depend on the Poincare series alone, the same at every range) and
    # (CP^1)^5 pass at bound 3, 3 x CP^20 only up to bound 2
    def legal(p, bound):
        return admit(p, p, bound)

    for theorem in THEOREMS:
        assert all(legal(presentation_of(fid), 3)
                   for fid in families_for_theorem(theorem, 8))
    assert table_cells(trivial_tower(1, 1, 1, 1, 1), 3) == 252_137
    assert legal(trivial_tower(1, 1, 1, 1, 1), 3)
    assert legal(trivial_tower(10, 10, 10, 10), 1)  # rank 14,641
    big = trivial_tower(20, 20, 20)
    assert [table_cells(big, b) for b in (1, 2, 3)] == [
        63_801, 261_761, 702_121
    ]
    assert legal(big, 2)
    with pytest.raises(ValueError, match="tables of at least 702121 cells"):
        legal(big, 3)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_table_cells_count_what_the_tables_hold(bound):
    # an id of every catalog family, then products
    rings = [pres(fid) for fid in (
        "CP3", "GB2:2", "Eta2:1,-2", "Zeta3:1,0,2", "Xi3:1,1,1", "M8:1,2",
        "N8:3",
    )]
    rings += [cp(3), trivial_tower(1, 1, 1), trivial_tower(2, 2, 2)]
    for p in rings:
        t = _BoxPowers(p, bound)
        held = len(t.values) * len(t.columns) + sum(map(len, t.bases))
        assert held == table_cells(p, bound)


def test_rejected_certificate_raises(monkeypatch):
    # a certificate verify rejects is an engine bug, in both entry points
    a, b = pres("GB2:1"), pres("GB2:2")
    assert search(a, b, 2).found
    monkeypatch.setattr(isosearch, "verify", lambda *args: False)
    for entry in (search, search_all):
        with pytest.raises(RuntimeError, match="non-verifying certificate"):
            entry(a, b, 2)


def test_found_verdicts_reverify():
    for a, b in [("GB2:1", "GB2:2"), ("Zeta3:1,0,2", "Zeta3:0,1,2")]:
        v = search(pres(a), pres(b), 2)
        assert v.found
        assert verify(pres(a), pres(b), v.matrix)
        assert abs(v.det) == 1 and matrix_det(v.matrix) == v.det


# -- engine compliance ------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, bound",
    [
        ("CP3", "CP3", 2),
        ("GB2:1", "GB2:2", 1),
        ("GB2:0", "GB2:1", 2),
        # an index key with several columns: x^2 = 0 in GB2:1, so every
        # column (c, 0) has square 0
        ("GB2:2", "GB2:1", 2),
        ("Eta2:0,2", "Eta2:0,2", 2),
        ("Eta2:0,2", "Eta2:0,-2", 2),
        ("Eta2:1,1", "Eta2:1,1", 2),
        ("M8:0,2", "M8:0,2", 2),
        ("M8:0,1", "N8:1", 2),
        ("Zeta3:1,0,2", "Zeta3:0,1,2", 1),
        ("Zeta3:1,0,0", "Xi3:0,0,0", 1),
        ("Zeta3:0,0,1", "Xi3:0,0,0", 1),
        # caps (1, 3) against (3, 1): the relations sit at different depths
        # and weights on the two sides
        ("CP1xCP3", "CP3xCP1", 2),
    ],
)
def test_pruned_engine_matches_reference(monkeypatch, a, b, bound):
    rings = {
        "CP3": lambda: cp(3),
        "CP1xCP3": lambda: trivial_tower(1, 3),
        "CP3xCP1": lambda: trivial_tower(3, 1),
    }
    pa = rings[a]() if a in rings else pres(a)
    pb = rings[b]() if b in rings else pres(b)
    indexes = []
    build = isosearch._image_index

    def recording(*args):
        indexes.append(build(*args))
        return indexes[-1]

    monkeypatch.setattr(isosearch, "_image_index", recording)
    _box_powers.cache_clear()
    try:
        assert search_all(pa, pb, bound) == search_all_reference(pa, pb, bound)
    finally:
        _box_powers.cache_clear()
    assert indexes
    if (a, b, bound) == ("GB2:2", "GB2:1", 2):
        # sorted lanes: two neighbours share one packed image
        assert any(
            x >> shift == y >> shift
            for _, _, shift, packed, _ in indexes
            for x, y in zip(packed, packed[1:])
        )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_index_lookup_filters_the_box(g, bound, data):
    # one lookup gives exactly the box indices whose image under A is the
    # target, ascending; out-of-limit digits that alias a reachable target
    # under the packing find nothing
    ring = {1: cp(3), 2: pres("Eta2:1,-2"), 3: pres("Zeta3:1,1,2")}[g]
    tables = _BoxPowers(ring, bound)
    values, n = tables.values, len(tables.columns)
    width = len(values)
    a = tuple(data.draw(st.lists(
        st.one_of(
            st.just((0,) * width),
            st.tuples(*[st.integers(-3, 3)] * width),
        ),
        max_size=3,
    )))

    def image(idx):
        return tuple(sum(x * values[p][idx] for p, x in enumerate(row))
                     for row in a)

    def brute(target):
        return [idx for idx in range(n) if image(idx) == target]

    peaks = [max(abs(v) for v in vs) for vs in values]
    limits = [sum(abs(x) * m for x, m in zip(row, peaks)) for row in a]
    radix = 2 * max(limits, default=0) + 1
    reached = image(data.draw(st.integers(0, n - 1)))
    targets = [
        reached,
        tuple(data.draw(st.integers(-radix, radix)) for _ in a),
    ]
    for j in range(len(a) - 1):  # radix at digit j == 1 at digit j + 1
        shifted = list(reached)
        shifted[j] += radix
        shifted[j + 1] -= 1
        targets.append(tuple(shifted))
    index = _image_index(tables.lanes, peaks, a)
    for target in targets:
        assert list(_survivors(index, target)) == brute(target)
    assert _survivors(index, reached)  # the drawn column itself


@pytest.mark.parametrize("name", [
    "CP3", "Eta2:1,-2", "Zeta3:1,1,2", "Xi3:0,1,-1", "M8:0,2", "CP2xCP1xCP1",
])
def test_fold_lists_the_reduced_products_of_basis_monomials(name):
    # every (a, e) a walk asks for: e up to max(caps) + 1, a + e up to the
    # top weight; the oracle multiplies Poly monomials and reduces them
    ring = {"CP3": lambda: cp(3),
            "CP2xCP1xCP1": lambda: trivial_tower(2, 1, 1)}.get(
        name, lambda: pres(name))()
    tables = _BoxPowers(ring, 1)
    g, top = ring.ngens, sum(ring.caps)
    bases = [ring.graded_basis(2 * w) for w in range(top + 1)]
    for e in range(1, max(ring.caps) + 2):
        start = sum(map(len, bases[1:e]))  # where L^e starts
        for a in range(top - e + 1):
            product_basis = bases[a + e]
            expected = [
                sorted(
                    (product_basis.index(m), start + i, c)
                    for i, v in enumerate(bases[e])
                    for m, c in ring.normal_form(
                        Poly.monomial(g, u) * Poly.monomial(g, v)
                    ).terms.items()
                )
                for u in bases[a]
            ]
            assert list(map(sorted, tables.fold(a, e))) == expected, (a, e)


# lane widths in bits, (lo, hi]: one per native item size, narrowest first,
# then two spans of lanes of several words
_ITEM_BITS = sorted({8 * array(code).itemsize for code in "BHILQ"})
_LANE_WIDTHS = list(zip([0] + _ITEM_BITS, _ITEM_BITS)) + [
    (_ITEM_BITS[-1], 2 * _ITEM_BITS[-1]),
    (2 * _ITEM_BITS[-1], 5 * _ITEM_BITS[-1]),
]


@cache
def _lane_box(name: str, bound: int) -> tuple:
    """(values, lanes) of a box; kept without its tables, which other tests
    count."""
    ring = {"CP1": lambda: cp(1), "CP3": lambda: cp(3), "CP70": lambda: cp(70)}
    tables = _BoxPowers(ring[name]() if name in ring else pres(name), bound)
    return tables.values, tables.lanes


# one column (bound 0, s = 0); a g = 1 ring of high cap, whose power values
# pass 2^64; boxes of 3 to 343 columns
_LANE_BOXES = [("CP1", 0), ("CP3", 1), ("CP70", 2), ("Eta2:1,-2", 2),
               ("Zeta3:1,1,2", 3)]


@pytest.mark.parametrize("lo, hi", _LANE_WIDTHS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lane_index_matches_the_reference(lo, hi, data):
    # the lane build gives exactly the reference build's index, with its
    # lanes drawn in (lo, hi] bits; lookups agree with brute force, also on
    # targets that alias under the packing
    narrowest = lo == 0

    def lane_bits(a, values, peaks):
        # a sign bit, then the packed image (|image| <= radix^n // 2) and
        # the box index
        limits = [sum(abs(x) * m for x, m in zip(row, peaks)) for row in a]
        mid = (2 * max(limits, default=0) + 1) ** len(a) // 2
        n = len(values[0])
        return 1 + (mid << (n - 1).bit_length() | n - 1).bit_length()

    name, bound = data.draw(st.sampled_from(
        [box for box in _LANE_BOXES if narrowest or box[1]]
    ))
    values, lanes = _lane_box(name, bound)
    n = len(values[0])
    peaks = [max(abs(v) for v in vs) for vs in values]
    # entries only where a unit entry leaves room in the lanes
    room = [p for p, m in enumerate(peaks)
            if m and lane_bits(((0,) * p + (1,),), values, peaks) <= hi]
    assume(room or narrowest)
    rows = data.draw(st.integers(0 if narrowest else 1, 3)) if room else 0
    a = []
    for _ in range(rows):
        row = [0] * len(values)
        for p, x in data.draw(st.lists(st.tuples(
            st.sampled_from(room), st.integers(-3, 3),
        ), max_size=3)):
            row[p] = x
        a.append(row)
    if not narrowest:
        # one entry to grow: scale by powers of 2 until the lanes pass lo
        # bits; a step adds at most rows + 1 <= 4 bits, so they stop
        # inside a window of 8 or more
        a[0][data.draw(st.sampled_from(room))] = data.draw(
            st.sampled_from([-1, 1]))
        while lane_bits(a, values, peaks) <= lo:
            a = [[2 * x for x in row] for row in a]
    a = tuple(map(tuple, a))
    assume(lane_bits(a, values, peaks) <= hi)

    index = _image_index(lanes, peaks, a)
    assert index == image_index_reference(values, peaks, a)
    radix = index[1]

    images = [tuple(sum(x * values[p][idx] for p, x in enumerate(row) if x)
                    for row in a) for idx in range(n)]
    reached = images[data.draw(st.integers(0, n - 1))]
    targets = [
        reached,
        tuple(data.draw(st.integers(-radix, radix)) for _ in a),
    ]
    for j in range(len(a) - 1):  # radix at digit j == 1 at digit j + 1
        shifted = list(reached)
        shifted[j] += radix
        shifted[j + 1] -= 1
        targets.append(tuple(shifted))
    for target in targets:
        assert list(_survivors(index, target)) == [
            idx for idx, image in enumerate(images) if image == target
        ]


# rings for search nodes, with relations at every depth and weight
_NODE_RINGS = {
    1: lambda: [cp(1), cp(2), cp(3)],
    2: lambda: [hirzebruch(0), hirzebruch(1), hirzebruch(-2),
                trivial_tower(3, 1), trivial_tower(1, 3)] + [
        pres(f) for f in ("GB2:0", "GB2:1", "GB2:2", "Eta2:0,0", "Eta2:1,-2",
                          "Eta2:1,1", "M8:0,2", "M8:0,1", "N8:1")
    ],
    3: lambda: [pres(f) for f in ("Zeta3:1,0,2", "Zeta3:0,1,2",
                                  "Zeta3:1,1,-1", "Xi3:0,0,0")],
}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_node_survivors_match_substitution(g, bound, data):
    # a node's survivors, from its key's index and its target, are exactly
    # the box columns that substitution and normal_form say send source
    # relation `depth` to zero, for a random independent prefix; the oracle
    # uses no fold table
    rings = _NODE_RINGS[g]()
    pa = data.draw(st.sampled_from(rings))
    # a searchable pair: the target has the source's Poincare series
    pb = data.draw(st.sampled_from(
        [r for r in rings if r.poincare() == pa.poincare()]
    ))
    tables = _BoxPowers(pb, bound)
    walk = _ColumnWalk(pa, tables)
    depth = data.draw(st.integers(0, g - 1))
    prefix, wedge = [], {0: 1}
    for _ in range(depth):
        idx = data.draw(st.integers(0, len(tables.columns) - 1))
        wedge = _wedge(wedge, tables.columns[idx])
        assume(wedge)
        prefix.append(idx)
    key, target = walk.node_rows(depth, prefix)
    assert list(_survivors(tables.index(key), target)) == (
        node_survivors_by_substitution(pa, pb, bound, prefix)
    )


@pytest.mark.parametrize("a", [((1,),), ((-1,),), ((2,),), ((1,), (-1,))])
def test_lookup_stops_at_the_next_image(a):
    # 8 columns, so the last one (idx 7) sets every mask bit; a box has
    # (2B+1)^g columns, an odd count, so no box column does.  Under a =
    # ((1,),) column 7 has image -1, and its lane -1 << 3 | 7 = -1 sits
    # right below column 0's lane 0 << 3 | 0 = 0, the upper bound of image
    # -1: adjacent images, negative ones among them, split exactly there
    values = [[0, -3, -2, -1, -1, 2, -2, -1]]
    n = len(values[0])
    index = _image_index(_Lanes(values), [3], a)
    assert index == image_index_reference(values, [3], a)
    limits, _, shift, packed, _ = index
    assert shift == 3
    if a == ((1,),):
        assert packed[packed.index(-1) + 1] == 0

    def image(idx):
        return tuple(row[0] * values[0][idx] for row in a)

    reach = range(-limits[0] - 1, limits[0] + 2)
    for target in itertools.product(reach, repeat=len(a)):
        assert list(_survivors(index, target)) == [
            idx for idx in range(n) if image(idx) == target
        ]


def test_index_over_2401_columns_in_8_byte_lanes():
    # g = 4 at bound 3: 2,401 columns, shift 12; a two-row A whose lanes
    # need more than 32 bits, so they are 8 bytes wide.  Every image any
    # column reaches finds exactly its columns, and so do targets next to
    # them and past the limits
    tables = _BoxPowers(trivial_tower(1, 1, 1, 1), 3)
    values, n = tables.values, len(tables.columns)
    assert n == 2401
    peaks = [max(map(abs, v)) for v in values]
    width = len(values)
    a = (
        tuple([1, -2, 0, 3] + [7] * (width - 4)),
        tuple([0, 1, 1, 0] + [-5, 0, 3, 0, 0, 6][:width - 4]),
    )
    index = _image_index(tables.lanes, peaks, a)
    limits, radix, shift, _, _ = index
    assert shift == 12
    assert 32 < (radix ** 2 // 2 << shift | n - 1).bit_length() + 1 <= 64
    assert index == image_index_reference(values, peaks, a)
    columns = {}
    for idx in range(n):
        image = tuple(sum(x * values[p][idx] for p, x in enumerate(row))
                      for row in a)
        columns.setdefault(image, []).append(idx)
    targets = set(columns)
    for t0, t1 in list(columns):
        targets |= {(t0 + 1, t1), (t0 - 1, t1), (t0, t1 + 1), (t0, t1 - 1),
                    (t0 + radix, t1 - 1)}  # the last one aliases (t0, t1)
    targets |= {(limits[0] + 1, 0), (0, -limits[1] - 1)}
    for target in targets:
        assert list(_survivors(index, target)) == columns.get(target, [])


def _rank(cols):
    """Rank of the columns over Q, by Gaussian elimination."""
    vecs = [list(map(Fraction, c)) for c in cols]
    rank = 0
    for i in range(len(vecs[0])):
        pivot = next((v for v in vecs if v[i]), None)
        if pivot is not None:
            vecs.remove(pivot)
            vecs = [[x - v[i] / pivot[i] * y for x, y in zip(v, pivot)]
                    for v in vecs]
            rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_wedge_holds_every_maximal_minor(g, data):
    # after each placed column the wedge holds exactly the non-zero minors
    # (rows ascending, columns in placement order); it is empty exactly when
    # the columns are dependent; with g - 1 placed, cof . c = det M
    column = st.tuples(*[st.integers(-3, 3)] * g)
    full = (1 << g) - 1
    cols, w = [], {0: 1}
    for k in range(1, g + 1):
        if k == g:  # g - 1 columns placed
            cof = [(-1) ** (g - 1 - i) * w.get(full ^ 1 << i, 0)
                   for i in range(g)]
            for last in data.draw(st.lists(column, min_size=1, max_size=5)):
                det = matrix_det(list(zip(*cols, last)))
                assert sum(x * y for x, y in zip(cof, last)) == det
        kind = data.draw(st.sampled_from(["random", "zero", "repeat", "parallel"]))
        if kind == "zero":
            col = (0,) * g
        elif kind == "random" or not cols:
            col = data.draw(column)
        else:
            earlier = data.draw(st.sampled_from(cols))
            factor = 1 if kind == "repeat" else data.draw(st.integers(-3, 3))
            col = tuple(factor * x for x in earlier)
        cols.append(col)
        w = _wedge(w, col)
        assert all(s.bit_count() == k and m for s, m in w.items())
        for rows in itertools.combinations(range(g), k):
            minor = matrix_det([[c[r] for c in cols] for r in rows])
            assert w.get(sum(1 << r for r in rows), 0) == minor
        assert (not w) == (_rank(cols) < k)


def _is_index(key: tuple) -> bool:
    """An image index key starts with an int; a node key does not."""
    return isinstance(key[0], int)


def _counting_index(monkeypatch) -> list:
    """Count every image index build: the list grows by the folded matrix
    of each."""
    built, build = [], isosearch._image_index

    def counting(lanes, peaks, a):
        built.append(a)
        return build(lanes, peaks, a)

    monkeypatch.setattr(isosearch, "_image_index", counting)
    return built


def test_index_store_is_bounded(monkeypatch):
    # room for two indexes of a 27-column box beside the tables, shared
    # with interior nodes: the store fills and then keeps nothing more, and
    # searches still match the reference while later indexes are rebuilt
    # at each use
    built = _counting_index(monkeypatch)
    made = _watch_stores(monkeypatch)
    _box_powers.cache_clear()
    try:
        for a, b in (("Zeta3:1,0,2", "Zeta3:0,1,2"),
                     ("Zeta3:1,0,0", "Xi3:0,0,0")):
            pa, pb = pres(a), pres(b)
            monkeypatch.setattr(isosearch, "MAX_SEARCH_CELLS",
                                table_cells(pb, 1) + 2 * 27)
            built.clear()
            assert search_all(pa, pb, 1) == search_all_reference(pa, pb, 1)
            tables = _box_powers(pb, 1)  # the slot
            assert tables is made[-1] and tables.start == 2 * 27
            assert 1 <= sum(map(_is_index, tables.store)) <= 2
            assert 0 <= tables.room < 27 and tables.refused  # full
            assert len(built) > len(set(built))  # not kept, so rebuilt
    finally:
        _box_powers.cache_clear()


_THREE_STAGE = [str(f) for f in families_for_theorem("three-stage", 2)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_memo_shared_by_sources_keeps_every_list(data):
    # interior nodes walked for other sources of the target are read back
    # from its store: the list is the one fresh tables give
    b = data.draw(st.sampled_from(_THREE_STAGE), label="target")
    a = data.draw(st.sampled_from(_THREE_STAGE), label="source")
    others = data.draw(st.lists(st.sampled_from(_THREE_STAGE), min_size=1,
                                max_size=3), label="earlier sources")
    pa, pb = pres(a), pres(b)
    _box_powers.cache_clear()
    try:
        fresh = search_all(pa, pb, 3)
        _box_powers.cache_clear()
        for other in others:
            search_all(pres(other), pb, 3)
        store = _box_powers(pb, 3).store
        # every three-stage source has an interior level
        assert not all(map(_is_index, store))
        assert search_all(pa, pb, 3) == fresh
    finally:
        _box_powers.cache_clear()


def _watch_stores(monkeypatch) -> list:
    """Make every target's store check itself after each keep: a key is
    kept on a miss only, the cells kept never pass the room the tables
    left (``start``), ``room`` is what they leave of it, and every entry
    kept is still there, the same object, so none was dropped.  Entries
    that did not fit are listed in ``refused``.  Returns the tables made."""
    made = []

    class WatchedBoxPowers(isosearch._BoxPowers):
        def __init__(self, *args):
            super().__init__(*args)
            self.start, self.kept, self.refused = self.room, {}, []
            made.append(self)

        def keep(self, key, value, cells):
            store = self.store
            assert key not in store  # kept on a miss only
            assert super().keep(key, value, cells) is value
            if key in store:
                self.kept[key] = value, cells
            else:
                self.refused.append(key)
            used = sum(c for _, c in self.kept.values())
            assert used == self.start - self.room <= self.start
            assert all(store[k] is v for k, (v, _) in self.kept.items())
            assert len(store) == len(self.kept)
            return value

    monkeypatch.setattr(isosearch, "_BoxPowers", WatchedBoxPowers)
    return made


def test_memo_stays_within_the_budget_at_its_edge(monkeypatch):
    # room for two indexes of a 27-column box and 20 node cells beside the
    # tables: the store keeps entries while the room lasts, never holds
    # more than its room, never drops an entry it kept, and every list
    # still matches the reference
    made = _watch_stores(monkeypatch)
    pb = pres("Zeta3:0,1,2")
    monkeypatch.setattr(isosearch, "MAX_SEARCH_CELLS",
                        table_cells(pb, 1) + 2 * 27 + 20)
    _box_powers.cache_clear()
    reference = cache(lambda a: search_all_reference(pres(a), pb, 1))
    try:
        for a in ("Zeta3:1,0,2", "Zeta3:0,1,2", "Xi3:0,1,2", "Zeta3:1,0,2",
                  "Zeta3:0,1,2"):
            assert search_all(pres(a), pb, 1) == reference(a)
        assert len(made) == 1 and made[0].start == 2 * 27 + 20
        assert made[0].refused  # the room ran out
        # both kinds of entry were kept
        assert len(set(map(_is_index, made[0].kept))) == 2
    finally:
        _box_powers.cache_clear()


def test_store_fills_within_the_real_budget(monkeypatch):
    # 5-generator Bott towers at bound 3: 7^5 = 16,807 columns, so two
    # indexes fill most of the room the tables leave, and the store has no
    # room for a third under the unpatched budget.  The verdict and the
    # folded matrices indexed are those of a budget the store never fills;
    # the smaller room only rebuilds indexes it could not keep
    built = _counting_index(monkeypatch)
    made = _watch_stores(monkeypatch)
    pa, pb = bott(1, 1, 1, 1), bott(1, 2, 1, 1)
    assert table_cells(pb, 3) + 3 * 7 ** 5 > MAX_SEARCH_CELLS
    runs = []
    _box_powers.cache_clear()
    try:
        for cells in (MAX_SEARCH_CELLS, 10 * MAX_SEARCH_CELLS):
            monkeypatch.setattr(isosearch, "MAX_SEARCH_CELLS", cells)
            _box_powers.cache_clear()
            built.clear()
            runs.append((search(pa, pb, 3), sorted(set(built)), len(built),
                         len(made[-1].refused)))
    finally:
        _box_powers.cache_clear()
    (verdict, indexed, builds, refused), raised = runs
    assert verdict.reason == "exhausted"
    assert raised == (verdict, indexed, len(indexed), 0)
    assert (len(indexed), builds) == (43, 51) and refused


def test_search_frees_its_tables_on_return():
    # no reference cycle keeps a walk alive until a GC pass; only the
    # one-slot cache keeps tables, those of the latest target
    gc.collect()
    gc.disable()
    try:
        assert search(pres("Zeta3:1,0,2"), pres("Zeta3:0,1,2"), 2).found
        assert search_all(pres("GB2:1"), pres("GB2:2"), 1)
        walks = sum(isinstance(o, _ColumnWalk) for o in gc.get_objects())
        tables = sum(isinstance(o, _BoxPowers) for o in gc.get_objects())
        _box_powers.cache_clear()
        left = sum(isinstance(o, _BoxPowers) for o in gc.get_objects())
    finally:
        gc.enable()
    assert (walks, tables, left) == (0, 1, 0)


def test_box_powers_slot_is_keyed_by_target_and_bound():
    b1, b2 = hirzebruch(0), hirzebruch(2)
    _box_powers.cache_clear()
    first = _box_powers(b1, 2)
    assert _box_powers(hirzebruch(0), 2) is first  # equal by content
    for key in ((b2, 2), (b1, 1)):
        other = _box_powers(*key)
        assert other is not first
        fresh = _BoxPowers(*key)
        assert (other.columns, other.bases, other.values) == (
            fresh.columns, fresh.bases, fresh.values
        )
        assert _box_powers(b1, 2) is not first  # the slot holds one key
        first = _box_powers(b1, 2)
    _box_powers.cache_clear()


def _caps_ring(caps):
    """Z[x_1..x_g]/(x_k^(cap_k + 1)): a ring with the given caps."""
    g = len(caps)
    return RingPresentation(caps, [
        Poly.monomial(g, [cap + 1 if i == k else 0 for i in range(g)])
        for k, cap in enumerate(caps)
    ])


caps_tuples = st.lists(st.integers(1, 7), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(caps_tuples, caps_tuples, st.randoms(use_true_random=False))
# equal rank and top degree: prod(cap + 1) = 72, sum(caps) = 11
@example([1, 5, 5], [2, 2, 7], random.Random(0))
def test_equal_series_mean_equal_caps(caps_a, other, rng):
    # the search tables are keyed on (target, bound) alone: a search reaches
    # them only when the Poincare series agree, which makes the caps of
    # source and target the same multiset, and relation k of a searchable
    # presentation (homogeneous, leading with x_k^(cap_k + 1)) holds no
    # exponent above max(caps) + 1
    shuffled = list(caps_a)
    rng.shuffle(shuffled)
    for caps_b in (shuffled, other):
        assert (_caps_ring(caps_a).poincare() == _caps_ring(caps_b).poincare()
                ) == (sorted(caps_a) == sorted(caps_b))
    ids = {f for t in THEOREMS for f in families_for_theorem(t, 4)}
    for fid in ids:
        ring = presentation_of(fid)
        top = max(e for rel in ring.relations for m in rel.terms for e in m)
        assert top == max(ring.caps) + 1, fid


def test_interleaved_searches_match_reference():
    # consecutive searches change the target, the bound, the source only,
    # then the bound again
    a, b1, b2 = hirzebruch(1), hirzebruch(3), hirzebruch(-1)
    _box_powers.cache_clear()
    for src, dst, bound in (
        (a, b1, 2), (a, b2, 2), (a, b1, 1), (hirzebruch(0), b1, 1),
        (a, b1, 2),
    ):
        assert search_all(src, dst, bound) == search_all_reference(
            src, dst, bound
        )
    assert _box_powers.cache_info().hits == 1  # the source change only
    _box_powers.cache_clear()


def test_search_refuses_an_oversized_box():
    a = pres("Zeta3:1,0,2")
    assert 201 ** 3 * 3 > MAX_SEARCH_CELLS
    for run in (search, search_all, search_all_reference):
        with pytest.raises(ValueError, match="box of 8120601 columns"):
            run(a, a, 100)


def test_search_needs_homogeneous_relations():
    # x^2 + y leads with x^2 in the degree-first order, so it is a legal
    # relation, but the quotient is not graded
    lopsided = RingPresentation(
        (1, 1), (Poly(2, {(2, 0): 1, (0, 1): 1}), Poly(2, {(0, 2): 1}))
    )
    with pytest.raises(IsoShapeError, match="homogeneous"):
        search(lopsided, trivial_tower(1, 1), 1)


def test_enumeration_order_is_column_major_lex():
    # first certificate == first element of the full list
    pa, pb = hirzebruch(0), hirzebruch(2)
    v = search(pa, pb, 1)
    assert v.matrix == search_all(pa, pb, 1)[0]


def test_search_symmetry_for_two_generators():
    # a 2x2 unimodular inverse has the same entries up to sign and
    # position, so found-ness is symmetric at the same bound
    pairs = [("GB2:1", "GB2:2"), ("GB2:0", "Eta2:0,0"), ("Eta2:0,2", "Eta2:0,-2")]
    for a, b in pairs:
        assert search(pres(a), pres(b), 2).found == search(pres(b), pres(a), 2).found


def test_search_all_is_closed_under_negation():
    # -M is a certificate with M (|det| kept, each homogeneous relation's
    # image only changes sign), and negation reverses the contract order,
    # in which every column whose first non-zero entry is negative comes
    # before every column whose first non-zero entry is positive: so the
    # list is H, then the negations of H reversed
    def negative(col):
        return next(x for x in col if x) < 0

    pairs = certificates = 0
    for theorem, n in (("three-stage", 1), ("eight-dim", 2)):
        rings = [presentation_of(fid)
                 for fid in families_for_theorem(theorem, n)]
        for a, b in itertools.product(rings, repeat=2):
            if a.poincare() != b.poincare():
                continue
            pairs += 1
            found = search_all(a, b, 2)
            certificates += len(found)
            head = [m for m in found if negative([row[0] for row in m])]
            assert found == head + [
                tuple(tuple(-x for x in row) for row in m)
                for m in reversed(head)
            ]
    assert (pairs, certificates) == (346, 308)


def test_search_monotone_in_bound():
    for a, b in [("Eta2:1,2", "Eta2:1,2"), ("Eta2:0,3", "Eta2:0,-3")]:
        lo = search(pres(a), pres(b), 1)
        hi = search(pres(a), pres(b), 3)
        if lo.found:
            assert hi.found


# -- inverse / composition --------------------------------------------------


def test_invert_unimodular_fixtures():
    m = ((1, -1), (0, -1))
    assert invert_unimodular(m) == m  # an involution
    assert invert_unimodular(((1, 1), (0, 1))) == ((1, -1), (0, 1))
    assert invert_unimodular(((-1,),)) == ((-1,),)
    with pytest.raises(ValueError, match="determinant"):
        invert_unimodular(((2, 0), (0, 1)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["shear01", "shear10", "swap", "neg0"]), max_size=8))
def test_invert_unimodular_random_products(ops):
    m = [[1, 0], [0, 1]]
    gens = {
        "shear01": ((1, 1), (0, 1)),
        "shear10": ((1, 0), (1, 1)),
        "swap": ((0, 1), (1, 0)),
        "neg0": ((-1, 0), (0, 1)),
    }
    for op in ops:
        g = gens[op]
        m = [
            [sum(m[i][k] * g[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
    m = tuple(tuple(r) for r in m)
    inv = invert_unimodular(m)
    prod = tuple(
        tuple(sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    assert prod == ((1, 0), (0, 1))


def test_inverse_certificate_verifies():
    a, b = pres("Zeta3:1,1,2"), pres("Zeta3:1,1,-1")
    v = search(a, b, 2)
    assert v.found
    assert verify(b, a, invert_unimodular(v.matrix))


def test_compose_certificates():
    a, b, c = pres("Zeta3:1,1,0"), pres("Zeta3:1,1,1"), pres("Zeta3:1,1,0")
    m_ab = search(a, b, 2).matrix
    m_bc = search(b, c, 2).matrix
    m_ac = compose(m_ab, m_bc)
    assert verify(a, c, m_ac)


@pytest.mark.parametrize("m_ab, m_bc", [
    (((1, 0), (0, 1)), ((1, 2, 3), (4, 5, 6), (7, 8, 9))),
    (((1, 2, 3), (4, 5, 6), (7, 8, 9)), ((1, 0), (0, 1))),
    (((1, 0), (0, 1)), ((1, 0), (0,))),
])
def test_compose_refuses_mismatched_shapes(m_ab, m_bc):
    with pytest.raises(IsoShapeError, match="expected a [23]x[23] matrix"):
        compose(m_ab, m_bc)


def test_compose_is_matrix_product_in_application_order():
    # compose(f, g) applies f then g
    f = ((1, 1), (0, 1))
    g = ((0, 1), (1, 0))
    assert compose(f, g) == tuple(
        tuple(sum(g[i][k] * f[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
