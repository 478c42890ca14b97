"""Family catalog: ids, canonical lists, recorded coincidences, sweeps."""

import hashlib
import json
import os
import weakref
from collections import Counter

import pytest

from cptower import (
    FamilyId,
    Poly,
    build,
    canonical_families,
    coincidence_fixtures,
    families_for_theorem,
    pi6_distinguish,
    pi6_record,
    presentation,
    presentation_of,
    search,
    stage_bundle,
    sweep_distinctness,
    verify,
)
from cptower import catalog, isosearch
from cptower.catalog import (
    THEOREMS,
    _cache_key,
    _cached_search,
    _plan_rows,
    cp_spec,
)
from cptower.cli import resolve_ring_arg
from cptower.towers import (
    MAX_FIBER_DIM, RingPresentation, matrix_det, towerspec_to_json,
)
from conftest import (
    TAMPERED_CACHE_ENTRIES, cache_entry_path, fam, pres, tampered,
)


# -- family ids -------------------------------------------------------------


@pytest.mark.parametrize(
    "text", ["CP3", "GB2:1", "Eta2:0,-3", "Zeta3:1,0,2", "Xi3:0,1,-4", "M8:1,3", "N8:-2"]
)
def test_family_id_round_trip(text):
    assert str(FamilyId.parse(text)) == text


def test_family_id_parse_strips_whitespace():
    assert FamilyId.parse("  GB2:1 ") == fam("GB2:1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("Bogus", "unknown family tag 'Bogus'"),
        ("CP3:1", "family CP3 takes 0 parameter"),
        ("Eta2:1", "family Eta2 takes 2 parameter"),
        ("GB2:1,2", "family GB2 takes 1 parameter"),
        ("Zeta3:1,2", r"^family Zeta3 takes 3 parameter\(s\), got 2$"),
        ("Eta2:1,x", "malformed family id 'Eta2:1,x'"),
        ("Eta2:1,,2", "malformed family id"),
        ("GB2:1_0", "malformed family id 'GB2:1_0'"),
        ("GB2:+1", "malformed family id"),
        ("Eta2:1, 2", "malformed family id"),
        ("GB2:\u0663", "malformed family id"),  # ARABIC-INDIC DIGIT THREE
    ],
)
def test_family_id_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        FamilyId.parse(text)


# -- presentations ----------------------------------------------------------


@pytest.mark.parametrize(
    "text, caps, relations",
    [
        ("CP3", (3,), [{(4,): 1}]),
        ("GB2:0", (1, 2), [{(2, 0): 1}, {(0, 3): 1}]),
        ("GB2:2", (1, 2), [{(2, 0): 1}, {(0, 3): 1, (1, 2): 2}]),
        ("Eta2:0,3", (2, 1), [{(3, 0): 1}, {(0, 2): 1, (2, 0): 3}]),
        ("Eta2:1,-2", (2, 1), [{(3, 0): 1}, {(0, 2): 1, (1, 1): 1, (2, 0): -2}]),
        (
            "Zeta3:1,1,2",
            (1, 1, 1),
            [
                {(2, 0, 0): 1},
                {(0, 2, 0): 1},
                {(0, 0, 2): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 0): 2},
            ],
        ),
        (
            "Xi3:0,1,-1",
            (1, 1, 1),
            [
                {(2, 0, 0): 1},
                {(0, 2, 0): 1, (1, 1, 0): 1},
                {(0, 0, 2): 1, (0, 1, 1): 1, (1, 1, 0): -1},
            ],
        ),
        ("M8:0,2", (3, 1), [{(4, 0): 1}, {(0, 2): 1, (2, 0): 2}]),
        ("M8:1,2", (3, 1), [{(4, 0): 1}, {(0, 2): 1, (2, 0): 2}]),
        ("N8:2", (3, 1), [{(4, 0): 1}, {(0, 2): 1, (1, 1): 1, (2, 0): 2}]),
    ],
)
def test_family_presentations(text, caps, relations):
    p = pres(text)
    assert p.caps == caps
    assert list(p.relations) == [Poly(len(caps), t) for t in relations]


def test_presentation_of_is_cached():
    assert presentation_of(fam("Eta2:0,3")) is presentation_of(fam("Eta2:0,3"))


def test_m8_alpha_does_not_touch_the_ring():
    assert presentation_of(fam("M8:0,2")) == presentation_of(fam("M8:1,2"))
    assert build(fam("M8:0,2")) == build(fam("M8:1,2"))


def test_catalog_towers_are_pinned():
    # every tower a theorem list at range 2 or a recorded coincidence
    # names, stage by stage, byte for byte
    ids = [f for t in THEOREMS for f in families_for_theorem(t, 2)]
    ids += [f for a, b, _ in coincidence_fixtures() for f in (a, b)]
    ids = list(dict.fromkeys(ids))
    text = json.dumps([[str(f), towerspec_to_json(build(f))] for f in ids])
    assert len(ids) == 57
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "a881046706e3152a00bb8a1dfd357057307dcff4f033d7af9f475d87340c0dcf"
    )


def test_cp_spec_limit():
    assert cp_spec(MAX_FIBER_DIM).stages[0].fiber_dim == MAX_FIBER_DIM
    with pytest.raises(ValueError, match="above the limit of CP1000"):
        cp_spec(MAX_FIBER_DIM + 1)


def test_stage_bundle():
    xi = stage_bundle(fam("M8:1,2"))
    assert xi.rank == 2
    assert xi.alpha == 1
    assert xi.chern == (Poly.zero(1), Poly(1, {(2,): 2}))
    eta = stage_bundle(fam("N8:2"))
    assert eta.alpha == 0
    assert eta.chern == (Poly.variable(1, 0), Poly(1, {(2,): 2}))
    gb = stage_bundle(fam("GB2:1"))
    assert gb.rank == 3 and gb.alpha is None
    with pytest.raises(ValueError, match="single-stage"):
        stage_bundle(fam("CP3"))


# -- canonical lists --------------------------------------------------------


def test_canonical_families_count_and_shape():
    fams = canonical_families(4)
    ids = [str(f) for f in fams]
    assert len(ids) == 53
    assert len(set(ids)) == 53
    assert ids[0] == "CP3"
    assert "GB2:0" in ids and "GB2:2" in ids
    assert "Eta2:0,0" not in ids  # recorded as the GB2:0 overlap instead
    assert "Eta2:1,0" in ids
    assert "Zeta3:0,0,0" in ids and "Zeta3:0,0,-1" not in ids
    assert "Zeta3:1,1,0" not in ids and "Zeta3:1,1,1" in ids
    assert "Xi3:0,0,0" not in ids and "Xi3:0,0,1" in ids
    assert "Xi3:0,1,-4" in ids and "Xi3:1,1,1" not in ids


def test_families_for_theorem_lists():
    assert families_for_theorem("main", 4) == canonical_families(4)
    two = [str(f) for f in families_for_theorem("two-stage", 2)]
    assert two == [
        "GB2:0", "GB2:1", "GB2:2",
        "Eta2:0,-2", "Eta2:0,-1", "Eta2:0,1", "Eta2:0,2",
        "Eta2:1,-2", "Eta2:1,-1", "Eta2:1,0", "Eta2:1,1", "Eta2:1,2",
    ]
    eight = [str(f) for f in families_for_theorem("eight-dim", 1)]
    assert eight == [
        "M8:0,-1", "M8:0,0", "M8:0,1",
        "M8:1,-1", "M8:1,0", "M8:1,1",
        "N8:-1", "N8:0", "N8:1",
    ]
    three = [str(f) for f in families_for_theorem("three-stage", 0)]
    assert three == ["Zeta3:0,0,0", "Zeta3:1,0,0", "Xi3:1,0,0", "Xi3:0,1,0"]


def test_range_limit(monkeypatch):
    monkeypatch.setattr(catalog, "MAX_RANGE", 2)
    assert families_for_theorem("eight-dim", 2)
    for theorem in THEOREMS:
        with pytest.raises(ValueError, match="range 3 is above the limit of 2"):
            families_for_theorem(theorem, 3)
    with pytest.raises(ValueError, match="range 3 is above the limit of 2"):
        canonical_families(3)


@pytest.mark.parametrize("theorem, n", [("main", 1), ("three-stage", 0),
                                        ("eight-dim", 1)])
def test_sweep_row_limit_counts_every_planned_row(monkeypatch, theorem, n):
    rows = len(_plan_rows(theorem, n))
    monkeypatch.setattr(catalog, "MAX_SWEEP_ROWS", rows)
    assert len(_plan_rows(theorem, n)) == rows
    monkeypatch.setattr(catalog, "MAX_SWEEP_ROWS", rows - 1)
    with pytest.raises(ValueError, match=f"has {rows} rows, above the limit"):
        sweep_distinctness(theorem, n, 1)


def test_families_for_theorem_validation():
    with pytest.raises(ValueError, match="unknown theorem"):
        families_for_theorem("all", 4)
    for theorem in THEOREMS:
        with pytest.raises(ValueError, match="range must be non-negative"):
            families_for_theorem(theorem, -1)
    assert THEOREMS == ("main", "two-stage", "three-stage", "eight-dim")


# -- recorded coincidences --------------------------------------------------


def test_coincidence_fixtures_all_verify():
    fixtures = coincidence_fixtures()
    assert len(fixtures) == 12
    for a, b, matrix in fixtures:
        assert verify(presentation_of(a), presentation_of(b), matrix), (a, b)


def test_coincidence_fixtures_found_by_search():
    for a, b, _matrix in coincidence_fixtures():
        v = search(presentation_of(a), presentation_of(b), 2)
        assert v.found, (a, b)


# -- recorded pi6 data ------------------------------------------------------


@pytest.mark.parametrize(
    "alpha, u, ok, t, pi6",
    [
        (0, 0, True, 0, "Z12"),
        (1, 0, True, 0, "Z6"),
        (0, 3, True, 1, "Z6"),
        (1, 3, True, 1, "Z12"),
        (0, -1, True, 0, "Z12"),
        (1, -1, True, 0, "Z6"),
        (0, -4, True, 1, "Z6"),
        (1, -4, True, 1, "Z12"),
        (0, 1, False, None, "unknown"),
        (1, 2, False, None, "unknown"),
        (0, -2, False, None, "unknown"),
        (1, -3, False, None, "unknown"),
    ],
)
def test_pi6_record_table(alpha, u, ok, t, pi6):
    rec = pi6_record(fam(f"M8:{alpha},{u}"))
    assert rec.divisibility_ok is ok
    assert rec.t == t
    assert rec.pi6 == pi6


def test_pi6_record_json():
    rec = pi6_record(fam("M8:0,3"))
    assert rec.to_json() == {
        "family": "M8:0,3",
        "divisibility_ok": True,
        "t": "1",
        "pi6": "Z6",
    }
    assert pi6_record(fam("M8:0,1")).to_json()["t"] is None


def test_pi6_record_requires_m8():
    with pytest.raises(ValueError):
        pi6_record(fam("N8:0"))


@pytest.mark.parametrize(
    "a, b, result",
    [
        ("M8:0,0", "M8:1,0", "distinct"),
        ("M8:0,3", "M8:1,3", "distinct"),
        ("M8:0,0", "M8:0,0", "same_ring"),
        ("M8:0,1", "M8:1,1", "unknown"),
    ],
)
def test_pi6_distinguish(a, b, result):
    v = pi6_distinguish(fam(a), fam(b))
    assert v.result == result


def test_pi6_distinguish_requires_matching_u():
    with pytest.raises(ValueError, match="equal u parameters"):
        pi6_distinguish(fam("M8:0,0"), fam("M8:0,1"))


# -- sweeps -----------------------------------------------------------------


def test_three_stage_sweep_minimal():
    report = sweep_distinctness("three-stage", 0, 2)
    assert report["summary"] == {"pairs": "11", "failures": "0", "flagged": "1"}
    rows = report["rows"]
    assert all(row["pass"] for row in rows)
    claim = [r for r in rows if r.get("flag") == "conflicting-claims"]
    assert len(claim) == 1
    assert claim[0]["a"] == "Zeta3:1,0,0" and claim[0]["b"] == "Xi3:0,0,0"
    assert claim[0]["expected"] == "coincident"
    assert claim[0]["note"] == "recorded-claim-pair: certificate exists"
    assert claim[0]["verdict"]["result"] == "found"


def test_three_stage_sweep_carries_both_recorded_claims():
    report = sweep_distinctness("three-stage", 1, 2)
    claims = [r for r in report["rows"] if r.get("flag") == "conflicting-claims"]
    assert [(r["a"], r["b"], r["expected"]) for r in claims] == [
        ("Zeta3:1,0,0", "Xi3:0,0,0", "coincident"),
        ("Zeta3:0,0,1", "Xi3:0,0,0", "distinct"),
    ]
    assert claims[1]["note"] == "recorded-claim-pair: no certificate within bound"
    assert claims[1]["verdict"]["result"] == "none_within_bound"
    assert report["summary"]["failures"] == "0"


def test_two_stage_sweep_flags_the_overcounted_pair():
    report = sweep_distinctness("two-stage", 2, 1)
    assert report["summary"]["failures"] == "0"
    over = [r for r in report["rows"] if r.get("flag") == "catalog-overcount"]
    assert [(r["a"], r["b"]) for r in over] == [("GB2:1", "GB2:2")]
    assert over[0]["expected"] == "coincident"
    assert over[0]["verdict"]["result"] == "found"


def test_eight_dim_sweep_reports_non_rigidity():
    report = sweep_distinctness("eight-dim", 1, 2)
    assert report["summary"] == {"pairs": "45", "failures": "0", "flagged": "3"}
    nr = [r for r in report["rows"] if r.get("flag") == "non-rigidity"]
    assert [(r["a"], r["b"]) for r in nr] == [
        ("M8:0,-1", "M8:1,-1"),
        ("M8:0,0", "M8:1,0"),
        ("M8:0,1", "M8:1,1"),
    ]
    for row in nr:
        assert row["note"] == "identical_presentations"
        assert row["expected"] == "coincident"
        assert row["verdict"]["result"] == "found"
    assert nr[0]["pi6"]["verdict"] == "distinct"
    assert nr[0]["pi6"]["a"]["pi6"] == "Z12"
    assert nr[0]["pi6"]["b"]["pi6"] == "Z6"
    assert nr[1]["pi6"]["verdict"] == "distinct"
    assert nr[2]["pi6"]["verdict"] == "unknown"


def test_sweep_betti_mismatch_rows():
    report = sweep_distinctness("main", 0, 1)
    by_pair = {(r["a"], r["b"]): r for r in report["rows"]}
    row = by_pair[("CP3", "GB2:0")]
    assert row["expected"] == "distinct"
    assert row["verdict"]["reason"] == "betti_mismatch"
    assert row["pass"]


def test_sweep_builds_each_target_table_once(monkeypatch):
    built = Counter()

    class CountingBoxPowers(isosearch._BoxPowers):
        def __init__(self, pres_b, bound):
            built[pres_b] += 1
            super().__init__(pres_b, bound)

    monkeypatch.setattr(isosearch, "_BoxPowers", CountingBoxPowers)
    isosearch._box_powers.cache_clear()
    try:
        report = sweep_distinctness("eight-dim", 2, 2)
    finally:
        isosearch._box_powers.cache_clear()
    assert report["summary"]["failures"] == "0"
    targets = {presentation_of(f) for f in families_for_theorem("eight-dim", 2)}
    assert len(targets) == 10  # M8 ids differing only in alpha share one
    assert built == Counter(dict.fromkeys(targets, 1))


def test_sweep_derives_source_data_once_per_presentation(monkeypatch):
    # a source's relation splits are made once per distinct presentation
    # (M8 ids differing only in alpha share one), and each family id's
    # presentation, which derives its relations' weights, is built once,
    # however many rows search it
    splits = []
    built = Counter()
    split, init = isosearch._split_relation, RingPresentation.__init__

    def counting_split(rel, depth):
        splits.append(depth)
        return split(rel, depth)

    def counting_init(self, caps, relations):
        init(self, caps, relations)
        built[self.identity] += 1

    monkeypatch.setattr(isosearch, "_split_relation", counting_split)
    monkeypatch.setattr(RingPresentation, "__init__", counting_init)
    monkeypatch.setattr(isosearch, "_splits", weakref.WeakKeyDictionary())
    presentation_of.cache_clear()  # rebuilt, so their builds are counted
    try:
        report = sweep_distinctness("eight-dim", 2, 2)
        plan = _plan_rows("eight-dim", 2)
        ids = {f for row in plan for f in row[:2]}
        sources = {presentation_of(a) for a, *_ in plan}
        per_id = Counter(presentation_of(f).identity for f in ids)
    finally:
        presentation_of.cache_clear()
    assert report["summary"]["failures"] == "0"
    assert len(plan) == 120 and len(sources) == 10
    assert sorted(splits) == sorted([0, 1] * len(sources))
    # one presentation per family id
    assert len(ids) == 15 and built == per_id


def test_three_stage_sweep_plans_each_source_once(monkeypatch):
    # every three-stage source has three relations: a r2 b3 sweep splits
    # each once per distinct source presentation, however many rows (173)
    # search it
    splits = []
    split = isosearch._split_relation

    def counting_split(rel, depth):
        splits.append(depth)
        return split(rel, depth)

    monkeypatch.setattr(isosearch, "_split_relation", counting_split)
    monkeypatch.setattr(isosearch, "_splits", weakref.WeakKeyDictionary())
    report = sweep_distinctness("three-stage", 2, 3)
    sources = {presentation_of(a) for a, *_ in _plan_rows("three-stage", 2)}
    assert report["summary"]["failures"] == "0" and len(sources) == 18
    assert sorted(splits) == sorted([0, 1, 2] * len(sources))


@pytest.mark.parametrize("theorem, n, pairs", [
    ("eight-dim", 2, 100), ("three-stage", 1, 121),
])
def test_walk_plan_ranks_are_the_target_dims(theorem, n, pairs):
    # a source's plan takes its ranks from its own Poincare series, which
    # every pair admit accepts shares with the target, so they are the
    # target tables' dims; its terms keep only non-zero exponents, each
    # of a generator below the relation's depth
    sources = list(dict.fromkeys(
        presentation_of(f) for f in families_for_theorem(theorem, n)
    ))
    admitted = 0
    for pa in sources:
        plan = isosearch._relation_splits(pa)
        for pb in sources:
            if not isosearch.admit(pa, pb, 2):
                continue
            admitted += 1
            dims = isosearch._BoxPowers(pb, 2).dims
            assert [rank for rank, _ in plan] == [dims[w] for w in pa.weights]
        for k, (w, (_, parts)) in enumerate(zip(pa.weights, plan)):
            for terms, fold in parts:
                assert fold is None or sum(fold) == w and fold[1] > 0
                assert all(0 <= i < k and x > 0
                           for _, exps in terms for i, x in exps)
    assert admitted == pairs


@pytest.mark.parametrize("theorem, n, digest", [
    ("main", 2,
     "f82d1cffcff6c85789ebe0c693ca9f56e5685ad562ae808de67b15731868a120"),
    ("two-stage", 3,
     "6ac5fb9858f2bef3e66a8a41f0f15e32bd90f196a14b7c49366927d19ce4b711"),
    ("eight-dim", 8,
     "68578339e5200baa0196c69eed3a4cba8603e75ea804404769e47027600eec22"),
])
def test_sweep_report_is_pinned(theorem, n, digest):
    # the rows and summary of a bound-3 sweep are pinned byte for byte,
    # key order included: a change to the engine must reproduce them
    report = sweep_distinctness(theorem, n, 3)
    text = json.dumps({"rows": report["rows"], "summary": report["summary"]})
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_sweep_builds_each_image_index_once(monkeypatch):
    # per target, every folded matrix A met by the walk gets its index built
    # once and kept in the store, which never drops an entry; later nodes
    # with the same A only look it up (each node_rows call is followed by
    # one lookup)
    tables = []
    built = Counter()
    lookups = []

    class KeptBoxPowers(isosearch._BoxPowers):
        def __init__(self, *args):
            tables.append(self)  # kept alive to read the stores after
            super().__init__(*args)
            self.start = self.room

    def counting_index(lanes, peaks, a):
        built[id(lanes), a] += 1
        return build(lanes, peaks, a)

    def counting_rows(self, rel, cols):
        lookups.append(len(cols))
        return node_rows(self, rel, cols)

    build = isosearch._image_index
    node_rows = isosearch._BoxPowers.node_rows
    monkeypatch.setattr(isosearch, "_BoxPowers", KeptBoxPowers)
    monkeypatch.setattr(isosearch, "_image_index", counting_index)
    monkeypatch.setattr(isosearch._BoxPowers, "node_rows", counting_rows)
    isosearch._box_powers.cache_clear()
    try:
        report = sweep_distinctness("eight-dim", 2, 2)
    finally:
        isosearch._box_powers.cache_clear()
    assert report["summary"]["failures"] == "0"
    assert len(tables) == 10
    assert set(built.values()) == {1}
    # g = 2 has no interior level, so the stores hold indexes only, one per
    # build, and the room each spent is theirs: every index was kept
    width = len(tables[0].columns)
    assert sum(len(t.store) for t in tables) == len(built)
    assert all(t.start - t.room == width * len(t.store) for t in tables)
    assert len(lookups) - len(built) > len(built)  # hits outnumber builds


@pytest.mark.parametrize("shared, nodes, wedges", [
    (True, 262, 4_582),
    # every search walks its interior level again; 114 more wedges than
    # the lazy walk without a store took (16,770), as a stored list holds
    # every child, also past a search's first certificate
    (False, 1_433, 16_884),
])
def test_sweep_shares_interior_nodes_across_sources(
    monkeypatch, shared, nodes, wedges
):
    # three-stage sources share relation 0 = x_0^2 and two forms of
    # relation 1: a target's store walks each depth-1 node once per form,
    # whichever source meets it first, and the report stays byte for byte.
    # Either way each target builds its indexes once: 438 in the sweep
    rows, wedge_calls, built = Counter(), [], []
    node_rows, wedge = isosearch._BoxPowers.node_rows, isosearch._wedge
    build = isosearch._image_index

    def counting_rows(self, rel, cols):
        rows[len(cols)] += 1
        return node_rows(self, rel, cols)

    def counting_wedge(w, col):
        wedge_calls.append(1)
        return wedge(w, col)

    def counting_index(lanes, peaks, a):
        built.append((lanes, a))  # the lanes kept alive keep ids apart
        return build(lanes, peaks, a)

    monkeypatch.setattr(isosearch._BoxPowers, "node_rows", counting_rows)
    monkeypatch.setattr(isosearch, "_wedge", counting_wedge)
    monkeypatch.setattr(isosearch, "_image_index", counting_index)
    if not shared:
        # node lists above the whole room are used but never kept, while
        # the indexes are kept as before
        monkeypatch.setattr(isosearch, "_children_cells",
                            lambda children: isosearch.MAX_SEARCH_CELLS + 1)
    isosearch._box_powers.cache_clear()
    try:
        report = sweep_distinctness("three-stage", 2, 3)
    finally:
        isosearch._box_powers.cache_clear()
    text = json.dumps({"rows": report["rows"], "summary": report["summary"]})
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "edfbf42feb20a02030788dba7dde0a07ddadddfa57c86b325736bafc12f8c883"
    )
    assert (rows[1], len(wedge_calls)) == (nodes, wedges)
    assert (rows[0], rows[2]) == (173, 6_354)  # root and last level unshared
    assert len(built) == len(set(built)) == 438


def test_sweep_refuses_above_the_budget_before_any_row(monkeypatch):
    # the largest three-stage target holds 2,066 table cells at bound 3:
    # one cell less refuses the sweep up front, before any row is searched
    def refuse(*args):
        raise AssertionError("a refused sweep searched a row")

    monkeypatch.setattr(isosearch, "MAX_SEARCH_CELLS", 2_065)
    monkeypatch.setattr(catalog, "search", refuse)
    with pytest.raises(ValueError, match="with 3 generators gives a box of "
                       "343 columns and tables of at least 2066 cells, "
                       "above the limit of 2065"):
        sweep_distinctness("three-stage", 2, 3)


@pytest.mark.parametrize("theorem, flag, keys", [
    ("eight-dim", "non-rigidity",
     ["a", "b", "expected", "verdict", "pass", "flag", "note", "pi6"]),
    ("three-stage", "conflicting-claims",
     ["a", "b", "expected", "verdict", "pass", "flag", "note"]),
])
def test_sweep_row_key_order(theorem, flag, keys):
    # reports are printed without sort_keys, so the key order is output
    rows = sweep_distinctness(theorem, 1, 2)["rows"]
    flagged = [row for row in rows if row.get("flag") == flag]
    assert flagged and all(list(row) == keys for row in flagged)
    plain = next(row for row in rows if "flag" not in row)
    assert list(plain) == ["a", "b", "expected", "verdict", "pass"]


def test_sweep_validation():
    with pytest.raises(ValueError, match="unknown theorem"):
        sweep_distinctness("everything", 1, 2)
    with pytest.raises(ValueError, match="non-negative"):
        sweep_distinctness("main", -1, 2)
    with pytest.raises(ValueError, match="at least 1"):
        sweep_distinctness("main", 1, 0)
    # refused up front: 201^3 columns for the 3-generator families
    with pytest.raises(ValueError, match="box of 8120601 columns"):
        sweep_distinctness("three-stage", 0, 100)


# -- verdict cache ----------------------------------------------------------


def test_cached_search_round_trip(tmp_path):
    a, b = pres("Eta2:0,2"), pres("Eta2:0,2")
    first = _cached_search(a, b, 2, str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    second = _cached_search(a, b, 2, str(tmp_path))
    assert second.to_json() == first.to_json()
    assert first.found


@pytest.mark.parametrize("a, b, bound", [
    ("GB2:1", "GB2:2", 1),          # a certificate
    ("Eta2:0,2", "Eta2:0,-2", 2),   # bounded exhaustion
])
def test_cache_entry_bytes_are_the_compact_json(tmp_path, a, b, bound):
    # entries written before and after the one-call write read the same
    verdict = _cached_search(pres(a), pres(b), bound, str(tmp_path))
    cache_file = cache_entry_path(tmp_path, a, b, bound)
    assert cache_file.read_bytes() == json.dumps(verdict.to_json()).encode()


def test_cached_search_ignores_corrupt_entries(tmp_path):
    a, b = pres("Eta2:0,2"), pres("Eta2:0,-2")
    first = _cached_search(a, b, 2, str(tmp_path))
    assert not first.found
    (cache_file,) = tmp_path.iterdir()
    cache_file.write_text("not json at all")
    again = _cached_search(a, b, 2, str(tmp_path))
    assert again.to_json() == first.to_json()


@pytest.mark.parametrize("entry", [
    lambda text: b"\xef\xbb\xbf" + text,  # json.loads(bytes) would take it
    lambda text: b'{"note": "\xff", ' + text[1:],  # an invalid UTF-8 byte
    lambda text: b"",
], ids=["utf-8-bom", "invalid-utf-8", "empty"])
def test_cached_search_recomputes_an_undecodable_entry(
    tmp_path, monkeypatch, entry
):
    a, b = pres("GB2:1"), pres("GB2:2")
    fresh = json.dumps(search(a, b, 2).to_json()).encode("utf-8")
    cache_file = cache_entry_path(tmp_path, "GB2:1", "GB2:2", 2)
    cache_file.write_bytes(entry(fresh))
    searches = []

    def counting_search(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(catalog, "search", counting_search)
    assert json.dumps(_cached_search(a, b, 2, str(tmp_path)).to_json()) == (
        fresh.decode("utf-8")
    )
    assert len(searches) == 1
    assert cache_file.read_bytes() == fresh  # rewritten


@pytest.mark.parametrize("a, b, digest", [
    ("GB2:1", "GB2:2",
     "c9229f106963b4b9a983364307670d902954c42610f32fdd28c75584e12fa7b5"),
    ("Eta2:1,2", "Eta2:1,-2",
     "760738322970404ecba6807479b068db7abc60430cc86a10599d506ab2b9986b"),
])
def test_cache_key_is_pinned(a, b, digest):
    # the names of cache files written by earlier runs of this version
    assert _cache_key(pres(a), pres(b), 2) == digest


def test_cached_search_survives_a_too_deeply_nested_entry(tmp_path):
    # json.load raises RecursionError here, not ValueError
    a, b = pres("GB2:1"), pres("GB2:2")
    fresh = search(a, b, 2)
    cache_file = cache_entry_path(tmp_path, "GB2:1", "GB2:2", 2)
    cache_file.write_text("[" * 100_000 + "]" * 100_000)
    assert _cached_search(a, b, 2, str(tmp_path)) == fresh
    assert json.loads(cache_file.read_text()) == fresh.to_json()  # overwritten


def test_cached_search_distrusts_tampered_certificates(tmp_path):
    a, b = pres("GB2:1"), pres("GB2:2")
    honest = _cached_search(a, b, 1, str(tmp_path))
    assert honest.found
    (cache_file,) = tmp_path.iterdir()
    # swap in a wrong matrix; the cache layer must re-verify and recompute
    cache_file.write_text(
        json.dumps({"result": "found", "matrix": [["1", "0"], ["0", "1"]], "det": "1"})
    )
    again = _cached_search(a, b, 1, str(tmp_path))
    assert again.to_json() == honest.to_json()


@pytest.mark.parametrize("a, b, bound, edits", TAMPERED_CACHE_ENTRIES)
def test_cached_search_recomputes_tampered_fields(
    tmp_path, monkeypatch, a, b, bound, edits
):
    pres_a = presentation(resolve_ring_arg(a))
    pres_b = presentation(resolve_ring_arg(b))
    fresh = search(pres_a, pres_b, bound).to_json()
    if pres_a.poincare() != pres_b.poincare():
        # decided before the cache: a planted entry is never read or rewritten
        cache_file = cache_entry_path(tmp_path, a, b, bound)
        cache_file.write_text(json.dumps(tampered(fresh, edits)))
        before = (cache_file.read_bytes(), cache_file.stat().st_ino)
        opened = []

        def spy(real):
            def spying_open(path, *args, **kwargs):
                opened.append(path)
                return real(path, *args, **kwargs)
            return spying_open

        # an entry is read with os.open, written with open
        monkeypatch.setattr(catalog.os, "open", spy(os.open))
        monkeypatch.setattr(catalog, "open", spy(open), raising=False)
        again = _cached_search(pres_a, pres_b, bound, str(tmp_path))
        assert again.to_json() == fresh and opened == []
        assert list(tmp_path.iterdir()) == [cache_file]
        assert (cache_file.read_bytes(), cache_file.stat().st_ino) == before
        return
    _cached_search(pres_a, pres_b, bound, str(tmp_path))
    (cache_file,) = tmp_path.iterdir()
    assert json.loads(cache_file.read_text()) == fresh
    assert tampered(fresh, edits) != fresh
    cache_file.write_text(json.dumps(tampered(fresh, edits)))
    again = _cached_search(pres_a, pres_b, bound, str(tmp_path))
    assert again.to_json() == fresh
    assert json.loads(cache_file.read_text()) == fresh  # overwritten


@pytest.mark.parametrize("planted", [
    '{"bound": "2", "reason": "exhausted", "result": "none_within_bound"}',
    '{"result":"none_within_bound", "bound": "2", "reason": "exhausted"}',
    '{"result": "none_within_bound", "bound": "2", "reason": "exhausted"}\n',
    '{"result": "none_within_bound", "bound": "3", "reason": "exhausted"}',
], ids=["reordered-keys", "dropped-space", "trailing-newline", "bound-3"])
def test_an_exhausted_entry_is_trusted_only_as_its_exact_text(
    tmp_path, monkeypatch, planted
):
    # JSON-equal is not enough: only the bytes a search writes are trusted
    a, b = pres("Eta2:0,2"), pres("Eta2:0,-2")
    fresh = search(a, b, 2)
    honest = json.dumps(fresh.to_json())
    assert planted != honest
    cache_file = cache_entry_path(tmp_path, "Eta2:0,2", "Eta2:0,-2", 2)
    cache_file.write_text(planted)
    searches = []

    def counting_search(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(catalog, "search", counting_search)
    assert _cached_search(a, b, 2, str(tmp_path)) == fresh
    assert len(searches) == 1
    assert cache_file.read_text() == honest  # rewritten


def test_a_forged_large_matrix_is_recomputed_before_any_determinant(
    tmp_path, monkeypatch
):
    # a 300 x 300 identity for a 2-generator pair: its shape is refused
    # before catalog.matrix_det could spend Bareiss elimination on it
    a, b = pres("GB2:1"), pres("GB2:2")
    fresh = search(a, b, 1)
    cache_file = cache_entry_path(tmp_path, "GB2:1", "GB2:2", 1)
    cache_file.write_text(json.dumps({
        "result": "found",
        "matrix": [[str(int(i == j)) for j in range(300)] for i in range(300)],
        "det": "1",
    }))
    seen = []

    def spying_det(rows):
        seen.append(rows)
        return matrix_det(rows)

    monkeypatch.setattr(catalog, "matrix_det", spying_det)
    assert _cached_search(a, b, 1, str(tmp_path)) == fresh
    assert seen == []
    assert cache_file.read_text() == json.dumps(fresh.to_json())  # overwritten


@pytest.mark.parametrize("a, b, verifies", [
    ("GB2:1", "GB2:2", 1),  # a certificate
    ("Eta2:0,2", "Eta2:0,-2", 0),  # an exhausted box
])
def test_a_cache_hit_is_re_derived_in_one_pass(
    tmp_path, monkeypatch, a, b, verifies
):
    # past the bound's exhausted text, made once, a certificate hit parses,
    # verifies and serializes once; an exhausted hit is one text comparison
    first = _cached_search(pres(a), pres(b), 2, str(tmp_path))
    catalog._exhausted.cache_clear()
    calls = Counter()

    def spy(owner, name, real):
        def spying(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, spying)

    spy(catalog, "_entry_text", catalog._entry_text)
    spy(catalog, "verify", catalog.verify)
    spy(catalog, "search", catalog.search)
    spy(json, "loads", json.loads)
    assert _cached_search(pres(a), pres(b), 2, str(tmp_path)) == first
    assert calls == Counter(_entry_text=1 + verifies, verify=verifies,
                            loads=verifies)
    calls.clear()
    assert _cached_search(pres(a), pres(b), 2, str(tmp_path)) == first
    assert calls == Counter(_entry_text=verifies, verify=verifies,
                            loads=verifies)


def test_cached_search_keeps_honest_entries(tmp_path):
    for i, (a, b) in enumerate([("GB2:1", "GB2:2"), ("Eta2:1,2", "Eta2:1,-2")]):
        cache_dir = tmp_path / str(i)
        first = _cached_search(pres(a), pres(b), 2, str(cache_dir))
        (cache_file,) = cache_dir.iterdir()
        before = (cache_file.read_bytes(), cache_file.stat().st_ino)
        again = _cached_search(pres(a), pres(b), 2, str(cache_dir))
        assert again == first
        assert (cache_file.read_bytes(), cache_file.stat().st_ino) == before


def test_betti_mismatch_pairs_bypass_the_cache(tmp_path):
    # equal generator counts, different Poincare series: the verdict is a
    # proof with no cache I/O, so the directory is not even created
    cache_dir = tmp_path / "cache"
    for a, b in (("Eta2:0,0", "M8:0,0"), ("M8:0,0", "Eta2:0,0")):
        verdict = _cached_search(pres(a), pres(b), 2, str(cache_dir))
        assert verdict == search(pres(a), pres(b), 2)
        assert verdict.reason == "betti_mismatch"
    assert not cache_dir.exists()


def test_cached_search_reads_no_presentation_json(tmp_path, monkeypatch):
    def no_json(self):
        raise AssertionError("the cache key needs no presentation JSON")

    monkeypatch.setattr(RingPresentation, "to_json", no_json)
    a, b = pres("GB2:1"), pres("GB2:2")
    first = _cached_search(a, b, 1, str(tmp_path))
    assert _cached_search(a, b, 1, str(tmp_path)) == first
    assert first == search(a, b, 1)


def test_equal_presentations_share_one_cache_entry(tmp_path, monkeypatch):
    searches = []
    real_search = catalog.search

    def counting_search(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(catalog, "search", counting_search)
    target = pres("M8:0,-2")
    first = _cached_search(pres("M8:0,2"), target, 2, str(tmp_path))
    assert len(list(tmp_path.iterdir())) == 1 and len(searches) == 1
    again = _cached_search(pres("M8:1,2"), target, 2, str(tmp_path))
    assert again == first
    assert len(list(tmp_path.iterdir())) == 1 and len(searches) == 1


def test_sweep_uses_cache_dir(tmp_path):
    before = sweep_distinctness("three-stage", 0, 2, cache_dir=str(tmp_path))
    assert len(list(tmp_path.iterdir())) > 0
    after = sweep_distinctness("three-stage", 0, 2, cache_dir=str(tmp_path))
    assert json.dumps(before, sort_keys=True) == json.dumps(after, sort_keys=True)


def test_cached_search_survives_an_unwritable_cache(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file")
    a, b = pres("GB2:1"), pres("GB2:2")
    verdict = _cached_search(a, b, 1, str(not_a_dir))
    assert verdict.to_json() == search(a, b, 1).to_json()
    assert _cached_search(a, b, 1, str(not_a_dir)) == verdict
    (line,) = capsys.readouterr().err.splitlines()  # once per directory
    assert line.startswith("warning: verdict not cached:")
    assert not_a_dir.read_text() == "a regular file"


def test_sweep_survives_an_unwritable_cache(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file")
    plain = sweep_distinctness("three-stage", 0, 2)
    report = sweep_distinctness("three-stage", 0, 2, cache_dir=str(not_a_dir))
    assert report == plain
    (line,) = capsys.readouterr().err.splitlines()  # once, not per row
    assert line.startswith("warning: verdict not cached:")
