"""Tower descriptions, quotient presentations, duality, determinants."""

import itertools
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cptower import (
    DualityError,
    Poly,
    RingPresentation,
    Stage,
    TowerSpec,
    TowerSpecError,
    matrix_det,
    presentation,
    towerspec_from_json,
    towerspec_to_json,
)
from cptower import towers
from cptower.catalog import (
    THEOREMS, _cache_key, _over, build, families_for_theorem,
)
from cptower.towers import MAX_FIBER_DIM, _restrict
from conftest import (
    cp, cp_spec, fam, hirzebruch, hirzebruch_spec, trivial_tower,
)
from oracles import dense_multiplication_table

# the most digits int() converts from a decimal string; 0 for no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def eta_spec(s: int, a: int) -> TowerSpec:
    """CP^1 bundle over CP^2 with c_1 = s*X, c_2 = a*X^2."""
    return TowerSpec((
        Stage(2, (Poly.zero(0), Poly.zero(0), Poly.zero(0))),
        Stage(1, (Poly(1, {(1,): s}), Poly(1, {(2,): a}))),
    ))


def zeta_spec(s: int, r: int, a: int) -> TowerSpec:
    """CP^1 bundle over CP^1 x CP^1 with c_1 = s*X + r*Y, c_2 = a*XY."""
    return TowerSpec((
        Stage(1, (Poly.zero(0), Poly.zero(0))),
        Stage(1, (Poly.zero(1), Poly.zero(1))),
        Stage(1, (Poly(2, {(1, 0): s, (0, 1): r}), Poly(2, {(1, 1): a}))),
    ))


# -- stage / spec validation ------------------------------------------------


def test_towerspec_validation_messages():
    with pytest.raises(TowerSpecError, match="stage 1 fiber_dim must be at least 1"):
        TowerSpec((Stage(0, ()),))
    # a fiber_dim is exactly an int: True is not CP^1, nor 2.0 or "2" CP^2
    for n in (True, 2.0, "2"):
        with pytest.raises(TowerSpecError,
                           match=f"stage 1 fiber_dim must be an int, got {n!r}"):
            TowerSpec((Stage(n, (Poly.zero(0),) * 3),))
    # nor is a Chern coefficient 1.5: H_1.5 would hold the term 1.5xy
    with pytest.raises(ValueError, match="must be an int, got 1.5"):
        hirzebruch_spec(1.5)
    with pytest.raises(TowerSpecError, match="stage 1 expects 2 chern classes, got 1"):
        TowerSpec((Stage(1, (Poly.zero(0),)),))
    with pytest.raises(
        TowerSpecError, match="stage 1 chern entry 1 must be a polynomial in 0"
    ):
        TowerSpec((Stage(1, (Poly.zero(1), Poly.zero(1))),))
    with pytest.raises(
        TowerSpecError,
        match="stage 2 chern entry 1 must be homogeneous of cohomological degree 2",
    ):
        TowerSpec((
            Stage(1, (Poly.zero(0), Poly.zero(0))),
            Stage(1, (Poly.constant(1, 3), Poly.zero(1))),
        ))


def test_fiber_dim_limit():
    at_limit = Stage(MAX_FIBER_DIM, (Poly.zero(0),) * (MAX_FIBER_DIM + 1))
    assert TowerSpec((at_limit,)).real_dimension == 2 * MAX_FIBER_DIM
    over = {"stages": [{"fiber_dim": str(MAX_FIBER_DIM + 1), "chern": []}]}
    with pytest.raises(
        TowerSpecError, match="stage 1 fiber_dim 1001 is above the limit of 1000"
    ):
        towerspec_from_json(over)


def _cp1_stages(n: int) -> dict:
    return {"stages": [{"fiber_dim": "1", "chern": [[], []]}] * n}


def test_tower_size_limit(monkeypatch):
    # g stages with T Chern terms write g * (g + T) presentation exponents;
    # 1,414 CP^1 stages are within 2,000,000 and 1,415 are not
    assert towerspec_from_json(_cp1_stages(1414)).ngens == 1414
    stages = [Stage(1, (Poly.zero(k), Poly.zero(k))) for k in range(1415)]
    with pytest.raises(TowerSpecError, match="a tower of 1415 stages and 0 "
                       "chern terms has 2002225 presentation exponents, "
                       "above the limit of 2000000"):
        TowerSpec(stages)

    def refuse(*args):
        raise AssertionError("a stage was read")

    # refused before any stage is read, counting the listed terms
    monkeypatch.setattr(towers, "_fit_terms", refuse)
    with pytest.raises(TowerSpecError, match="1415 stages and 0 chern terms"):
        towerspec_from_json(_cp1_stages(1415))
    monkeypatch.undo()
    data = towerspec_to_json(zeta_spec(1, 1, 2))  # 3 stages, 3 chern terms
    monkeypatch.setattr(towers, "MAX_TOWER_EXPONENTS", 3 * (3 + 3))
    assert towerspec_from_json(data) == zeta_spec(1, 1, 2)
    monkeypatch.setattr(towers, "MAX_TOWER_EXPONENTS", 3 * (3 + 3) - 1)
    for make in (lambda: towerspec_from_json(data),
                 lambda: zeta_spec(1, 1, 2)):
        with pytest.raises(TowerSpecError, match="3 stages and 3 chern terms "
                           "has 18 presentation exponents, above the limit "
                           "of 17"):
            make()


def test_towerspec_properties():
    spec = zeta_spec(1, 1, 2)
    assert spec.ngens == 3
    assert spec.real_dimension == 6
    assert cp_spec(3).real_dimension == 6


# -- presentation construction ---------------------------------------------


def test_cp_presentation():
    pres = cp(3)
    assert pres.caps == (3,)
    assert pres.relations == (Poly(1, {(4,): 1}),)
    assert pres.poincare() == (1, 1, 1, 1)


@pytest.mark.parametrize("k", [0, 1, 2, -3])
def test_hirzebruch_presentation(k):
    pres = hirzebruch(k)
    assert pres.caps == (1, 1)
    assert pres.relations[0] == Poly(2, {(2, 0): 1})
    assert pres.relations[1] == Poly(2, {(0, 2): 1, (1, 1): k})


def test_eta_presentation():
    pres = presentation(eta_spec(0, 2))
    assert pres.caps == (2, 1)
    assert pres.relations[0] == Poly(2, {(3, 0): 1})
    assert pres.relations[1] == Poly(2, {(0, 2): 1, (2, 0): 2})


def test_zeta_presentation():
    pres = presentation(zeta_spec(1, 1, 2))
    assert pres.relations[2] == Poly(
        3, {(0, 0, 2): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 0): 2}
    )


def test_stage_chern_is_reduced_in_the_base():
    # c_1 = 3x over CP^1 is fine, but x^2 terms in c_2 must reduce away
    spec = TowerSpec((
        Stage(1, (Poly.zero(0), Poly.zero(0))),
        Stage(1, (Poly(1, {(1,): 3}), Poly(1, {(2,): 5}))),
    ))
    pres = presentation(spec)
    # x^2 = 0 in the base, so the would-be 5x^2 tail vanishes
    assert pres.relations[1] == Poly(2, {(0, 2): 1, (1, 1): 3})


def _presentation_always_reducing(spec: TowerSpec) -> RingPresentation:
    """Reference: the earlier ``presentation``, which builds the prefix
    ring after every stage and reduces every Chern class in it."""
    g = spec.ngens
    caps: list[int] = []
    relations: list[Poly] = []
    base = None
    for k, stage in enumerate(spec.stages):
        n = stage.fiber_dim
        reduced = []
        for c in stage.chern:
            reduced.append(base.normal_form(c) if base is not None else c)
        lead = [0] * g
        lead[k] = n + 1
        terms = {tuple(lead): 1}
        for i, c in enumerate(reduced, start=1):
            shift = [0] * g
            shift[k] = n + 1 - i
            pad = (0,) * (g - c.nvars)
            for mono, coeff in c.terms.items():
                m = tuple(a + b for a, b in zip(mono + pad, shift))
                v = terms.get(m, 0) + coeff
                if v:
                    terms[m] = v
                else:
                    del terms[m]
        caps.append(n)
        relations.append(Poly(g, terms))
        base = RingPresentation(
            caps[: k + 1], [_restrict(rel, k + 1) for rel in relations]
        )
    return RingPresentation(caps, relations)


def _weight_monomials(nvars: int, w: int) -> list:
    return [m for m in itertools.product(range(w + 1), repeat=nvars)
            if sum(m) == w]


@st.composite
def tower_specs(draw):
    """1-3 stages of fiber CP^1..CP^3, every Chern monomial drawn with a
    coefficient in [-3, 3], those above the base's caps included."""
    stages = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        stages.append(Stage(n, tuple(
            Poly(k, {m: draw(st.integers(-3, 3))
                     for m in _weight_monomials(k, i)})
            for i in range(1, n + 2)
        )))
    return TowerSpec(tuple(stages))


@settings(max_examples=100, deadline=None)
@given(tower_specs())
@example(TowerSpec((  # c_2 = k x^2 over CP^1
    Stage(1, (Poly.zero(0), Poly.zero(0))),
    Stage(1, (Poly(1, {(1,): 1}), Poly(1, {(2,): -2}))),
)))
@example(TowerSpec((  # x^3 and x^2 y over CP^1 x CP^1
    Stage(1, (Poly.zero(0), Poly.zero(0))),
    Stage(1, (Poly.zero(1), Poly(1, {(2,): 3}))),
    Stage(2, (Poly.zero(2), Poly(2, {(2, 0): 1}),
              Poly(2, {(3, 0): 2, (2, 1): -1, (1, 2): 1}))),
)))
def test_presentation_matches_the_always_reducing_reference(spec):
    pres = presentation(spec)
    ref = _presentation_always_reducing(spec)
    assert pres.caps == ref.caps
    assert pres.relations == ref.relations


# -- canonical identity -------------------------------------------------------


def _key(pres):
    return _cache_key(pres, pres, 2)


_SAME_RING = TowerSpec((  # M8:0,2 and M8:1,2 build this alike
    Stage(3, tuple(Poly.zero(0) for _ in range(4))),
    Stage(1, (Poly.zero(1), Poly(1, {(2,): 2}))),
))


@settings(max_examples=60, deadline=None)
@given(tower_specs(), tower_specs())
@example(_SAME_RING, _SAME_RING)
def test_equality_hash_and_cache_key_agree(spec_a, spec_b):
    a, b = presentation(spec_a), presentation(spec_b)
    same = (a.caps, a.relations) == (b.caps, b.relations)
    assert (a == b) == same
    assert (_key(a) == _key(b)) == same
    if same:
        assert hash(a) == hash(b)


@settings(max_examples=60, deadline=None)
@given(tower_specs())
def test_identity_ignores_term_order_and_sees_every_coefficient(spec):
    pres = presentation(spec)
    g = pres.ngens
    reversed_terms = RingPresentation(pres.caps, [
        Poly(g, dict(reversed(list(rel.terms.items()))))
        for rel in pres.relations
    ])
    assert reversed_terms == pres
    assert hash(reversed_terms) == hash(pres)
    assert _key(reversed_terms) == _key(pres)
    # one coefficient of the first relation moves by 1
    terms = dict(pres.relations[0].terms)
    zero = (0,) * g
    terms[zero] = terms.get(zero, 0) + 1
    bumped = RingPresentation(
        pres.caps, [Poly(g, terms), *pres.relations[1:]]
    )
    assert bumped != pres
    assert _key(bumped) != _key(pres)


def test_catalog_presentations_need_no_base_ring(monkeypatch):
    """No catalog Chern class has a monomial above its base's caps, so each
    catalog tower builds exactly one ring and reduces nothing."""
    specs = {str(fid): build(fid) for theorem in THEOREMS
             for fid in families_for_theorem(theorem, 4)}
    refs = {k: _presentation_always_reducing(s) for k, s in specs.items()}
    built = []
    real_init = RingPresentation.__init__

    def counting_init(self, caps, relations):
        built.append(tuple(caps))
        real_init(self, caps, relations)

    def no_normal_form(self, p):
        raise AssertionError("normal_form called while building a catalog tower")

    monkeypatch.setattr(RingPresentation, "__init__", counting_init)
    monkeypatch.setattr(RingPresentation, "normal_form", no_normal_form)
    for key, spec in specs.items():
        del built[:]
        pres = presentation(spec)
        assert built == [pres.caps], key
        assert pres == refs[key], key
    assert len(specs) == 80


def test_presentation_validation():
    x4 = Poly(1, {(4,): 1})
    with pytest.raises(ValueError, match="one relation per generator"):
        RingPresentation((3,), ())
    with pytest.raises(ValueError, match="must be >= 1"):
        RingPresentation((0,), (Poly(1, {(1,): 1}),))
    # a cap is exactly an int: none of these is read as 1
    for cap in (1.9, True, "1"):
        with pytest.raises(ValueError, match="cap for generator 1 must be an "
                           f"int, got {cap!r}"):
            RingPresentation((cap,), (Poly(1, {(2,): 1}),))
    with pytest.raises(ValueError, match="full ambient ring"):
        RingPresentation((3,), (Poly(2, {(4, 0): 1}),))
    with pytest.raises(ValueError, match="monic with leading monomial x_1\\^4"):
        RingPresentation((3,), (Poly(1, {(4,): 2}),))
    with pytest.raises(ValueError, match="monic with leading monomial x_1\\^4"):
        RingPresentation((3,), (Poly(1, {(5,): 1}),))
    # a well-formed presentation also equals itself and hashes
    p1 = RingPresentation((3,), (x4,))
    p2 = RingPresentation((3,), (x4,))
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1 != object() and not p1 == object()


@st.composite
def near_monic_relations(draw):
    """1-3 caps in [1, 2], and per generator a relation of up to 3 terms
    with exponents in [0, 3] and coefficients in [-2, 2], mostly with the
    monic leading power added."""
    g = draw(st.integers(1, 3))
    caps = draw(st.lists(st.integers(1, 2), min_size=g, max_size=g))
    relations = []
    for k, cap in enumerate(caps):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * g), st.integers(-2, 2),
            max_size=3,
        ))
        if draw(st.integers(0, 3)):
            terms[(0,) * k + (cap + 1,) + (0,) * (g - k - 1)] = 1
        relations.append(Poly(g, terms))
    return caps, relations


_Y2 = Poly(2, {(0, 2): 1})


@settings(max_examples=300, deadline=None)
@given(near_monic_relations())
@example(((1, 1), [Poly(2, {(2, 0): 1, (1, 1): 1}), _Y2]))  # x_2 after x_1
@example(((1, 1), [Poly(2, {(2, 0): 1, (0, 3): 1}), _Y2]))  # heavier
@example(((1, 1), [Poly(2, {(2, 0): 2}), _Y2]))  # coefficient 2
@example(((1, 1), [Poly(2, {(1, 0): 1}), _Y2]))  # no leading power
@example(((1, 1), [Poly(2, {}), _Y2]))  # zero relation
@example(((1, 1), [Poly(2, {(2, 0): 1}),  # as heavy, x_1 before x_2
                   Poly(2, {(0, 2): 1, (1, 1): 3, (1, 0): -1})]))
def test_monic_check_and_weights_match_the_reference(case):
    # the one sorted pass over each relation against Poly.leading and
    # Poly.homogeneous_weight, the identity and tails against their
    # definitions
    caps, relations = case
    g = len(caps)
    for k, (cap, rel) in enumerate(zip(caps, relations)):
        lead = (0,) * k + (cap + 1,) + (0,) * (g - k - 1)
        if not rel or rel.leading() != (lead, 1):
            with pytest.raises(ValueError) as info:
                RingPresentation(caps, relations)
            assert str(info.value) == (
                f"relation {k + 1} must be monic with leading monomial "
                f"x_{k + 1}^{cap + 1}"
            )
            return
    pres = RingPresentation(caps, relations)
    assert pres.weights == tuple(r.homogeneous_weight() for r in relations)
    assert pres.identity == (tuple(caps), tuple(
        tuple(sorted(r.terms.items())) for r in relations
    ))
    for k, (cap, rel) in enumerate(zip(caps, relations)):
        lead = (0,) * k + (cap + 1,) + (0,) * (g - k - 1)
        assert dict(pres._tails[k]) == {
            m: c for m, c in rel.terms.items() if m != lead
        }


# -- normal forms -----------------------------------------------------------


def test_normal_form_fixtures():
    eta = presentation(eta_spec(0, 2))
    assert eta.normal_form(Poly(2, {(0, 2): 1})) == Poly(2, {(2, 0): -2})
    h2 = hirzebruch(2)
    x_plus_y = Poly(2, {(1, 0): 1, (0, 1): 1})
    assert h2.normal_form(x_plus_y * x_plus_y).is_zero()
    h0 = hirzebruch(0)
    assert h0.normal_form(Poly(2, {(2, 1): 1})).is_zero()


def test_normal_form_follows_a_rewrite_chain_of_top_weight_length():
    # P(gamma + 1) over CP^1000: y^1001 takes one rewrite y^2 -> -x*y per
    # power of x, a chain deeper than the interpreter's recursion limit
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    ring = RingPresentation((1000, 1), [x ** 1001, y * y + x * y])
    assert ring == presentation(
        _over(cp_spec(1000), 1, Poly.variable(1, 0), Poly.zero(1))
    )
    assert ring.normal_form(y ** 1001) == Poly.monomial(2, (1000, 1))


def test_normal_form_above_the_top_weight_is_zero_at_once():
    # homogeneous relations grade the ring: no rewrite chain of 10^9 steps
    h1 = hirzebruch(1)
    assert h1.normal_form(Poly.monomial(2, (0, 10 ** 9))).is_zero()
    assert len(h1._nf_memo) <= 3


def test_normal_form_of_relations_is_zero():
    for pres in (cp(3), hirzebruch(1), presentation(zeta_spec(1, 1, 2))):
        for rel in pres.relations:
            assert pres.normal_form(rel).is_zero()


def test_normal_form_wrong_ring():
    with pytest.raises(ValueError, match="polynomial has 2 generators"):
        cp(3).normal_form(Poly.zero(2))


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-20, 20),
        max_size=5,
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-20, 20),
        max_size=5,
    ),
)
def test_normal_form_idempotent_and_multiplicative(ta, tb):
    pres = presentation(eta_spec(1, -2))
    a, b = Poly(2, ta), Poly(2, tb)
    na, nb = pres.normal_form(a), pres.normal_form(b)
    assert pres.normal_form(na) == na
    assert pres.normal_form(a * b) == pres.normal_form(na * nb)
    assert pres.normal_form(a + b) == na + nb


# -- graded structure -------------------------------------------------------


def test_graded_basis_fixtures():
    eta = presentation(eta_spec(0, 2))
    assert eta.graded_basis(4) == [(2, 0), (1, 1)]
    assert eta.graded_basis(0) == [(0, 0)]
    assert cp(3).graded_basis(8) == []
    assert cp(3).graded_basis(-2) == []
    assert cp(3).graded_basis(3) == []
    assert RingPresentation((), ()).graded_basis(0) == [()]
    assert RingPresentation((), ()).graded_basis(2) == []


def test_graded_basis_refuses_a_degree_above_the_size_limit(monkeypatch):
    # H1 has 2 monomials of 2 exponents in degree 2 and 1 in degrees 0, 4
    monkeypatch.setattr(towers, "MAX_BASIS_EXPONENTS", 3)
    ring = hirzebruch(1)
    assert ring.graded_basis(4) == [(1, 1)]
    with pytest.raises(ValueError, match="degree-2 basis has 2 monomials "
                       "of 2 exponents, above the limit of 3"):
        ring.graded_basis(2)


def test_graded_basis_is_sorted_and_partitions_rank():
    pres = presentation(zeta_spec(1, 0, 2))
    seen = []
    for d in range(0, pres.top_degree + 2, 2):
        basis = pres.graded_basis(d)
        assert all(sum(m) == d // 2 for m in basis)
        seen.extend(basis)
    assert seen == pres.graded_basis_all()
    assert len(seen) == pres.rank == 8


@pytest.mark.parametrize(
    "pres_builder, expected",
    [
        (lambda: cp(3), (1, 1, 1, 1)),
        (lambda: hirzebruch(1), (1, 2, 1)),
        (lambda: presentation(eta_spec(0, 3)), (1, 2, 2, 1)),
        (lambda: presentation(zeta_spec(1, 1, 1)), (1, 3, 3, 1)),
    ],
)
def test_poincare_fixtures(pres_builder, expected):
    pres = pres_builder()
    assert pres.poincare() == expected
    assert sum(pres.poincare()) == pres.rank


def _product_of_blocks(caps):
    """Coefficients of prod_k (1 + t + ... + t^caps[k]), recomputed."""
    poly = [1]
    for cap in caps:
        block = [1] * (cap + 1)
        poly = [
            sum(poly[i] * block[d - i] for i in range(len(poly)) if 0 <= d - i <= cap)
            for d in range(len(poly) + cap)
        ]
    return tuple(poly)


def test_poincare_is_palindromic_product_of_blocks():
    pres = presentation(zeta_spec(1, 1, 2))
    betti = pres.poincare()
    assert betti == tuple(reversed(betti))
    assert betti == _product_of_blocks(pres.caps)


@pytest.mark.parametrize(
    "pres_builder",
    [
        lambda: trivial_tower(1, 3),
        lambda: trivial_tower(2, 1, 1),
        lambda: presentation(eta_spec(0, 3)),
        lambda: presentation(zeta_spec(1, 1, 2)),
    ],
)
def test_poincare_is_computed_once(pres_builder):
    pres = pres_builder()
    assert pres.poincare() is pres.poincare()
    assert pres.poincare() == _product_of_blocks(pres.caps)


def test_top_monomial_and_degree():
    pres = presentation(eta_spec(0, 2))
    assert pres.top_monomial() == (2, 1)
    assert pres.top_degree == 6


# -- duality ----------------------------------------------------------------


def test_top_pairing_fixtures():
    assert hirzebruch(0).top_pairing_matrix(2) == [[0, 1], [1, 0]]
    assert hirzebruch(1).top_pairing_matrix(2) == [[0, 1], [1, -1]]
    assert cp(3).top_pairing_matrix(2) == [[1]]
    assert cp(3).top_pairing_matrix(0) == [[1]]


def test_top_pairing_unimodular_across_degrees():
    pres = presentation(zeta_spec(1, 1, 2))
    for d in range(0, pres.top_degree + 2, 2):
        m = pres.top_pairing_matrix(d)
        assert abs(matrix_det(m)) == 1


def test_top_pairing_odd_degree_is_empty():
    assert cp(3).top_pairing_matrix(3) == []


def test_relation_tails_stay_below_the_leading_monomial():
    # the monomial order makes any tail mentioning a later generator larger
    # than the leading power, so such relations are rejected as non-monic
    with pytest.raises(ValueError, match="monic with leading monomial x_1\\^2"):
        RingPresentation(
            (1, 1),
            (Poly(2, {(2, 0): 1, (1, 1): 1}), Poly(2, {(0, 2): 1})),
        )


def test_duality_guard_branches(monkeypatch):
    """Legal presentations always pass the pairing guard (the relations are
    tower-triangular), so exercise both DualityError branches by lying about
    a graded basis."""
    pres = presentation(eta_spec(0, 2))
    real = RingPresentation.graded_basis

    def drop_one(self, degree):
        basis = real(self, degree)
        return basis[:-1] if degree == 4 else basis

    monkeypatch.setattr(RingPresentation, "graded_basis", drop_one)
    with pytest.raises(DualityError, match="not square"):
        pres.top_pairing_matrix(2)

    def duplicate(self, degree):
        basis = real(self, degree)
        return [basis[0], basis[0]] if degree == 4 else basis

    monkeypatch.setattr(RingPresentation, "graded_basis", duplicate)
    with pytest.raises(DualityError, match="determinant"):
        pres.top_pairing_matrix(2)


# -- independent dense oracle ----------------------------------------------


def test_dense_table_agrees_with_normal_form():
    """The smallest-first unmemoized reducer and the memoized
    highest-generator-first reducer must give the same structure constants."""
    pres = presentation(zeta_spec(1, 1, 2))
    basis = pres.graded_basis_all()
    index = {m: i for i, m in enumerate(basis)}
    table = dense_multiplication_table(pres)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            prod = Poly.monomial(pres.ngens, bi) * Poly.monomial(pres.ngens, bj)
            nf = pres.normal_form(prod)
            vec = [0] * len(basis)
            for mono, coeff in nf.terms.items():
                vec[index[mono]] = coeff
            assert table[(i, j)] == tuple(vec)


def test_dense_table_on_hirzebruch():
    pres = hirzebruch(1)
    table = dense_multiplication_table(pres)
    basis = pres.graded_basis_all()
    assert basis == [(0, 0), (1, 0), (0, 1), (1, 1)]
    # x * y = xy, y * y = -xy
    assert table[(1, 2)] == (0, 0, 0, 1)
    assert table[(2, 2)] == (0, 0, 0, -1)


# -- determinants -----------------------------------------------------------


def test_matrix_det_fixtures():
    assert matrix_det([]) == 1
    assert matrix_det([[5]]) == 5
    assert matrix_det([[0]]) == 0
    assert matrix_det([[1, 2], [3, 4]]) == -2
    assert matrix_det([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert matrix_det([[0, 1], [1, 0]]) == -1
    assert matrix_det([[0, 0], [0, 0]]) == 0
    with pytest.raises(ValueError, match="non-square"):
        matrix_det([[1, 2]])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3))
def test_matrix_det_matches_permutation_expansion(rows):
    expected = 0
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(3):
            term *= rows[i][perm[i]]
        expected += term
    assert matrix_det(rows) == expected


# -- JSON -------------------------------------------------------------------


def test_towerspec_json_round_trip():
    for spec in (cp_spec(3), hirzebruch_spec(2), zeta_spec(1, 0, 2)):
        payload = towerspec_to_json(spec)
        assert towerspec_from_json(payload) == spec
        # schema tag is accepted when present
        assert towerspec_from_json({"schema": "cpt/1", **payload}) == spec


def test_towerspec_json_emits_strings():
    payload = towerspec_to_json(hirzebruch_spec(2))
    assert payload["stages"][0]["fiber_dim"] == "1"
    assert payload["stages"][1]["chern"][0] == [{"coeff": "2", "exps": ["1"]}]


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "tower spec must be an object"),
        ({"stages": [], "x": 1}, "unknown keys"),
        ({"stages": [], "schema": "cpt/2"}, "unsupported schema"),
        ({"stages": []}, "non-empty 'stages'"),
        ({}, "non-empty 'stages'"),
        ({"stages": [3]}, "stage 1 must be an object"),
        ({"stages": [{"fiber_dim": "1", "chern": [[], []], "x": 0}]}, "stage 1: unknown keys"),
        ({"stages": [{"chern": []}]}, "stage 1: missing fiber_dim"),
        ({"stages": [{"fiber_dim": "one"}]}, "stage 1: fiber_dim must be an integer"),
        ({"stages": [{"fiber_dim": "1", "chern": {}}]}, "stage 1: chern must be a list"),
        (
            {"stages": [{"fiber_dim": "1", "chern": [[{"coeff": "0", "exps": []}], []]}]},
            "stage 1 chern entry 1: term 1: zero coefficient",
        ),
        # int() would read 2.7 as a CP^2 stage and true as a CP^1 stage
        ({"stages": [{"fiber_dim": 2.7}]}, "stage 1: fiber_dim must be an integer"),
        ({"stages": [{"fiber_dim": True}]}, "stage 1: fiber_dim must be an integer"),
        ({"stages": [{"fiber_dim": "x"}]}, "stage 1: fiber_dim must be an integer"),
        # stage 1 is checked before stage 2 is read, so its error comes first
        (
            {"stages": [{"fiber_dim": "1", "chern": [[]]},
                        {"fiber_dim": "1", "chern": [[], []], "x": 0}]},
            "stage 1 expects 2 chern classes",
        ),
        # a term is read as strictly as Poly.from_json reads it
        (
            {"stages": [{"fiber_dim": "1", "chern": [[], []]},
                        {"fiber_dim": "1", "chern": [
                            [{"coeff": "2", "exps": ["1"], "cofe": "7"}], [],
                        ]}]},
            "stage 2 chern entry 1: term 1: unknown keys",
        ),
        # a decimal longer than int() converts is named by its field
        pytest.param(
            {"stages": [{"fiber_dim": "1", "chern": [[], []]},
                        {"fiber_dim": "1", "chern": [
                            [{"coeff": "1" * (DIGIT_LIMIT + 1), "exps": ["1"]}],
                            [],
                        ]}]},
            "^stage 2 chern entry 1: term 1: coeff has ",
            marks=pytest.mark.skipif(
                not DIGIT_LIMIT, reason="this interpreter sets no digit limit"
            ),
            id="over-long-decimal",
        ),
    ],
)
def test_towerspec_from_json_rejects(data, message):
    with pytest.raises(TowerSpecError, match=message):
        towerspec_from_json(data)


@pytest.mark.parametrize("value", [2, "2"])
def test_towerspec_from_json_reads_an_integer_fiber_dim(value):
    data = {"stages": [{"fiber_dim": value, "chern": [[], [], []]}]}
    assert towerspec_from_json(data) == cp_spec(2)


def test_towerspec_from_json_checks_each_stage_a_bounded_number_of_times(
    monkeypatch,
):
    # validation is linear in the stage count: reading 40 CP^1 stages
    # checks each stage exactly once, in order
    calls = []
    real = towers._check_stage

    def counting(idx, stage):
        calls.append(idx)
        return real(idx, stage)

    monkeypatch.setattr(towers, "_check_stage", counting)
    data = {"stages": [{"fiber_dim": "1", "chern": [[], []]}] * 40}
    assert towerspec_from_json(data).ngens == 40
    assert calls == list(range(1, 41))


@pytest.mark.parametrize("text", ["Zeta3:1,0,2", "Xi3:0,1,-1", "M8:0,2"])
def test_a_catalog_build_checks_only_its_new_stage(monkeypatch, text):
    # the base spec's stages were checked when it was built
    calls = []
    real = towers._check_stage

    def counting(idx, stage):
        calls.append(idx)
        return real(idx, stage)

    monkeypatch.setattr(towers, "_check_stage", counting)
    spec = build(fam(text))
    assert calls == [spec.ngens]
    assert spec == TowerSpec(spec.stages)


@pytest.mark.parametrize("stage", [
    Stage(0, ()),
    Stage(1, (Poly.zero(2), Poly.zero(2))),
    Stage(1, (Poly.constant(1, 3), Poly.zero(1))),
    Stage(2.0, (Poly.zero(1),) * 3),
])
def test_with_stage_refuses_as_the_constructor_does(stage):
    base = cp_spec(2)
    with pytest.raises(TowerSpecError) as expected:
        TowerSpec(base.stages + (stage,))
    with pytest.raises(TowerSpecError) as got:
        base.with_stage(stage)
    assert str(got.value) == str(expected.value)


def test_with_stage_checks_the_tower_size():
    stages = [Stage(1, (Poly.zero(k), Poly.zero(k))) for k in range(1415)]
    base = TowerSpec(stages[:-1])
    with pytest.raises(TowerSpecError, match="a tower of 1415 stages and 0 "
                       "chern terms has 2002225 presentation exponents"):
        base.with_stage(stages[-1])


def test_towerspec_from_json_forward_reference():
    # stage 2's chern classes may only mention generator 1
    data = {
        "stages": [
            {"fiber_dim": "1", "chern": [[], []]},
            {"fiber_dim": "1", "chern": [[], []]},
            {
                "fiber_dim": "1",
                "chern": [
                    [{"coeff": "1", "exps": ["0", "0", "1"]}],
                    [],
                ],
            },
        ]
    }
    with pytest.raises(TowerSpecError, match="stage 3 chern references generator 3"):
        towerspec_from_json(data)


def test_towerspec_from_json_pads_narrow_exponents():
    # a 1-exponent monomial in stage 3 means generator 1; widths are padded
    data = {
        "stages": [
            {"fiber_dim": "1", "chern": [[], []]},
            {"fiber_dim": "1", "chern": [[], []]},
            {
                "fiber_dim": "1",
                "chern": [
                    [{"coeff": "1", "exps": ["1"]}],
                    [],
                ],
            },
        ]
    }
    spec = towerspec_from_json(data)
    assert spec.stages[2].chern[0] == Poly(2, {(1, 0): 1})
    # a longer list is cut once its extra exponents are read as zero
    data["stages"][2]["chern"][0][0]["exps"] = ["1", "0", "0", 0]
    assert towerspec_from_json(data) == spec


def test_towerspec_from_json_reads_a_wide_term_at_the_stage_width():
    # one 5,000-exponent term among 400 short ones: the terms are fitted to
    # the stage's one generator, not padded to the widest term (16 MB), and
    # the duplicate second term is refused as before
    wide = {"coeff": "1", "exps": ["1"] + ["0"] * 4999}
    short = [{"coeff": "1", "exps": ["1"]} for _ in range(400)]
    data = {"stages": [
        {"fiber_dim": "1", "chern": [[], []]},
        {"fiber_dim": "1", "chern": [[wide] + short, []]},
    ]}
    tracemalloc.start()
    try:
        with pytest.raises(TowerSpecError, match=(
            "stage 2 chern entry 1: term 2: terms must be in strictly "
            "descending canonical order"
        )):
            towerspec_from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
