"""Bundle descriptors, twisting, Whitney sums, the splitting-principle oracle."""

import random

import pytest

from cptower import (
    BundleDescriptor,
    BundleError,
    Poly,
    Stage,
    TowerSpec,
    dual_complement_of_tautological,
    normalize_c1,
    presentation,
    projectivize,
    tensor_line,
    whitney_sum_of_lines,
)
from cptower import chern
from cptower.catalog import FamilyId, _over, stage_bundle
from cptower.towers import MAX_FIBER_DIM
from conftest import cp, cp_spec, hirzebruch, pres
from oracles import splitting_oracle_tensor


def x_poly(coeff=1, power=1):
    return Poly(1, {(power,): coeff})


def rank2(base, c1, c2, alpha=None):
    return BundleDescriptor(base=base, rank=2, chern=(c1, c2), alpha=alpha)


# -- descriptor validation --------------------------------------------------


def test_chern_classes_are_stored_reduced():
    xi = rank2(cp(1), x_poly(3), Poly(1, {(2,): 5}))
    # x^2 = 0 over CP^1
    assert xi.chern == (x_poly(3), Poly.zero(1))
    assert xi.c1 == x_poly(3)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(rank=0, chern=()), "rank must be positive"),
        (dict(rank=2, chern=(Poly.zero(1),)), "rank 2 bundle needs 2 chern"),
        (dict(rank=1, chern=(Poly.zero(2),)), "chern class 1 has 2 generators"),
        (
            dict(rank=1, chern=(Poly(1, {(2,): 1}),)),
            "chern class 1 must be homogeneous of cohomological degree 2",
        ),
    ],
)
def test_descriptor_validation(kwargs, message):
    with pytest.raises(BundleError, match=message):
        BundleDescriptor(base=cp(2), **kwargs)


def test_alpha_tag_rules():
    even = rank2(cp(3), x_poly(2), Poly(1, {(2,): 1}), alpha=1)
    assert even.alpha == 1
    assert rank2(cp(3), x_poly(1), Poly(1, {(2,): 1}), alpha=0).alpha == 0
    with pytest.raises(BundleError, match="alpha is forced to 0 when c1 is odd"):
        rank2(cp(3), x_poly(1), Poly(1, {(2,): 1}), alpha=1)
    with pytest.raises(BundleError, match="alpha must be 0 or 1"):
        rank2(cp(3), x_poly(2), Poly(1, {(2,): 1}), alpha=2)
    with pytest.raises(BundleError, match="only applies over CP\\^3"):
        rank2(cp(2), x_poly(2), Poly(1, {(2,): 1}), alpha=0)
    with pytest.raises(BundleError, match="only applies to rank-2"):
        BundleDescriptor(
            base=cp(3),
            rank=3,
            chern=(Poly.zero(1), Poly.zero(1), Poly.zero(1)),
            alpha=0,
        )


def test_descriptor_json():
    xi = rank2(cp(3), x_poly(2), Poly(1, {(2,): 7}), alpha=1)
    assert xi.to_json() == {
        "rank": "2",
        "chern": [
            [{"coeff": "2", "exps": ["1"]}],
            [{"coeff": "7", "exps": ["2"]}],
        ],
        "alpha": "1",
    }
    assert rank2(cp(2), x_poly(1), Poly.zero(1)).to_json()["alpha"] is None


# -- tensor_line ------------------------------------------------------------


def test_tensor_fixture_over_cp2():
    # c1 = 3x, c2 = 5x^2, twist by -x: c1 -> x, c2 -> 5 + 1 - 3 = 3 times x^2
    xi = rank2(cp(2), x_poly(3), Poly(1, {(2,): 5}))
    tw = tensor_line(xi, x_poly(-1))
    assert tw.chern == (x_poly(1), Poly(1, {(2,): 3}))


def test_tensor_by_trivial_line_is_identity():
    xi = rank2(cp(2), x_poly(3), Poly(1, {(2,): 5}), alpha=None)
    assert tensor_line(xi, Poly.zero(1)).chern == xi.chern


def test_tensor_rides_alpha_along():
    xi = rank2(cp(3), x_poly(2), Poly(1, {(2,): 1}), alpha=1)
    assert tensor_line(xi, x_poly(2)).alpha == 1


def test_tensor_validation():
    xi = rank2(cp(2), x_poly(1), Poly.zero(1))
    with pytest.raises(BundleError, match="homogeneous of degree 2"):
        tensor_line(xi, Poly(1, {(2,): 1}))


def test_tensor_composes_additively():
    h1 = hirzebruch(1)
    c1 = Poly(2, {(1, 0): 2, (0, 1): -1})
    c2 = Poly(2, {(1, 1): 3})
    t = Poly(2, {(1, 0): 1})
    s = Poly(2, {(0, 1): -2})
    xi = rank2(h1, c1, c2)
    assert tensor_line(tensor_line(xi, t), s).chern == tensor_line(xi, t + s).chern
    assert tensor_line(tensor_line(xi, t), -1 * t).chern == xi.chern


def test_splitting_oracle_closed_forms():
    c1, c2 = splitting_oracle_tensor()
    # in the (e1, e2, s) slots: c1' = e1 + 2s, c2' = e2 + e1 s + s^2
    assert c1 == Poly(3, {(1, 0, 0): 1, (0, 0, 1): 2})
    assert c2 == Poly(3, {(0, 1, 0): 1, (1, 0, 1): 1, (0, 0, 2): 1})


def test_tensor_matches_oracle_on_random_descriptors():
    oc1, oc2 = splitting_oracle_tensor()
    rng = random.Random(12)
    bases = [cp(1), cp(2), hirzebruch(0), hirzebruch(1)]
    for _ in range(200):
        base = rng.choice(bases)
        g = base.ngens

        def rand_hom(w):
            total = Poly.zero(g)
            for mono in base.graded_basis(2 * w):
                total = total + Poly.monomial(g, mono, rng.randint(-6, 6))
            return total

        c1, c2, t = rand_hom(1), rand_hom(2), rand_hom(1)
        tw = tensor_line(rank2(base, c1, c2), t)
        assert tw.chern[0] == base.normal_form(oc1.substitute((c1, c2, t)))
        assert tw.chern[1] == base.normal_form(oc2.substitute((c1, c2, t)))


def random_line(rng, base):
    return Poly(base.ngens, {
        mono: rng.randint(-3, 3) for mono in base.graded_basis(2)
    })


@pytest.mark.parametrize("family", ["CP3", "Xi3:0,1,-2", "Zeta3:1,1,2"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_tensor_moves_every_root_of_a_split_bundle(family, rank):
    # a sum of lines twisted by t is the sum of the lines each moved by t:
    # an oracle for every rank that needs no symbolic reduction
    base = pres(family)
    rng = random.Random(f"{family}/{rank}")
    for _ in range(25):
        lines = [random_line(rng, base) for _ in range(rank)]
        t = random_line(rng, base)
        assert tensor_line(whitney_sum_of_lines(base, lines), t) == (
            whitney_sum_of_lines(base, [line + t for line in lines])
        )


# -- whitney_sum_of_lines ---------------------------------------------------


def test_whitney_sum_fixture_over_cp1():
    desc = whitney_sum_of_lines(cp(1), [x_poly(1), Poly.zero(1), Poly.zero(1)])
    assert desc.rank == 3
    assert desc.chern == (x_poly(1), Poly.zero(1), Poly.zero(1))


def test_whitney_sum_matches_product_expansion():
    h0 = hirzebruch(0)
    x = Poly(2, {(1, 0): 1})
    y = Poly(2, {(0, 1): 1})
    lines = [x, y, x + y]
    desc = whitney_sum_of_lines(h0, lines)
    # elementary symmetric functions of the roots, reduced
    one = Poly.constant(2, 1)
    total = one
    for r in lines:
        total = total * (one + r)
    for i, c in enumerate(desc.chern, start=1):
        graded = Poly(2, {m: v for m, v in total.terms.items() if sum(m) == i})
        assert c == h0.normal_form(graded)


def test_whitney_sum_validation():
    with pytest.raises(BundleError, match="empty list"):
        whitney_sum_of_lines(cp(1), [])
    with pytest.raises(BundleError, match="line class 2 must be homogeneous"):
        whitney_sum_of_lines(cp(2), [x_poly(1), Poly(1, {(2,): 1})])


def test_whitney_sum_refuses_too_many_lines_before_any_product(monkeypatch):
    # with the fiber limit at 2, a sum of 3 lines projectivizes to a CP^2
    # stage; 4 lines could only give a CP^3 one, so they are refused before
    # the quadratic products, and before the classes are even checked
    products = []
    mul = Poly.__mul__

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr("cptower.towers.MAX_FIBER_DIM", 2)
    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    assert whitney_sum_of_lines(cp(1), [x_poly(1)] * 3).rank == 3
    assert products
    products.clear()
    bad = Poly(1, {(2,): 1})  # would fail the degree check
    with pytest.raises(BundleError, match="whitney sum of 4 line bundles: "
                       "its projectivization's fiber_dim 3 is above the "
                       "limit of 2"):
        whitney_sum_of_lines(cp(1), [bad] * 4)
    assert products == []


# -- normalize_c1 -----------------------------------------------------------


def test_normalize_fixture():
    xi = rank2(cp(2), x_poly(3), Poly(1, {(2,): 5}))
    norm, twist = normalize_c1(xi)
    assert twist == x_poly(-1)
    assert norm.chern == (x_poly(1), Poly(1, {(2,): 3}))


def test_normalize_even_c1_lands_on_zero():
    xi = rank2(cp(2), x_poly(4), Poly(1, {(2,): 1}))
    norm, twist = normalize_c1(xi)
    assert twist == x_poly(-2)
    assert norm.c1.is_zero()


def test_normalize_coordinates_land_in_01():
    h1 = hirzebruch(1)
    for sx in range(-4, 5):
        for sy in range(-4, 5):
            c1 = Poly(2, {(1, 0): sx, (0, 1): sy})
            norm, twist = normalize_c1(rank2(h1, c1, Poly.zero(2)))
            coords = {norm.c1.coefficient((1, 0)), norm.c1.coefficient((0, 1))}
            assert coords <= {0, 1}
            # untwisting returns the original bundle
            back = tensor_line(norm, -1 * twist)
            assert back.chern == rank2(h1, c1, Poly.zero(2)).chern


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_normalize_coordinates_land_below_the_rank(rank):
    rng = random.Random(rank)
    for base in (cp(3), hirzebruch(1), pres("Zeta3:1,1,2")):
        for _ in range(20):
            xi = whitney_sum_of_lines(
                base, [random_line(rng, base) for _ in range(rank)]
            )
            norm, twist = normalize_c1(xi)
            assert set(norm.c1.terms.values()) <= set(range(1, rank))
            assert tensor_line(norm, -1 * twist) == xi


def test_normalize_rank3_catalog_stage():
    # GB2:4 = P(gamma^4 + eps + eps): c1 = 4x, and a twist by -x leaves x
    norm, twist = normalize_c1(stage_bundle(FamilyId.parse("GB2:4")))
    assert twist == x_poly(-1)
    assert norm.rank == 3
    assert norm.chern == (x_poly(1), Poly.zero(1), Poly.zero(1))


def test_normalize_validation():
    # a line bundle normalizes to the trivial one: c1 lands on 0
    norm, twist = normalize_c1(
        BundleDescriptor(base=cp(1), rank=1, chern=(x_poly(2),))
    )
    assert twist == x_poly(-2)
    assert norm.c1.is_zero()


# -- milnor hypersurfaces ---------------------------------------------------


def test_milnor_1_2_presentation():
    pres = presentation(dual_complement_of_tautological(1, 2))
    assert pres.relations[0] == Poly(2, {(2, 0): 1})
    assert pres.relations[1] == Poly(2, {(0, 2): 1, (1, 1): 1})


def test_milnor_2_2_presentation():
    pres = presentation(dual_complement_of_tautological(2, 2))
    assert pres.relations[0] == Poly(2, {(3, 0): 1})
    assert pres.relations[1] == Poly(2, {(0, 2): 1, (1, 1): 1, (2, 0): 1})


def test_milnor_truncates_chern_at_base_dimension():
    spec = dual_complement_of_tautological(1, 3)
    # over CP^1 only c_1 survives; c_2, c_3 reduce to zero
    assert spec.stages[1].chern[0] == x_poly(1)
    assert spec.stages[1].chern[1].is_zero()
    assert spec.stages[1].chern[2].is_zero()


@pytest.mark.parametrize(
    "i, j, message",
    [
        (0, 2, "base exponent must be at least 1"),
        (3, 2, "need i <= j"),
        (1, 1, "degenerate"),
    ],
)
def test_milnor_validation(i, j, message):
    with pytest.raises(BundleError, match=message):
        dual_complement_of_tautological(i, j)


@pytest.mark.parametrize("i, j, stage", [
    (1, MAX_FIBER_DIM + 2, 2),
    (MAX_FIBER_DIM + 1, MAX_FIBER_DIM + 1, 1),
])
def test_milnor_refuses_a_large_fiber_before_building(monkeypatch, i, j, stage):
    built = []

    class CountingPoly(Poly):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(chern, "Poly", CountingPoly)
    message = f"stage {stage} fiber_dim {MAX_FIBER_DIM + 1} is above the limit"
    with pytest.raises(BundleError, match=message):
        dual_complement_of_tautological(i, j)
    assert built == []


def test_milnor_builds_the_largest_fiber():
    spec = dual_complement_of_tautological(1, MAX_FIBER_DIM + 1)
    assert spec.stages[1].fiber_dim == MAX_FIBER_DIM


# -- projectivize -----------------------------------------------------------


def test_projectivize_builds_the_expected_stage():
    base_spec = cp_spec(2)
    base = presentation(base_spec)
    xi = rank2(base, Poly.zero(1), Poly(1, {(2,): 2}))
    spec = projectivize(base_spec, xi)
    assert spec.ngens == 2
    pres = presentation(spec)
    assert pres.relations[1] == Poly(2, {(0, 2): 1, (2, 0): 2})


def test_projectivize_extends_a_spec_built_from_a_list():
    # TowerSpec stores any iterable of stages as a tuple, so a spec built
    # from a list hashes and extends like one built from a tuple
    s = Stage(2, (Poly.zero(0),) * 3)
    spec = TowerSpec([s])
    assert spec == TowerSpec((s,)) == TowerSpec(iter([s]))
    assert type(spec.stages) is tuple and hash(spec) == hash(TowerSpec((s,)))
    xi = rank2(presentation(spec), Poly.zero(1), x_poly(2, 2))
    assert projectivize(spec, xi).ngens == 2
    assert _over(spec, 1, Poly.zero(1), Poly.zero(1)).ngens == 2


def test_projectivize_validation():
    base_spec = cp_spec(2)
    other = rank2(cp(1), x_poly(1), Poly.zero(1))
    with pytest.raises(BundleError, match="not defined over the given base"):
        projectivize(base_spec, other)
    line = BundleDescriptor(base=presentation(base_spec), rank=1, chern=(Poly.zero(1),))
    with pytest.raises(BundleError, match="point fiber"):
        projectivize(base_spec, line)
