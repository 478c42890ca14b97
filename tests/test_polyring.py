"""Polynomial layer: arithmetic, monomial order, strict JSON round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptower.polyring import Poly, PolyJSONError, monomial_key


def p(nvars, terms):
    return Poly(nvars, terms)


# -- strategies -------------------------------------------------------------

coeffs = st.integers(min_value=-30, max_value=30)
exps = st.integers(min_value=0, max_value=4)


def polys(nvars: int, exponents=exps, max_size: int = 6):
    mono = st.tuples(*([exponents] * nvars))
    return st.dictionaries(mono, coeffs, max_size=max_size).map(
        lambda d: Poly(nvars, d)
    )


# Substitution images get raised to powers up to 8 (in a * b), so an
# uncapped image of 6 terms up to x^4 makes the test's run time hang on the
# draws; these keep every power of an image small.
def image_polys(nvars: int):
    return polys(nvars, st.integers(min_value=0, max_value=2), max_size=3)


# -- construction and normalization ----------------------------------------


def test_zero_coefficients_are_dropped():
    assert p(2, {(1, 0): 0, (0, 1): 3}).terms == {(0, 1): 3}
    assert p(1, {(2,): 0}).is_zero()


def test_constructor_validation():
    with pytest.raises(ValueError, match="nvars must be non-negative"):
        Poly(-1)
    with pytest.raises(ValueError, match="has 1 exponents, expected 2"):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(1, {(-1,): 1})


def test_named_constructors():
    assert Poly.zero(3).is_zero()
    assert Poly.constant(2, 5).terms == {(0, 0): 5}
    assert Poly.constant(2, 0).is_zero()
    assert Poly.variable(3, 1).terms == {(0, 1, 0): 1}
    assert Poly.monomial(2, (1, 2), -4).terms == {(1, 2): -4}
    with pytest.raises(ValueError, match="out of range"):
        Poly.variable(2, 2)


def test_zero_variable_ring():
    c = Poly.constant(0, 7)
    assert c.terms == {(): 7}
    assert (c * c).terms == {(): 49}


# -- order ------------------------------------------------------------------


def test_monomial_order_degree_first_then_last_slot():
    # graded lex with the last generator heaviest
    ordered = sorted([(2, 0), (0, 2), (1, 1), (3, 0), (0, 0)], key=monomial_key)
    assert ordered == [(0, 0), (2, 0), (1, 1), (0, 2), (3, 0)]


def test_sorted_terms_and_leading():
    q = p(2, {(3, 0): 1, (1, 1): 2, (0, 2): 3})
    assert [m for m, _ in q.sorted_terms()] == [(1, 1), (0, 2), (3, 0)]
    assert [m for m, _ in q.sorted_terms(reverse=True)] == [(3, 0), (0, 2), (1, 1)]
    assert q.leading() == ((3, 0), 1)
    with pytest.raises(ValueError, match="no leading term"):
        Poly.zero(2).leading()


# -- degrees ----------------------------------------------------------------


@pytest.mark.parametrize(
    "terms, weight, hom",
    [
        ({}, 0, 0),
        ({(2, 0): 1, (1, 1): -1}, 2, 2),
        ({(1, 0): 1, (0, 2): 1}, 2, None),
    ],
)
def test_weight_and_homogeneity(terms, weight, hom):
    q = p(2, terms)
    assert q.weight() == weight
    assert q.homogeneous_weight() == hom
    if hom is not None:
        assert q.is_homogeneous(hom)


# -- arithmetic -------------------------------------------------------------


def test_small_arithmetic_fixtures():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
    assert ((x + y) ** 2).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert (3 * x - x - x - x).is_zero()
    assert (x * 0).is_zero()
    assert (x ** 0).terms == {(0, 0): 1}
    with pytest.raises(ValueError, match="negative power"):
        x ** -1
    with pytest.raises(ValueError, match="generator count mismatch"):
        x + Poly.variable(3, 0)


def test_mixed_operands_are_refused():
    x = Poly.variable(1, 0)
    for other in (1.5, "x", None):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
    assert x != object() and not x == object()


def test_hash_follows_equality():
    a = p(2, {(1, 0): 2, (0, 1): -1})
    b = Poly.variable(2, 0) * 2 - Poly.variable(2, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Poly.zero(2)}) == 2
    assert Poly.__slots__ == ("nvars", "terms")


@pytest.mark.parametrize("n", range(1, 18))
def test_pow_squares_and_multiplies(monkeypatch, n):
    # square and multiply, never by the constant 1: floor(log2 n) squarings
    # and popcount(n) - 1 further products
    x = Poly.variable(1, 0) + Poly.constant(1, 1)
    expected = Poly.constant(1, 1)
    for _ in range(n):
        expected = expected * x
    products = []
    real_mul = Poly.__mul__

    def counting_mul(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    assert x ** n == expected
    assert len(products) == n.bit_length() - 1 + n.bit_count() - 1


def test_big_integer_coefficients_survive():
    big = 10 ** 40
    q = Poly.constant(1, big) * Poly.constant(1, big)
    assert q.terms == {(0,): 10 ** 80}


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero(2) == a
    assert a * Poly.constant(2, 1) == a
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(2), st.integers(min_value=0, max_value=5))
def test_pow_matches_repeated_product(a, n):
    expected = Poly.constant(2, 1)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


# -- substitution -----------------------------------------------------------


def test_substitute_fixture():
    # q(x, y) = x^2 + y at (y, x + y): y^2 + x + y
    q = p(2, {(2, 0): 1, (0, 1): 1})
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert q.substitute((y, x + y)) == y * y + x + y


def test_substitute_without_generators():
    c = Poly.constant(0, 5)
    assert c.substitute([]) == c
    assert Poly.zero(0).substitute(()) == Poly.zero(0)


def test_substitute_validation():
    q = Poly.variable(2, 0)
    with pytest.raises(ValueError, match="need 2 images"):
        q.substitute((q,))
    with pytest.raises(ValueError, match="different rings"):
        q.substitute((Poly.variable(2, 0), Poly.variable(3, 0)))


@settings(max_examples=40, deadline=None)
@given(polys(2), polys(2), image_polys(3), image_polys(3))
def test_substitute_is_a_ring_homomorphism(a, b, img0, img1):
    images = (img0, img1)
    assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)
    assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)


def test_substitute_identity_images():
    q = p(2, {(2, 1): 3, (0, 1): -1})
    ident = (Poly.variable(2, 0), Poly.variable(2, 1))
    assert q.substitute(ident) == q


# -- coefficient ------------------------------------------------------------


def test_coefficient_lookup():
    q = p(2, {(1, 1): 2})
    assert q.coefficient((1, 1)) == 2
    assert q.coefficient((0, 0)) == 0


# -- JSON -------------------------------------------------------------------


def test_to_json_descending_order_and_strings():
    q = p(2, {(1, 1): 2, (2, 0): -1})
    assert q.to_json() == [
        {"coeff": "2", "exps": ["1", "1"]},
        {"coeff": "-1", "exps": ["2", "0"]},
    ]
    assert Poly.zero(2).to_json() == []


@settings(max_examples=60, deadline=None)
@given(polys(3))
def test_json_round_trip(a):
    assert Poly.from_json(3, a.to_json()) == a


def test_from_json_accepts_bare_ints():
    q = Poly.from_json(1, [{"coeff": 2, "exps": [1]}])
    assert q.terms == {(1,): 2}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"not": "a list"}, "must be a list"),
        (["x"], "expected an object"),
        ([{"coeff": "1"}], "needs 'coeff' and 'exps'"),
        ([{"coeff": "1", "exps": ["1"], "z": 1}], "unknown keys"),
        ([{"coeff": "0", "exps": ["1"]}], "zero coefficient"),
        ([{"coeff": "1", "exps": "1"}], "exps must be a list"),
        ([{"coeff": "1", "exps": ["1", "0"]}], "2 exponents, expected 1"),
        ([{"coeff": "1", "exps": ["-1"]}], "negative exponent"),
        ([{"coeff": "1.5", "exps": ["1"]}], "decimal string"),
        ([{"coeff": True, "exps": ["1"]}], "boolean"),
        (
            [
                {"coeff": "1", "exps": ["1"]},
                {"coeff": "1", "exps": ["2"]},
            ],
            "descending canonical order",
        ),
        (
            [
                {"coeff": "1", "exps": ["2"]},
                {"coeff": "1", "exps": ["2"]},
            ],
            "descending canonical order",
        ),
    ],
)
def test_from_json_rejects_malformed_input(data, message):
    with pytest.raises(PolyJSONError, match=message):
        Poly.from_json(1, data)
