"""Sparse multivariate polynomials over Z.

All generators in this package sit in cohomological degree 2, so everything
commutes and there are no Koszul signs.  Internally we grade by *weight*
(the exponent sum), which is half the cohomological degree.  Coefficients
are plain Python ints, i.e. arbitrary precision; intermediate values in the
isomorphism search can exceed 64 bits and nothing here may overflow.

A monomial is a tuple of non-negative exponents, one slot per generator.
A ``Poly`` maps monomials to non-zero coefficients; the zero polynomial has
an empty term map, and two polynomials are equal iff their term maps are.

The monomial order used everywhere is graded lexicographic with the *last*
generator heaviest: compare total degree first, then exponents read from the
last slot down.  The quotient rewriting in :mod:`cptower.towers` strictly
decreases this order, which is what makes its reduction terminate.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence

Monomial = tuple  # tuple[int, ...]

_DECIMAL_RE = re.compile(r"-?[0-9]+\Z")


def monomial_key(exps: Sequence[int]):
    """Sort key realising the order described in the module docstring."""
    return (sum(exps), tuple(exps)[::-1])


class PolyJSONError(ValueError):
    """Raised for malformed serialized polynomials."""


def _parse_int(value, what: str) -> int:
    """Accept an int or a decimal string (the JSON interfaces emit strings
    so 64-bit-challenged consumers never truncate).  Strings, what command
    lines and documents hold, are tested first."""
    if isinstance(value, str) and _DECIMAL_RE.match(value):
        try:
            return int(value)
        except ValueError:  # longer than the interpreter's digit limit
            raise PolyJSONError(f"{what} has {len(value)} characters, too "
                                "long a decimal to read") from None
    if isinstance(value, bool):
        raise PolyJSONError(f"{what} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    raise PolyJSONError(f"{what} must be an integer or decimal string, got {value!r}")


class Poly:
    """Immutable sparse polynomial with integer coefficients.

    Instances are never mutated after construction and are safe to share
    between threads and processes.  Do not poke at ``terms`` in place.
    Each coefficient is exactly an ``int``; a float or bool is refused.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        self.nvars = nvars
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    raise ValueError(
                        f"coefficient of {mono} must be an int, got {coeff!r}"
                    )
                if coeff == 0:
                    continue
                if len(mono) != nvars:
                    raise ValueError(
                        f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                    )
                if nvars and min(mono) < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                clean[tuple(mono)] = coeff
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} vars")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: int = 1) -> "Poly":
        return cls(nvars, {tuple(exps): coeff})

    # -- basic protocol ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"Poly({self.nvars}, 0)"
        parts = ", ".join(
            f"{mono}: {coeff}" for mono, coeff in self.sorted_terms(reverse=True)
        )
        return f"Poly({self.nvars}, {{{parts}}})"

    def sorted_terms(self, reverse: bool = False) -> list[tuple[Monomial, int]]:
        return sorted(
            self.terms.items(), key=lambda item: monomial_key(item[0]), reverse=reverse
        )

    def leading(self) -> tuple[Monomial, int]:
        """Largest monomial and its coefficient; error on the zero poly."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=monomial_key)
        return mono, self.terms[mono]

    # -- degrees ----------------------------------------------------------

    def weight(self) -> int:
        """Largest exponent sum among the terms (zero poly has weight 0)."""
        return max((sum(m) for m in self.terms), default=0)

    def homogeneous_weight(self) -> int | None:
        """The common weight of all terms, or None if mixed.

        The zero polynomial is homogeneous of every weight; it reports 0.
        """
        weights = set(map(sum, self.terms))
        if not weights:
            return 0
        if len(weights) == 1:
            return weights.pop()
        return None

    def is_homogeneous(self, w: int) -> bool:
        return {w}.issuperset(map(sum, self.terms))

    # -- arithmetic -------------------------------------------------------

    def _check_same_ring(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"generator count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = terms.get(mono, 0) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return Poly(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Poly(self.nvars)
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                c = terms.get(mono, 0) + c1 * c2
                if c:
                    terms[mono] = c
                else:
                    del terms[mono]
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """Square and multiply: ``p ** n`` takes floor(log2 n) + popcount(n)
        - 1 products, none of them by the constant 1."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.constant(self.nvars, 1)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Evaluate with generator k replaced by ``images[k]``.

        All images must live in one common target ring; the result lives
        there too.  Each term is its coefficient times ``images[k] ** e``
        for each non-zero exponent e.  This is the workhorse behind
        isomorphism verification.
        """
        if len(images) != self.nvars:
            raise ValueError(
                f"need {self.nvars} images, got {len(images)}"
            )
        target_nvars = images[0].nvars if images else 0
        if any(img.nvars != target_nvars for img in images):
            raise ValueError("images live in different rings")
        result = Poly(target_nvars)
        for mono, coeff in self.terms.items():
            term = Poly.constant(target_nvars, coeff)
            for img, e in zip(images, mono):
                if e:
                    term = term * img ** e
            result = result + term
        return result

    def coefficient(self, exps: Sequence[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list:
        """Term list in descending monomial order (leading term first).

        Every integer is emitted as a decimal string; see the CLI notes on
        53-bit-safe JSON.
        """
        return [
            {"coeff": str(coeff), "exps": [str(e) for e in mono]}
            for mono, coeff in self.sorted_terms(reverse=True)
        ]

    @classmethod
    def from_json(cls, nvars: int, data) -> "Poly":
        """Strict parser for the term-list format.

        Rejects zero coefficients, wrong exponent counts, duplicates and
        out-of-order terms rather than silently normalizing: the canonical
        order is part of the interchange format.
        """
        if not isinstance(data, list):
            raise PolyJSONError("polynomial must be a list of terms")
        terms: dict[Monomial, int] = {}
        prev_key = None
        for idx, item in enumerate(data, start=1):
            where = f"term {idx}"
            if not isinstance(item, dict):
                raise PolyJSONError(f"{where}: expected an object")
            extra = set(item) - {"coeff", "exps"}
            if extra:
                raise PolyJSONError(f"{where}: unknown keys {sorted(extra)}")
            if "coeff" not in item or "exps" not in item:
                raise PolyJSONError(f"{where}: needs 'coeff' and 'exps'")
            coeff = _parse_int(item["coeff"], f"{where}: coeff")
            if coeff == 0:
                raise PolyJSONError(f"{where}: zero coefficient not permitted")
            exps = item["exps"]
            if not isinstance(exps, list):
                raise PolyJSONError(f"{where}: exps must be a list")
            if len(exps) != nvars:
                raise PolyJSONError(
                    f"{where}: {len(exps)} exponents, expected {nvars}"
                )
            mono = tuple(
                _parse_int(e, f"{where}: exponent {j + 1}")
                for j, e in enumerate(exps)
            )
            if any(e < 0 for e in mono):
                raise PolyJSONError(f"{where}: negative exponent")
            key = monomial_key(mono)
            if prev_key is not None and key >= prev_key:
                raise PolyJSONError(
                    f"{where}: terms must be in strictly descending canonical order"
                )
            prev_key = key
            terms[mono] = coeff
        return cls(nvars, terms)
