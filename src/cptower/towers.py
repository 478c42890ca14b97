"""Quotient presentations of projective-tower cohomology rings.

A tower is built stage by stage: stage k projectivizes a rank-(n_k+1)
complex bundle over the stage-(k-1) total space and contributes one new
degree-2 generator x_k with the single relation

    x_k^(n_k+1) + c_1 x_k^(n_k) + c_2 x_k^(n_k-1) + ... + c_(n_k+1) = 0,

where c_i are the Chern classes of the stage bundle, polynomials in the
earlier generators.  (The generators are the duals of the stage tautological
classes, which is what makes all the signs come out positive.)  Iterating
gives H* of the tower as Z[x_1..x_m] modulo one such relation per stage.
``presentation`` builds all the relations in one pass; it builds the ring
of a base only for a stage whose Chern classes have a monomial above that
base's caps, to reduce them there.

Reduction to normal form rewrites x_k^(n_k+1) by the relation tail.  Each
rewrite strictly decreases the monomial order of :mod:`cptower.polyring`
(the tail involves lower powers of x_k and earlier generators only), so the
process terminates; and because the leading monomials x_k^(n_k+1) are powers
of pairwise distinct variables, the rewriting system is confluent -- the
normal form does not depend on the rewrite order; the tests re-derive
products with a deliberately different strategy and compare the two.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from operator import add, gt

from .polyring import Monomial, Poly, PolyJSONError, _parse_int


class TowerSpecError(ValueError):
    """Malformed tower description."""


class DualityError(ArithmeticError):
    """A pairing matrix that should have been unimodular was not."""


# The largest fiber dimension a stage may have: a stage's n + 1 Chern
# classes, and the time a search over its ring takes, grow with n.
MAX_FIBER_DIM = 1_000
# The most exponents (monomials times generators) a graded basis lists.
# Each costs about 35 bytes and at most 0.5 us to build, so a basis at the
# limit takes about 70 MB and under 1 s; (CP^1)^1100 in degree 2 has 1.21
# million.
MAX_BASIS_EXPONENTS = 2_000_000
# The most exponents a tower's presentation writes: g stages give g
# relations, relation k one term more than stage k has Chern terms, each
# term g exponents, so g * (g + Chern terms) in all.  Checked before
# anything is built; (CP^1)^1100 writes 1.21 million, and ``cpt ring`` of
# 4,000 CP^1 stages (16 million) took 3.7 s and 150 MB before the limit.
MAX_TOWER_EXPONENTS = 2_000_000


class Stage(namedtuple("Stage", "fiber_dim chern")):
    """One projectivization step.

    ``fiber_dim`` is n_k (the fiber is CP^{n_k}); ``chern`` lists the
    n_k + 1 Chern classes c_1..c_(n_k+1) of the stage bundle, polynomials in
    the k-1 earlier generators.  It also equals a plain tuple of its fields.
    """

    __slots__ = ()


def _check_stage(idx: int, stage: Stage) -> int:
    """Raise TowerSpecError unless ``stage`` fits as stage ``idx`` (from 1)
    of a tower: its fiber size, exactly an ``int`` and checked first, and
    its Chern classes, in the idx - 1 earlier generators and homogeneous of
    their degrees.  Returns the number of its Chern terms."""
    base_gens = idx - 1
    n, chern = stage
    if type(n) is not int:
        raise TowerSpecError(f"stage {idx} fiber_dim must be an int, got {n!r}")
    if n < 1:
        raise TowerSpecError(
            f"stage {idx} fiber_dim must be at least 1 (fiber at least CP^1)"
        )
    if n > MAX_FIBER_DIM:
        raise TowerSpecError(
            f"stage {idx} fiber_dim {n} is above the limit of {MAX_FIBER_DIM}"
        )
    if len(chern) != n + 1:
        raise TowerSpecError(
            f"stage {idx} expects {n + 1} chern classes, got {len(chern)}"
        )
    terms = 0
    for i, c in enumerate(chern, start=1):
        if c.nvars != base_gens:
            raise TowerSpecError(
                f"stage {idx} chern entry {i} must be a polynomial in "
                f"{base_gens} generators, got {c.nvars}"
            )
        # the zero class, the most common one, is homogeneous of any degree
        if c.terms and not c.is_homogeneous(i):
            raise TowerSpecError(
                f"stage {idx} chern entry {i} must be homogeneous of "
                f"cohomological degree {2 * i}"
            )
        terms += len(c.terms)
    return terms


def _check_tower_size(g: int, terms: int) -> None:
    """Refuse a tower of ``g`` stages with ``terms`` Chern terms in all
    whose presentation is above :data:`MAX_TOWER_EXPONENTS`."""
    if g * (g + terms) > MAX_TOWER_EXPONENTS:
        raise TowerSpecError(
            f"a tower of {g} stages and {terms} chern terms has "
            f"{g * (g + terms)} presentation exponents, above the limit of "
            f"{MAX_TOWER_EXPONENTS}"
        )


class TowerSpec(namedtuple("TowerSpec", "stages")):
    """A tower's stages, checked on every path (``_make``, ``_replace``,
    unpickling too); as a namedtuple it also equals ``(stages,)``.  Any
    iterable of stages is taken, each checked as it is taken (so a generator
    parses stage k + 1 only after stage k passed), and stored as a tuple."""

    __slots__ = ()

    def __new__(cls, stages):
        checked, terms = [], 0
        for idx, stage in enumerate(stages, start=1):
            terms += _check_stage(idx, stage)
            checked.append(stage)
        _check_tower_size(len(checked), terms)
        return super().__new__(cls, tuple(checked))

    # namedtuple's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def ngens(self) -> int:
        return len(self.stages)

    @property
    def real_dimension(self) -> int:
        return 2 * sum(s.fiber_dim for s in self.stages)


class RingPresentation:
    """Z[x_1..x_g] modulo one monic relation per generator.

    ``caps[k]``, exactly an ``int`` (a float, bool or string is refused,
    not rounded), is the largest surviving exponent of x_{k+1}; the reduced
    monomial basis is every exponent tuple below the caps and has
    prod(caps[k]+1) elements.  Instances are immutable (the only interior
    state is a memo table for monomial normal forms, which is a pure cache).
    ``weights[k]`` is the common weight of relation k's terms, or None when
    they are mixed (computed once, here).

    The constructor sorts each relation's terms once, and that one pass
    gives the relation's identity, its rewriting tail, its weight and the
    monic check: x_k^(cap+1) leads with coefficient 1 exactly when every
    other term is lighter, or as heavy with no generator after x_k (the
    order of :mod:`cptower.polyring`).

    ``identity`` is the presentation's canonical identity: the caps and each
    relation's terms in sorted order, as nested tuples of ints.  Two
    presentations are equal exactly when their identities are, since every
    relation has ``len(caps)`` variables.  ``==``, ``hash`` (computed once,
    here) and the verdict-cache key (``catalog._cache_key``) all read
    it, so they cannot disagree.
    """

    def __init__(self, caps: Sequence[int], relations: Sequence[Poly]):
        caps = tuple(caps)
        relations = tuple(relations)
        g = len(caps)
        if len(relations) != g:
            raise ValueError("need one relation per generator")
        tails: list[list[tuple[Monomial, int]]] = []
        weights: list[int | None] = []
        keys: list[tuple] = []
        for k, (cap, rel) in enumerate(zip(caps, relations)):
            if type(cap) is not int:
                raise ValueError(
                    f"cap for generator {k + 1} must be an int, got {cap!r}"
                )
            if cap < 1:
                raise ValueError(f"cap for generator {k + 1} must be >= 1")
            if rel.nvars != g:
                raise ValueError("relations must live in the full ambient ring")
            top = cap + 1
            lead = (0,) * k + (top,) + (0,) * (g - k - 1)
            # the monic check of the class docstring
            monic = rel.terms.get(lead) == 1
            weight = top
            tail = []
            items = sorted(rel.terms.items())
            for m, c in items:
                if m != lead:
                    w = sum(m)
                    if w != top:
                        weight = None
                        if w > top:
                            monic = False
                    elif any(m[k + 1:]):
                        monic = False
                    tail.append((m, c))
            if not monic:
                raise ValueError(
                    f"relation {k + 1} must be monic with leading monomial "
                    f"x_{k + 1}^{top}"
                )
            tails.append(tail)
            weights.append(weight)
            keys.append(tuple(items))
        self.caps = caps
        self.relations = relations
        self.ngens = g
        self.weights = tuple(weights)
        self._tails = tails
        self.identity = (caps, tuple(keys))
        self._hash = hash(self.identity)
        self._nf_memo: dict[Monomial, dict[Monomial, int]] = {}
        # homogeneous relations grade the ring, which is 0 above this weight
        self._top_weight = sum(caps) if None not in self.weights else None
        # convolution of (1, 1, ..., 1) blocks, one per stage: each new
        # coefficient is a running sum of the last cap + 1 old ones
        coeffs = [1]
        for cap in caps:
            padded = coeffs + [0] * cap
            run, coeffs = 0, []
            for i, c in enumerate(padded):
                run += c
                if i > cap:
                    run -= padded[i - cap - 1]
                coeffs.append(run)
        self._poincare = tuple(coeffs)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingPresentation):
            return NotImplemented
        return self._hash == other._hash and self.identity == other.identity

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"RingPresentation(caps={self.caps})"

    @property
    def top_degree(self) -> int:
        return 2 * sum(self.caps)

    @property
    def rank(self) -> int:
        r = 1
        for cap in self.caps:
            r *= cap + 1
        return r

    # -- normal form ------------------------------------------------------

    def _reduce_monomial(self, mono: Monomial) -> dict[Monomial, int]:
        """Normal form of a single monomial as a term dict.

        Rewrites the highest offending generator first; by confluence (see
        module docstring) any choice gives the same answer, and a dense
        oracle in the tests double-checks that.  A rewrite chain can be as
        long as the top weight, so it runs on an explicit stack: a monomial
        is expanded into its rewrites, which are reduced first.  With
        homogeneous relations a monomial above the top weight is 0 at once.
        """
        memo = self._nf_memo
        done = memo.get(mono)
        if done is not None:
            return done
        if self._top_weight is not None and sum(mono) > self._top_weight:
            return {}
        caps, tails = self.caps, self._tails
        stack: list = [(mono, None)]
        while stack:
            cur, rewrites = stack.pop()
            if rewrites is not None:  # its rewrites are reduced: combine
                result: dict[Monomial, int] = {}
                for shifted, tail_coeff in rewrites:
                    for m, c in memo[shifted].items():
                        acc = result.get(m, 0) - tail_coeff * c
                        if acc:
                            result[m] = acc
                        else:
                            del result[m]
                memo[cur] = result
            elif cur not in memo:
                k = self.ngens - 1
                while k >= 0 and cur[k] <= caps[k]:
                    k -= 1
                if k < 0:
                    memo[cur] = {cur: 1}
                    continue
                # cur = x_k^(cap+1) * rest: replace the power by minus the tail
                rest = list(cur)
                rest[k] -= caps[k] + 1
                rewrites = [(tuple(map(add, rest, tail_mono)), tail_coeff)
                            for tail_mono, tail_coeff in tails[k]]
                stack.append((cur, rewrites))
                stack += [(m, None) for m, _ in rewrites if m not in memo]
        return memo[mono]

    def normal_form(self, p: Poly) -> Poly:
        """Unique representative supported on the reduced monomial basis."""
        if p.nvars != self.ngens:
            raise ValueError(
                f"polynomial has {p.nvars} generators, presentation has {self.ngens}"
            )
        acc: dict[Monomial, int] = {}
        for mono, coeff in p.terms.items():
            for m, c in self._reduce_monomial(mono).items():
                v = acc.get(m, 0) + coeff * c
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return Poly(self.ngens, acc)

    # -- graded structure -------------------------------------------------

    def graded_basis(self, degree: int) -> list[Monomial]:
        """Reduced-basis monomials of the given cohomological degree, in
        the canonical order: prefixes grow from the last generator to the
        first, exponents ascending, each kept as its exponent and parent index."""
        if degree < 0 or degree % 2 or degree > self.top_degree:
            return []
        w, room = degree // 2, sum(self.caps)
        if self._poincare[w] * self.ngens > MAX_BASIS_EXPONENTS:
            raise ValueError(
                f"the degree-{degree} basis has {self._poincare[w]} monomials "
                f"of {self.ngens} exponents, above the limit of "
                f"{MAX_BASIS_EXPONENTS} exponents"
            )
        levels, lefts = [], [w]  # per prefix, the weight still to place
        for cap in reversed(self.caps):
            room -= cap  # what the generators before this one can take
            exps, parents, nxt = [], [], []
            for i, left in enumerate(lefts):  # keep what the caps can complete
                for e in range(max(0, left - room), min(cap, left) + 1):
                    exps.append(e)
                    parents.append(i)
                    nxt.append(left - e)
            levels.append((exps, parents))
            lefts = nxt
        columns, picked = [], range(len(lefts))
        for exps, parents in reversed(levels):  # the first generator first
            columns.append([exps[i] for i in picked])
            picked = [parents[i] for i in picked]
        return list(zip(*columns)) if columns else [()]

    def poincare(self) -> tuple[int, ...]:
        """Ranks of the graded pieces in degrees 0, 2, ..., top (computed
        once, in the constructor)."""
        return self._poincare

    def top_monomial(self) -> Monomial:
        return tuple(self.caps)

    def graded_basis_all(self) -> list[Monomial]:
        """The full reduced basis, degree by degree."""
        out: list[Monomial] = []
        for degree in range(0, self.top_degree + 2, 2):
            out.extend(self.graded_basis(degree))
        return out

    def top_pairing_matrix(self, degree: int) -> list[list[int]]:
        """Pairing of degree ``degree`` against its complementary degree.

        Entry [i][j] is the coefficient of the top basis monomial in the
        product of the i-th basis monomial of ``degree`` with the j-th basis
        monomial of ``top_degree - degree``.  For these quotients the matrix
        is a Poincare-duality pairing and must be unimodular; a non-unit
        determinant raises :class:`DualityError`.
        """
        rows_basis = self.graded_basis(degree)
        cols_basis = self.graded_basis(self.top_degree - degree)
        top = self.top_monomial()
        matrix: list[list[int]] = []
        for bm in rows_basis:
            row = []
            for cm in cols_basis:
                prod = tuple(a + b for a, b in zip(bm, cm))
                row.append(self._reduce_monomial(prod).get(top, 0))
            matrix.append(row)
        if rows_basis and cols_basis:
            if len(rows_basis) != len(cols_basis):
                raise DualityError(
                    f"pairing in degree {degree} is not square "
                    f"({len(rows_basis)}x{len(cols_basis)})"
                )
            if matrix_det(matrix) not in (1, -1):
                raise DualityError(
                    f"pairing in degree {degree} has determinant "
                    f"{matrix_det(matrix)}, expected a unit"
                )
        return matrix

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "caps": [str(c) for c in self.caps],
            "relations": [rel.to_json() for rel in self.relations],
        }


def presentation(spec: TowerSpec) -> RingPresentation:
    """Build the iterated quotient presentation for a tower description.

    Chern classes are stored already reduced, in normal form in the
    presentation of the base below their stage.  A monomial within the
    base's caps is already in normal form (every leading monomial is a pure
    power beyond a cap), so a base ring is built, and the stage's classes
    reduced in it, only for a stage with a Chern monomial above the caps so
    far.
    """
    stages = spec.stages
    g = len(stages)
    caps: list[int] = []
    relations: list[Poly] = []
    for k, (n, chern) in enumerate(stages):
        if _above_caps(chern, caps):
            base = RingPresentation(caps, [_restrict(r, k) for r in relations])
            chern = [base.normal_form(c) for c in chern]
        # c_i shifts by x_k^(n+1-i): the exponents of x_k are all distinct,
        # so no two terms meet
        pad = (0,) * (g - k - 1)
        terms: dict[Monomial, int] = {(0,) * k + (n + 1,) + pad: 1}
        for i, c in enumerate(chern, start=1):
            if c.terms:
                shift = (n + 1 - i,) + pad
                for mono, coeff in c.terms.items():
                    terms[mono + shift] = coeff
        caps.append(n)
        relations.append(Poly(g, terms))
    return RingPresentation(caps, relations)


def _above_caps(chern: Sequence[Poly], caps: Sequence[int]) -> bool:
    """Whether a monomial of some class in ``chern`` has an exponent above
    its generator's cap."""
    for c in chern:
        for mono in c.terms:
            if any(map(gt, mono, caps)):
                return True
    return False


def _restrict(p: Poly, nvars: int) -> Poly:
    """Drop unused trailing generators (they must not occur)."""
    terms = {}
    for mono, coeff in p.terms.items():
        if any(mono[nvars:]):
            raise ValueError("polynomial uses generators beyond the restriction")
        terms[mono[:nvars]] = coeff
    return Poly(nvars, terms)


# -- integer determinants --------------------------------------------------


def matrix_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a small integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# -- JSON ------------------------------------------------------------------


def towerspec_to_json(spec: TowerSpec) -> dict:
    return {
        "stages": [
            {
                "fiber_dim": str(stage.fiber_dim),
                "chern": [c.to_json() for c in stage.chern],
            }
            for stage in spec.stages
        ]
    }


def towerspec_from_json(data) -> TowerSpec:
    """Parse a tower description, with stage-anchored error messages.

    A Chern exponent list may be shorter or longer than the stage's
    generator count; a non-zero extra exponent is reported as e.g.
    ``stage 2 chern references generator 3``.
    """
    if not isinstance(data, dict):
        raise TowerSpecError("tower spec must be an object")
    extra = set(data) - {"stages", "schema"}
    if extra:
        raise TowerSpecError(f"unknown keys {sorted(extra)}")
    schema = data.get("schema")
    if schema is not None and schema != "cpt/1":
        raise TowerSpecError(f"unsupported schema {schema!r}")
    stages_raw = data.get("stages")
    if not isinstance(stages_raw, list) or not stages_raw:
        raise TowerSpecError("tower spec needs a non-empty 'stages' list")
    # the Chern terms as listed, before any is read (a malformed entry counts
    # none and is refused below)
    _check_tower_size(len(stages_raw), sum(
        len(entry)
        for raw in stages_raw if isinstance(raw, dict)
        and isinstance(raw.get("chern"), list)
        for entry in raw["chern"] if isinstance(entry, list)
    ))
    return TowerSpec(
        _parse_stage(idx, raw) for idx, raw in enumerate(stages_raw, start=1)
    )


def _parse_stage(idx: int, raw) -> Stage:
    """Stage ``idx`` of a tower file, parsed but not yet checked."""
    if not isinstance(raw, dict):
        raise TowerSpecError(f"stage {idx} must be an object")
    unknown = set(raw) - {"fiber_dim", "chern"}
    if unknown:
        raise TowerSpecError(f"stage {idx}: unknown keys {sorted(unknown)}")
    if "fiber_dim" not in raw:
        raise TowerSpecError(f"stage {idx}: missing fiber_dim")
    try:
        n = _parse_int(raw["fiber_dim"], "fiber_dim")
    except ValueError:
        raise TowerSpecError(f"stage {idx}: fiber_dim must be an integer")
    chern_raw = raw.get("chern", [])
    if not isinstance(chern_raw, list):
        raise TowerSpecError(f"stage {idx}: chern must be a list")
    base_gens = idx - 1
    chern: list[Poly] = []
    for i, entry in enumerate(chern_raw, start=1):
        try:
            fitted = _fit_terms(entry, base_gens, idx)
            chern.append(Poly.from_json(base_gens, fitted))
        except PolyJSONError as exc:
            raise TowerSpecError(f"stage {idx} chern entry {i}: {exc}")
    return Stage(fiber_dim=n, chern=tuple(chern))


def _fit_terms(entry, base_gens: int, idx: int):
    """Stage ``idx``'s Chern entry with each ``exps`` list fitted to its
    ``base_gens`` generators: padded with zeros, or cut after its extra
    exponents are read and found to be zero."""
    if not isinstance(entry, list):
        return entry  # Poly.from_json refuses it
    fitted = []
    for t, item in enumerate(entry, start=1):
        if not isinstance(item, dict) or "coeff" not in item or "exps" not in item:
            raise PolyJSONError(f"term {t}: needs 'coeff' and 'exps'")
        exps = item["exps"]
        if isinstance(exps, list) and len(exps) != base_gens:
            for j in range(base_gens, len(exps)):
                e = _parse_int(exps[j], f"term {t}: exponent {j + 1}")
                if e < 0:
                    raise PolyJSONError(f"term {t}: negative exponent")
                if e:
                    raise TowerSpecError(
                        f"stage {idx} chern references generator {j + 1}"
                    )
            item = {**item, "exps": exps[:base_gens] + [0] * (base_gens - len(exps))}
        fitted.append(item)
    return fitted
