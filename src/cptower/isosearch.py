"""Graded ring isomorphism between quotient presentations, by bounded
exhaustive search over unimodular integer matrices.

All generators sit in degree 2, so a candidate ring map is a g x g integer
matrix M; column k holds the coordinates of the image of source generator k
in the target generators.  M is a certificate when |det M| = 1 and every
source relation maps into the target ideal (i.e. reduces to zero).  That
suffices for a ring isomorphism here: a degree-preserving map carrying the
degree-2 lattice onto itself by a unimodular matrix is surjective because
the rings are generated in degree 2, and a graded surjection between free
graded rings of equal finite rank per degree is injective as well.

A ``none_within_bound`` verdict's reason says how strong it is:
``betti_mismatch`` (different Poincare series) is a proof at every bound,
while ``exhausted`` is only *bounded* non-existence over entries in [-B, B].
Reports should label the latter "bounded non-existence".

Enumeration order is part of the contract: matrices are tried in
lexicographic order of the column-major flattened entry vector, entries
running -B..B, so runs are reproducible bit for bit.  The engine places
whole columns left to right, each drawn from the box of (2B+1)^g candidate
columns.  One budget, ``MAX_SEARCH_CELLS``, bounds what each target
holds: the box's power tables and the target's basis, counted from the
Poincare series before anything is built (:func:`table_cells`), and one
store that keeps image indexes of (b) and children of interior walk nodes
while the room they leave lasts, and never drops one.  :func:`admit`
refuses a search above it up front, on the box alone whatever the pair,
then on the target's tables.  The budget does not count the packed power
coordinates (``_Lanes``), whose lanes grow with the packed images: 3 x
CP^20 at bound 2 is within it and took 85 MB.  The engine skips no
certificate, so the first matrix it finds is the one the plain flat
enumeration of the whole entry box finds; the tests compare the two
engines directly.  Its work is split by what it
depends on:

(a) per target, shared by consecutive searches: the powers L_c, L_c^2, ...
    of the linear form of every box column c, in the target's graded basis
    (``_BoxPowers``; a one-slot cache keeps the latest target's), and the
    one product table ``fold(a, e)``: each weight-a basis element times
    L^e, as (row in weight a + e, power coordinate, coefficient) triples,
    which also makes the powers.  Relations must be homogeneous (the
    search refuses others), so source relation d has weight cap_d + 1,
    mentions only x_0..x_d and is checked at depth d.
    Equal Poincare series, which a search needs, give equal caps, so no
    source exponent passes max(caps) + 1 and the tables depend on the
    target and the bound alone.  Per source, one walk plan
    (``_relation_splits``) splits each relation by the powers of its last
    generator, keeps only non-zero exponents and takes its ranks from the
    source's Poincare series; it lives as long as the source presentation,
    and the target makes each fold the plan names on first use;
(b) per prefix node: relation d, written sum_e x_d^e * P_e(x_0..x_(d-1)),
    has its prefix parts P_e evaluated once, to values q_e (products of
    prefix powers, by ``fold``).  By ``fold`` again they fold into one
    dense integer matrix A and one target vector t such that the image
    at candidate c vanishes exactly when A (L_c, L_c^2, ...) = t.  The same
    A recurs at many nodes, so each target stores an index per A: one
    sorted list of lanes, each a column's image, packed into one exact
    integer, with the column's box index in its low bits.  It is built for
    all columns at once: the target also keeps its power values as big
    integers with one lane of bits per box column (``_Lanes``), so a few
    big-integer products put every column's lane in place, and one plain
    sort of the lanes is the index (``_image_index``).  The index is keyed
    by the node's non-zero q_e, e >= 1, which fix A, so A is built only
    when its index is.  A node's surviving columns are one slice, found by
    bisection at t and t + 1 (``_survivors``), at every depth, of a list of
    box indices that the build masks from the sorted lanes.  Each node also
    carries the exterior product of its placed columns (``_wedge``: every
    maximal minor, keyed by its row set); a candidate that empties it makes
    the placed columns linearly dependent, so every completion has det 0
    and it is dropped.  An interior node (depth 1 to g - 2) depends only
    on its source relation and its prefix, so the target stores the
    children it found, each a box index with its grown wedge, keyed by
    (plan entry, prefix box indices), and every later source with that
    relation at that depth, whose plan entry is then equal, reads them
    back.  Indexes and children share the one store
    (``_BoxPowers.store``), and so the budget;
(c) at the last depth det M = cof . c is linear in the last column c, with
    cof[i] = (-1)^(g-1-i) times the wedge's minor on every row but i, so
    the survivors are kept when cof . c = +-1.

Every certificate the engine yields is re-checked by :func:`verify`, which
substitutes the matrix's linear forms into each relation (``Poly.substitute``)
and reduces the result directly, with no tables, plan or walk.  The two
paths share one piece: both reduce monomials by
``RingPresentation._reduce_monomial``, the engine through ``_BoxPowers.fold``
and ``verify`` through ``normal_form``; the tests check that reduction
against a dense multiplication table built independently.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import product, repeat
from operator import add, and_, itemgetter, mul, neg, sub

from .polyring import Poly
from .towers import RingPresentation, matrix_det

Matrix = tuple  # tuple[tuple[int, ...], ...] -- rows


class IsoShapeError(ValueError):
    """Presentations or matrices of incompatible shape (a caller bug, as
    opposed to a legitimate negative verdict)."""


class SearchVerdict(namedtuple("SearchVerdict", "result matrix det bound reason")):
    """``result`` is "found" (with ``matrix`` and its ``det``) or
    "none_within_bound" with ``reason`` "betti_mismatch" (a proof, at any
    bound) or "exhausted" (bounded only).  Only :func:`search` decides.
    As a namedtuple it also equals the plain tuple of its fields."""

    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.result == "found"

    def to_json(self) -> dict:
        if self.found:
            return {
                "result": "found",
                "matrix": [[str(e) for e in row] for row in self.matrix],
                "det": str(self.det),
            }
        return {
            "result": "none_within_bound",
            "bound": str(self.bound),
            "reason": self.reason,
        }


# -- verification ----------------------------------------------------------


def _check_matrix(g: int, rows) -> Matrix:
    """The one certificate rule: g rows of g entries (checked first), each
    exactly an ``int``, so a float, bool or decimal string is refused."""
    try:
        mat = tuple(tuple(row) for row in rows)
    except TypeError:
        raise IsoShapeError(f"expected a {g}x{g} matrix") from None
    if len(mat) != g or any(len(row) != g for row in mat):
        raise IsoShapeError(f"expected a {g}x{g} matrix")
    if any(type(e) is not int for row in mat for e in row):
        raise IsoShapeError("matrix entries must be integers")
    return mat


def images_from_matrix(pres_b: RingPresentation, rows: Matrix) -> list[Poly]:
    """Column k as a linear form in the target generators."""
    g = pres_b.ngens
    units = [(0,) * i + (1,) + (0,) * (g - 1 - i) for i in range(g)]
    return [Poly(g, {units[i]: rows[i][k] for i in range(g)})
            for k in range(g)]


def verify(pres_a: RingPresentation, pres_b: RingPresentation, rows) -> bool:
    """Check a certificate the slow, direct way (substitute and reduce).

    Raises :class:`IsoShapeError` for mismatched generator counts, and for
    anything but a g x g matrix of ``int`` entries (:func:`_check_matrix`);
    returns False for a Poincare mismatch, which is a legitimate
    "trivially non-isomorphic" signal rather than a bug.
    """
    g = pres_a.ngens
    if pres_b.ngens != g:
        raise IsoShapeError(f"generator counts differ: {g} vs {pres_b.ngens}")
    mat = _check_matrix(g, rows)
    if pres_a.poincare() != pres_b.poincare():
        return False
    if matrix_det(mat) not in (1, -1):
        return False
    images = images_from_matrix(pres_b, mat)
    for rel in pres_a.relations:
        if not pres_b.normal_form(rel.substitute(images)).is_zero():
            return False
    return True


def invert_unimodular(rows: Matrix) -> Matrix:
    """Integer inverse of a matrix with det +-1 (via the adjugate)."""
    g = len(rows)
    mat = _check_matrix(g, rows)
    d = matrix_det(mat)
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, not a unit")
    inv = []
    for i in range(g):
        row = []
        for j in range(g):
            minor = [
                [mat[r][c] for c in range(g) if c != i]
                for r in range(g)
                if r != j
            ]
            row.append(d * (-1) ** (i + j) * matrix_det(minor))
        inv.append(tuple(row))
    return tuple(inv)


def compose(m_ab: Matrix, m_bc: Matrix) -> Matrix:
    """Certificate for A -> C from certificates A -> B and B -> C.

    Columns are images, so the composite matrix is the ordinary product
    (B -> C) . (A -> B); entries may leave the search bound, which is fine
    for verification.  Both must be g x g integer matrices, g the row
    count of ``m_ab``.
    """
    g = len(m_ab)
    m_ab, m_bc = _check_matrix(g, m_ab), _check_matrix(g, m_bc)
    return tuple(
        tuple(
            sum(m_bc[i][j] * m_ab[j][k] for j in range(g)) for k in range(g)
        )
        for i in range(g)
    )


# -- the search engine -----------------------------------------------------

# The most cells a search's target holds: its tables (:func:`table_cells`)
# and, in what they leave, its store of image indexes and interior walk
# nodes.  :func:`admit` refuses a search whose tables alone are larger.  The
# packed coordinates of ``_Lanes`` are not counted.  One search of a target
# on itself, timed in a fresh process, Python 3.11.7, 2-CPU x86-64 host:
# 3 x CP^20 at bound 2 (261,761 cells) takes 0.84 s and 85 MB max RSS, 25 MB
# once its tables are built, the rest mostly the packed coordinates of its
# first index; (CP^1)^5 at bound 3 (252,137 cells) 0.19 s and 33 MB.
MAX_SEARCH_CELLS = 300_000


def table_cells(pres_b: RingPresentation, bound: int) -> int:
    """The cells of the tables ``_BoxPowers`` builds for the target at
    ``bound``: for each of the (2B+1)^g box columns the coordinates of its
    powers L^1, ..., L^E, E = max(caps) + 1 (rank 0 past the top weight),
    plus the graded basis of every weight, the target's rank in all."""
    dims = pres_b.poincare()
    powers = sum(dims[1:max(pres_b.caps) + 2])
    return (2 * bound + 1) ** pres_b.ngens * powers + sum(dims)


def admit(pres_a: RingPresentation, pres_b: RingPresentation,
          bound: int) -> bool:
    """Refuse, before anything is built, a search outside the engine's
    preconditions or above the budget; otherwise say whether the Poincare
    series agree (if not, no unimodular map exists at any bound).  In order:
    a negative bound; the box, on the larger generator count g, as L^1 alone
    holds g cells per box column; the series; then, for equal series,
    non-homogeneous relations and, when tables are built (g, bound > 0),
    the target's :func:`table_cells`.  The box is multiplied out only while
    it can still fit: a larger one is named by its power, not in decimal."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    g = max(pres_a.ngens, pres_b.ngens)
    base, box = 2 * bound + 1, 1
    for _ in range(g):
        if box > MAX_SEARCH_CELLS:
            break
        box *= base
    else:
        cells = box * g
        if cells <= MAX_SEARCH_CELLS:
            if pres_a.poincare() != pres_b.poincare():
                return False
            if None in pres_a.weights or None in pres_b.weights:
                raise IsoShapeError("search needs homogeneous relations")
            cells = table_cells(pres_b, bound) if g and bound else 0
            if cells <= MAX_SEARCH_CELLS:
                return True
        if base <= MAX_SEARCH_CELLS:
            raise ValueError(
                f"bound {bound} with {g} generators gives a box of {box} "
                f"columns and tables of at least {cells} cells, above the "
                f"limit of {MAX_SEARCH_CELLS}"
            )
    if base > MAX_SEARCH_CELLS:  # too long to print
        bound, base = f"B of {bound.bit_length()} bits", "(2B+1)"
    raise ValueError(
        f"bound {bound} with {g} generators gives a box of {base}^{g} "
        f"columns, above the limit of {MAX_SEARCH_CELLS} cells"
    )


def _lincomb(n: int, terms) -> Iterator[int]:
    """Entrywise sum of coeff * values over the (coeff, values) pairs, each
    values of length n, lazily (the loops run in C)."""
    acc = repeat(0, n)
    for coeff, values in terms:
        if coeff != 1:
            values = map(coeff.__mul__, values)
        acc = map(add, acc, values)
    return acc


def _split_relation(rel: Poly, depth: int) -> tuple:
    """The parts of a homogeneous relation in x_0..x_depth: every exponent
    e of x_depth, ascending, paired with the tuple of terms that multiply
    its e-th power, each (coeff, ((i, x), ...)) over the earlier generators
    x_i whose exponent x is non-zero."""
    parts: dict[int, list] = {}
    for mono, coeff in rel.sorted_terms(reverse=True):
        pairs = tuple(filter(itemgetter(1), enumerate(mono[:depth])))
        parts.setdefault(mono[depth], []).append((coeff, pairs))
    return tuple(sorted((e, tuple(terms)) for e, terms in parts.items()))


# the walk plan of every source presentation; an entry dies with its
# presentation, so nothing here outlives the presentations in use.
_splits: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _relation_splits(pres: RingPresentation) -> tuple:
    """The walk plan of a source: per depth k, the entry (n, parts) for
    relation k, which leads with x_k^w, so it mentions only x_0..x_k.  n
    is the rank of weight w, from the source's Poincare series and rank 0
    one weight past the top (no parts then: the image is zero anyway); a
    search needs equal series, so these are the target's ``dims``.  Each
    part of x_k^e is its terms (:func:`_split_relation`) and its fold (w -
    e, e), None for e = 0.  Entries are tuples, and equal relations of
    admissible sources give equal entries, so an entry keys the target's
    walk nodes.  Made once per presentation (equal ones share it)."""
    plan = _splits.get(pres)
    if plan is None:
        dims = (*pres.poincare(), 0)
        plan = []
        for k, (w, rel) in enumerate(zip(pres.weights, pres.relations)):
            parts = _split_relation(rel, k) if dims[w] else ()
            plan.append((dims[w], tuple((terms, (w - e, e) if e else None)
                                        for e, terms in parts)))
        plan = _splits[pres] = tuple(plan)
    return plan


def _wedge(w: dict, col) -> dict:
    """The exterior product w ^ col.

    ``w`` maps a bitmask of row indices s to the minor of the placed
    columns on rows s (rows ascending, columns in placement order); zero
    minors are absent, so the placed columns are independent exactly when
    ``w`` is non-empty.  Expanding along the new last column gives the
    minor on rows s | 1 << i the term (-1)^(rows of s above i) w[s] col[i].
    """
    out: dict[int, int] = {}
    for s, m in w.items():
        for i, c in enumerate(col):
            if c and not s >> i & 1:
                term = -m * c if (s >> i).bit_count() & 1 else m * c
                key = s | 1 << i
                out[key] = out.get(key, 0) + term
    for s in [s for s, m in out.items() if not m]:
        del out[s]
    return out


# Lane item sizes in bytes, narrowest first, each with a native signed
# typecode of that size; its upper case is the unsigned one.  Sizes are
# read from ``array``, as the size of 'i' or 'l' differs between
# platforms.  A lane wider than the widest item spans several of its words.
_LANE_CODES = {array(code).itemsize: code for code in "bhilq"}
_LANE_SIZES = sorted(_LANE_CODES)


def _lane_size(bits: int) -> int:
    """Bytes per lane for lanes of ``bits`` bits: the narrowest item that
    holds them, else a multiple of the widest."""
    for size in _LANE_SIZES:
        if 8 * size >= bits:
            return size
    word = _LANE_SIZES[-1]
    return -(-bits // (8 * word)) * word


def _pack(ints, size: int) -> int:
    """sum_k ints[k] * 2^(8 size pos(k)), each 0 <= ints[k] < 2^(8 size):
    the lanes laid end to end in native byte order, so pos(k) is k on a
    little-endian host and the reverse on a big-endian one."""
    code = _LANE_CODES.get(size)
    if code:
        data = array(code.upper(), ints).tobytes()
    else:
        data = b"".join(map(int.to_bytes, ints, repeat(size),
                            repeat(sys.byteorder)))
    return int.from_bytes(data, sys.byteorder)


def _unpack(packed: int, n: int, size: int) -> list:
    """The n lanes of ``packed``, laid out as :func:`_pack` lays them, in
    position order, each read as a two's complement integer."""
    data = packed.to_bytes(n * size, sys.byteorder)
    code = _LANE_CODES.get(size)
    if code:
        return memoryview(data).cast(code).tolist()
    return [int.from_bytes(data[i:i + size], sys.byteorder, signed=True)
            for i in range(0, len(data), size)]


class _Lanes:
    """The box's power values as big integers with one lane per box
    column, made on first use per lane size S bytes (W = 8S bits).  With
    pos = pos(idx) as in :func:`_pack`, ``ones(S)`` is (R, I, M) =
    (sum_idx 2^(W pos), sum_idx idx * 2^(W pos), 2^(W - 1) * R), and
    ``coordinate(S, p)`` is B_p = sum_idx values[p][idx] * 2^(W pos).  B_p
    is packed from the values less their minimum, so its lanes must hold
    the spread of coordinate p; every lane width an index that weights p
    uses does (see :func:`_image_index`)."""

    __slots__ = ("values", "_made")

    def __init__(self, values: list):
        self.values = values
        self._made: dict = {}

    def ones(self, size: int) -> tuple:
        made = self._made.get(size)
        if made is None:
            n = len(self.values[0])
            ones = _pack(repeat(1, n), size)
            made = self._made[size] = (
                ones, _pack(range(n), size), ones << 8 * size - 1
            )
        return made

    def coordinate(self, size: int, p: int) -> int:
        made = self._made.get((size, p))
        if made is None:
            values = self.values[p]
            low = min(values)
            made = self._made[size, p] = (
                _pack(map(sub, values, repeat(low)), size)
                + low * self.ones(size)[0]
            )
        return made


def _image_index(lanes: _Lanes, peaks: list, a: tuple) -> tuple:
    """(limits, radix, shift, packed, order): the image index of the folded
    matrix ``a`` over the box.

    Row j of the image of box column idx is sum_p a[j][p] * values[p][idx],
    which lies in [-limits[j], limits[j]] with limits[j] = sum_p |a[j][p]| *
    peaks[p].  With radix = 2 * max(limits) + 1 the image packs exactly into
    the integer sum_j radix^j * image_j, of absolute value at most mid =
    radix^n // 2.  With shift s = (columns - 1).bit_length(), ``packed`` is
    the one sorted list of the values v = packed image << s | idx over every
    box column: ascending by packed image, ascending idx within one image.
    So the columns with image t are the values in [t << s, (t + 1) << s),
    one slice found by bisection.  ``order`` is the same list masked down
    to the low s bits, the box indices, which is what the walk reads.

    All columns are packed at once, in one lane of W bits each: with w_p =
    sum_j a[j][p] * radix^j, the lane of column idx in T = (sum_p w_p * B_p
    << s) + I (B_p, R, I and M are the ``lanes``) is v, a signed value.  W
    holds mid << s | (columns - 1) and a sign bit, so every v + 2^(W - 1)
    lies in [0, 2^W): T + M has no lane borrowing from the next, and
    (T + M) ^ M clears the added bit again, leaving each v in two's
    complement.  Its lanes, read back and plainly sorted, are ``packed``.
    A coordinate p with w_p != 0 has 2 * peaks[p] < radix <= 2^W, so its
    values fit their lanes too.
    """
    limits = [sum(map(mul, map(abs, row), peaks)) for row in a]
    radix = 2 * max(limits, default=0) + 1
    weights = [0] * len(peaks)
    for row in reversed(a):
        weights = list(map(add, map(radix.__mul__, weights), row))
    n = len(lanes.values[0])
    shift = (n - 1).bit_length()
    bits = (radix ** len(a) // 2 << shift | n - 1).bit_length() + 1
    size = _lane_size(bits)
    _, indices, signs = lanes.ones(size)
    total = 0
    for p, w in enumerate(weights):
        if w:
            total += w * lanes.coordinate(size, p)
    packed = _unpack(((total << shift) + indices + signs) ^ signs, n, size)
    packed.sort()
    # the box indices, masked once per build: the walk reads them at every
    # lookup, and masking a lane at each read costs more there, as the sort
    # has scattered the lane objects
    return (limits, radix, shift, packed,
            list(map(and_, packed, repeat((1 << shift) - 1))))


def _survivors(index: tuple, target: tuple) -> Sequence[int]:
    """Box indices idx, ascending, whose image under the folded matrix A of
    ``index`` (an :func:`_image_index`) is ``target``: sum_p A[j][p] *
    values[p][idx] == target[j] for every row j.  The target is packed to t
    once every digit is within its limit (a digit out of reach could alias
    another image).  Its columns' lanes are the values of ``packed`` in
    [t << shift, (t + 1) << shift), found by bisection, and ``order`` holds
    their box indices at the same positions."""
    limits, radix, shift, packed, order = index
    key = 0
    for t, limit in zip(reversed(target), reversed(limits)):
        if abs(t) > limit:
            return ()  # out of reach, and its packing would alias
        key = key * radix + t
    lo = bisect_left(packed, key << shift)
    return order[lo:bisect_left(packed, (key + 1) << shift, lo)]


def _children_cells(children: list) -> int:
    """The cells a node's children hold in the store: one for the node and,
    per child, one for its box index and one per minor of its wedge."""
    return 1 + len(children) + sum(map(len, map(itemgetter(1), children)))


class _BoxPowers:
    """The target-side tables of a search: the box columns, their power
    vectors, and one store of image indexes and interior walk nodes.  They
    depend only on (target, bound), so :func:`_box_powers` shares them
    between consecutive searches.

    ``values[p][idx]`` is coordinate p of the power vector of box column
    idx: the powers L^1, ..., L^E of its linear form L, each in the target's
    graded basis of its weight, laid end to end (L^e starts at
    ``offset[e]``).  E is max(caps) + 1, the largest exponent a searchable
    source relation holds; powers past the top weight are zero and are not
    tabulated.  ``rows[idx]`` holds the same coordinates of box column
    idx, so L^e is ``rows[idx][offset[e]:offset[e + 1]]``.  ``dims[w]`` is
    the rank in weight w (0 above the top weight).

    ``fold`` is the one product table: ``fold(e - 1, 1)`` makes L^e from
    L^(e-1), a walk node multiplies its prefix powers by it, and an index
    build folds the node's matrix A from it.

    ``walk`` runs one search's column walk over these tables, reading the
    source's walk plan (:func:`_relation_splits`); ``node_rows`` evaluates
    a plan entry at a node's prefix, giving the key of its folded matrix A
    and the image A must have.

    ``lanes`` holds the same values packed into big integers, one lane of
    bits per box column (:class:`_Lanes`), made on first use: per lane
    width in use, one integer of len(columns) lanes per coordinate an
    index weights.  These are not counted in the budget below.

    ``store`` maps a key to its value, for two kinds of entry.
    ``index(key)`` is the image index of the folded matrix A a walk node's
    key names (``node_rows``): one sorted list with a lane per
    box column, its image under A packed into one exact integer, shifted
    left past the column's box index, plus those box indices in the same
    order; computed for all columns at once in the lanes (see
    :func:`_image_index` and :func:`_survivors`), and len(columns) cells.
    The key is (n, ((a, e), q), ...), n the rank of the relation's weight
    and q the non-zero prefix values of each part x_d^e with e >= 1, a the
    weight of q.  A is built from ``fold(a, e)`` only when the key misses.
    A key fixes A; conversely, for one relation weight, different keys give
    different A, as the blocks for different e fill disjoint columns of A
    and below the top weight multiplying by a non-zero class q is injective
    (Poincare duality, the ring being generated in degree 2), so keying by
    q costs no extra builds.  An interior walk node, depth 1 <= d <= g - 2,
    keyed by (the plan entry of source relation d, *the prefix's box
    indices), holds its children in walk order, each (box index, grown
    wedge) with the dependent columns dropped, and :func:`_children_cells`
    cells.  Those depend on nothing else, and the sources a target admits
    have equal plan entries for equal relations, so the sources of a sweep
    that share a relation (every three-stage source has relation 1 in one
    of two forms) walk each such node once per target.

    The tables hold len(values) * len(columns) power values and the bases
    of every weight, exactly :func:`table_cells`, and the store has the
    ``room`` they leave of :data:`MAX_SEARCH_CELLS`, so each target stays
    within that one budget, the packed coordinates of ``lanes`` apart.
    ``keep`` stores an entry while ``room`` lasts, taking its cells from it;
    one that does not fit is used but not kept, and none is ever dropped.
    """

    def __init__(self, pres_b: RingPresentation, bound: int):
        self.g = pres_b.ngens
        self.columns = list(product(range(-bound, bound + 1), repeat=self.g))
        maxw = sum(pres_b.caps)
        self.bases = [pres_b.graded_basis(2 * w) for w in range(maxw + 1)]
        # and rank 0 one weight past the top, which a relation of the top
        # cap reaches
        self.dims = [len(basis) for basis in self.bases] + [0]
        self._reduce = pres_b._reduce_monomial
        self._folds: dict = {}
        top = max(pres_b.caps) + 1
        self.offset = [0, 0]
        for e in range(1, top + 1):
            self.offset.append(self.offset[e] + self.dims[e])
        self.values = self._tabulate_powers(top)
        self.rows = list(zip(*self.values))  # per box column
        self.lanes = _Lanes(self.values)
        self.peaks = [max(map(abs, v)) for v in self.values]
        # an index key starts with the int n, a node key with a plan
        # entry, a tuple, so the two kinds of key never collide
        self.store: dict = {}
        self.room = MAX_SEARCH_CELLS - table_cells(pres_b, bound)

    def keep(self, key: tuple, value, cells: int):
        """Store ``value`` under ``key`` as ``cells`` cells if they fit in
        the room left; return it either way."""
        if cells <= self.room:
            self.store[key] = value
            self.room -= cells
        return value

    def index(self, key: tuple) -> tuple:
        """The image index of the folded matrix A that a node key (n, ((a,
        e), q), ...) names, from the store, or built and kept: A has n rows
        over the power coordinates, and each part adds the prefix values q
        times its fold ``fold(a, e)``."""
        found = self.store.get(key)
        if found is not None:
            return found
        n, *parts = key
        mat = [[0] * len(self.peaks) for _ in range(n)]
        for part, q in parts:
            for qm, row in zip(q, self.fold(*part)):
                if qm:
                    for j, p, c in row:
                        mat[j][p] += qm * c
        return self.keep(
            key, _image_index(self.lanes, self.peaks, tuple(map(tuple, mat))),
            len(self.columns),
        )

    def fold(self, a: int, e: int) -> list:
        """``fold[m]``: the (row j, power coordinate p, coefficient c)
        triples of basis_a[m] * L^e, where basis_a[m] * basis_e[i] reduces
        to the sum of c * basis_(a+e)[j] and p = offset[e] + i; ordered by
        i, then by the reduction's terms.  Needs a + e <= the top weight."""
        fold = self._folds.get((a, e))
        if fold is None:
            index = {m: j for j, m in enumerate(self.bases[a + e])}
            start = self.offset[e]
            fold = self._folds[(a, e)] = [
                [(index[m], start + i, c)
                 for i, v in enumerate(self.bases[e])
                 for m, c in self._reduce(tuple(map(add, u, v))).items()]
                for u in self.bases[a]
            ]
        return fold

    def _tabulate_powers(self, top: int) -> list:
        n = len(self.columns)
        # L^1: the weight-1 basis is x_0, ..., x_(g-1) in this order
        values = [[col[k] for col in self.columns] for k in range(self.g)]
        for e in range(2, top + 1):
            if not self.dims[e]:
                break
            prev = self.offset[e - 1]
            terms: list[list] = [[] for _ in range(self.dims[e])]
            # L^e = L^(e-1) * L, coordinate p of L being values[p]
            for m, triples in enumerate(self.fold(e - 1, 1)):
                for j, p, c in triples:
                    terms[j].append((c, map(mul, values[prev + m], values[p])))
            values.extend(list(_lincomb(n, t)) for t in terms)
        return values


    def node_rows(self, rel: tuple, cols: list) -> tuple:
        """The plan entry ``rel`` of relation d = len(cols) at the prefix
        columns ``cols`` (box indices), as (key, target): the key (n, ((w -
        e, e), q), ...) of its folded matrix A, with q the evaluated prefix
        part of each x_d^e, e >= 1, that is non-zero, and the image each of
        the n rows of A must have."""
        rows, offset, dims, fold = self.rows, self.offset, self.dims, self.fold
        n, parts = rel
        key, target = [n], (0,) * n
        for terms, part in parts:
            q = None  # the prefix part, evaluated term by term
            for coeff, pairs in terms:
                v, a = (1,), 0
                for i, x in pairs:
                    row = rows[cols[i]]
                    if a:  # v * L^x, by the product table
                        prod = [0] * dims[a + x]
                        for vm, triples in zip(v, fold(a, x)):
                            if vm:
                                for j, p, c in triples:
                                    prod[j] += vm * c * row[p]
                        v = prod
                    else:
                        v = row[offset[x]:offset[x + 1]]  # L^x
                    a += x
                if coeff != 1:
                    v = [coeff * vm for vm in v]
                q = v if q is None else list(map(add, q, v))
            if part is None:  # x_d^0: the constant part
                target = tuple(map(neg, q))
            elif any(q):
                key.append((part, tuple(q)))
        return tuple(key), target

    def walk(self, plan: tuple, depth: int, cols: list, wedge: dict
             ) -> Iterator[tuple[Matrix, int]]:
        """Every certificate, with its determinant, in the contract order,
        below the prefix ``cols`` whose placed columns have the wedge
        ``wedge`` (``{0: 1}`` at the root), for the source whose walk plan
        is ``plan`` (see (b) and (c) of the module docstring)."""
        columns, g, store = self.columns, self.g, self.store
        rel = plan[depth]
        if 0 < depth < g - 1:
            # root and last level unshared until ROADMAP item 1 (RSS per pass)
            node = (rel, *cols)
            children = store.get(node)
            if children is None:
                key, target = self.node_rows(rel, cols)
                children = [(idx, grown)
                            for idx in _survivors(self.index(key), target)
                            if (grown := _wedge(wedge, columns[idx]))]
                self.keep(node, children, _children_cells(children))
            for idx, grown in children:
                yield from self.walk(plan, depth + 1, cols + [idx], grown)
            return
        key, target = self.node_rows(rel, cols)
        hits = _survivors(store.get(key) or self.index(key), target)
        if depth < g - 1:
            # the root grows wedges lazily, as a search may stop early
            for idx in hits:
                grown = _wedge(wedge, columns[idx])
                if grown:
                    yield from self.walk(plan, depth + 1, cols + [idx], grown)
            return
        if not hits:
            return
        full = (1 << g) - 1
        cof = [(-1) ** (g - 1 - i) * wedge.get(full ^ 1 << i, 0)
               for i in range(g)]
        for idx in hits:
            det = sum(map(mul, cof, columns[idx]))
            if det in (1, -1):
                picked = [columns[k] for k in cols + [idx]]
                yield tuple(tuple(c[i] for c in picked) for i in range(g)), det


@lru_cache(maxsize=1)
def _box_powers(pres_b: RingPresentation, bound: int) -> _BoxPowers:
    """The tables of the latest (target, bound) only: a sweep that meets
    its pairs target by target builds each target's tables once, whatever
    the sources, and no more than one target's tables outlive a search."""
    return _BoxPowers(pres_b, bound)


def _search_matrices(
    pres_a: RingPresentation,
    pres_b: RingPresentation,
    bound: int,
) -> Iterator[tuple[Matrix, int]]:
    """Yield every certificate matrix, with its determinant, in the
    contract order, each one accepted by :func:`verify` (a certificate it
    rejects is an engine bug, raised as RuntimeError)."""
    if pres_a.ngens == 0:
        found = [((), 1)]  # the empty matrix
    elif bound == 0:
        found = ()  # the box holds only the zero column, in no certificate
    else:
        found = _box_powers(pres_b, bound).walk(
            _relation_splits(pres_a), 0, [], {0: 1}
        )
    for rows, det in found:
        if not verify(pres_a, pres_b, rows):
            raise RuntimeError(
                f"engine produced a non-verifying certificate {rows}"
            )
        yield rows, det


def search(
    pres_a: RingPresentation, pres_b: RingPresentation, bound: int = 3
) -> SearchVerdict:
    """First certificate in the contract order, or bounded non-existence.

    The one place a pair is decided.  A Poincare mismatch (different
    generator counts included) short-circuits: no degree-preserving
    unimodular map can exist at any bound, and the verdict says so via its
    reason, ``betti_mismatch``, a proof.
    """
    if not admit(pres_a, pres_b, bound):
        return SearchVerdict(
            "none_within_bound", None, None, bound, "betti_mismatch"
        )
    for rows, det in _search_matrices(pres_a, pres_b, bound):
        return SearchVerdict("found", rows, det, bound, None)
    return SearchVerdict("none_within_bound", None, None, bound, "exhausted")


def search_all(
    pres_a: RingPresentation, pres_b: RingPresentation, bound: int = 3
) -> list[Matrix]:
    """Every certificate with entries in [-bound, bound], contract order."""
    if not admit(pres_a, pres_b, bound):
        return []
    return [rows for rows, _det in _search_matrices(pres_a, pres_b, bound)]

