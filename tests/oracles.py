"""Independent oracles the tests check the package against.

Each one re-derives a result by a plain, slow route that shares no code
with the path it checks, so a fault in the package cannot be "fixed" in
the oracle together with it.  Use them only on small cases.
"""

from itertools import product, repeat
from operator import add

from cptower import Poly, RingPresentation, verify
from cptower.isosearch import admit
from cptower.polyring import monomial_key


# -- isomorphism search -----------------------------------------------------


def search_all_reference(
    pres_a: RingPresentation, pres_b: RingPresentation, bound: int = 3
) -> list:
    """Unpruned reference engine: enumerate the whole flattened entry box
    and keep each matrix ``verify`` accepts.  Pins the pruned engine's
    enumeration order and acceptance predicate.
    """
    if not admit(pres_a, pres_b, bound):
        return []
    g = pres_a.ngens
    # column-major flattening: column k occupies flat[k*g : (k+1)*g]
    matrices = (
        tuple(tuple(flat[k * g + i] for k in range(g)) for i in range(g))
        for flat in product(range(-bound, bound + 1), repeat=g * g)
    )
    return [rows for rows in matrices if verify(pres_a, pres_b, rows)]


def node_survivors_by_substitution(
    pres_a: RingPresentation, pres_b: RingPresentation, bound: int,
    prefix: list,
) -> list:
    """Indices into the box of (2B+1)^g columns, ascending, of the columns
    c that send source relation ``len(prefix)`` to zero in ``pres_b`` when
    x_0..x_depth map to the linear forms of the ``prefix`` columns and c.

    Substitutes and reduces each candidate with ``Poly.substitute`` and
    ``normal_form``; relation ``depth`` mentions no later generator, so
    those map to zero.
    """
    g = pres_b.ngens
    box = list(product(range(-bound, bound + 1), repeat=g))
    depth = len(prefix)
    rel = pres_a.relations[depth]

    def linear(col):
        return Poly(g, {
            tuple(int(i == k) for i in range(g)): x
            for k, x in enumerate(col) if x
        })

    head = [linear(box[idx]) for idx in prefix]
    tail = [Poly.zero(g)] * (g - depth - 1)
    return [
        idx for idx, col in enumerate(box)
        if pres_b.normal_form(
            rel.substitute(head + [linear(col)] + tail)
        ).is_zero()
    ]


def image_index_reference(values: list, peaks: list, a: tuple) -> tuple:
    """(limits, radix, shift, packed, order): the image index of the folded
    matrix ``a`` over the box, built column by column.

    Row j of the image of box column idx is sum_p a[j][p] * values[p][idx],
    which lies in [-limits[j], limits[j]] with limits[j] = sum_p |a[j][p]| *
    peaks[p].  With radix = 2 * max(limits) + 1 the image packs exactly into
    the integer sum_j radix^j * image_j.  ``order`` lists the box indices
    by packed image, ascending indices within one image (the sort is
    stable), and with shift = (columns - 1).bit_length(), ``packed`` the
    values packed image << shift | idx in that order.
    """
    limits = [sum(abs(x) * m for x, m in zip(row, peaks)) for row in a]
    radix = 2 * max(limits, default=0) + 1
    weights = [0] * len(values)
    for row in reversed(a):
        weights = [w * radix + x for w, x in zip(weights, row)]
    images = list(_lincomb(
        len(values[0]), ((w, values[p]) for p, w in enumerate(weights) if w)
    ))
    shift = (len(images) - 1).bit_length()
    order = sorted(range(len(images)), key=images.__getitem__)  # stable
    packed = [images[idx] << shift | idx for idx in order]
    return limits, radix, shift, packed, order


def _lincomb(n: int, terms):
    """Entrywise sum of coeff * values over the (coeff, values) pairs, each
    values of length n, lazily."""
    acc = repeat(0, n)
    for coeff, values in terms:
        if coeff != 1:
            values = map(coeff.__mul__, values)
        acc = map(add, acc, values)
    return acc


# -- ring multiplication ----------------------------------------------------


def dense_multiplication_table(pres: RingPresentation) -> dict:
    """Full basis-times-basis multiplication table, derived independently.

    This deliberately avoids ``normal_form``: it reduces with the *smallest*
    offending monomial first, keeps no memo table, and walks the generators
    bottom-up.  Intended for towers of small total rank (the tests use it up
    to rank 8) as a cross-check that the rewriting strategy does not matter.
    Returns {(i, j): coefficient tuple over the basis} with i, j indexing
    the full basis in canonical order.
    """
    basis = pres.graded_basis_all()
    index = {m: i for i, m in enumerate(basis)}
    table = {}
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            prod = {tuple(a + b for a, b in zip(bi, bj)): 1}
            reduced = _reduce_smallest_first(pres, prod)
            vec = [0] * len(basis)
            for mono, coeff in reduced.items():
                vec[index[mono]] = coeff
            table[(i, j)] = tuple(vec)
    return table


def _reduce_smallest_first(pres: RingPresentation, terms: dict) -> dict:
    current = dict(terms)
    while True:
        offending = [
            m
            for m in current
            if any(e > cap for e, cap in zip(m, pres.caps))
        ]
        if not offending:
            return current
        mono = min(offending, key=monomial_key)
        coeff = current.pop(mono)
        # rewrite the *lowest* offending generator, unlike normal_form
        k = next(
            idx
            for idx in range(pres.ngens)
            if mono[idx] > pres.caps[idx]
        )
        rest = list(mono)
        rest[k] -= pres.caps[k] + 1
        for tail_mono, tail_coeff in pres._tails[k]:
            m = tuple(r + t for r, t in zip(rest, tail_mono))
            v = current.get(m, 0) - coeff * tail_coeff
            if v:
                current[m] = v
            else:
                current.pop(m, None)


# -- Chern classes ----------------------------------------------------------


def splitting_oracle_tensor() -> tuple:
    """Splitting-principle derivation of the rank-2 twist formulas.

    Works in an auxiliary ring with formal line roots t1, t2 and twist s:
    expands (1 + t1 + s)(1 + t2 + s), then rewrites the degree-1 and
    degree-2 parts in terms of e1 = t1 + t2, e2 = t1 t2 and s by generic
    symmetric reduction (nothing here knows the closed-form answers).
    Returns (c1, c2) as polynomials in the variables (e1, e2, s).
    """
    t1 = Poly.variable(3, 0)
    t2 = Poly.variable(3, 1)
    s = Poly.variable(3, 2)
    one = Poly.constant(3, 1)
    total = (one + t1 + s) * (one + t2 + s)
    deg1 = Poly(3, {m: c for m, c in total.terms.items() if sum(m) == 1})
    deg2 = Poly(3, {m: c for m, c in total.terms.items() if sum(m) == 2})
    return _symmetric_reduce(deg1), _symmetric_reduce(deg2)


def _symmetric_reduce(p: Poly) -> Poly:
    """Rewrite a polynomial in (t1, t2, s), symmetric in t1 <-> t2, as a
    polynomial in (e1, e2, s) (same variable slots reused in that order).

    Classic elimination: repeatedly take the largest remaining t-monomial
    t1^a t2^b s^c (a >= b for the largest one, by symmetry), emit
    e1^(a-b) e2^b s^c, and subtract its expansion.  Terminates because the
    subtracted expansion only contains smaller monomials.
    """
    t1 = Poly.variable(3, 0)
    t2 = Poly.variable(3, 1)
    remaining = p
    out: dict = {}
    while remaining:
        (a, b, c), coeff = remaining.leading()
        if a < b:
            a, b = b, a
        out_mono = (a - b, b, c)
        out[out_mono] = out.get(out_mono, 0) + coeff
        expansion = (t1 + t2) ** (a - b) * (t1 * t2) ** b
        expansion = expansion * Poly(3, {(0, 0, c): coeff})
        remaining = remaining - expansion
    return Poly(3, out)
