"""Release acceptance gates.

One test per gate; each prints a single

    criterion N: PASS|FAIL (elapsed)

line outside the capture so the full run log always shows all seven
verdicts.  Runtime budgets are printed for information, never asserted.

Criterion 1 pins the two-stage coincidence pattern to equality only, and
checks the invariant that proves it: the discriminant of the top-degree
binary cubic form (see ``test_criterion_1_two_stage_suite``).
"""

import math
import random
import time

from cptower import (
    FamilyId,
    Poly,
    canonical_families,
    compose,
    families_for_theorem,
    invert_unimodular,
    matrix_det,
    presentation_of,
    search,
    sweep_distinctness,
    tensor_line,
    verify,
)
from cptower.chern import BundleDescriptor
from conftest import cp, hirzebruch, pres
from oracles import search_all_reference, splitting_oracle_tensor


def _emit(capsys, n: int, ok: bool, started: float, budget: str) -> None:
    line = (
        f"criterion {n}: {'PASS' if ok else 'FAIL'} "
        f"({time.monotonic() - started:.1f}s, budget {budget})"
    )
    with capsys.disabled():
        print(line, flush=True)


def _top_cubic_discriminant(p) -> int:
    """Discriminant of the binary cubic T(ux + vy) = <(ux + vy)^3, [M]> of a
    two-generator ring with 6-dimensional top degree, oriented by
    <top monomial, [M]> = 1; computed from normal forms only."""
    top = p.top_monomial()
    t0, t1, t2, t3 = (
        p.normal_form(Poly.monomial(2, (3 - k, k))).terms.get(top, 0)
        for k in range(4)
    )
    a, b, c, d = t0, 3 * t1, 3 * t2, t3
    return (
        b * b * c * c - 4 * a * c**3 - 4 * b**3 * d
        - 27 * a * a * d * d + 18 * a * b * c * d
    )


def test_criterion_1_two_stage_suite(capsys):
    """Two-stage towers over CP^2: the (0,*) and (1,*) families never mix,
    certificates inside each family land exactly on the diagonal b = a, and
    the k=0 trivial tower coincides with the (0,0) member.

    Proof that nothing but the diagonal can coincide: Eta2:s,a has the ring
    Z[x,y]/(x^3, y^2 + sxy + ax^2) with <x^2 y, [M]> = 1, so its top form is
    the binary cubic T(ux + vy) = 3u^2 v - 3s uv^2 + (s^2 - a)v^3, whose
    discriminant is 108a - 27s^2 = -27(s^2 - 4a), i.e. -27 times the bundle
    invariant c1^2 - 4c2.  A ring isomorphism is a unimodular M with
    T_b o M = +-T_a; the discriminant of a binary cubic is multiplied by
    det(M)^6 = 1 under GL(2,Z) and, being of degree 4 in the coefficients,
    is unchanged by the sign.  So Eta2:s,a ~ Eta2:s',b forces
    s^2 - 4a = s'^2 - 4b, hence s = s' (parity, s in {0, 1}) and a = b; in
    particular Eta2:s,a and Eta2:s,-a are distinct for a != 0."""
    started = time.monotonic()
    problems = []
    span = range(-4, 5)
    for s in (0, 1):
        for a in span:
            disc = _top_cubic_discriminant(pres(f"Eta2:{s},{a}"))
            if disc != -27 * (s * s - 4 * a):
                problems.append(f"({s},{a}): discriminant {disc} != -27(s^2 - 4a)")
    for a in span:
        for b in span:
            if search(pres(f"Eta2:0,{a}"), pres(f"Eta2:1,{b}"), 3).found:
                problems.append(f"unexpected certificate (0,{a}) ~ (1,{b})")
    for s in (0, 1):
        for a in span:
            for b in span:
                found = search(pres(f"Eta2:{s},{a}"), pres(f"Eta2:{s},{b}"), 3).found
                expected = b == a  # discriminants differ off the diagonal
                if found != expected:
                    problems.append(
                        f"({s},{a}) vs ({s},{b}): found={found}, claimed={expected}"
                    )
    if not search(pres("GB2:0"), pres("Eta2:0,0"), 3).found:
        problems.append("GB2:0 ~ Eta2:0,0 certificate missing")
    _emit(capsys, 1, not problems, started, "30s")
    assert not problems, "; ".join(problems[:6]) + f" ... ({len(problems)} total)"


def test_criterion_2_three_stage_product_base_suite(capsys):
    """Three-stage towers over CP^1 x CP^1: inside each (s,r) group the
    coincidences at B=2 are exactly a' in {a,-a} ((0,0) and (1,0)) or
    a' in {a, 1-a} ((1,1)); across groups nothing coincides at B=3."""
    started = time.monotonic()
    problems = []
    span = range(-4, 5)
    groups = ((0, 0), (1, 0), (1, 1))
    for s, r in groups:
        for a in span:
            for b in span:
                found = search(
                    pres(f"Zeta3:{s},{r},{a}"), pres(f"Zeta3:{s},{r},{b}"), 2
                ).found
                expected = b in ((a, -a) if (s, r) != (1, 1) else (a, 1 - a))
                if found != expected:
                    problems.append(f"({s},{r}): {a} vs {b} found={found}")
    for i, (s, r) in enumerate(groups):
        for s2, r2 in groups[i + 1:]:
            for a in span:
                for b in span:
                    if search(
                        pres(f"Zeta3:{s},{r},{a}"), pres(f"Zeta3:{s2},{r2},{b}"), 3
                    ).found:
                        problems.append(
                            f"cross ({s},{r},{a}) ~ ({s2},{r2},{b})"
                        )
    _emit(capsys, 2, not problems, started, "2min")
    assert not problems, "; ".join(problems[:6])


def test_criterion_3_twisted_three_stage_suite(capsys):
    """Twisted three-stage towers: coincidences at B=2 are exactly the
    recorded ones -- (0,0,b)~(0,0,-b), (1,0,b)~(1,0,-b), (0,1,b)~(1,1,-b),
    plus the single cross-base overlap Zeta3:1,0,0 ~ Xi3:0,0,0 -- and the
    recorded conflicting claim about Zeta3:0,0,1 is reported under its
    discrepancy flag by the sweep."""
    started = time.monotonic()
    problems = []
    span = range(-4, 5)
    groups = ((0, 0), (1, 0), (0, 1), (1, 1))

    def expected_xi(g1, b1, g2, b2):
        if g1 == g2:
            if b1 == b2:
                return True
            return g1 in ((0, 0), (1, 0)) and b2 == -b1
        if {g1, g2} == {(0, 1), (1, 1)}:
            bz, bo = (b1, b2) if g1 == (0, 1) else (b2, b1)
            return bo == -bz
        return False

    for i, g1 in enumerate(groups):
        for g2 in groups[i:]:
            for b1 in span:
                for b2 in span:
                    if g1 == g2 and b2 < b1:
                        continue
                    found = search(
                        pres(f"Xi3:{g1[0]},{g1[1]},{b1}"),
                        pres(f"Xi3:{g2[0]},{g2[1]},{b2}"),
                        2,
                    ).found
                    if found != expected_xi(g1, b1, g2, b2):
                        problems.append(f"Xi3 {g1}{b1} vs {g2}{b2} found={found}")
    for s, r in ((0, 0), (1, 0), (1, 1)):
        for g2 in groups:
            for a in span:
                for b in span:
                    found = search(
                        pres(f"Zeta3:{s},{r},{a}"),
                        pres(f"Xi3:{g2[0]},{g2[1]},{b}"),
                        2,
                    ).found
                    expected = (s, r, a) == (1, 0, 0) and g2 + (b,) == (0, 0, 0)
                    if found != expected:
                        problems.append(
                            f"cross-base ({s},{r},{a}) vs Xi3{g2}{b} found={found}"
                        )
    report = sweep_distinctness("three-stage", 1, 2)
    claims = {
        (row["a"], row["b"]): row
        for row in report["rows"]
        if row.get("flag") == "conflicting-claims"
    }
    lemma_row = claims.get(("Zeta3:1,0,0", "Xi3:0,0,0"))
    conflict_row = claims.get(("Zeta3:0,0,1", "Xi3:0,0,0"))
    if lemma_row is None or lemma_row["verdict"]["result"] != "found":
        problems.append("cross-base claim row missing or not found")
    if conflict_row is None or conflict_row["verdict"]["result"] != "none_within_bound":
        problems.append("conflicting claim row missing or mis-verdicted")
    _emit(capsys, 3, not problems, started, "5min")
    assert not problems, "; ".join(problems[:6])


def test_criterion_4_eight_dimensional_suite(capsys):
    """Dimension 8: the two CP^1-over-CP^3 families never mix; inside each,
    certificates exist exactly at equal twist parameter; and at u in {0,3}
    the sweep reports the identical-presentation pairs whose recorded pi_6
    tags split Z12 vs Z6."""
    started = time.monotonic()
    problems = []
    span = range(-4, 5)
    for alpha in (0, 1):
        for u in span:
            for v in span:
                if search(pres(f"M8:{alpha},{u}"), pres(f"N8:{v}"), 3).found:
                    problems.append(f"M8:{alpha},{u} ~ N8:{v}")
    for u in span:
        for v in span:
            fm = search(pres(f"M8:0,{u}"), pres(f"M8:0,{v}"), 3).found
            fn = search(pres(f"N8:{u}"), pres(f"N8:{v}"), 3).found
            if fm != (u == v):
                problems.append(f"M8 u={u} vs {v}: found={fm}")
            if fn != (u == v):
                problems.append(f"N8 u={u} vs {v}: found={fn}")
    report = sweep_distinctness("eight-dim", 4, 3)
    nr = {
        (row["a"], row["b"]): row
        for row in report["rows"]
        if row.get("flag") == "non-rigidity"
    }
    for u in (0, 3):
        row = nr.get((f"M8:0,{u}", f"M8:1,{u}"))
        if row is None:
            problems.append(f"non-rigidity row for u={u} missing")
            continue
        if row.get("note") != "identical_presentations":
            problems.append(f"u={u}: presentations not reported identical")
        tags = {row["pi6"]["a"]["pi6"], row["pi6"]["b"]["pi6"]}
        if tags != {"Z12", "Z6"} or row["pi6"]["verdict"] != "distinct":
            problems.append(f"u={u}: pi6 tags {tags}")
    if report["summary"]["failures"] != "0":
        problems.append("eight-dim sweep reported failures")
    _emit(capsys, 4, not problems, started, "2min")
    assert not problems, "; ".join(problems[:6])


def test_criterion_5_chern_twist_oracle(capsys):
    """tensor_line agrees with the splitting-principle expansion on 1,000
    randomized rank-2 descriptors over CP^1, CP^2, H_0, H_1."""
    started = time.monotonic()
    oc1, oc2 = splitting_oracle_tensor()
    rng = random.Random(20260823)
    bases = [cp(1), cp(2), hirzebruch(0), hirzebruch(1)]
    problems = []
    for trial in range(1000):
        base = rng.choice(bases)
        g = base.ngens

        def rand_hom(w):
            total = Poly.zero(g)
            for mono in base.graded_basis(2 * w):
                total = total + Poly.monomial(g, mono, rng.randint(-6, 6))
            return total

        c1, c2, t = rand_hom(1), rand_hom(2), rand_hom(1)
        tw = tensor_line(BundleDescriptor(base, 2, (c1, c2)), t)
        want = (
            base.normal_form(oc1.substitute((c1, c2, t))),
            base.normal_form(oc2.substitute((c1, c2, t))),
        )
        if tw.chern != want:
            problems.append(f"trial {trial}: {tw.chern} != {want}")
    _emit(capsys, 5, not problems, started, "5s")
    assert not problems, problems[:3]


def test_criterion_6_structural_invariants(capsys):
    """Every catalog presentation with parameters in [-4,4]: relations
    reduce to zero, graded ranks sum and palindrome correctly, every
    pairing is unimodular; normal form is idempotent and multiplicative on
    10,000 randomized elements."""
    started = time.monotonic()
    problems = []
    fams = []
    seen = set()
    for fid in list(canonical_families(4)) + list(families_for_theorem("eight-dim", 4)):
        if str(fid) not in seen:
            seen.add(str(fid))
            fams.append(fid)
    for fid in fams:
        p = presentation_of(fid)
        for rel in p.relations:
            if not p.normal_form(rel).is_zero():
                problems.append(f"{fid}: relation does not reduce to zero")
        betti = p.poincare()
        if sum(betti) != math.prod(c + 1 for c in p.caps):
            problems.append(f"{fid}: rank mismatch")
        if betti != tuple(reversed(betti)):
            problems.append(f"{fid}: non-palindromic ranks")
        for degree in range(0, 2 * sum(p.caps) + 1, 2):
            if abs(matrix_det(p.top_pairing_matrix(degree))) != 1:
                problems.append(f"{fid}: pairing degree {degree}")
    rng = random.Random(6)
    plist = [presentation_of(f) for f in fams]
    for _ in range(10000):
        p = rng.choice(plist)
        g = p.ngens

        def rand_poly():
            total = Poly.zero(g)
            for _ in range(rng.randint(1, 4)):
                mono = tuple(rng.randint(0, 3) for _ in range(g))
                total = total + Poly.monomial(g, mono, rng.randint(-9, 9))
            return total

        a, b = rand_poly(), rand_poly()
        na, nb = p.normal_form(a), p.normal_form(b)
        if p.normal_form(na) != na:
            problems.append("normal form not idempotent")
            break
        if p.normal_form(a * b) != p.normal_form(na * nb):
            problems.append("normal form not multiplicative")
            break
    _emit(capsys, 6, not problems, started, "30s")
    assert not problems, problems[:4]


def test_criterion_7_search_determinism_and_soundness(capsys):
    """Every found certificate re-verifies, inverses and compositions
    verify, and the pruned engine returns the identical first certificate
    as the unpruned reference on all two-generator catalog pairs (parameter
    window [-2,2], bound 2: the reference engine is quartic in the bound,
    so the compliance sweep uses the window where it stays quick)."""
    started = time.monotonic()
    problems = []
    fams = []
    seen = set()
    for fid in list(canonical_families(2)) + list(families_for_theorem("eight-dim", 2)):
        if presentation_of(fid).ngens == 2 and str(fid) not in seen:
            seen.add(str(fid))
            fams.append(fid)
    found_pairs = []
    for i, fa in enumerate(fams):
        pa = presentation_of(fa)
        for fb in fams[i:]:
            pb = presentation_of(fb)
            verdict = search(pa, pb, 2)
            reference = search_all_reference(pa, pb, 2)
            mine = verdict.matrix if verdict.found else None
            ref = reference[0] if reference else None
            if mine != ref:
                problems.append(f"{fa} vs {fb}: first certificate differs")
            if verdict.found:
                if not verify(pa, pb, verdict.matrix):
                    problems.append(f"{fa} vs {fb}: certificate fails re-verify")
                if matrix_det(verdict.matrix) != verdict.det:
                    problems.append(f"{fa} vs {fb}: recorded det wrong")
                inverse = invert_unimodular(verdict.matrix)
                if not verify(pb, pa, inverse):
                    problems.append(f"{fa} vs {fb}: inverse fails")
                if not verify(pa, pa, compose(verdict.matrix, inverse)):
                    problems.append(f"{fa} vs {fb}: round trip fails")
                found_pairs.append((fa, fb, verdict.matrix))
    # composition across a chain of distinct presentations
    chain_a, chain_b = pres("GB2:1"), pres("GB2:2")
    m_ab = search(chain_a, chain_b, 2).matrix
    m_bb = search(chain_b, chain_b, 2).matrix
    if not verify(chain_a, chain_b, compose(m_ab, m_bb)):
        problems.append("chained composition fails")
    if not found_pairs:
        problems.append("no certificates found at all (suite vacuous)")
    _emit(capsys, 7, not problems, started, "none stated")
    assert not problems, "; ".join(problems[:6])
