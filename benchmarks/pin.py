"""Regenerate the pinned outputs in expected/ from the current source tree.

Run from the repository root:

    python3 benchmarks/pin.py

Every output is cross-checked before anything is written:

- each sweep row passes its own ``expected`` verdict, and the sweep exits 0
  with zero failures;
- each ``found`` certificate passes ``verify()`` and its determinant is the
  reported ``det``;
- a ``betti_mismatch`` negative has different Poincare series on the two
  sides, an ``exhausted`` one equal series;
- each ``cpt iso`` verdict agrees with the catalog classification
  (``coincident`` exactly when a certificate is found).

Pin only from a commit whose outputs are known good: the benchmark counts
every later difference as a failed operation.  For iso-cached the pinned set
is every ordered pair of the sampling pool, so any --seed is covered.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

from workloads import (
    EXPECTED_DIR, ISO_BOUND, ISO_WORKLOAD, SWEEPS, import_cptower, iso_pool,
    sweep_argv,
)


def call(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check_verdict(mods, a: str, b: str, verdict: dict,
                  expected: str | None = None) -> list[str]:
    """Independent checks of one verdict for the pair (a, b), against the
    sweep row's ``expected`` or, without one, the catalog classification."""
    catalog = mods.catalog
    fa, fb = catalog.FamilyId.parse(a), catalog.FamilyId.parse(b)
    pa, pb = catalog.presentation_of(fa), catalog.presentation_of(fb)
    if expected is None:
        expected, _flag = catalog._expected_row(fa, fb)
    found = verdict["result"] == "found"
    problems = []
    if found:
        matrix = [[int(e) for e in row] for row in verdict["matrix"]]
        if not mods.isosearch.verify(pa, pb, matrix):
            problems.append("certificate fails verify()")
        if mods.towers.matrix_det(matrix) != int(verdict["det"]):
            problems.append("det differs from the matrix determinant")
    elif verdict["reason"] == "betti_mismatch":
        if pa.poincare() == pb.poincare():
            problems.append("betti_mismatch with equal Poincare series")
    elif pa.poincare() != pb.poincare():
        problems.append("exhausted search across a Betti mismatch")
    if found != (expected == "coincident"):
        problems.append(f"expected {expected}")
    return [f"{a} {b}: {p}" for p in problems]


def pin_sweep(mods, workload: str) -> tuple[dict, list[str]]:
    argv = sweep_argv(workload)
    code, text = call(mods.cli, argv)
    report = json.loads(text)
    problems = [] if code == 0 else [f"{workload}: exit code {code}"]
    if report["summary"]["failures"] != "0":
        problems.append(f"{workload}: summary reports failures")
    for row in report["rows"]:
        if not row["pass"]:
            problems.append(f"{row['a']} {row['b']}: row does not pass")
        problems += check_verdict(mods, row["a"], row["b"], row["verdict"],
                                  row["expected"])
    return {
        "argv": argv,
        "exit": code,
        "summary": report["summary"],
        "rows": report["rows"],
    }, problems


def pin_iso(mods) -> tuple[dict, list[str]]:
    os.environ.pop("CPT_CACHE_DIR", None)
    outputs = {}
    problems = []
    for pairs in iso_pool(mods.catalog).values():
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                code, text = call(
                    mods.cli, ["iso", a, b, "--bound", str(ISO_BOUND)]
                )
                verdict = json.loads(text)
                if code != (0 if verdict["result"] == "found" else 1):
                    problems.append(f"{a} {b}: exit code {code}")
                problems += check_verdict(mods, a, b, verdict)
                outputs[f"{a} {b}"] = {"exit": code, "stdout": text}
    return {"bound": ISO_BOUND, "outputs": outputs}, problems


def main() -> int:
    mods = import_cptower()
    pinned = {}
    problems = []
    for workload in SWEEPS:
        pinned[workload], found = pin_sweep(mods, workload)
        problems += found
    pinned[ISO_WORKLOAD], found = pin_iso(mods)
    problems += found
    if problems:
        for problem in problems:
            print(f"cross-check failed: {problem}", file=sys.stderr)
        return 1
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for workload, data in pinned.items():
        path = os.path.join(EXPECTED_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
