"""Workload inputs for the cptower benchmark, and the set-up probe.

Run as a script, this module is the probe behind ``setup_s``: in a fresh
process it times importing cptower.cli, generating one workload's inputs
and loading the pinned outputs they are checked against, and prints the
seconds, then the median time of reference chunks (refspeed.py) run after
the timed part.  It imports only what that needs, so the time is not
inflated or hidden by modules the benchmark runner loads.

    python3 benchmarks/workloads.py iso-cached 1
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

SWEEPS = {
    "sweep-three-stage": ("three-stage", 2),
    "sweep-eight-dim": ("eight-dim", 8),
}
SWEEP_BOUND = 3
ISO_WORKLOAD = "iso-cached"
ISO_BOUND = 2
ISO_PAIRS = 150
ISO_REPEATS = 3
ISO_FAMILIES = (("main", 2), ("eight-dim", 2))
WORKLOADS = tuple(SWEEPS) + (ISO_WORKLOAD,)

# -- the program under test ------------------------------------------------


def import_cptower() -> SimpleNamespace:
    """Import cptower from ./src of the working directory, never from an
    installed copy."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "cptower", "__init__.py")):
        raise FileNotFoundError(
            "src/cptower not found: run from the repository root"
        )
    sys.path.insert(0, src)
    from cptower import catalog, cli, isosearch, polyring, towers

    return SimpleNamespace(
        cli=cli, catalog=catalog, isosearch=isosearch, towers=towers,
        polyring=polyring,
    )


# -- inputs ----------------------------------------------------------------


def sweep_argv(workload: str) -> list[str]:
    theorem, n = SWEEPS[workload]
    return ["sweep", "--theorem", theorem, "--range", str(n),
            "--bound", str(SWEEP_BOUND)]


def iso_pool(catalog) -> dict:
    """Unordered pairs of distinct families with equal generator counts,
    grouped by generator count and the Poincare series of both sides."""
    fams = []
    for theorem, n in ISO_FAMILIES:
        fams += catalog.families_for_theorem(theorem, n)
    strata: dict = {}
    for i, a in enumerate(fams):
        pa = catalog.presentation_of(a)
        for b in fams[i + 1:]:
            pb = catalog.presentation_of(b)
            if pa.ngens == pb.ngens:
                key = (pa.ngens,) + tuple(sorted((pa.poincare(),
                                                  pb.poincare())))
                strata.setdefault(key, []).append((str(a), str(b)))
    return strata


def iso_queries(catalog, seed: int, expected: dict) -> list[list[str]]:
    """ISO_PAIRS distinct pairs, each asked ISO_REPEATS times in shuffled
    order.  The sample is stratified by the ``iso_pool`` groups and by
    whether the pinned verdict is a certificate: each stratum gets its
    proportional share (largest remainder), so every seed asks the same mix
    of Betti-mismatch, 2-generator, 3-generator and positive questions."""
    outputs = expected["outputs"]
    strata: dict = {}
    for key, pairs in iso_pool(catalog).items():
        for a, b in pairs:
            found = outputs[f"{a} {b}"]["exit"] == 0
            strata.setdefault(key + (found,), []).append((a, b))
    keys = sorted(strata)
    total = sum(len(strata[k]) for k in keys)
    exact = [ISO_PAIRS * len(strata[k]) / total for k in keys]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(len(keys)), key=lambda i: quotas[i] - exact[i])
    for i in by_remainder[:ISO_PAIRS - sum(quotas)]:
        quotas[i] += 1
    rng = random.Random(seed)
    pairs = []
    for key, quota in zip(keys, quotas):
        for a, b in rng.sample(strata[key], quota):
            pairs.append((b, a) if rng.random() < 0.5 else (a, b))
    queries = pairs * ISO_REPEATS
    rng.shuffle(queries)
    return [["iso", a, b, "--bound", str(ISO_BOUND)] for a, b in queries]


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def prepare(workload: str, seed: int, mods) -> tuple[list, dict]:
    """The argv of every cli.main call in one pass, and the pinned
    outputs they are checked against."""
    expected = load_expected(workload)
    if workload == ISO_WORKLOAD:
        return iso_queries(mods.catalog, seed, expected), expected
    return [sweep_argv(workload)], expected


if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]), import_cptower())
    setup_s = time.perf_counter() - _START
    import statistics

    import refspeed

    chunk = statistics.median(refspeed.chunk_s() for _ in range(9))
    print(repr(setup_s), repr(chunk))
