"""Command-line front end.

Subcommands
-----------
ring          print a tower's quotient presentation (text or JSON)
iso           search for a ring-isomorphism certificate between two towers
sweep         run an all-pairs distinctness regression over a family list
chern         tensor / whitney-sum / normalization / hypersurface helpers
catalog-list  print the family ids a sweep would cover

Tower arguments accept three spellings everywhere: a catalog id
("Family:params", e.g. "Eta2:0,-3"), a base id ("CPn" or a Hirzebruch
surface "Hk", k any integer), or a path to a tower JSON file.  They are
tried in this order: text with a path separator or a ".json" suffix is a
path; then a base id; then a catalog id; then any other existing file (see
:func:`resolve_ring_arg`).  All emitted
JSON carries ``"schema": "cpt/1"`` and serializes integers as decimal
strings.  Exit codes: 0 success (for ``iso``: certificate found; for
``sweep``: zero failures), 1 negative verdict, 2 usage or input errors.

The argument parser is built on the first :func:`main` call and shared by
every later call in the process, so calling ``main`` repeatedly (as the
verdict-cache traffic of ``cpt iso`` does) costs only the parse and the
subcommand; a command line that starts with a subcommand name is parsed
by that subcommand's parser alone.  The ``_cmd_*`` handlers are bound into
the parser at its first build.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__
from .catalog import (
    THEOREMS,
    FamilyId,
    _cached_search,
    build,
    cp_spec,
    families_for_theorem,
    hirzebruch_spec,
    sweep_distinctness,
)
from .isosearch import search_all
from .polyring import Poly, _parse_int
from .towers import (
    RingPresentation,
    TowerSpec,
    presentation,
    towerspec_from_json,
    towerspec_to_json,
)

_SCHEMA = "cpt/1"


# -- tower argument resolution ---------------------------------------------


# a base id: CP^n, or the Hirzebruch surface H_k
_BASE_ID = re.compile(r"CP([0-9]+)|H(-?[0-9]+)")


def _read_tower(path: str) -> TowerSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return towerspec_from_json(json.load(fh))


def resolve_ring_arg(text: str) -> TowerSpec:
    """The tower a command-line argument names, read in this order: text
    with a path separator or a ``.json`` suffix is a path; then a base id
    (CPn / Hk); then a catalog id; then any other existing file is a
    tower JSON file.  So a file named like an id never shadows the id, and
    an id costs no filesystem lookup.  Text that is none of these fails
    with the catalog id's error."""
    if os.path.sep in text or text.endswith(".json"):
        return _read_tower(text)
    m = _BASE_ID.fullmatch(text)
    if m:
        n, k = m.groups()
        value = _parse_int(n or k, "CPn's n" if n else "Hk's k")
        return cp_spec(value) if n else hirzebruch_spec(value)
    try:
        fid = FamilyId.parse(text)
    except ValueError:
        if os.path.exists(text):
            return _read_tower(text)
        raise
    return build(fid)


def _resolve_presentation(text: str) -> RingPresentation:
    return presentation(resolve_ring_arg(text))


# -- polynomial text parsing / printing ------------------------------------


def _gen_names(g: int) -> list[str]:
    if g <= 4:
        return list("xyzw")[:g]
    return [f"x{i + 1}" for i in range(g)]


def _var_index(token: str, names: list[str]) -> int:
    if token in names:
        return names.index(token)
    m = re.fullmatch(r"x([0-9]+)", token)
    if m:
        idx = int(m.group(1)) - 1
        if 0 <= idx < len(names):
            return idx
    raise ValueError(f"unknown generator {token!r}")


def parse_poly_text(text: str, nvars: int, names=None) -> Poly:
    """Parse "3x^2 - x*y + 2" style input into an exact polynomial.

    Generators are x, y, z, w (or x1..xN for wider rings); '*' is optional,
    exponents use '^'.  Note "x2" names the second generator -- powers always
    need the caret.
    """
    names = names if names is not None else _gen_names(nvars)
    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise ValueError("empty polynomial")
    terms: dict = {}  # one dict for every term, so linear in their count
    for chunk in re.findall(r"[+-]?[^+-]+|[+-]", s):
        sign = 1
        body = chunk
        if body and body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = re.fullmatch(
            r"([0-9]+)?((?:[a-zA-Z][0-9]*(?:\^[0-9]+)?)*)", body
        )
        if not m or (not m.group(1) and not m.group(2)):
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exps = [0] * nvars
        for fac in re.finditer(
            r"([a-zA-Z][0-9]*)(?:\^([0-9]+))?", m.group(2) or ""
        ):
            exps[_var_index(fac.group(1), names)] += int(fac.group(2) or "1")
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + sign * coeff
    return Poly(nvars, terms)  # which drops the zero sums


def _format_monomial(mono, names) -> str:
    factors = []
    for idx, e in enumerate(mono):
        if e == 1:
            factors.append(names[idx])
        elif e > 1:
            factors.append(f"{names[idx]}^{e}")
    return "*".join(factors) if factors else "1"


def format_poly(p: Poly, names=None) -> str:
    names = names if names is not None else _gen_names(p.nvars)
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in p.sorted_terms(reverse=True):
        mag = abs(coeff)
        body = _format_monomial(mono, names)
        if body == "1":
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the documents cpt prints: str
    keys, and values of type exactly str, bool, int, None, list or dict
    (any other type raises TypeError).

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set;
    here only the indentation is Python, one join per container, and every
    string goes through the C ``encode_basestring_ascii``.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            f"{_encode_str(k)}: {_dumps(v, inner)}" for k, v in value.items()
        ]) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _dumps(v, inner) for v in value
        ]) + indent + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return int.__repr__(value)


def _print_json(payload: dict) -> None:
    sys.stdout.write(_dumps(payload) + "\n")


# -- subcommands -----------------------------------------------------------


def _cmd_ring(args) -> int:
    pres = _resolve_presentation(args.spec)
    # listed first, so a basis above the size limit is refused before
    # anything is printed
    basis = None if args.basis is None else pres.graded_basis(args.basis)
    names = _gen_names(pres.ngens)
    if args.json:
        payload = {"schema": _SCHEMA, **pres.to_json()}
        if args.poincare:
            payload["poincare"] = [str(b) for b in pres.poincare()]
        if basis is not None:
            payload["basis"] = [[str(e) for e in mono] for mono in basis]
        _print_json(payload)
        return 0
    print("generators:", " ".join(names))
    print("caps:", " ".join(str(c) for c in pres.caps))
    for i, rel in enumerate(pres.relations, start=1):
        print(f"relation {i}: {format_poly(rel, names)}")
    if args.poincare:
        print("poincare:", " ".join(str(b) for b in pres.poincare()))
    if basis is not None:
        body = " ".join(_format_monomial(m, names) for m in basis)
        print(f"basis[{args.basis}]: {body if body else '(none)'}")
    return 0


def _cache_dir() -> str | None:
    """The verdict-cache directory named by ``CPT_CACHE_DIR``; unset and
    empty both mean no cache."""
    return os.environ.get("CPT_CACHE_DIR") or None


def _cmd_iso(args) -> int:
    pres_a = _resolve_presentation(args.a)
    pres_b = _resolve_presentation(args.b)
    if args.all:
        mats = search_all(pres_a, pres_b, args.bound)
        _print_json({
            "schema": _SCHEMA,
            "bound": str(args.bound),
            "count": str(len(mats)),
            "matrices": [
                [[str(e) for e in row] for row in mat] for mat in mats
            ],
        })
        return 0 if mats else 1
    verdict = _cached_search(pres_a, pres_b, args.bound, _cache_dir())
    _print_json({"schema": _SCHEMA, **verdict.to_json()})
    return 0 if verdict.found else 1


def _cmd_sweep(args) -> int:
    started = time.monotonic()
    body = sweep_distinctness(
        args.theorem,
        args.range,
        args.bound,
        cache_dir=_cache_dir(),
    )
    report = {
        "schema": _SCHEMA,
        "meta": {
            "tool": "cpt",
            "version": __version__,
            "theorem": args.theorem,
            "range": str(args.range),
            "bound": str(args.bound),
            "elapsed_seconds": f"{time.monotonic() - started:.3f}",
        },
        "rows": body["rows"],
        "summary": body["summary"],
    }
    text = _dumps(report) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if body["summary"]["failures"] == "0" else 1


def _rank2_bundle(args) -> BundleDescriptor:
    """The rank-2 bundle of ``--base``, ``--c1``, ``--c2`` and ``--alpha``."""
    from .chern import BundleDescriptor  # only chern subcommands load it
    base = _resolve_presentation(args.base)
    chern = tuple(parse_poly_text(c, base.ngens) for c in (args.c1, args.c2))
    return BundleDescriptor(base, 2, chern, args.alpha)


def _cmd_chern_tensor(args) -> int:
    from .chern import tensor_line
    xi = _rank2_bundle(args)
    twisted = tensor_line(xi, parse_poly_text(args.by, xi.base.ngens))
    _print_json({"schema": _SCHEMA, **twisted.to_json()})
    return 0


def _cmd_chern_sum(args) -> int:
    from .chern import whitney_sum_of_lines
    base = _resolve_presentation(args.base)
    names = _gen_names(base.ngens)
    lines = [
        parse_poly_text(part, base.ngens, names)
        for part in args.lines.split(",")
    ]
    desc = whitney_sum_of_lines(base, lines)
    _print_json({"schema": _SCHEMA, **desc.to_json()})
    return 0


def _cmd_chern_milnor(args) -> int:
    from .chern import dual_complement_of_tautological
    spec = dual_complement_of_tautological(args.i, args.j)
    _print_json({"schema": _SCHEMA, **towerspec_to_json(spec)})
    return 0


def _cmd_chern_normalize(args) -> int:
    from .chern import normalize_c1
    normalized, twist = normalize_c1(_rank2_bundle(args))
    _print_json({
        "schema": _SCHEMA,
        **normalized.to_json(),
        "twist": twist.to_json(),
    })
    return 0


def _cmd_catalog_list(args) -> int:
    fams = families_for_theorem(args.theorem, args.range)
    if args.json:
        _print_json({
            "schema": _SCHEMA,
            "theorem": args.theorem,
            "range": str(args.range),
            "families": [str(f) for f in fams],
        })
        return 0
    for fid in fams:
        print(fid)
    return 0


# -- wiring ----------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The ``cpt`` parser, built once per process on first use.

    ``parse_args`` leaves the parser unchanged and looks up ``sys.stdout``
    and ``sys.stderr`` only when it prints, so one parser serves every
    call.  Each subcommand's handler is bound through
    ``set_defaults(func=...)`` at this first build; replacing a ``_cmd_*``
    function afterwards does not reach the parser.  ``parser.commands``
    maps each subcommand name to its parser, which :func:`main` uses to
    parse a command line that starts with that name.
    """
    parser = argparse.ArgumentParser(
        prog="cpt",
        description="Exact cohomology rings of projective towers: "
        "presentations, Chern arithmetic, isomorphism certificates.",
    )
    parser.add_argument(
        "--version", action="version", version=f"cpt {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser(
        "ring", help="print the quotient presentation of a tower"
    )
    ring.add_argument("spec", help="catalog id, CPn / Hk, or JSON path")
    ring.add_argument(
        "--poincare", action="store_true", help="also print graded ranks"
    )
    ring.add_argument(
        "--basis", type=int, metavar="DEGREE",
        help="also print the reduced monomial basis in this degree",
    )
    ring.add_argument("--json", action="store_true", help="emit JSON")
    ring.set_defaults(func=_cmd_ring)

    iso = sub.add_parser(
        "iso", help="search for a graded ring isomorphism certificate"
    )
    iso.add_argument("a", help="source tower (catalog id, CPn / Hk, path)")
    iso.add_argument("b", help="target tower")
    iso.add_argument(
        "--bound", type=int, default=3,
        help="matrix entry bound (default 3)",
    )
    iso.add_argument(
        "--all", action="store_true",
        help="list every certificate within the bound",
    )
    iso.set_defaults(func=_cmd_iso)

    sweep = sub.add_parser(
        "sweep", help="all-pairs distinctness regression over a family list"
    )
    sweep.add_argument("--theorem", choices=THEOREMS, required=True)
    sweep.add_argument(
        "--range", type=int, default=4,
        help="family parameters run over [-N, N] (default 4)",
    )
    sweep.add_argument("--bound", type=int, default=3)
    sweep.add_argument("--out", help="write the JSON report here")
    sweep.set_defaults(func=_cmd_sweep)

    chern = sub.add_parser("chern", help="Chern-class helpers")
    csub = chern.add_subparsers(dest="chern_command", required=True)

    tensor = csub.add_parser(
        "tensor", help="twist a rank-2 bundle by a line bundle"
    )
    tensor.add_argument("--base", required=True)
    tensor.add_argument("--c1", required=True)
    tensor.add_argument("--c2", required=True)
    tensor.add_argument("--by", required=True, help="c1 of the line bundle")
    tensor.add_argument("--alpha", type=int, choices=(0, 1))
    tensor.set_defaults(func=_cmd_chern_tensor)

    sum_parser = csub.add_parser(
        "sum", help="whitney sum of line bundles"
    )
    sum_parser.add_argument("--base", required=True)
    sum_parser.add_argument(
        "--lines", required=True,
        help="comma-separated line classes, e.g. 'x,0,0'",
    )
    sum_parser.set_defaults(func=_cmd_chern_sum)

    milnor = csub.add_parser(
        "milnor",
        help="tower description of the bidegree-(1,1) hypersurface "
        "in CPi x CPj",
    )
    milnor.add_argument("i", type=int)
    milnor.add_argument("j", type=int)
    milnor.set_defaults(func=_cmd_chern_milnor)

    normalize = csub.add_parser(
        "normalize", help="twist a rank-2 bundle so c1 has {0,1} coordinates"
    )
    normalize.add_argument("--base", required=True)
    normalize.add_argument("--c1", required=True)
    normalize.add_argument("--c2", required=True)
    normalize.add_argument("--alpha", type=int, choices=(0, 1))
    normalize.set_defaults(func=_cmd_chern_normalize)

    cat = sub.add_parser(
        "catalog-list", help="print the family ids a sweep would cover"
    )
    cat.add_argument("--theorem", choices=THEOREMS, default="main")
    cat.add_argument("--range", type=int, default=4)
    cat.add_argument("--json", action="store_true")
    cat.set_defaults(func=_cmd_catalog_list)

    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, in one argparse pass when
    ``argv`` starts with a subcommand name.

    The top-level parser hands every argument after the name to that
    subcommand's parser, so parsing them there directly gives the same
    namespace and the same errors; only a leftover argument is reported by
    the top-level parser, as its ``parse_args`` does.  The one error the
    top-level parser raises on the arguments it hands on is for an argument
    that starts ``--=``: the empty option name before the ``=`` is a prefix
    of both ``--help`` and ``--version``.  Such a command line keeps the
    full parse, as does any that starts with no subcommand name.
    """
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None or any(arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one ``cpt`` command line (``sys.argv[1:]`` when ``argv`` is
    None); returns the exit code.

    The parser comes from :func:`_build_parser`, built on the first call and
    reused by every later one in the process.  A command line that starts
    with a subcommand name costs one argparse pass, by that subcommand's
    parser (see :func:`_parse`).
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # single error funnel: message to stderr, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
