"""CLI surface: argument resolution, output shapes, exit codes."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cptower
from cptower import Poly, chern, towerspec_to_json
from cptower.catalog import FamilyId, build, cp_spec, sweep_distinctness
from cptower.towers import MAX_FIBER_DIM
from cptower.cli import (
    _build_parser,
    _dumps,
    _parse,
    format_poly,
    main,
    parse_poly_text,
    resolve_ring_arg,
)
from conftest import TAMPERED_CACHE_ENTRIES, cache_entry_path, tampered


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# -- polynomial text parsing ------------------------------------------------


@pytest.mark.parametrize(
    "text, nvars, terms",
    [
        ("3x^2-x*y+2", 2, {(2, 0): 3, (1, 1): -1, (0, 0): 2}),
        ("x + y", 2, {(1, 0): 1, (0, 1): 1}),
        ("-x", 1, {(1,): -1}),
        ("0", 1, {}),
        ("y^2 + 2*x^2", 2, {(0, 2): 1, (2, 0): 2}),
        ("2xy", 2, {(1, 1): 2}),
        ("x2", 2, {(0, 1): 1}),  # "x2" is the second generator, not x^2
        ("x1^3x2", 2, {(3, 1): 1}),
        ("z-w", 4, {(0, 0, 1, 0): 1, (0, 0, 0, 1): -1}),
        # a space between factors, or around a caret or a sign, is dropped
        ("2 x", 2, {(1, 0): 2}),
        ("x y", 2, {(1, 1): 1}),
        ("x ^ 2", 2, {(2, 0): 1}),
        ("3 x^2 + 2 y", 2, {(2, 0): 3, (0, 1): 2}),
        # so is any other whitespace
        ("3\tx", 1, {(1,): 3}),
    ],
)
def test_parse_poly_text(text, nvars, terms):
    assert parse_poly_text(text, nvars) == Poly(nvars, terms)


def _parse_by_sums(text: str, nvars: int) -> Poly:
    """parse_poly_text as it was, one Poly sum per term: the sum of the
    parses of its terms (split before each sign that follows a term)."""
    chunks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
    total = Poly.zero(nvars)
    for chunk in chunks:
        total = total + parse_poly_text(chunk, nvars)
    return total


@pytest.mark.parametrize(
    "text, nvars",
    [
        ("3x^2-x*y+2", 2), ("x + y", 2), ("-x", 1), ("0", 1),
        ("y^2 + 2*x^2", 2), ("2xy", 2), ("x2", 2), ("x1^3x2", 2),
        ("z-w", 4),
        # like terms merge, and a sum of zero drops its monomial
        ("x - x", 1), ("2x + 3x - y", 2), ("x^2 - x^2 + y + x^2", 2),
        ("0x + 0", 2), ("xy - yx + 2", 2),
    ],
)
def test_parse_poly_text_equals_the_sum_of_its_terms(text, nvars):
    assert parse_poly_text(text, nvars) == _parse_by_sums(text, nvars)


def test_parse_poly_text_builds_one_poly(monkeypatch):
    # the terms are collected in one dict, so 20,000 distinct monomials
    # parse in linear time (one Poly sum per term took 8.8 s for 8,000)
    text = " + ".join(f"x^{e}" for e in range(20_000))
    built = []
    real_init = Poly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    start = time.perf_counter()
    p = parse_poly_text(text, 1)
    elapsed = time.perf_counter() - start
    assert len(built) == 1
    assert p == Poly(1, {(e,): 1 for e in range(20_000)})
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "text, nvars",
    [
        ("", 1),
        ("x + + y", 2),
        ("x^", 1),
        ("y", 1),
        ("3..2", 1),
        # spaces are dropped, so these would read as y, 12 and x^23
        ("x 2", 2),
        ("1 2", 1),
        ("x^2 3", 1),
        # so is '*', so a digit after one would read as y, y, 23 and x^23
        ("x*2", 2),
        ("x**2", 2),
        ("2*3", 1),
        ("x^2*3", 1),
    ],
)
def test_parse_poly_text_rejects(text, nvars):
    with pytest.raises(ValueError):
        parse_poly_text(text, nvars)


@pytest.mark.parametrize(
    "terms, nvars, text",
    [
        ({}, 2, "0"),
        ({(0, 0): 7}, 2, "7"),
        ({(1, 0): 5}, 2, "5*x"),
        ({(0, 2): 1, (2, 0): 2}, 2, "y^2 + 2*x^2"),
        ({(1, 1): -1, (2, 0): 1}, 2, "-x*y + x^2"),  # xy outranks x^2
        ({(0, 1): -3}, 2, "-3*y"),
    ],
)
def test_format_poly(terms, nvars, text):
    assert format_poly(Poly(nvars, terms)) == text


def test_parse_format_round_trip():
    p = Poly(3, {(2, 1, 0): 3, (0, 0, 2): -1, (1, 0, 0): 1})
    assert parse_poly_text(format_poly(p), 3) == p


# -- ring -------------------------------------------------------------------


def test_ring_text_output(capsys):
    code, out, _ = run_cli(capsys, "ring", "M8:0,2")
    assert code == 0
    assert out == (
        "generators: x y\n"
        "caps: 3 1\n"
        "relation 1: x^4\n"
        "relation 2: y^2 + 2*x^2\n"
    )


def test_ring_poincare_and_basis(capsys):
    code, out, _ = run_cli(capsys, "ring", "CP3", "--poincare")
    assert code == 0
    assert "poincare: 1 1 1 1" in out
    code, out, _ = run_cli(capsys, "ring", "H1", "--basis", "2")
    assert "basis[2]: x y" in out
    code, out, _ = run_cli(capsys, "ring", "H1", "--basis", "3")
    assert "basis[3]: (none)" in out


def test_ring_basis_of_many_generators(capsys, tmp_path):
    # 1,100 CP^1 stages: degree 2 lists every generator; degree 4 would be
    # 604,450 monomials of 1,100 exponents and is refused before printing
    spec_file = tmp_path / "tower.json"
    spec_file.write_text(json.dumps(
        {"stages": [{"fiber_dim": "1", "chern": [[], []]}] * 1100}
    ))
    code, out, _ = run_cli(capsys, "ring", str(spec_file), "--basis", "2")
    assert code == 0
    basis = out.splitlines()[-1].split()
    assert basis[0] == "basis[2]:" and len(basis) == 1 + 1100
    code, out, err = run_cli(capsys, "ring", str(spec_file), "--basis", "4")
    assert code == 2 and out == ""
    assert "degree-4 basis has 604450 monomials" in err


def test_ring_json_output(capsys):
    code, payload, _ = run_json(capsys, "ring", "Eta2:0,3", "--json", "--poincare", "--basis", "4")
    assert code == 0
    assert payload["schema"] == "cpt/1"
    assert payload["caps"] == ["2", "1"]
    assert payload["relations"][1] == [
        {"coeff": "1", "exps": ["0", "2"]},
        {"coeff": "3", "exps": ["2", "0"]},
    ]
    assert payload["poincare"] == ["1", "2", "2", "1"]
    assert payload["basis"] == [["2", "0"], ["1", "1"]]


def test_ring_from_json_file(capsys, tmp_path):
    spec_file = tmp_path / "tower.json"
    code, payload, _ = run_json(capsys, "ring", "H2", "--json")
    spec_file.write_text(json.dumps({
        "schema": "cpt/1",
        "stages": [
            {"fiber_dim": "1", "chern": [[], []]},
            {"fiber_dim": "1", "chern": [[{"coeff": "2", "exps": ["1"]}], []]},
        ],
    }))
    code2, payload2, _ = run_json(capsys, "ring", str(spec_file), "--json")
    assert code2 == 0
    assert payload2 == payload


def test_ring_rejects_forward_reference_file(capsys, tmp_path):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({
        "stages": [
            {"fiber_dim": "1", "chern": [[], []]},
            {
                "fiber_dim": "1",
                "chern": [[{"coeff": "1", "exps": ["0", "0", "1"]}], []],
            },
        ],
    }))
    code, out, err = run_cli(capsys, "ring", str(spec_file))
    assert code == 2
    assert out == ""
    assert err.strip() == "error: stage 2 chern references generator 3"


@pytest.mark.parametrize("chern, message", [
    ([5, []], "stage 2 chern entry 1: polynomial must be a list of terms"),
    ([[{"coeff": "1"}], []],
     "stage 2 chern entry 1: term 1: needs 'coeff' and 'exps'"),
    # an exponent past the base's generators is read before it is cut
    ([[{"coeff": "1", "exps": ["0", "-1"]}], []],
     "stage 2 chern entry 1: term 1: negative exponent"),
])
def test_ring_rejects_malformed_chern_terms_in_a_file(
    capsys, tmp_path, chern, message
):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({
        "stages": [
            {"fiber_dim": "1", "chern": [[], []]},
            {"fiber_dim": "1", "chern": chern},
        ],
    }))
    code, out, err = run_cli(capsys, "ring", str(spec_file))
    assert (code, out) == (2, "")
    assert err.strip() == f"error: {message}"


def test_ring_unknown_family(capsys):
    code, _, err = run_cli(capsys, "ring", "Nope:1")
    assert code == 2
    assert err.startswith("error: unknown family tag")


@pytest.mark.parametrize("argv", [
    ("ring", "CP1001"),
    ("iso", "CP1001", "CP1001", "--bound", "3"),
])
def test_oversized_cp_is_a_usage_error(capsys, monkeypatch, argv):
    # refused before any stage is built
    def no_stage(*args, **kwargs):
        raise AssertionError("an oversized CPn builds no stage")

    monkeypatch.setattr("cptower.catalog.Stage", no_stage)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.strip() == "error: CP1001 is above the limit of CP1000"


def test_oversized_fiber_in_a_tower_file_is_a_usage_error(
    capsys, tmp_path, monkeypatch
):
    path = tmp_path / "cp3.json"
    path.write_text(json.dumps(towerspec_to_json(cp_spec(3))))
    monkeypatch.setattr("cptower.towers.MAX_FIBER_DIM", 2)
    code, out, err = run_cli(capsys, "iso", str(path), str(path))
    assert (code, out) == (2, "")
    assert err.strip() == "error: stage 1 fiber_dim 3 is above the limit of 2"


def test_oversized_tower_file_is_a_usage_error(capsys, tmp_path):
    # 1,415 CP^1 stages: 2,002,225 presentation exponents, refused up front
    path = tmp_path / "cp1s.json"
    path.write_text(json.dumps(
        {"stages": [{"fiber_dim": "1", "chern": [[], []]}] * 1415}
    ))
    for argv in (["ring", path], ["iso", path, path]):
        code, out, err = run_cli(capsys, *map(str, argv))
        assert (code, out) == (2, "")
        assert err.strip() == (
            "error: a tower of 1415 stages and 0 chern terms has 2002225 "
            "presentation exponents, above the limit of 2000000"
        )


def test_fractional_fiber_dim_in_a_tower_file_is_a_usage_error(
    capsys, tmp_path
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"stages": [{"fiber_dim": 2.7, "chern": []}]}))
    code, out, err = run_cli(capsys, "ring", str(path))
    assert (code, out) == (2, "")
    assert err.strip() == "error: stage 1: fiber_dim must be an integer"


def test_resolve_ring_arg_spellings():
    assert resolve_ring_arg("CP3").ngens == 1
    assert resolve_ring_arg("H-3").stages[1].chern[0] == Poly(1, {(1,): -3})
    assert resolve_ring_arg("Zeta3:1,0,2").ngens == 3


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter sets no digit limit",
)
@pytest.mark.parametrize("prefix, field", [("CP", "CPn's n"), ("H", "Hk's k")])
def test_an_over_long_base_id_names_its_field(capsys, prefix, field):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run_cli(capsys, "ring", prefix + digits)
    assert (code, out) == (2, "")
    assert err.strip() == (
        f"error: {field} has {len(digits)} characters, too long a decimal "
        "to read"
    )


def test_ids_come_before_files_of_the_same_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a junk file named like a catalog id does not shadow the id
    (tmp_path / "GB2:1").write_text("not a tower")
    assert resolve_ring_arg("GB2:1") == build(FamilyId("GB2", (1,)))
    code, out, err = run_cli(capsys, "ring", "GB2:1")
    assert (code, err) == (0, "")
    assert "caps: 1 2" in out
    # a plain file with no separator and no .json suffix is a tower file
    (tmp_path / "mytower").write_text(json.dumps(towerspec_to_json(cp_spec(2))))
    assert resolve_ring_arg("mytower") == cp_spec(2)
    # text that is neither an id nor a file keeps the catalog's error
    with pytest.raises(ValueError, match="unknown family tag 'Nope'"):
        resolve_ring_arg("Nope:1")
    code, out, err = run_cli(capsys, "ring", "Nope:1")
    assert (code, out) == (2, "")
    assert err.strip() == "error: unknown family tag 'Nope'"


# -- iso --------------------------------------------------------------------


def test_iso_found(capsys):
    code, payload, _ = run_json(capsys, "iso", "CP3", "CP3", "--bound", "1")
    assert code == 0
    assert payload == {
        "schema": "cpt/1",
        "result": "found",
        "matrix": [["-1"]],
        "det": "-1",
    }


def test_iso_none_within_bound(capsys):
    code, payload, _ = run_json(capsys, "iso", "Eta2:0,3", "Eta2:0,-3", "--bound", "2")
    assert code == 1
    assert payload == {
        "schema": "cpt/1",
        "result": "none_within_bound",
        "bound": "2",
        "reason": "exhausted",
    }


def test_iso_betti_mismatch(capsys):
    code, payload, _ = run_json(capsys, "iso", "CP1", "CP2", "--bound", "3")
    assert code == 1
    assert payload["reason"] == "betti_mismatch"


def test_iso_generator_count_mismatch_exits_1(capsys, tmp_path, monkeypatch):
    # different generator counts mean different Poincare series: a proof,
    # decided by search() before the cache is consulted
    monkeypatch.setenv("CPT_CACHE_DIR", str(tmp_path / "cache"))
    code, payload, err = run_json(capsys, "iso", "CP3", "GB2:1")
    assert (code, err) == (1, "")
    assert payload == {
        "schema": "cpt/1",
        "result": "none_within_bound",
        "bound": "3",
        "reason": "betti_mismatch",
    }
    code, payload, _ = run_json(capsys, "iso", "CP3", "GB2:1", "--all")
    assert code == 1
    assert payload["count"] == "0" and payload["matrices"] == []
    assert not (tmp_path / "cache").exists()  # no cache file written


def test_iso_cross_shape_box_is_still_refused(capsys):
    # the box is checked on the larger generator count, before any table
    code, out, err = run_cli(
        capsys, "iso", "CP3", "Zeta3:0,0,0", "--bound", "23"
    )
    assert (code, out) == (2, "")
    assert "box of 103823 columns" in err


def test_iso_agrees_with_every_sweep_row(capsys):
    # a sweep row is exactly the cpt iso verdict, cross-shape rows included
    rows = sweep_distinctness("main", 1, 2)["rows"]
    assert len(rows) == 192
    assert any(row["verdict"].get("reason") == "betti_mismatch" for row in rows)
    for row in rows:
        code, out, err = run_cli(
            capsys, "iso", row["a"], row["b"], "--bound", "2"
        )
        assert json.loads(out) == {"schema": "cpt/1", **row["verdict"]}, row
        assert code == (0 if row["verdict"]["result"] == "found" else 1)
        assert err == ""


def test_iso_all(capsys):
    code, payload, _ = run_json(capsys, "iso", "CP3", "CP3", "--bound", "1", "--all")
    assert code == 0
    assert payload == {
        "schema": "cpt/1",
        "bound": "1",
        "count": "2",
        "matrices": [[["-1"]], [["1"]]],
    }
    code, payload, _ = run_json(
        capsys, "iso", "Eta2:0,3", "Eta2:0,-3", "--bound", "2", "--all"
    )
    assert code == 1
    assert payload["count"] == "0" and payload["matrices"] == []


def test_iso_uses_cache_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CPT_CACHE_DIR", str(tmp_path))
    code1, payload1, _ = run_json(capsys, "iso", "GB2:1", "GB2:2", "--bound", "1")
    assert code1 == 0
    assert len(list(tmp_path.iterdir())) == 1
    code2, payload2, _ = run_json(capsys, "iso", "GB2:1", "GB2:2", "--bound", "1")
    assert (code2, payload2) == (code1, payload1)


@pytest.mark.parametrize("argv", [
    ("iso", "Eta2:0,1", "Eta2:0,2", "--bound", "2"),
    ("sweep", "--theorem", "three-stage", "--range", "0", "--bound", "2"),
])
def test_empty_cache_env_means_no_cache(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    # an unwritable directory warns once per process: forget earlier ones
    monkeypatch.setattr(cptower.catalog, "_unwritable_cache_dirs", set())
    monkeypatch.delenv("CPT_CACHE_DIR", raising=False)
    code, out, err = run_cli(capsys, *argv)
    monkeypatch.setenv("CPT_CACHE_DIR", "")
    code_empty, out_empty, err_empty = run_cli(capsys, *argv)
    assert (code_empty, err_empty) == (code, err) == (code, "")
    strip = re.compile(r'"elapsed_seconds": "[0-9.]+"')
    assert strip.sub("", out_empty) == strip.sub("", out)
    assert list(tmp_path.iterdir()) == []  # nothing cached in the cwd


def test_iso_survives_an_unwritable_cache(capsys, tmp_path, monkeypatch):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file")
    monkeypatch.setenv("CPT_CACHE_DIR", str(not_a_dir))
    code, payload, err = run_json(
        capsys, "iso", "Eta2:0,1", "Eta2:0,2", "--bound", "2"
    )
    assert code == 1
    assert payload["result"] == "none_within_bound"
    (line,) = err.splitlines()
    assert line.startswith("warning: verdict not cached:")


@pytest.mark.parametrize("a, b, bound, edits", TAMPERED_CACHE_ENTRIES)
def test_iso_recomputes_tampered_cache_entries(
    capsys, tmp_path, monkeypatch, a, b, bound, edits
):
    argv = ("iso", a, b, "--bound", str(bound))
    monkeypatch.delenv("CPT_CACHE_DIR", raising=False)
    fresh = run_cli(capsys, *argv)
    monkeypatch.setenv("CPT_CACHE_DIR", str(tmp_path))
    assert run_cli(capsys, *argv) == fresh
    if json.loads(fresh[1]).get("reason") == "betti_mismatch":
        # decided before the cache: a planted entry is never read or rewritten
        assert list(tmp_path.iterdir()) == []
        cache_file = cache_entry_path(tmp_path, a, b, bound)
        cache_file.write_text(json.dumps(tampered(json.loads(fresh[1]), edits)))
        before = (cache_file.read_bytes(), cache_file.stat().st_ino)
        assert run_cli(capsys, *argv) == fresh
        assert (cache_file.read_bytes(), cache_file.stat().st_ino) == before
        return
    (cache_file,) = tmp_path.iterdir()
    entry = json.loads(cache_file.read_text())
    cache_file.write_text(json.dumps(tampered(entry, edits)))
    assert run_cli(capsys, *argv) == fresh
    assert json.loads(cache_file.read_text()) == entry  # overwritten


def test_iso_refuses_an_oversized_box(capsys):
    for extra in ((), ("--all",)):
        code, out, err = run_cli(
            capsys, "iso", "Zeta3:1,0,2", "Zeta3:0,1,2", "--bound", "100", *extra
        )
        assert code == 2 and out == ""
        assert "box of 8120601 columns" in err


# a bound whose 2B+1 has 1,501 digits, and the largest bound the argument
# parser accepts, whose 2B+1 has 4,301: above what str() of an int may print
HUGE_BOUNDS = ["1" + "0" * 1500, "9" * 4300]


@pytest.mark.parametrize("bound", HUGE_BOUNDS)
@pytest.mark.parametrize("argv", [
    ("iso", "Zeta3:1,0,2", "Zeta3:0,1,2"),
    ("sweep", "--theorem", "three-stage", "--range", "0"),
])
def test_a_huge_bound_is_refused_readably(capsys, argv, bound):
    code, out, err = run_cli(capsys, *argv, "--bound", bound)
    assert (code, out) == (2, "")
    assert err == (
        f"error: bound B of {int(bound).bit_length()} bits with 3 generators "
        "gives a box of (2B+1)^3 columns, above the limit of 300000 cells\n"
    )


def test_a_box_too_large_to_multiply_out_is_named_by_its_power(
    capsys, tmp_path
):
    # 1,400 CP^1 stages: the box is multiplied out only while it can still
    # fit, so neither refusal writes (2B+1)^1400 in decimal
    spec_file = tmp_path / "tower.json"
    spec_file.write_text(json.dumps(
        {"stages": [{"fiber_dim": "1", "chern": [[], []]}] * 1400}
    ))
    tower = str(spec_file)
    for bound, box in (("100", "201^1400"), ("7" * 4000, "(2B+1)^1400")):
        code, out, err = run_cli(capsys, "iso", tower, tower, "--bound", bound)
        assert (code, out) == (2, "")
        assert f"with 1400 generators gives a box of {box} columns" in err
        assert len(err) < 200


# -- sweep ------------------------------------------------------------------


def test_sweep_stdout_report(capsys):
    code, payload, _ = run_json(
        capsys, "sweep", "--theorem", "three-stage", "--range", "0", "--bound", "2"
    )
    assert code == 0
    assert payload["schema"] == "cpt/1"
    meta = payload["meta"]
    assert meta["tool"] == "cpt"
    assert meta["theorem"] == "three-stage"
    assert meta["range"] == "0" and meta["bound"] == "2"
    assert "jobs" not in meta
    assert float(meta["elapsed_seconds"]) >= 0.0
    assert payload["summary"] == {"pairs": "11", "failures": "0", "flagged": "1"}


def test_sweep_out_file_determinism(capsys, tmp_path):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        code, stdout, _ = run_cli(
            capsys, "sweep", "--theorem", "three-stage", "--range", "1",
            "--bound", "2", "--out", str(out),
        )
        assert code == 0 and stdout == ""
    a, b = (json.loads(out.read_text()) for out in outs)
    # identical up to the one run-condition field in meta
    for report in (a, b):
        report["meta"].pop("elapsed_seconds")
    assert json.dumps(a) == json.dumps(b)


def test_sweep_unwritable_out(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--theorem", "three-stage", "--range", "0",
        "--bound", "2", "--out", str(tmp_path),  # a directory: open() fails
    )
    assert code == 2
    assert err.startswith("error: cannot write")


def test_sweep_failure_exits_1(capsys, monkeypatch):
    # force a wrong expectation so one row fails
    monkeypatch.setattr(
        "cptower.catalog._expected_row", lambda a, b: ("coincident", None)
    )
    code, payload, _ = run_json(
        capsys, "sweep", "--theorem", "three-stage", "--range", "0", "--bound", "1"
    )
    assert code == 1
    assert int(payload["summary"]["failures"]) > 0


def test_sweep_survives_an_unwritable_cache(capsys, tmp_path, monkeypatch):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file")
    monkeypatch.setenv("CPT_CACHE_DIR", str(not_a_dir))
    code, payload, err = run_json(
        capsys, "sweep", "--theorem", "three-stage", "--range", "0", "--bound", "2"
    )
    assert code == 0
    assert payload["summary"] == {"pairs": "11", "failures": "0", "flagged": "1"}
    (line,) = err.splitlines()  # once, not once per searched row
    assert line.startswith("warning: verdict not cached:")


def test_sweep_has_no_jobs_option(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--theorem", "three-stage", "--range", "0",
        "--bound", "2", "--jobs", "2",
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --jobs 2" in err


def test_sweep_refuses_an_oversized_box(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--theorem", "three-stage", "--range", "0",
        "--bound", "100",
    )
    assert code == 2 and out == ""
    assert "box of 8120601 columns" in err


def test_sweep_bad_theorem_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--theorem", "nope")
    assert code == 2


# -- chern ------------------------------------------------------------------


def test_chern_tensor_fixture(capsys):
    code, payload, _ = run_json(
        capsys, "chern", "tensor", "--base", "CP2",
        "--c1", "3x", "--c2", "5x^2", "--by=-x",
    )
    assert code == 0
    assert payload == {
        "schema": "cpt/1",
        "rank": "2",
        "chern": [
            [{"coeff": "1", "exps": ["1"]}],
            [{"coeff": "3", "exps": ["2"]}],
        ],
        "alpha": None,
    }


def test_chern_tensor_trivial_twist(capsys):
    code, payload, _ = run_json(
        capsys, "chern", "tensor", "--base", "CP2",
        "--c1", "3x", "--c2", "5x^2", "--by", "0",
    )
    assert code == 0
    assert payload["chern"] == [
        [{"coeff": "3", "exps": ["1"]}],
        [{"coeff": "5", "exps": ["2"]}],
    ]


def test_chern_tensor_alpha_rides(capsys):
    code, payload, _ = run_json(
        capsys, "chern", "tensor", "--base", "CP3",
        "--c1", "2x", "--c2", "x^2", "--by", "x", "--alpha", "1",
    )
    assert code == 0
    assert payload["alpha"] == "1"


def test_chern_sum_fixture(capsys):
    code, payload, _ = run_json(
        capsys, "chern", "sum", "--base", "CP1", "--lines", "x,0,0"
    )
    assert code == 0
    assert payload["rank"] == "3"
    assert payload["chern"] == [[{"coeff": "1", "exps": ["1"]}], [], []]


def test_chern_sum_of_too_many_lines_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("cptower.towers.MAX_FIBER_DIM", 2)
    code, out, err = run_cli(
        capsys, "chern", "sum", "--base", "CP1", "--lines", "x,0,0,x"
    )
    assert (code, out) == (2, "")
    assert err.strip() == (
        "error: whitney sum of 4 line bundles: its projectivization's "
        "fiber_dim 3 is above the limit of 2"
    )


def test_chern_milnor_fixture(capsys):
    code, payload, _ = run_json(capsys, "chern", "milnor", "1", "2")
    assert code == 0
    assert payload["stages"] == [
        {"fiber_dim": "1", "chern": [[], []]},
        {
            "fiber_dim": "1",
            "chern": [[{"coeff": "1", "exps": ["1"]}], []],
        },
    ]


def test_chern_milnor_validation(capsys):
    code, _, err = run_cli(capsys, "chern", "milnor", "3", "2")
    assert code == 2
    assert "need i <= j" in err


def test_chern_milnor_refuses_a_fiber_above_the_limit(capsys):
    code, out, err = run_cli(
        capsys, "chern", "milnor", "1", str(MAX_FIBER_DIM + 2)
    )
    assert code == 2 and out == ""
    assert err.strip() == (
        f"error: stage 2 fiber_dim {MAX_FIBER_DIM + 1} is above the limit "
        f"of {MAX_FIBER_DIM}"
    )


def test_chern_normalize_fixture(capsys):
    code, payload, _ = run_json(
        capsys, "chern", "normalize", "--base", "CP2", "--c1", "3x", "--c2", "5x^2"
    )
    assert code == 0
    assert payload["chern"] == [
        [{"coeff": "1", "exps": ["1"]}],
        [{"coeff": "3", "exps": ["2"]}],
    ]
    assert payload["twist"] == [{"coeff": "-1", "exps": ["1"]}]


# -- catalog-list -----------------------------------------------------------


def test_chern_refuses_a_digit_spaced_from_a_name(capsys):
    # "x 2" would read as y on a 2-generator base
    code, out, err = run_cli(capsys, "chern", "normalize", "--base", "H0",
                             "--c1", "x 2", "--c2", "0")
    assert (code, out) == (2, "")
    assert err.strip() == ("error: a space separates a digit from the name "
                           "or number before it in 'x 2'")


def test_chern_refuses_a_digit_after_a_star(capsys):
    # "x*2" would read as y on a 2-generator base
    code, out, err = run_cli(capsys, "chern", "tensor", "--base", "H0",
                             "--c1", "x*2", "--c2", "0", "--by=0")
    assert (code, out) == (2, "")
    assert err.strip() == "error: a digit follows a '*' in 'x*2'"


def test_catalog_list_text(capsys):
    code, out, _ = run_cli(capsys, "catalog-list", "--theorem", "eight-dim", "--range", "1")
    assert code == 0
    assert out.splitlines() == [
        "M8:0,-1", "M8:0,0", "M8:0,1",
        "M8:1,-1", "M8:1,0", "M8:1,1",
        "N8:-1", "N8:0", "N8:1",
    ]


def test_catalog_list_rejects_a_negative_range(capsys):
    code, out, err = run_cli(
        capsys, "catalog-list", "--theorem", "two-stage", "--range", "-1"
    )
    assert code == 2 and out == ""
    assert "range must be non-negative" in err


@pytest.mark.parametrize("argv, option", [
    (["iso", "GB2:1", "GB2:2", "--bound", "\u0662"], "--bound"),  # ARABIC-INDIC TWO
    (["iso", "GB2:1", "GB2:2", "--bound", "0_1"], "--bound"),
    (["sweep", "--theorem", "main", "--range", "+0"], "--range"),
    (["sweep", "--theorem", "main", "--range", "0", "--bound", "1 "],
     "--bound"),
    (["catalog-list", "--range", " 1"], "--range"),
    (["ring", "GB2:1", "--basis", "1_0"], "--basis"),
    (["chern", "tensor", "--base", "CP2", "--c1", "x", "--c2", "0",
      "--by", "x", "--alpha", "\uff10"], "--alpha"),  # FULLWIDTH ZERO
    (["chern", "normalize", "--base", "CP2", "--c1", "x", "--c2", "0",
      "--alpha", "0_0"], "--alpha"),
    (["chern", "milnor", "1", "\u0662"], "j"),
])
def test_integer_options_follow_the_family_id_rule(capsys, argv, option):
    # int() reads each of these values, but a family id parameter and a
    # tower file refuse them, and so does every integer option: a usage
    # error before any command runs
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {option}: invalid integer value: {argv[-1]!r}" in err


def test_catalog_list_refuses_a_range_above_the_limit(capsys, monkeypatch):
    monkeypatch.setattr("cptower.catalog.MAX_RANGE", 2)
    code, out, err = run_cli(capsys, "catalog-list", "--range", "3")
    assert (code, out) == (2, "")
    assert err.strip() == "error: range 3 is above the limit of 2"


def test_sweep_refuses_rows_above_the_limit(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("a refused sweep searches nothing")

    monkeypatch.setattr("cptower.catalog.MAX_SWEEP_ROWS", 44)
    monkeypatch.setattr("cptower.catalog.search", no_search)
    code, out, err = run_cli(
        capsys, "sweep", "--theorem", "eight-dim", "--range", "1"
    )
    assert (code, out) == (2, "")
    assert err.strip() == (
        "error: the eight-dim sweep at range 1 has 45 rows, above the limit of 44"
    )


def test_catalog_list_json(capsys):
    code, payload, _ = run_json(capsys, "catalog-list", "--json")
    assert code == 0
    assert payload["schema"] == "cpt/1"
    assert payload["theorem"] == "main" and payload["range"] == "4"
    assert len(payload["families"]) == 53


# -- top-level behaviour ----------------------------------------------------


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("cpt ")


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


_SWEEP = ("sweep", "--theorem", "three-stage", "--range", "0", "--bound", "2")


def _without_timing(result):
    code, out, err = result
    return code, re.sub(r'"elapsed_seconds": "[^"]*"', "", out), err


@pytest.mark.parametrize(
    "calls, codes",
    [
        ([("iso", "CP3", "CP3", "--bound", "1", "--all"),
          ("iso", "CP3", "CP3", "--bound", "1")], [0, 0]),
        ([("iso", "GB2:1"), ("iso", "GB2:1", "GB2:2", "--bound", "1")],
         [2, 0]),
        ([("--version",), ("ring", "CP2")], [0, 0]),
        ([(*_SWEEP, "--bound", "0"), _SWEEP], [2, 0]),
    ],
)
def test_shared_parser_matches_a_parser_per_call(capsys, calls, codes):
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(_without_timing(run_cli(capsys, *argv)))
    _build_parser.cache_clear()
    together = [_without_timing(run_cli(capsys, *argv)) for argv in calls]
    assert together == alone
    assert [code for code, _, _ in together] == codes
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def _main_by_full_parse(argv):
    """``main`` as it runs every command line through the top-level
    ``parse_args``."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["--version"],
    ["bogus", "GB2:1"],
    ["--", "iso", "GB2:1", "GB2:2", "--bound", "1"],
    ["iso", "--", "GB2:1", "GB2:2", "--bound", "1"],
    ["iso", "GB2:1", "GB2:2", "--", "--bound", "1"],
    ["iso", "GB2:1", "GB2:2", "--foo"],
    ["iso", "GB2:1", "GB2:2", "--version"],
    ["iso", "GB2:1", "GB2:2", "--bound", "x"],
    ["iso", "GB2:1", "GB2:2", "--=x"],  # ambiguous to the top-level parser
    ["iso", "-h"],
    ["iso", "GB2:1", "GB2:2", "--bound", "1"],
    ["chern", "milnor", "1", "2"],
    ["chern", "milnor", "1", "2", "x"],
])
def test_subcommand_dispatch_matches_the_full_parse(capsys, argv):
    full = _main_by_full_parse(list(argv)), *capsys.readouterr()
    assert run_cli(capsys, *argv) == full


@pytest.mark.parametrize("argv", [
    ["iso", "GB2:1", "GB2:2", "--bound", "1", "--all"],
    ["chern", "milnor", "1", "2"],
    ["sweep", "--theorem", "main"],
])
def test_subcommand_dispatch_gives_the_full_namespace(argv):
    assert vars(_parse(argv)) == vars(_build_parser().parse_args(argv))


def test_main_reads_sys_argv_without_an_argv(capsys, monkeypatch):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["cpt", "iso", "GB2:1", "GB2:2", "--foo"])
    code = main()
    err = capsys.readouterr().err
    assert code == 2
    assert err.endswith("cpt: error: unrecognized arguments: --foo\n")


# -- JSON writer -------------------------------------------------------------


_TRICKY_TEXT = st.text(
    alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\r é€ŝ😀') | st.characters(),
    max_size=8,
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TRICKY_TEXT,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_TRICKY_TEXT, kids, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_dumps_is_json_dumps_with_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("argv, digest", [
    (("iso", "GB2:1", "GB2:2", "--bound", "1"),
     "d62012198d6e117d63607176a3d1de7e413209287e16aa420de6695a311ea997"),
    (("iso", "Eta2:0,3", "Eta2:0,-3", "--bound", "2"),
     "c8be5da605d18b7f1678957bc641a0654c3e17893aa4c6b3a7d1e82ae63cc856"),
])
def test_iso_stdout_is_pinned(capsys, argv, digest):
    # the printed bytes, indentation and final newline included
    code, out, _ = run_cli(capsys, *argv)
    assert code == (0 if argv[1] == "GB2:1" else 1)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_sweep_text_is_json_dumps_with_indent_2(capsys):
    code, out, _ = run_cli(capsys, *_SWEEP)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


_PRINTING_COMMANDS = [
    ("sweep", "--theorem", "three-stage", "--range", "1", "--bound", "2"),
    ("iso", "GB2:1", "GB2:2", "--bound", "1"),       # a miss, then a hit
    ("iso", "GB2:1", "GB2:2", "--bound", "1"),
    ("iso", "Eta2:0,3", "Eta2:0,-3", "--bound", "2"),
    ("iso", "Eta2:0,3", "Eta2:0,-3", "--bound", "2"),
    ("ring", "Eta2:1,-1", "--json", "--poincare", "--basis", "2"),
    ("catalog-list", "--json"),
    ("chern", "milnor", "2", "3"),
]


@pytest.mark.skipif(
    json.encoder.c_make_encoder is None,
    reason="without the C encoder every json.dumps runs _make_iterencode",
)
def test_no_document_runs_the_pure_python_encoder(capsys, tmp_path, monkeypatch):
    def each(cache_dir):
        monkeypatch.setenv("CPT_CACHE_DIR", str(cache_dir))
        return [_without_timing(run_cli(capsys, *argv))
                for argv in _PRINTING_COMMANDS]

    plain = each(tmp_path / "plain")

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    guarded = each(tmp_path / "guarded")
    assert [(code, out) for code, out, _ in guarded] == [
        (code, out) for code, out, _ in plain
    ]
    assert [code for code, _, _ in guarded] == [0, 0, 0, 1, 1, 0, 0, 0]


def test_importing_the_cli_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import cptower.cli as cli; print(cli._build_parser.cache_info())"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "currsize=0" in proc.stdout


def test_importing_the_cli_loads_no_pool_or_hashlib():
    # a sweep runs in one process, and hashlib waits for a cached search
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cptower.cli; "
         "print(sorted({'concurrent.futures', 'hashlib'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_import_loads_no_dataclasses_or_chern():
    # without site-packages, as the stdlib-only CI job imports it;
    # cptower.chern loads on first use of one of its names
    src = Path(cptower.__file__).resolve().parents[1]
    script = (
        "import json, sys, cptower.cli\n"
        "cold = sorted({'dataclasses', 'cptower.chern'} & set(sys.modules))\n"
        "import cptower\n"
        "lazy = cptower.BundleDescriptor\n"
        "import cptower.chern\n"
        "print(json.dumps([cold, lazy is cptower.chern.BundleDescriptor]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True]


def test_every_public_name_resolves():
    namespace = {}
    exec("from cptower import *", namespace)
    assert [n for n in cptower.__all__ if n not in namespace] == []
    assert cptower.whitney_sum_of_lines is chern.whitney_sum_of_lines
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cptower.no_such_name


@pytest.mark.skipif(
    shutil.which("cpt") is None,
    reason="no cpt console script on PATH (created by pip install -e .)",
)
def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--version"], capture_output=True
    )
    assert proc.returncode == 0  # sanity: subprocess plumbing works
    proc = subprocess.run(
        ["cpt", "ring", "CP3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "relation 1: x^4" in proc.stdout


def test_console_script_entry_point_runs():
    """The ``cpt`` target declared in pyproject.toml is ``cptower.cli:main``,
    and running that module as a program (the same ``sys.exit(main())`` a
    pip-made wrapper calls) works without the script installed."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["cpt"] == "cptower.cli:main"
    proc = subprocess.run(
        [sys.executable, "-m", "cptower.cli", "ring", "CP3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "relation 1: x^4" in proc.stdout
