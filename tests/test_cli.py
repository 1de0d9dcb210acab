import io
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from ncperiod.cli import (
    ParseError,
    ValidationError,
    build_parser,
    main,
    parse_algebra_file,
    parse_mc_file,
    resolve_algebra,
    resolve_ring,
)
from ncperiod.algebra import validate_dg_algebra
from ncperiod.hochschild import hochschild_homology


def run_cli(argv):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_builder_shorthand():
    alg = parse_algebra_file("builder trunc_poly 2\n")
    assert alg.dim == 2
    assert validate_dg_algebra(alg) == []


A2_TABLE = """
# path algebra of the two-vertex quiver, written on the raw basis
name a2table
field Q
basis e1:0 e2:0 f:0
mult 0 0 0 1
mult 1 1 1 1
mult 2 0 2 1   # f e1 = f
mult 1 2 2 1   # e2 f = f
unit 1 1 0
"""


def test_explicit_table_for_two_vertex_quiver():
    alg = parse_algebra_file(A2_TABLE)
    assert alg.dim == 3
    assert validate_dg_algebra(alg) == []
    assert alg.labels[0] == "1"  # re-based so the unit is basis[0]
    # same homology as the built-in path algebra
    dims = hochschild_homology(alg, range(0, 3)).as_tuple(range(3))
    assert dims == (2, 0, 0)


def test_missing_unit_rejected():
    bad = "\n".join(l for l in A2_TABLE.splitlines() if not l.startswith("unit"))
    with pytest.raises(ValidationError):
        parse_algebra_file(bad)


def test_bad_directive_is_parse_error():
    with pytest.raises(ParseError):
        parse_algebra_file("basis 1:0\nnonsense 1 2 3\nunit 1\n")


def test_non_associative_table_rejected():
    text = """
basis 1:0 x:0 y:0
mult 0 0 0 1
mult 0 1 1 1
mult 1 0 1 1
mult 0 2 2 1
mult 2 0 2 1
mult 1 1 2 1
mult 1 2 0 1
unit 1 0 0
"""
    with pytest.raises(ValidationError):
        parse_algebra_file(text)


def test_ring_specs():
    assert resolve_ring("dual").dim == 2
    assert resolve_ring("eps^3").dim == 3
    assert resolve_ring("eps2x2").dim == 3


def test_spec_example_hh_table():
    code, out = run_cli(["hh", "compute", "--algebra", "trunc_poly:2",
                         "--degree-range", "0..4"])
    assert code == 0
    assert out == "2 1 1 1 1\n"



README_CYCLIC = "ncperiod cyclic --algebra trunc_poly:2 --degree-range 0..4 --t-window -6..6"


def test_readme_cyclic_line_with_negative_window():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert README_CYCLIC in readme
    code, out = run_cli(shlex.split(README_CYCLIC)[1:])
    assert code == 0
    assert out == (
        "degree   0   1   2   3   4\n"
        "HN       1   1   0   1   0\n"
        "HC       2   0   2   0   2\n"
        "HP     (HP0, HP1) = (1, 0)\n"
        "SBI-consistent: True\n"
    )


def test_negative_ranges_parse_as_values():
    args = build_parser().parse_args(["cyclic", "--algebra", "q", "--degree-range",
                                      "-4..2", "--t-window", "-6..6"])
    assert (args.degree_range, args.t_window) == ("-4..2", "-6..6")

def test_spec_example_calc_verify():
    code, out = run_cli(["calc", "verify", "--algebra", "path:a2",
                         "--arity", "3", "--bar", "4"])
    assert code == 0
    assert out.count("holds exactly") == 4


def test_spec_example_torelli_vacuous():
    code, out = run_cli(["period", "torelli", "--algebra", "matrix:2",
                         "--degree-range", "0..3"])
    assert code == 0
    assert "dim HH^2=0" in out and "injective (vacuous)" in out


def test_determinism_byte_identical():
    argv = ["cyclic", "--algebra", "trunc_poly:2", "--degree-range", "0..4"]
    outs = {run_cli(argv)[1] for _ in range(3)}
    assert len(outs) == 1
    argv2 = ["ss", "--algebra", "path:a2", "--format", "structured"]
    outs2 = {run_cli(argv2)[1] for _ in range(3)}
    assert len(outs2) == 1


def test_structured_format_is_json_with_stable_keys():
    code, out = run_cli(["hh", "--algebra", "q", "--degree-range", "0..2",
                         "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [1, 0, 0]
    assert list(data) == sorted(data)


def test_cli_is_thin_adapter():
    # the table the CLI prints is exactly the library's dims
    alg = resolve_algebra("matrix:2")
    dims = hochschild_homology(alg, range(0, 3)).as_tuple(range(3))
    code, out = run_cli(["hh", "--algebra", "matrix:2", "--degree-range", "0..2"])
    assert out.strip() == " ".join(str(d) for d in dims)


def test_parse_error_exit_code():
    code, _ = run_cli(["hh", "--algebra", "nope:3", "--degree-range", "0..2"])
    assert code == 2


def test_mc_file_roundtrip(tmp_path):
    alg = resolve_algebra("trunc_poly:2")
    ring = resolve_ring("dual")
    payload = [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": "1"}}]
    x = parse_mc_file(alg, ring, json.dumps(payload))
    assert x.value.eval(2, (1, 1))[0].coeffs == (0, 1)
    mc = tmp_path / "x.json"
    mc.write_text(json.dumps(payload))
    code, out = run_cli(["deform", "lift", "--algebra", "trunc_poly:2",
                         "--ring", "dual", "--target-ring", "eps^3",
                         "--mc-file", str(mc)])
    assert code == 0 and "lift: ok" in out
    code, out = run_cli(["period", "ptd", "--algebra", "trunc_poly:2",
                         "--ring", "dual", "--mc-file", str(mc)])
    assert code == 0 and "PTD built" in out


def test_gauge_check_cli(tmp_path):
    p1 = [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": "1"}}]
    p2 = [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": "2"}}]
    f1 = tmp_path / "x.json"
    f2 = tmp_path / "y.json"
    f1.write_text(json.dumps(p1))
    f2.write_text(json.dumps(p2))
    code, out = run_cli(["deform", "gauge-check", "--algebra", "trunc_poly:2",
                         "--ring", "dual", "--mc-file", str(f1),
                         "--mc-file2", str(f2)])
    assert code == 1 and "gauge-equivalent: False" in out
    code, out = run_cli(["deform", "gauge-check", "--algebra", "trunc_poly:2",
                         "--ring", "dual", "--mc-file", str(f1),
                         "--mc-file2", str(f1)])
    assert code == 0 and "gauge-equivalent: True" in out


def test_float_in_mc_file_is_parse_error(tmp_path):
    # a JSON float is a binary fraction (0.1 = 3602879701896397/2^55), not 1/10
    alg = resolve_algebra("trunc_poly:2")
    ring = resolve_ring("dual")
    payload = [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": 0.1}}]
    with pytest.raises(ParseError):
        parse_mc_file(alg, ring, json.dumps(payload))
    mc = tmp_path / "x.json"
    mc.write_text(json.dumps(payload))
    code, _ = run_cli(["deform", "lift", "--algebra", "trunc_poly:2",
                       "--ring", "dual", "--target-ring", "eps^3",
                       "--mc-file", str(mc)])
    assert code == 2
    exact = [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": "1/10"}}]
    x = parse_mc_file(alg, ring, json.dumps(exact))
    assert x.value.eval(2, (1, 1))[0].coeffs == (0, Fraction(1, 10))
