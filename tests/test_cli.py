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


@pytest.mark.parametrize("spec, want, model", [
    ("matrix:3", "1 0 0 0 0 0 0", {"kind": "relative", "idempotents": 3}),
    ("path:a4", "4 0 0 0 0 0 0", {"kind": "relative", "idempotents": 4}),
    ("trunc_poly:3", "3 2 2 2 2 2 2", {"kind": "flat"}),
])
def test_hh_oracles_and_chain_model(spec, want, model):
    """Morita HH(M3) = HH(Q); an acyclic quiver has HH_0 = k^#vertices and
    nothing above; Q[x]/x^3 has HH_n = 3, 2, 2, ... (Loday 5.4.15).  The
    structured output names the chain model each ran on."""
    argv = ["hh", "--algebra", spec, "--degree-range", "0..6"]
    assert run_cli(argv) == (0, want + "\n")
    code, out = run_cli(argv + ["--format", "structured"])
    payload = json.loads(out)
    assert code == 0 and payload["lines"] == [want] and payload["chain_model"] == model



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


def test_cyclic_sbi_failure_exits_1_with_table():
    code, out = run_cli(["cyclic", "--algebra", "trunc_poly:4", "--degree-range",
                         "0..4", "--t-window=-6..6"])
    assert code == 1
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["degree", "HN", "HC", "HP",
                                                  "SBI-consistent:"]
    assert lines[-1] == "SBI-consistent: False"


def test_negative_ranges_parse_as_values():
    args = build_parser().parse_args(["cyclic", "--algebra", "q", "--degree-range",
                                      "-4..2", "--t-window", "-6..6"])
    assert (args.degree_range, args.t_window) == ("-4..2", "-6..6")

def test_spec_example_calc_verify():
    code, out = run_cli(["calc", "verify", "--algebra", "path:a2",
                         "--arity", "3", "--bar", "4"])
    assert code == 0
    assert out.count("holds exactly") == 4


@pytest.mark.parametrize("argv", [
    ["verify", "--arity", "-1", "--bar", "2"],
    ["verify", "--arity", "2", "--bar", "-1"],
    ["defect", "--degree-bound", "-1"],
    ["defect", "--bar", "-1"],
], ids=" ".join)
def test_negative_calc_bounds_are_parse_errors(argv, capsys):
    code, out = run_cli(["calc", argv[0], "--algebra", "trunc_poly:2", *argv[1:]])
    assert (code, out) == (2, "")
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cyclic", "--algebra", "trunc_poly:2", "--degree-range", "0..2", "--bar", "-1"],
    ["ss", "--algebra", "path:a2", "--bar", "-1"],
], ids=" ".join)
def test_negative_bar_is_parse_error(argv, capsys):
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert "parse error: line 0: --bar must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hh", "--algebra", "q", "--degree-range", "3..1"],
    ["ss", "--algebra", "q", "--degree-range", "1..0"],
    ["hhc", "--algebra", "q", "--degree-range", "2..0"],
    ["period", "matrix", "--algebra", "q", "--degree-range", "2..0"],
    ["hh", "--algebra", "q", "--degree-range", "4"],
    ["hh", "--algebra", "q", "--degree-range", "x..2"],
    ["hh", "--algebra", "q", "--degree-range", "0..1..2"],
    ["cyclic", "--algebra", "q", "--t-window=a..b"],
    ["cyclic", "--algebra", "q", "--t-window=2..1"],
], ids=" ".join)
def test_malformed_ranges_are_parse_errors(argv, capsys):
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    option = "--t-window" if "cyclic" in argv else "--degree-range"
    assert (f"parse error: line 0: {option} must be lo..hi with integers lo <= hi"
            in capsys.readouterr().err)


@pytest.mark.parametrize("arity", ["3", "-1"])
def test_hhc_arity_below_top_degree_is_parse_error(arity, capsys):
    code, out = run_cli(["hhc", "--algebra", "trunc_poly:2", "--arity", arity])
    assert (code, out) == (2, "")
    assert "--arity must be >= 5 (max degree + 1)" in capsys.readouterr().err
    code, out = run_cli(["hhc", "--algebra", "trunc_poly:2", "--arity", "5"])
    assert code == 0 and out.strip()


def test_calc_verify_zero_bounds_valid():
    code, out = run_cli(["calc", "verify", "--algebra", "trunc_poly:2",
                         "--arity", "0", "--bar", "0"])
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


def test_target_ring_not_extending_mc_ring_is_parse_error(tmp_path, capsys):
    mc = tmp_path / "x.json"
    mc.write_text(json.dumps([{"word": ["x", "x"], "out": "1", "coeffs": {"eps": "1"}}]))
    code, out = run_cli(["deform", "lift", "--algebra", "trunc_poly:2",
                         "--ring", "eps^3", "--target-ring", "dual",
                         "--mc-file", str(mc)])
    assert (code, out) == (2, "")
    assert ("parse error: line 0: --target-ring dual does not extend --ring eps^3"
            in capsys.readouterr().err)


def test_target_ring_several_levels_up_is_parse_error(tmp_path, capsys):
    # a lift adds one m-adic level: dual -> eps^4 skips eps^3
    mc = tmp_path / "x.json"
    mc.write_text(json.dumps([{"word": ["x", "x"], "out": "1", "coeffs": {"eps": "1"}}]))
    code, out = run_cli(["deform", "lift", "--algebra", "trunc_poly:2",
                         "--ring", "dual", "--target-ring", "eps^4",
                         "--mc-file", str(mc)])
    assert (code, out) == (2, "")
    assert ("parse error: line 0: --target-ring eps^4 does not extend --ring dual"
            in capsys.readouterr().err)
