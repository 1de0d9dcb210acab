import io
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from ncperiod import NotDegreeZero, calculus_defect, cli, cyclic_homology
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
from ncperiod.hochschild import hochschild_cohomology, hochschild_homology


def run_cli(argv):
    """(exit code, stdout) of the CLI; an argparse error gives its exit code."""
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
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
    ("trunc_poly:3", "3 2 2 2 2 2 2", {"kind": "morse"}),
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


def _cyclic_table(hn, hc, hp, ok):
    """The table `ncperiod cyclic` prints for degrees 0..4."""
    return ("degree   0   1   2   3   4\n"
            f"HN     {' '.join(f'{d:>3}' for d in hn)}\n"
            f"HC     {' '.join(f'{d:>3}' for d in hc)}\n"
            f"HP     (HP0, HP1) = {hp}\n"
            f"SBI-consistent: {ok}\n")


def test_cyclic_sbi_failure_exits_1_with_table(monkeypatch):
    """Q[x]/x^4 prints its Loday 5.4.15 oracle with exit 0; a failed SBI
    check still prints the table and exits 1."""
    argv = ["cyclic", "--algebra", "trunc_poly:4", "--degree-range", "0..4",
            "--t-window=-6..6"]
    want = _cyclic_table([1, 3, 0, 3, 0], [4, 0, 4, 0, 4], (1, 0), True)
    assert run_cli(argv) == (0, want)
    monkeypatch.setattr(cli, "sbi_consistent", lambda *args: (False, {}))
    assert run_cli(argv) == (1, want.replace("True", "False"))


def test_cyclic_trunc_poly_3_prints_its_oracle_at_any_window():
    """HN, HC and HP of Q[x]/x^3 are exact: the t-window changes no byte."""
    want = _cyclic_table([1, 2, 0, 2, 0], [3, 0, 3, 0, 3], (1, 0), True)
    for window in ("-6..6", "-1..1"):
        assert run_cli(["cyclic", "--algebra", "trunc_poly:3", "--degree-range",
                        "0..4", f"--t-window={window}"]) == (0, want)


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


@pytest.mark.parametrize("argv, err", [
    pytest.param(argv, err, id=" ".join(argv)) for argv, err in [
        # cyclic has no --bar: HN, HC and HP read no bar bound
        (["cyclic", "--algebra", "trunc_poly:2", "--bar", "4"],
         "unrecognized arguments: --bar 4"),
        (["ss", "--algebra", "path:a2", "--bar", "-1"],
         "parse error: line 0: --bar must be >= 0"),
    ]])
def test_negative_bar_is_parse_error(argv, err, capsys):
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert err in capsys.readouterr().err


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


def test_gauge_check_cli_over_eps4(tmp_path):
    """x . x = eps and x . x = eps - 2 eps^3 are gauge-equivalent by the
    rescaling x -> e^{eps^2} x."""
    p1 = [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": 1}}]
    p2 = [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": 1, "eps^3": -2}}]
    f1 = tmp_path / "x.json"
    f2 = tmp_path / "y.json"
    f1.write_text(json.dumps(p1))
    f2.write_text(json.dumps(p2))
    code, out = run_cli(["deform", "gauge-check", "--algebra", "trunc_poly:2",
                         "--ring", "eps^4", "--mc-file", str(f1),
                         "--mc-file2", str(f2)])
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


MC_X = [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": "1"}}]


@pytest.mark.parametrize("argv, message", [
    (["period", "vdb", "--algebra", "matrix:2", "--cy-dim", "1",
      "--degree-range", "0..2"], "--pi unit is a class in HH_0, so it needs --cy-dim 0"),
    (["period", "vdb", "--algebra", "q", "--cy-dim", "2"],
     "--pi unit is a class in HH_0, so it needs --cy-dim 0"),
    (["period", "ptd", "--algebra", "trunc_poly:2", "--ring", "dual"],
     "period ptd needs --mc-file"),
    (["deform", "gauge-check", "--algebra", "trunc_poly:2", "--ring", "dual",
      "--mc-file", "{mc}"], "deform gauge-check needs --mc-file2"),
], ids=["vdb-matrix:2-cy-dim-1", "vdb-q-cy-dim-2", "ptd-no-mc-file",
         "gauge-check-no-mc-file2"])
def test_missing_or_inconsistent_inputs_are_parse_errors(
        argv, message, tmp_path, capsys):
    """Each stops before any output with a parse error that names the
    option, not with a traceback."""
    mc = tmp_path / "x.json"
    mc.write_text(json.dumps(MC_X))
    code, out = run_cli([a.format(mc=mc) for a in argv])
    assert (code, out) == (2, "")
    assert f"parse error: line 0: {message}" in capsys.readouterr().err


def test_vdb_rejects_a_pi_chain_outside_its_weight():
    from ncperiod.algebra import build_matrix_algebra
    from ncperiod.period import vdb_duality_check

    with pytest.raises(ValueError, match="bar weight 1"):
        vdb_duality_check(build_matrix_algebra(2), 1, {(0, ()): 1}, range(0, 3))


@pytest.mark.parametrize("argv, spec", [
    (["hh", "--algebra", "matrix:0"], "matrix:0"),
    (["hh", "--algebra", "matrix:"], "matrix:"),
    (["hh", "--algebra", "trunc_poly:1"], "trunc_poly:1"),
    (["hh", "--algebra", "trunc_poly:abc"], "trunc_poly:abc"),
    (["hh", "--algebra", "path:a0"], "path:a0"),
    (["deform", "lift", "--algebra", "trunc_poly:2", "--ring", "eps^x",
      "--mc-file", "{mc}"], "eps^x"),
    (["deform", "lift", "--algebra", "trunc_poly:2", "--ring", "eps^1",
      "--mc-file", "{mc}"], "eps^1"),
], ids=["matrix:0", "matrix:", "trunc_poly:1", "trunc_poly:abc", "path:a0",
        "eps^x", "eps^1"])
def test_bad_builder_sizes_are_parse_errors(argv, spec, tmp_path, capsys):
    """A size that is no integer, or one the builder rejects, stops before
    any output with a parse error that names the spec."""
    mc = tmp_path / "x.json"
    mc.write_text(json.dumps(MC_X))
    code, out = run_cli([a.format(mc=mc) for a in argv])
    assert (code, out) == (2, "")
    assert f"parse error: line 0: bad size in {spec!r}" in capsys.readouterr().err


def test_hhc_structured_records_the_chain_model():
    for spec, model in (("matrix:2", {"kind": "relative", "idempotents": 2}),
                        ("trunc_poly:2", {"kind": "flat"})):
        code, out = run_cli(["hhc", "--algebra", spec, "--degree-range", "0..2",
                             "--format", "structured"])
        assert code == 0
        assert json.loads(out)["chain_model"] == model


# -- malformed input files: a parse or validation error, never a traceback --------

ALGEBRA_HEAD = "basis 1:0 x:0\nmult 0 0 0 1\nunit 1 0\n"
RING_HEAD = "basis 1 eps\nmult 0 0 0 1\n"
LOCAL_RING_OK = "mult 0 1 1 1\nmult 1 0 1 1\n"


@pytest.mark.parametrize("kind, text, algebra, code", [
    ("algebra", ALGEBRA_HEAD + "mult 0 x 0 1\n", None, 2),
    ("algebra", ALGEBRA_HEAD + "diff 1 q 1\n", None, 2),
    ("algebra", ALGEBRA_HEAD + "mult 0 5 0 1\n", None, 2),
    ("ring", RING_HEAD + LOCAL_RING_OK + "mult 0 0 q 1\n", "trunc_poly:2", 2),
    ("ring", RING_HEAD + LOCAL_RING_OK + "mult 0 9 0 1\n", "trunc_poly:2", 2),
    ("ring", "basis 1 e\nmult 0 0 0 1\nmult 0 1 1 1\nmult 1 0 1 1\nmult 1 1 1 1\n",
     "trunc_poly:2", 1),
    ("mc", [{"word": ["x", "y"], "out": "1", "coeffs": {"eps": 1}}], "trunc_poly:2", 2),
    ("mc", [{"word": ["x", "x"], "out": "1", "coeffs": {"e": 1}}], "trunc_poly:2", 2),
    ("mc", {"word": ["x", "x"], "out": "1", "coeffs": {"eps": 1}}, "trunc_poly:2", 2),
    ("mc", [["x", "x"]], "trunc_poly:2", 2),
    ("mc", [{"word": ["x", "1"], "out": "1", "coeffs": {"eps": 1}}], "trunc_poly:2", 2),
    ("mc", [{"word": ["x", "x"], "out": "1", "coeffs": {"1": 1}}], "trunc_poly:2", 1),
    ("mc", [{"word": ["x"], "out": "x", "coeffs": {"eps": 1}}], "trunc_poly:3", 2),
], ids=["algebra-mult-index-x", "algebra-diff-index-q", "algebra-mult-index-5",
        "ring-mult-index-q", "ring-mult-index-9", "ring-not-local",
        "mc-unknown-algebra-label", "mc-unknown-ring-label", "mc-object",
        "mc-entry-no-object", "mc-unit-letter", "mc-unit-coefficient",
        "mc-arity-1-entry"])
def test_malformed_input_files_are_reported(kind, text, algebra, code, tmp_path, capsys):
    """Each file stops with exit 2 (parse error) or 1 (validation error),
    nothing on stdout and no traceback.  An arity-1 entry on Q[x]/x^3 has
    shifted degree 0, so it is no MC element and `deform lift` must not
    print `lift: ok`."""
    path = tmp_path / ("x.json" if kind == "mc" else "input.txt")
    path.write_text(json.dumps(text) if kind == "mc" else text)
    mc = path if kind == "mc" else tmp_path / "x.json"
    if kind != "mc":
        mc.write_text(json.dumps(MC_X))
    argv = (["hh", "--algebra", str(path)] if kind == "algebra" else
            ["deform", "lift", "--algebra", algebra, "--mc-file", str(mc),
             "--ring", str(path) if kind == "ring" else "dual"])
    got, out = run_cli(argv)
    err = capsys.readouterr().err
    assert (got, out) == (code, "")
    assert err.startswith("parse error" if code == 2 else "validation error")
    assert "Traceback" not in err


NOT_MC = [{"word": ["e_2", "e_2"], "out": "1", "coeffs": {"eps": 1}}]


@pytest.mark.parametrize("argv", [
    ["period", "ptd"],
    ["deform", "lift"],
    ["deform", "gauge-check", "--mc-file2", "{mc}"],
], ids=["period-ptd", "deform-lift", "deform-gauge-check"])
def test_non_maurer_cartan_file_is_a_validation_error(argv, tmp_path, capsys):
    """e_2 e_2 = e_2 on the A2 path algebra, so eps . (e_2 | e_2 -> 1) has
    the nonzero residual eps . dx: the file parses, and each command that
    reads it stops with exit 1 and a validation error, not a traceback."""
    mc = tmp_path / "x.json"
    mc.write_text(json.dumps(NOT_MC))
    got, out = run_cli([a.format(mc=mc) for a in argv]
                       + ["--algebra", "path:a2", "--ring", "dual", "--mc-file", str(mc)])
    err = capsys.readouterr().err
    assert (got, out) == (1, "")
    assert err.startswith("validation error: not Maurer-Cartan")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, want", [
    (["period", "matrix", "--algebra", "trunc_poly:2", "--degree-range", "-5..-3"],
     "HH^2 classes: 1\nclass 0:\n  zero\ntransversality(all blocks at t^-1): True\n"),
    (["period", "torelli", "--algebra", "trunc_poly:2", "--degree-range", "-4..-3"],
     "dim HH^2=1, rank=0, not injective\n"),
], ids=["matrix", "torelli"])
def test_all_negative_degree_ranges_give_zero_blocks(argv, want, capsys):
    """HH_n = 0 for n < 0, so a range below 0 has no period block: the bar
    policy floors at 0 and the one HH^2 class of Q[x]/x^2 prints zero."""
    assert run_cli(argv) == (0, want)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, option", [
    (["hh", "--algebra", "{dir}"], "--algebra"),
    (["deform", "lift", "--algebra", "trunc_poly:2", "--ring", "{dir}",
      "--mc-file", "{mc}"], "--ring"),
    (["deform", "lift", "--algebra", "trunc_poly:2", "--target-ring", "{dir}",
      "--mc-file", "{mc}"], "--target-ring"),
    (["deform", "lift", "--algebra", "trunc_poly:2", "--mc-file", "{missing}"], "--mc-file"),
    (["deform", "lift", "--algebra", "trunc_poly:2", "--mc-file", "{dir}"], "--mc-file"),
    (["deform", "gauge-check", "--algebra", "trunc_poly:2", "--mc-file", "{mc}",
      "--mc-file2", "{missing}"], "--mc-file2"),
    (["deform", "gauge-check", "--algebra", "trunc_poly:2", "--mc-file", "{mc}",
      "--mc-file2", "{dir}"], "--mc-file2"),
    (["period", "ptd", "--algebra", "trunc_poly:2", "--mc-file", "{missing}"], "--mc-file"),
    (["period", "ptd", "--algebra", "trunc_poly:2", "--mc-file", "{dir}"], "--mc-file"),
    (["hh", "--algebra", "{binary}"], "--algebra"),
    (["period", "ptd", "--algebra", "trunc_poly:2", "--mc-file", "{binary}"], "--mc-file"),
], ids=["hh-algebra-dir", "lift-ring-dir", "lift-target-ring-dir", "lift-mc-missing",
        "lift-mc-dir", "gauge-mc2-missing", "gauge-mc2-dir", "ptd-mc-missing",
        "ptd-mc-dir", "hh-algebra-binary", "ptd-mc-binary"])
def test_unreadable_input_paths_are_parse_errors(argv, option, tmp_path, capsys):
    """A missing file, a directory or a file that is not UTF-8 text given for
    an input stops with exit 2, nothing on stdout and a parse error that
    names the option, not with a traceback."""
    mc = tmp_path / "x.json"
    mc.write_text(json.dumps(MC_X))
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"\xff\xfe\x00")
    paths = {"dir": tmp_path, "mc": mc, "missing": tmp_path / "missing.json",
             "binary": binary}
    assert run_cli([a.format(**paths) for a in argv]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: line 0: cannot read {option}: ")
    assert "Traceback" not in err


# Q[t]/t^2 with |t| = 1, the ext1.alg of the CI
EXT1_FILE = "basis 1:0 t:1\nmult 0 0 0 1\nmult 0 1 1 1\nmult 1 0 1 1\nunit 1 0\n"


@pytest.mark.parametrize("command, operation", [
    (["hh"], "homology"), (["hhc"], "cohomology"), (["cyclic"], "cyclic homology"),
    (["ss"], "cyclic homology"), (["calc", "defect"], "calculus_defect"),
    (["period", "matrix"], "cyclic homology"), (["period", "torelli"], "cyclic homology"),
    (["period", "vdb"], "homology"),
], ids=["hh", "hhc", "cyclic", "ss", "calc-defect", "period-matrix", "period-torelli",
        "period-vdb"])
def test_graded_algebra_is_refused_in_one_line(command, operation, tmp_path, capsys):
    """A graded algebra given to a command that needs one in degree 0 stops
    with exit 2, nothing on stdout and one stderr line naming the refused
    operation, not with a traceback."""
    path = tmp_path / "ext1.alg"
    path.write_text(EXT1_FILE)
    assert run_cli([*command, "--algebra", str(path)]) == (2, "")
    assert capsys.readouterr().err == (
        f"unsupported algebra: {operation} requires a degree-0 algebra\n")


def test_degree_zero_refusals_are_one_value_error():
    """Every library refusal of a graded algebra is a NotDegreeZero, which
    callers may also catch as ValueError."""
    alg = parse_algebra_file(EXT1_FILE)
    assert issubclass(NotDegreeZero, ValueError)
    for compute in (hochschild_homology, hochschild_cohomology, cyclic_homology):
        with pytest.raises(NotDegreeZero, match="requires a degree-0 algebra"):
            compute(alg, range(2))
    with pytest.raises(NotDegreeZero, match="^calculus_defect requires"):
        calculus_defect(alg)
