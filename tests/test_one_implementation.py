"""Each of these concepts has one implementation in the package: the chain
index (`hochschild._walks`, the walks of a chain model, flat or relative,
closed cyclically by `chain_spaces` and in parallel by `CochainBasis`), the
complex of a chain model, flat, relative or Morse (its one builder
`hochschild._weight_graded_boundary`, which HH, HC and the reduction read),
the perturbation series p delta (h delta)^k iota (`cyclic.perturbation_transfer`,
which reads iota, p and h as operations of a retract: the complex_sdr spots
of a reduction, the Morse SDR or the identity),
the per-key operator assembly (`hochschild._keyed_matrix`, behind
`_weight_matrices`, which gives `connes_matrices` on every model and d on a
relative or Morse one, and behind `calculus.OperatorSpace.operator_matrix`,
which gives d, B and I_P of the calculus), the one run-form assembly
(`hochschild.term_matrix`, behind `boundary_matrices` on a DgAlgebra, which
takes d = L_b in run form and computes every row and column from the
mixed-radix chain index, with no per-term key), the sign rules of the chain
operators (`_interior_sign`, `_rotation_sign` and `_cap_sign`, called by the
per-key generators and, for L_P, by the run form), the
Lie-action index (the per-word digit helpers `hochschild._digits`,
`_interior_grid` and `_wrap_runs`, read by the run form `lie_runs` and by
the Lie tables of `calculus.OperatorSpace`; the rule that an output in the
ground, the unit or the idempotents of the relative complex, dies in a bar
slot is read off `algebra.ground` in `lie_terms`, `lie_runs` and
`OperatorSpace.lie_into`), the sparse accumulate
(`exactlin.chain_add`), the sparse apply (`exactlin.apply_columns`), the
operator residual of the calculus identities (`calculus._residual`), the
t-window truncation with its homology and window-to-window rank
(`cyclic.WindowedComplex.truncation`, `.homology` and `.induced_rank`, and
`.filtration_ranks`, the ranks of a whole filtration from one echelon), the
block p O iota on the reduction of an operator given per key
(`cyclic.reduced_block`, over the lazy columns of `cyclic._keyed_columns`),
the homology of a complex (`exactlin.homology_walk`, which eliminates each
differential once; for cochains once per (model, arity), in
`hochschild._cohomology_spot`), the structure map b of an algebra
(`hochschild.structure_as_cochain`, one Cochain, and b + x for a
deformation), the change of basis of structure constants
(`algebra.change_basis`), the slot rule of Artin-ring coefficients
(`coeff.slot_coordinates` and its inverse `coeff.ring_values`), the
Maurer-Cartan guard (`deform._require_mc`) and the memo of a value derived
from an object (`exactlin.kept`).  The modules that use them
import the one object, `calculus.OperatorSpace` keeps no match index of its
own, and no module grows a hand-written `.get(k, 0) + v` accumulate beside
chain_add, apart from the loops listed in ALLOWED.  No module starts a
process or a thread or reads an environment variable."""

import ast
import functools
import inspect
import re
from pathlib import Path

from ncperiod import algebra, calculus, cyclic, exactlin, hochschild, period
from ncperiod.algebra import build_matrix_algebra
from ncperiod.exactlin import chain_add

SRC = Path(__file__).resolve().parent.parent / "src" / "ncperiod"

# (module, innermost function) -> why it keeps its own accumulate
ALLOWED = {
    ("exactlin", "_eliminate"): "the elimination step, not an accumulate",
    ("calculus", "_add_terms"): "keeps cancelled zeros; the lie_dagger hot loop",
    ("calculus", "_residual"): "keeps cancelled zeros; the lie_dagger hot loop",
}

ACCUMULATE = re.compile(r"\.get\((?:[^()]|\([^()]*\))*,\s*0\)\s*[-+]")


def test_shared_names_are_one_object():
    assert cyclic.chain_spaces is hochschild.chain_spaces
    assert cyclic.boundary_matrices is hochschild.boundary_matrices
    assert cyclic._weight_graded_boundary is hochschild._weight_graded_boundary
    assert not hasattr(cyclic, "connes_matrices")
    assert period.reduced_block is cyclic.reduced_block
    assert hochschild.chain_add is exactlin.chain_add
    for mod in (cyclic, calculus, period):
        assert mod.chain_add is exactlin.chain_add
    assert cyclic.apply_columns is calculus.apply_columns is exactlin.apply_columns
    for name in ("_digits", "_interior_grid", "_wrap_runs"):
        assert getattr(calculus, name) is getattr(hochschild, name), name
    assert calculus._keyed_matrix is hochschild._keyed_matrix
    assert not hasattr(cyclic, "_image")


def test_one_lie_action_index():
    """The Lie action finds where its terms land in one place, the per-word
    digit helpers of hochschild: the interior grid of a slot and the wrap
    runs of a split are read by exactly lie_runs and OperatorSpace._table,
    and the digit index of a word by those two and the wrap helper.  No
    recording probe is left: lie_terms takes one callable, and calculus
    neither calls it nor keeps a match index of its own."""
    for name in ("_interior_grid", "_wrap_runs"):
        assert set(_call_sites(name)) == {("hochschild", "lie_runs"),
                                          ("calculus", "_table")}, name
    assert set(_call_sites("_digits")) == {("hochschild", "lie_runs"),
                                           ("hochschild", "_wrap_runs"),
                                           ("calculus", "_table")}
    assert list(inspect.signature(hochschild.lie_terms).parameters) == [
        "algebra", "op", "a0", "word", "out_terms"]
    assert "tuple" not in inspect.getsource(hochschild.lie_terms)
    assert not [site for site in _call_sites("lie_terms") if site[0] == "calculus"]
    for name in ("_SLOT", "_SlotProbe"):
        assert not hasattr(calculus, name), name
    space = calculus.OperatorSpace(build_matrix_algebra(2), 2)
    assert not hasattr(space, "_interior") and not hasattr(space, "_wrap")


def _hand_written_accumulates():
    """(module, innermost function, line) of every `.get(k, 0) +/-` line."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        funcs = [(node.lineno, node.end_lineno, node.name)
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if ACCUMULATE.search(line):
                inner = min((f for f in funcs if f[0] <= lineno <= f[1]),
                            key=lambda f: f[1] - f[0], default=(0, 0, None))
                found.append((path.stem, inner[2], lineno))
    return found


def test_no_new_hand_written_accumulate():
    found = _hand_written_accumulates()
    extra = [f for f in found if f[:2] not in ALLOWED]
    assert not extra, f"use exactlin.chain_add instead: {extra}"
    # every allowlisted loop still exists, so the list does not go stale
    assert {f[:2] for f in found} == set(ALLOWED)


def test_scan_finds_a_hand_written_accumulate():
    src = "acc[k] = acc.get(k, 0) + v\ns = out.get((i, j), 0) - c\n"
    assert [bool(ACCUMULATE.search(line)) for line in src.splitlines()] == [True, True]
    assert not ACCUMULATE.search("s = acc.get(key)")
    assert not ACCUMULATE.search("if hp_dims.get(n - 1, 0) > 2:")


@functools.cache
def _calls():
    """{name: [(module, innermost enclosing function)]} of every call of a
    bare name or an attribute in the package source."""
    sites = {}

    def visit(node, func, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                sites.setdefault(name, []).append((module, func))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.stem)
    return sites


def _call_sites(name):
    """(module, innermost enclosing function) of every call of `name`."""
    return _calls().get(name, [])


def test_one_residual_kernel():
    """Both calculus suites build their operator residuals with the one
    product kernel, calculus._residual (verify_lie_dagger through
    _first_failure); the per-column apply of calculus_defect is gone."""
    assert set(_call_sites("_residual")) == {
        ("calculus", "_first_failure"), ("calculus", "calculus_defect")}
    for name in ("apply_operator", "_dict_columns", "_classify", "_sub_commutator"):
        assert not hasattr(calculus, name), name
        assert not _call_sites(name), name


def _window_rank_calls(tree, module):
    """Every call of induced_rank, the rank between two t-windows from the
    homology of both."""
    return _calls_of(tree, module, {"induced_rank"})


def test_one_windowed_homology_layer():
    """cyclic builds its t-window truncations at one site, the truncation
    that the transferred complex and the finite Connes complex of HC and SBI
    share as WindowedComplexes, has no regrouped copy of the transfer
    blocks, and moves vectors between windows only for the induced rank and
    the SBI connecting map.  Only the SBI check (exact_at) takes the rank
    between two windows; the spectral sequence takes its filtration ranks
    from one echelon per degree (filtration_ranks), not from the homology
    of a window per t-power."""
    assert _call_sites("TruncatedLaurentComplex") == [("cyclic", "truncation")]
    assert _call_sites("WindowedComplex") == [("cyclic", "connes")]
    assert not hasattr(cyclic, "TComplexData")
    assert not hasattr(cyclic, "_windowed_dims")
    assert set(_call_sites("_move")) == {("cyclic", "induced_rank"),
                                         ("cyclic", "connecting")}
    modules = [path.stem for path in sorted(SRC.glob("*.py"))]
    assert _scan_sites(_window_rank_calls, modules) == {("cyclic", "exact_at")}
    assert _scan_sites(functools.partial(_calls_of, names={"filtration_ranks"}),
                       modules) == {("cyclic", "hodge_spectral_sequence")}


def test_window_rank_scan_finds_a_per_power_loop():
    """The scan of test_one_windowed_homology_layer finds the loop the
    spectral sequence had: the homology of one window per t-power, read
    through induced_rank."""
    copy = ast.parse(
        "def hodge_spectral_sequence(algebra, t_window, degree_range):\n"
        "    for n in degrees:\n"
        "        for i in range(lo, hi + 1):\n"
        "            rk = red.induced_rank((i, hi), (lo, hi), -n)\n")
    assert _window_rank_calls(copy, "cyclic") == [("cyclic", "hodge_spectral_sequence")]


def test_one_homology_walk():
    """hochschild takes homology only through exactlin.homology_walk, from one
    helper per side: the chain complex in runs of degrees, the cochains one
    spot per (model, arity); homology_at and complex_sdr walk with the same
    generator; pivot columns are taken only for rank and the walk's top
    differential; the homology representatives come from one echelon, not
    an incremental span.  An IncrementalSpan is built only for a membership
    test: the induced rank and the boundary span a spot keeps for
    SubquotientBasis.is_boundary.  Every reader of HH^* goes
    through the cohomology spot, and no other cochain-side function runs an
    elimination of its own."""
    assert set(_call_sites("homology_walk")) == {
        ("exactlin", "homology_at"), ("hochschild", "_model_homology"),
        ("hochschild", "_build_cohomology_spot")}
    assert set(_call_sites("_walk")) == {("exactlin", "homology_walk"),
                                         ("exactlin", "complex_sdr")}
    assert set(_call_sites("_pivot_columns")) == {("exactlin", "rank"),
                                                  ("exactlin", "_walk")}
    assert set(_call_sites("_graded_dims")) == {
        ("hochschild", "_model_homology"), ("hochschild", "hochschild_cohomology")}
    assert set(_call_sites("_cohomology_spot")) == {
        ("hochschild", "hochschild_cohomology"), ("hochschild", "cocycle_representatives"),
        ("deform", "gauge_equivalent"), ("deform", "obstruction_class"),
        ("calculus", "_cochain_is_coboundary")}
    assert not [site for site in _call_sites("rref") if site[0] == "deform"]
    for name in ("_graded_homology", "_chain_homology", "_coboundary_span",
                 "_build_coboundary_span", "_word_index"):
        assert not hasattr(hochschild, name) and not hasattr(calculus, name), name
    assert set(_call_sites("_model_homology")) == {
        ("hochschild", "hochschild_homology"), ("hochschild", "flat_hochschild_homology")}
    kernels = ("homology_at", "rref", "_pivot_columns", "_homology_reps", "_rref_rows",
               "_echelon", "IncrementalSpan", "member", "solve")
    assert not [(name, site) for name in kernels for site in _call_sites(name)
                if site[0] == "hochschild"]
    assert set(_call_sites("IncrementalSpan")) == {("exactlin", "span"),
                                                   ("cyclic", "_induced_rank")}


# (module, innermost function) -> why it may read an index dict by a key
INDEX_LOOKUPS = {
    ("hochschild", "coordinates"):
        "a cochain as a vector over its CochainBasis: the one coordinate map of "
        "the coboundary matrix, the m-adic solves and the coboundary test",
    ("hochschild", "_keyed_matrix"):
        "the per-key assembly: B and I_P on every model, d on the walks of a "
        "PeirceBasis and on Morse cells, which are indexed by a dict",
}


def _index_lookups(module):
    """Innermost functions of the module that subscript `index`, `dst` or an
    `.index` attribute, i.e. find a row or column by its chain key."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Subscript):
                v = child.value
                if getattr(v, "attr", None) == "index" or getattr(v, "id", None) in (
                        "index", "dst"):
                    found.add((module, func))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse((SRC / f"{module}.py").read_text()), None)
    return found


def test_one_run_form_assembly():
    """One operator has a run form: d = L_b on a DgAlgebra becomes a matrix
    through term_matrix only in boundary_matrices.  Every other matrix of
    d, B and I_P is assembled per key by _keyed_matrix, called only by
    _weight_matrices (connes_matrices, the relative d of boundary_matrices
    and the Morse differential of _weight_graded_boundary) and by
    OperatorSpace.operator_matrix; B and I_P have no run form left.  No
    function of hochschild or calculus finds a matrix row by its chain key,
    apart from INDEX_LOOKUPS; each sign rule is written once and used by the
    per-key generator and, for L_P, by the run form."""
    assert set(_call_sites("term_matrix")) == {("hochschild", "boundary_matrices")}
    assert set(_call_sites("_keyed_matrix")) == {
        ("hochschild", "_weight_matrices"), ("calculus", "operator_matrix")}
    assert set(_call_sites("_weight_matrices")) == {
        ("hochschild", "boundary_matrices"), ("hochschild", "connes_matrices"),
        ("hochschild", "_weight_graded_boundary")}
    for name in ("connes_runs", "contraction_runs"):
        assert not [path.stem for path in sorted(SRC.glob("*.py"))
                    if name in path.read_text()], name
    assert _index_lookups("hochschild") | _index_lookups("calculus") == set(INDEX_LOOKUPS)
    signs = {
        "_interior_sign": {"lie_terms", "_interior_grid"},
        "_rotation_sign": {"lie_terms", "_wrap_runs", "connes_terms"},
        "_cap_sign": {"contraction_terms"},
    }
    for name, users in signs.items():
        defs = [path.stem for path in sorted(SRC.glob("*.py"))
                if f"def {name}(" in path.read_text()]
        assert defs == ["hochschild"], name
        assert set(_call_sites(name)) == {("hochschild", f) for f in users}, name


def _names_ground(node):
    return "ground" in (getattr(node, "id", None), getattr(node, "attr", None))


def _ground_tests():
    """(module, innermost function) of every `x in ...ground` or `x not in
    ...ground` comparison and every `...ground.isdisjoint(word)` set test in
    the package source."""
    found = set()

    def visit(node, func, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn)) and _names_ground(c)
                    for op, c in zip(child.ops, child.comparators)) or (
                    isinstance(child, ast.Call)
                    and getattr(child.func, "attr", None) == "isdisjoint"
                    and _names_ground(child.func.value)):
                found.add((module, func))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.stem)
    return found


def test_one_ground_death_rule():
    """An output in the algebra's ground dies in a bar slot by one test of
    membership in algebra.ground: in lie_terms, for the flat and the
    relative complex, in its run form lie_runs, and in OperatorSpace.lie_into,
    the Lie action read off the same digits; a stored word with a ground
    letter has no digit index (_digits), so neither lie_runs nor the Lie
    tables place it in a bar slot; connes_terms kills an a0 in the ground by the
    same test, and the walk enumerator _walks applies it to the letters it
    lists.  A normalized Cochain refuses a word with a ground letter, and
    the one brace _brace_into (behind brace_compose, gerstenhaber_bracket,
    deform._brace and the Lie-dagger pair loop) drops one, as its index
    _brace_index drops an inserted word with one, by the set test
    ground.isdisjoint: no cochain code takes index 0 for the ground.
    On the walks of M2 and M3, every term of d is a relative chain one
    weight down and every term of B one weight up, and the rule does drop terms: without it, M2's d leaves
    the relative chains."""
    assert _ground_tests() == {("hochschild", "lie_terms"),
                               ("hochschild", "lie_runs"),
                               ("hochschild", "_digits"),
                               ("hochschild", "connes_terms"),
                               ("hochschild", "_walks"),
                               ("hochschild", "__init__"),
                               ("hochschild", "_brace_index"),
                               ("hochschild", "_brace_into"),
                               ("calculus", "lie_into")}
    assert "ground.isdisjoint(word)" in inspect.getsource(hochschild.Cochain.__init__)
    for func in (hochschild.Cochain.__init__, hochschild._brace_index,
                 hochschild._brace_into):
        assert not re.search(r"\b0 in |== 0 for", inspect.getsource(func)), func
    for alg in (build_matrix_algebra(2), build_matrix_algebra(3)):
        peirce = alg.peirce()
        spaces = hochschild.chain_spaces(peirce, 4)
        b = hochschild.structure_as_cochain(peirce)
        for n in range(1, 5):
            for a0, word in spaces[n]:
                hochschild.lie_terms(peirce, b, a0, word,
                                     lambda key, c: spaces[n - 1][key])
            for a0, word in spaces[n - 1]:
                hochschild.connes_terms(peirce, a0, word, lambda key, c: spaces[n][key])
    peirce = build_matrix_algebra(2).peirce()  # a fresh one, changed below
    ground, peirce.ground = peirce.ground, frozenset()
    out = {}
    hochschild.lie_terms(peirce, hochschild.structure_as_cochain(peirce), 0, (2, 3),
                         lambda key, c: chain_add(out, key, c))
    assert any(i in ground for _, word in out for i in word)


def _classes_defining(method):
    """(module, class) of every class in the package source with a method of
    that name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == method
                    for f in node.body):
                found.add((path.stem, node.name))
    return found


def _loop_depth(node):
    """The deepest nesting of for loops (comprehension clauses included)
    under an AST node."""
    inner = max((_loop_depth(child) for child in ast.iter_child_nodes(node)), default=0)
    if isinstance(node, (ast.For, ast.comprehension)):
        return inner + 1
    return inner


def test_one_structure_cochain():
    """b has one form, the Cochain of structure_as_cochain, and b + x is
    b.add(x): no class evaluates a structure map on the fly, so only Cochain
    defines eval(self, l, word).
    The square-zero condition is read off one brace of it: deform calls no
    cochain_differential (mc_residual is (b + x) o (b + x), gauge_act one
    series in b + x, both in slot form through deform._brace, whose one
    Q product is hochschild._brace_into), the cochain differential is the
    bracket with b, and validate_dg_algebra reads b o b with no loop over
    triples of structure constants.  _brace_into is the one brace: only
    brace_compose, deform._brace and the bracket _bracket_components call it,
    on the _brace_index of each factor, and only gerstenhaber_bracket and
    the pair loop of calculus.verify_lie_dagger (_bracket) call that."""
    assert _classes_defining("eval") == {("hochschild", "Cochain")}
    for name in ("DgStructure", "DeformedStructure"):
        assert not hasattr(hochschild, name), name
    assert not [site for site in _call_sites("cochain_differential")
                if site[0] == "deform"]
    assert {("deform", "mc_residual"), ("deform", "_gauge_series")} <= set(
        _call_sites("_brace"))
    assert {site for site in _call_sites("_brace_into") if site[0] == "deform"} == {
        ("deform", "product")}
    assert set(_call_sites("_brace_into")) == {
        ("hochschild", "brace_compose"), ("hochschild", "_bracket_components"),
        ("deform", "product")}
    assert set(_call_sites("_bracket_components")) == {
        ("hochschild", "gerstenhaber_bracket"), ("calculus", "_bracket")}
    assert set(_call_sites("_brace_index")) == {
        ("hochschild", "brace_compose"), ("hochschild", "gerstenhaber_bracket"),
        ("deform", "_brace"), ("calculus", "verify_lie_dagger")}
    assert ("hochschild", "cochain_differential") in _call_sites("gerstenhaber_bracket")
    validator = ast.parse(inspect.getsource(algebra.validate_dg_algebra))
    assert _loop_depth(validator) <= 2
    assert "repeat=3" not in inspect.getsource(algebra.validate_dg_algebra)
    assert ("algebra", "validate_dg_algebra") in _call_sites("brace_compose")
    assert "d_of(" not in inspect.getsource(algebra.validate_dg_algebra)


def test_one_change_of_basis():
    """algebra.change_basis is the one change of basis of structure
    constants: the builders, PeirceBasis, the radical's certificate and the
    CLI's unit re-basing call it, and nothing else in algebra or cli solves
    a linear system."""
    assert set(_call_sites("change_basis")) == {
        ("algebra", "build_matrix_algebra"), ("algebra", "build_path_algebra"),
        ("algebra", "__init__"), ("algebra", "_certify_radical"),
        ("cli", "_rebase_unit")}
    assert "change_basis(" in inspect.getsource(algebra.PeirceBasis.__init__)
    assert [site for site in _call_sites("solve") if site[0] in ("algebra", "cli")] == [
        ("algebra", "change_basis")]
    for name in ("as_vec", "vertex_vec"):
        assert name not in inspect.getsource(algebra), name


def test_one_chain_space_enumerator():
    """chain_spaces is the only chain-space enumerator, for every chain
    model: no other function of the package is named for one, and the chain
    index is built only by calling it (ChainBasis and the one builder of a
    model's complex, _weight_graded_boundary, which HH, the reduction of a
    mixed complex and the Connes complex of HC read).  Its walks come from _walks, the one walk enumerator, which
    CochainBasis closes in parallel; neither CochainBasis nor basis_cochains
    enumerates words of its own.  The ends of the letters, which say which words are walks, are
    read outside algebra only by _walks and its two closings."""
    defs = {(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and "chain_spaces" in node.name}
    assert defs == {("hochschild", "chain_spaces")}
    assert set(_call_sites("chain_spaces")) == {
        ("hochschild", "__init__"), ("hochschild", "_weight_graded_boundary")}
    readers = {(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
               if path.stem != "algebra"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)
               and any(getattr(n, "attr", None) == "ends" for n in ast.walk(node))}
    assert readers == {("hochschild", "_walks"), ("hochschild", "chain_spaces"),
                       ("hochschild", "__init__")}
    assert ".ends" in inspect.getsource(hochschild.CochainBasis.__init__)
    assert set(_call_sites("_walks")) == {("hochschild", "chain_spaces"),
                                          ("hochschild", "__init__")}
    for func in (hochschild.CochainBasis, hochschild.basis_cochains):
        assert "product(" not in inspect.getsource(func), func
    for name in ("relative_chain_spaces", "relative_boundary_matrices",
                 "relative_connes_matrices"):
        assert not hasattr(hochschild, name), name


def test_cyclic_names_no_chain_model():
    """cyclic reduces or transfers through whatever model chain_model_of or
    homology_model_of gives it through the one builder of its complex,
    hochschild._weight_graded_boundary: it imports no PeirceBasis or
    MorseModel, names no relative_ function and tests no model type."""
    text = (SRC / "cyclic.py").read_text()
    assert "PeirceBasis" not in text and "MorseModel" not in text
    assert "relative_" not in text
    assert not [site for site in _call_sites("isinstance") if site[0] == "cyclic"]
    assert not hasattr(cyclic, "PeirceBasis")


BUILDER = ("hochschild", "_weight_graded_boundary")
SPOT_FIELDS = {"reps", "proj_rows", "hmty_cols"}


def _calls_of(tree, module, names):
    """(module, innermost function) of every call of one of the names, a bare
    name or an attribute."""
    return _sites(tree, module, lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in names)


def _model_type_tests(tree, module):
    """Every isinstance call that names MorseModel."""
    return _sites(tree, module, lambda node: isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "isinstance"
                  and any(getattr(n, "id", None) == "MorseModel" for n in ast.walk(node)))


def _spot_field_reads(tree, module):
    """Every read of a SpotSDR field (reps, proj_rows, hmty_cols) as an
    attribute."""
    return _sites(tree, module, lambda node: isinstance(node, ast.Attribute)
                  and node.attr in SPOT_FIELDS)


def _private_imports_from_cyclic(tree, module):
    """Every `from .cyclic import` that brings in a name with a leading
    underscore."""
    return _sites(tree, module, lambda node: isinstance(node, ast.ImportFrom)
                  and node.module == "cyclic"
                  and any(alias.name.startswith("_") for alias in node.names))


def test_one_builder_of_a_chain_models_complex():
    """hochschild._weight_graded_boundary is the one builder of a chain
    model's complex, its chain spaces, d and B, for the flat, relative and
    Morse models alike.  Outside it only ChainBasis.__init__ calls
    chain_spaces, and nothing calls boundary_matrices or connes_matrices;
    it alone tests for a MorseModel, which only the routing rule
    homology_model_of makes.  The retract's layout, the SpotSDR fields, is
    read only in exactlin, which makes it, and cyclic, which transfers
    through it and gives period its blocks (reduced_block), so period
    imports no private name of cyclic."""
    modules = [path.stem for path in sorted(SRC.glob("*.py"))]

    def calls(*names):
        return _scan_sites(functools.partial(_calls_of, names=names), modules)

    assert calls("chain_spaces") - {BUILDER} == {("hochschild", "__init__")}
    assert "chain_spaces(" in inspect.getsource(hochschild.ChainBasis.__init__)
    assert "chain_spaces(" not in inspect.getsource(hochschild.CochainBasis.__init__)
    assert calls("boundary_matrices", "connes_matrices") == {BUILDER}
    assert _scan_sites(_model_type_tests, modules) == {BUILDER}
    assert calls("MorseModel") == {("hochschild", "homology_model_of")}
    assert {module for module, _ in _scan_sites(_spot_field_reads, modules)} <= {
        "exactlin", "cyclic"}
    assert not _scan_sites(_private_imports_from_cyclic, modules)


def test_builder_scans_find_a_copy():
    """Each scan of test_one_builder_of_a_chain_models_complex finds the
    sites the package had before the builder was the one: a reduction and a
    Connes complex in cyclic assembling their own complex, and a
    contraction_blocks in period reading the retract through cyclic._project."""
    cyclic_copy = ast.parse(
        "def reduce_mixed_complex(algebra, bar_bound):\n"
        "    def reduce():\n"
        "        spaces = chain_spaces(algebra, bar_bound + 1)\n"
        "        sdr = complex_sdr(dims, boundary_matrices(algebra, spaces))\n"
        "        return [len(s.reps) for s in sdr], connes_matrices(algebra, spaces)\n"
        "def _connes_complex(model, top):\n"
        "    def connes():\n"
        "        spaces = chain_spaces(model, top + 1)\n"
        "        return boundary_matrices(model, spaces), connes_matrices(model, spaces)\n")
    period_copy = ast.parse(
        "from .cyclic import (\n    NotStabilized,\n    _project,\n    default_bar_bound,\n)\n"
        "def contraction_blocks(red, p):\n"
        "    src = red.sdr[1]\n"
        "    return _project(red.sdr[0], [rep for rep in src.reps])\n")
    hochschild_copy = ast.parse(
        "def homology_model_of(algebra):\n    return MorseModel(algebra, None)\n"
        "def _weight_graded_boundary(model, max_weight):\n"
        "    if isinstance(model, MorseModel):\n        return model.cells(max_weight)\n"
        "def _model_homology(model):\n    return isinstance(model, (MorseModel, int))\n")
    assert set(_calls_of(cyclic_copy, "cyclic", {"chain_spaces"})) == {
        ("cyclic", "reduce"), ("cyclic", "connes")}
    assert set(_calls_of(cyclic_copy, "cyclic", {"boundary_matrices", "connes_matrices"})) == {
        ("cyclic", "reduce"), ("cyclic", "connes")}
    assert _spot_field_reads(cyclic_copy, "cyclic") == [("cyclic", "reduce")]
    assert _spot_field_reads(period_copy, "period") == [("period", "contraction_blocks")]
    assert _private_imports_from_cyclic(period_copy, "period") == [("period", None)]
    assert set(_model_type_tests(hochschild_copy, "hochschild")) == {
        BUILDER, ("hochschild", "_model_homology")}
    assert _calls_of(hochschild_copy, "hochschild", {"MorseModel"}) == [
        ("hochschild", "homology_model_of")]


RETRACT_OPS = {"iota", "project", "homotopy", "b_columns"}
SERIES_CALLS = {("cyclic", "reduce"), ("cyclic", "connes"), ("period", "deformed_differential")}


def _retract_classes(tree, module):
    """(module, class) of every class that defines all four retract
    operations perturbation_transfer reads."""
    return [(module, node.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and RETRACT_OPS <= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}]


def test_one_perturbation_series():
    """cyclic.perturbation_transfer is the one series p delta (h delta)^k
    iota in the package: the reduction and the Connes complex of HC transfer
    B through it and the period layer transfers tB + L_x, and it alone
    applies a retract's homotopy.  It reads a retract only through iota,
    project, homotopy and b_columns, which the complex_sdr spots of a
    reduction, the Morse SDR and the identity retract define, so the Morse
    module runs no series of its own."""
    modules = [path.stem for path in sorted(SRC.glob("*.py"))]

    def calls(*names):
        return _scan_sites(functools.partial(_calls_of, names=names), modules)

    assert calls("perturbation_transfer") == SERIES_CALLS
    assert calls("homotopy") == {("cyclic", "perturbation_transfer")}
    assert _scan_sites(_retract_classes, modules) == {
        ("cyclic", "ReducedMixedComplex"), ("morse", "MorseRetract"),
        ("exactlin", "IdentityRetract")}
    source = inspect.getsource(cyclic.perturbation_transfer)
    assert ".sdr" not in source and ".b_mats" not in source


def test_series_scans_find_a_copy():
    """The scans of test_one_perturbation_series find a second series: a
    Connes complex of the Morse model that runs p B (h B)^k iota itself, and
    a retract class that reads its spots in place of the operations."""
    morse_copy = ast.parse(
        "class MorseRetract:\n"
        "    def iota(self, m):\n        return []\n"
        "    def project(self, w, vecs):\n        return {}\n"
        "    def b_columns(self, w):\n        return {}\n"
        "    def transfer(self, top):\n"
        "        vecs = self.iota(0)\n"
        "        while vecs:\n"
        "            vecs = [apply_columns(self.homotopy(1), v) for v in vecs]\n"
        "        return perturbation_transfer(self)\n")
    assert _calls_of(morse_copy, "morse", {"homotopy"}) == [("morse", "transfer")]
    assert _calls_of(morse_copy, "morse", {"perturbation_transfer"}) == [("morse", "transfer")]
    assert _retract_classes(morse_copy, "morse") == []


# (module, innermost function) -> why it builds a list of ring slots of its own
SLOT_LISTS = {
    ("coeff", "ring_values"): "the one rule from slot vectors to ring values",
    ("coeff", "__init__"): "the m-adic level of each slot, ArtinLocalRing.levels",
    ("coeff", "zero"): "the ring's own arithmetic",
    ("coeff", "one"): "the ring's own arithmetic",
    ("coeff", "coerce"): "the ring's own arithmetic",
    ("coeff", "multiply"): "the ring's own arithmetic",
    ("cli", "parse_mc_file"): "reads a user's coefficients label by label",
}


def _sites(tree, module, match):
    """(module, innermost enclosing function) of every node of the tree for
    which match(node) holds."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((module, func))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(tree, None)
    return found


def _slot_list_sites(tree, module):
    """Every list or tuple of zeros multiplied by an expression that reads a
    ring's dim."""
    return _sites(tree, module, lambda node: (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and isinstance(node.left, (ast.List, ast.Tuple))
        and [getattr(e, "value", None) for e in node.left.elts] == [0]
        and any(getattr(n, "attr", None) == "dim" for n in ast.walk(node.right))))


def _mc_check_sites(tree, module):
    """Every mc_residual(...).is_zero()."""
    return _sites(tree, module, lambda node: (
        isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "is_zero"
        and isinstance(node.func.value, ast.Call)
        and getattr(node.func.value.func, "id", None) == "mc_residual"))


def _scan_sites(scan, modules):
    """The sites scan finds in the named modules of the package."""
    return {site for module in modules
            for site in scan(ast.parse((SRC / f"{module}.py").read_text()), module)}


def test_one_slot_rule():
    """Ring values and their Q slot coordinates are converted by one pair of
    rules, coeff.slot_coordinates and its inverse coeff.ring_values, called
    only at the boundary of the slot arithmetic: a cochain or a block
    operator over the ring to its slot form and back.  deform and period
    build no RingElement and no slot list of their own (lift_order_by_order
    reads x_low's slots in the extension ring, the trivialization seed one
    slot of x), and the Maurer-Cartan guard is one function,
    deform._require_mc, the only reader of mc_residual(...).is_zero() besides
    the report of AlgebraOverArtin.validate."""
    # the modules that hold ring values (algebra's dim is no ring's)
    assert _scan_sites(_slot_list_sites, ("coeff", "deform", "period", "cli")) == set(
        SLOT_LISTS)
    assert [site for site in _call_sites("RingElement") if site[0] != "coeff"] == []
    assert set(_call_sites("ring_values")) == {
        ("deform", "ring_cochain"), ("period", "ring_op")}
    assert set(_call_sites("slot_coordinates")) == {
        ("deform", "cochain_slots"), ("period", "op_slots"),
        ("period", "reduction_is_trivial")}
    assert not hasattr(period, "_x_level_slice")
    assert _scan_sites(_mc_check_sites, [path.stem for path in SRC.glob("*.py")]) == {
        ("deform", "_require_mc"), ("deform", "validate")}
    assert set(_call_sites("_require_mc")) == {
        ("deform", "deform_algebra"), ("deform", "gauge_equivalent"),
        ("deform", "lift_order_by_order"), ("period", "trivialize_periodic")}


def test_slot_rule_scans_find_a_copy():
    copies = ast.parse("def f(ring):\n    return [0] * ring.dim\n"
                       "def g(ring, small):\n    return (0,) * (ring.dim - small.dim)\n"
                       "def h(ring, n):\n    return [1] * ring.dim, [0] * n\n")
    assert set(_slot_list_sites(copies, "m")) == {("m", "f"), ("m", "g")}
    guard = ast.parse("def g(a, x):\n    if not mc_residual(a, x).is_zero():\n"
                      "        raise ValueError\n"
                      "def h(a, x):\n    return mc_residual(a, x)\n")
    assert list(_mc_check_sites(guard, "m")) == [("m", "g")]


def test_slot_arithmetic_in_the_solver_loops(monkeypatch):
    """The deformation and period inner loops run on one Q object per ring
    slot, multiplied through the ring's structure constants by the one
    helper coeff.slot_product, to which each layer brings its own Q product:
    hochschild._brace_into (deform._brace: mc_residual and the gauge
    series), BlockOp.compose (period._compose: gauge_residual, block_exp
    and the PTD residuals) and the sparse apply (the frontier of
    cyclic.perturbation_transfer).  So no residual that
    lift_order_by_order, trivialize_periodic or ptd_isomorphic evaluates
    calls ArtinLocalRing.multiply, and no RingElement twin of these routines
    is left: deform and period call no brace_compose or
    gerstenhaber_bracket, period composes only through _compose and the Q
    block_d, and the ring-valued block operator of the old solver shift
    (_ring_op) is gone."""
    from ncperiod.algebra import build_truncated_polynomial_algebra
    from ncperiod.coeff import ArtinLocalRing, build_truncated_poly, dual_numbers
    from ncperiod.deform import (GaugeElement, MCElement, cochain_over_ring, gauge_act,
                                 lift_order_by_order)

    T2, R2, R3 = build_truncated_polynomial_algebra(2), dual_numbers(), build_truncated_poly(1, 3)
    x = MCElement(R2, cochain_over_ring(T2, R2, {2: {(1, 1): {0: R2.gen(1)}}}, 1, 6))
    alpha = GaugeElement(R3, cochain_over_ring(
        T2, R3, {1: {(1,): {1: R3.gen(1), 0: R3.gen(2) * 3}}}, 0, 6))
    calls = []
    real = ArtinLocalRing.multiply
    monkeypatch.setattr(ArtinLocalRing, "multiply",
                        lambda ring, a, b: calls.append(ring) or real(ring, a, b))
    assert R3.gen(1) * R3.gen(1) == R3.gen(2) and calls == [R3]
    calls.clear()
    status, x3 = lift_order_by_order(T2, x, R3)
    y3 = gauge_act(alpha, x3)
    assert status == "lift" and period.trivialize_periodic(T2, x3).ok
    assert period.ptd_isomorphic(period.period_map_artin(T2, x3),
                                 period.period_map_artin(T2, y3))[0]
    assert calls == []
    assert set(_call_sites("slot_product")) == {
        ("deform", "_brace"), ("period", "_compose"), ("cyclic", "perturbation_transfer")}
    assert not [site for name in ("brace_compose", "gerstenhaber_bracket")
                for site in _call_sites(name) if site[0] in ("deform", "period")]
    assert {site for site in _call_sites("compose") if site[0] == "period"} == {
        ("period", "_compose"), ("period", "block_d")}
    assert not hasattr(period, "_ring_op")


def test_period_operators_assembled_once_per_reduction(monkeypatch):
    """The matrix of f -> [D0, f] depends only on the reduction, the degree
    and the window: two trivializations and one PTD search on T2 assemble
    it once per (degree, window), and the D0 of every PTD is the reduction's
    own base_differential, so that key determines it."""
    from collections import Counter

    from ncperiod.algebra import build_truncated_polynomial_algebra
    from ncperiod.coeff import dual_numbers
    from ncperiod.deform import GaugeElement, MCElement, cochain_over_ring, gauge_act

    T2, R2, window = build_truncated_polynomial_algebra(2), dual_numbers(), (-6, 6)
    eps = R2.gen("eps")
    x = MCElement(R2, cochain_over_ring(T2, R2, {2: {(1, 1): {0: eps}}}, 1, 6))
    alpha = GaugeElement(R2, cochain_over_ring(T2, R2, {1: {(1,): {1: eps}}}, 0, 6))
    built = Counter()
    real = period._assemble_d_matrix
    monkeypatch.setattr(period, "_assemble_d_matrix", lambda red, deg, w: (
        built.update([(deg, w)]) or real(red, deg, w)))
    p, q = (period.period_map_artin(T2, v, window) for v in (x, gauge_act(alpha, x)))
    assert period.ptd_isomorphic(p, q)[0]
    assert built == {(0, window): 1, (-1, window): 1}
    assert p.base.blocks == q.base.blocks == period.base_differential(p.reduced).blocks


def _memo_sites(tree, module):
    """Every hand-written memo: a vars(...) call, a three-argument getattr
    and a `self._<name> is None` test."""
    def match(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "vars" or (node.func.id == "getattr"
                                              and len(node.args) == 3)
        return (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Is)
                and getattr(node.comparators[0], "value", 0) is None
                and isinstance(node.left, ast.Attribute)
                and getattr(node.left.value, "id", None) == "self"
                and node.left.attr.startswith("_"))
    return _sites(tree, module, match)


def test_one_memo_rule():
    """A value derived from an object is kept on it by one rule,
    exactlin.kept: no other function of the package keeps one in an
    attribute of its own, so the Peirce basis, the radical, the cochain
    spots, the reductions, the HC dims, the window homology, the period
    operators and the boundary span are all kept through it."""
    assert _scan_sites(_memo_sites, [path.stem for path in SRC.glob("*.py")]) == {
        ("exactlin", "kept")}
    for name in ("_per_arity", "_reduced_cache"):
        assert not hasattr(hochschild, name) and not hasattr(cyclic, name), name
    assert not hasattr(cyclic.ReducedMixedComplex, "kept")
    assert "windowed" not in cyclic.ReducedMixedComplex.__dataclass_fields__
    assert "_boundary_span" not in exactlin.SubquotientBasis.__dataclass_fields__


def test_memo_scan_finds_a_copy():
    copies = ast.parse(
        "def f(model, n):\n    return vars(model).setdefault('_memo', {})\n"
        "def g(model):\n    return getattr(model, '_cx', None)\n"
        "class C:\n    def h(self):\n        if self._basis is None:\n"
        "            self._basis = 1\n"
        "def k(args, o, self):\n    return getattr(args, o), self.basis is None\n")
    assert _memo_sites(copies, "m") == [("m", "f"), ("m", "g"), ("m", "h")]


def _unused_imports(text):
    """The names a module's source imports and never reads, apart from
    those in its __all__ (re-exports) and `from __future__` features."""
    tree = ast.parse(text)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read | exported)


def test_no_unused_imports():
    """No module of the package imports a name it never reads: a deletion
    takes its imports with it.  __init__ is the package's export list."""
    unused = {path.stem: names for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unused_imports(path.read_text()))}
    assert not unused


def test_unused_import_scan_finds_a_leftover():
    src = ("from __future__ import annotations\nimport os, re as regex\n"
           "from .x import a, b as c, d\n__all__ = ['d']\nprint(a, os.sep)\n")
    assert _unused_imports(src) == ["c", "regex"]


# a module that imports one of these could start a process or a thread
CONCURRENCY_MODULES = {"concurrent", "multiprocessing", "subprocess", "threading"}
# the os names that read the environment
ENVIRONMENT_READS = {"environ", "getenv"}


def _process_and_environment_uses(text):
    """(line, name) of every import of a concurrency module and every read
    of the environment through os in a module's source."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module.split(".")[0]]
            if node.module == "os":
                names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name in CONCURRENCY_MODULES | ENVIRONMENT_READS]
    return sorted(found)


def test_no_process_pool_or_environment():
    """The package runs in the calling process and its answers depend only
    on its arguments: no module imports a concurrency module or reads an
    environment variable.  cli keeps os.path.exists for its file specs."""
    used = {path.stem: names for path in sorted(SRC.glob("*.py"))
            if (names := _process_and_environment_uses(path.read_text()))}
    assert not used
    assert "os.path.exists" in (SRC / "cli.py").read_text()


def test_process_and_environment_scan_finds_a_use():
    src = ("import os, threading\nfrom concurrent.futures import ProcessPoolExecutor\n"
           "import multiprocessing as mp\nfrom os import getenv, sep\n"
           "n = os.environ.get('N')\nfrom subprocess import run\n"
           "os.path.exists('f')\nimport re\nfrom . import coeff\n")
    assert _process_and_environment_uses(src) == [
        (1, "threading"), (2, "concurrent"), (3, "multiprocessing"),
        (4, "getenv"), (5, "environ"), (6, "subprocess")]
