"""Each of these concepts has one implementation in the package: the chain
index (`hochschild.chain_spaces`), the operator assembly
(`hochschild.term_matrix`, which takes d, B and I_P in run form and computes
every row and column from the mixed-radix chain index, with no per-term key),
the sign rules of the chain operators (`_interior_sign`, `_rotation_sign` and
`_cap_sign`, called by both the run form and the per-key generators), the
Lie-action slot enumeration (`hochschild.lie_terms`, which also holds the one
rule that an output in the ground, the unit or the idempotents of the
relative complex, dies in a bar slot), the sparse accumulate
(`exactlin.chain_add`), the sparse apply (`exactlin.apply_columns`), the
operator residual of the calculus identities (`calculus._residual`), and the
t-window truncation with its homology and window-to-window rank
(`cyclic.ReducedMixedComplex.truncation`, `.homology` and `.induced_rank`),
and the homology of a complex (`exactlin.homology_walk`, which eliminates
each differential once).  The modules that use them import the one object,
`calculus.OperatorSpace` builds its match index by calling lie_terms, and no
module grows a hand-written `.get(k, 0) + v` accumulate beside chain_add,
apart from the loops listed in ALLOWED."""

import ast
import functools
import re
from pathlib import Path

from ncperiod import calculus, cyclic, exactlin, hochschild, period
from ncperiod.algebra import build_matrix_algebra
from ncperiod.exactlin import chain_add

SRC = Path(__file__).resolve().parent.parent / "src" / "ncperiod"

# (module, innermost function) -> why it keeps its own accumulate
ALLOWED = {
    ("exactlin", "_eliminate"): "the elimination step, not an accumulate",
    ("calculus", "lie_into"): "keeps cancelled zeros; the lie_dagger hot loop",
    ("calculus", "_residual"): "keeps cancelled zeros; the lie_dagger hot loop",
}

ACCUMULATE = re.compile(r"\.get\((?:[^()]|\([^()]*\))*,\s*0\)\s*[-+]")


def test_shared_names_are_one_object():
    assert cyclic.chain_spaces is hochschild.chain_spaces
    assert cyclic.boundary_matrices is hochschild.boundary_matrices
    assert cyclic.connes_matrices is hochschild.connes_matrices
    assert hochschild.chain_add is exactlin.chain_add
    for mod in (cyclic, calculus, period):
        assert mod.chain_add is exactlin.chain_add
    assert cyclic.apply_columns is calculus.apply_columns is exactlin.apply_columns
    assert calculus.lie_terms is hochschild.lie_terms
    assert calculus.term_matrix is hochschild.term_matrix
    assert not hasattr(cyclic, "_image")


def test_operator_space_index_is_read_off_lie_terms(monkeypatch):
    """Building OperatorSpace runs lie_terms once on every apply column, in
    column order."""
    seen = []

    def recording(algebra, op, a0, word, out_terms):
        seen.append((a0, word))
        return hochschild.lie_terms(algebra, op, a0, word, out_terms)

    monkeypatch.setattr(calculus, "lie_terms", recording)
    space = calculus.OperatorSpace(build_matrix_algebra(2), 2)
    assert seen == [space.keys[col] for col in space.apply_cols]


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
    product kernel, calculus._residual; the per-column apply of
    calculus_defect is gone."""
    assert set(_call_sites("_residual")) == {
        ("calculus", "_bracket_action_witness"), ("calculus", "verify_lie_dagger"),
        ("calculus", "calculus_defect")}
    for name in ("apply_operator", "_dict_columns", "_classify", "_sub_commutator"):
        assert not hasattr(calculus, name), name
        assert not _call_sites(name), name


def test_one_windowed_homology_layer():
    """cyclic builds its t-window truncations at one site, has no regrouped
    copy of the transfer blocks, and moves vectors between windows only for
    the induced rank and the SBI connecting map."""
    assert _call_sites("TruncatedLaurentComplex") == [("cyclic", "truncation")]
    assert not hasattr(cyclic, "TComplexData")
    assert not hasattr(cyclic, "_windowed_dims")
    assert set(_call_sites("_move")) == {("cyclic", "induced_rank"),
                                         ("cyclic", "connecting")}


def test_one_homology_walk():
    """hochschild takes homology only through exactlin.homology_walk, from one
    helper; homology_at and complex_sdr walk with the same generator; pivot
    columns are taken only for rank and the walk's top differential; the
    homology representatives come from one echelon, not an incremental span."""
    assert _call_sites("homology_walk") == [("exactlin", "homology_at"),
                                            ("hochschild", "_graded_homology")]
    assert set(_call_sites("_walk")) == {("exactlin", "homology_walk"),
                                         ("exactlin", "complex_sdr")}
    assert set(_call_sites("_pivot_columns")) == {("exactlin", "rank"),
                                                  ("exactlin", "_walk")}
    assert set(_call_sites("_graded_homology")) == {
        ("hochschild", "_chain_homology"), ("hochschild", "hochschild_cohomology")}
    assert set(_call_sites("_chain_homology")) == {
        ("hochschild", "hochschild_homology"), ("hochschild", "flat_hochschild_homology")}
    kernels = ("homology_at", "rref", "_pivot_columns", "_homology_reps", "_rref_rows",
               "_echelon", "IncrementalSpan", "member", "solve")
    assert not [(name, site) for name in kernels for site in _call_sites(name)
                if site[0] == "hochschild"]
    assert set(_call_sites("IncrementalSpan")) == {("exactlin", "member"),
                                                   ("cyclic", "_induced_rank")}


# (module, innermost function) -> why it may read an index dict by a key
INDEX_LOOKUPS = {
    ("calculus", "lie_into"): "the Lie action through the OperatorSpace match index",
    ("calculus", "_cochain_is_coboundary"): "one cochain as a vector, not a matrix",
    ("hochschild", "relative_boundary_matrices"):
        "the relative chains are walks, indexed by a dict and not by mixed radix",
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
    """d, B and I_P become matrices only through term_matrix, in run form; no
    function of hochschild or calculus finds a matrix row by its chain key,
    apart from INDEX_LOOKUPS; each sign rule is written once and used by the
    run form and the per-key generator alike."""
    assert set(_call_sites("term_matrix")) == {
        ("hochschild", "boundary_matrices"), ("hochschild", "connes_matrices"),
        ("calculus", "operator_matrix")}
    assert _index_lookups("hochschild") | _index_lookups("calculus") == set(INDEX_LOOKUPS)
    signs = {
        "_interior_sign": {"lie_terms", "lie_runs"},
        "_rotation_sign": {"lie_terms", "lie_runs", "connes_terms", "connes_runs"},
        "_cap_sign": {"contraction_terms", "contraction_runs"},
    }
    for name, users in signs.items():
        defs = [path.stem for path in sorted(SRC.glob("*.py"))
                if f"def {name}(" in path.read_text()]
        assert defs == ["hochschild"], name
        assert set(_call_sites(name)) == {("hochschild", f) for f in users}, name


def _ground_tests():
    """(module, innermost function) of every `x in ...ground` or `x not in
    ...ground` comparison in the package source."""
    found = set()

    def visit(node, func, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn)) and "ground" in (
                        getattr(c, "id", None), getattr(c, "attr", None))
                    for op, c in zip(child.ops, child.comparators)):
                found.add((module, func))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.stem)
    return found


def test_one_ground_death_rule():
    """An output in the ground dies in a bar slot in lie_terms alone, for the
    flat and the relative complex; the relative index applies the same rule
    to the letters it lists.  On the walks of M2 and M3, every term of d is
    a relative chain one weight down, and the rule does drop terms: without
    it, M2's d leaves the relative chains."""
    assert _ground_tests() == {("hochschild", "lie_terms"),
                               ("hochschild", "relative_chain_spaces")}
    for alg in (build_matrix_algebra(2), build_matrix_algebra(3)):
        peirce = alg.peirce()
        spaces = hochschild.relative_chain_spaces(peirce, 4)
        struct = hochschild.DgStructure(peirce)
        for n in range(1, 5):
            for a0, word in spaces[n]:
                hochschild.lie_terms(peirce, struct, a0, word,
                                     lambda key, c: spaces[n - 1][key])
    peirce = build_matrix_algebra(2).peirce()  # a fresh one, changed below
    ground, peirce.ground = peirce.ground, frozenset()
    out = {}
    hochschild.lie_terms(peirce, hochschild.DgStructure(peirce), 0, (2, 3),
                         lambda key, c: chain_add(out, key, c))
    assert any(i in ground for _, word in out for i in word)
