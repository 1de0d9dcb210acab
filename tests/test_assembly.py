"""The mixed-radix chain index and the one run-form assembly, d on a DgAlgebra.

term_matrix computes every row and column of the flat d from the
mixed-radix index of chain_spaces, so that index is pinned here: the walk
enumerator gives, on a DgAlgebra, the keys of the itertools.product oracle
of conftest in the same order.  boundary_matrices, term_matrix of lie_runs
weight by weight, is compared with the per-key generator lie_terms applied
to each basis chain: the same entries, values and types, on generated
degree-0 algebras, on generated graded tables with d dropped, and on
graded algebras with d = 0.  B and I_P are assembled per key only; their
matrices in calculus.OperatorSpace are checked column by column in
test_calculus.  The structure cochain b, whose L_b is d, is compared with
its closed formula on the same algebras and on a dg one.
"""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    degree0_algebras,
    graded_tables,
    product_chain_spaces,
    product_cochain_keys,
)
from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
)
from ncperiod.hochschild import (
    CochainBasis,
    apply_terms,
    boundary_matrices,
    chain_spaces,
    lie_terms,
    structure_as_cochain,
)


def mixed_radix(alg, a0, word):
    r = alg.dim - 1
    n = len(word)
    return a0 * r ** n + sum((w - 1) * r ** (n - 1 - k) for k, w in enumerate(word))


@pytest.mark.parametrize("build", [
    build_field, lambda: build_truncated_polynomial_algebra(2), a2_quiver_algebra,
    kronecker_algebra, lambda: build_matrix_algebra(2)],
    ids=["Q", "T2", "A2", "kron", "M2"])
def test_chain_index_is_mixed_radix(build):
    alg = build()
    spaces = chain_spaces(alg, 4)
    assert [len(s) for s in spaces] == [alg.dim * (alg.dim - 1) ** n for n in range(5)]
    for space in spaces:
        assert all(j == mixed_radix(alg, a0, w) for (a0, w), j in space.items())
    if alg.dim == 1:  # r = 0: only the weight-0 chain 1 x []
        assert spaces[0] == {(0, ()): 0} and not any(spaces[1:])


def assert_walks_match_product_oracle(alg, top):
    """chain_spaces(alg, top) holds the keys of product_chain_spaces, with the
    same indices, in the same order."""
    got, want = chain_spaces(alg, top), product_chain_spaces(alg, top)
    assert [list(s.items()) for s in got] == [list(s.items()) for s in want]


@pytest.mark.parametrize("build, top", [
    (build_field, 4), (lambda: build_truncated_polynomial_algebra(2), 6),
    (lambda: build_truncated_polynomial_algebra(3), 6),
    (lambda: build_truncated_polynomial_algebra(4), 6), (a2_quiver_algebra, 6),
    (kronecker_algebra, 5), (lambda: build_matrix_algebra(2), 6),
    (lambda: build_matrix_algebra(3), 3)],
    ids=["Q", "T2", "T3", "T4", "A2", "kron", "M2", "M3"])
def test_chain_spaces_match_product_oracle(build, top):
    assert_walks_match_product_oracle(build(), top)


@settings(max_examples=12, deadline=None)
@given(degree0_algebras(), st.integers(0, 5))
def test_chain_spaces_match_product_oracle_on_generated_algebras(alg, top):
    assert_walks_match_product_oracle(alg, top)


def assert_cochain_keys_match_product_oracle(alg, top):
    """CochainBasis(alg, l) holds the keys of product_cochain_keys, key by
    key and in order, each at its position, for l = 0..top."""
    for arity in range(top + 1):
        cb = CochainBasis(alg, arity)
        assert cb.keys == product_cochain_keys(alg, arity), arity
        assert list(cb.index.items()) == [(key, i) for i, key in enumerate(cb.keys)]


@pytest.mark.parametrize("build, top", [
    (build_field, 4), (lambda: build_truncated_polynomial_algebra(2), 5),
    (lambda: build_truncated_polynomial_algebra(4), 4), (a2_quiver_algebra, 4),
    (kronecker_algebra, 4), (lambda: build_matrix_algebra(2), 4),
    (lambda: build_matrix_algebra(3), 2), (lambda: EXT1, 4)],
    ids=["Q", "T2", "T4", "A2", "kron", "M2", "M3", "EXT1"])
def test_cochain_basis_matches_product_oracle(build, top):
    assert_cochain_keys_match_product_oracle(build(), top)


@settings(max_examples=12, deadline=None)
@given(degree0_algebras(), st.integers(0, 4))
def test_cochain_basis_matches_product_oracle_on_generated_algebras(alg, top):
    assert_cochain_keys_match_product_oracle(alg, top)


# -- the run form of d against the per-key generator --------------------------------


EXT1 = DgAlgebra(["1", "t"], [0, 1], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                 name="ext1")
POLY2 = DgAlgebra(["1", "u"], [0, 2], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                  name="poly-deg2-trunc")
# the A2 quiver e -t-> (1 - e) with |t| = 1: d = 0 and the complement digits
# have both parities, so the signed runs of d split
GRADED_A2 = DgAlgebra(
    ["1", "e", "t"], [0, 0, 1],
    {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1},
     (1, 1): {1: 1}, (1, 2): {2: 1}}, name="graded-a2")
# d(x) = t with |x| = 0, |t| = 1: the b_1 terms land in the wraps
CONTRACTIBLE = DgAlgebra(
    ["1", "x", "t"], [0, 0, 1],
    {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1}},
    diff={1: {2: 1}}, name="contractible-pair")

TOP = 5  # d is compared on the chains of weight 1..TOP


def assert_run_form_matches_terms(alg):
    """boundary_matrices on chain_spaces(alg, TOP), term_matrix of lie_runs
    weight by weight, column by column against apply_terms of lie_terms."""
    spaces = chain_spaces(alg, TOP)
    terms = partial(lie_terms, alg, structure_as_cochain(alg))
    for n, mat in enumerate(boundary_matrices(alg, spaces)[1:], 1):
        rows = list(spaces[n - 1])
        assert (mat.rows, mat.cols) == (len(rows), len(spaces[n]))
        for key, col in zip(spaces[n], mat.columns()):
            want = apply_terms(terms, {key: 1})
            got = {rows[i]: v for i, v in col.items()}
            assert got == want, (n, key)
            assert [type(got[k]) for k in want] == [type(v) for v in want.values()]


def _without_d(alg):
    return DgAlgebra(alg.labels, alg.degrees, alg.mult, {}, validate=False)


@settings(max_examples=12, deadline=None)
@given(st.one_of(degree0_algebras(), graded_tables(kept=True).map(_without_d)))
def test_run_form_matches_per_key_form_on_generated_algebras(alg):
    """On builder algebras in random bases and on graded tables with d
    dropped, whose digit parities vary from letter to letter; lie_runs and
    lie_terms read the same structure cochain, so validity is not needed."""
    assert_run_form_matches_terms(alg)


@pytest.mark.parametrize("alg", [build_field(), build_matrix_algebra(2), EXT1, POLY2,
                                 GRADED_A2], ids=lambda a: a.name)
def test_run_form_matches_per_key_form(alg):
    assert_run_form_matches_terms(alg)


def closed_form_structure(alg):
    """b written out word by word over all basis words, units included:
    b_1[j] = d(b_j) and b_2[i|j] = (-1)^{|i|} b_i b_j."""
    comps = {1: {}, 2: {}}
    for j in range(alg.dim):
        if alg.d_of(j):
            comps[1][j,] = dict(alg.d_of(j))
    for i, j in itertools.product(range(alg.dim), repeat=2):
        if col := alg.product(i, j):
            comps[2][i, j] = {k: (-1) ** alg.degrees[i] * v for k, v in col.items()}
    return {l: comp for l, comp in comps.items() if comp}


def assert_structure_is_closed_form(alg):
    b = structure_as_cochain(alg)
    want = closed_form_structure(alg)
    assert (b.sdeg, b.normalized, b.components) == (1, False, want)
    assert [type(v) for comp in b.components.values() for out in comp.values()
            for v in out.values()] == [type(want[l][w][k]) for l, comp in
                                       b.components.items() for w, out in comp.items()
                                       for k in out]


@settings(max_examples=25, deadline=None)
@given(degree0_algebras())
def test_structure_cochain_is_the_closed_formula_on_generated_algebras(alg):
    assert_structure_is_closed_form(alg)


@pytest.mark.parametrize("alg", [EXT1, POLY2, CONTRACTIBLE], ids=lambda a: a.name)
def test_structure_cochain_is_the_closed_formula(alg):
    """Odd degrees flip the sign of b_2; CONTRACTIBLE also has a b_1."""
    assert_structure_is_closed_form(alg)
