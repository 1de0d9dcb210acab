"""The mixed-radix chain index and the run-form operator assembly.

term_matrix computes every row and column of d, B and I_P from the
mixed-radix index of chain_spaces, so that index is pinned here: the walk
enumerator gives, on a DgAlgebra, the keys of the itertools.product oracle
of conftest in the same order.  The run form is compared with the per-key
generators (lie_terms, connes_terms, contraction_terms) applied to each
basis chain: the same entries, values and types, on generated degree-0
algebras, on graded and dg ones, and for a contraction by a cochain with
Fraction values.  The structure cochain b, whose L_b is d, is compared with
its closed formula on the same algebras.
"""

import itertools
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import degree0_algebras, product_chain_spaces, product_cochain_keys
from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
)
from ncperiod.hochschild import (
    ChainBasis,
    Cochain,
    CochainBasis,
    apply_terms,
    chain_spaces,
    connes_runs,
    connes_terms,
    contraction_runs,
    contraction_terms,
    lie_runs,
    lie_terms,
    structure_as_cochain,
    term_matrix,
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


# -- run form against the per-key generators ---------------------------------------


EXT1 = DgAlgebra(["1", "t"], [0, 1], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                 name="ext1")
POLY2 = DgAlgebra(["1", "u"], [0, 2], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                  name="poly-deg2-trunc")
# d(x) = t with |x| = 0, |t| = 1: the b_1 terms land in the wraps, and the
# complement digits have both parities, so the signed runs split
CONTRACTIBLE = DgAlgebra(
    ["1", "x", "t"], [0, 0, 1],
    {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1}},
    diff={1: {2: 1}}, name="contractible-pair")

TOP = 5  # the operators are compared on the chains of weight 0..TOP


def assert_run_form_matches_terms(alg, cochain=None):
    """d, B and (for a cochain) I_P from term_matrix on ChainBasis(alg, TOP + 1),
    column by column against apply_terms of the per-key generator."""
    b = structure_as_cochain(alg)
    ops = [(partial(lie_runs, alg, b), partial(lie_terms, alg, b)),
           (partial(connes_runs, alg), partial(connes_terms, alg))]
    if cochain is not None:
        ops.append((partial(contraction_runs, alg, cochain),
                    partial(contraction_terms, alg, cochain)))
    basis = ChainBasis(alg, TOP + 1)
    off = basis.offsets
    for runs, terms in ops:
        mat = term_matrix(runs, (len(basis), off[TOP + 1]),
                          {n: off[n] for n in range(TOP + 1)}, off)
        for j, col in enumerate(mat.columns()):
            want = apply_terms(terms, {basis.keys[j]: 1})
            got = {basis.keys[i]: v for i, v in col.items()}
            assert got == want, (terms.func.__name__, basis.keys[j])
            assert [type(got[k]) for k in want] == [type(v) for v in want.values()]


@st.composite
def single_arity_cochains(draw, alg):
    """A cochain of one arity p <= 3 with int and Fraction values."""
    p = draw(st.integers(0, 3))
    words = list(itertools.product(alg.reduced_indices, repeat=p))
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    comp = {w: {t: draw(coeff) for t in draw(st.sets(st.integers(0, alg.dim - 1),
                                                     max_size=2))}
            for w in draw(st.lists(st.sampled_from(words), max_size=4))}
    return Cochain(alg, {p: comp}, draw(st.integers(-1, 3)))


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_run_form_matches_per_key_form_on_generated_algebras(data):
    alg = data.draw(degree0_algebras())
    assert_run_form_matches_terms(alg, data.draw(single_arity_cochains(alg)))


@pytest.mark.parametrize("alg", [build_field(), build_matrix_algebra(2), EXT1, POLY2,
                                 CONTRACTIBLE], ids=lambda a: a.name)
def test_run_form_matches_per_key_form(alg):
    half = {t: Fraction(1, 2) for t in range(alg.dim)}
    words = itertools.product(alg.reduced_indices, repeat=1)
    cochain = Cochain(alg, {1: {w: dict(half) for w in words}}, 0)
    assert_run_form_matches_terms(alg, cochain)


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
