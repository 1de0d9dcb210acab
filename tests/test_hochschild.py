import itertools
from fractions import Fraction

import pytest

from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_path_algebra,
    build_truncated_polynomial_algebra,
)
from ncperiod.hochschild import (
    ChainBasis,
    Cochain,
    DgStructure,
    chain_add,
    cochain_differential,
    connes_B,
    gerstenhaber_bracket,
    hochschild_boundary,
    hochschild_cohomology,
    hochschild_homology,
    lie_terms,
    structure_as_cochain,
    unit_cochain,
)

FIVE = [
    build_field(),
    build_truncated_polynomial_algebra(2),
    build_truncated_polynomial_algebra(3),
    a2_quiver_algebra(),
    build_matrix_algebra(2),
]


# -- independent classical oracles (degree-0 algebras only) ---------------------


def classical_boundary(alg, chain):
    """b(a0 x a1 x .. x an) = sum (-1)^i a0..(ai a_{i+1})..an + (-1)^n an a0 x ...

    Written against the unnormalized formula, with unit components dropped
    from bar slots afterwards (the standard normalized quotient).
    """
    out = {}
    for (a0, word), c in chain.items():
        n = len(word)
        if n == 0:
            continue
        # i = 0 term: (a0 a1) x [a2..]
        for k, m in alg.product(a0, word[0]).items():
            chain_add(out, (k, word[1:]), c * m)
        for i in range(1, n):
            sgn = -1 if i % 2 else 1
            for k, m in alg.product(word[i - 1], word[i]).items():
                if k == 0:
                    continue  # unit dies in a bar slot
                chain_add(out, (a0, word[: i - 1] + (k,) + word[i + 1 :]), sgn * c * m)
        sgn = -1 if n % 2 else 1
        for k, m in alg.product(word[-1], a0).items():
            chain_add(out, (k, word[:-1]), sgn * c * m)
    return out


def classical_connes(alg, chain):
    """B(a0 x a1..an) = sum_i (-1)^{ni} 1 x a_i..a_n a_0 a_1..a_{i-1} (normalized)."""
    out = {}
    for (a0, word), c in chain.items():
        if a0 == 0:
            continue
        full = (a0,) + word
        n = len(word)
        for i in range(n + 1):
            rot = full[i:] + full[:i]
            sgn = -1 if (n * i) % 2 else 1
            chain_add(out, (0, rot), sgn * c)
    return out


def all_basis_chains(alg, max_weight):
    red = list(alg.reduced_indices)
    for n in range(max_weight + 1):
        for a0 in range(alg.dim):
            for word in itertools.product(red, repeat=n):
                yield (a0, word)


@pytest.mark.parametrize("alg", FIVE, ids=lambda a: a.name)
def test_boundary_matches_classical_oracle(alg):
    for key in all_basis_chains(alg, 4):
        c = {key: 1}
        assert hochschild_boundary(alg, c) == classical_boundary(alg, c), key


@pytest.mark.parametrize("alg", FIVE, ids=lambda a: a.name)
def test_connes_matches_classical_oracle(alg):
    for key in all_basis_chains(alg, 4):
        c = {key: 1}
        assert connes_B(alg, c) == classical_connes(alg, c), key


@pytest.mark.parametrize("alg", FIVE, ids=lambda a: a.name)
def test_mixed_complex_axioms_weight5(alg):
    """d^2 = 0, B^2 = 0, dB + Bd = 0 exactly on all basis chains, weight <= 5."""
    for key in all_basis_chains(alg, 5):
        c = {key: 1}
        assert hochschild_boundary(alg, hochschild_boundary(alg, c)) == {}
        if len(key[1]) <= 4:
            assert connes_B(alg, connes_B(alg, c)) == {}
            acc = hochschild_boundary(alg, connes_B(alg, c))
            for k, v in connes_B(alg, hochschild_boundary(alg, c)).items():
                chain_add(acc, k, v)
            assert acc == {}


def test_boundary_dual_numbers_examples():
    D = build_truncated_polynomial_algebra(2)
    # d(1 x [x]) = 1*x - x*1 = 0
    assert hochschild_boundary(D, {(0, (1,)): 1}) == {}
    # d(x x [x|x]) agrees with the classical 3-term formula
    c = {(1, (1, 1)): 1}
    assert hochschild_boundary(D, c) == classical_boundary(D, c)
    # explicitly: terms x*x x [x] - x x [x*x] + x*x x [x] all vanish (x^2 = 0)
    assert hochschild_boundary(D, c) == {}
    # d(1 x [x|x]) = x x [x] + x x [x] = 2 x x [x]
    assert hochschild_boundary(D, {(0, (1, 1)): 1}) == {(1, (1,)): 2}


def test_connes_dual_numbers_examples():
    D = build_truncated_polynomial_algebra(2)
    # B(x) = 1 x [x]
    assert connes_B(D, {(1, ()): 1}) == {(0, (1,)): 1}
    # B(1 x [x]) = 0: both rotations put the unit in a bar slot
    assert connes_B(D, {(0, (1,)): 1}) == {}


def test_graded_mixed_axioms_exterior():
    ext = DgAlgebra(
        ["1", "t"], [0, 1],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        name="ext1",
    )
    for key in all_basis_chains(ext, 4):
        c = {key: 1}
        assert hochschild_boundary(ext, hochschild_boundary(ext, c)) == {}
        if len(key[1]) <= 3:
            assert connes_B(ext, connes_B(ext, c)) == {}
            acc = hochschild_boundary(ext, connes_B(ext, c))
            for k, v in connes_B(ext, hochschild_boundary(ext, c)).items():
                chain_add(acc, k, v)
            assert acc == {}


def test_chain_basis_normalization():
    D = build_truncated_polynomial_algebra(2)
    basis = ChainBasis(D, 3)
    assert all(0 not in word for _, word in basis.keys)
    # weights 0..3, a0 over 2 basis elements, one reduced generator
    assert len(basis) == 8


# -- cochain complex -------------------------------------------------------------


def test_bracket_of_structure_with_itself_vanishes():
    for alg in FIVE:
        b = structure_as_cochain(alg, 5)
        assert gerstenhaber_bracket(b, b, 5).is_zero()


def test_cochain_differential_squares_to_zero():
    D = build_truncated_polynomial_algebra(2)
    # p: x -> 1 (arity 1)
    p = Cochain(D, {1: {(1,): {0: 1}}}, 0, 4)
    dp = cochain_differential(D, p, 3)
    ddp = cochain_differential(D, dp, 4)
    assert ddp.is_zero()
    # and on a couple of arity-2 basis cochains over the path algebra
    a2 = a2_quiver_algebra()
    for w in itertools.product([1, 2], repeat=2):
        for t in range(3):
            q = Cochain(a2, {2: {w: {t: 1}}}, 1, 5)
            assert cochain_differential(a2, cochain_differential(a2, q, 4), 5).is_zero()


def test_unit_cochain_is_closed():
    for alg in FIVE:
        one = unit_cochain(alg, 3)
        assert cochain_differential(alg, one, 3).is_zero()


def test_cochain_differential_against_classical_formula():
    """For degree-0 algebras, [b, p] on arity-l p equals the classical
    Hochschild cochain differential up to the global sign (-1)^{l-1}."""
    D = build_truncated_polynomial_algebra(2)
    for l in (1, 2):
        for w in itertools.product([1], repeat=l):
            for t in range(2):
                p = Cochain(D, {l: {w: {t: 1}}}, l - 1, l + 2)
                dp = cochain_differential(D, p, l + 1)
                comp = dp.components.get(l + 1, {})
                # classical: (df)(a_1..a_{l+1}) = a_1 f(a_2..) +
                #   sum_i (-1)^i f(.., a_i a_{i+1}, ..) + (-1)^{l+1} f(..) a_{l+1}
                sgn_global = -1 if (l - 1) % 2 else 1
                for word in itertools.product([1], repeat=l + 1):
                    expect = {}
                    def fval(u):
                        return {t: 1} if u == w else {}
                    for k, v in fval(word[1:]).items():
                        for k2, m in D.product(word[0], k).items():
                            chain_add(expect, k2, v * m)
                    for i in range(1, l + 1):
                        sgn = -1 if i % 2 else 1
                        for k, m in D.product(word[i - 1], word[i]).items():
                            if k == 0:
                                inner = word[: i - 1] + word[i + 1 :]
                                # unit input kills normalized f
                                continue
                            inner = word[: i - 1] + (k,) + word[i + 1 :]
                            for k2, v in fval(inner).items():
                                chain_add(expect, k2, sgn * v * m)
                    sgn = -1 if (l + 1) % 2 else 1
                    for k, v in fval(word[:-1]).items():
                        for k2, m in D.product(k, word[l]).items():
                            chain_add(expect, k2, sgn * v * m)
                    got = dict(comp.get(word, {}))
                    expect = {k: sgn_global * v for k, v in expect.items() if v}
                    assert got == expect, (l, w, t, word)


# -- homology dims ----------------------------------------------------------------


def test_hh_dual_numbers_against_periodic_resolution_oracle():
    """Small-resolution oracle: ... D --2x--> D --0--> D, dims (2,1,1,1,...)."""
    D = build_truncated_polynomial_algebra(2)
    # oracle dims from the two-term periodic complex
    oracle = [2] + [1] * 6
    got = hochschild_homology(D, range(0, 7))
    assert got.as_tuple(range(7)) == tuple(oracle)


def test_hh_field():
    assert hochschild_homology(build_field(), range(0, 3)).as_tuple(range(3)) == (1, 0, 0)


def test_hh_matrix_algebra_morita():
    m2 = build_matrix_algebra(2)
    q = build_field()
    got = hochschild_homology(m2, range(0, 4))
    ref = hochschild_homology(q, range(0, 4))
    assert got.as_tuple(range(4)) == ref.as_tuple(range(4)) == (1, 0, 0, 0)


def test_hh_path_algebra_separable_oracle():
    """HH_*(kQ) for the acyclic two-vertex quiver agrees with HH_*(k x k):
    one class per vertex in degree 0, nothing above."""
    a2 = a2_quiver_algebra()
    got = hochschild_homology(a2, range(0, 5)).as_tuple(range(5))
    separable = build_path_algebra([1, 2], [])
    assert got == hochschild_homology(separable, range(0, 5)).as_tuple(range(5))
    assert got == (2, 0, 0, 0, 0)


def test_hhc_dims():
    D = build_truncated_polynomial_algebra(2)
    assert hochschild_cohomology(D, range(0, 5)).as_tuple(range(5)) == (2, 1, 1, 1, 1)
    assert hochschild_cohomology(build_field(), range(0, 3)).as_tuple(range(3)) == (1, 0, 0)
    m2 = build_matrix_algebra(2)
    assert hochschild_cohomology(m2, range(0, 4)).as_tuple(range(4)) == (1, 0, 0, 0)
    a2 = a2_quiver_algebra()
    assert hochschild_cohomology(a2, range(0, 4)).as_tuple(range(4)) == (1, 0, 0, 0)


def test_longer_quivers_vertex_count_oracle():
    """Acyclic path algebras: HH_0 = one class per vertex, HH_i = 0 above
    (hereditary + separable top); exercises length-2 path composition."""
    from ncperiod.algebra import kronecker_algebra

    a3 = build_path_algebra([1, 2, 3], [("f", 1, 2), ("g", 2, 3)], name="path:a3")
    assert a3.dim == 6
    assert hochschild_homology(a3, range(0, 4)).as_tuple(range(4)) == (3, 0, 0, 0)
    assert hochschild_cohomology(a3, range(0, 3)).as_tuple(range(3)) == (1, 0, 0)
    sq = build_path_algebra(
        ["a", "b", "c", "d"],
        [("p", "a", "b"), ("q", "a", "c"), ("r", "b", "d"), ("s", "c", "d")],
        name="path:square",
    )
    assert sq.dim == 10
    assert hochschild_homology(sq, range(0, 3)).as_tuple(range(3)) == (4, 0, 0)
    # Kronecker: outer derivations form a 3-dimensional Lie algebra (sl_2)
    kron = kronecker_algebra()
    assert hochschild_cohomology(kron, range(0, 4)).as_tuple(range(4)) == (1, 3, 0, 0)
    assert hochschild_homology(kron, range(0, 4)).as_tuple(range(4)) == (2, 0, 0, 0)


def test_boundary_lowers_weight_connes_raises():
    D = build_truncated_polynomial_algebra(2)
    c = {(1, (1, 1)): 1}
    for key in hochschild_boundary(D, {(0, (1, 1)): 1}):
        assert len(key[1]) == 1
    for key in connes_B(D, c):
        assert len(key[1]) == 3


def test_lie_terms_emit_ints_on_builder_algebras():
    # the builders' int structure constants keep d = L_b in int arithmetic
    for alg in (build_matrix_algebra(2), build_truncated_polynomial_algebra(3)):
        struct = DgStructure(alg)
        coeffs = []
        for a0, word in ChainBasis(alg, 3).keys:
            lie_terms(alg, struct, a0, word, lambda key, c: coeffs.append(c))
        assert coeffs and all(type(c) is int for c in coeffs)
