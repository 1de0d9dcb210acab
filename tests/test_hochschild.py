import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_first_order_mc, unit_cochain

from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_path_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
)
from ncperiod import exactlin, hochschild
from ncperiod.calculus import OperatorSpace, calculus_defect
from ncperiod.coeff import build_truncated_poly, dual_numbers
from ncperiod.deform import gauge_equivalent, lift_order_by_order
from ncperiod.hochschild import (
    ChainBasis,
    Cochain,
    boundary_matrices,
    chain_add,
    chain_spaces,
    connes_matrices,
    cochain_differential,
    connes_B,
    flat_hochschild_homology,
    gerstenhaber_bracket,
    hochschild_boundary,
    hochschild_cohomology,
    hochschild_homology,
    lie_terms,
    structure_as_cochain,
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
    b = structure_as_cochain(alg)
    for key in all_basis_chains(alg, 4):
        c = {key: 1}
        assert hochschild_boundary(b, c) == classical_boundary(alg, c), key


@pytest.mark.parametrize("alg", FIVE, ids=lambda a: a.name)
def test_connes_matches_classical_oracle(alg):
    for key in all_basis_chains(alg, 4):
        c = {key: 1}
        assert connes_B(alg, c) == classical_connes(alg, c), key


@pytest.mark.parametrize("alg", FIVE, ids=lambda a: a.name)
def test_mixed_complex_axioms_weight5(alg):
    """d^2 = 0, B^2 = 0, dB + Bd = 0 exactly on all basis chains, weight <= 5."""
    b = structure_as_cochain(alg)
    for key in all_basis_chains(alg, 5):
        c = {key: 1}
        assert hochschild_boundary(b, hochschild_boundary(b, c)) == {}
        if len(key[1]) <= 4:
            assert connes_B(alg, connes_B(alg, c)) == {}
            acc = hochschild_boundary(b, connes_B(alg, c))
            for k, v in connes_B(alg, hochschild_boundary(b, c)).items():
                chain_add(acc, k, v)
            assert acc == {}


def test_boundary_dual_numbers_examples():
    D = build_truncated_polynomial_algebra(2)
    b = structure_as_cochain(D)
    # d(1 x [x]) = 1*x - x*1 = 0
    assert hochschild_boundary(b, {(0, (1,)): 1}) == {}
    # d(x x [x|x]) agrees with the classical 3-term formula
    c = {(1, (1, 1)): 1}
    assert hochschild_boundary(b, c) == classical_boundary(D, c)
    # explicitly: terms x*x x [x] - x x [x*x] + x*x x [x] all vanish (x^2 = 0)
    assert hochschild_boundary(b, c) == {}
    # d(1 x [x|x]) = x x [x] + x x [x] = 2 x x [x]
    assert hochschild_boundary(b, {(0, (1, 1)): 1}) == {(1, (1,)): 2}


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
    b = structure_as_cochain(ext)
    for key in all_basis_chains(ext, 4):
        c = {key: 1}
        assert hochschild_boundary(b, hochschild_boundary(b, c)) == {}
        if len(key[1]) <= 3:
            assert connes_B(ext, connes_B(ext, c)) == {}
            acc = hochschild_boundary(b, connes_B(ext, c))
            for k, v in connes_B(ext, hochschild_boundary(b, c)).items():
                chain_add(acc, k, v)
            assert acc == {}


def test_chain_basis_normalization():
    D = build_truncated_polynomial_algebra(2)
    basis = ChainBasis(D, 3)
    assert all(0 not in word for _, word in basis.keys)
    # weights 0..3, a0 over 2 basis elements, one reduced generator
    assert len(basis) == 8


def _shifted(mats, offsets, col_weight, row_weight):
    """{(row, col): value} of per-weight matrices placed in the flat basis."""
    out = {}
    for n, m in enumerate(mats):
        if m is not None:
            ro, co = offsets[row_weight(n)], offsets[col_weight(n)]
            out.update({(ro + i, co + j): v for (i, j), v in m.entries.items()})
    return out


def _flat(mat):
    return {(r, c): v for c, entries in mat.items() for r, v in entries}


@pytest.mark.parametrize("build", [
    lambda: build_truncated_polynomial_algebra(2), a2_quiver_algebra,
    kronecker_algebra, lambda: build_matrix_algebra(2)],
    ids=["T2", "A2", "kron", "M2"])
def test_one_chain_index_across_layers(build):
    """ChainBasis is chain_spaces laid end to end, and the OperatorSpace
    columns of d and B are the per-weight boundary_matrices and
    connes_matrices shifted by the basis offsets."""
    alg, check_weight = build(), 2
    spaces = chain_spaces(alg, check_weight + 2)
    basis = ChainBasis(alg, check_weight + 2)
    assert basis.keys == [key for space in spaces for key in space]
    assert basis.offsets == [sum(map(len, spaces[:n])) for n in range(len(spaces) + 1)]
    space = OperatorSpace(alg, check_weight)
    off = space.basis.offsets
    assert space.keys == basis.keys and off == basis.offsets
    assert space.check_cols == range(off[check_weight + 1])
    assert space.apply_cols == range(off[check_weight + 2])
    d = boundary_matrices(alg, spaces[: check_weight + 2])
    assert _flat(space.boundary_matrix()) == _shifted(
        d, off, lambda n: n, lambda n: n - 1)
    b = connes_matrices(alg, spaces)
    assert _flat(space.connes_matrix()) == _shifted(
        b, off, lambda n: n, lambda n: n + 1)


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
    one class per vertex in degree 0, nothing above; on the flat complex,
    a route independent of the relative one."""
    a2 = a2_quiver_algebra()
    got = flat_hochschild_homology(a2, range(0, 5)).as_tuple(range(5))
    separable = build_path_algebra([1, 2], [])
    assert got == flat_hochschild_homology(separable, range(0, 5)).as_tuple(range(5))
    assert got == (2, 0, 0, 0, 0)


def test_hhc_dims():
    D = build_truncated_polynomial_algebra(2)
    assert hochschild_cohomology(D, range(0, 5)).as_tuple(range(5)) == (2, 1, 1, 1, 1)
    assert hochschild_cohomology(build_field(), range(0, 3)).as_tuple(range(3)) == (1, 0, 0)
    m2 = build_matrix_algebra(2)
    assert hochschild_cohomology(m2, range(0, 4)).as_tuple(range(4)) == (1, 0, 0, 0)
    a2 = a2_quiver_algebra()
    assert hochschild_cohomology(a2, range(0, 4)).as_tuple(range(4)) == (1, 0, 0, 0)


@pytest.mark.parametrize("build", [lambda: build_matrix_algebra(2),
                                   lambda: build_truncated_polynomial_algebra(3)],
                         ids=["M2-relative", "T3-flat"])
def test_empty_degree_range_gives_empty_dims(build):
    alg = build()
    for compute in (hochschild_homology, flat_hochschild_homology,
                    hochschild_cohomology):
        out = compute(alg, [])
        assert (out.dims, out.spots, out.basis_keys) == ({}, {}, {}), compute.__name__


def test_cochain_diff_matrix_built_once_per_algebra_and_arity(monkeypatch):
    """HH^*, its cocycle representatives, a gauge search, a lift and the
    coboundary tests of calculus_defect share one coboundary matrix and one
    HH^l spot per (model, arity): each is made once, with one structure
    cochain b, and every call returns it.  HH^* of M2 runs on its Peirce
    basis, the others on M2 itself."""
    built, spots, bs = Counter(), Counter(), []
    real, real_spot = hochschild._assemble_cochain_diff, hochschild._build_cohomology_spot
    real_b = hochschild.structure_as_cochain

    def counting(algebra, arity):
        built[id(algebra), arity] += 1
        before = len(bs)
        out = real(algebra, arity)
        assert len(bs) - before == 1  # one b per assembly
        return out

    def counting_b(algebra, arity_bound=None):
        bs.append(id(algebra))
        return real_b(algebra, arity_bound)

    def counting_spot(model, arity):
        spots[id(model), arity] += 1
        return real_spot(model, arity)

    monkeypatch.setattr(hochschild, "_assemble_cochain_diff", counting)
    monkeypatch.setattr(hochschild, "_build_cohomology_spot", counting_spot)
    monkeypatch.setattr(hochschild, "structure_as_cochain", counting_b)
    m2, t3 = build_matrix_algebra(2), build_truncated_polynomial_algebra(3)
    for alg in (m2, t3):
        assert hochschild_cohomology(alg, range(3)).dims
        hochschild.cocycle_representatives(alg, 2)
        x = random_first_order_mc(alg, dual_numbers(), random.Random(1))
        assert gauge_equivalent(x, x) is not None
        assert lift_order_by_order(alg, x, build_truncated_poly(1, 3))[0] == "lift"
    calculus_defect(t3, 1, 2)
    assert built and set(built.values()) == {1}
    assert spots and set(spots.values()) == {1}
    assert {arity for key, arity in built if key == id(m2)} == {0, 1, 2}
    assert {arity for key, arity in built if key == id(m2.peirce())} == {0, 1, 2}
    assert {arity for key, arity in spots if key == id(m2)} == {1, 2}
    assert {arity for key, arity in spots if key == id(m2.peirce())} == {0, 1, 2}
    assert hochschild._cohomology_spot(m2, 2) is hochschild._cohomology_spot(m2, 2)
    m = hochschild._cochain_diff_matrix(m2, 2)
    assert m is hochschild._cochain_diff_matrix(m2, 2)
    assert built[id(m2), 2] == 1


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
    for key in hochschild_boundary(structure_as_cochain(D), {(0, (1, 1)): 1}):
        assert len(key[1]) == 1
    for key in connes_B(D, c):
        assert len(key[1]) == 3


def test_lie_terms_emit_ints_on_builder_algebras():
    # the builders' int structure constants keep d = L_b in int arithmetic
    for alg in (build_matrix_algebra(2), build_truncated_polynomial_algebra(3)):
        b = structure_as_cochain(alg)
        coeffs = []
        for a0, word in ChainBasis(alg, 3).keys:
            lie_terms(alg, b, a0, word, lambda key, c: coeffs.append(c))
        assert coeffs and all(type(c) is int for c in coeffs)


def _chain_add_sequences():
    """(coefficient sequence, final dict) pairs; every key cancels at least
    once on the way, and "c" only ever receives a zero."""
    ring = build_truncated_poly(1, 3)
    eps, eps2 = ring.gen("eps"), ring.gen("eps^2")
    return [
        ([("a", 2), ("b", 3), ("a", -2), ("c", 0), ("a", 5), ("b", -3), ("b", 7)],
         {"a": 5, "b": 7}),
        ([("a", Fraction(1, 2)), ("a", Fraction(1, 2)), ("b", Fraction(2, 3)),
          ("b", Fraction(-2, 3)), ("c", Fraction(0)), ("b", Fraction(4, 1)),
          ("a", Fraction(-1))],
         {"b": Fraction(4)}),
        ([("a", 1), ("a", Fraction(1, 2)), ("a", Fraction(-3, 2)), ("a", 4),
          ("b", Fraction(3, 1)), ("b", -3)],
         {"a": 4}),
        ([("a", eps), ("a", -eps), ("b", eps * 2 + 1), ("b", -1), ("a", eps2),
          ("c", ring.zero()), ("b", Fraction(1, 3)), ("b", eps * -2 - Fraction(1, 3)),
          ("b", eps2 * 3)],
         {"a": eps2, "b": eps2 * 3}),
    ]


@pytest.mark.parametrize("seq, final", _chain_add_sequences(),
                         ids=["int", "fraction", "mixed", "ring"])
def test_chain_add_matches_get_plus_coeff(seq, final):
    """chain_add stores a new key's coefficient as given; after every step
    the dict is the one of acc.get(key, 0) + coeff with zero entries
    dropped, with the same int and Fraction types."""
    acc, want = {}, {}
    for key, coeff in seq:
        chain_add(acc, key, coeff)
        s = want.get(key, 0) + coeff
        if s:
            want[key] = s
        else:
            want.pop(key, None)
        assert acc == want
        assert {k: type(v) for k, v in acc.items()} == {
            k: type(v) for k, v in want.items()}
    assert acc == final
    assert {k: type(v) for k, v in acc.items()} == {k: type(v) for k, v in final.items()}


def test_homology_eliminates_each_differential_once(monkeypatch):
    """Flat HH(M2) on degrees 0..6 runs rref once on each of d_1..d_6 (and on the
    zero map out of C_0) and echelonizes d_7 once, on exactly its 2,187 rows
    at the free columns of d_6, never on all 2,916 of its rows; a d_3 with
    one entry flipped still fails the d . d = 0 check."""
    mats, rrefs, pivots, echelons = [], [], [], []
    real_bm, real_rref, real_piv, real_echelon = (
        hochschild.boundary_matrices, exactlin.rref, exactlin._pivot_columns,
        exactlin._echelon)

    def capture(*args):
        mats[:] = real_bm(*args)
        return mats

    def pivot_spy(m, rows=None):
        start = len(echelons)
        out = real_piv(m, rows)
        pivots.append((m, rows, echelons[start:]))
        return out

    monkeypatch.setattr(hochschild, "boundary_matrices", capture)
    monkeypatch.setattr(exactlin, "rref", lambda m: rrefs.append(m) or real_rref(m))
    monkeypatch.setattr(exactlin, "_pivot_columns", pivot_spy)
    monkeypatch.setattr(exactlin, "_echelon",
                        lambda rows: echelons.append(len(rows)) or real_echelon(rows))
    m2 = build_matrix_algebra(2)
    assert flat_hochschild_homology(m2, range(7)).as_tuple(range(7)) == (1, 0, 0, 0, 0, 0, 0)
    assert [id(m) for m in rrefs[:-1]] == [id(mats[n]) for n in range(6, 0, -1)]
    assert (rrefs[-1].rows, rrefs[-1].cols) == (0, m2.dim)
    _, _, piv6 = real_rref(mats[6])
    free6 = [j for j in range(mats[6].cols) if j not in set(piv6)]
    assert (len(free6), mats[7].rows) == (2187, 2916)
    [(top, rows, top_echelons)] = pivots
    assert top is mats[7]
    assert rows == free6 and top_echelons == [2187]
    assert max(echelons) == 2187

    def flipped(*args):
        out = real_bm(*args)
        key = min(out[3].entries)
        out[3].entries[key] = -out[3].entries[key]
        return out

    monkeypatch.setattr(hochschild, "boundary_matrices", flipped)
    with pytest.raises(exactlin.CompositionNonzero):
        flat_hochschild_homology(m2, range(7))
