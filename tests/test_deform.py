import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    conjugated_structure_component,
    deformed_mixed_complex_holds,
    push_mc,
    random_first_order_mc,
    random_lifted_gauge_pair,
    t2_eps4_gauge_grid,
    truncation_map,
    zero_mc,
)
from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_matrix_algebra,
    build_truncated_polynomial_algebra,
)
from ncperiod.coeff import build_truncated_poly, dual_numbers
from ncperiod.deform import (
    AlgebraOverArtin,
    GaugeElement,
    MCElement,
    NotMaurerCartan,
    cochain_over_ring,
    deform_algebra,
    gauge_act,
    gauge_equivalent,
    lift_order_by_order,
    mc_residual,
    solve_by_levels,
)
from ncperiod.exactlin import SparseMatrix, solve
from ncperiod.hochschild import (
    Cochain,
    CochainBasis,
    _cochain_diff_matrix,
    cochain_differential,
    gerstenhaber_bracket,
    hochschild_cohomology,
    structure_as_cochain,
)

D = build_truncated_polynomial_algebra(2)
R2 = dual_numbers()
R3 = build_truncated_poly(1, 3)
R4 = build_truncated_poly(1, 4)
EPS = R2.gen("eps")


def hh2_generator(alg=D, ring=R2, scale=1):
    eps = ring.gen(1)
    return MCElement(
        ring, cochain_over_ring(alg, ring, {2: {(1, 1): {0: eps * scale}}}, 1, 6)
    )


def test_zero_is_mc():
    assert mc_residual(D, zero_mc(D, R2)).is_zero()


def test_any_cocycle_is_mc_over_dual_numbers():
    rng = random.Random(7)
    for _ in range(5):
        x = random_first_order_mc(D, R2, rng)
        assert mc_residual(D, x).is_zero()


def _non_cocycle_arity2(alg):
    """Some arity-2 cochain with nonzero differential (needs noncommutativity;
    over Q[x]/(x^n) every arity-2 cochain is a cocycle)."""
    dmat = _cochain_diff_matrix(alg, 2)
    cb = CochainBasis(alg, 2)
    cols = dmat.columns()
    for j, col in enumerate(cols):
        if col:
            w, t = cb.keys[j]
            return {2: {w: {t: 1}}}
    raise AssertionError("no non-cocycle found")


def test_second_order_residual_and_correction():
    # On the path algebra: x = eps^2 (non-cocycle) has residual eps^2 d(nu)
    # != 0; dropping the junk (the corrected element) is Maurer-Cartan.
    a2 = a2_quiver_algebra()
    eps2 = R3.gen("eps^2")
    junk = _non_cocycle_arity2(a2)
    comps = {2: {w: {t: eps2 * c for t, c in out.items()}
                 for w, out in junk[2].items()}}
    bad = MCElement(R3, cochain_over_ring(a2, R3, comps, 1, 6))
    assert not mc_residual(a2, bad).is_zero()
    good = MCElement(R3, cochain_over_ring(a2, R3, {}, 1, 6))
    assert mc_residual(a2, good).is_zero()


def test_all_degree_one_elements_on_dual_numbers_are_mc():
    # the 1-dimensional complement makes every bracket of arity-2 cochains
    # vanish and every arity-2 cochain a cocycle
    rng = random.Random(31)
    eps = R3.gen("eps")
    eps2 = R3.gen("eps^2")
    for _ in range(5):
        comps = {2: {(1, 1): {0: eps * rng.randint(-2, 2) + eps2 * rng.randint(-2, 2),
                              1: eps2 * rng.randint(-2, 2)}}}
        x = MCElement(R3, cochain_over_ring(D, R3, comps, 1, 6))
        assert mc_residual(D, x).is_zero()


def test_deform_algebra_structure_constants():
    alg = deform_algebra(D, hh2_generator())
    assert alg.validate() == []
    mc = alg.multiplication_constants()
    assert mc[1, 1] == {0: EPS}  # x * x = eps


def test_deform_algebra_rejects_non_mc():
    a2 = a2_quiver_algebra()
    eps2 = R3.gen("eps^2")
    junk = _non_cocycle_arity2(a2)
    comps = {2: {w: {t: eps2 * c for t, c in out.items()}
                 for w, out in junk[2].items()}}
    bad = MCElement(R3, cochain_over_ring(a2, R3, comps, 1, 6))
    with pytest.raises(NotMaurerCartan):
        deform_algebra(a2, bad)


def test_gauge_identity_action():
    x = hh2_generator()
    zero_alpha = GaugeElement(R2, cochain_over_ring(D, R2, {}, 0, 6))
    y = gauge_act(zero_alpha, x)
    assert y.value.add(x.value, scale=-1).is_zero()


def test_gauge_first_order_formula():
    # over square-zero rings: e^alpha . x = x + [alpha, x] - d alpha
    from ncperiod.hochschild import gerstenhaber_bracket

    rng = random.Random(3)
    x = random_first_order_mc(D, R2, rng)
    alpha = GaugeElement(R2, cochain_over_ring(D, R2, {1: {(1,): {1: EPS}}}, 0, 6))
    got = gauge_act(alpha, x)
    expect = x.value.add(gerstenhaber_bracket(alpha.value, x.value, 6)).add(
        cochain_differential(D, alpha.value, 6), scale=-1
    )
    assert got.value.add(expect, scale=-1).is_zero()


def test_gauge_preserves_mc_over_eps3():
    rng = random.Random(12)
    eps = R3.gen("eps")
    x = MCElement(R3, cochain_over_ring(D, R3, {2: {(1, 1): {0: eps}}}, 1, 6))
    alpha = GaugeElement(
        R3,
        cochain_over_ring(
            D, R3, {1: {(1,): {0: eps * 2, 1: eps}}}, 0, 6
        ),
    )
    y = gauge_act(alpha, x)
    assert mc_residual(D, y).is_zero()


def test_gauge_equivalent_reflexive():
    x = hh2_generator()
    a = gauge_equivalent(x, x)
    assert a is not None and a.value.is_zero()


def test_gauge_equivalent_translation_by_boundary():
    from ncperiod.hochschild import Cochain

    alpha0 = GaugeElement(R2, cochain_over_ring(D, R2, {1: {(1,): {1: EPS}}}, 0, 6))
    x = hh2_generator()
    y = gauge_act(alpha0, x)
    a = gauge_equivalent(x, y)
    assert a is not None
    z = gauge_act(a, x)
    assert z.value.add(y.value, scale=-1).is_zero()


def test_gauge_equivalent_distinct_classes_obstructed():
    x = hh2_generator()
    y = hh2_generator(scale=2)
    assert gauge_equivalent(x, y) is None


def test_gauge_equivalent_finds_every_gauge_of_the_eps4_grid():
    """Over Q[eps]/eps^4 a probe placed in the eps slot also moves level 2,
    whose class is the nonzero HH^2 class of x; a probe combination must leave
    that solved level at zero, or the search runs out and reports None for
    40 of these 99 gauge-equivalent pairs."""
    x, alphas = t2_eps4_gauge_grid()
    assert len(alphas) == 99
    for alpha in alphas:
        y = gauge_act(alpha, x)
        w = gauge_equivalent(x, y)
        assert w is not None, alpha.value.components
        assert gauge_act(w, x).value.add(y.value, scale=-1).is_zero()


# (seed, n, order) of the random lifted pairs on Q[x]/x^n over Q[eps]/eps^order
# that gauge_equivalent misses: its probes are taken as linear in their
# coefficients, exact only through nilpotency order 3, so over these deeper
# rings it answers None for a pair it should find
LINEARIZED_MISSES = {(1, 4, 4), (1, 4, 5), (4, 3, 4), (4, 3, 5), (4, 4, 4), (4, 4, 5)}


@pytest.mark.parametrize("seed, n, order", [
    pytest.param(seed, n, order, marks=pytest.mark.xfail(
        strict=True, reason="linearized probes past nilpotency order 3"))
    if (seed, n, order) in LINEARIZED_MISSES else (seed, n, order)
    for seed in range(5) for n in (2, 3, 4) for order in (4, 5)])
def test_gauge_equivalent_finds_the_gauge_of_random_lifted_pairs(seed, n, order):
    """A random first-order x on Q[x]/x^n, lifted to Q[eps]/eps^order, and
    its image y under a random gauge with coefficients at every level:
    gauge_equivalent finds a gauge, and that gauge carries x to y."""
    x, y = random_lifted_gauge_pair(build_truncated_polynomial_algebra(n), order,
                                    random.Random(seed))
    w = gauge_equivalent(x, y)
    assert w is not None
    assert gauge_act(w, x).value.add(y.value, scale=-1).is_zero()


@pytest.mark.parametrize("ring", [R3, R4], ids=["eps3", "eps4"])
def test_gauge_equivalent_distinct_first_order_classes_stay_none(ring):
    x = MCElement(ring, cochain_over_ring(D, ring, {2: {(1, 1): {0: ring.gen(1)}}}, 1, 6))
    assert gauge_equivalent(x, MCElement(ring, x.value.scaled(2))) is None


def test_deformed_mixed_complex_identities():
    assert deformed_mixed_complex_holds(D, hh2_generator(), bar_bound=4)


def test_deformed_complex_conjugation_by_gauge():
    """Gauge-equivalent deformations give conjugate deformed boundaries:
    e^{L_alpha} (d + L_x) e^{-L_alpha} = d + L_y exactly on low weights."""
    from ncperiod.hochschild import ChainBasis, chain_add, hochschild_boundary, lie_action

    x = hh2_generator()
    alpha = GaugeElement(R2, cochain_over_ring(D, R2, {1: {(1,): {1: EPS}}}, 0, 6))
    y = gauge_act(alpha, x)
    assert mc_residual(D, x).is_zero() and mc_residual(D, y).is_zero()
    bx = structure_as_cochain(D).add(x.value)
    by = structure_as_cochain(D).add(y.value)
    basis = ChainBasis(D, 5)

    def exp_l(chain, sign):
        out = dict(chain)
        term = chain
        k = 1
        while term:
            nxt = lie_action(D, alpha.value, term)
            if sign < 0 and k % 2:
                nxt = {kk: -v for kk, v in nxt.items()}
            scaled = {kk: Fraction(1, _fact(k)) * v for kk, v in nxt.items()}
            for kk, v in scaled.items():
                chain_add(out, kk, v)
            term = lie_action(D, alpha.value, term)
            k += 1
            if k > 4:
                break
        return out

    def _fact(k):
        out = 1
        for i in range(2, k + 1):
            out *= i
        return out

    for a0, word in basis.keys:
        if len(word) > 4:
            continue
        c = {(a0, word): 1}
        lhs = exp_l(hochschild_boundary(bx, exp_l(c, -1)), +1)
        rhs = hochschild_boundary(by, c)
        diff = dict(lhs)
        for kk, v in rhs.items():
            chain_add(diff, kk, -v)
        assert diff == {}, (a0, word)


def test_conjugation_dictionary_via_bar_construction():
    x = hh2_generator()
    alpha = GaugeElement(R2, cochain_over_ring(D, R2, {1: {(1,): {1: EPS}}}, 0, 6))
    y = gauge_act(alpha, x)
    st = structure_as_cochain(D)
    for n in range(1, 4):
        for w in itertools.product([1], repeat=n):
            got = {t: R2.coerce(c) for t, c in
                   conjugated_structure_component(D, x, alpha, w).items() if c}
            want = {}
            for t, c in st.eval(n, w).items():
                want[t] = want.get(t, R2.zero()) + c
            for t, c in y.value.eval(n, w).items():
                want[t] = want.get(t, R2.zero()) + c
            want = {t: c for t, c in want.items() if c}
            assert got == want, w


def test_lift_hh2_generator_to_eps3():
    x = hh2_generator()
    status, lifted = lift_order_by_order(D, x, R3)
    assert status == "lift"
    # hand-solved second-order correction is zero: x*x = eps exactly
    mc = deform_algebra(D, lifted).multiplication_constants()
    assert mc[1, 1] == {0: R3.gen("eps")}
    assert mc_residual(D, lifted).is_zero()


def test_level_solver_probe_that_clears_a_row():
    """The eps^2 row of the residual 1 - u_eps is moved only by the kernel
    direction of lin = 0 placed in the eps slot.  Its probe clears the row,
    so the probe column must carry -1 there, not drop the row."""
    def residual(u):
        r = 1 - u[1]
        return {(2, 0): Fraction(r)} if r else {}

    def shift(u, vecs):
        u = list(u)
        for s, vec in vecs.items():
            u[s] += vec.get(0, 0)
        return u

    u, blocked = solve_by_levels(R3, SparseMatrix(1, 1), residual, shift,
                                 [0, 0, 0], kernel=[{0: Fraction(1)}])
    assert blocked is None and u == [0, 1, 0]


def test_lift_obstructed_on_square_zero_plane():
    """A = k[x,y]/(x,y)^2 (basis 1, x, y; HH^3 = 12).  P: x(x)y -> x is an
    arity-2 cocycle whose quadratic obstruction [P,P]/2 is not a coboundary,
    so eps.P does not lift to eps^3 and the class sits in the eps^2 slot
    only; P: x(x)x -> x has [P,P] = 0 and lifts."""
    unit = {(0, j): {j: 1} for j in range(3)} | {(j, 0): {j: 1} for j in range(3)}
    A = DgAlgebra(["1", "x", "y"], [0, 0, 0], unit, name="k[x,y]/(x,y)^2")
    assert hochschild_cohomology(A, [3]).dims[3] == 12
    cb3 = CochainBasis(A, 3)
    eps2 = R3.basis_labels.index("eps^2")
    for word, obstructed in (((1, 2), True), ((1, 1), False)):
        P = Cochain(A, {2: {word: {1: Fraction(1)}}}, 1, 6)
        assert cochain_differential(A, P).is_zero()
        half = gerstenhaber_bracket(P, P).scaled(Fraction(1, 2))
        assert half.is_zero() != obstructed
        vec = {cb3.index[w, t]: c for w, out in half.components.get(3, {}).items()
               for t, c in out.items()}
        # independent check: is [P,P]/2 a coboundary of an arity-2 cochain?
        assert (solve(_cochain_diff_matrix(A, 2), vec) is None) == obstructed
        x = MCElement(R2, cochain_over_ring(A, R2, {2: {word: {1: EPS}}}, 1, 6))
        status, result = lift_order_by_order(A, x, R3)
        if obstructed:
            assert status == "obstruction"
            assert set(result) == {eps2} and result[eps2]
        else:
            assert status == "lift"
            assert mc_residual(A, result).is_zero()


@pytest.mark.parametrize("alg", [a2_quiver_algebra(), build_matrix_algebra(2)],
                         ids=lambda a: a.name)
def test_unobstructed_lifting_to_eps4(alg):
    rng = random.Random(99)
    for _ in range(3):
        x = random_first_order_mc(alg, R2, rng)
        status, lifted = lift_order_by_order(alg, x, R3)
        assert status == "lift"
        status, lifted = lift_order_by_order(alg, lifted, R4)
        assert status == "lift"
        assert mc_residual(alg, lifted).is_zero()


def test_path_algebra_first_order_gauge_trivial():
    # HH^2(a2) = 0: every first-order deformation is gauge-equivalent to 0
    a2 = a2_quiver_algebra()
    rng = random.Random(5)
    for _ in range(3):
        x = random_first_order_mc(a2, R2, rng)
        zero = MCElement(R2, cochain_over_ring(a2, R2, {}, 1, 6))
        alpha = gauge_equivalent(x, zero)
        assert alpha is not None
        assert gauge_act(alpha, x).value.is_zero()


def test_deformed_algebra_reduces_to_base():
    x = hh2_generator()
    alg = deform_algebra(D, x)
    mc = alg.multiplication_constants()
    for (i, j), col in mc.items():
        reduced = {k: v.augmentation for k, v in col.items() if v.augmentation}
        assert reduced == {k: v for k, v in D.product(i, j).items()}, (i, j)


def test_push_mc_functoriality():
    # reduction along Q[eps]/(eps^3) -> Q[eps]/(eps^2) commutes with residual
    eps = R3.gen("eps")
    x = MCElement(R3, cochain_over_ring(D, R3, {2: {(1, 1): {0: eps}}}, 1, 6))
    quo, apply = truncation_map(R3, 2)
    y = push_mc(x, quo, apply)
    assert mc_residual(D, y).is_zero()
    assert y.value.eval(2, (1, 1))[0].coeffs == (0, 1)


def test_mc_element_requires_maximal_ideal_coefficients():
    with pytest.raises(ValueError):
        MCElement(R2, cochain_over_ring(D, R2, {2: {(1, 1): {0: R2.one()}}}, 1, 6))


def test_lift_across_several_levels_is_rejected():
    """The target ring of a lift adds exactly one m-adic level: lifting from
    the dual numbers straight to Q[eps]/eps^4 is a ValueError, where it used
    to end in a deeper residual (RuntimeError)."""
    M2 = build_matrix_algebra(2)
    x = random_first_order_mc(M2, dual_numbers(), random.Random(5))
    R3, R4 = build_truncated_poly(1, 3), build_truncated_poly(1, 4)
    assert R3.extends(dual_numbers()) and R4.extends(R3)
    assert not R4.extends(dual_numbers())
    assert not R3.extends(R3)
    with pytest.raises(ValueError, match="one m-adic level"):
        lift_order_by_order(M2, x, R4)
    status, lifted = lift_order_by_order(M2, x, R3)
    assert status == "lift"
    assert lift_order_by_order(M2, lifted, R4)[0] == "lift"
