"""Deformations over multi-variable and fiber-product artin bases.

These exercise the m-adic machinery with more than one basis element per
filtration level (two level-1 slots for Q[e1,e2]/(deg >= 2), and the glued
base R x_Q R used by the small-extension induction pattern).
"""

import random

import pytest

from conftest import deformed_mixed_complex_holds, fiber_product, push_mc
from ncperiod.algebra import a2_quiver_algebra, build_truncated_polynomial_algebra
from ncperiod.coeff import build_truncated_poly, dual_numbers
from ncperiod.deform import (
    GaugeElement,
    MCElement,
    cochain_over_ring,
    deform_algebra,
    gauge_act,
    gauge_equivalent,
    mc_residual,
)
from ncperiod.period import period_map_artin, ptd_isomorphic, trivialize_periodic

D = build_truncated_polynomial_algebra(2)
E2 = build_truncated_poly(2, 2)  # Q[e1,e2], products of the e's vanish
WINDOW = (-6, 6)


def two_parameter_x(c1=1, c2=1):
    e1, e2 = E2.gen("eps1"), E2.gen("eps2")
    return MCElement(
        E2,
        cochain_over_ring(D, E2, {2: {(1, 1): {0: e1 * c1 + e2 * c2}}}, 1, 6),
    )


def test_two_parameter_deformation_is_mc():
    x = two_parameter_x()
    assert mc_residual(D, x).is_zero()
    alg = deform_algebra(D, x)
    assert alg.validate() == []
    mc = alg.multiplication_constants()
    assert mc[1, 1] == {0: E2.gen("eps1") + E2.gen("eps2")}


def test_two_parameter_deformed_complex():
    assert deformed_mixed_complex_holds(D, two_parameter_x(), bar_bound=3)


def test_two_parameter_gauge_equivalence():
    x = two_parameter_x(1, 1)
    alpha = GaugeElement(
        E2, cochain_over_ring(D, E2, {1: {(1,): {1: E2.gen("eps1")}}}, 0, 6)
    )
    y = gauge_act(alpha, x)
    assert mc_residual(D, y).is_zero()
    found = gauge_equivalent(x, y)
    assert found is not None
    assert gauge_act(found, x).value.add(y.value, scale=-1).is_zero()
    # distinct two-parameter directions stay inequivalent
    assert gauge_equivalent(two_parameter_x(1, 0), two_parameter_x(0, 1)) is None


def test_two_parameter_trivialization_and_ptd():
    x = two_parameter_x(1, 2)
    triv = trivialize_periodic(D, x, WINDOW)
    assert triv.ok
    from ncperiod.period import gauge_residual, op_slots

    assert gauge_residual(op_slots(E2, triv.deformation), op_slots(E2, triv.gauge),
                          triv.base, WINDOW, E2).is_zero()
    p1 = period_map_artin(D, x, WINDOW)
    p2 = period_map_artin(D, two_parameter_x(1, 2), WINDOW)
    ok, _ = ptd_isomorphic(p1, p2)
    assert ok
    p3 = period_map_artin(D, two_parameter_x(2, 1), WINDOW)
    ok, _ = ptd_isomorphic(p1, p3)
    assert not ok


def test_push_to_factor_rings():
    # kill e2: the two-parameter family restricts to the dual-numbers family
    x = two_parameter_x(1, 1)
    dual = dual_numbers()

    def to_dual(elem):
        return dual.element([elem.coeffs[0], elem.coeffs[1]])

    y = push_mc(x, dual, to_dual)
    assert mc_residual(D, y).is_zero()
    assert y.value.eval(2, (1, 1))[0].coeffs == (0, 1)


def test_fiber_product_base():
    dual = dual_numbers()
    glued = fiber_product(dual, dual)
    l1, r1 = glued.gen(1), glued.gen(2)
    x = MCElement(
        glued, cochain_over_ring(D, glued, {2: {(1, 1): {0: l1 + r1}}}, 1, 6)
    )
    assert mc_residual(D, x).is_zero()
    alg = deform_algebra(D, x)
    assert alg.validate() == []
    # projections to the two legs recover dual-numbers deformations
    for keep in (1, 2):
        def proj(elem, keep=keep):
            return dual.element([elem.coeffs[0], elem.coeffs[keep]])

        y = push_mc(x, dual, proj)
        assert mc_residual(D, y).is_zero()
        assert y.value.eval(2, (1, 1))[0].coeffs == (0, 1)


def test_second_order_gauge_equivalence_with_ambiguity():
    """The level-2 solve must use the cocycle freedom of level 1: x and
    x + eps^2 mu' are genuinely equivalent (substitute x -> x(1 + eps/2) in
    Q[x]/(x^2 - eps)), which a greedy per-level solve misses."""
    R3 = build_truncated_poly(1, 3)
    eps, eps2 = R3.gen("eps"), R3.gen("eps^2")
    x = MCElement(R3, cochain_over_ring(D, R3, {2: {(1, 1): {0: eps}}}, 1, 6))
    xx = MCElement(
        R3, cochain_over_ring(D, R3, {2: {(1, 1): {0: eps + eps2}}}, 1, 6)
    )
    w = gauge_equivalent(x, xx)
    assert w is not None
    assert gauge_act(w, x).value.add(xx.value, scale=-1).is_zero()
    # and in a gauge-act round trip with a non-cocycle level-1 part
    beta = GaugeElement(
        R3, cochain_over_ring(D, R3, {1: {(1,): {0: eps * 5, 1: eps2}}}, 0, 6)
    )
    y = gauge_act(beta, x)
    w2 = gauge_equivalent(x, y)
    assert w2 is not None
    assert gauge_act(w2, x).value.add(y.value, scale=-1).is_zero()
    # distinct first-order classes remain certified inequivalent
    assert gauge_equivalent(x, MCElement(R3, x.value.scaled(2))) is None


def test_second_order_ptd_gauge_invariance():
    R3 = build_truncated_poly(1, 3)
    eps, eps2 = R3.gen("eps"), R3.gen("eps^2")
    x = MCElement(R3, cochain_over_ring(D, R3, {2: {(1, 1): {0: eps}}}, 1, 6))
    alpha = GaugeElement(
        R3, cochain_over_ring(D, R3, {1: {(1,): {1: eps, 0: eps2 * 3}}}, 0, 6)
    )
    y = gauge_act(alpha, x)
    p1 = period_map_artin(D, x, WINDOW)
    p2 = period_map_artin(D, y, WINDOW)
    ok, _ = ptd_isomorphic(p1, p2)
    assert ok
    # the secretly equivalent pair is identified, distinct classes are not
    xx = MCElement(
        R3, cochain_over_ring(D, R3, {2: {(1, 1): {0: eps + eps2}}}, 1, 6)
    )
    ok2, _ = ptd_isomorphic(p1, period_map_artin(D, xx, WINDOW))
    assert ok2
    ok3, _ = ptd_isomorphic(
        p1, period_map_artin(D, MCElement(R3, x.value.scaled(2)), WINDOW)
    )
    assert not ok3
