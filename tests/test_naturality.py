"""Naturality of the deformation and period maps along the truncation
Q[eps]/eps^n -> Q[eps]/eps^(n-1): pushing an input along it and then
trivializing, lifting or solving for a gauge agrees with doing so first and
truncating the answer (Schlessinger 1968; Goldman-Millson 1988)."""

import random

import pytest

from conftest import push_mc, random_first_order_mc, t2_eps4_gauge_grid, truncation_map
from ncperiod.algebra import build_truncated_polynomial_algebra
from ncperiod.coeff import build_truncated_poly, dual_numbers
from ncperiod.deform import (
    GaugeElement,
    MCElement,
    cochain_over_ring,
    gauge_act,
    gauge_equivalent,
    lift_order_by_order,
)
from ncperiod.period import trivialize_periodic

T2 = build_truncated_polynomial_algebra(2)
T3 = build_truncated_polynomial_algebra(3)
R3 = build_truncated_poly(1, 3)
R4 = build_truncated_poly(1, 4)
WINDOW = (-6, 6)


def _inputs():
    """The deform_period benchmark's MC inputs over Q[eps]/eps^3: x (x . x =
    eps) and xx (x . x = eps + eps^2) on Q[x]/x^2, and the gauge-equivalent
    pair x3, y3 on Q[x]/x^3 (basis 1, x, x^2)."""
    eps, eps2 = R3.gen("eps"), R3.gen("eps^2")
    x = MCElement(R3, cochain_over_ring(T2, R3, {2: {(1, 1): {0: eps}}}, 1, 6))
    xx = MCElement(R3, cochain_over_ring(T2, R3, {2: {(1, 1): {0: eps + eps2}}}, 1, 6))
    x3 = MCElement(R3, cochain_over_ring(T3, R3, {2: {
        (1, 1): {1: -eps, 2: eps * -2, 0: eps * 3},
        (2, 1): {2: eps * 2, 0: eps * -3 + eps2 * 6},
        (1, 2): {2: eps * 2, 0: eps * -3 + eps2 * 6},
        (2, 2): {1: eps * -3, 2: eps * -3, 0: eps2 * -9},
    }}, 1, 6))
    beta = GaugeElement(R3, cochain_over_ring(
        T3, R3, {1: {(1,): {2: eps, 0: eps2 * 3}}}, 0, 6))
    return [("x", T2, x), ("xx", T2, xx), ("x3", T3, x3), ("y3", T3, gauge_act(beta, x3))]


INPUTS = _inputs()


def _coeffs(value):
    """{(arity, word, out): coefficient tuple} of a cochain over a ring."""
    return {key: v.coeffs for key, v in value.entries() if v}


@pytest.mark.parametrize("name, alg, x", INPUTS, ids=[n for n, _, _ in INPUTS])
def test_trivialization_commutes_with_truncation(name, alg, x):
    quo, apply = truncation_map(R3, 2)
    full = trivialize_periodic(alg, x, WINDOW).gauge
    low = trivialize_periodic(alg, push_mc(x, quo, apply), WINDOW).gauge
    assert full is not None and low is not None and not low.is_zero()
    truncated = {key: {e: apply(v).coeffs for e, v in mat.items() if apply(v)}
                 for key, mat in full.blocks.items()}
    assert {k: m for k, m in truncated.items() if m} == {
        key: {e: v.coeffs for e, v in mat.items()} for key, mat in low.blocks.items()}


@pytest.mark.parametrize("name, alg, x", INPUTS, ids=[n for n, _, _ in INPUTS])
def test_lift_commutes_with_truncation(name, alg, x):
    """Lifting x from eps^3 to eps^4 and truncating back gives x."""
    status, lifted = lift_order_by_order(alg, x, R4)
    assert status == "lift"
    quo, apply = truncation_map(R4, 3)
    assert _coeffs(push_mc(lifted, quo, apply).value) == _coeffs(x.value)


def test_gauge_witness_truncates_to_a_witness():
    """A gauge_equivalent witness over eps^4 for each pair of the T2 grid,
    pushed to eps^3, carries the truncated x to the truncated y."""
    quo, apply = truncation_map(R4, 3)
    x, alphas = t2_eps4_gauge_grid()
    x_low = push_mc(x, quo, apply)
    for alpha in alphas:
        y = gauge_act(alpha, x)
        w = gauge_equivalent(x, y)
        assert w is not None
        w_low = GaugeElement(quo, w.value.map_coefficients(apply))
        assert _coeffs(gauge_act(w_low, x_low).value) == _coeffs(
            push_mc(y, quo, apply).value)


def test_t4_trivialization_commutes_with_truncations_from_eps5():
    """A seeded first-order deformation of Q[x]/x^4, lifted to eps^5 by
    lift_order_by_order: its trivialization gauge, pushed along eps^5 ->
    eps^4 and on along eps^4 -> eps^3, equals entry for entry the gauge of
    the pushed input at each step, and the gauge has entries at every level
    1-4, so each truncation drops some."""
    T4 = build_truncated_polynomial_algebra(4)
    x = random_first_order_mc(T4, dual_numbers(), random.Random(1))
    for n in (3, 4, 5):
        status, x = lift_order_by_order(T4, x, build_truncated_poly(1, n))
        assert status == "lift"
    gauge = trivialize_periodic(T4, x, WINDOW).gauge
    assert {x.ring.levels[i] for _, v in gauge.entries() for i, c in enumerate(v.coeffs)
            if c} == {1, 2, 3, 4}
    for order in (4, 3):
        quo, apply = truncation_map(x.ring, order)
        x = push_mc(x, quo, apply)
        low = trivialize_periodic(T4, x, WINDOW).gauge
        assert low is not None and not low.is_zero()
        assert {key: w.coeffs for key, v in gauge.entries() if (w := apply(v))} == {
            key: v.coeffs for key, v in low.entries()}
        gauge = low
