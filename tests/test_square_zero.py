"""One square-zero rule: validity, the Maurer-Cartan residual and the gauge
action read one brace of the structure cochain b.

`validate_dg_algebra` reads associativity, d^2 = 0 and Leibniz off the words
of arity 3, 1 and 2 of b o b, `mc_residual` is (b + x) o (b + x) and
`gauge_act` is the one series x + sum_{k >= 1} (ad alpha)^k (b + x) / k!.
Each is checked here against the hand-written form it replaced, kept in
conftest as an oracle: the validator's loops over the structure constants,
dx + (1/2)[x, x] and the two exponential series for x and d alpha.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DEGREE_AND_UNIT,
    bracket_mc_residual,
    degree0_algebras,
    graded_tables,
    loop_validator,
    random_first_order_mc,
    reference_brace,
    reference_bracket,
    two_series_gauge_act,
)
from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_matrix_algebra,
    build_truncated_polynomial_algebra,
    validate_dg_algebra,
)
from ncperiod.calculus import cup_product
from ncperiod.coeff import RingElement, build_truncated_poly, dual_numbers
from ncperiod.deform import GaugeElement, MCElement, gauge_act, mc_residual, ring_cochain
from ncperiod.hochschild import (
    ArityBoundExceeded,
    Cochain,
    CochainBasis,
    basis_cochains,
    brace_compose,
    cochain_differential,
    gerstenhaber_bracket,
    structure_as_cochain,
)


def assert_matches_loops(alg):
    """The verdict and the first violation are the oracle's; the whole report
    is too where the degree and unit checks pass, and a subset elsewhere."""
    got, want = validate_dg_algebra(alg), loop_validator(alg)
    assert bool(got) == bool(want)
    assert got[:1] == want[:1]
    if DEGREE_AND_UNIT.isdisjoint(v.axiom for v in want):
        assert got == want
    else:
        assert all(v in want for v in got)


# -- the validator ---------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(degree0_algebras())
def test_validator_matches_loops_on_degree0_algebras(alg):
    assert validate_dg_algebra(alg) == loop_validator(alg) == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_validator_matches_loops_on_one_entry_perturbations(data):
    """A builder algebra in a random basis with one structure constant moved:
    the unit, associativity or both may break."""
    alg = data.draw(degree0_algebras())
    i, j, k = (data.draw(st.integers(0, alg.dim - 1)) for _ in range(3))
    mult = {key: dict(col) for key, col in alg.mult.items()}
    col = mult.setdefault((i, j), {})
    col[k] = col.get(k, 0) + data.draw(st.sampled_from([1, -1, Fraction(1, 2)]))
    assert_matches_loops(DgAlgebra(alg.labels, alg.degrees, mult, validate=False))


@settings(max_examples=300, deadline=None)
@given(graded_tables())
def test_validator_matches_loops_on_graded_tables(alg):
    assert_matches_loops(alg)


def test_degree_checks_gate_the_reading_of_b_squared():
    """Off the gates, b's signs name no violation.  An associative product
    x x = x with |x| = 1 fails only graded-product, where b o b is 2x at
    (x, x, x); the Euler derivation d = x d/dx of Q[x]/x^3 in degree 0 obeys
    Leibniz and fails diff-degree and d^2, where b o b is 2x^2 at (x, x): the
    report stops at diff-degree, and the loops add only d^2."""
    odd = DgAlgebra(["1", "x"], [0, 1], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                         (1, 0): {1: 1}, (1, 1): {1: 1}},
                    validate=False)
    t3 = build_truncated_polynomial_algebra(3)
    euler = DgAlgebra(t3.labels, t3.degrees, t3.mult, {1: {1: 1}, 2: {2: 2}},
                      validate=False)
    assert validate_dg_algebra(odd) == loop_validator(odd)
    assert [v.axiom for v in validate_dg_algebra(odd)] == ["graded-product"]
    assert [v.axiom for v in validate_dg_algebra(euler)] == ["diff-degree"] * 2
    assert [v.axiom for v in loop_validator(euler)] == ["diff-degree"] * 2 + ["d-squared"] * 2


# -- the Maurer-Cartan residual and the gauge action ------------------------------


ALGEBRAS = [build_truncated_polynomial_algebra(2), build_truncated_polynomial_algebra(3),
            a2_quiver_algebra(), build_matrix_algebra(2)]
RINGS = [dual_numbers(), build_truncated_poly(1, 3), build_truncated_poly(2, 2)]


def _typed(c: Cochain):
    """A cochain with the type of every coefficient slot, and its sdeg,
    arity_bound and normalized flag."""
    def slot(v):
        return tuple((q, type(q)) for q in v.coeffs) if isinstance(v, RingElement) \
            else (v, type(v))
    return (c.sdeg, c.arity_bound, c.normalized,
            {l: {w: {t: slot(v) for t, v in out.items()} for w, out in comp.items()}
             for l, comp in c.components.items()})


def _in_m(ring, rng):
    """A random element of the maximal ideal with small coefficients."""
    return RingElement(ring, [0] + [rng.choice([0, 1, -2, Fraction(1, 2)])
                                    for _ in range(ring.dim - 1)])


def _random_cochain(alg, ring, rng, arity, sdeg):
    """A cochain of one arity with random coefficients in m_R on a few keys."""
    keys = CochainBasis(alg, arity).keys
    comps = {}
    for w, t in rng.sample(keys, min(3, len(keys))):
        comps.setdefault(arity, {}).setdefault(w, {})[t] = _in_m(ring, rng)
    return Cochain(alg, comps, sdeg, 6)


def _inputs(data):
    alg = data.draw(st.sampled_from(ALGEBRAS))
    ring = data.draw(st.sampled_from(RINGS))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    top = ring.gen(ring.dim - 1)  # m_R top = 0, so top times a cocycle is MC
    mc = MCElement(ring, random_first_order_mc(alg, ring, rng).value.map_coefficients(
        lambda c: top * c.coeffs[1]))
    alpha = GaugeElement(ring, _random_cochain(alg, ring, rng, 1, 0))
    higher = MCElement(ring, gauge_act(alpha, mc).value)  # MC beyond first order
    other = MCElement(ring, _random_cochain(alg, ring, rng, 2, 1))  # in general not MC
    return alg, alpha, [mc, higher, other, MCElement(ring, other.value.add(mc.value))]


def _residual(alg, x):
    """mc_residual(alg, x) over x's ring: its slot cochains, each of shifted
    degree 2 and x's arity bound, converted through coeff.ring_values."""
    slots = mc_residual(alg, x)
    assert all((c.sdeg, c.arity_bound) == (2, x.value.arity_bound) for c in slots.values())
    return ring_cochain(slots, alg, 2, x.value.arity_bound)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mc_residual_is_dx_plus_half_bracket(data):
    alg, _, xs = _inputs(data)
    for x in xs:
        assert _typed(_residual(alg, x)) == _typed(bracket_mc_residual(alg, x))
    assert mc_residual(alg, xs[0]).is_zero() and mc_residual(alg, xs[1]).is_zero()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_gauge_act_is_the_two_series(data):
    _, alpha, xs = _inputs(data)
    for x in xs:
        assert _typed(gauge_act(alpha, x).value) == _typed(two_series_gauge_act(alpha, x))


def test_a_non_mc_cochain_has_a_nonzero_residual():
    """dx != 0 with [x, x] = 0: a first-order cochain that is no cocycle,
    eps x^2 on (x, x^2) over Q[x]/x^3."""
    t3, ring = build_truncated_polynomial_algebra(3), dual_numbers()
    x = MCElement(ring, Cochain(t3, {2: {(1, 2): {2: ring.gen(1)}}}, 1, 6))
    assert not mc_residual(t3, x).is_zero()
    assert _typed(_residual(t3, x)) == _typed(bracket_mc_residual(t3, x))


# -- the one brace ------------------------------------------------------------------


def _outcome(f, *args):
    """f(*args) as a typed cochain, or the message of its ArityBoundExceeded."""
    try:
        return _typed(f(*args))
    except ArityBoundExceeded as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_brace_and_bracket_match_the_per_triple_loop(data):
    """brace_compose and gerstenhaber_bracket, built on the one brace that
    indexes q's words by output letter, give the values and coefficient
    types of the per-triple loop of conftest and of two such braces joined
    by Cochain.add, and raise past the arity bound alike.  The cochains are
    int-, Fraction- or ring-valued on a random builder algebra; each
    bracket's terms are of one kind, since the type of an integral sum of
    ints and Fractions depends on where its partial sums cancel.  The
    structure cochain b and b + x enter as a factor, unnormalized."""
    alg = data.draw(degree0_algebras())
    kind = data.draw(st.sampled_from(["int", "fraction", "ring"]))
    ring = data.draw(st.sampled_from(RINGS))
    rng = random.Random(data.draw(st.integers(0, 10**6)))

    def value():
        if kind == "ring":
            return _in_m(ring, rng)
        return Fraction(rng.choice([1, -1, 3]), rng.choice([1, 2])) if kind == "fraction" \
            else rng.choice([1, -1, 2])

    def cochain(arity):
        keys = CochainBasis(alg, arity).keys
        comps = {arity: {}}
        for w, t in rng.sample(keys, min(data.draw(st.integers(1, 4)), len(keys))):
            comps[arity].setdefault(w, {})[t] = value()
        return Cochain(alg, comps, arity - 1, data.draw(st.sampled_from([None, 0, 3, 6])))

    b = structure_as_cochain(alg)
    p, q, x = cochain(data.draw(st.integers(0, 3))), cochain(data.draw(st.integers(0, 3))), \
        cochain(2)
    one_kind = kind != "int" or all(
        type(c) is int for comp in b.components.values() for out in comp.values()
        for c in out.values())
    pairs = [(p, q, True), (q, p, True), (b, p, one_kind), (p, b, one_kind),
             (b.add(x), b.add(x), False), (b, b, False)]
    for f, g, bracket in pairs:
        bound = data.draw(st.sampled_from([None, 0, 2, 4, 8]))
        assert _outcome(brace_compose, f, g, bound) == _outcome(reference_brace, f, g, bound)
        if bracket:
            assert _outcome(gerstenhaber_bracket, f, g, bound) == \
                _outcome(reference_bracket, f, g, bound)


# -- the arity bound --------------------------------------------------------------


def test_brace_and_cup_raise_past_their_bound():
    """p o q has arity l + v - 1 and p cup q arity l + v: each raises
    ArityBoundExceeded when that passes the bound, whether given or carried."""
    t3 = build_truncated_polynomial_algebra(3)
    p, q = [c for c in basis_cochains(t3, 2) if c.arities() == [2]][:2]
    assert brace_compose(p, q, 3).arities() in ([], [3])
    with pytest.raises(ArityBoundExceeded):
        brace_compose(p, q, 2)
    with pytest.raises(ArityBoundExceeded):
        brace_compose(p, q)  # the bound 2 basis_cochains gave them
    assert cup_product(t3, p, q, 4).arities() in ([], [4])
    with pytest.raises(ArityBoundExceeded):
        cup_product(t3, p, q, 3)
    with pytest.raises(ArityBoundExceeded):
        cup_product(t3, p, q)


def test_an_explicit_zero_bound_is_a_bound():
    """An arity bound of 0 counts as set, given or carried.  [b, P] and
    b o P of an arity-0 P at bound 0 reach arity 1 and raise, whatever
    bound b carries; both braces of the bracket check the bound it carries;
    cup_product and Cochain.add keep a 0, and cochain_differential reads
    the 0 its argument carries."""
    t2 = build_truncated_polynomial_algebra(2)
    x = basis_cochains(t2, 0)[1]  # the arity-0 cochain x, carrying bound 0
    assert (x.arities(), x.arity_bound) == ([0], 0)
    for b in (structure_as_cochain(t2, 0), structure_as_cochain(t2, 1),
              structure_as_cochain(t2)):
        for op in (gerstenhaber_bracket, brace_compose):
            with pytest.raises(ArityBoundExceeded, match="arity 1 exceeds bound 0"):
                op(b, x, 0)
        assert gerstenhaber_bracket(b, x, 1).arity_bound == 1
    with pytest.raises(ArityBoundExceeded, match="arity 1 exceeds bound 0"):
        gerstenhaber_bracket(x, structure_as_cochain(t2, 1))
    with pytest.raises(ArityBoundExceeded, match="arity 1 exceeds bound 0"):
        cochain_differential(t2, x)
    assert cochain_differential(t2, x, 1).arity_bound == 1
    wide = x.map_coefficients(lambda c: 2 * c)
    wide.arity_bound = 5
    assert cup_product(t2, wide, wide, 0).arity_bound == 0
    assert x.add(wide).arity_bound == 0
    assert wide.add(x).arity_bound == 5
