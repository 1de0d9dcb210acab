import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncperiod.coeff import (
    ArtinLocalRing,
    NotArtinLocal,
    RingElement,
    build_truncated_poly,
    dual_numbers,
    fiber_product,
    reduction_to_q,
    truncation_map,
)


def test_dual_numbers():
    r = build_truncated_poly(1, 2)
    assert r.basis_labels == ["1", "eps"]
    eps = r.gen("eps")
    assert not eps * eps
    assert r.nilpotency_order == 2


def test_eps_cubed():
    r = build_truncated_poly(1, 3)
    assert r.basis_labels == ["1", "eps", "eps^2"]
    eps = r.gen("eps")
    assert eps * eps == r.gen("eps^2")
    assert not eps * eps * eps
    assert r.nilpotency_order == 3


def test_two_vars_square_zero():
    r = build_truncated_poly(2, 2)
    assert r.basis_labels == ["1", "eps1", "eps2"]
    for a in ("eps1", "eps2"):
        for b in ("eps1", "eps2"):
            assert not r.gen(a) * r.gen(b)


def test_filtration_dual():
    r = dual_numbers()
    assert r.m_adic_filtration() == [frozenset({1}), frozenset()]


def test_filtration_eps3():
    r = build_truncated_poly(1, 3)
    assert r.m_adic_filtration() == [frozenset({1, 2}), frozenset({2}), frozenset()]


def test_filtration_two_vars():
    r = build_truncated_poly(2, 2)
    assert r.m_adic_filtration() == [frozenset({1, 2}), frozenset()]


def test_nilpotency_boundary():
    # m^(order) = 0 and m^(order-1) != 0 for every built ring
    for nv, order in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]:
        r = build_truncated_poly(nv, order)
        assert r.nilpotency_order == order
        chain = r.m_adic_filtration()
        assert len(chain) == order  # m, m^2, ..., m^{order-1}, empty
        assert chain[-1] == frozenset()
        assert chain[-2] != frozenset()


def test_reduction_is_ring_hom():
    r = build_truncated_poly(1, 3)
    red = reduction_to_q(r)
    a = r.element([Fraction(2), Fraction(1), Fraction(5)])
    b = r.element([Fraction(-1), Fraction(3), Fraction(0)])
    assert red(a * b) == red(a) * red(b)
    assert red(a + b) == red(a) + red(b)
    assert red(r.one()) == 1


def test_invalid_tables_rejected():
    # non-commutative table
    with pytest.raises(NotArtinLocal):
        ArtinLocalRing(
            ["1", "a", "b"],
            {
                (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                (0, 2): {2: 1}, (2, 0): {2: 1},
                (1, 2): {2: 1},  # a*b = b but b*a = 0: not commutative
            },
        )
    # non-nilpotent "maximal ideal" (a is idempotent)
    with pytest.raises(NotArtinLocal):
        ArtinLocalRing(
            ["1", "a"],
            {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}},
        )


def test_fiber_product_dual_dual():
    d = dual_numbers()
    r = fiber_product(d, d)
    assert r.dim == 3
    assert r.nilpotency_order == 2
    a = r.gen(1)
    b = r.gen(2)
    assert not a * b and not a * a and not b * b


def test_truncation_map():
    r = build_truncated_poly(1, 4)
    quo, apply = truncation_map(r, 3)
    assert quo.basis_labels == ["1", "eps", "eps^2"]
    x = r.element([0, 1, 0, 5])
    y = apply(x)
    assert y.coeffs == (0, 1, 0)
    assert apply(x * x) == y * y


# -- the int rule: int when integral, Fraction only with a denominator ------------

T23 = build_truncated_poly(2, 3)
_scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
_elements = st.lists(_scalars, min_size=T23.dim, max_size=T23.dim)


def _ref_mul(a, b):
    """The ring product in plain Fraction arithmetic, from the table."""
    out = [Fraction(0)] * T23.dim
    for i, j in itertools.product(range(T23.dim), repeat=2):
        for k, v in T23.table.get((i, j), {}).items():
            out[k] += Fraction(a[i]) * Fraction(b[j]) * Fraction(v)
    return out


def _follows_int_rule(x):
    return all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction)
        for c in x.coeffs
    )


@settings(max_examples=200, deadline=None)
@given(_elements, _elements, _scalars, st.integers(1, 5).map(lambda n: n * (-1) ** n))
def test_ring_arithmetic_matches_fraction_reference(a, b, s, n):
    x, y = T23.element(a), T23.element(b)
    fa, fb = [Fraction(c) for c in a], [Fraction(c) for c in b]
    cases = [
        (x + y, [p + q for p, q in zip(fa, fb)]),
        (x - y, [p - q for p, q in zip(fa, fb)]),
        (-x, [-p for p in fa]),
        (x * y, _ref_mul(fa, fb)),
        (x * s, [p * s for p in fa]),
        (s * x, [p * s for p in fa]),
        (x / n, [p / n for p in fa]),
        (x / s if s else x, [p / s for p in fa] if s else fa),
    ]
    for got, ref in cases:
        assert list(got.coeffs) == ref
        assert _follows_int_rule(got), got.coeffs


def test_ring_tables_and_slots_are_ints():
    for r in (dual_numbers(), T23, fiber_product(dual_numbers(), T23)):
        assert all(type(v) is int for col in r.table.values() for v in col.values())
    x = T23.element([Fraction(4, 2), "3/3", 1, 0, 0, Fraction(1, 2)])
    assert [type(c) for c in x.coeffs] == [int] * 5 + [Fraction]
    assert type((x / 2).coeffs[0]) is int and type((x / 4).coeffs[0]) is Fraction


def test_floats_rejected_by_ring_and_elements():
    with pytest.raises(TypeError):
        ArtinLocalRing(["1", "e"], {(0, 0): {0: 1}, (0, 1): {1: 1.0},
                                    (1, 0): {1: 1}})
    with pytest.raises(TypeError):
        RingElement(T23, [0.1] + [0] * (T23.dim - 1))
    with pytest.raises(TypeError):
        T23.element([1, 0, 0, 0, 0, 0.5])
    with pytest.raises(TypeError):
        T23.one() / 0.5
    with pytest.raises(TypeError):
        T23.one() * 0.5
