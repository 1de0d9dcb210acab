from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import degree0_algebras, rebased, unit_first_bases
from ncperiod.algebra import (
    CyclicQuiver,
    DgAlgebra,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_path_algebra,
    build_truncated_polynomial_algebra,
    _certify_radical,
    change_basis,
    kronecker_algebra,
    radical,
    validate_dg_algebra,
)
from ncperiod.exactlin import IncrementalSpan


def test_field():
    a = build_field()
    assert a.dim == 1
    assert validate_dg_algebra(a) == []


def test_single_vertex_path_algebra_is_field():
    a = build_path_algebra(["v"], [])
    assert a.dim == 1
    m1 = build_matrix_algebra(1)
    assert a.dim == m1.dim and a.mult == m1.mult


def test_a2_three_dimensional():
    a = a2_quiver_algebra()
    assert a.dim == 3  # e_1 + e_2, one spare idempotent, one arrow
    assert validate_dg_algebra(a) == []


def test_kronecker_four_dimensional():
    a = kronecker_algebra()
    assert a.dim == 4
    assert validate_dg_algebra(a) == []


def test_cyclic_quiver_rejected():
    with pytest.raises(CyclicQuiver):
        build_path_algebra([1, 2], [("f", 1, 2), ("g", 2, 1)])


def test_trunc_poly():
    d = build_truncated_polynomial_algebra(2)
    assert d.dim == 2
    assert validate_dg_algebra(d) == []
    t3 = build_truncated_polynomial_algebra(3)
    # x * x^2 = 0
    assert t3.product(1, 2) == {}
    assert validate_dg_algebra(t3) == []


def test_matrix_algebra_m2():
    m2 = build_matrix_algebra(2)
    assert m2.dim == 4
    assert validate_dg_algebra(m2) == []
    lab = {l: i for i, l in enumerate(m2.labels)}
    e11, e12, e21 = lab["E11"], lab["E12"], lab["E21"]
    # E11 E12 = E12, E12 E11 = 0
    assert m2.product(e11, e12) == {e12: Fraction(1)}
    assert m2.product(e12, e11) == {}
    # E21 E12 = E22 = 1 - E11
    assert m2.product(e21, e12) == {0: Fraction(1), e11: Fraction(-1)}
    # unit is basis[0] by construction (re-based from E11+E22)
    assert m2.labels[0] == "1"


def test_m1_is_field():
    assert build_matrix_algebra(1).dim == 1


def test_validator_catches_bad_tables():
    # non-associative product on a 2-dim table
    bad = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
        (1, 1): {0: 1},  # x^2 = 1 is fine associatively; change below
    }
    a = DgAlgebra(["1", "x"], [0, 0], bad, validate=False)
    assert validate_dg_algebra(a) == []  # x^2 = 1 is associative (Q[x]/(x^2-1))
    bad2 = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
        (1, 1): {1: 1},
    }
    b = DgAlgebra(["1", "x"], [0, 0], bad2, validate=False)
    assert validate_dg_algebra(b) == []  # idempotent, still associative
    # now break associativity on a 3-dim table: x*x = y, x*y = 1, y*x = 0
    bad3 = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
        (0, 2): {2: 1}, (2, 0): {2: 1},
        (1, 1): {2: 1}, (1, 2): {0: 1},
    }
    c = DgAlgebra(["1", "x", "y"], [0, 0, 0], bad3, validate=False)
    rep = validate_dg_algebra(c)
    assert any(v.axiom == "associativity" for v in rep)
    assert all(isinstance(v.witness, tuple) for v in rep)


def test_validator_catches_leibniz_violation():
    # d(x) = y with degrees 0, 1 but d not a derivation: d(x^2) = d(1) = 0
    # while d(x)x + x d(x) = yx + xy = 2y != 0.
    mult = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
        (0, 2): {2: 1}, (2, 0): {2: 1},
        (1, 1): {0: 1},
        (1, 2): {2: 1}, (2, 1): {2: 1},
    }
    a = DgAlgebra(["1", "x", "y"], [0, 0, 1], mult, diff={1: {2: 1}}, validate=False)
    rep = validate_dg_algebra(a)
    assert any(v.axiom == "leibniz" for v in rep)


def test_builders_all_validate():
    for a in (build_field(), build_truncated_polynomial_algebra(2),
              build_truncated_polynomial_algebra(3), a2_quiver_algebra(),
              kronecker_algebra(), build_matrix_algebra(2), build_matrix_algebra(3)):
        assert validate_dg_algebra(a) == []


def test_graded_algebra_with_differential_validates():
    # exterior algebra on one degree-1 generator, zero differential —
    # small graded smoke input for the chain-level operations.
    ext = DgAlgebra(["1", "t"], [0, 1],
                    {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                    name="ext1")
    assert validate_dg_algebra(ext) == []


def _all_builders():
    return [
        build_field(),
        build_truncated_polynomial_algebra(4),
        build_matrix_algebra(1),
        build_matrix_algebra(3),
        a2_quiver_algebra(),
        kronecker_algebra(),
        build_path_algebra([1, 2, 3], [("f", 1, 2), ("g", 2, 3)]),
    ]


def test_builder_structure_constants_are_ints():
    # an integral structure constant is stored as an int, never a Fraction
    for alg in _all_builders():
        values = [v for col in alg.mult.values() for v in col.values()]
        assert values and all(type(v) is int for v in values), alg.name


def test_constructor_normalizes_integral_fractions():
    a = DgAlgebra(["1", "x"], [0, 0],
                  {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(2, 2)},
                   (1, 0): {1: "1"}})
    assert all(type(v) is int for col in a.mult.values() for v in col.values())
    b = DgAlgebra(["1", "x", "y"], [0, 0, 1],
                  {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                   (0, 2): {2: 1}, (2, 0): {2: 1}},
                  diff={1: {2: Fraction(1, 2)}})
    assert b.diff == {1: {2: Fraction(1, 2)}}


def test_float_structure_constants_rejected():
    with pytest.raises(TypeError):
        DgAlgebra(["1"], [0], {(0, 0): {0: 1.0}})
    with pytest.raises(TypeError):
        DgAlgebra(["1", "x", "y"], [0, 0, 1],
                  {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                   (0, 2): {2: 1}, (2, 0): {2: 1}},
                  diff={1: {2: 0.5}}, validate=False)


# -- the one change of basis ------------------------------------------------------


def _typed(table):
    return {key: {k: (v, type(v)) for k, v in col.items()} for key, col in table.items()}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_change_basis_matches_gauss_jordan_reference(data):
    """change_basis against conftest.rebased, which inverts the basis matrix
    by Gauss-Jordan: the same product table, values and types; and its
    coordinate map sends each new basis vector to its unit vector."""
    alg = data.draw(degree0_algebras())
    rows = data.draw(unit_first_bases(alg.dim))
    vecs = [{j: v for j, v in enumerate(row) if v} for row in rows]
    (mult, diff), coords = change_basis(alg.mult, alg.diff, vecs)
    assert _typed(mult) == _typed(rebased(alg, rows).mult) and diff == {}
    assert [coords(v) for v in vecs] == [{i: 1} for i in range(alg.dim)]


def test_change_basis_carries_the_differential():
    """x, t with |t| = 1, d(x) = t and x x = x t = t t = 0, in the basis
    1, x + 1, 2t: d(x + 1) = (1/2)(2t) and (x + 1)(x + 1) = 2(x + 1) - 1."""
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
            (0, 2): {2: 1}, (2, 0): {2: 1}}
    (new_mult, new_diff), coords = change_basis(mult, {1: {2: 1}},
                                                [{0: 1}, {0: 1, 1: 1}, {2: 2}])
    assert new_diff == {1: {2: Fraction(1, 2)}}
    assert new_mult[1, 1] == {0: -1, 1: 2}
    assert coords({1: 1, 2: 1}) == {0: -1, 1: 1, 2: Fraction(1, 2)}
    assert validate_dg_algebra(DgAlgebra(["1", "y", "s"], [0, 0, 1], new_mult,
                                         new_diff, validate=False)) == []


def test_change_basis_rejects_a_dependent_set():
    alg = build_truncated_polynomial_algebra(2)
    with pytest.raises(ValueError, match="no basis"):
        change_basis(alg.mult, alg.diff, [{0: 1}, {0: 2}])


def test_builder_and_peirce_tables_are_pinned():
    """M2 and path:a3 (1 -f1-> 2 -f2-> 3), written out: the builders' tables
    after re-basing onto 1 = sum of the e_v, their idempotents, and the
    product table of peirce()."""
    m2 = build_matrix_algebra(2)
    assert m2.labels == ["1", "E11", "E12", "E21"]
    assert _typed(m2.mult) == _typed({
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (1, 1): {1: 1}, (1, 2): {2: 1}, (2, 0): {2: 1},
        (2, 3): {1: 1}, (3, 0): {3: 1}, (3, 1): {3: 1}, (3, 2): {0: 1, 1: -1}})
    assert m2.idempotents == {"E11": {1: 1}, "E22": {0: 1, 1: -1}}
    assert _typed(m2.peirce().mult) == _typed({
        (0, 0): {0: 1}, (0, 2): {2: 1}, (1, 1): {1: 1}, (1, 3): {3: 1},
        (2, 1): {2: 1}, (2, 3): {0: 1}, (3, 0): {3: 1}, (3, 2): {1: 1}})
    a3 = build_path_algebra([1, 2, 3], [("f1", 1, 2), ("f2", 2, 3)], name="path:a3")
    assert a3.labels == ["1", "e_2", "e_3", "f1", "f2", "f1*f2"]
    assert _typed(a3.mult) == _typed({
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (0, 4): {4: 1}, (0, 5): {5: 1}, (1, 0): {1: 1}, (1, 1): {1: 1},
        (1, 3): {3: 1}, (2, 0): {2: 1}, (2, 2): {2: 1}, (2, 4): {4: 1},
        (2, 5): {5: 1}, (3, 0): {3: 1}, (4, 0): {4: 1}, (4, 1): {4: 1},
        (4, 3): {5: 1}, (5, 0): {5: 1}})
    assert a3.idempotents == {"e_1": {0: 1, 1: -1, 2: -1}, "e_2": {1: 1}, "e_3": {2: 1}}
    peirce = a3.peirce()
    assert peirce.labels == ["e_1", "e_2", "e_3", "f1", "f2", "f1*f2"]
    assert _typed(peirce.mult) == _typed({
        (0, 0): {0: 1}, (1, 1): {1: 1}, (1, 3): {3: 1}, (2, 2): {2: 1},
        (2, 4): {4: 1}, (2, 5): {5: 1}, (3, 0): {3: 1}, (4, 1): {4: 1},
        (4, 3): {5: 1}, (5, 0): {5: 1}})
    assert peirce.ends == [(0, 0), (1, 1), (2, 2), (1, 0), (2, 1), (2, 0)]


# -- the radical ---------------------------------------------------------------------


@pytest.mark.parametrize("build, dim_j, h", [
    (build_field, 0, 1),
    (lambda: build_truncated_polynomial_algebra(4), 3, 1),
    (lambda: build_matrix_algebra(2), 0, 1),
    (lambda: build_matrix_algebra(2).peirce(), 0, 1),
    (a2_quiver_algebra, 1, 2),
    (kronecker_algebra, 2, 2),
    (lambda: build_path_algebra([1, 2, 3], [("f", 1, 2), ("g", 2, 3)]), 3, 3),
], ids=["Q", "T4", "M2", "M2-peirce", "A2", "kron", "path:a3"])
def test_radical_of_builder_algebras(build, dim_j, h):
    """J is spanned by x, .., x^{N-1} in Q[x]/x^N and by the paths of length
    >= 1 of a quiver, M2 is simple; h counts the simple factors of A/J."""
    jac, got_h = radical(build())
    assert (len(jac), got_h) == (dim_j, h)


def test_radical_of_a_quiver_is_its_paths():
    alg = a2_quiver_algebra()
    jac, _ = radical(alg)
    span = IncrementalSpan()
    for v in jac:
        span.add(v)
    assert span.contains({alg.labels.index("f"): 1})


@pytest.mark.parametrize("build, jac, check", [
    (lambda: build_matrix_algebra(2), [{2: 1}], "no two-sided ideal"),
    (lambda: build_path_algebra([1, 2], []), [{1: 1}], "not nilpotent"),
    (lambda: build_truncated_polynomial_algebra(3), [{2: 1}], "not semisimple"),
    (lambda: build_truncated_polynomial_algebra(2), [], "not semisimple"),
], ids=["E12-in-M2", "e2-in-QxQ", "x^2-in-T3", "zero-in-T2"])
def test_radical_certificate_rejects_a_wrong_radical(build, jac, check):
    with pytest.raises(RuntimeError, match=check):
        _certify_radical(build(), jac)

