"""HH on the complex relative to the vertex idempotents, against the flat
complex and the closed-form oracles.

An algebra that carries idempotents (M_n, path algebras, M_n(A) from
`conftest.matrices_over`) runs `hochschild_homology` on the complex
A (x)_{E^e} (A/E)^{(x)_E n}; `flat_hochschild_homology` runs the normalized
complex over the whole basis.  Both compute HH, so their dims agree on every
degree both reach.
"""

import pytest
from hypothesis import given, settings

from conftest import acyclic_quivers, greedy_homology_reps, matrices_over
from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_path_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
)
from ncperiod.cli import resolve_algebra
from ncperiod.hochschild import (
    flat_hochschild_homology,
    hochschild_homology,
    relative_chain_spaces,
)

# (algebra, top degree reached by both routes)
AGREE = [
    (lambda: build_matrix_algebra(2), 6),
    (lambda: build_matrix_algebra(3), 3),
    (a2_quiver_algebra, 6),
    (kronecker_algebra, 6),
    (lambda: resolve_algebra("path:a4"), 2),
    (lambda: build_path_algebra([1, 2], []), 6),
    (lambda: matrices_over(build_truncated_polynomial_algebra(2), 2), 2),
    (lambda: matrices_over(a2_quiver_algebra(), 2), 1),
]
AGREE_IDS = ["M2", "M3", "A2", "kron", "path:a4", "QxQ", "M2(T2)", "M2(A2)"]


@pytest.mark.parametrize("build, top", AGREE, ids=AGREE_IDS)
def test_relative_and_flat_models_agree(build, top):
    alg = build()
    rel = hochschild_homology(alg, range(top + 1))
    flat = flat_hochschild_homology(alg, range(top + 1))
    assert rel.as_tuple(range(top + 1)) == flat.as_tuple(range(top + 1))
    assert rel.chain_model == {"kind": "relative", "idempotents": len(alg.idempotents)}
    assert flat.chain_model == {"kind": "flat"}


@settings(max_examples=15, deadline=None)
@given(acyclic_quivers())
def test_relative_and_flat_models_agree_on_acyclic_quivers(alg):
    """HH_0 = k^#vertices and nothing above, by both routes; the relative
    complex has no chain above weight 0."""
    oracle = (len(alg.idempotents), 0)
    assert hochschild_homology(alg, range(2)).as_tuple(range(2)) == oracle
    assert flat_hochschild_homology(alg, range(2)).as_tuple(range(2)) == oracle
    assert not any(relative_chain_spaces(alg.peirce(), 4)[1:])


@pytest.mark.parametrize("build, top, oracle", [
    (lambda: build_matrix_algebra(1), 6, (1, 0, 0, 0, 0, 0, 0)),
    (lambda: build_matrix_algebra(2), 6, (1, 0, 0, 0, 0, 0, 0)),
    (lambda: build_matrix_algebra(3), 6, (1, 0, 0, 0, 0, 0, 0)),
    (lambda: resolve_algebra("path:a3"), 6, (3, 0, 0, 0, 0, 0, 0)),
    (lambda: matrices_over(build_truncated_polynomial_algebra(2), 2), 6,
     (2, 1, 1, 1, 1, 1, 1)),
], ids=["M1", "M2", "M3", "path:a3", "M2(T2)"])
def test_relative_homology_oracles(build, top, oracle):
    """Morita invariance HH(M_n(A)) = HH(A) (Loday 1.2.4) with HH(Q[x]/x^2)
    = (2, 1, 1, ...); an acyclic quiver has HH = k^#vertices in degree 0."""
    assert hochschild_homology(build(), range(top + 1)).as_tuple(range(top + 1)) == oracle


def test_relative_chain_counts():
    """M2 has 2 relative chains per weight, M3 has 3 . 2^n at weight n, and
    the keys are walks over the Peirce basis: a0 closes each word."""
    assert [len(s) for s in relative_chain_spaces(build_matrix_algebra(2).peirce(), 6)] \
        == [2] * 7
    peirce = build_matrix_algebra(3).peirce()
    spaces = relative_chain_spaces(peirce, 6)
    assert [len(s) for s in spaces] == [3 * 2 ** n for n in range(7)]
    for space in spaces:
        assert list(space.values()) == list(range(len(space)))
        for a0, word in space:
            walk = (a0,) + word
            assert all(peirce.ends[u][1] == peirce.ends[v][0]
                       for u, v in zip(walk, walk[1:] + walk[:1]))
            assert not peirce.ground & set(word)


def test_peirce_basis_of_the_builders():
    m2 = build_matrix_algebra(2).peirce()
    assert m2.labels == ["E11", "E22", "E12", "E21"]
    assert m2.ends == [(0, 0), (1, 1), (0, 1), (1, 0)]
    assert m2.product(2, 3) == {0: 1} and m2.product(3, 2) == {1: 1}
    kron = kronecker_algebra().peirce()
    assert kron.labels == ["e_1", "e_2", "f", "g"]
    assert kron.ends == [(0, 0), (1, 1), (1, 0), (1, 0)]
    assert build_field().idempotents is None


def test_idempotents_are_validated():
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}}
    DgAlgebra(["1", "e"], [0, 0], mult, idempotents={"e": {1: 1}, "f": {0: 1, 1: -1}})
    with pytest.raises(ValueError, match="idempotents"):
        DgAlgebra(["1", "e"], [0, 0], mult, idempotents={"e": {1: 1}})
    with pytest.raises(ValueError, match="idempotents"):
        DgAlgebra(["1", "e"], [0, 0], mult, idempotents={"e": {1: 1}, "f": {0: 1}})


def test_basis_not_adapted_to_the_idempotents_is_rejected():
    """Q x Q in the basis 1, b = e_1 + 2 e_2 (so b b = 3 b - 2) is a valid
    algebra with valid idempotents, but b lies in no single e_x A e_y."""
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -2, 1: 3}}
    alg = DgAlgebra(["1", "b"], [0, 0], mult,
                    idempotents={"e_1": {0: 2, 1: -1}, "e_2": {0: -1, 1: 1}})
    with pytest.raises(ValueError, match="Peirce"):
        alg.peirce()


@pytest.mark.parametrize("build, top", [
    (lambda: build_matrix_algebra(2), 6),
    (lambda: build_matrix_algebra(3), 4),
    (lambda: matrices_over(build_truncated_polynomial_algebra(2), 2), 5),
    (lambda: matrices_over(build_truncated_polynomial_algebra(3), 2), 3),
], ids=["M2", "M3", "M2(T2)", "M2(T3)"])
def test_relative_homology_reps_match_greedy_oracle(build, top):
    for sub in hochschild_homology(build(), range(top + 1)).spots.values():
        want = greedy_homology_reps(sub.boundary_basis, sub.cycle_basis)
        assert sub.homology_reps == want
        assert [[type(v) for v in r.values()] for r in sub.homology_reps] == \
            [[type(v) for v in r.values()] for r in want]
