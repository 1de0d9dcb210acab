"""HH and HH^* on the complexes relative to the vertex idempotents, against
the flat complexes and the closed-form oracles.

An algebra that carries idempotents (M_n, path algebras, M_n(A) from
`conftest.matrices_over`) runs `hochschild_homology` on the complex
A (x)_{E^e} (A/E)^{(x)_E n}; `flat_hochschild_homology` runs the normalized
complex over the whole basis.  Both compute HH, so their dims agree on every
degree both reach.  The cyclic operations run on the relative mixed complex
(d and B) of such an algebra; the same tables without idempotents take the
flat route, and at equal bars the two give the same reports.  Both models
go through the same chain_spaces, boundary_matrices and connes_matrices: a
PeirceBasis is the relative model, a DgAlgebra the flat one.  HH^* is routed
the same way: its relative cochains are the pairs (w, t) of a walk w from
e_x to e_y and a t in e_x A e_y, the CochainBasis of the Peirce basis.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings

from conftest import acyclic_quivers, greedy_homology_reps, matrices_over
from test_cli import run_cli
from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_path_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
)
from ncperiod import hochschild
from ncperiod.cli import resolve_algebra
from ncperiod.cyclic import (
    cyclic_homology,
    hodge_spectral_sequence,
    negative_cyclic_homology,
    periodic_cyclic_homology,
    sbi_exactness,
)
from ncperiod.exactlin import express_in_homology, from_columns, rank
from ncperiod.hochschild import (
    CochainBasis,
    boundary_matrices,
    chain_spaces,
    cochain_differential,
    cocycle_representatives,
    connes_matrices,
    flat_hochschild_homology,
    hochschild_cohomology,
    hochschild_homology,
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


def _without_idempotents(alg):
    """The same tables with no idempotents attached: the flat route."""
    return DgAlgebra(alg.labels, alg.degrees, alg.mult, alg.diff, name=alg.name)


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
    assert not any(chain_spaces(alg.peirce(), 4)[1:])


@pytest.mark.parametrize("build, top, oracle", [
    (lambda: build_matrix_algebra(2), 4, (1, 0, 0, 0, 0)),
    (lambda: build_matrix_algebra(3), 2, (1, 0, 0)),
    (a2_quiver_algebra, 3, (1, 0, 0, 0)),
    (lambda: resolve_algebra("path:a4"), 3, (1, 0, 0, 0)),
    (kronecker_algebra, 3, (1, 3, 0, 0)),
], ids=["M2", "M3", "A2", "path:a4", "kron"])
def test_relative_and_flat_cohomology_agree(build, top, oracle):
    """HH^* on the relative cochains and on the flat ones agree, with the
    chain model recorded: Morita invariance HH^*(M_n) = HH^*(Q); a path
    algebra is hereditary, so HH^n = 0 for n >= 2, and HH^1 of the
    Kronecker quiver is 3 (Happel 1989)."""
    rel = hochschild_cohomology(build(), range(top + 1))
    flat = hochschild_cohomology(_without_idempotents(build()), range(top + 1))
    assert rel.as_tuple(range(top + 1)) == flat.as_tuple(range(top + 1)) == oracle
    assert rel.chain_model == {"kind": "relative", "idempotents": len(build().idempotents)}
    assert flat.chain_model == {"kind": "flat"}
    assert rel.basis_keys[top] == CochainBasis(build().peirce(), top).keys


@settings(max_examples=12, deadline=None)
@given(acyclic_quivers())
def test_relative_and_flat_cohomology_agree_on_acyclic_quivers(alg):
    """Both routes give HH^2 = 0 (hereditary) and Happel's (1989) HH^1 =
    HH^0 - #vertices + sum over the arrows of the paths parallel to each,
    HH^0 being one class per connected component."""
    rel = hochschild_cohomology(alg, range(3))
    flat = hochschild_cohomology(_without_idempotents(alg), range(3))
    assert rel.as_tuple(range(3)) == flat.as_tuple(range(3))
    peirce = alg.peirce()
    arrows = [i for i, lab in enumerate(peirce.labels)
              if i not in peirce.ground and "*" not in lab]
    parallel = sum(peirce.ends.count(peirce.ends[a]) for a in arrows)
    assert rel.dims[1] == rel.dims[0] - len(peirce.ground) + parallel
    assert rel.dims[2] == 0
    assert rel.chain_model == {"kind": "relative", "idempotents": len(alg.idempotents)}
    assert flat.chain_model == {"kind": "flat"}


@pytest.mark.parametrize("build, n", [
    (kronecker_algebra, 1), (lambda: build_matrix_algebra(2), 0), (a2_quiver_algebra, 0),
], ids=["kron-1", "M2-0", "A2-0"])
def test_cocycle_representatives_stay_flat(build, n):
    """cocycle_representatives reads the flat model whatever chain_model_of
    picks, since the deformation, period and calculus layers act with flat
    cochains: one flat cocycle of the algebra itself per class of HH^n, the
    classes independent."""
    alg = build()
    reps = cocycle_representatives(alg, n)
    assert len(reps) == hochschild_cohomology(alg, [n]).dims[n]
    spot, cb = hochschild._cohomology_spot(alg, n), CochainBasis(alg, n)
    classes = []
    for rep in reps:
        assert rep.algebra is alg
        assert cochain_differential(alg, rep).is_zero()
        classes.append(express_in_homology(spot, cb.coordinates(rep)))
    assert rank(from_columns(len(reps), classes)) == len(reps)


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
    assert [len(s) for s in chain_spaces(build_matrix_algebra(2).peirce(), 6)] \
        == [2] * 7
    peirce = build_matrix_algebra(3).peirce()
    spaces = chain_spaces(peirce, 6)
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


# -- the relative mixed complex ------------------------------------------------------

# per AGREE algebra, a bar at which the flat route runs in well under a second
CYCLIC_BARS = {"M2": 6, "M3": 2, "A2": 6, "kron": 4, "path:a4": 2, "QxQ": 6,
               "M2(T2)": 3, "M2(A2)": 2}


def _cyclic_reports(alg, bar):
    window, degrees = (-2, 2), range(0, 3)
    ss = dataclasses.asdict(hodge_spectral_sequence(alg, window, (0, 1), bar))
    hn = negative_cyclic_homology(alg, degrees, window)
    hc = cyclic_homology(alg, degrees, window)
    assert hn.chain_model == hc.chain_model == ss.pop("chain_model")
    return (hn.dims, hc.dims, periodic_cyclic_homology(alg, window),
            sbi_exactness(alg, range(0, 2), window), ss), hn.chain_model


@pytest.mark.parametrize("build, bar", [(build, CYCLIC_BARS[name]) for (build, _), name
                                        in zip(AGREE, AGREE_IDS)], ids=AGREE_IDS)
def test_relative_and_flat_mixed_complexes_agree(build, bar):
    """HN, HC, HP, SBI exactness and every field of the spectral sequence
    report agree between the relative and the flat mixed complex."""
    rel, rel_model = _cyclic_reports(build(), bar)
    flat, flat_model = _cyclic_reports(_without_idempotents(build()), bar)
    assert rel == flat
    assert rel_model == {"kind": "relative", "idempotents": len(build().idempotents)}
    assert flat_model == {"kind": "flat"}


@pytest.mark.parametrize("build", [build for build, _ in AGREE], ids=AGREE_IDS)
def test_relative_mixed_complex_identities(build):
    """On the relative chain spaces, B B = 0 and d B + B d = 0 at every
    weight, and B is not zero where the complex has chains above weight 0."""
    peirce = build().peirce()
    spaces = chain_spaces(peirce, 4)
    d = boundary_matrices(peirce, spaces)
    b = connes_matrices(peirce, spaces)
    for n in range(len(b) - 1):
        assert b[n + 1].compose(b[n]).is_zero(), n
    for n in range(1, len(b)):
        anti = b[n - 1].compose(d[n])
        for key, v in d[n + 1].compose(b[n]).entries.items():
            anti.add_to(*key, v)
        assert anti.is_zero(), n
    assert any(not m.is_zero() for m in b) == any(spaces[1:])


def test_cli_cyclic_matrix_algebra_at_bar_23():
    """Morita: M2 has the cyclic theories of Q, HN = 1 0 0 0 0, HC = 1 0 1 0 1
    and HP = (1, 0).  They are exact, so cyclic takes no --bar; the window
    -6..6 once needed bar 23."""
    argv = ["cyclic", "--algebra", "matrix:2", "--degree-range", "0..4",
            "--t-window=-6..6", "--format", "structured"]
    code, out = run_cli(argv)
    payload = json.loads(out)
    assert code == 0
    assert (payload["hn"], payload["hc"], payload["hp"]) == (
        [1, 0, 0, 0, 0], [1, 0, 1, 0, 1], [1, 0])
    assert payload["sbi_consistent"] is True
    assert payload["chain_model"] == {"kind": "relative", "idempotents": 2}
