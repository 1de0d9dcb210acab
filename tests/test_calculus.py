import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings

from conftest import graded_tables, member, unit_cochain
from ncperiod import calculus, hochschild
from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
)
from ncperiod.calculus import (
    AxiomReport,
    OperatorSpace,
    calculus_defect,
    cup_product,
    verify_lie_dagger,
)
from ncperiod import exactlin
from ncperiod.exactlin import express_in_homology, solve
from ncperiod.hochschild import (
    Cochain,
    basis_cochains,
    boundary_matrices,
    chain_add,
    chain_spaces,
    cochain_differential,
    cocycle_representatives,
    connes_B,
    contraction,
    flat_hochschild_homology,
    gerstenhaber_bracket,
    hochschild_boundary,
    lie_action,
    structure_as_cochain,
)

D = build_truncated_polynomial_algebra(2)
SMALL = [build_field(), D, build_truncated_polynomial_algebra(3), a2_quiver_algebra()]


# -- bracket -----------------------------------------------------------------------


def test_jacobi_on_random_cochains():
    """[[p,q],r] = [p,[q,r]] - (-1)^{sd p sd q}[q,[p,r]] by direct expansion."""
    rng = random.Random(4)
    pool = basis_cochains(D, 2)
    for _ in range(30):
        p, q, r = (rng.choice(pool) for _ in range(3))
        for c in (p, q, r):
            c.arity_bound = 8
        lhs = gerstenhaber_bracket(gerstenhaber_bracket(p, q, 8), r, 8)
        rhs = gerstenhaber_bracket(p, gerstenhaber_bracket(q, r, 8), 8)
        sgn = -1 if (p.sdeg * q.sdeg) % 2 else 1
        rhs = rhs.add(
            gerstenhaber_bracket(q, gerstenhaber_bracket(p, r, 8), 8), scale=-sgn
        )
        assert lhs.add(rhs, scale=-1).is_zero()


def test_bracket_with_unit_cochain_vanishes():
    one = unit_cochain(D, 6)
    for p in basis_cochains(D, 2):
        p.arity_bound = 6
        assert gerstenhaber_bracket(p, one, 6).is_zero()


# -- cup ---------------------------------------------------------------------------


def test_cup_unital_both_sides():
    for alg in SMALL:
        one = unit_cochain(alg, 6)
        for p in basis_cochains(alg, 2):
            p.arity_bound = 6
            left = cup_product(alg, one, p, 6)
            right = cup_product(alg, p, one, 6)
            assert left.add(p, scale=-1).is_zero()
            assert right.add(p, scale=-1).is_zero()


def test_cup_arity0_squares():
    # x cup x = x^2 = 0 in Q[x]/(x^2)
    x = Cochain(D, {0: {(): {1: 1}}}, -1, 4)
    assert cup_product(D, x, x, 4).is_zero()
    # in Q[x]/(x^3): x cup x = x^2
    t3 = build_truncated_polynomial_algebra(3)
    x3 = Cochain(t3, {0: {(): {1: 1}}}, -1, 4)
    got = cup_product(t3, x3, x3, 4)
    assert got.components == {0: {(): {2: 1}}}


def test_cup_associative_chain_level():
    rng = random.Random(11)
    pool = basis_cochains(D, 2)
    for _ in range(25):
        p, q, r = (rng.choice(pool) for _ in range(3))
        lhs = cup_product(D, cup_product(D, p, q, 9), r, 9)
        rhs = cup_product(D, p, cup_product(D, q, r, 9), 9)
        assert lhs.add(rhs, scale=-1).is_zero()


def test_cup_descends_to_commutative_product_on_hh():
    """P cup Q - (-1)^{|P||Q|} Q cup P is a coboundary for cocycle reps of D
    (degrees <= 2)."""
    from ncperiod.calculus import _cochain_is_coboundary
    from ncperiod.hochschild import cocycle_representatives

    classes = []
    for s in range(0, 3):
        classes.extend(cocycle_representatives(D, s, 6))
    for p, q in itertools.product(classes, repeat=2):
        comm = cup_product(D, p, q, 8).add(
            cup_product(D, q, p, 8),
            scale=-(-1 if ((p.sdeg + 1) * (q.sdeg + 1)) % 2 else 1),
        )
        if comm.is_zero():
            continue
        assert cochain_differential(D, comm, 8).is_zero()
        assert _cochain_is_coboundary(D, comm)


def test_cochain_differential_is_cup_derivation():
    """d(P cup Q) = dP cup Q + (-1)^{|P|} P cup dQ at chain level."""
    rng = random.Random(23)
    pool = basis_cochains(D, 2)
    for _ in range(25):
        p, q = rng.choice(pool), rng.choice(pool)
        lhs = cochain_differential(D, cup_product(D, p, q, 8), 8)
        sgn = -1 if (p.sdeg + 1) % 2 else 1
        rhs = cup_product(D, cochain_differential(D, p, 8), q, 8).add(
            cup_product(D, p, cochain_differential(D, q, 8), 8), scale=sgn
        )
        assert lhs.add(rhs, scale=-1).is_zero()


# -- contraction --------------------------------------------------------------------


def test_contraction_unit_is_identity():
    one = unit_cochain(D, 4)
    for key in [(0, ()), (1, (1,)), (0, (1, 1)), (1, (1, 1, 1))]:
        c = {key: 1}
        assert contraction(D, one, c) == c


def test_contraction_cup_composition_rule():
    """I_P I_Q = (-1)^{|P||Q|} I_{Q cup P} exactly on basis chains of D."""
    singles = [c for c in basis_cochains(D, 2)]
    keys = [(a0, tuple([1] * n)) for a0 in range(2) for n in range(5)]
    for p, q in itertools.product(singles, repeat=2):
        cup = cup_product(D, q, p, 6)
        sgn = -1 if ((p.sdeg + 1) * (q.sdeg + 1)) % 2 else 1
        for key in keys:
            c = {key: 1}
            lhs = contraction(D, p, contraction(D, q, c))
            rhs = {k: sgn * v for k, v in contraction(D, cup, c).items()}
            assert lhs == rhs, (p, q, key)


def test_contraction_commutator_vanishes_on_homology():
    """[I_P, I_Q] acts by zero on HH_* classes (strict-commutativity form)."""
    hh = flat_hochschild_homology(D, range(0, 4))
    classes = []
    for s in range(0, 3):
        classes.extend(cocycle_representatives(D, s, 6))
    singles = [c for c in classes if len(c.arities()) == 1]
    for p, q in itertools.product(singles, repeat=2):
        sgn = -1 if ((p.sdeg + 1) * (q.sdeg + 1)) % 2 else 1
        for n in range(0, 4):
            keys = hh.basis_keys[n]
            for rep in hh.spots[n].homology_reps:
                c = {keys[i]: v for i, v in rep.items()}
                out = contraction(D, p, contraction(D, q, c))
                for k, v in contraction(D, q, contraction(D, p, c)).items():
                    chain_add(out, k, -sgn * v)
                if not out:
                    continue
                weight = {len(k[1]) for k in out}
                assert len(weight) == 1
                m = weight.pop()
                pos = {k: i for i, k in enumerate(hh.basis_keys[m])}
                vec = {pos[k]: v for k, v in out.items()}
                assert member(hh.spots[m].boundary_basis, vec)


# -- the Lie-dagger suite -------------------------------------------------------------


@pytest.mark.parametrize("alg", SMALL, ids=lambda a: a.name)
def test_lie_dagger_small(alg):
    reports = verify_lie_dagger(alg, 3, 4)
    assert all(r.status == "holds exactly" for r in reports), [str(r) for r in reports]


def test_lie_dagger_m2():
    reports = verify_lie_dagger(build_matrix_algebra(2), 3, 4)
    assert all(r.status == "holds exactly" for r in reports)


# graded signs: one generator of degree 1
EXT1 = DgAlgebra(["1", "t"], [0, 1], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                 name="ext1")
# d(x) = t with |x| = 0, |t| = 1, x^2 = 0: b_1 terms in the wraps, and
# complement digits of both parities, so the parity runs split
CONTRACTIBLE = DgAlgebra(
    ["1", "x", "t"], [0, 0, 1],
    {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1}},
    diff={1: {2: 1}}, name="contractible-pair")


def test_lie_dagger_graded_exterior():
    # both parities of shifted degrees in the pair loop: one generator of
    # degree 1, then one of degree 2.  EXT1 still holds when the bracket sign
    # of two odd cochains or the bracket parity is wrong, and the degree-2
    # algebra catches only the wrong parity; CONTRACTIBLE catches both
    # (test_lie_dagger_graded_bracket_mutants)
    reports = verify_lie_dagger(EXT1, 3, 3)
    assert all(r.status == "holds exactly" for r in reports), \
        [str(r) for r in reports]
    two = DgAlgebra(
        ["1", "u"], [0, 2],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        name="poly-deg2-trunc",
    )
    reports = verify_lie_dagger(two, 3, 3)
    assert all(r.status == "holds exactly" for r in reports), \
        [str(r) for r in reports]


def test_lie_dagger_graded_with_differential():
    reports = verify_lie_dagger(CONTRACTIBLE, 2, 3)
    assert all(r.status == "holds exactly" for r in reports), \
        [str(r) for r in reports]


def _odd_pair_sign_minus_one(algebra, ip, iq, bound):
    """_bracket_components with the second brace's sign -1 for two odd
    factors too."""
    comps = {}
    hochschild._brace_into(comps, algebra, ip, iq, 1, bound)
    hochschild._brace_into(comps, algebra, iq, ip, -1, bound)
    return comps


@pytest.mark.parametrize("mutant, witness", [
    ("sign", ((0, ()), 1, 5)), ("parity", ((0, ()), 1, 4))], ids=["sign", "parity"])
def test_lie_dagger_graded_bracket_mutants(monkeypatch, mutant, witness):
    """On CONTRACTIBLE the brackets of two odd cochains do not vanish, so a
    wrong bracket sign for two odd factors, or a bracket parity of 0, fails
    bracket-action; EXT1 (Q[t]/t^2, |t| = 1) holds under both."""
    if mutant == "sign":
        monkeypatch.setattr(calculus, "_bracket_components", _odd_pair_sign_minus_one)
    else:
        real = calculus._bracket
        monkeypatch.setattr(calculus, "_bracket", lambda *args: (real(*args)[0], 0))
    report = verify_lie_dagger(CONTRACTIBLE, 2, 3)[0]
    assert (report.status, report.witness) == ("fails", witness)


def test_boundary_matrices_need_d_zero():
    """L_b of a dg algebra with d != 0 has a part b_1 = d that keeps the bar
    weight, which the weight-lowering boundary matrices cannot hold."""
    with pytest.raises(ValueError, match="needs d = 0"):
        boundary_matrices(CONTRACTIBLE, chain_spaces(CONTRACTIBLE, 2))


def _scale_tables(monkeypatch, k, wrap, min_arity=0):
    """Patch OperatorSpace._table so that every table made afterwards for a
    word of arity >= min_arity has the signs of its wrap groups (wrap) or of
    its interior groups, for a cochain of odd parity, multiplied by k."""
    table = OperatorSpace._table

    def scaled(self, l, w, odd, stop):
        interior, wraps = table(self, l, w, odd, stop)
        if l < min_arity:
            return interior, wraps
        if wrap:
            wraps = [((stride, k * sgn), kb) for (stride, sgn), kb in wraps]
        elif odd:
            interior = [((stride, k * sgn), kb) for (stride, sgn), kb in interior]
        return interior, wraps

    monkeypatch.setattr(OperatorSpace, "_table", scaled)


@pytest.fixture
def scale_wrap_terms(monkeypatch):
    """scale_wrap_terms(k) multiplies the sign of every wrap match of the
    Lie tables of OperatorSpace by k, so the Lie action L_P it assembles has
    its wrap terms scaled by k (a mutant for k != 1)."""
    return lambda k: _scale_tables(monkeypatch, k, wrap=True)


@pytest.fixture
def scale_interior_terms(monkeypatch):
    """scale_interior_terms(k) multiplies the sign of every interior match
    of the Lie tables of OperatorSpace by k where the cochain is odd.  The
    interior sign of L_P is (-1)^{sd(P) mu_j}, the match's sign for P of odd
    shifted degree and 1 for an even one, so L_P of an odd P has its
    interior terms scaled by k (a mutant for k != 1)."""
    return lambda k: _scale_tables(monkeypatch, k, wrap=False)


def test_lie_dagger_mutation_detected(scale_wrap_terms):
    scale_wrap_terms(-1)
    reports = verify_lie_dagger(D, 2, 3)
    assert [(r.status, r.witness) for r in reports] == [
        ("fails", ((1, ()), 2, 3)),
        ("fails", ((0, (1, 1)), 2)),
        ("fails", ((1, ()), 3)),
        ("fails", (0, (1, 1))),
    ]


def _commutator_on(mat_a, mat_b, sign, col):
    """(A B - sign . B A) applied to the basis column col."""
    out = {}
    for i, v in mat_b.get(col, ()):
        for i2, v2 in mat_a.get(i, ()):
            chain_add(out, i2, v2 * v)
    for i, v in mat_a.get(col, ()):
        for i2, v2 in mat_b.get(i, ()):
            chain_add(out, i2, -sign * v2 * v)
    return out


def _reference_lie_dagger(alg, arity_bound, bar_bound):
    """verify_lie_dagger's reports, one (pair, column) at a time."""
    space = OperatorSpace(alg, bar_bound)
    cochains = basis_cochains(alg, arity_bound)
    for c in cochains:
        c.arity_bound = 2 * arity_bound
    mats = [space.lie_matrix(c) for c in cochains]
    boundary = space.boundary_matrix()
    connes = space.connes_matrix()

    def first_col(lhs_of, rhs_of, cols=space.check_cols):
        return next((col for col in cols if lhs_of(col) != rhs_of(col)), None)

    def report(axiom, witness):
        return (axiom, "holds exactly" if witness is None else "fails", witness)

    witness = None
    for a, P in enumerate(cochains):
        for b in range(a, len(cochains)):
            Q = cochains[b]
            lhs = space.lie_matrix(gerstenhaber_bracket(P, Q, 2 * arity_bound))
            sign = -1 if (P.sdeg * Q.sdeg) % 2 else 1
            col = first_col(lambda c: dict(lhs.get(c, ())),
                            lambda c: _commutator_on(mats[a], mats[b], sign, c))
            if col is not None:
                witness = (space.keys[col], a, b)
                break
        if witness:
            break
    out = [report("bracket-action: L_[P,Q] = [L_P, L_Q]", witness)]

    witness = None
    for a, P in enumerate(cochains):
        l_dP = space.lie_matrix(cochain_differential(alg, P, 2 * arity_bound))
        sign = -1 if P.sdeg % 2 else 1
        col = first_col(lambda c: dict(l_dP.get(c, ())),
                        lambda c: _commutator_on(boundary, mats[a], sign, c))
        if col is not None:
            witness = (space.keys[col], a)
            break
    out.append(report("boundary-compat: d^End L_P = L_dP", witness))

    witness = None
    for a, P in enumerate(cochains):
        sign = -1 if P.sdeg % 2 else 1
        col = first_col(lambda c: {},
                        lambda c: _commutator_on(connes, mats[a], sign, c))
        if col is not None:
            witness = (space.keys[col], a)
            break
    out.append(report("connes-compat: [B, L_P] = 0", witness))

    l_b = space.lie_matrix(structure_as_cochain(alg, 2 * arity_bound))
    col = first_col(lambda c: dict(l_b.get(c, ())),
                    lambda c: dict(boundary.get(c, ())))
    out.append(report("action-at-structure: L_b = boundary",
                      None if col is None else space.keys[col]))
    return out


T3 = build_truncated_polynomial_algebra(3)
A2 = a2_quiver_algebra()


def test_connes_compat_checks_weight_bar_columns(monkeypatch):
    # both products of [B, L_P] on a weight-bar column stay inside the basis,
    # so a defect of B there is caught, and named at that column
    key = (1, (1, 1, 2))
    clean = OperatorSpace.connes_matrix

    def corrupted(self):
        mat = clean(self)
        col = self.basis.index[key]
        (row, v), *rest = mat[col]
        mat[col] = ((row, 2 * v), *rest)
        return mat

    monkeypatch.setattr(OperatorSpace, "connes_matrix", corrupted)
    report = verify_lie_dagger(T3, 2, 3)[2]
    assert (report.status, report.witness) == ("fails", (key, 1))


# the Kronecker algebra at (3, 4) takes the per-column reference about 9 s;
# M2 at (2, 3), the dominant algebra of the benchmark, about 0.7 s
PINNED = [(alg, 2, 3) for alg in (D, T3, A2, kronecker_algebra(),
                                  build_matrix_algebra(2))] + [
    (alg, 3, 4) for alg in (D, T3, A2)]


@pytest.mark.parametrize("k", [1, -1, 2])
@pytest.mark.parametrize("alg,arity_bound,bar_bound", PINNED,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_lie_dagger_reports_match_per_column_reference(
        alg, arity_bound, bar_bound, k, scale_wrap_terms):
    """The fused per-pair residuals give the reports and witnesses of the
    per-column loop; wrap terms scaled by k != 1 make all four identities
    fail."""
    scale_wrap_terms(k)
    got = [(r.axiom, r.status, r.witness)
           for r in verify_lie_dagger(alg, arity_bound, bar_bound)]
    assert got == _reference_lie_dagger(alg, arity_bound, bar_bound)
    assert all(s == ("holds exactly" if k == 1 else "fails") for _, s, _ in got)


@pytest.mark.parametrize("k", [1, -1, 2])
@pytest.mark.parametrize("alg", [D, T3, A2, kronecker_algebra()],
                         ids=lambda a: a.name)
def test_lie_dagger_interior_mutant_matches_per_column_reference(
        alg, k, scale_interior_terms):
    """The per-word Lie tables read the interior matches when they are first
    used, so a mutant of the interior signs reaches the check columns and
    the apply columns alike: the reports and witnesses are those of the
    per-column loop.  Interior terms scaled by k != 1 make all four
    identities fail, except on T2, where only boundary-compat fails."""
    scale_interior_terms(k)
    got = [(r.axiom, r.status, r.witness) for r in verify_lie_dagger(alg, 2, 3)]
    assert got == _reference_lie_dagger(alg, 2, 3)
    statuses = [s for _, s, _ in got]
    if k == 1:
        assert statuses == ["holds exactly"] * 4
    elif alg is D:
        assert statuses == ["holds exactly", "fails", "holds exactly", "holds exactly"]
    else:
        assert statuses == ["fails"] * 4


M2 = build_matrix_algebra(2)


# (algebra, arity bound, bar bound, min arity, the pair (a, b) of the
# bracket-action witness): with the arity-0 L_P exact, the first failing pair
# is one of the first pass (P of arity 0, a < dim) or of the second
@pytest.mark.parametrize("alg,arity_bound,bar_bound,min_arity,pair", [
    (M2, 2, 3, 1, (4, 5)), (M2, 2, 3, 2, (1, 20)), (M2, 2, 3, 3, (16, 21)),
    (T3, 3, 3, 1, (3, 4)), (T3, 3, 3, 2, (1, 12)), (T3, 3, 3, 3, (1, 21))],
    ids=lambda v: getattr(v, "name", str(v)))
def test_lie_dagger_arity_filtered_mutant_matches_per_column_reference(
        alg, arity_bound, bar_bound, min_arity, pair, monkeypatch):
    """Wrap terms scaled by -1 on the words of arity >= min_arity only: the
    reports and witnesses are those of the per-column loop, whichever pass
    of verify_lie_dagger finds the bracket-action witness."""
    _scale_tables(monkeypatch, -1, wrap=True, min_arity=min_arity)
    got = [(r.axiom, r.status, r.witness)
           for r in verify_lie_dagger(alg, arity_bound, bar_bound)]
    assert got == _reference_lie_dagger(alg, arity_bound, bar_bound)
    assert got[0][2][1:] == pair


@pytest.mark.parametrize("alg", [D, T3, A2, kronecker_algebra(), M2, EXT1, CONTRACTIBLE],
                         ids=lambda a: a.name)
def test_indexed_bracket_is_gerstenhaber_bracket(alg):
    """The pair loop brackets two basis cochains of arity <= 3 from one
    _brace_index of each and builds no Cochain: for every pair (a, q), a <= q,
    its components are those of gerstenhaber_bracket(P, Q, 6) once zeros
    are dropped, with no ground word, and its parity is that of the
    bracket's sdeg, sd P + sd Q.  The same holds for b, not normalized and
    stored on words with units, against every basis cochain at bound 4, as
    in the boundary pass; EXT1 and CONTRACTIBLE bring odd parities."""
    cochains = basis_cochains(alg, 3)
    ixs = [hochschild._brace_index(P) for P in cochains]
    b = structure_as_cochain(alg)
    cases = [(P, ip, Q, iq, 6) for a, (P, ip) in enumerate(zip(cochains, ixs))
             for Q, iq in zip(cochains[a:], ixs[a:])]
    cases += [(b, hochschild._brace_index(b), P, ip, 4) for P, ip in zip(cochains, ixs)]
    for P, ip, Q, iq, bound in cases:
        comps, odd = calculus._bracket(alg, ip, iq)
        want = gerstenhaber_bracket(P, Q, bound)
        assert Cochain(alg, comps, want.sdeg).components == want.components, (P, Q)
        assert want.sdeg == P.sdeg + Q.sdeg and odd == want.sdeg % 2


@pytest.mark.parametrize("alg", [build_field(), D, M2, A2, EXT1, CONTRACTIBLE],
                         ids=lambda a: a.name)
def test_basis_cochains_list_arity_zero_first(alg):
    """verify_lie_dagger reads the weight bar + 1 columns of L_Q only in the
    pairs whose P has arity 0, which it takes to be the first cochains."""
    arities = [c.arities() for c in basis_cochains(alg, 3)]
    assert arities == sorted(arities) and arities[0] == [0]


def test_lie_dagger_refuses_cochains_out_of_arity_order(monkeypatch):
    listed = calculus.basis_cochains
    monkeypatch.setattr(calculus, "basis_cochains",
                        lambda alg, bound: listed(alg, bound)[::-1])
    with pytest.raises(AssertionError, match="arity-0 cochains first"):
        verify_lie_dagger(D, 2, 3)


def test_lie_dagger_memory_peak():
    """Each L_Q keeps its weight bar + 1 columns only while the first pass
    reads them, and the apply-column tables of a word only while its
    cochains are built: the traced peak of M2 at (2, 3), about 1.3 MiB, was
    2.0 MiB with every Lie matrix alive on every apply column.  The run-layout
    cache of hochschild starts empty, as in a fresh process."""
    alg = build_matrix_algebra(2)
    hochschild._parity_runs.cache_clear()
    started = tracemalloc.is_tracing()
    if not started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        verify_lie_dagger(alg, 2, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not started:
            tracemalloc.stop()
    assert peak <= 1.7 * 2 ** 20


@pytest.mark.parametrize("k", [1, -1])
def test_lie_dagger_starts_no_process(k, monkeypatch, scale_wrap_terms):
    """workers is accepted and ignored: with multiprocessing.Pool made to
    raise, workers=2 gives the reports and witnesses of workers=1, where
    the identities hold and where wrap terms scaled by -1 make them fail."""
    def no_pool(*args, **kwargs):
        raise AssertionError("verify_lie_dagger started a process pool")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    scale_wrap_terms(k)
    serial, two = ([(r.axiom, r.status, r.witness)
                    for r in verify_lie_dagger(T3, 2, 3, workers=w)] for w in (1, 2))
    assert two == serial
    assert serial[0][1] == ("holds exactly" if k == 1 else "fails")


@pytest.mark.parametrize("alg", [build_field(), D, T3, A2, EXT1, CONTRACTIBLE],
                         ids=lambda a: a.name)
def test_lie_matrix_matches_lie_action_up_to_bracket_arities(alg):
    """The brackets of basis cochains of arity <= 2 reach arity 2 . 2 - 1 = 3,
    the words only the pair loop's residuals read.  At bar 2, for every
    basis cochain of arity <= 3 and for Fraction-valued cochains, every
    apply column of lie_matrix and every check column of the residual
    lie_into adds with the kept tables (read twice) is lie_action on that
    basis chain, and stored values are ints or non-integral Fractions.
    build_field() has dim 1, so no letter lies outside the ground and only
    arity 0 has words; the graded EXT1 and CONTRACTIBLE have digits of
    both parities, so the tables' parity runs split."""
    _assert_lie_matrix_is_lie_action(alg)


@settings(max_examples=30, deadline=None)
@given(graded_tables(kept=True))
def test_lie_matrix_matches_lie_action_on_graded_tables(alg):
    """The same on generated graded tables of dimension 2-4 with degrees
    0-2, products and d of the right degrees, associative or not: the
    tables and lie_action read the same structure cochain, so validity is
    not needed, and the digit parities vary from letter to letter."""
    _assert_lie_matrix_is_lie_action(alg)


def _assert_lie_matrix_is_lie_action(alg):
    space = OperatorSpace(alg, 2)
    cochains = basis_cochains(alg, 3)
    half = {t: Fraction(1, 2) for t in range(alg.dim)}
    cochains.append(Cochain(alg, {0: {(): half}}, -1))
    if alg.dim > 1:
        cochains.append(Cochain(alg, {1: {(1,): half}}, 0))
        cochains.append(Cochain(alg, {2: {(1, alg.dim - 1): {0: Fraction(2, 3), 1: 3}}}, 1))
    assert {l for P in cochains for l in P.arities()} == (
        {0, 1, 2, 3} if alg.dim > 1 else {0})
    for P in cochains:
        mat = space.lie_matrix(P)
        for col in space.apply_cols:
            got = {space.keys[r]: v for r, v in mat.get(col, ())}
            assert got == lie_action(alg, P, {space.keys[col]: 1}), (P, col)
        for v in (v for entries in mat.values() for _, v in entries):
            assert type(v) is int or v.denominator != 1
        for _ in range(2):
            res = space.lie_into({}, P.components, P.sdeg % 2, space.ncheck)
            by_col = {}
            for k, v in res.items():
                if v:
                    col, row = divmod(k, space.size)
                    by_col.setdefault(col, {})[row] = v
            assert by_col == {col: dict(e) for col, e in mat.items()
                              if col < space.ncheck}


# basis cochain pairs whose bracket's Lie action cancels terms in the accumulator
CANCELLING_PAIRS = [
    (build_matrix_algebra(2), ((1, 5), (4, 17), (5, 17), (6, 9))),
    (build_truncated_polynomial_algebra(3), ((1, 4), (2, 7), (3, 10), (4, 19))),
    (a2_quiver_algebra(), ((1, 4), (2, 7), (3, 10), (4, 19))),
]


def test_operator_columns_exact_and_zero_free():
    """Stored columns hold no zero and no integral Fraction, and every
    column of boundary_matrix, connes_matrix, contraction_matrix and
    lie_matrix is hochschild_boundary, connes_B, contraction or lie_action
    on that basis chain, so the per-key assembly keeps the ChainBasis index;
    the Lie matrix also for brackets whose Lie action cancels terms in the
    accumulator."""
    for alg, pairs in CANCELLING_PAIRS:
        _check_operator_columns(OperatorSpace(alg, 2), pairs)


def _check_operator_columns(space, pairs):
    alg = space.algebra
    mats = []

    def check(mat, op):
        mats.append(mat)
        for col in space.apply_cols:
            got = {space.keys[r]: v for r, v in mat.get(col, ())}
            assert got == op({space.keys[col]: 1}), (op, space.keys[col])

    check(space.boundary_matrix(), partial(hochschild_boundary, structure_as_cochain(alg)))
    check(space.connes_matrix(), partial(connes_B, alg))
    cochains = basis_cochains(alg, 2)
    for P in cochains:
        P.arity_bound = 4
    brackets = [gerstenhaber_bracket(cochains[a], cochains[b], 4)
                for a, b in pairs]
    for P in cochains + brackets:
        check(space.lie_matrix(P), partial(lie_action, alg, P))
    for br in brackets:
        acc = space.lie_into({}, br.components, br.sdeg % 2, space.size)
        assert any(v == 0 for v in acc.values())
    half = Cochain(alg, {1: {(1,): {1: Fraction(1, 2)}}}, 0, 4)
    check(space.lie_matrix(half), partial(lie_action, alg, half))
    for P in cochains + [half]:
        check(space.contraction_matrix(P), partial(contraction, alg, P))
    assert any(type(v) is Fraction for m in mats for c in m.values() for _, v in c)
    for m in mats:
        for entries in m.values():
            assert entries and isinstance(entries, tuple)
            for _, v in entries:
                assert v != 0
                assert type(v) is int or v.denominator != 1


def _typed(x):
    """x with the type of every scalar in it: 1 and Fraction(1) differ."""
    return tuple(map(_typed, x)) if isinstance(x, tuple) else (x, type(x))


def _assert_one_object_per_value(mats):
    """Every (row, coeff) pair and every column tuple of the stored matrices
    mats is the one object of its value, and some values repeat."""
    first, seen = {}, 0
    for m in mats:
        for col in m.values():
            seen += 1 + len(col)
            for obj in (col, *col):
                assert first.setdefault(_typed(obj), obj) is obj, obj
    assert seen > len(first)


@pytest.mark.parametrize("alg", [T3, A2], ids=lambda a: a.name)
def test_operator_space_holds_one_object_per_value(alg):
    """The boundary, Connes, Lie and contraction matrices that one
    OperatorSpace builds at (arity, bar) = (2, 3), and their transposes,
    hold one object per distinct (row, coeff) entry and per distinct column
    tuple."""
    space = OperatorSpace(alg, 3)
    cochains = basis_cochains(alg, 2)
    for c in cochains:
        c.arity_bound = 4
    mats = [space.boundary_matrix(), space.connes_matrix(),
            *map(space.lie_matrix, cochains), *map(space.contraction_matrix, cochains)]
    _assert_one_object_per_value(mats + [calculus._transpose(space, m) for m in mats])


def test_shared_entries_stay_exact_after_a_half_integral_cochain():
    """A half-integral cochain whose Lie action sums halves to integers,
    built first on a space, shares those integral entries with the integral
    matrices built after it, and every entry of all of them is still a
    nonzero int or non-integral Fraction: entries are looked up once exact,
    so 1 and Fraction(1) never merge."""
    space = OperatorSpace(T3, 2)
    half = Cochain(T3, {1: {(1,): {1: Fraction(1, 2)}, (2,): {2: Fraction(1, 2)}}}, 0, 4)
    first = [space.lie_matrix(half), space.contraction_matrix(half)]
    cochains = basis_cochains(T3, 2)
    for c in cochains:
        c.arity_bound = 4
    later = [space.boundary_matrix(), space.connes_matrix(),
             *map(space.lie_matrix, cochains)]
    mats = first + later + [calculus._transpose(space, m) for m in first + later]
    for m in mats:
        for entries in m.values():
            for _, v in entries:
                assert v != 0 and (type(v) is int or v.denominator != 1)
    summed = {id(e) for c in first[0].values() for e in c if type(e[1]) is int}
    assert summed & {id(e) for m in later for c in m.values() for e in c}
    _assert_one_object_per_value(mats)


def test_lie_action_hand_expansion():
    # P: x -> x, arity 1.  On 1 x [x]: the interior term replaces x by P(x),
    # the wrap term feeds a_0 = 1 to the normalized P and dies.
    p = Cochain(D, {1: {(1,): {1: 1}}}, 0, 4)
    assert lie_action(D, p, {(0, (1,)): 1}) == {(0, (1,)): 1}
    # On x x [x]: interior keeps x x [x]; the wrap window (i = n = 1) feeds
    # only a_0 = x to P, leaving the bar entry in place, with sign
    # (-1)^{mu_1 (mu_1 - mu_1)} = +1: another copy of x x [x].
    assert lie_action(D, p, {(1, (1,)): 1}) == {(1, (1,)): 2}


@pytest.mark.parametrize("call", [
    lambda: verify_lie_dagger(D, -1, 2),
    lambda: verify_lie_dagger(D, 2, -1),
    lambda: calculus_defect(D, degree_bound=-1),
    lambda: calculus_defect(D, bar_bound=-1),
], ids=["arity", "bar", "defect-degree", "defect-bar"])
def test_negative_bounds_rejected(call):
    with pytest.raises(ValueError, match="negative bound"):
        call()


def test_axiom_report_requires_witness_on_failure():
    with pytest.raises(ValueError):
        AxiomReport("x", "fails")


# -- the defect classifier -----------------------------------------------------------


def test_calculus_defect_dual_numbers():
    reports = {r.axiom.split(":")[0]: r for r in
               calculus_defect(D, degree_bound=2, bar_bound=4)}
    assert reports["cartan"].status == "holds on homology"
    assert reports["contraction-module"].status == "holds exactly"
    assert reports["cup-associativity (chain level)"].status == "holds exactly"
    for key in ("bracket-cup Leibniz (on HH^*)", "cup-commutativity (on HH^*)",
                "precalculus-mixed", "action-cup"):
        assert reports[key].status in ("holds exactly", "holds on homology"), key
    for r in reports.values():
        assert r.status != "fails", str(r)


def test_calculus_defect_all_pass_path_algebra():
    for r in calculus_defect(a2_quiver_algebra(), degree_bound=2, bar_bound=3):
        assert r.status != "fails", str(r)


def test_calculus_defect_clean_on_larger_algebras():
    """Regression: weight-raising defects at the top homology degree must be
    checked against spots one weight higher, not misreported as failures."""
    for alg, bb in [(build_truncated_polynomial_algebra(3), 4),
                    (build_matrix_algebra(2), 3)]:
        for r in calculus_defect(alg, degree_bound=2, bar_bound=bb):
            assert r.status != "fails", (alg.name, str(r))


def test_calculus_defect_cup_triples_within_the_class_bound():
    """The cup triples of degree bound 3 reach arity 9, past the former
    class bound 2 . 3 + 2 = 8; every report comes back."""
    reports = calculus_defect(T3, degree_bound=3, bar_bound=4)
    assert len(reports) == 7
    for r in reports:
        assert r.status != "fails", str(r)


def _apply(mat, vec):
    """The image of vec, {col: c}, under a stored matrix."""
    out = {}
    for j, c in vec.items():
        for i, v in mat.get(j, ()):
            chain_add(out, i, v * c)
    return out


def _defect(*terms):
    """vec -> the sum of s . X_1 X_2 .. vec over terms (s, X_1, X_2, ..),
    applied one matrix at a time."""
    def defect(vec):
        out = {}
        for s, *mats in terms:
            v = vec
            for m in reversed(mats):
                v = _apply(m, v)
            for k, x in v.items():
                chain_add(out, k, s * x)
        return out
    return defect


def _reference_calculus_defect(alg, degree_bound, bar_bound):
    """calculus_defect's reports of its four chain-level axioms, computed as
    defect closures on one check column or one homology representative at a
    time."""
    space = OperatorSpace(alg, bar_bound)
    hh = flat_hochschild_homology(alg, range(0, bar_bound + 1))
    off = space.basis.offsets
    reps_by_degree = {n: [{off[n] + i: v for i, v in rep.items()}
                          for rep in hh.spots[n].homology_reps]
                      for n in range(bar_bound)}
    classes = []
    for s in range(degree_bound + 1):
        classes.extend(cocycle_representatives(alg, s, degree_bound + 2))
    for c in classes:
        c.arity_bound = 2 * degree_bound + 2
    single = [c for c in classes if len(c.arities()) == 1]
    pairs = list(itertools.product(single, repeat=2))
    connes = space.connes_matrix()
    con, lie = space.contraction_matrix, space.lie_matrix

    def sign(k):
        return -1 if k % 2 else 1

    def cup(P, Q):
        return calculus.cup_product(alg, P, Q)

    witness = None
    for P, Q in pairs:
        d = _defect((1, con(cup(P, Q))),
                    (-sign((P.sdeg + 1) * (Q.sdeg + 1)), con(Q), con(P)))
        witness = next((space.keys[c] for c in space.check_cols if d({c: 1})), None)
        if witness is not None:
            break
    out = [("contraction-module: I_{P cup Q} = (-1)^{|P||Q|} I_Q I_P (chain level)",
            "holds exactly" if witness is None else "fails", witness)]

    def classify(axiom, defects):
        if not any(d({c: 1}) for _, d in defects for c in space.check_cols):
            return (axiom, "holds exactly", None)
        for label, d in defects:
            for n, reps in reps_by_degree.items():
                for rep in reps:
                    if not calculus._is_boundary(space, hh, d(rep)):
                        return (axiom, "fails", (label, n))
        return (axiom, "holds on homology", None)

    out.append(classify(
        "cartan: B I_P - (-1)^{|P|} I_P B = (-1)^{|P|+1} L_P (on homology)",
        [((P.sdeg + 1,), _defect((1, connes, con(P)), (-sign(P.sdeg + 1), con(P), connes),
                                 (sign(P.sdeg + 1), lie(P))))
         for P in single]))
    mixed = []
    for P, Q in pairs:
        br = calculus.gerstenhaber_bracket(P, Q)
        if len(br.arities()) > 1:
            continue
        dp, dq = P.sdeg + 1, Q.sdeg + 1
        mixed.append(((dp, dq), _defect(
            (1, con(P), lie(Q)), (-sign(dp * (dq - 1)), lie(Q), con(P)),
            (-sign(dp * (dq + 1)), con(br)))))
    out.append(classify(
        "precalculus-mixed: [I_P, L_Q] = (-1)^{|P|(|Q|+1)} I_{[P,Q]} (on homology)",
        mixed))
    out.append(classify(
        "action-cup: L_{P cup Q} = (-1)^{|Q|(|P|+1)} L_P I_Q "
        "+ (-1)^{|P||Q|} I_P L_Q (on homology)",
        [((P.sdeg + 1, Q.sdeg + 1), _defect(
            (1, lie(cup(P, Q))),
            (-sign((Q.sdeg + 1) * (P.sdeg + 2)), lie(P), con(Q)),
            (-sign((P.sdeg + 1) * (Q.sdeg + 1)), con(P), lie(Q))))
         for P, Q in pairs]))
    return out


def _flip_cap_sign(monkeypatch):
    """Flip the contraction sign for odd sd(P) and even |a_0|.  d and B do not
    use it, so the complex keeps d^2 = 0."""
    clean = hochschild._cap_sign

    def flipped(sdP, deg0):
        return -clean(sdP, deg0) if sdP % 2 and deg0 % 2 == 0 else clean(sdP, deg0)

    monkeypatch.setattr(hochschild, "_cap_sign", flipped)


def _double_central_cup(monkeypatch):
    """A cochain-level defect: P cup Q counts an arity-0 P twice when Q has
    no arity-0 part.  The chain differentials do not use the cup."""
    clean = calculus.cup_product

    def doubled(algebra, p, q, arity_bound=None):
        out = clean(algebra, p, q, arity_bound)
        return out.add(out) if p.arities() == [0] and 0 not in q.arities() else out

    monkeypatch.setattr(calculus, "cup_product", doubled)


_CAP_FLIP_WITNESSES = [(0, ()), ((0,), 0), ((1, 0), 0), ((0, 0), 0)]


@pytest.mark.parametrize("mutant", [None, _flip_cap_sign], ids=["clean", "cap-sign"])
@pytest.mark.parametrize("alg,bar_bound", [(D, 4), (T3, 3), (A2, 4)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_calculus_defect_reports_match_closure_reference(
        monkeypatch, alg, bar_bound, mutant):
    """The residual kernel and the one verdict give the reports and witnesses
    of per-column defect closures, on the failure path too: flipping the
    contraction sign makes all four chain-level axioms fail on D and T3 and
    the contraction-module axiom on A2."""
    if mutant:
        mutant(monkeypatch)
    got = [(r.axiom, r.status, r.witness) for r in calculus_defect(alg, 2, bar_bound)]
    assert got[3:] == _reference_calculus_defect(alg, 2, bar_bound)
    witnesses = [w for _, s, w in got[3:] if s == "fails"]
    if mutant is None:
        assert not witnesses
    else:
        assert witnesses == _CAP_FLIP_WITNESSES[:1 if alg is A2 else 4]


def _solved_is_coboundary(algebra, c):
    """Reference for calculus._cochain_is_coboundary: a fresh exactlin.solve
    against the coboundary matrix for every test."""
    arities = c.arities()
    if len(arities) != 1:
        return not arities
    (l,) = arities
    if l == 0:  # C^{-1} = 0
        return False
    vec = hochschild.CochainBasis(algebra, l).coordinates(c)
    return solve(hochschild._cochain_diff_matrix(algebra, l - 1), vec) is not None


def test_cohomology_spot_built_once_per_model_and_arity(monkeypatch):
    """calculus_defect tests every defect cochain against the HH^l spot of
    its arity, the one its cocycle representatives come from too: each spot
    is built once, and the verdicts are those of a fresh solve per defect."""
    monkeypatch.setattr(calculus, "_cochain_is_coboundary", _solved_is_coboundary)
    want = [(r.axiom, r.status, r.witness)
            for r in calculus_defect(build_truncated_polynomial_algebra(3), 2, 3)]
    monkeypatch.undo()
    built, tested = Counter(), []
    real_build, real_test = hochschild._build_cohomology_spot, calculus._cochain_is_coboundary

    def counting_build(model, arity):
        built[model.name, arity] += 1
        return real_build(model, arity)

    def counting_test(algebra, c):
        tested.append(real_test(algebra, c))
        return tested[-1]

    monkeypatch.setattr(hochschild, "_build_cohomology_spot", counting_build)
    monkeypatch.setattr(calculus, "_cochain_is_coboundary", counting_test)
    got = [(r.axiom, r.status, r.witness)
           for r in calculus_defect(build_truncated_polynomial_algebra(3), 2, 3)]
    assert got == want
    assert "holds on homology" in {status for _, status, _ in got}
    assert built == {("trunc_poly:3", arity): 1 for arity in range(6)}
    assert len(tested) > len(built) and all(tested)


def _member_is_boundary(space, hh, vec):
    """Reference for calculus._is_boundary: exactlin.member echelonizes the
    spot's boundary_basis afresh for every test."""
    if not vec:
        return True
    weights = {len(space.keys[i][1]) for i in vec}
    if len(weights) != 1:
        return False
    n = weights.pop()
    if n not in hh.spots:
        return False
    off = space.basis.offsets[n]
    return member(hh.spots[n].boundary_basis, {i - off: v for i, v in vec.items()})


def _expressed_is_coboundary(algebra, c):
    """Reference for calculus._cochain_is_coboundary: a full
    express_in_homology solve of the defect's class for every test."""
    arities = c.arities()
    if len(arities) != 1:
        return not arities
    cb = hochschild.CochainBasis(algebra, arities[0])
    return express_in_homology(hochschild._cohomology_spot(algebra, cb.arity),
                               cb.coordinates(c)) == {}


@pytest.mark.parametrize("mutant", [None, _flip_cap_sign], ids=["clean", "cap-sign"])
def test_calculus_defect_keeps_one_boundary_span_per_spot(monkeypatch, mutant):
    """Every membership test of calculus_defect, a chain against the
    boundaries of its HH_n spot or a defect cochain against the coboundaries
    of its HH^l spot, reads one IncrementalSpan the spot keeps: on T2, T3,
    A2, M2 and Kronecker the reports are those of a fresh echelon per test,
    and each spot builds its span once, however often it is asked."""
    def fresh():  # new algebras, so no spot of an earlier run is reused
        return [build_truncated_polynomial_algebra(2), build_truncated_polynomial_algebra(3),
                a2_quiver_algebra(), build_matrix_algebra(2), kronecker_algebra()]

    if mutant:
        mutant(monkeypatch)
    monkeypatch.setattr(calculus, "_is_boundary", _member_is_boundary)
    monkeypatch.setattr(calculus, "_cochain_is_coboundary", _expressed_is_coboundary)
    want = [[(r.axiom, r.status, r.witness) for r in calculus_defect(alg, 2, 4)]
            for alg in fresh()]
    monkeypatch.undo()
    if mutant:
        mutant(monkeypatch)
    built, asked = [], []

    class CountingSpan(exactlin.IncrementalSpan):
        def __init__(self):
            super().__init__()
            built.append(self)

    real = exactlin.SubquotientBasis.is_boundary

    def asking(spot, vec):
        asked.append(spot)
        return real(spot, vec)

    monkeypatch.setattr(exactlin, "IncrementalSpan", CountingSpan)
    monkeypatch.setattr(exactlin.SubquotientBasis, "is_boundary", asking)
    got = [[(r.axiom, r.status, r.witness) for r in calculus_defect(alg, 2, 4)]
           for alg in fresh()]
    assert got == want
    assert "holds on homology" in {status for reports in got for _, status, _ in reports}
    spots = {id(spot): spot for spot in asked}
    assert len(built) == len(spots) and len(asked) > 2 * len(spots)
    assert {id(spot._kept["boundary span"]) for spot in spots.values()} == set(
        map(id, built))


def test_calculus_defect_cochain_mutation_detected(monkeypatch):
    """A cup that doubles central left factors fails cup-commutativity and
    Leibniz on HH^*, and the chain-level axioms it enters."""
    _double_central_cup(monkeypatch)
    got = [(r.status, r.witness) for r in calculus_defect(D, 2, 3)]
    assert got == [
        ("fails", (0, 1)),
        ("fails", (-1, -1, 0)),
        ("fails", (0, 0, 1)),
        ("fails", (0, (1,))),
        ("holds on homology", None),
        ("holds on homology", None),
        ("fails", ((0, 1), 0)),
    ]
    assert [(r[1], r[2]) for r in _reference_calculus_defect(D, 2, 3)] == got[3:]
