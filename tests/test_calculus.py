import itertools
import random
from fractions import Fraction

import pytest

from ncperiod.algebra import (
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
from ncperiod.hochschild import (
    Cochain,
    basis_cochains,
    chain_add,
    cochain_differential,
    contraction,
    gerstenhaber_bracket,
    hochschild_boundary,
    lie_action,
    structure_as_cochain,
    unit_cochain,
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
        assert _cochain_is_coboundary(D, comm, 8)


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
    from ncperiod.exactlin import member
    from ncperiod.hochschild import cocycle_representatives, hochschild_homology

    hh = hochschild_homology(D, range(0, 4))
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


def test_lie_dagger_graded_exterior():
    # graded signs exercised: one generator of degree 1 (and one of degree 2,
    # giving both parities of shifted degrees in the pair loop)
    from ncperiod.algebra import DgAlgebra

    ext = DgAlgebra(
        ["1", "t"], [0, 1],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        name="ext1",
    )
    reports = verify_lie_dagger(ext, 3, 3)
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
    # d(x) = t with |x| = 0, |t| = 1, x^2 = 0: checks b_1-terms in the wraps
    from ncperiod.algebra import DgAlgebra

    alg = DgAlgebra(
        ["1", "x", "t"], [0, 0, 1],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
         (0, 2): {2: 1}, (2, 0): {2: 1}},
        diff={1: {2: 1}},
        name="contractible-pair",
    )
    reports = verify_lie_dagger(alg, 2, 3)
    assert all(r.status == "holds exactly" for r in reports), \
        [str(r) for r in reports]


def test_lie_dagger_mutation_detected():
    reports = verify_lie_dagger(D, 2, 3, _wrap_sign=-1)
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


def _reference_lie_dagger(alg, arity_bound, bar_bound, wrap_sign):
    """verify_lie_dagger's reports, one (pair, column) at a time."""
    space = OperatorSpace(alg, bar_bound)
    cochains = basis_cochains(alg, arity_bound)
    for c in cochains:
        c.arity_bound = 2 * arity_bound
    mats = [space.lie_matrix(c, wrap_sign=wrap_sign) for c in cochains]
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
            lhs = space.lie_matrix(gerstenhaber_bracket(P, Q, 2 * arity_bound),
                                   wrap_sign=wrap_sign)
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
        l_dP = space.lie_matrix(cochain_differential(alg, P, 2 * arity_bound),
                                wrap_sign=wrap_sign)
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

    l_b = space.lie_matrix(structure_as_cochain(alg, 2 * arity_bound),
                           wrap_sign=wrap_sign)
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
        col = self.index[key]
        (row, v), *rest = mat[col]
        mat[col] = ((row, 2 * v), *rest)
        return mat

    monkeypatch.setattr(OperatorSpace, "connes_matrix", corrupted)
    report = verify_lie_dagger(T3, 2, 3)[2]
    assert (report.status, report.witness) == ("fails", (key, 1))


# the Kronecker algebra at (3, 4) takes the per-column reference about 9 s
PINNED = [(alg, 2, 3) for alg in (D, T3, A2, kronecker_algebra())] + [
    (alg, 3, 4) for alg in (D, T3, A2)]


@pytest.mark.parametrize("wrap_sign", [1, -1, 2])
@pytest.mark.parametrize("alg,arity_bound,bar_bound", PINNED,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_lie_dagger_reports_match_per_column_reference(
        alg, arity_bound, bar_bound, wrap_sign):
    """The whole-matrix sparse products give the reports and witnesses of
    the per-column loop; wrap_sign != 1 makes all four identities fail."""
    got = [(r.axiom, r.status, r.witness) for r in verify_lie_dagger(
        alg, arity_bound, bar_bound, _wrap_sign=wrap_sign)]
    assert got == _reference_lie_dagger(alg, arity_bound, bar_bound, wrap_sign)
    assert all(s == ("holds exactly" if wrap_sign == 1 else "fails")
               for _, s, _ in got)


def test_operator_columns_exact_and_zero_free():
    """Stored columns hold no zero and no integral Fraction, and the Lie
    matrix agrees with lie_action column by column."""
    space = OperatorSpace(build_matrix_algebra(2), 2)
    mats = [space.boundary_matrix(), space.connes_matrix()]
    for P in basis_cochains(space.algebra, 2):
        P.arity_bound = 4
        mats.append(space.lie_matrix(P))
        mats.append(space.lie_matrix(P, check_only=True))
        for col in space.apply_cols:
            got = {space.keys[r]: v for r, v in mats[-2].get(col, ())}
            assert got == lie_action(space.algebra, P, {space.keys[col]: 1})
    half = Cochain(space.algebra, {1: {(1,): {1: Fraction(1, 2)}}}, 0, 4)
    mats.append(space.lie_matrix(half))
    mats.append(space.contraction_matrix(half))
    assert any(type(v) is Fraction for m in mats for c in m.values() for _, v in c)
    for m in mats:
        for entries in m.values():
            assert entries and isinstance(entries, tuple)
            for _, v in entries:
                assert v != 0
                assert type(v) is int or v.denominator != 1


def test_lie_action_hand_expansion():
    # P: x -> x, arity 1.  On 1 x [x]: the interior term replaces x by P(x),
    # the wrap term feeds a_0 = 1 to the normalized P and dies.
    p = Cochain(D, {1: {(1,): {1: 1}}}, 0, 4)
    assert lie_action(D, p, {(0, (1,)): 1}) == {(0, (1,)): 1}
    # On x x [x]: interior keeps x x [x]; the wrap window (i = n = 1) feeds
    # only a_0 = x to P, leaving the bar entry in place, with sign
    # (-1)^{mu_1 (mu_1 - mu_1)} = +1: another copy of x x [x].
    assert lie_action(D, p, {(1, (1,)): 1}) == {(1, (1,)): 2}


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
