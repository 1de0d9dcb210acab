import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    cycle_square_zero,
    degree0_algebras,
    direct_blocks,
    graded_hc_oracle,
    is_square_zero,
    matrices_over,
    rebased,
)
from test_exactlin import dense_rref_oracle

from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
    radical,
)
from ncperiod import cyclic, hochschild
from ncperiod.cyclic import (
    _induced_rank,
    TruncatedLaurentComplex,
    cyclic_homology,
    hodge_spectral_sequence,
    negative_cyclic_homology,
    periodic_cyclic_homology,
    reduce_mixed_complex,
    sbi_consistent,
    sbi_exactness,
)
from ncperiod.exactlin import CompositionNonzero, SubquotientBasis, chain_add, from_columns, rank
from ncperiod.hochschild import chain_model_of

Q = build_field()
D = build_truncated_polynomial_algebra(2)
T3 = build_truncated_polynomial_algebra(3)
A2 = a2_quiver_algebra()
M2 = build_matrix_algebra(2)
FIVE = [Q, D, T3, A2, M2]


def test_hn_field_tower():
    # k[t]-module oracle: one copy of the ground field per t-power, sitting
    # in the non-positive even degrees of the product-side theory.
    dims = negative_cyclic_homology(Q, range(-6, 3)).dims
    assert dims == {-6: 1, -5: 0, -4: 1, -3: 0, -2: 1, -1: 0, 0: 1, 1: 0, 2: 0}


def test_hp_field():
    assert periodic_cyclic_homology(Q) == (1, 0)


def test_hc_field():
    assert cyclic_homology(Q, range(0, 5)).dims == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


def test_hc_dual_numbers():
    # HC_0 = A/[A,A] = A for commutative A
    dims = cyclic_homology(D, range(0, 5)).dims
    assert dims[0] == 2
    assert dims == {0: 2, 1: 0, 2: 2, 3: 0, 4: 2}


def test_hp_dual_numbers_window6():
    # nil-invariance: HP(Q[x]/x^2) = HP(Q), though HH_n(Q[x]/x^2) = 1 for n > 0
    assert periodic_cyclic_homology(D, (-6, 6)) == (1, 0)


def test_hp_path_algebra_honest_value():
    # two vertex classes in HH_0 degenerate into HP_0, and HP is nil-invariant
    # (Goodwillie 1985): HP(.->.) = HP(Q x Q) = (2,0)
    assert periodic_cyclic_homology(A2, (-6, 6)) == (2, 0)


def test_hp_matrix_algebra():
    assert periodic_cyclic_homology(M2, (-6, 6)) == (1, 0)


def test_hn_path_matches_field_pattern_doubled():
    dims = negative_cyclic_homology(A2, range(-4, 3)).dims
    assert dims == {-4: 2, -3: 0, -2: 2, -1: 0, 0: 2, 1: 0, 2: 0}


def test_hn_matrix_matches_field():
    dims = negative_cyclic_homology(M2, range(-4, 3)).dims
    ref = negative_cyclic_homology(Q, range(-4, 3)).dims
    assert dims == ref


# -- exact HC, HN and HP against closed forms and the t-complex engine -------------


def hc_trunc(n_power, n):
    """HC_n(Q[x]/x^N) = N for even n >= 0, else 0 (Loday 5.4.15)."""
    return n_power if n >= 0 and n % 2 == 0 else 0


def hn_trunc(n_power, n):
    """HN_n(Q[x]/x^N) = 1 for even n <= 0, N - 1 for odd n >= 1, else 0:
    Loday 5.4.15 with HP = (1, 0) in Connes' sequence."""
    if n <= 0:
        return 1 - n % 2
    return n_power - 1 if n % 2 else 0


@pytest.mark.parametrize("n_power", [1, 2, 3, 4, 5], ids=lambda n: f"T{n}")
def test_truncated_polynomials_match_loday(n_power):
    alg = build_truncated_polynomial_algebra(n_power) if n_power > 1 else Q
    degrees = range(-3, 5)
    assert cyclic_homology(alg, degrees).dims == {n: hc_trunc(n_power, n)
                                                  for n in degrees}
    assert negative_cyclic_homology(alg, degrees).dims == {n: hn_trunc(n_power, n)
                                                           for n in degrees}
    assert periodic_cyclic_homology(alg) == (1, 0)


def tensor(a, b):
    """a (x) b of two degree-0 algebras, on the basis a_i (x) b_j at index
    i b.dim + j."""
    n, mult = b.dim, {}
    cells = list(itertools.product(range(a.dim), range(n)))
    for (i, j), (k, l) in itertools.product(cells, repeat=2):
        col = {}
        for p, c in a.product(i, k).items():
            for q, e in b.product(j, l).items():
                chain_add(col, p * n + q, c * e)
        if col:
            mult[i * n + j, k * n + l] = col
    labels = [f"{u}.{v}" for u in a.labels for v in b.labels]
    return DgAlgebra(labels, [0] * len(labels), mult, name=f"{a.name}x{b.name}")


QI = DgAlgebra(["1", "i"], [0, 0], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                    (1, 1): {0: -1}}, name="Q(i)")
# a unit-first basis per dimension that mixes every coordinate
MIXED = {2: [[1, 0], [1, 2]],
         4: [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [-1, 0, 1, 2]]}


@pytest.mark.parametrize("build, hc, hn, hp", [
    (lambda: QI, [2, 0, 2, 0, 2], [2, 0, 0, 0, 0], (2, 0)),
    (lambda: tensor(QI, D), [4, 0, 4, 0, 4], [2, 2, 0, 2, 0], (2, 0)),
    (lambda: tensor(D, D), [4, 1, 5, 2, 6], [1, 3, 1, 4, 2], (1, 0)),
], ids=["Q(i)", "Q(i)[eps]", "T2xT2"])
@pytest.mark.parametrize("rebase", [False, True], ids=["natural", "mixed"])
def test_table_algebras_match_their_oracles(build, hc, hn, hp, rebase):
    """Q(i) is separable; Q(i)[eps] = Q(i) x T2 and T2 x T2 = Q[x,y]/(x^2, y^2)
    have HH = HH(Q(i)) x HH(T2) and HH(T2) x HH(T2) (Kuenneth), and HC per
    eps- or (x, y)-degree D != 0 is HH_n - HC_{n-1} (Goodwillie); h is 2, 2
    and 1.  The answers do not depend on the basis."""
    alg = build()
    if rebase:
        alg = rebased(alg, MIXED[alg.dim])
    degrees = range(0, 5)
    assert cyclic_homology(alg, degrees).as_tuple(degrees) == tuple(hc)
    assert negative_cyclic_homology(alg, degrees).as_tuple(degrees) == tuple(hn)
    assert periodic_cyclic_homology(alg) == hp


@pytest.mark.parametrize("build, grading, top, h", [
    (lambda: build_truncated_polynomial_algebra(4), [0, 1, 2, 3], 4, 1),
    (lambda: tensor(D, D), [0, 1, 1, 2], 4, 1),
    (lambda: tensor(D, T3), [0, 1, 2, 1, 2, 3], 3, 1),
    (lambda: cycle_square_zero(2), [0, 0, 1, 1], 4, 2),
    (lambda: cycle_square_zero(3), [0, 0, 0, 1, 1, 1], 3, 3),
], ids=["T4", "T2xT2", "T2xT3", "cycle2/rad^2", "cycle3/rad^2"])
def test_hc_matches_the_graded_oracle(build, grading, top, h):
    """HC of the Connes complex equals the B-free oracle of internal
    degrees, and HP = (h, 0), h the number of vertices or 1."""
    alg = build()
    degrees = range(top + 1)
    assert (cyclic_homology(alg, degrees).as_tuple(degrees)
            == tuple(graded_hc_oracle(alg, grading, top)))
    assert periodic_cyclic_homology(alg) == (h, 0)


@settings(max_examples=8, deadline=None)
@given(degree0_algebras())
def test_morita_invariance_of_hn(alg):
    """HN(M_2(A)) = HN(A), M_2(A) on its relative model."""
    degrees = range(-2, 3)
    assert (negative_cyclic_homology(matrices_over(alg, 2), degrees).dims
            == negative_cyclic_homology(alg, degrees).dims)


def engine_dims(alg, bar=25, hi=6):
    """HC, HN and HP in degrees 0..4 from the windowed t-complex of the
    reduction at one bar: HC_n the homology of the C[t^-1] window (-3, 0),
    HN_n and HP_n the image of H^{-n} of the window (lo, hi + j) in that of
    (lo, hi), checked equal at j = 1 and 2."""
    red = reduce_mixed_complex(chain_model_of(alg)[0], bar)

    def limit(lo, n):
        ranks = {red.induced_rank((lo, hi + j), (lo, hi), -n) for j in (1, 2)}
        assert len(ranks) == 1, (alg.name, lo, n, ranks)
        return ranks.pop()

    degrees = range(0, 5)
    return ({n: red.homology((-3, 0), -n).dim for n in degrees},
            {n: limit(0, n) for n in degrees}, (limit(-hi, 0), limit(-hi, 1)))


@pytest.mark.parametrize("alg", [D, M2, A2, kronecker_algebra(), QI],
                         ids=lambda a: a.name)
def test_exact_theories_agree_with_the_t_complex_engine(alg):
    """On models with at most 2 chains per weight, bar 25 reaches every
    window the engine reads, so it gives the exact answers."""
    degrees = range(0, 5)
    assert engine_dims(alg) == (cyclic_homology(alg, degrees).dims,
                                negative_cyclic_homology(alg, degrees).dims,
                                periodic_cyclic_homology(alg))


@settings(max_examples=25, deadline=None)
@given(degree0_algebras())
def test_exact_theories_on_generated_bases(alg):
    """The radical certificate holds, HC_0 = dim A/[A, A], and the exact
    HN, HP and HC pass the SBI rank check."""
    jac, h = radical(alg)
    assert 1 <= h <= alg.dim - len(jac)
    commutators = []
    for i, j in itertools.combinations(range(alg.dim), 2):
        comm = dict(alg.product(i, j))
        for k, c in alg.product(j, i).items():
            chain_add(comm, k, -c)
        commutators.append(comm)
    assert (cyclic_homology(alg, [0]).dims[0]
            == alg.dim - rank(from_columns(alg.dim, commutators)))
    ok, dims = sbi_consistent(alg, range(0, 3))
    assert ok, dims


def test_graded_algebra_is_rejected():
    ext = DgAlgebra(["1", "x"], [0, 1], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                         (1, 0): {1: 1}}, name="ext")
    for compute in (lambda: cyclic_homology(ext, range(3)),
                    lambda: negative_cyclic_homology(ext, range(3)),
                    lambda: periodic_cyclic_homology(ext)):
        with pytest.raises(ValueError, match="requires a degree-0 algebra"):
            compute()


@pytest.mark.parametrize("alg", [*FIVE, kronecker_algebra()], ids=lambda a: a.name)
def test_sbi_exactness_windowed(alg):
    assert all(sbi_exactness(alg, range(0, 5)).values())


def test_sbi_exactness_ignores_the_window():
    """The check reads the windows of the finite Connes complex, whatever
    t_window is given; the all-negative range the CLI accepts holds
    trivially, since Tot has no chains there."""
    verdicts = [sbi_exactness(D, range(0, 3), window) for window in ((-6, 6), (-1, 1), (1, 4))]
    assert verdicts == [{0: True, 1: True, 2: True}] * 3
    assert sbi_exactness(D, range(-3, 0)) == {-3: True, -2: True, -1: True}


def _double_connes_term(monkeypatch, cell):
    """Double the first term of hochschild.connes_terms on the flat chain
    (a0, word) = cell(algebra)."""
    real_terms = hochschild.connes_terms

    def corrupted_terms(algebra, a0, word, out_terms):
        scale = [2 if (a0, word) == cell(algebra) else 1]

        def out(key, c):
            out_terms(key, scale[0] * c)
            scale[0] = 1

        real_terms(algebra, a0, word, out)

    monkeypatch.setattr(hochschild, "connes_terms", corrupted_terms)


def _corrupt_connes(monkeypatch):
    """Double one weight-1 entry of B in both forms the one builder of a
    model's complex, hochschild._weight_graded_boundary, reads: in every
    connes_matrices it assembles (flat and relative models), and the first
    term of connes_terms on x^{N-1} | x, the weight-1 critical cell whose B
    the Morse model of Q[x]/x^N transfers to weight 2."""
    real = hochschild.connes_matrices

    def corrupted(model, spaces):
        b = real(model, spaces)
        if len(b) > 1:
            key = min(b[1].entries)
            b[1].entries[key] *= 2
        return b

    monkeypatch.setattr(hochschild, "connes_matrices", corrupted)
    _double_connes_term(monkeypatch, lambda algebra: (algebra.dim - 1, (1,)))


@pytest.mark.parametrize("build", [lambda: build_truncated_polynomial_algebra(3),
                                   lambda: build_matrix_algebra(2)], ids=["T3", "M2"])
@pytest.mark.parametrize("top", [2, 3])
def test_sbi_checks_see_a_broken_connes_operator(monkeypatch, build, top):
    """A doubled weight-1 entry of B makes d + B square to nonzero on Tot,
    so both checks raise rather than answer True (Morse T3, relative M2)."""
    _corrupt_connes(monkeypatch)
    for check in (sbi_exactness, sbi_consistent):
        with pytest.raises(CompositionNonzero):
            check(build(), range(0, top + 1))


@pytest.mark.parametrize("cell, raises", [((2, (1,)), True), ((1, (1,)), False),
                                         ((1, (2,)), False)], ids=["x^2|x", "x|x", "x|x^2"])
def test_morse_sbi_reads_b_on_its_support_only(monkeypatch, cell, raises):
    """On the Morse model of T3 = Q[x]/x^3 the SBI check reads B only
    through p B (h B)^k iota.  A B term doubled on the weight-1 flat chain
    x^2|x, which that series reads, makes the check raise; doubled on x|x or
    x|x^2 it goes unseen and the check answers True, the blind spot that
    sbi_exactness states."""
    _double_connes_term(monkeypatch, lambda algebra: cell)
    alg = build_truncated_polynomial_algebra(3)
    assert hochschild.homology_model_of(alg)[1] == {"kind": "morse"}
    if raises:
        with pytest.raises(CompositionNonzero):
            sbi_exactness(alg, range(3))
    else:
        assert sbi_exactness(alg, range(3)) == {0: True, 1: True, 2: True}


def test_sbi_checks_read_no_reduction_and_no_bar(monkeypatch):
    """Both checks run on the finite Connes complex: no reduction of the
    mixed complex and no bar bound anywhere in the call, also for T3 over
    0..8, beyond the bar the policy would give it."""
    def refuse(*args):
        raise AssertionError("reduction or bar bound reached")

    monkeypatch.setattr(cyclic, "reduce_mixed_complex", refuse)
    monkeypatch.setattr(cyclic, "default_bar_bound", refuse)
    assert all(sbi_exactness(build_truncated_polynomial_algebra(3), range(0, 9)).values())
    for alg in (build_truncated_polynomial_algebra(3), build_matrix_algebra(2)):
        assert all(sbi_exactness(alg, range(0, 3)).values())
        assert sbi_consistent(alg, range(0, 3))[0]


@pytest.mark.parametrize("alg", FIVE, ids=lambda a: a.name)
def test_sbi_dims_consistency(alg):
    ok, dims = sbi_consistent(alg, range(0, 3))
    assert ok, dims


def test_spectral_sequence_degeneration_verdicts():
    assert hodge_spectral_sequence(A2, (-6, 6), (0, 1)).degenerate_at_E1
    assert hodge_spectral_sequence(M2, (-6, 6), (0, 1)).degenerate_at_E1
    rep = hodge_spectral_sequence(D, (-6, 6), (0, 1))
    assert not rep.degenerate_at_E1
    # the nonzero d1 out of HH_0 is detected
    assert rep.d1_ranks[0, 0] == 1


def test_spectral_sequence_smooth_proper_sums():
    # degeneration instantiated: the E1 totals in the window equal HP
    for alg in (A2, M2):
        rep = hodge_spectral_sequence(alg, (-6, 6), (0, 1))
        for n in (0, 1):
            assert rep.e1_total(n) == rep.abutment[n]


def test_e2_bounded_by_e1_entrywise():
    for alg in (D, A2, M2):
        rep = hodge_spectral_sequence(alg, (-6, 6), (0, 1))
        for key, dim in rep.e2.items():
            assert 0 <= dim <= rep.e1[key], (alg.name, key)


def test_filtration_dims_present():
    rep = hodge_spectral_sequence(M2, (-6, 6), (0, 1))
    # F^0 HP_0 has the full class, deeper steps vanish for M2
    assert rep.filtration.get((0, 0)) == 1
    assert (5, 0) not in rep.filtration


def test_spectral_sequence_default_bar_reads_the_window(monkeypatch):
    """The pages and the filtration read windows up to hi only, so the
    default bar is default_bar_bound(algebra, max |n|, hi): flat Q[x]/x^2
    at (-6, 6) reduces at bar 16, and the report equals the one at bar 22,
    which asks for three more t-powers."""
    bars = []
    real = cyclic.reduce_mixed_complex

    def recording(algebra, bar_bound):
        bars.append(bar_bound)
        return real(algebra, bar_bound)

    monkeypatch.setattr(cyclic, "reduce_mixed_complex", recording)
    rep = hodge_spectral_sequence(build_truncated_polynomial_algebra(2), (-6, 6), (0, 1))
    assert bars == [16]
    assert rep == hodge_spectral_sequence(build_truncated_polynomial_algebra(2), (-6, 6),
                                          (0, 1), bar_bound=22)
    assert bars == [16, 22]


SS_BUILDS = {"Q": build_field, "T2": lambda: build_truncated_polynomial_algebra(2),
             "T3": lambda: build_truncated_polynomial_algebra(3), "A2": a2_quiver_algebra,
             "M2": lambda: build_matrix_algebra(2), "kron": kronecker_algebra}
SS_WINDOWS = [(-6, 6), (-2, 2), (-3, 1), (0, 3)]
SS_DEGREES = [(0, 1), (2, 3), (0, 1, 2, 3)]


def _oracle_mismatches(cx, windows, degrees):
    """The (window, r) at which cx.filtration_ranks, from one echelon,
    differs from the per-window oracle: the rank of H^r(F^i) -> H^r(window)
    from the homology of each window F^i = t^i .. t^hi
    (WindowedComplex.induced_rank), for every i."""
    return [((lo, hi), r) for (lo, hi), r in itertools.product(windows, degrees)
            if cx.filtration_ranks((lo, hi), r)
            != {i: cx.induced_rank((i, hi), (lo, hi), r) for i in range(lo, hi + 1)}]


def _filtration_mismatches(alg):
    """The mismatches with the per-window oracle in the 12 spectral reports
    of alg, whose reductions carry t^1 blocks only, and in every window of
    Tot of its finite Connes complexes for HC_0..HC_3, on the model HC
    reads and on the flat one, where d sits at t^0."""
    out = []
    for (lo, hi), degrees in itertools.product(SS_WINDOWS, SS_DEGREES):
        rep = hodge_spectral_sequence(alg, (lo, hi), degrees)
        red = reduce_mixed_complex(chain_model_of(alg)[0], cyclic.default_bar_bound(
            alg, max(degrees), hi))
        oracle = {(i, n): rk for n in degrees for i in range(lo, hi + 1)
                  if (rk := red.induced_rank((i, hi), (lo, hi), -n))}
        if rep.filtration != oracle:
            out.append(("report", (lo, hi), degrees))
    for model in {hochschild.homology_model_of(alg)[0], alg}:
        cx, (bottom, top) = cyclic._connes_complex(model, 3)
        windows = [(lo, hi) for lo in range(bottom, top + 1) for hi in range(lo, top + 1)]
        out += _oracle_mismatches(cx, windows, range(-3, 1))
    return out


@pytest.mark.parametrize("name", SS_BUILDS)
def test_filtration_matches_the_per_window_oracle(name):
    """The filtration ranks of one echelon per degree equal those of one
    window homology per t-power: 12 spectral reports per algebra, 72 in
    all, and every window and degree of its Connes complex."""
    assert _filtration_mismatches(SS_BUILDS[name]()) == []


def _odd_to_even_complex(dim, d10, b12, d32):
    """A WindowedComplex with dim generators at each of the weights 0..3 and
    blocks {(row, col): value} from odd weights to even ones only, so it
    squares to zero: d10 (weight 1 to 0) and d32 (3 to 2) at t^0, b12 (1 to
    2) at t^1.  Both its cycles and its boundaries may join two t-powers."""
    return cyclic.WindowedComplex([dim] * 4, {(0, 1, 0): d10, (1, 1, 2): b12, (0, 3, 2): d32})


def test_filtration_where_a_cycle_spans_two_t_powers():
    """a at weight 3, t^0 and c at weight 1, t^-1 both map to the weight-2
    generator at t^0, so a - c is a cycle of the window (-1, 0) at degree
    -3 that reaches t^0 with no cycle in F^0 = t^0: the class lies in F^-1
    and not in F^0."""
    cx = _odd_to_even_complex(1, {}, {(0, 0): 1}, {(0, 0): 1})
    assert cx.filtration_ranks((-1, 0), -3) == {-1: 1, 0: 0}
    assert _oracle_mismatches(cx, [(-1, 0)], [-3]) == []


def test_filtration_where_a_boundary_spans_two_t_powers():
    """y at weight 1, t^-1 bounds q + p, q at weight 0, t^-1 and p at
    weight 2, t^0, so in the window (-1, 0) at degree -2 the cycle q is
    homologous to p, which lies in F^0: the one class is in F^0.  Added
    from t^-1 up, q would grow the span first and leave p none."""
    cx = _odd_to_even_complex(1, {(0, 0): 1}, {(0, 0): 1}, {})
    assert cx.filtration_ranks((-1, 0), -2) == {-1: 1, 0: 1}
    assert _oracle_mismatches(cx, [(-1, 0)], [-2]) == []


def _blocks(entries):
    return {(i, j): v for i, j, v in entries if v}


BLOCK_ENTRIES = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
                         max_size=5)


@settings(max_examples=100, deadline=None)
@given(BLOCK_ENTRIES, BLOCK_ENTRIES, BLOCK_ENTRIES)
def test_filtration_ranks_on_random_odd_to_even_complexes(d10, b12, d32):
    """On random complexes of _odd_to_even_complex, whose cycles and
    boundaries join t-powers, the ranks of one echelon equal the per-window
    oracle."""
    cx = _odd_to_even_complex(3, _blocks(d10), _blocks(b12), _blocks(d32))
    windows = [(lo, hi) for lo in range(-2, 2) for hi in range(lo, 2)]
    assert _oracle_mismatches(cx, windows, range(-5, 2)) == []


def test_filtration_oracle_sees_cycles_from_the_wrong_end(monkeypatch):
    """With each window's t-powers listed falling, the pass reads its
    cycles from the wrong end of the filtration, since it takes the
    reversed coordinates to fall in t: a - c of
    test_filtration_where_a_cycle_spans_two_t_powers then counts at t^0.
    The oracle's ranks do not depend on the order."""
    real = TruncatedLaurentComplex.offsets

    def falling(self, r):
        out, n = real(self, r)
        at = itertools.accumulate((self.weight_dims[m] for m, _ in reversed(out)), initial=0)
        return dict(zip(reversed(out), at)), n

    monkeypatch.setattr(TruncatedLaurentComplex, "offsets", falling)
    cx = _odd_to_even_complex(1, {}, {(0, 0): 1}, {(0, 0): 1})
    assert cx.filtration_ranks((-1, 0), -3) == {-1: 1, 0: 1}
    assert _oracle_mismatches(cx, [(-1, 0)], [-3]) == [((-1, 0), -3)]


def _parts(k):
    """The C((t)), C[[t]] and C[t^-1] parts of the t-window [-k, k]."""
    return (-k, k), (0, k), (-k, 0)


def test_square_zero_on_truncations():
    for alg in (Q, D):
        red = reduce_mixed_complex(alg, 10)
        for window in _parts(4):
            assert is_square_zero(red.truncation(window), range(-6, 7))
        direct = TruncatedLaurentComplex(*direct_blocks(alg, 8), (-3, 3))
        assert is_square_zero(direct, range(-5, 6))


def test_reduced_matches_direct_windowed_dims():
    """Dual route: the transferred complex and the raw chain-level t-complex
    give the same windowed homology dims (dual numbers and the field)."""
    for alg in (Q, D):
        red = reduce_mixed_complex(alg, 12)
        dims, blocks = direct_blocks(alg, 12)
        for window in _parts(3):
            rcx = red.truncation(window)
            dcx = TruncatedLaurentComplex(dims, blocks, window)
            for r in range(-4, 5):
                assert rcx.homology(r).dim == dcx.homology(r).dim, (alg.name, window, r)


@pytest.mark.parametrize("alg", [Q, D], ids=lambda a: a.name)
def test_negative_bar_bound_rejected(alg):
    with pytest.raises(ValueError, match="bar bound must be >= 0"):
        reduce_mixed_complex(alg, -1)
    assert reduce_mixed_complex(alg, 0).h_dims == [alg.dim]


@pytest.mark.parametrize("alg", [Q, D, M2], ids=lambda a: a.name)
def test_bar_policy_with_no_t_power_floors_at_zero(alg):
    """With no t-power the policy gives max_degree + 2, the bar the
    first-order period matrix reads, and never a bar below 0: HH_n = 0 for
    n < 0."""
    assert [cyclic.default_bar_bound(alg, n, -1) for n in range(-5, 5)] == [
        0, 0, 0, 0, 1, 2, 3, 4, 5, 6]


@st.composite
def induced_rank_cases(draw):
    """A boundary basis and images in Q^n; some images are combinations of
    boundaries and earlier images, so both outcomes of a span test occur."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.fractions(min_value=-4, max_value=4,
                                               max_denominator=3))
    vec = st.lists(entry, min_size=n, max_size=n)
    bnd = draw(st.lists(vec, max_size=4))
    images = []
    for _ in range(draw(st.integers(0, 5))):
        if (bnd or images) and draw(st.booleans()):
            pool = bnd + images
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(pool),
                                   max_size=len(pool)))
            images.append([sum(c * row[i] for c, row in zip(coeffs, pool))
                           for i in range(n)])
        else:
            images.append(draw(vec))
    return n, bnd, images


@settings(max_examples=200, deadline=None)
@given(induced_rank_cases())
def test_induced_rank_against_dense_oracle(case):
    n, bnd, images = case

    def sparse(row):
        return {i: v for i, v in enumerate(row) if v}

    h = SubquotientBasis(ambient_dim=n, boundary_basis=[sparse(r) for r in bnd])
    ranks = [len(dense_rref_oracle(bnd + images[:k], n)[0]) for k in range(len(images) + 1)]
    assert _induced_rank(h, [sparse(r) for r in images]) == [
        after > before for before, after in zip(ranks, ranks[1:])]


def _typed(x):
    """x with every number replaced by (type, value) and every dict by its
    sorted items: equal exactly when x agrees by value and by type."""
    if isinstance(x, dict):
        return sorted((_typed(k), _typed(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [_typed(v) for v in x]
    if isinstance(x, (int, Fraction)):
        return type(x).__name__, x
    return x


def _reduction_data(red):
    return _typed([
        red.bar_bound, red.h_dims, red.spaces, [m.entries for m in red.b_mats],
        [(m.rows, m.cols) for m in red.b_mats],
        [(s.dim, s.reps, s.proj_rows, s.hmty_cols) for s in red.sdr], red.transfer,
    ])


@pytest.mark.parametrize("build, bars", [
    (lambda: build_matrix_algebra(2), (6, 4, 3)),
    (lambda: build_truncated_polynomial_algebra(2), (25, 22)),
    (lambda: build_matrix_algebra(2).peirce(), (23, 6, 3)),
], ids=["M2", "T2", "M2-relative"])
def test_reductions_are_kept_per_bar_and_equal_fresh_builds(monkeypatch, build, bars):
    """Each bar asked of one model builds one SDR, kept on the model, so
    asking it again builds nothing; a bar below a kept one and a larger bar
    asked for later equal fresh reductions."""
    calls = []

    def counting(dims, diffs):
        calls.append(len(dims) - 1)
        return real(dims, diffs)

    real = cyclic.complex_sdr
    monkeypatch.setattr(cyclic, "complex_sdr", counting)
    alg = build()
    reds = [reduce_mixed_complex(alg, bar) for bar in bars]
    assert all(reduce_mixed_complex(alg, bar) is red for bar, red in zip(bars, reds))
    assert calls == list(bars)
    for bar, red in zip(bars, reds):
        assert _reduction_data(red) == _reduction_data(reduce_mixed_complex(build(), bar))
    small, large = bars[-1], bars[-1] + 1
    alg = build()
    reduce_mixed_complex(alg, small)
    grown = reduce_mixed_complex(alg, large)
    assert _reduction_data(grown) == _reduction_data(reduce_mixed_complex(build(), large))
