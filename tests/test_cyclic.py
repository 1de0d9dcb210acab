from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import direct_blocks, is_square_zero
from test_exactlin import dense_rref_oracle

from ncperiod.algebra import (
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_truncated_polynomial_algebra,
)
from ncperiod import cyclic
from ncperiod.cyclic import (
    NotStabilized,
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
from ncperiod.exactlin import SubquotientBasis

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
    # the nontrivial non-degenerate case; needs the completion semantics
    assert periodic_cyclic_homology(D, (-6, 6)) == (1, 0)


def test_hp_dual_numbers_not_stabilized_with_tiny_budget():
    with pytest.raises(NotStabilized):
        periodic_cyclic_homology(D, (-6, 6), max_extra=1)


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


@pytest.mark.parametrize("alg", FIVE, ids=lambda a: a.name)
def test_sbi_exactness_windowed(alg):
    assert all(sbi_exactness(alg, range(0, 3)).values())


def test_sbi_exactness_window_above_zero():
    # with lo > 0 the C[[t]]-part is the whole window and the quotient is zero
    assert sbi_exactness(D, range(0, 3), (1, 4)) == {0: True, 1: True, 2: True}


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
    # degeneration instantiated: windowed E1 totals equal windowed HP dims
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
    want = (len(dense_rref_oracle(bnd + images, n)[0])
            - len(dense_rref_oracle(bnd, n)[0]))
    assert _induced_rank(h, [sparse(r) for r in images]) == want


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
def test_smaller_bars_are_cut_from_the_cached_reduction(monkeypatch, build, bars):
    """A bar below a cached one builds no SDR and equals a fresh reduction;
    a larger bar asked for later still gives the fresh answer."""
    calls = []

    def counting(dims, diffs):
        calls.append(len(dims) - 1)
        return real(dims, diffs)

    real = cyclic.complex_sdr
    monkeypatch.setattr(cyclic, "complex_sdr", counting)
    alg = build()
    reds = [reduce_mixed_complex(alg, bar) for bar in bars]
    assert calls == [bars[0]]
    for bar, red in zip(bars, reds):
        assert _reduction_data(red) == _reduction_data(reduce_mixed_complex(build(), bar))
    small, large = bars[-1], bars[-1] + 1
    alg = build()
    reduce_mixed_complex(alg, small)
    grown = reduce_mixed_complex(alg, large)
    assert _reduction_data(grown) == _reduction_data(reduce_mixed_complex(build(), large))
