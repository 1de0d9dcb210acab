import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    degree0_algebras,
    full_pivot_columns,
    greedy_homology_reps,
    member,
    transpose,
)
from ncperiod import cyclic, exactlin
from ncperiod.algebra import (
    a2_quiver_algebra,
    build_matrix_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
)
from ncperiod.cyclic import boundary_matrices, chain_spaces
from ncperiod.exactlin import (
    CompositionNonzero,
    IncrementalSpan,
    SparseMatrix,
    _rref_rows,
    chain_add,
    complex_sdr,
    express_in_homology,
    from_columns,
    homology_at,
    rank,
    rref,
    solve,
)
from ncperiod.hochschild import flat_hochschild_homology


def dense_rref_oracle(rows, ncols):
    """Plain Gauss-Jordan on a list-of-lists copy (independent path).

    Returns (pivot columns, nonzero RREF rows as sparse dicts)."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    r = 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots, [{j: x for j, x in enumerate(row) if x} for row in m[:r]]


def sparse_from_rows(rows, nc=None):
    nr = len(rows)
    if nc is None:
        nc = len(rows[0]) if rows else 0
    m = SparseMatrix(nr, nc)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                m[i, j] = Fraction(v)
    return m


def test_rref_identity():
    m = sparse_from_rows([[1, 0], [0, 1]])
    rk, kernel, pivots = rref(m)
    assert rk == 2
    assert kernel == []
    assert pivots == [0, 1]


def test_rref_one_by_two():
    m = sparse_from_rows([[1, 1]])
    rk, kernel, _ = rref(m)
    assert rk == 1
    assert len(kernel) == 1
    v = kernel[0]
    # spanned by (1, -1) up to scale
    assert v[0] == -v[1] and v[1]
    assert m.matvec(v) == {}


def test_rref_random_against_dense_oracle():
    rng = random.Random(20260809)
    for _ in range(25):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
            for _ in range(5)
        ]
        m = sparse_from_rows(rows)
        rk, kernel, _ = rref(m)
        assert rk == len(dense_rref_oracle(rows, 7)[0])
        assert rk + len(kernel) == 7
        for v in kernel:
            assert m.matvec(v) == {}
        assert rank(m) == rank(transpose(m))


def test_rref_insertion_order_independence():
    entries = [((0, 1), Fraction(2)), ((1, 0), Fraction(3)), ((1, 2), Fraction(-1)),
               ((0, 0), Fraction(1))]
    m1 = SparseMatrix(2, 3)
    for k, v in entries:
        m1[k] = v
    m2 = SparseMatrix(2, 3)
    for k, v in reversed(entries):
        m2[k] = v
    assert rref(m1) == rref(m2)


def test_empty_matrix():
    m = SparseMatrix(0, 0)
    rk, kernel, pivots = rref(m)
    assert (rk, kernel, pivots) == (0, [], [])


def test_solve_and_member():
    m = sparse_from_rows([[1, 2], [0, 1]])
    x = solve(m, {0: Fraction(5), 1: Fraction(2)})
    assert m.matvec(x) == {0: Fraction(5), 1: Fraction(2)}
    assert solve(sparse_from_rows([[1, 0], [0, 0]]), {1: Fraction(1)}) is None
    assert member([{0: Fraction(1)}, {1: Fraction(1)}], {0: Fraction(3), 1: Fraction(-2)})
    assert not member([{0: Fraction(1)}], {1: Fraction(1)})


def test_homology_zero_maps():
    z_in = SparseMatrix(3, 0)
    z_out = SparseMatrix(0, 3)
    sub = homology_at(z_in, z_out)
    assert sub.dim == 3 == sub.ambient_dim


def test_homology_identity_in():
    d_in = sparse_from_rows([[1, 0], [0, 1]])
    d_out = SparseMatrix(0, 2)
    assert homology_at(d_in, d_out).dim == 0


def test_homology_two_periodic_dual_numbers():
    # Q[x]/(x^2) tensored small complex: ... -> D --0--> D --2x--> D
    # at an even spot: d_in = multiplication by 2x, d_out = 0.
    # In the basis {1, x}: 2x * 1 = 2x, 2x * x = 0.
    mult_2x = sparse_from_rows([[0, 0], [2, 0]])
    zero = SparseMatrix(2, 2)
    sub = homology_at(mult_2x, zero)
    assert sub.dim == 1
    # and at an odd spot: d_in = 0, d_out = 2x: ker is span{x}, no boundaries
    sub2 = homology_at(zero, mult_2x)
    assert sub2.dim == 1


def test_homology_composition_check():
    d_in = sparse_from_rows([[1], [0]])
    d_out = sparse_from_rows([[1, 0]])
    with pytest.raises(CompositionNonzero):
        homology_at(d_in, d_out)


def test_express_in_homology():
    mult_2x = sparse_from_rows([[0, 0], [2, 0]])
    zero = SparseMatrix(2, 2)
    sub = homology_at(mult_2x, zero)
    coords = express_in_homology(sub, {0: Fraction(1), 1: Fraction(7)})
    assert coords is not None
    rec = {}
    for k, c in coords.items():
        for i, v in sub.homology_reps[k].items():
            rec[i] = rec.get(i, 0) + c * v
    # class of (1, 7x) equals class of 1 (x is a boundary here)
    assert rec.get(0, 0) == 1


def _typed(vecs):
    return [[(k, type(c), c) for k, c in v.items()] for v in vecs]


def _assert_greedy_reps(sub):
    """The homology reps are the greedy choice of the incremental-span oracle,
    in the same order and with the same types."""
    want = greedy_homology_reps(sub.boundary_basis, sub.cycle_basis)
    assert _typed(sub.homology_reps) == _typed(want)
    assert len(sub.homology_reps) == len(sub.cycle_basis) - len(sub.boundary_basis)


@st.composite
def integer_complexes(draw):
    """(d_in, d_out) with d_out . d_in = 0 over the integers: d_in has zero,
    repeated and scaled columns; the rows of d_out are integer combinations
    of a left-kernel basis of d_in, so d_out can be zero, of full rank on
    the cokernel, or anything between."""
    x, y = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    cols = [draw(st.lists(entry, min_size=y, max_size=y)) for _ in range(x)]
    if cols:
        for j in draw(st.lists(st.integers(0, x - 1), max_size=2)):
            c = draw(st.sampled_from([1, -2, 3]))
            cols.append([c * v for v in cols[j]])
        cols = draw(st.permutations(cols))
    d_in = SparseMatrix(y, len(cols), {(i, j): v for j, col in enumerate(cols)
                                       for i, v in enumerate(col)})
    _, left_kernel, _ = rref(transpose(d_in))
    left_kernel = [{i: v * lcm(*(w.denominator for w in u.values())) for i, v in u.items()}
                   for u in left_kernel]
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = {}
        for c, u in zip(draw(st.lists(entry, min_size=len(left_kernel),
                                      max_size=len(left_kernel))), left_kernel):
            for i, v in u.items():
                chain_add(row, i, c * v)
        rows.append(row)
    d_out = SparseMatrix(len(rows), y, {(r, i): v for r, row in enumerate(rows)
                                        for i, v in row.items()})
    return d_in, d_out


@settings(max_examples=300, deadline=None)
@given(integer_complexes())
def test_homology_reps_match_greedy_oracle(case):
    d_in, d_out = case
    assert d_out.compose(d_in).is_zero()
    _assert_greedy_reps(homology_at(d_in, d_out))


@pytest.mark.parametrize("build, top", [
    (lambda: build_matrix_algebra(2), 5),
    (lambda: build_truncated_polynomial_algebra(3), 6),
    (lambda: build_truncated_polynomial_algebra(4), 6),
    (a2_quiver_algebra, 6),
    (kronecker_algebra, 6),
], ids=["M2", "T3", "T4", "A2", "kron"])
def test_homology_reps_match_greedy_oracle_on_bar_complexes(build, top):
    """On the flat complex, named explicitly: M2, A2 and the Kronecker quiver
    would otherwise run on the complex relative to their idempotents."""
    hh = flat_hochschild_homology(build(), range(top))
    for sub in hh.spots.values():
        _assert_greedy_reps(sub)


def test_incremental_span_determinism():
    span = IncrementalSpan()
    assert span.add({0: Fraction(1), 1: Fraction(1)})
    assert span.add({1: Fraction(1)})
    assert not span.add({0: Fraction(2), 1: Fraction(5)})
    assert span.dim == 2


def test_complex_sdr_on_periodic_complex():
    # spots 0..3 of the 2-periodic dual-numbers complex, maps 0, 2x, 0, 2x, 0
    mult = sparse_from_rows([[0, 0], [2, 0]])
    zero = SparseMatrix(2, 2)
    dims = [2, 2, 2, 2]
    diffs = [None, zero, mult, zero, mult]
    sdr = complex_sdr(dims, diffs)
    assert [len(s.reps) for s in sdr] == [2, 1, 1, 1]
    # d h + h d = 1 - iota p checked matrix-wise at interior spots
    for n in (1, 2):
        d_n = diffs[n]
        d_up = diffs[n + 1]
        hmty_n = from_columns(dims[n + 1], sdr[n].hmty_cols)
        hmty_dn = from_columns(dims[n], sdr[n - 1].hmty_cols)
        lhs = from_columns(dims[n], d_up.compose(hmty_n).columns())
        for j, col in enumerate(hmty_dn.compose(d_n).columns()):
            for i, v in col.items():
                lhs.add_to(i, j, v)
        iota = from_columns(dims[n], sdr[n].reps)
        proj = SparseMatrix(len(sdr[n].proj_rows), dims[n])
        for i, row in enumerate(sdr[n].proj_rows):
            for j, v in row.items():
                proj[i, j] = v
        ip = iota.compose(proj)
        for j in range(dims[n]):
            for i in range(dims[n]):
                expect = (1 if i == j else 0) - ip[i, j]
                assert lhs[i, j] == expect


@st.composite
def rational_matrices(draw):
    """Small sparse rational matrices with denominators, zero rows and
    columns, duplicate and scaled rows; 0 x n and n x 0 shapes included."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-6, max_value=6, max_denominator=7),
    )
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for j in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)):
        for row in rows:
            if j < ncols:
                row[j] = Fraction(0)
    if rows:
        for i in draw(st.lists(st.integers(0, nrows - 1), max_size=3)):
            c = draw(st.sampled_from([1, -1, 2, Fraction(-3, 5)]))
            rows.append([c * x for x in rows[i]])
        rows = draw(st.permutations(rows))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_echelon_kernel_against_dense_oracle(case):
    rows, ncols = case
    m = sparse_from_rows(rows, ncols)
    pivots, pivot_rows = _rref_rows(m.row_lists())
    assert (pivots, pivot_rows) == dense_rref_oracle(rows, ncols)
    rk, kernel, rpivots = rref(m)
    for vec in pivot_rows + kernel:
        for v in vec.values():
            assert type(v) is (int if v.denominator == 1 else Fraction)
    assert (rk, rpivots) == (len(pivots), pivots)
    assert rank(m) == rk == rank(transpose(m))
    assert rk + len(kernel) == ncols
    for v in kernel:
        assert m.matvec(v) == {}
    span = IncrementalSpan()
    grew = [span.add(r) for r in m.row_lists()]
    prefix_ranks = [len(dense_rref_oracle(rows[:k], ncols)[0]) for k in range(len(rows) + 1)]
    assert grew == [b > a for a, b in zip(prefix_ranks, prefix_ranks[1:])]
    assert span.dim == rk


@st.composite
def product_pairs(draw):
    """(A, B, shape) with A l x m and B m x n small exact matrices whose
    products cancel often: entries are 0 or a few values and their negatives,
    all ints or ints mixed with Fractions that have a denominator."""
    l, m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    values = draw(st.sampled_from([
        [1, -1, 2, -2], [1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3)]]))
    entry = st.sampled_from([0, 0] + values)
    a = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(l)]
    b = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    return a, b, (l, m, n)


@settings(max_examples=200, deadline=None)
@given(product_pairs())
def test_compose_and_matvec_against_dense_product(case):
    """SparseMatrix.compose and matvec, both through the one sparse apply,
    give the dense product, store no zero entry (cancelled sums included)
    and keep integral values of integer inputs as ints."""
    a, b, (l, m, n) = case
    dense = [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(n)]
             for i in range(l)]
    want = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    A, B = (SparseMatrix(len(x), nc, {(i, j): v for i, row in enumerate(x)
                                      for j, v in enumerate(row)})
            for x, nc in ((a, m), (b, n)))
    got = A.compose(B)
    assert (got.rows, got.cols) == (l, n)
    assert got.entries == want
    all_int = all(type(v) is int for row in a + b for v in row)
    for j in range(n):
        vec = A.matvec({k: b[k][j] for k in range(m)})  # zeros in the input too
        assert vec == {i: v for (i, jj), v in want.items() if jj == j}
        if all_int:
            assert all(type(v) is int for v in vec.values())
    if all_int:
        assert all(type(v) is int for v in got.entries.values())


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        rref(SparseMatrix(1, 2, {(0, 0): 1, (0, 1): 0.5}))
    with pytest.raises(TypeError):
        IncrementalSpan().add({0: Fraction(1, 3), 2: 2.5})


def _rows_matrix(ncols, rows):
    m = SparseMatrix(len(rows), ncols)
    for i, row in enumerate(rows):
        for j, v in row.items():
            m[i, j] = v
    return m


def _sum(*mats):
    out = SparseMatrix(mats[0].rows, mats[0].cols)
    for m in mats:
        for (i, j), v in m.entries.items():
            out.add_to(i, j, v)
    return out


def _is_identity(m):
    return m.rows == m.cols and m.entries == {(i, i): 1 for i in range(m.rows)}


@pytest.mark.parametrize("build, bar, h_everywhere", [
    (lambda: build_matrix_algebra(2), 4, False),
    (lambda: build_truncated_polynomial_algebra(3), 6, True),
    (lambda: build_truncated_polynomial_algebra(4), 5, True),
    (a2_quiver_algebra, 6, False),
    (kronecker_algebra, 4, False),
], ids=["M2", "T3", "T4", "A2", "kron"])
def test_complex_sdr_identities_on_bar_complexes(build, bar, h_everywhere):
    """All five SDR identities at every spot of a real bar complex.

    They pin p and h down uniquely for the B + H + N splitting, and h must
    vanish on N, the unit vectors of the pivot columns of rref(d_n).  T4 has
    homology at every spot, so there p has rows everywhere."""
    alg = build()
    spaces = chain_spaces(alg, bar + 1)
    dims = [len(s) for s in spaces]
    d = boundary_matrices(alg, spaces)
    d[0] = SparseMatrix(0, dims[0])
    sdr = complex_sdr(dims[: bar + 1], d)
    if h_everywhere:
        assert all(s.proj_rows for s in sdr)
    h = [from_columns(dims[n + 1], s.hmty_cols) for n, s in enumerate(sdr)]
    iota = [from_columns(dims[n], s.reps) for n, s in enumerate(sdr)]
    p = [_rows_matrix(dims[n], s.proj_rows) for n, s in enumerate(sdr)]
    for n in range(bar + 1):
        dh_hd = [d[n + 1].compose(h[n])] + ([h[n - 1].compose(d[n])] if n else [])
        assert _is_identity(_sum(*dh_hd, iota[n].compose(p[n])))   # dh + hd = 1 - ip
        assert _is_identity(p[n].compose(iota[n]))                  # p i = 1
        assert h[n].compose(iota[n]).is_zero()                      # h i = 0
        if n < bar:
            assert h[n + 1].compose(h[n]).is_zero()                 # h h = 0
            assert p[n + 1].compose(h[n]).is_zero()                 # p h = 0
        if n:
            _, _, pivots = rref(d[n])
            assert all(not sdr[n].hmty_cols[j] for j in pivots)


# -- the top differential eliminated on its cycle coordinates ----------------------


def _walk_and_sdr(alg, bar):
    """Every output of the walk that complex_sdr makes down from spot bar of
    the bar complex, and every SpotSDR field, with the type of each entry."""
    spaces = chain_spaces(alg, bar + 1)
    d = boundary_matrices(alg, spaces)
    walk, real_walk = [], exactlin._walk

    def spy(maps):
        for cycles, bnd, reps, piv, free in real_walk(maps):
            walk.append((_typed(cycles), _typed(bnd), _typed(reps), piv, free))
            yield cycles, bnd, reps, piv, free

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "_walk", spy)
        sdr = complex_sdr([len(s) for s in spaces[: bar + 1]], d)
    return walk, [(s.dim, _typed(s.reps), _typed(s.proj_rows), _typed(s.hmty_cols))
                  for s in sdr]


def assert_free_row_walk_matches_full(alg, bar):
    """The walk that echelonizes the top differential on the free rows of
    the next one gives the same top pivots, boundaries, homology reps and
    SDR as the walk that echelonizes all of it (conftest.full_pivot_columns),
    by value and by type."""
    got = _walk_and_sdr(alg, bar)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "_pivot_columns", full_pivot_columns)
        want = _walk_and_sdr(alg, bar)
    assert len(got[0]) == bar + 1
    assert got == want


@pytest.mark.parametrize("build", [
    lambda: build_matrix_algebra(2), lambda: build_truncated_polynomial_algebra(3),
    lambda: build_truncated_polynomial_algebra(4), a2_quiver_algebra, kronecker_algebra,
], ids=["M2", "T3", "T4", "A2", "kron"])
def test_free_row_walk_matches_full_on_bar_complexes(build):
    alg = build()
    for bar in range(7):
        assert_free_row_walk_matches_full(alg, bar)


@settings(max_examples=12, deadline=None)
@given(degree0_algebras(), st.integers(0, 4))
def test_free_row_walk_matches_full_on_generated_algebras(alg, bar):
    assert_free_row_walk_matches_full(alg, bar)


def _flip_top_entry(d, top):
    """Negate one entry of d[top] at a row where d[top - 1] has a nonzero
    column, so that d[top - 1] . d[top] is no longer zero."""
    live = {j for _, j in d[top - 1].entries}
    key = min(k for k in d[top].entries if k[0] in live)
    d[top].entries[key] = -d[top].entries[key]
    assert not d[top - 1].compose(d[top]).is_zero()
    return d


def test_complex_sdr_checks_the_top_pair(monkeypatch):
    """complex_sdr eliminates d_{W+1} on the free rows of d_W only, which is
    exact only when d_W . d_{W+1} = 0: a flipped entry of d_{W+1} raises
    CompositionNonzero, from complex_sdr and through reduce_mixed_complex."""
    bar = 3
    alg = build_truncated_polynomial_algebra(3)
    spaces = chain_spaces(alg, bar + 1)
    dims = [len(s) for s in spaces[: bar + 1]]
    with pytest.raises(CompositionNonzero):
        complex_sdr(dims, _flip_top_entry(boundary_matrices(alg, spaces), bar + 1))
    real_bm = cyclic.boundary_matrices
    monkeypatch.setattr(cyclic, "boundary_matrices",
                        lambda *args: _flip_top_entry(real_bm(*args), bar + 1))
    with pytest.raises(CompositionNonzero):
        cyclic.reduce_mixed_complex(alg, bar)
