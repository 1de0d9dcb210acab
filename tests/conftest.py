import itertools
from fractions import Fraction

from hypothesis import strategies as st

from ncperiod.algebra import (
    DgAlgebra,
    a2_quiver_algebra,
    build_matrix_algebra,
    build_path_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
)
from ncperiod.coeff import slot_coordinates
from ncperiod.deform import MCElement
from ncperiod.exactlin import (
    IncrementalSpan,
    SparseMatrix,
    _echelon,
    _int_row,
    chain_add,
    rref,
)
from ncperiod.hochschild import (
    Cochain,
    CochainBasis,
    _cochain_diff_matrix,
    boundary_matrices,
    chain_spaces,
    connes_matrices,
    structure_as_cochain,
)
from ncperiod.period import _op_of


def transpose(m):
    """The transpose of a SparseMatrix."""
    return SparseMatrix(m.cols, m.rows,
                        {(j, i): v for (i, j), v in m.entries.items()})


def greedy_homology_reps(boundaries, cycles):
    """The cycles not in the span of the boundaries and the cycles before
    them, one incremental span insertion per vector: the oracle for
    exactlin._homology_reps."""
    span = IncrementalSpan()
    for v in boundaries:
        span.add(v)
    return [v for v in cycles if span.add(v)]


def full_pivot_columns(m, rows=None):
    """The pivot columns of m from a forward echelon of all of its rows,
    rows being ignored: the full-matrix reference for the free-row
    elimination of the top differential in exactlin._walk."""
    return sorted(_echelon([_int_row(r) for r in m.row_lists()]))


def direct_blocks(algebra, bar_bound):
    """(weight dims, blocks) of the unreduced mixed complex in the format of
    cyclic.perturbation_transfer: d_m at (0, m, m-1) and B_m at (1, m, m+1)."""
    spaces = chain_spaces(algebra, bar_bound + 1)
    diffs = boundary_matrices(algebra, spaces)
    b_mats = connes_matrices(algebra, spaces[: bar_bound + 1])
    blocks = {(0, m, m - 1): diffs[m].entries for m in range(1, bar_bound + 1)}
    blocks.update({(1, m, m + 1): b_mats[m].entries for m in range(bar_bound)})
    return [len(s) for s in spaces[: bar_bound + 1]], blocks


def is_square_zero(cx, degrees):
    """Does the differential of a TruncatedLaurentComplex square to zero at
    each of the degrees?"""
    return all(cx.differential(r + 1).compose(cx.differential(r)).is_zero()
               for r in degrees)


def _inverse(m):
    """The inverse of a square matrix of Fractions (Gauss-Jordan)."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [v - a[r][c] * w for v, w in zip(a[r], a[c])]
    return [row[n:] for row in a]


def rebased(alg, rows):
    """alg in the basis 1, v_1, .., v_{dim-1}, v_i = sum_j rows[i][j] b_j:
    rows[0] must be the unit vector of b_0 and the matrix invertible."""
    inv = _inverse([[Fraction(v) for v in row] for row in rows])
    mult = {}
    for i, j in itertools.product(range(alg.dim), repeat=2):
        old = {}
        for a, b in itertools.product(range(alg.dim), repeat=2):
            for k, c in alg.product(a, b).items():
                old[k] = old.get(k, 0) + rows[i][a] * rows[j][b] * c
        new = {t: sum(old.get(k, 0) * inv[k][t] for k in range(alg.dim))
               for t in range(alg.dim)}
        mult[i, j] = {t: v for t, v in new.items() if v}
    return DgAlgebra([f"v{i}" for i in range(alg.dim)], alg.degrees, mult,
                     name=f"{alg.name}:rebased")


BASES = [build_truncated_polynomial_algebra(n) for n in (2, 3, 4)] + [
    a2_quiver_algebra(), kronecker_algebra(), build_matrix_algebra(2),
    build_path_algebra([1, 2, 3], [("f", 1, 2)])]


@st.composite
def degree0_algebras(draw):
    """A builder algebra of dimension <= 4 in a random basis 1, v_1, ..:
    v_i = c_i 1 + (L D U)_i with L, U unitriangular and D diagonal in
    {1, -1, 2}, so the structure constants are dense and, where D has a 2,
    partly Fractions."""
    alg = draw(st.sampled_from(BASES))
    k = alg.dim - 1
    small = st.integers(-1, 1)
    low = [[1 if i == j else draw(small) if j < i else 0 for j in range(k)]
           for i in range(k)]
    up = [[1 if i == j else draw(small) if j > i else 0 for j in range(k)]
          for i in range(k)]
    diag = [draw(st.sampled_from([1, 1, -1, 2])) for _ in range(k)]
    p = [[sum(low[i][m] * diag[m] * up[m][j] for m in range(k)) for j in range(k)]
         for i in range(k)]
    rows = [[1] + [0] * k] + [[draw(small)] + p[i] for i in range(k)]
    return rebased(alg, rows)


@st.composite
def acyclic_quivers(draw):
    """The path algebra of a random acyclic quiver: 1 to 3 vertices and at
    most three arrows, each from a smaller vertex to a larger one, parallel
    arrows allowed."""
    n = draw(st.integers(1, 3))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return build_path_algebra(list(range(1, n + 1)),
                              [(f"a{k}", s, t) for k, (s, t) in enumerate(arrows)])


def matrices_over(alg, n):
    """M_n(alg) = M_n x alg for a degree-0 alg, with the idempotents E_vv x 1
    attached: the basis is 1, then E_pq x b_i for every (p, q, i) but
    (n, n, 0), and E_nn x 1 = 1 - the other E_vv x 1, as in
    build_matrix_algebra."""
    cells = [(p, q, i) for p in range(n) for q in range(n) for i in range(alg.dim)
             if (p, q, i) != (n - 1, n - 1, 0)]
    idx = {cell: k + 1 for k, cell in enumerate(cells)}

    def as_vec(p, q, i):
        if (p, q, i) != (n - 1, n - 1, 0):
            return {idx[p, q, i]: 1}
        vec = {0: 1}
        for v in range(n - 1):
            vec[idx[v, v, 0]] = -1
        return vec

    mult = {(0, 0): {0: 1}}
    for k in range(1, len(cells) + 1):
        mult[0, k] = mult[k, 0] = {k: 1}
    for (p, q, i), (r, s, j) in itertools.product(cells, repeat=2):
        if q == r:
            col = {}
            for k, c in alg.product(i, j).items():
                for t, v in as_vec(p, s, k).items():
                    chain_add(col, t, c * v)
            if col:
                mult[idx[p, q, i], idx[r, s, j]] = col
    labels = ["1"] + [f"E{p + 1}{q + 1}.{alg.labels[i]}" for p, q, i in cells]
    return DgAlgebra(labels, [0] * len(labels), mult, name=f"M{n}({alg.name})",
                     idempotents={f"E{v + 1}{v + 1}": as_vec(v, v, 0) for v in range(n)})


def level_slices(op, ring, level):
    """{ring_idx: BlockOp over Q} of the coefficients of a BlockOp over the
    ring at one m-adic level."""
    out = {}
    for (s, key), q in slot_coordinates(op.entries()).items():
        if ring.levels[s] == level:
            out.setdefault(s, {})[key] = q
    return {s: _op_of(op.deg, ent) for s, ent in out.items()}


def random_first_order_mc(alg, ring, rng, arity_bound=6):
    """Random arity-2 cocycle with coefficients in the level-1 slice of the
    ring: over a square-zero ring any such element is Maurer-Cartan."""
    dmat = _cochain_diff_matrix(alg, 2)
    _, kernel, _ = rref(dmat)
    cb = CochainBasis(alg, 2)
    eps = ring.gen(1)
    comps = {}
    for z in kernel:
        c = rng.randint(-3, 3)
        if not c:
            continue
        for k, q in z.items():
            w, t = cb.keys[k]
            vec = comps.setdefault(2, {}).setdefault(w, {})
            cur = vec.get(t, ring.zero())
            vec[t] = cur + eps * (q * c)
    value = Cochain(alg, comps, 1, arity_bound)
    return MCElement(ring, value)


# -- bar-level conjugation: an independent route for the gauge dictionary -----------


def _coderivation_terms(algebra, cochain, word):
    """Coderivation extension of a cochain on a full bar word (entries may
    include the unit; unit outputs are kept, so this runs on BA, not B(A/k))."""
    out = {}
    n = len(word)
    for l in cochain.arities():
        for j in range(n - l + 1):
            val = cochain.eval(l, word[j : j + l])
            if not val:
                continue
            eps_j = sum(algebra.degrees[a] - 1 for a in word[:j])
            sgn = -1 if (cochain.sdeg * eps_j) % 2 else 1
            for t, c in val.items():
                chain_add(out, word[:j] + (t,) + word[j + l :], sgn * c)
    return out


def _apply_coderivation(algebra, cochain, words):
    out = {}
    for word, c in words.items():
        for key, v in _coderivation_terms(algebra, cochain, word).items():
            chain_add(out, key, c * v)
    return out


def _bar_exp(algebra, cochain, word, order_cap, sign=1):
    """e^{sign . D_cochain} applied to a bar word (nilpotent coefficients)."""
    acc = {word: 1}
    term = {word: 1}
    k = 1
    while term:
        term = _apply_coderivation(algebra, cochain, term)
        if sign < 0 and k % 2:
            scaled = {w: -Fraction(1, _fact(k)) * c for w, c in term.items()}
        else:
            scaled = {w: Fraction(1, _fact(k)) * c for w, c in term.items()}
        for w, c in scaled.items():
            chain_add(acc, w, c)
        k += 1
        if k > order_cap + 2:
            break
    return acc


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def conjugated_structure_component(algebra, x, alpha, word):
    """Top component of e^{D_alpha} (b + x) e^{-D_alpha} on a bar word.

    Independent of the gauge-action formula: the conjugation is computed on
    the bar construction itself, then projected to the cochain component.
    """
    ring = x.ring
    cap = ring.nilpotency_order
    inner = _bar_exp(algebra, alpha.value, word, cap, sign=-1)
    # apply b + x as a coderivation
    full = structure_as_cochain(algebra, None).add(x.value)
    mid = {}
    for w, c in inner.items():
        for key, v in _coderivation_terms(algebra, full, w).items():
            chain_add(mid, key, c * v)
    outer = {}
    for w, c in mid.items():
        for key, v in _bar_exp(algebra, alpha.value, w, cap, sign=1).items():
            chain_add(outer, key, c * v)
    # top component: words of length 1 (projection to A[1])
    return {w[0]: c for w, c in outer.items() if len(w) == 1}
