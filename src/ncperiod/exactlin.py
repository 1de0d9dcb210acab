"""Exact rational sparse linear algebra: rref, kernels, homology walks, SDRs.

Everything is over Q: entries are ints or Fractions, and results come back
the same way: an integral value is an int, and a Fraction appears only where
there is a denominator.  Internally every row is a primitive integer vector,
and one fraction-free elimination step (`_eliminate`) does all the row
reduction.
Homology walks a complex and eliminates each differential once: rref of d_n
gives the cycles at its source and the boundary basis at its target.  The
cycles are an RREF kernel basis, so a cycle is fixed by its entries at the
free columns, and the walk works on those coordinates: the top differential
d_{W+1}, whose columns are cycles because d_W . d_{W+1} = 0, is echelonized
only on the free rows of d_W for its pivot columns; the homology
representatives are read off one echelon of the boundaries restricted to the
free columns (its trailing pivots); and an SDR inverts only the [B | H] block
on those columns.
Determinism: kernels and solutions are read off the reduced row echelon form,
which is unique, and greedy bases take the pivot columns of an echelon form,
which are the columns outside the span of the columns before them.  So every
basis produced here depends only on the input, not on the elimination order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class CompositionNonzero(Exception):
    """d_out . d_in != 0 where a complex was expected."""


def chain_add(acc, key, coeff):
    """acc[key] += coeff, with zero entries dropped; a new key stores coeff
    itself, so a ring-element coefficient is not coerced from 0 + coeff.

    The package's one sparse accumulate: chains, matrix entries, cochain
    values and bar words all add up through it."""
    s = acc.get(key)
    if s is None:
        if coeff:
            acc[key] = coeff
        return
    s = s + coeff
    if s:
        acc[key] = s
    else:
        del acc[key]


def kept(owner, key, build):
    """build(), made once per key and kept on owner, in vars(owner)["_kept"];
    callers only read what it returns.  The package's one memo."""
    store = vars(owner).setdefault("_kept", {})
    if key not in store:
        store[key] = build()
    return store[key]


def apply_columns(col, vec, out=None):
    """out (default zero) plus the image of the sparse vector vec, {j: c},
    under the map whose j-th column is col(j), {row: value}.

    The package's one sparse apply: matvec, compose and the perturbation
    transfer run through it."""
    out = {} if out is None else out
    for j, c in vec.items():
        for i, v in col(j).items():
            chain_add(out, i, v * c)
    return out


class SparseMatrix:
    """Sparse rational matrix; entries stored as {(row, col): nonzero value}."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (i, j), v in items:
                self[i, j] = v

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {key} out of range for {self.rows}x{self.cols}")
        if value:
            self.entries[i, j] = value
        else:
            self.entries.pop(key, None)

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def add_to(self, i, j, value):
        chain_add(self.entries, (i, j), value)

    def columns(self):
        """All columns as {row: value} dicts, dense in the column index."""
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def row_lists(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def matvec(self, vec):
        """Apply to a sparse vector {col: value}; returns {row: value}."""
        return apply_columns(self.columns().__getitem__, vec)

    def compose(self, other):
        """self . other (matrix product), both sparse."""
        if other.rows != self.cols:
            raise ValueError("shape mismatch in compose")
        col = self.columns().__getitem__
        out = SparseMatrix(self.rows, other.cols)
        for j, vec in enumerate(other.columns()):
            for i, v in apply_columns(col, vec).items():
                out.entries[i, j] = v
        return out

    def is_zero(self):
        return not self.entries

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def from_columns(rows, columns):
    """Build a SparseMatrix whose j-th column is columns[j] = {row: value}."""
    m = SparseMatrix(rows, len(columns))
    for j, col in enumerate(columns):
        for i, v in col.items():
            if v:
                m.entries[i, j] = v
    return m


def _primitive(row):
    """row divided by its content (the gcd of its entries)."""
    c = gcd(*row.values())
    if c > 1:
        return {k: v // c for k, v in row.items()}
    return row


def _int_row(vec):
    """Primitive integer multiple of a sparse rational vector, zeros dropped.

    Entries must be exact rationals (int or Fraction); a float or any other
    value without an exact denominator raises TypeError.
    """
    try:
        den = lcm(*[v.denominator for v in vec.values()])
        row = {k: v.numerator * (den // v.denominator) for k, v in vec.items() if v}
    except AttributeError:
        bad = next(v for v in vec.values() if not hasattr(v, "denominator"))
        raise TypeError(f"exact entries must be int or Fraction, got {bad!r}") from None
    return _primitive(row)


def _eliminate(row, cols, piv):
    """Clear the integer row at each column k of cols with the pivot row piv[k].

    The one elimination step of this module, fraction-free as in Bareiss
    (1968): for one column, with a = p[k], f = row[k] and g = gcd(a, f),
    row <- (a/g) row - (f/g) p.  For several columns, row is scaled once by
    the lcm of the a/g and every pivot subtracted; this needs each piv[k] to
    vanish at the other columns of cols.  Returns the primitive part; row
    itself may be consumed.
    """
    scale = 1
    for k in cols:
        a = piv[k][k]
        scale = lcm(scale, a // gcd(a, row[k]))
    if scale != 1:
        row = {k: scale * v for k, v in row.items()}
    for k in cols:
        p = piv[k]
        m = row[k] // p[k]
        for c, w in p.items():
            s = row.get(c, 0) - m * w
            if s:
                row[c] = s
            else:
                del row[c]
    return _primitive(row)


def _echelon(rows):
    """Forward elimination of primitive integer rows: {pivot column: row}.

    Rows wait in buckets keyed by their leading (smallest) column.  Columns
    are taken in increasing order; the sparsest row of a bucket becomes the
    pivot of that column and clears the others, which move on to the bucket
    of their new leading column.  No column is ever searched for a row.
    """
    buckets = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    heap = list(buckets)
    heapify(heap)
    piv = {}
    while heap:
        j = heappop(heap)
        bucket = buckets.pop(j)
        p = piv[j] = min(bucket, key=len)
        for r in bucket:
            if r is p:
                continue
            r = _eliminate(r, (j,), piv)
            if r:
                k = min(r)
                if k in buckets:
                    buckets[k].append(r)
                else:
                    buckets[k] = [r]
                    heappush(heap, k)
    return piv


class IncrementalSpan:
    """Echelonized span of sparse vectors with incremental insertion.

    Vectors are dicts {index: value} with int or Fraction entries; each is
    stored as a primitive integer row under its leading (= smallest) index.
    `add` inserts and reports whether the rank grew, `contains` tests
    membership.  Both reduce with the module's one elimination step.
    """

    def __init__(self):
        self.lead = {}  # leading index -> primitive integer row

    def _reduce(self, vec):
        v = _int_row(vec)
        lead = self.lead
        while v:
            j = min(v)
            if j not in lead:
                return v, j
            v = _eliminate(v, (j,), lead)
        return v, None

    def add(self, vec):
        v, j = self._reduce(vec)
        if j is None:
            return False
        self.lead[j] = v
        return True

    def contains(self, vec):
        v, _ = self._reduce(vec)
        return not v

    @property
    def dim(self):
        return len(self.lead)


def _rref_rows(rowlist):
    """Row reduce sparse rows ({col: val}); returns (pivot_cols, pivot_rows).

    pivot_cols is increasing; pivot_rows are the nonzero rows of the reduced
    row echelon form, with leading entry one; an entry is an int when the
    pivot divides it, else a Fraction.  Rows are echelonized over the
    integers, then back-substituted from the last pivot up.  The RREF of a
    matrix is unique, so the result does not depend on the row order or on
    which rows the elimination used as pivots.
    """
    piv = _echelon([_int_row(r) for r in rowlist])
    pivots = sorted(piv)
    for j in reversed(pivots):
        r = piv[j]
        above = [k for k in r if k != j and k in piv]
        if above:
            piv[j] = _eliminate(r, above, piv)
    pivot_rows = []
    for j in pivots:
        a = piv[j][j]
        pivot_rows.append(
            {k: v // a if v % a == 0 else Fraction(v, a) for k, v in piv[j].items()})
    return pivots, pivot_rows


def _pivot_columns(m: SparseMatrix, rows=None):
    """Columns of m not in the span of the columns before them, increasing.

    These are the pivot columns of any echelon form of m, so the forward
    elimination suffices and no back-substitution is done.  rows, if given,
    restricts m to those row indices, and only those rows are built; the
    pivot columns are the same whenever that restriction is injective on
    the column span of m, since then it keeps every column dependency.
    """
    sub = {i: {} for i in (range(m.rows) if rows is None else rows)}
    for (i, j), v in m.entries.items():
        r = sub.get(i)
        if r is not None:
            r[j] = v
    return sorted(_echelon([_int_row(r) for r in sub.values()]))


def _homology_reps(boundaries, cycles, free):
    """The cycles not in the span of the boundaries and the cycles before them.

    cycles is an RREF kernel basis: cycles[k] is 1 at the free column free[k]
    and 0 at the others, so a cycle's coordinates in that basis are its
    entries at the free columns.  cycles[k] is in the span of the boundaries
    and cycles[:k] exactly when a combination of the boundaries ends at
    free[k], that is, when k is a trailing pivot of the boundaries restricted
    to the free columns.  One echelon of those rows, with the column order
    reversed, finds the trailing pivots.  boundaries must be independent
    cycles; when there are as many of them as cycles, they span every cycle.
    """
    if len(boundaries) == len(cycles):
        return []
    last = len(free) - 1
    rev = {f: last - k for k, f in enumerate(free)}
    trailing = _echelon([_int_row({rev[i]: v for i, v in b.items() if i in rev})
                         for b in boundaries])
    return [c for k, c in enumerate(cycles) if last - k not in trailing]


def rref(m: SparseMatrix):
    """Reduced row echelon data: (rank, kernel_basis, pivot_columns).

    kernel_basis is a list of sparse vectors {col: int or Fraction} spanning
    {v : m v = 0}; rank + len(kernel_basis) == m.cols.  Kernel vectors are
    produced per free column in increasing column order.
    """
    pivots, pivot_rows = _rref_rows(m.row_lists())
    pivset = set(pivots)
    kernel = {f: {f: 1} for f in range(m.cols) if f not in pivset}
    for pj, prow in zip(pivots, pivot_rows):
        for c, v in prow.items():
            if c != pj:
                kernel[c][pj] = -v
    return len(pivots), list(kernel.values()), pivots


def rank(m: SparseMatrix):
    return len(_pivot_columns(m))


def solve(m: SparseMatrix, rhs):
    """One solution x (sparse dict) of m x = rhs, or None if inconsistent;
    for a list of sparse right-hand sides, the list of their solutions (None
    where inconsistent), from one elimination of m augmented by all."""
    many = isinstance(rhs, list)
    rhs = rhs if many else [rhs]
    rowlist = m.row_lists()
    for k, vec in enumerate(rhs):
        for i, v in vec.items():
            if v:
                rowlist[i][m.cols + k] = v
    pivots, pivot_rows = _rref_rows(rowlist)
    xs = [{} for _ in rhs]
    for pj, prow in zip(pivots, pivot_rows):
        for k, x in enumerate(xs):
            c = prow.get(m.cols + k)
            if c and pj >= m.cols:  # a row led by a right-hand side: no solution
                xs[k] = None
            elif c:  # pivots rise, so x is None only after the last row of m
                x[pj] = c
    return xs if many else xs[0]


@dataclass
class SubquotientBasis:
    """Cycles, boundaries and chosen homology representatives at one spot."""

    ambient_dim: int
    cycle_basis: list = field(default_factory=list)
    boundary_basis: list = field(default_factory=list)
    homology_reps: list = field(default_factory=list)

    @property
    def dim(self):
        return len(self.homology_reps)

    def is_boundary(self, vec):
        """Is vec (sparse dict) in the span of boundary_basis?  The span is
        echelonized once, on the first call, and kept for the next."""
        def span():
            out = IncrementalSpan()
            for v in self.boundary_basis:
                out.add(v)
            return out

        return kept(self, "boundary span", span).contains(vec)


def _walk(maps):
    """(cycles, boundaries, reps, in_pivots, free) per spot X_1, X_2, ... of
    the composable maps  X_0 --maps[0]--> X_1 --maps[1]--> ..., each
    consecutive pair of which must compose to zero.

    Each map is eliminated once, one at a time.  Every map but maps[0] is
    eliminated by rref, whose kernel gives the cycles at its source and whose
    pivot columns give in_pivots at the next spot.  maps[0] is eliminated
    only for its pivot columns, and only on the free rows of maps[1]: the
    identity maps[1] . maps[0] = 0 makes every column of maps[0] a cycle, and
    a cycle is fixed by its entries at the free columns of the RREF (its
    coordinates in the kernel basis), so those rows have the same column
    dependencies as all of maps[0].  The boundaries are the columns of the
    map in at in_pivots, each not in the span of the columns before it; free
    holds the free columns of the map out, one per cycle; reps are the
    cycles that extend the boundaries, greedily in order.
    """
    piv = None
    for d_in, d_out in zip(maps, maps[1:]):
        _, cycles, out_piv = rref(d_out)
        pivset = set(out_piv)
        free = [j for j in range(d_out.cols) if j not in pivset]
        if piv is None:
            piv = _pivot_columns(d_in, free)
        cols = {j: {} for j in piv}
        for (i, j), v in d_in.entries.items():
            col = cols.get(j)
            if col is not None:
                col[i] = v
        boundaries = list(cols.values())
        yield cycles, boundaries, _homology_reps(boundaries, cycles, free), piv, free
        piv = out_piv


def _check_complex(d_in, d_out):
    """Raise unless  X --d_in--> Y --d_out--> Z  composes to zero, exactly."""
    if d_in.rows != d_out.cols:
        raise ValueError("d_in.rows must equal d_out.cols")
    if not d_out.compose(d_in).is_zero():
        raise CompositionNonzero("d_out . d_in != 0")


def homology_walk(maps) -> list:
    """Homology at the middle of each consecutive pair of the composable maps
    X_0 --maps[0]--> X_1 --maps[1]--> ..., a SubquotientBasis per spot X_1,
    X_2, ... in order.  Checks every d_out . d_in = 0 exactly, then
    eliminates each map once (see _walk)."""
    for d_in, d_out in zip(maps, maps[1:]):
        _check_complex(d_in, d_out)
    return [SubquotientBasis(ambient_dim=d_out.cols, cycle_basis=cycles,
                             boundary_basis=bnd, homology_reps=reps)
            for d_out, (cycles, bnd, reps, _, _) in zip(maps[1:], _walk(maps))]


def homology_at(d_in: SparseMatrix, d_out: SparseMatrix) -> SubquotientBasis:
    """Homology at the middle of  X --d_in--> Y --d_out--> Z: the one-spot
    homology_walk."""
    return homology_walk([d_in, d_out])[0]


@dataclass
class SpotSDR:
    """Strong-deformation-retract data at one homological spot n.

    reps: columns of iota_n (H_n -> C_n); proj_rows: rows of p_n (C_n -> H_n);
    hmty_cols: columns of h_n (C_n -> C_{n+1}).  Satisfies d h + h d = 1 -
    iota p together with the side conditions p iota = 1, h h = 0, p h = 0,
    h iota = 0.
    """

    dim: int
    reps: list
    proj_rows: list
    hmty_cols: list


def complex_sdr(dims, diffs):
    """SDR of a nonnegatively graded complex onto its homology, per spot.

    dims: list of chain-space dimensions, spots 0..W (len W+1).
    diffs: diffs[n] is the matrix C_n -> C_{n-1} for n = 1..W+1 (index 0
    unused); diffs[W+1] supplies the boundaries of the top spot.

    Returns a list of SpotSDR for spots 0..W.  Decomposition per spot:
    C_n = B_n + H_n + N_n with B_n spanned by the columns of d_{n+1} at the
    pivot columns of its RREF (each one not in the span of the columns before
    it), N_n by the unit vectors of the pivot columns of d_n (so
    d: N_n ~ B_{n-1} bijectively), and H_n by homology representatives.
    h is (d|_N)^{-1} on B and zero on H + N.  The complex is walked from the
    top spot down (_walk), so each differential is eliminated once; d_{W+1}
    only on the rows of the free columns of d_W, which is exact because
    d_W . d_{W+1} = 0, checked here (CompositionNonzero otherwise).
    """
    W = len(dims) - 1
    if len(diffs) < W + 2:
        raise ValueError("need differentials up to spot W+1")
    maps = [*diffs[W + 1:0:-1], SparseMatrix(0, dims[0])]
    _check_complex(maps[0], maps[1])
    out = []
    for n, (_, bnd, reps, sel_up, free) in zip(range(W, -1, -1), _walk(maps)):
        # A unit vector of N_n (a pivot row of d_n) has no B or H coordinate;
        # on the free rows N_n vanishes and K = [B | H] is square, so K^{-1}
        # gives the p rows and the B-coordinates that define h.
        nb, nf = len(bnd), len(free)
        if nb + len(reps) != nf:
            raise RuntimeError(f"spot {n}: B+H+N does not span (bug)")
        local = {i: t for t, i in enumerate(free)}
        rowlist = [{nf + t: 1} for t in range(nf)]
        for j, col in enumerate(bnd + reps):
            for i, v in col.items():
                t = local.get(i)
                if t is not None:
                    rowlist[t][j] = v
        pivots, pivot_rows = _rref_rows(rowlist)
        if pivots and pivots[-1] >= nf:
            raise RuntimeError(f"spot {n}: basis inversion failed (bug)")
        inv_rows = [{free[c - nf]: v for c, v in prow.items() if c >= nf}
                    for prow in pivot_rows]
        hcols = [dict() for _ in range(dims[n])]
        for jup, row in zip(sel_up, inv_rows):
            for i, v in row.items():
                hcols[i][jup] = v
        out.append(SpotSDR(dim=dims[n], reps=reps, proj_rows=inv_rows[nb:], hmty_cols=hcols))
    out.reverse()
    return out


class IdentityRetract:
    """The identity retract of a complex with dims[n] chains at weight n,
    0 <= n <= bar_bound, carrying the perturbation B whose matrices are
    b_mats[n]: C_n -> C_{n+1}: iota and p are the identity on index
    coordinates and h is zero, so a transfer through it gives B itself."""

    def __init__(self, dims, b_mats):
        self.dims = dims
        self.b_mats = b_mats
        self.bar_bound = len(dims) - 1

    def iota(self, m):
        return [{j: 1} for j in range(self.dims[m])]

    def project(self, w, vecs):
        return {(i, k): v for k, vec in enumerate(vecs) for i, v in vec.items()}

    def homotopy(self, w):
        return lambda j: {}

    def b_columns(self, w):
        return self.b_mats[w].columns().__getitem__


def express_in_homology(sub: SubquotientBasis, vec):
    """Coordinates of a cycle's class in sub.homology_reps, or None.

    None means vec is not in the span of boundaries + representatives
    (i.e. not a cycle of this spot).
    """
    cols = list(sub.boundary_basis) + list(sub.homology_reps)
    y = solve(from_columns(sub.ambient_dim, cols), vec)
    if y is None:
        return None
    nb = len(sub.boundary_basis)
    return {k - nb: v for k, v in y.items() if k >= nb}
