"""Exact rational sparse linear algebra: rref, kernels, homology of a spot.

Everything is over Q: entries are ints or Fractions, and results come back
as Fractions.  Internally every row is a primitive integer vector, and one
fraction-free elimination step (`_eliminate`) does all the row reduction.
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
        return self.entries.get(key, Fraction(0))

    def add_to(self, i, j, value):
        s = self.entries.get((i, j), 0) + value
        if s:
            self.entries[i, j] = s
        else:
            self.entries.pop((i, j), None)

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

    def transpose(self):
        out = SparseMatrix(self.cols, self.rows)
        for (i, j), v in self.entries.items():
            out.entries[j, i] = v
        return out

    def matvec(self, vec):
        """Apply to a sparse vector {col: value}; returns {row: value}."""
        out = {}
        cols = None
        for j, c in vec.items():
            if not c:
                continue
            if cols is None:
                cols = self.columns()
            for i, v in cols[j].items():
                s = out.get(i, 0) + v * c
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    def compose(self, other):
        """self . other (matrix product), both sparse."""
        if other.rows != self.cols:
            raise ValueError("shape mismatch in compose")
        self_cols = self.columns()
        out = SparseMatrix(self.rows, other.cols)
        by_col = [dict() for _ in range(other.cols)]
        for (i, j), v in other.entries.items():
            by_col[j][i] = v
        for j, col in enumerate(by_col):
            acc = {}
            for k, c in col.items():
                for i, v in self_cols[k].items():
                    s = acc.get(i, 0) + v * c
                    if s:
                        acc[i] = s
                    else:
                        acc.pop(i, None)
            for i, v in acc.items():
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
    row echelon form, with Fraction entries and leading entry one.  Rows are
    echelonized over the integers, then back-substituted from the last
    pivot up.  The RREF of a matrix is unique, so the result does not depend
    on the row order or on which rows the elimination used as pivots.
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
        pivot_rows.append({k: Fraction(v, a) for k, v in piv[j].items()})
    return pivots, pivot_rows


def _pivot_columns(m: SparseMatrix):
    """Columns of m not in the span of the columns before them, increasing.

    These are the pivot columns of any echelon form of m, so the forward
    elimination suffices and no back-substitution is done.
    """
    return sorted(_echelon([_int_row(r) for r in m.row_lists()]))


def _homology_reps(boundaries, cycles):
    """The cycles not in the span of the boundaries and the cycles before them.

    boundaries must be independent cycles; when there are as many of them as
    cycles they span every cycle, and no cycle is reduced.
    """
    if len(boundaries) == len(cycles):
        return []
    span = IncrementalSpan()
    for v in boundaries:
        span.add(v)
    return [v for v in cycles if span.add(v)]


def rref(m: SparseMatrix):
    """Reduced row echelon data: (rank, kernel_basis, pivot_columns).

    kernel_basis is a list of sparse vectors {col: Fraction} spanning
    {v : m v = 0}; rank + len(kernel_basis) == m.cols.  Kernel vectors are
    produced per free column in increasing column order.
    """
    pivots, pivot_rows = _rref_rows(m.row_lists())
    pivset = set(pivots)
    kernel = {f: {f: Fraction(1)} for f in range(m.cols) if f not in pivset}
    for pj, prow in zip(pivots, pivot_rows):
        for c, v in prow.items():
            if c != pj:
                kernel[c][pj] = -v
    return len(pivots), list(kernel.values()), pivots


def rank(m: SparseMatrix):
    return len(_pivot_columns(m))


def solve(m: SparseMatrix, rhs):
    """One solution x (sparse dict) of m x = rhs, or None if inconsistent."""
    rowlist = m.row_lists()
    aug = m.cols  # rhs goes in an extra column
    items = rhs.items() if isinstance(rhs, dict) else enumerate(rhs)
    for i, v in items:
        if v:
            rowlist[i][aug] = v
    pivots, pivot_rows = _rref_rows(rowlist)
    x = {}
    for pj, prow in zip(pivots, pivot_rows):
        if pj == aug:
            return None
        c = prow.get(aug)
        if c:
            x[pj] = Fraction(c)
    return x


def member(span_vectors, vec):
    """Is vec (sparse dict) in the span of span_vectors (sparse dicts)?"""
    span = IncrementalSpan()
    for v in span_vectors:
        span.add(v)
    return span.contains(vec)


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


def homology_at(d_in: SparseMatrix, d_out: SparseMatrix) -> SubquotientBasis:
    """Homology at the middle of  X --d_in--> Y --d_out--> Z.

    Checks d_out . d_in = 0 exactly.  Boundary basis: the columns of d_in
    not in the span of the columns before them (its pivot columns);
    homology representatives: kernel vectors of d_out extending that basis,
    greedily in order (deterministic).
    """
    if d_in.rows != d_out.cols:
        raise ValueError("homology_at: d_in.rows must equal d_out.cols")
    if not d_out.compose(d_in).is_zero():
        raise CompositionNonzero("d_out . d_in != 0")
    _, cycles, _ = rref(d_out)
    piv = _pivot_columns(d_in)  # first, so its rows and cols never coexist
    cols = d_in.columns()
    boundaries = [cols[j] for j in piv]
    reps = _homology_reps(boundaries, cycles)
    return SubquotientBasis(
        ambient_dim=d_out.cols,
        cycle_basis=cycles,
        boundary_basis=boundaries,
        homology_reps=reps,
    )


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
    unused / None); diffs[W+1] supplies the boundaries of the top spot.

    Returns a list of SpotSDR for spots 0..W.  Decomposition per spot:
    C_n = B_n + H_n + N_n with B_n spanned by the columns of d_{n+1} at the
    pivot columns of its RREF (each one not in the span of the columns before
    it), N_n by the unit vectors of the pivot columns of d_n (so
    d: N_n ~ B_{n-1} bijectively), and H_n by homology representatives.
    h is (d|_N)^{-1} on B and zero on H + N.
    """
    W = len(dims) - 1
    if len(diffs) < W + 2:
        raise ValueError("need differentials up to spot W+1")
    sel = [[] for _ in range(W + 2)]   # pivot columns of d_n
    cycles = [{j: Fraction(1)} for j in range(dims[0])]
    out = []
    for n in range(W + 1):
        d_up = diffs[n + 1]
        if n < W:
            _, next_cycles, sel[n + 1] = rref(d_up)
        elif d_up is not None:
            sel[n + 1] = _pivot_columns(d_up)
        cols = d_up.columns() if sel[n + 1] else []
        bnd = [cols[j] for j in sel[n + 1]]   # boundary basis of C_n
        reps = _homology_reps(bnd, cycles)
        # Full basis [B | H | N] of C_n; one inversion gives p rows and the
        # B-coordinates that define h.  N_n is spanned by the unit vectors of
        # the pivot columns of d_n.
        nb, nh = len(bnd), len(reps)
        nsel = [{j: Fraction(1)} for j in sel[n]]
        if nb + nh + len(nsel) != dims[n]:
            raise RuntimeError(f"spot {n}: B+H+N does not span (bug)")
        rowlist = [dict() for _ in range(dims[n])]
        for j, col in enumerate(bnd + reps + nsel):
            for i, v in col.items():
                rowlist[i][j] = v
        for i in range(dims[n]):
            rowlist[i][dims[n] + i] = 1
        pivots, pivot_rows = _rref_rows(rowlist)
        inv_rows = [None] * dims[n]
        for pj, prow in zip(pivots, pivot_rows):
            if pj >= dims[n]:
                raise RuntimeError(f"spot {n}: basis inversion failed (bug)")
            inv_rows[pj] = {c - dims[n]: v for c, v in prow.items() if c >= dims[n]}
        proj_rows = [inv_rows[nb + k] for k in range(nh)]
        hcols = [dict() for _ in range(dims[n])]
        for k in range(nb):
            jup = sel[n + 1][k]
            for i, v in inv_rows[k].items():
                hcols[i][jup] = v
        out.append(SpotSDR(dim=dims[n], reps=reps, proj_rows=proj_rows, hmty_cols=hcols))
        if n < W:
            cycles = next_cycles
    return out


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
