"""Cyclic homology: exact HC, HN and HP, and the truncated t-complexes.

HC, HN and HP are exact; their t_window parameter does not change them.
HC_n is the homology of the finite Connes complex Tot_n = C_n + C_{n-2} +
... with differential b + B on normalized chains (Loday 2.1.7-2.1.9), HP =
(h, 0) by nil-invariance (Goodwillie 1985; h from algebra.radical), and HN
follows from both by Connes' sequence (Loday 5.1.5).  The SBI exactness
check reads the same finite complex: Connes' sequence HH -> HC -> HC[-2] ->
HH[-1] is the homology sequence of 0 -> C -> Tot -> Tot[-2] -> 0 (Loday
2.2.1), three t-windows of it.  That complex is d plus B transferred by
perturbation_transfer through the retract the builder gives: the identity
on flat and relative chains, so B itself, and on the Morse model of
Q[x]/x^N the Morse SDR, so the t-blocks sum_k p tB (h tB)^k iota on its N
critical cells per weight.

The truncated t-complex serves the Hodge-type spectral sequence and the
period layer.  The mixed complex (C, d, B) is retracted weight-by-weight
onto its homology (an exact SDR), and perturbation_transfer, the one
perturbation transfer, carries the t-differential through it: D = sum_{k >=
0} p delta (h delta)^k iota, read through the retract's iota, project and
homotopy operations, with delta = tB, or tB + L_x for a
Maurer-Cartan element x of the period layer (Crainic 2004), given in slot
form: one Q chain per ring slot, moved by coeff.slot_product.  A t-window
keeps t^lo .. t^hi: C[[t]] is its t^{>=0} part, C((t)) all of it, C[t^-1]
its t^{<=0} part.  A WindowedComplex, the reduction or the Connes complex,
has one truncation per window, keeps the homology of each window at each
degree and has one rank of the map between two windows (induced_rank); a
chain model keeps its reduction per bar bound, its Connes complex per top
degree and its HC dims, and a Connes complex its SBI verdict per degree,
all by exactlin.kept.

Every operation runs on the complex hochschild._weight_graded_boundary builds
for the model its routing rule picks: for an algebra with idempotents,
relative to their span E (2 chains per weight for M2 against 4 . 3^n flat),
with the same HC, HN and HP (Loday 1.2.13).  HC, HN and the SBI check route
by homology_model_of, as HH does, so Q[x]/x^N runs on its Morse model, kept
one per algebra, and all three report HH's chain_model; HP and the spectral
sequence route by chain_model_of.  The period layer reduces the flat
complex, where L_x of a Maurer-Cartan x acts, and reads its blocks from
reduced_block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .algebra import radical, require_degree_zero
from .coeff import ArtinLocalRing, Slots, slot_product
from .exactlin import (
    IncrementalSpan,
    SparseMatrix,
    SubquotientBasis,
    apply_columns,
    chain_add,
    complex_sdr,
    homology_at,
    kept,
    rank,
)
from .hochschild import (
    Cochain,
    GradedDims,
    _weight_graded_boundary,
    boundary_matrices,
    chain_model_of,
    chain_spaces,
    homology_model_of,
    lie_terms,
)

__all__ = ["boundary_matrices", "chain_spaces"]  # re-exported for bench/spans.py

# Q as an Artin ring: the one slot of the undeformed transfer
_GROUND = ArtinLocalRing(["1"], {(0, 0): {0: 1}})


class NotStabilized(Exception):
    def __init__(self, detail):
        super().__init__(f"truncation not stabilized: {detail}")


DEFAULT_SPOT_CAP = 500


class WindowedComplex:
    """A complex with weight dims and blocks {(sigma, m, m'): {(row, col):
    value}}, each a map of weight m to weight m' times t^sigma, seen through
    its t-windows.  The homology of each window at each degree is kept on
    it, computed once."""

    def __init__(self, weight_dims, blocks):
        self.weight_dims = weight_dims
        self.blocks = blocks

    def truncation(self, window):
        """The t-window (lo, hi) of the complex."""
        return TruncatedLaurentComplex(self.weight_dims, self.blocks, window)

    def homology(self, window, r) -> SubquotientBasis:
        window = tuple(window)
        return kept(self, ("homology", window, r), lambda: self.truncation(window).homology(r))

    def induced_rank(self, src_window, dst_window, r):
        """Rank of H^r(src window) -> H^r(dst window), the map that keeps the
        generators the two windows share: an inclusion or a projection."""
        reps = self.homology(src_window, r).homology_reps
        moved = _move(reps, self.truncation(src_window), self.truncation(dst_window), r)
        return _induced_rank(self.homology(dst_window, r), moved)


@dataclass
class ReducedMixedComplex(WindowedComplex):
    """Weightwise homology of (C, d) with the transferred t-differential, a
    WindowedComplex on h_dims and transfer.  What depends on it and a
    t-window alone is kept on it, each computed once: the homology of the
    window truncations and the period layer's [D0, -] matrices and PTD
    system."""

    algebra: object
    bar_bound: int
    h_dims: list
    transfer: dict  # (sigma, m, m') -> {(row, col): value}, H_m -> H_m' t^sigma
    sdr: list
    spaces: list
    b_mats: list
    weight_dims = property(lambda self: self.h_dims)
    blocks = property(lambda self: self.transfer)

    # the retract as perturbation_transfer reads it, from the complex_sdr spots
    def iota(self, m):
        return self.sdr[m].reps

    def project(self, w, vecs):
        return _project(self.sdr[w], vecs)

    def homotopy(self, w):
        return self.sdr[w].hmty_cols.__getitem__

    def b_columns(self, w):
        return self.b_mats[w].columns().__getitem__


def default_bar_bound(algebra, max_degree, t_hi):
    """The one bar-bound policy, for degrees up to max_degree and t-powers up
    to t^t_hi: from max_degree + 2, never below 0 (HH_n = 0 for n < 0), one
    weight at a time towards max_degree + 1 + 2 (t_hi + 1) while the flat
    spot dim . (dim - 1)^(w + 2) stays within DEFAULT_SPOT_CAP chains, also
    where a relative model is reduced (M2: bar 3 for the spectral sequence
    over 0..1).  It sets the bar of the spectral sequence and the period
    layer; HC, HN, HP and the SBI check are exact and take no bar."""
    needed = max_degree + 1 + 2 * (t_hi + 1)
    base = max(algebra.dim - 1, 1)
    w = max(max_degree + 2, 0)
    while w < needed and algebra.dim * base ** (w + 2) <= DEFAULT_SPOT_CAP:
        w += 1
    return w


def reduce_mixed_complex(algebra, bar_bound) -> ReducedMixedComplex:
    """The reduction of the mixed complex of a chain model (the model that
    chain_model_of gives, or any DgAlgebra) up to weight bar_bound, kept on
    the model; d is dropped once eliminated, before B is built."""
    if bar_bound < 0:
        raise ValueError(f"bar bound must be >= 0, got {bar_bound}")
    require_degree_zero(algebra, "cyclic homology")

    def reduce():
        spaces, d, mixed = _weight_graded_boundary(algebra, bar_bound + 1)
        sdr = complex_sdr([len(s) for s in spaces[: bar_bound + 1]], d)
        del d  # before B is built
        out = ReducedMixedComplex(algebra, bar_bound, [len(s.reps) for s in sdr], {},
                                  sdr, spaces, mixed(bar_bound).b_mats)
        out.transfer = perturbation_transfer(out).get(0, {})
        return out

    return kept(algebra, ("reduction", bar_bound), reduce)


def perturbation_transfer(red, x=None, window=None):
    """Blocks {(sigma, m, m'): {(row, col): value}} of sum_k p delta (h delta)^k iota,
    in slot form: {slot: blocks}.

    delta = tB, plus L_x when the slot form x (coeff.Slots) of a cochain
    with coefficients in the maximal ideal of an Artin ring is given, so the
    series is finite; without x it is slot 0 alone.  Only blocks with lo <=
    sigma <= hi are kept (every sigma when window is None).  red is a
    retract through weight red.bar_bound, read as operations: iota(m) the
    chains of iota on the weight-m generators, project(w, vecs) the block of
    p on chains of weight w, homotopy(w) and b_columns(w) the columns of h
    and B at weight w: a ReducedMixedComplex (its complex_sdr spots), a
    morse.MorseRetract or an exactlin.IdentityRetract.  There is one
    frontier per (weight, sigma, slot), B in slot 0, L_x, on a reduction,
    from the lazy columns (_keyed_columns of red.spaces) of one
    single-arity Q cochain per slot and arity of x, moving a chain of slot
    j into the slots of table[s, j] by coeff.slot_product.
    """
    bar = red.bar_bound
    lo, hi = window or (0, math.inf)
    b_cols = [red.b_columns(w) for w in range(bar)]
    ring = _GROUND if x is None else x.ring
    singles = {}  # arity -> slot -> L, per key
    column = _keyed_columns(red.spaces) if x else None
    for s, xs in (x or {}).items():
        for l, comp in xs.components.items():
            singles.setdefault(l, {})[s] = functools.partial(lie_terms, red.algebra, Cochain(
                red.algebra, {l: comp}, xs.sdeg, xs.arity_bound, xs.normalized))
    # h is worth applying only if a part of delta can leave the weight it reaches
    reach = max((l - 1 for l in singles), default=-1)

    def parts(w, sig):
        """(weight, sigma, slot form of the columns) of each part of delta
        leaving (w, sig)."""
        if w + 1 <= bar and sig + 1 <= hi:
            yield w + 1, sig + 1, Slots(ring, {0: b_cols[w]})
        for l, by_slot in singles.items():
            if 0 <= w - l + 1 <= bar:
                yield w - l + 1, sig, Slots(ring, {s: functools.partial(
                    column, terms, w, w - l + 1) for s, terms in by_slot.items()})

    def apply(col, vecs, c, acc):
        acc = [{} for _ in vecs] if acc is None else acc
        for a, v in zip(acc, vecs):
            apply_columns(col, v if c == 1 else {j: c * q for j, q in v.items()}, a)
        return acc

    blocks = {}
    for m in range(bar + 1):
        reps = red.iota(m)
        frontier = {(m, 0): {0: reps}} if reps else {}
        while frontier:
            landed = {}  # (weight, sigma) -> slot -> delta of the frontier, per generator
            for (w, sig), vecs in frontier.items():
                for w2, sig2, cols in parts(w, sig):
                    slot_product(cols, vecs, apply, landed.setdefault((w2, sig2), {}))
            frontier = {}
            for (w, sig), slots in landed.items():
                for k, vecs in slots.items():
                    if not any(vecs):
                        continue
                    if lo <= sig <= hi:
                        tgt = blocks.setdefault(k, {}).setdefault((sig, m, w), {})
                        for e, v in red.project(w, vecs).items():
                            chain_add(tgt, e, v)
                    if w + 1 - reach <= bar:
                        hcols = red.homotopy(w)
                        moved = [apply_columns(hcols, v) for v in vecs]
                        if any(moved):
                            frontier.setdefault((w + 1, sig), {})[k] = moved
    return Slots(ring, {k: out for k, blks in blocks.items()
                        if (out := {key: blk for key, blk in blks.items() if blk})})


def _keyed_columns(spaces):
    """column(terms, w, w2, j): column j, {row: value}, of the per-key generator
    terms(a0, word, out_terms) from weight w to weight w2 of spaces, built on
    its first read over the one key list of weight w."""
    keys = functools.cache(lambda w: list(spaces[w]))

    @functools.cache
    def column(terms, w, w2, j):
        col = {}
        terms(*keys(w)[j], lambda key, v: chain_add(col, spaces[w2][key], v))
        return col

    return column


def reduced_block(red, terms, m, m2):
    """Block {(row, k): value} of p O iota: H_m -> H_m2 for the operator O
    from weight m to weight m2 given per key, terms(a0, word, out_terms),
    whose columns are built only on the support of iota."""
    col = functools.partial(_keyed_columns(red.spaces), terms, m, m2)
    reps = red.sdr[m].reps if red.sdr[m2].reps else []
    return _project(red.sdr[m2], [apply_columns(col, rep) for rep in reps])


def _project(spot, vecs):
    """Block {(row, k): value} of p (the rows spot.proj_rows) on vecs[k]."""
    out = {}
    for k, vec in enumerate(vecs):
        for r, row in enumerate(spot.proj_rows):
            acc = 0
            for i, v in row.items():
                c = vec.get(i)
                if c:
                    acc += v * c
            if acc:
                out[r, k] = acc
    return out


# -- windowed t-complexes ---------------------------------------------------------


class TruncatedLaurentComplex:
    """t^lo .. t^hi of the complex with weight dims and blocks
    {(sigma, m, m'): {(row, col): value}}, each a map H_m -> H_m' t^sigma."""

    def __init__(self, weight_dims, blocks, window):
        self.weight_dims = weight_dims
        self.blocks = blocks
        self.window = window

    def offsets(self, r):
        """({(m, i): position of its first coordinate}, dim) of the degree-r
        generators (m, i), r = 2i - m, of the window."""
        lo, hi = self.window
        out, n = {}, 0
        for i in range(lo, hi + 1):
            m = 2 * i - r
            if 0 <= m < len(self.weight_dims) and self.weight_dims[m]:
                out[m, i] = n
                n += self.weight_dims[m]
        return out, n

    def differential(self, r):
        """Matrix X^r -> X^{r+1} of the total differential."""
        (src, cols), (dst, rows) = self.offsets(r), self.offsets(r + 1)
        out = SparseMatrix(rows, cols)
        for (sig, m, m2), block in self.blocks.items():
            i = (r + m) // 2  # the one generator (m, i) of degree r, if any
            co, ro = src.get((m, i)), dst.get((m2, i + sig))
            if co is not None and ro is not None:
                for (bi, bj), v in block.items():
                    out.add_to(ro + bi, co + bj, v)
        return out

    def homology(self, r) -> SubquotientBasis:
        return homology_at(self.differential(r - 1), self.differential(r))


def _move(vecs, src_cx, dst_cx, r, strict=False):
    """Degree-r vectors of src_cx carried to dst_cx by the generators (m, i)
    the two t-windows share.  Coordinates on the other generators are dropped
    (a projection), or raise RuntimeError when strict."""
    (src, _), (dst, _) = src_cx.offsets(r), dst_cx.offsets(r)
    pos = {}
    for key, o in src.items():
        if key in dst:
            for k in range(src_cx.weight_dims[key[0]]):
                pos[o + k] = dst[key] + k
    if strict and any(j not in pos for vec in vecs for j in vec):
        raise RuntimeError("vector left the subcomplex (bug)")
    return [{pos[j]: v for j, v in vec.items() if j in pos} for vec in vecs]


def _induced_rank(h_target, images):
    """Rank of a map induced on homology, given the images of the source's
    homology representatives: the number of them that grow the span of the
    target's boundary basis."""
    span = IncrementalSpan()
    for b in h_target.boundary_basis:
        span.add(b)
    return sum(1 for v in images if span.add(v))


# -- the public operations ---------------------------------------------------------


def _connes_dims(model, degrees):
    """{n: dim HC_n} of a chain model, 0 for n < 0, each kept on the model:
    the homology at degree -n of the window Tot of _connes_complex for the
    largest degree, built only if some HC_n is not kept yet."""
    require_degree_zero(model, "cyclic homology")
    top = max(max(degrees, default=0), 0)

    def hc(n):
        cx, tot = _connes_complex(model, top)
        return cx.homology(tot, -n).dim

    return {n: kept(model, ("HC", n), functools.partial(hc, n)) if n >= 0 else 0
            for n in degrees}


def _connes_complex(model, top):
    """The mixed complex of the model up to weight top + 1, blocks d and B
    transferred through its retract, kept on the model per top, and its
    C[t^-1] window Tot, which holds Tot_m = C_m + C_{m-2} + ... at degree -m
    for m <= top + 1."""
    def connes():
        spaces, d, mixed = _weight_graded_boundary(model, top + 1)
        blocks = {(0, m, m - 1): d[m].entries for m in range(1, top + 2)}
        blocks.update(perturbation_transfer(mixed(top + 1)).get(0, {}))
        return WindowedComplex([len(s) for s in spaces], blocks)

    return kept(model, ("connes", top), connes), (-(top // 2) - 1, 0)


def cyclic_homology(algebra, degree_range, t_window=(-6, 6)):
    """Exact HC_n of the finite Connes complex of the model homology_model_of
    picks; t_window does not matter."""
    model, record = homology_model_of(algebra)
    return GradedDims(_connes_dims(model, sorted(degree_range)), chain_model=record)


def periodic_cyclic_homology(algebra, t_window=(-6, 6)):
    """Exact (HP_0, HP_1) = (h, 0); t_window does not matter."""
    require_degree_zero(algebra, "cyclic homology")
    return radical(algebra)[1], 0


def negative_cyclic_homology(algebra, degree_range, t_window=(-6, 6)):
    """Exact HN_n = H^{-n}(C[[t]], d + tB); t_window does not matter.

    HP_n -> HC_{n-2} has rank h for even n >= 2, else 0, as it has on A/J,
    which splits off A (Wedderburn-Malcev).  So Connes' sequence HP_{n+1} ->
    HC_{n-1} -> HN_n -> HP_n -> HC_{n-2} gives
    HN_n = HC_{n-1} - h [n odd, n >= 1] + h [n even, n <= 0]."""
    degrees = sorted(degree_range)
    h, _ = periodic_cyclic_homology(algebra)
    hc = cyclic_homology(algebra, [n - 1 for n in degrees])
    return GradedDims({n: hc.dims[n - 1] + h * ((n % 2 == 0 and n <= 0)
                                                - (n % 2 == 1 and n >= 1))
                       for n in degrees}, chain_model=hc.chain_model)


def sbi_consistent(algebra, degree_range, t_window=(-6, 6)):
    """(ok, dims): ok is whether Connes' sequence is exact at every degree of
    the range (sbi_exactness), dims the HN, HP and HC_{n-2} dims around it.
    t_window does not matter."""
    span = range(min(degree_range), max(degree_range) + 1)
    h, _ = periodic_cyclic_homology(algebra)
    dims = {"HN": negative_cyclic_homology(algebra, span).dims,
            "HP": {n: h if n % 2 == 0 else 0 for n in span},
            "HC": cyclic_homology(algebra, [n - 2 for n in span]).dims}
    return all(sbi_exactness(algebra, span).values()), dims


@dataclass
class SpectralReport:
    e1: dict = field(default_factory=dict)          # (i, n) -> dim
    d1_ranks: dict = field(default_factory=dict)    # (i, n) -> rank
    e2: dict = field(default_factory=dict)          # (i, n) -> dim
    abutment: dict = field(default_factory=dict)    # n -> dim HP_n
    filtration: dict = field(default_factory=dict)  # (i, n) -> dim F^i HP_n
    degenerate_at_E1: bool = False
    t_window: tuple = (-6, 6)
    chain_model: dict = field(default_factory=lambda: {"kind": "flat"})

    def e1_total(self, n):
        return sum(v for (i, m), v in self.e1.items() if m == n)


def hodge_spectral_sequence(algebra, t_window=(-6, 6), degree_range=(0, 1),
                            bar_bound=None):
    degrees = sorted(degree_range)
    lo, hi = t_window
    if bar_bound is None:
        bar_bound = default_bar_bound(algebra, max(abs(n) for n in degrees), hi)
    model, record = chain_model_of(algebra)
    red = reduce_mixed_complex(model, bar_bound)
    rep = SpectralReport(t_window=t_window, chain_model=record)
    d1 = {m: blk for (sig, m, _), blk in red.transfer.items() if sig == 1}

    def d1_rank(m):  # d1: H_m -> H_{m+1}
        blk = d1.get(m)
        return rank(SparseMatrix(red.h_dims[m + 1], red.h_dims[m], blk)) if blk else 0

    for n in degrees:
        for i in range(lo, hi + 1):
            m = n + 2 * i
            if 0 <= m <= bar_bound and red.h_dims[m]:
                rep.e1[i, n] = red.h_dims[m]
                rk = d1_rank(m) if i + 1 <= hi else 0
                rk_in = d1_rank(m - 1) if i - 1 >= lo else 0
                rep.d1_ranks[i, n] = rk
                rep.e2[i, n] = red.h_dims[m] - rk - rk_in
        rep.abutment[n] = periodic_cyclic_homology(algebra)[n % 2]
        # filtration dims: image of H(F^i) -> H(window)
        for i in range(lo, hi + 1):
            rk = red.induced_rank((i, hi), (lo, hi), -n)
            if rk:
                rep.filtration[i, n] = rk
    rep.degenerate_at_E1 = all(v == 0 for v in rep.d1_ranks.values()) and all(
        rep.e1_total(n) == rep.abutment[n] for n in degrees
    )
    return rep


# -- SBI long exact sequence ---------------------------------------------------------


def sbi_exactness(algebra, degree_range, t_window=(-6, 6)):
    """Exactness of Connes' sequence ... -> HH_n -I-> HC_n -S-> HC_{n-2} -B->
    HH_{n-1} -> ..., the homology sequence of 0 -> C -> Tot -> Tot[-2] -> 0
    (Loday 2.2.1), on the finite Connes complex of the model
    homology_model_of picks, which must sit in degree 0 as for HC.

    Returns {n: True} for each degree n checked, kept on the complex:
    exactness holds at the four spots around total degree -n, with the
    connecting map built by the zig-zag.  The windows of _connes_complex
    are the total (lo, 0) = Tot, the sub (0, 0) = C and the quotient (lo,
    -1), Tot shifted by t.  t_window does not matter; a broken B raises
    CompositionNonzero.
    """
    degrees = sorted(degree_range)
    model = homology_model_of(algebra)[0]
    require_degree_zero(model, "cyclic homology")
    cx, total = _connes_complex(model, max(max(degrees), 0))
    sub, quot = (0, 0), (total[0], -1)
    h = cx.homology

    def connecting(r):  # H^r(quot) -> H^{r+1}(sub): lift, differentiate, restrict
        total_cx = cx.truncation(total)
        d = total_cx.differential(r)
        lifted = _move(h(quot, r).homology_reps, cx.truncation(quot), total_cx, r)
        images = _move([d.matvec(v) for v in lifted], total_cx, cx.truncation(sub),
                       r + 1, strict=True)
        return _induced_rank(h(sub, r + 1), images)

    def exact_at(r):
        inc = [cx.induced_rank(sub, total, s) for s in (r, r + 1)]
        proj = [cx.induced_rank(total, quot, s) for s in (r, r + 1)]
        conn = connecting(r)
        return (inc[0] + proj[0] == h(total, r).dim           # at H^r(total)
                and inc[1] + proj[1] == h(total, r + 1).dim  # at H^{r+1}(total)
                and proj[0] + conn == h(quot, r).dim         # at H^r(quot)
                and inc[1] + conn == h(sub, r + 1).dim)      # at H^{r+1}(sub)

    return {n: kept(cx, ("SBI", n), functools.partial(exact_at, -n)) for n in degrees}
