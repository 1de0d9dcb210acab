"""The period mapping and its diagnostics.

Operators on the cyclic complexes are represented t-equivariantly as block
maps  H_m -> H_{m'} . t^sigma  over the weightwise-reduced mixed complex (the
quotient End((t))/End[[t]] is then literally the sigma < 0 part, matching
the homology-level description of the period target).  The deformed
differential is transferred through the weightwise retract by homological
perturbation with delta = tB + L_x, by the same
cyclic.perturbation_transfer that gives the undeformed one (delta = tB);
contraction_blocks projects with the same p.  Trivializations and PTD
isomorphisms are found by deform.solve_by_levels on block coordinates: the
unknowns act through [D0, -] on their own m-adic level (the trivialization
starts slot s from the seed -(1/t) I_{x_s}, x_s the Q cochain read off slot
s of x by Cochain.map_coefficients; the PTD search also carries the kernel
directions of lower levels, exact through nilpotency order 3).  Residual
blocks become slot coordinates by coeff.slot_coordinates and the solved
slot vectors become block operators over R by coeff.ring_values, once per
shift for both PTD unknowns.
Every exponential enters a residual as 1 + E(g), E(g) = e^g - 1 from
block_exp, and a product by the 1 is the other factor truncated as compose
truncates (BlockOp.truncated), so no identity operator is multiplied out;
the PTD search computes the parts of its residuals that do not depend on
the unknowns once (_ptd_constants).

Conventions:
  * trivialize_periodic returns g with  e^g . 0 = (deformed - undeformed)
    part, i.e. the e^{-g}-conjugation carries the deformed windowed periodic
    differential to the undeformed one; its first-order part is the seeded
    -(1/t) I_x up to an exact correction;
  * a PTD stores that g; its trivialization isomorphism is phi = e^{-g}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeff import ring_values, slot_coordinates
from .cyclic import (
    NotStabilized,
    _project,
    default_bar_bound,
    perturbation_transfer,
    reduce_mixed_complex,
)
from .deform import MCElement, _require_mc, solve_by_levels
from .exactlin import SparseMatrix, express_in_homology, from_columns, rank, rref
from .hochschild import (
    Cochain,
    chain_add,
    cocycle_representatives,
    contraction,
    flat_hochschild_homology,
    hochschild_cohomology,
)


# -- block operators --------------------------------------------------------------


class BlockOp:
    """t-equivariant operator: blocks[(sigma, m, m')] : H_m -> H_{m'} t^sigma.

    deg is the cohomological degree, deg = 2 sigma - (m' - m) for every
    stored block.  Entries are Q numbers or RingElements.
    """

    __slots__ = ("deg", "blocks")

    def __init__(self, deg, blocks=None):
        self.deg = deg
        self.blocks = {}
        if blocks:
            for key, mat in blocks.items():
                if mat:
                    self.blocks[key] = dict(mat)

    def copy(self):
        return BlockOp(self.deg, {k: dict(v) for k, v in self.blocks.items()})

    def add(self, other, scale=1):
        out = self.copy()
        for key, mat in other.blocks.items():
            tgt = out.blocks.setdefault(key, {})
            for e, v in mat.items():
                chain_add(tgt, e, scale * v)
            if not tgt:
                del out.blocks[key]
        return out

    def scaled(self, c):
        return BlockOp(
            self.deg,
            {k: {e: c * v for e, v in mat.items()} for k, mat in self.blocks.items()},
        )

    def is_zero(self):
        return not self.blocks

    def compose(self, other, bar_bound, window):
        """self . other with weight and t-shift truncation."""
        lo, hi = window
        out = BlockOp(self.deg + other.deg)
        for (s2, m2, mm2), mat2 in other.blocks.items():
            rows2 = None  # mat2 as {row: [(col, value), ...]}, built once
            for (s1, m1, mm1), mat1 in self.blocks.items():
                if m1 != mm2:
                    continue
                s = s1 + s2
                if not (lo <= s <= hi) or mm1 > bar_bound:
                    continue
                if rows2 is None:
                    rows2 = {}
                    for (i2, j2), v2 in mat2.items():
                        rows2.setdefault(i2, []).append((j2, v2))
                key = (s, m2, mm1)
                tgt = out.blocks.setdefault(key, {})
                for (i1, j1), v1 in mat1.items():
                    for j2, v2 in rows2.get(j1, ()):
                        chain_add(tgt, (i1, j2), v1 * v2)
                if not tgt:
                    del out.blocks[key]
        return out

    def truncated(self, bar_bound, window):
        """The blocks that compose keeps of a product by the identity: sigma
        in the window and both weights <= bar_bound."""
        lo, hi = window
        return BlockOp(self.deg, {
            (s, m, m2): mat for (s, m, m2), mat in self.blocks.items()
            if lo <= s <= hi and m <= bar_bound and m2 <= bar_bound})

    def entries(self):
        """((sigma, m, m', row, col), value) for every stored entry."""
        for (sig, m, m2), mat in self.blocks.items():
            for (r, c), v in mat.items():
                yield (sig, m, m2, r, c), v

    def map_coefficients(self, fn):
        return BlockOp(
            self.deg,
            {k: {e: fn(v) for e, v in mat.items()} for k, mat in self.blocks.items()},
        )

    def restrict_nonneg(self):
        return BlockOp(
            self.deg, {k: mat for k, mat in self.blocks.items() if k[0] >= 0}
        )

    def negative_part(self):
        return BlockOp(
            self.deg, {k: mat for k, mat in self.blocks.items() if k[0] < 0}
        )

    def __repr__(self):
        keys = sorted(self.blocks)
        return f"BlockOp(deg={self.deg}, blocks={keys})"


def block_exp(g: BlockOp, ring, red, window):
    """E(g) = e^g - 1 = sum_{k>=1} g^k / k! for a degree-0 g with coefficients
    in m_R (nilpotent); every caller expands e^g as 1 + E(g)."""
    bar = red.bar_bound
    term = out = g.truncated(bar, window)
    for k in range(2, ring.nilpotency_order + 2):
        if term.is_zero():
            break
        term = g.compose(term, bar, window).scaled(Fraction(1, k))
        out = out.add(term)
    return out


# -- transfers ---------------------------------------------------------------------


def base_differential(red) -> BlockOp:
    """The transferred undeformed differential sum t^{n+1} p B (h B)^n iota."""
    return BlockOp(1, red.transfer)


def deformed_differential(red, x: MCElement, window) -> BlockOp:
    """Transfer of d + tB + L_x through the weightwise retract, as blocks."""
    return BlockOp(1, perturbation_transfer(red, x.value, window))


def contraction_blocks(red, p: Cochain) -> BlockOp:
    """p . I_P . iota as blocks at t-shift -1, (1/t) I_P (degree |P| - 2)."""
    algebra = red.algebra
    arities = p.arities()
    op = BlockOp(p.sdeg - 1)
    if not arities:
        return op
    (l,) = arities
    for m in range(l, red.bar_bound + 1):
        src = red.sdr[m]
        tgt_w = m - l
        tgt = red.sdr[tgt_w]
        if not src.reps or not tgt.reps:
            continue
        keys = list(red.spaces[m])
        idx2 = red.spaces[tgt_w]
        vecs = []
        for rep in src.reps:
            img = contraction(algebra, p, {keys[j]: c for j, c in rep.items()})
            vecs.append({idx2[key]: v for key, v in img.items()})
        block = _project(tgt, vecs)
        if block:
            op.blocks[-1, m, tgt_w] = block
    return op


# -- first-order period data ---------------------------------------------------------


@dataclass
class PeriodClass:
    """Blocks HH_i -> HH_j t^{(j-i)/2} with (j-i)/2 < 0, per one HH^2 class."""

    blocks: dict = field(default_factory=dict)  # (i, j) -> {(row, col): Fraction}

    def t_exponents(self):
        return sorted({(j - i) // 2 for (i, j) in self.blocks})

    def is_zero(self):
        return not self.blocks


def first_order_period_matrix(algebra, degree_range):
    """For each HH^2 basis class P, the blocks of I_P: HH_i -> HH_{i-2}, on
    the reduced complex of bar bound top + 2 for the top degree asked."""
    degrees = sorted(degree_range)
    red = reduce_mixed_complex(algebra, max(degrees) + 2)
    classes = cocycle_representatives(algebra, 2, 4)
    out = []
    for p in classes:
        op = contraction_blocks(red, p)
        pc = PeriodClass()
        for (sig, m, m2), mat in op.blocks.items():
            if m in degrees:
                pc.blocks[m, m2] = dict(mat)
        out.append(pc)
    return out


def torelli_rank(algebra, degree_range):
    """(dim HH^2, rank of P -> (I_P blocks), injective?)."""
    pcs = first_order_period_matrix(algebra, degree_range)
    dim_hh2 = len(pcs)
    keys = sorted({
        (i, j, r, c)
        for pc in pcs
        for (i, j), mat in pc.blocks.items()
        for (r, c) in mat
    })
    pos = {k: i for i, k in enumerate(keys)}
    cols = [
        {pos[i, j, r, c]: v
         for (i, j), mat in pc.blocks.items() for (r, c), v in mat.items()}
        for pc in pcs
    ]
    rk = rank(from_columns(len(keys), cols))
    return dim_hh2, rk, rk == dim_hh2


def vdb_duality_check(algebra, d, pi_chain, degree_range):
    """Per degree s: the matrix of P -> class of I_P(pi), with an iso verdict.

    pi_chain: a cycle of the flat normalized complex representing a class
    in HH_d; ValueError if one of its keys has a bar weight other than d.
    """
    if any(len(word) != d for _, word in pi_chain):
        raise ValueError(f"pi_chain has a chain outside bar weight {d}")
    degrees = sorted(degree_range)
    top = max(degrees)
    hh = flat_hochschild_homology(algebra, range(0, max(d, top - 0) + 1 + 1))
    hhc = hochschild_cohomology(algebra, range(0, top + 1))
    out = {}
    for s in degrees:
        if s < 0 or d - s < 0:
            out[s] = {"matrix": [], "iso": hhc.dims.get(s, 0) == 0
                      and hh.dims.get(d - s, 0) == 0}
            continue
        classes = cocycle_representatives(algebra, s, top + 2)
        tgt = hh.spots[d - s]
        keys = hh.basis_keys[d - s]
        pos = {k: i for i, k in enumerate(keys)}
        cols = []
        ok = True
        for p in classes:
            vec = {pos[k]: v for k, v in contraction(algebra, p, pi_chain).items()}
            coords = express_in_homology(tgt, vec)
            if coords is None:
                ok = False
                coords = {}
            cols.append(coords)
        rk = rank(from_columns(tgt.dim, cols))
        iso = ok and rk == len(classes) == tgt.dim
        out[s] = {
            "matrix": cols,
            "dim_hhc": len(classes),
            "dim_hh": tgt.dim,
            "rank": rk,
            "iso": iso,
        }
    return out


def griffiths_transversality_check(algebra, degree_range, period_classes=None):
    """Every nonzero period block must shift the t-filtration down by one."""
    pcs = (
        period_classes
        if period_classes is not None
        else first_order_period_matrix(algebra, degree_range)
    )
    report = {"classes": len(pcs), "violations": []}
    for idx, pc in enumerate(pcs):
        for expo in pc.t_exponents():
            if expo != -1:
                report["violations"].append((idx, expo))
    report["ok"] = not report["violations"]
    return report


# -- trivialization and PTDs ----------------------------------------------------------


def _block_basis(h_dims, deg, window, bar_bound):
    """Index the degree-homogeneous block coordinates (sigma, m, m', r, c)."""
    lo, hi = window
    out = []
    for m in range(bar_bound + 1):
        if not h_dims[m]:
            continue
        for sig in range(lo, hi + 1):
            m2 = m + 2 * sig - deg
            if 0 <= m2 <= bar_bound and h_dims[m2]:
                for r in range(h_dims[m2]):
                    for c in range(h_dims[m]):
                        out.append((sig, m, m2, r, c))
    return {key: i for i, key in enumerate(out)}, out


def _op_of(deg, entries):
    """BlockOp from {(sigma, m, m', row, col): value}; zero values are dropped."""
    op = BlockOp(deg)
    for (sig, m, m2, r, c), v in entries.items():
        if v:
            op.blocks.setdefault((sig, m, m2), {})[r, c] = v
    return op


def _op_rows(op, index, offset=0):
    """Ring-slot coordinates {(slot, offset + row)} of op on a block basis;
    raises NotStabilized for an entry outside the basis (the window)."""
    pairs = []
    for key, v in op.entries():
        i = index.get(key)
        if i is None:
            raise NotStabilized(f"residual block {key[:3]} left the window")
        pairs.append((offset + i, v))
    return slot_coordinates(pairs)


def _ring_op(values, keys, deg, first=0):
    """BlockOp whose entry at keys[i] is values[first + i], for the ring
    values {index: RingElement} of coeff.ring_values; indices outside keys
    belong to another unknown and are skipped."""
    return _op_of(deg, {keys[i - first]: v for i, v in values.items()
                        if 0 <= i - first < len(keys)})


def block_d(D0, f, bar_bound, window):
    """[D0, f] = D0 f - (-1)^{deg f} f D0."""
    sgn = -1 if f.deg % 2 else 1
    return D0.compose(f, bar_bound, window).add(
        f.compose(D0, bar_bound, window), scale=-sgn
    )


def _d_matrix(red, D0, deg, window):
    """Matrix of f -> [D0, f] on degree-deg block operators."""
    src_index, src_keys = _block_basis(red.h_dims, deg, window, red.bar_bound)
    dst_index, _ = _block_basis(red.h_dims, deg + 1, window, red.bar_bound)
    mat = SparseMatrix(len(dst_index), len(src_index))
    for key, j in src_index.items():
        sig, m, m2, r, c = key
        e = BlockOp(deg)
        e.blocks[sig, m, m2] = {(r, c): 1}
        de = block_d(D0, e, red.bar_bound, window)
        for key2, mat2 in de.blocks.items():
            for (r2, c2), v in mat2.items():
                i = dst_index.get((key2[0], key2[1], key2[2], r2, c2))
                if i is not None:
                    mat.add_to(i, j, v)
    return mat, src_keys, dst_index


def gauge_residual(mu: BlockOp, g: BlockOp, D0: BlockOp, red, window, ring):
    """e^g . mu, computed as the e^g-conjugation of T = D0 + mu minus D0.

    With e^{+-g} = 1 + E(+-g) the conjugate is A + A E(-g) for A = T + E(g) T,
    where the product of T by 1 is T truncated; zero E terms are skipped.
    """
    bar = red.bar_bound
    total = D0.add(mu)
    conj = total.truncated(bar, window)
    eg = block_exp(g, ring, red, window)
    if not eg.is_zero():
        conj = conj.add(eg.compose(total, bar, window))
    eg_inv = block_exp(g.scaled(-1), ring, red, window)
    if not eg_inv.is_zero():
        conj = conj.add(conj.compose(eg_inv, bar, window))
    return conj.add(D0, scale=-1)


@dataclass
class Trivialization:
    """Result of the order-by-order periodic trivialization.

    gauge is None exactly when some filtration step was obstructed, in which
    case obstruction holds the residual of the gauge reached before it (the
    class of its lowest-level slice modulo [D0, -] is the obstructing class).
    """

    gauge: object          # BlockOp or None
    reduced: object        # the weightwise-reduced mixed complex
    base: BlockOp          # transferred undeformed differential
    deformation: BlockOp   # transferred deformation part
    obstruction: object = None

    @property
    def ok(self):
        return self.gauge is not None


def trivialize_periodic(algebra, x: MCElement, t_window=(-6, 6), bar_bound=None):
    """Gauge element g (blocks) with e^g-conjugation of the deformed windowed
    periodic differential equal to the undeformed one, as a Trivialization;
    on an obstructed filtration step, gauge is None and the blocking residual
    is reported.  Raises NotMaurerCartan for a non-Maurer-Cartan input.
    """
    _require_mc(algebra, x)
    ring = x.ring
    lo, hi = t_window
    if bar_bound is None:
        bar_bound = default_bar_bound(algebra, 2, hi)
    red = reduce_mixed_complex(algebra, bar_bound)
    D0 = base_differential(red)
    Dx = deformed_differential(red, x, t_window)
    mu = Dx.add(D0, scale=-1)
    dmat, keys, rows = _d_matrix(red, D0, 0, t_window)
    index = {key: j for j, key in enumerate(keys)}

    def residual(g):
        return _op_rows(gauge_residual(mu, g, D0, red, t_window, ring), rows)

    def seed(s):
        """Coordinates of the seeded particular solution -(1/t) I_{x_s}, x_s
        the Q cochain of slot s of x."""
        xs = x.value.map_coefficients(lambda c: c.coeffs[s])
        blocks = contraction_blocks(red, xs)
        if any(key not in index for key, _ in blocks.entries()):
            raise NotStabilized("the seed -(1/t) I_x left the t-window")
        return {index[key]: -v for key, v in blocks.entries()}

    # g moves the residual by -[D0, g] on its own level
    lin = SparseMatrix(dmat.rows, dmat.cols, {e: -v for e, v in dmat.entries.items()})
    g, blocked = solve_by_levels(
        ring, lin, residual,
        lambda g, vecs: g.add(_ring_op(ring_values(ring, vecs), keys, 0)),
        BlockOp(0), seed=seed)
    if blocked is None:
        return Trivialization(g, red, D0, mu)
    res = gauge_residual(mu, g, D0, red, t_window, ring)
    return Trivialization(None, red, D0, mu, obstruction=res)


@dataclass
class PTD:
    """Deformed negative complex (sigma >= 0 blocks) plus a trivialization."""

    ring: object
    algebra: object
    x: MCElement
    window: tuple
    bar_bound: int
    negative_differential: BlockOp  # deformed, restricted to sigma >= 0
    trivialization: BlockOp         # g with e^{-g}-conjugation trivializing
    base: BlockOp                   # undeformed transferred differential

    def reduction_is_trivial(self):
        diff = self.negative_differential.add(
            self.base.restrict_nonneg(), scale=-1
        )
        return all(self.ring.levels[s] for s, _ in slot_coordinates(diff.entries()))


def period_map_artin(algebra, x: MCElement, t_window=(-6, 6), bar_bound=None):
    triv = trivialize_periodic(algebra, x, t_window, bar_bound)
    if not triv.ok:
        raise NotStabilized("trivialization failed; obstruction recorded")
    Dx = triv.base.add(triv.deformation)
    ptd = PTD(
        ring=x.ring,
        algebra=algebra,
        x=x,
        window=t_window,
        bar_bound=triv.reduced.bar_bound,
        negative_differential=Dx.restrict_nonneg(),
        trivialization=triv.gauge,
        base=triv.base,
    )
    if not ptd.reduction_is_trivial():
        raise RuntimeError("PTD reduction mod m_R is not the base complex (bug)")
    return ptd


def _ptd_constants(p, q, red, ring):
    """The parts of the PTD residuals that do not depend on (c, a), computed
    once per search: (E(-phi_q), E(-phi_p), N_p - N_q, E(-phi_q) - E(-phi_p))
    for the trivializations phi and the negative differentials N, with
    N_p - N_q truncated as its product by the identity."""
    bar, window = p.bar_bound, p.window
    e_q, e_p = (block_exp(x.trivialization.scaled(-1), ring, red, window)
                for x in (q, p))
    dn = p.negative_differential.add(q.negative_differential, scale=-1)
    return e_q, e_p, dn.truncated(bar, window), e_q.add(e_p, scale=-1)


def _ptd_residuals(p, q, c, a, red, ring, constants):
    """(chain-map residual e^c N_p - N_q e^c on the negative part, square
    residual e^{-phi_q} e^{da} - e^c e^{-phi_p}), each exponential expanded
    as 1 + E and each zero E skipped; constants is _ptd_constants(p, q, red,
    ring).  c has sigma >= 0, so the chain-map residual has too."""
    bar, window = p.bar_bound, p.window
    e_q, e_p, S, R = constants
    ec = block_exp(c, ring, red, window)
    if not ec.is_zero():
        S = S.add(ec.compose(p.negative_differential, bar, window)).add(
            q.negative_differential.compose(ec, bar, window), scale=-1)
        R = R.add(ec.add(ec.compose(e_p, bar, window)), scale=-1)
    eda = block_exp(block_d(p.base, a, bar, window), ring, red, window)
    if not eda.is_zero():
        R = R.add(eda.add(e_q.compose(eda, bar, window)))
    return S, R


def ptd_isomorphic(p: PTD, q: PTD):
    """Search h = e^c (iso of the negative deformations) and a with
    phi_2 e^{da} = h((t)) phi_1; returns (True, (c, a)) or (False, level),
    level None when the search ran out of steps.

    solve_by_levels solves the levels of the maximal ideal in turn, carrying
    the kernel directions left free by the lower levels as probed unknowns
    (exact through nilpotency order 3).  A returned witness always verifies
    on the nose.
    """
    if p.ring is not q.ring or p.window != q.window:
        raise ValueError("PTDs over different rings or windows")
    ring = p.ring
    red = reduce_mixed_complex(p.algebra, p.bar_bound)
    window = p.window
    # unknowns (c with sigma >= 0, a); residual rows are
    #   (1) the chain-map residual S, moved by [D0, c], on degree-1 blocks,
    #   (2) the square residual R, moved by [D0, a] - c, on degree-0 blocks.
    d0, keys_c, rows1 = _d_matrix(red, p.base, 0, window)
    d_1, keys_a, rows0 = _d_matrix(red, p.base, -1, window)
    off = len(rows1)
    cols0 = d0.columns()
    nonneg = [j for j, key in enumerate(keys_c) if key[0] >= 0]
    keys_c = [keys_c[j] for j in nonneg]
    lin = from_columns(
        off + len(rows0),
        [{**cols0[j], off + j: -1} for j in nonneg]
        + [{off + i: v for i, v in col.items()} for col in d_1.columns()])

    constants = _ptd_constants(p, q, red, ring)

    def residual(state):
        S, R = _ptd_residuals(p, q, *state, red, ring, constants)
        return {**_op_rows(S, rows1), **_op_rows(R, rows0, off)}

    def shift(state, vecs):
        c, a = state
        values = ring_values(ring, vecs)  # c's indices, then a's
        return (c.add(_ring_op(values, keys_c, 0)),
                a.add(_ring_op(values, keys_a, -1, first=len(keys_c))))

    state, blocked = solve_by_levels(ring, lin, residual, shift,
                                     (BlockOp(0), BlockOp(-1)), kernel=rref(lin)[1])
    if blocked is None:
        return True, state
    return False, blocked[0]
