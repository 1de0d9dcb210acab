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
starts from -(1/t) I_{x_s} in every slot s of x, x_s the Q cochain in that
slot; the PTD search also carries the kernel directions of lower levels
that move a residual, exact through nilpotency order 3, so past it a
search that stops answers None, not False).
The solves run on slot forms (coeff.Slots): an operator over R is one Q
BlockOp per ring slot, and the product of two is one Q BlockOp.compose per
slot pair through the ring's structure constants (_compose, by
coeff.slot_product).  The deformed differential, gauge_residual, block_exp
and the PTD residuals take and give slot forms; a residual's coordinates
are read off its slots and a shift adds a Q BlockOp per slot.  Block
operators over R, with RingElement entries, appear only at the boundary:
the fields of a Trivialization and of a PTD and the PTD witness (c, a),
each converted once by op_slots and ring_op.
The bar is the one policy's (cyclic.default_bar_bound): one algebra and
window give one reduction, which a Trivialization and a PTD hold (reduced),
and every BlockOp of a search has both weights at most its bar, so a
product cuts only the t-window.
Every exponential enters a residual as 1 + E(g), E(g) = e^g - 1 from
block_exp, and a product by the 1 is the other factor truncated as compose
truncates (BlockOp.truncated), so no identity operator is multiplied out;
the PTD search computes the parts of its residuals that do not depend on
the unknowns once (_ptd_constants).  The [D0, -] matrices (_d_matrix, per
degree and window) and the PTD system with its kernel (_ptd_system, per
window) depend on the reduction alone: each is built once and kept on it
by exactlin.kept; callers only read them.

Conventions:
  * trivialize_periodic returns g with  e^g . 0 = (deformed - undeformed)
    part, i.e. the e^{-g}-conjugation carries the deformed windowed periodic
    differential to the undeformed one; its first-order part is the starting
    point -(1/t) I_x up to an exact correction;
  * a PTD stores that g; its trivialization isomorphism is phi = e^{-g}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeff import Slots, ring_values, slot_add, slot_coordinates, slot_product
from .cyclic import (
    NotStabilized,
    _project,
    default_bar_bound,
    perturbation_transfer,
    reduce_mixed_complex,
)
from .deform import MCElement, _require_mc, solve_by_levels
from .exactlin import SparseMatrix, express_in_homology, from_columns, kept, rank, rref
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
    stored block.  Entries are Q numbers or RingElements; the solves hold an
    operator over a ring as one Q BlockOp per ring slot (op_slots).
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

    def compose(self, other, window, scale=1, out=None):
        """scale . self . other with t-shift truncation, added to out (default
        a new BlockOp) and returned."""
        lo, hi = window
        out = BlockOp(self.deg + other.deg) if out is None else out
        blocks1 = self.blocks if scale == 1 else self.scaled(scale).blocks
        for (s2, m2, mm2), mat2 in other.blocks.items():
            rows2 = None  # mat2 as {row: [(col, value), ...]}, built once
            for (s1, m1, mm1), mat1 in blocks1.items():
                s = s1 + s2
                if m1 != mm2 or not lo <= s <= hi:
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

    def truncated(self, window):
        """The blocks that compose keeps of a product by the identity: those
        with sigma in the window."""
        lo, hi = window
        return BlockOp(self.deg, {
            k: mat for k, mat in self.blocks.items() if lo <= k[0] <= hi})

    def entries(self):
        """((sigma, m, m', row, col), value) for every stored entry."""
        for (sig, m, m2), mat in self.blocks.items():
            for (r, c), v in mat.items():
                yield (sig, m, m2, r, c), v

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


# -- slot forms of block operators --------------------------------------------------


def op_slots(ring, op: BlockOp) -> Slots:
    """The slot form {slot: Q BlockOp} of a BlockOp over ring, read by
    coeff.slot_coordinates (a Q entry sits in slot 0)."""
    parts = {}
    for (s, key), q in slot_coordinates(op.entries()).items():
        parts.setdefault(s, {})[key] = q
    return Slots(ring, {s: _op_of(op.deg, ent) for s, ent in parts.items()})


def ring_op(slots: Slots, deg) -> BlockOp:
    """The BlockOp over slots.ring of a slot form, by coeff.ring_values."""
    return _op_of(deg, ring_values(slots.ring, {s: dict(op.entries())
                                                for s, op in slots.items()}))


def _compose(a: Slots, b: Slots, window, scale=1) -> Slots:
    """scale . a . b of slot forms: one Q BlockOp.compose per slot pair,
    through coeff.slot_product."""
    parts = slot_product(a, b, lambda f, g, c, acc: f.compose(g, window, c * scale, acc))
    return Slots(a.ring, {k: op for k, op in parts.items() if op.blocks})


def _truncated(a: Slots, window) -> Slots:
    """The slot form of a's product by the identity (BlockOp.truncated)."""
    return Slots(a.ring, {s: t for s, op in a.items() if (t := op.truncated(window)).blocks})


def _slot_op(ring, deg, vecs, keys, first=0):
    """The slot form whose slot-s entry at keys[i] is vecs[s][first + i];
    indices outside keys belong to another unknown and are skipped."""
    return Slots(ring, {s: op for s, vec in vecs.items() if (op := _op_of(deg, {
        keys[i - first]: q for i, q in vec.items() if 0 <= i - first < len(keys)})).blocks})


def block_exp(g: Slots, ring, window) -> Slots:
    """E(g) = e^g - 1 = sum_{k>=1} g^k / k! for the slot form of a degree-0 g
    with coefficients in m_R (nilpotent); every caller expands e^g as
    1 + E(g)."""
    term = out = _truncated(g, window)
    for k in range(2, ring.nilpotency_order + 2):
        if not term:
            break
        term = _compose(g, term, window, Fraction(1, k))
        out = slot_add(out, term)
    return out


# -- transfers ---------------------------------------------------------------------


def base_differential(red) -> BlockOp:
    """The transferred undeformed differential sum t^{n+1} p B (h B)^n iota."""
    return BlockOp(1, red.transfer)


def deformed_differential(red, x: MCElement, window) -> Slots:
    """Transfer of d + tB + L_x through the weightwise retract, as the slot
    form of a block operator."""
    return Slots(x.ring, {s: BlockOp(1, blocks) for s, blocks in
                          perturbation_transfer(red, x.slots, window).items()})


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
    the reduction at default_bar_bound for the top degree and no t-power."""
    degrees = sorted(degree_range)
    red = reduce_mixed_complex(algebra, default_bar_bound(algebra, max(degrees), -1))
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
    HH is computed at every degree d - s >= 0 that a verdict reads.
    """
    if any(len(word) != d for _, word in pi_chain):
        raise ValueError(f"pi_chain has a chain outside bar weight {d}")
    degrees = sorted(degree_range)
    top = max(degrees)
    hh = flat_hochschild_homology(algebra, {d - s for s in degrees if d - s >= 0})
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


def _block_basis(h_dims, deg, window):
    """Index the degree-homogeneous block coordinates (sigma, m, m', r, c)
    of the weights 0 .. len(h_dims) - 1 of a reduction."""
    lo, hi = window
    out = []
    for m, dim in enumerate(h_dims):
        if not dim:
            continue
        for sig in range(lo, hi + 1):
            m2 = m + 2 * sig - deg
            if 0 <= m2 < len(h_dims) and h_dims[m2]:
                for r in range(h_dims[m2]):
                    for c in range(dim):
                        out.append((sig, m, m2, r, c))
    return {key: i for i, key in enumerate(out)}, out


def _op_of(deg, entries):
    """BlockOp from {(sigma, m, m', row, col): value}; zero values are dropped."""
    op = BlockOp(deg)
    for (sig, m, m2, r, c), v in entries.items():
        if v:
            op.blocks.setdefault((sig, m, m2), {})[r, c] = v
    return op


def _op_rows(ops: Slots, index, offset=0):
    """Ring-slot coordinates {(slot, offset + row)} of the slot form ops on
    a block basis; raises NotStabilized for an entry outside the basis (the
    window)."""
    rows = {}
    for s, op in ops.items():
        for key, q in op.entries():
            i = index.get(key)
            if i is None:
                raise NotStabilized(f"residual block {key[:3]} left the window")
            rows[s, offset + i] = q
    return rows


def block_d(D0, f, window):
    """[D0, f] = D0 f - (-1)^{deg f} f D0, both products summed into one
    BlockOp."""
    sgn = -1 if f.deg % 2 else 1
    return f.compose(D0, window, -sgn, D0.compose(f, window))


def _d_matrix(red, deg, window):
    """_assemble_d_matrix(red, deg, window), assembled once per (deg,
    window) on red."""
    window = tuple(window)
    return kept(red, ("[D0, -]", window, deg), lambda: _assemble_d_matrix(red, deg, window))


def _assemble_d_matrix(red, deg, window):
    """Matrix of f -> [D0, f] on degree-deg block operators, for D0 =
    base_differential(red), with its source keys and target index."""
    D0 = base_differential(red)
    src_index, src_keys = _block_basis(red.h_dims, deg, window)
    dst_index, _ = _block_basis(red.h_dims, deg + 1, window)
    mat = SparseMatrix(len(dst_index), len(src_index))
    for key, j in src_index.items():
        sig, m, m2, r, c = key
        e = BlockOp(deg)
        e.blocks[sig, m, m2] = {(r, c): 1}
        de = block_d(D0, e, window)
        for key2, mat2 in de.blocks.items():
            for (r2, c2), v in mat2.items():
                i = dst_index.get((key2[0], key2[1], key2[2], r2, c2))
                if i is not None:
                    mat.add_to(i, j, v)
    return mat, src_keys, dst_index


def gauge_residual(mu: Slots, g: Slots, D0: BlockOp, window, ring) -> Slots:
    """e^g . mu, computed as the e^g-conjugation of T = D0 + mu minus D0, for
    the slot forms mu and g over ring and the Q operator D0.

    With e^{+-g} = 1 + E(+-g) the conjugate is A + A E(-g) for A = T + E(g) T,
    where the product of T by 1 is T truncated; zero E terms are skipped.
    """
    d0 = Slots(ring, {0: D0})
    total = slot_add(d0, mu)
    conj = _truncated(total, window)
    eg = block_exp(g, ring, window)
    if eg:
        conj = slot_add(conj, _compose(eg, total, window))
    eg_inv = block_exp(slot_add(Slots(ring), g, -1), ring, window)
    if eg_inv:
        conj = slot_add(conj, _compose(conj, eg_inv, window))
    return slot_add(conj, d0, -1)


@dataclass
class Trivialization:
    """Result of the order-by-order periodic trivialization.

    gauge is None exactly when some filtration step was obstructed, in which
    case obstruction holds the residual of the gauge reached before it (the
    class of its lowest-level slice modulo [D0, -] is the obstructing class).
    """

    gauge: object          # BlockOp over the ring, or None
    reduced: object        # the weightwise-reduced mixed complex
    base: BlockOp          # transferred undeformed differential, over Q
    deformation: BlockOp   # transferred deformation part, over the ring
    obstruction: object = None

    @property
    def ok(self):
        return self.gauge is not None


def trivialize_periodic(algebra, x: MCElement, t_window=(-6, 6)):
    """Gauge element g (blocks) with e^g-conjugation of the deformed windowed
    periodic differential equal to the undeformed one, as a Trivialization;
    on an obstructed filtration step, gauge is None and the blocking residual
    is reported.  It reduces at default_bar_bound(algebra, 2, hi) for the
    window (lo, hi).  Raises NotMaurerCartan for a non-Maurer-Cartan input.
    """
    _require_mc(algebra, x)
    ring = x.ring
    red = reduce_mixed_complex(algebra, default_bar_bound(algebra, 2, t_window[1]))
    D0 = base_differential(red)
    mu = slot_add(deformed_differential(red, x, t_window), Slots(ring, {0: D0}), -1)
    dmat, keys, rows = _d_matrix(red, 0, t_window)
    index = {key: j for j, key in enumerate(keys)}

    def residual(g):
        return _op_rows(gauge_residual(mu, g, D0, t_window, ring), rows)

    def seed(xs):
        """Coordinates of the seed -(1/t) I_{x_s}, the start of slot s, for
        the Q cochain xs = x_s in slot s of x."""
        blocks = contraction_blocks(red, xs)
        if any(key not in index for key, _ in blocks.entries()):
            raise NotStabilized("the seed -(1/t) I_x left the t-window")
        return {index[key]: -v for key, v in blocks.entries()}

    def shift(g, vecs):
        return slot_add(g, _slot_op(ring, 0, vecs, keys))

    # g moves the residual by -[D0, g] on its own level
    lin = SparseMatrix(dmat.rows, dmat.cols, {e: -v for e, v in dmat.entries.items()})
    g, blocked = solve_by_levels(ring, lin, residual, shift, shift(
        Slots(ring), {s: seed(xs) for s, xs in x.slots.items()}))
    if blocked is None:
        return Trivialization(ring_op(g, 0), red, D0, ring_op(mu, 1))
    res = gauge_residual(mu, g, D0, t_window, ring)
    return Trivialization(None, red, D0, ring_op(mu, 1), obstruction=ring_op(res, 1))


@dataclass
class PTD:
    """Deformed negative complex (sigma >= 0 blocks) plus a trivialization."""

    ring: object
    x: MCElement
    window: tuple
    reduced: object                 # the ReducedMixedComplex it was built on
    negative_differential: BlockOp  # deformed, restricted to sigma >= 0
    trivialization: BlockOp         # g with e^{-g}-conjugation trivializing
    base: BlockOp                   # undeformed transferred differential

    def reduction_is_trivial(self):
        diff = self.negative_differential.add(
            self.base.restrict_nonneg(), scale=-1
        )
        return all(self.ring.levels[s] for s, _ in slot_coordinates(diff.entries()))


def period_map_artin(algebra, x: MCElement, t_window=(-6, 6)):
    triv = trivialize_periodic(algebra, x, t_window)
    if not triv.ok:
        raise NotStabilized("trivialization failed; obstruction recorded")
    Dx = triv.base.add(triv.deformation)
    ptd = PTD(
        ring=x.ring,
        x=x,
        window=t_window,
        reduced=triv.reduced,
        negative_differential=Dx.restrict_nonneg(),
        trivialization=triv.gauge,
        base=triv.base,
    )
    if not ptd.reduction_is_trivial():
        raise RuntimeError("PTD reduction mod m_R is not the base complex (bug)")
    return ptd


def _ptd_constants(p, q, ring):
    """The parts of the PTD residuals that do not depend on (c, a), computed
    once per search as slot forms: (N_p, N_q, E(-phi_q), E(-phi_p),
    N_p - N_q, E(-phi_q) - E(-phi_p)) for the negative differentials N and
    the trivializations phi, with N_p - N_q truncated as its product by the
    identity."""
    n_p, n_q = (op_slots(ring, x.negative_differential) for x in (p, q))
    e_q, e_p = (block_exp(op_slots(ring, x.trivialization.scaled(-1)), ring, p.window)
                for x in (q, p))
    return (n_p, n_q, e_q, e_p, _truncated(slot_add(n_p, n_q, -1), p.window),
            slot_add(e_q, e_p, -1))


def _ptd_residuals(p, q, c, a, ring, constants):
    """(chain-map residual e^c N_p - N_q e^c on the negative part, square
    residual e^{-phi_q} e^{da} - e^c e^{-phi_p}) for the slot forms c and a,
    each exponential expanded as 1 + E and each zero E skipped; constants is
    _ptd_constants(p, q, ring).  c has sigma >= 0, so the chain-map
    residual has too."""
    window = p.window
    n_p, n_q, e_q, e_p, S, R = constants
    ec = block_exp(c, ring, window)
    if ec:
        S = slot_add(slot_add(S, _compose(ec, n_p, window)), _compose(n_q, ec, window), -1)
        R = slot_add(R, slot_add(ec, _compose(ec, e_p, window)), -1)
    da = Slots(ring, {s: d for s, op in a.items() if (d := block_d(p.base, op, window)).blocks})
    eda = block_exp(da, ring, window)
    if eda:
        R = slot_add(R, slot_add(eda, _compose(e_q, eda, window)))
    return S, R


def _ptd_system(red, window):
    """The linear system of the PTD search on red in window, with the kernel
    directions it probes: (lin, kernel, keys_c, keys_a, rows1, rows0).  The
    unknowns are c (its sigma >= 0 keys_c), then a (keys_a); the rows are
      (1) the chain-map residual S, moved by [D0, c], on degree-1 blocks
          (rows1),
      (2) the square residual R, moved by [D0, a] - c, on degree-0 blocks
          (rows0, after rows1).
    kernel is rref(lin)[1] less its inert vectors: those with no c part and
    [D0, a] = 0 as a block operator.  The residuals read a only through
    [D0, a] (_ptd_residuals), so an inert direction moves no residual, and
    its probe column in solve_by_levels would be zero, never a pivot."""
    d0, keys_c, rows1 = _d_matrix(red, 0, window)
    d_1, keys_a, rows0 = _d_matrix(red, -1, window)
    off = len(rows1)
    cols0 = d0.columns()
    nonneg = [j for j, key in enumerate(keys_c) if key[0] >= 0]
    nc = len(nonneg)
    lin = from_columns(
        off + len(rows0),
        [{**cols0[j], off + j: -1} for j in nonneg]
        + [{off + i: v for i, v in col.items()} for col in d_1.columns()])
    D0 = base_differential(red)
    kernel = [z for z in rref(lin)[1] if min(z) < nc or block_d(
        D0, _op_of(-1, {keys_a[j - nc]: v for j, v in z.items()}), window).blocks]
    return lin, kernel, [keys_c[j] for j in nonneg], keys_a, rows1, rows0


def ptd_isomorphic(p: PTD, q: PTD):
    """Search h = e^c (iso of the negative deformations) and a with
    phi_2 e^{da} = h((t)) phi_1; returns (True, (c, a)), or (False, level)
    or (None, level) with the m-adic level where the search stopped, None
    when it ran out of steps.

    solve_by_levels solves the levels of the maximal ideal in turn, carrying
    the kernel directions left free by the lower levels as probed unknowns.
    A returned witness always verifies on the nose.  A failure is a "no",
    False, only where the search is exact: at level 1, which has no probe
    columns, or over a ring of nilpotency order <= 3, where the probes are
    exact.  Elsewhere, and when the steps ran out, it is None: undecided.
    """
    if p.ring is not q.ring or p.window != q.window or p.reduced is not q.reduced:
        raise ValueError("PTDs over different rings, windows or reductions (algebras)")
    ring, red, window = p.ring, p.reduced, tuple(p.window)
    lin, kernel, keys_c, keys_a, rows1, rows0 = kept(
        red, ("ptd", window), lambda: _ptd_system(red, window))
    off = len(rows1)

    constants = _ptd_constants(p, q, ring)

    def residual(state):
        S, R = _ptd_residuals(p, q, *state, ring, constants)
        return {**_op_rows(S, rows1), **_op_rows(R, rows0, off)}

    def shift(state, vecs):
        c, a = state  # vecs hold c's indices, then a's
        return (slot_add(c, _slot_op(ring, 0, vecs, keys_c)),
                slot_add(a, _slot_op(ring, -1, vecs, keys_a, len(keys_c))))

    state, blocked = solve_by_levels(ring, lin, residual, shift,
                                     (Slots(ring), Slots(ring)), kernel=kernel)
    if blocked is None:
        c, a = state
        return True, (ring_op(c, 0), ring_op(a, -1))
    level = blocked[0]
    decided = level == 1 or (level is not None and ring.nilpotency_order <= 3)
    return (False if decided else None), level
