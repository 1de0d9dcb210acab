from fractions import Fraction

from ncperiod.coeff import slot_coordinates
from ncperiod.deform import MCElement
from ncperiod.exactlin import IncrementalSpan, SparseMatrix, rref
from ncperiod.hochschild import (
    Cochain,
    CochainBasis,
    _cochain_diff_matrix,
    boundary_matrices,
    chain_spaces,
    connes_matrices,
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
