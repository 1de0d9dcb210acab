"""Chain-level cup, bracket, contraction, Lie action and their axiom checks.

The verifier works with sparse operator matrices over a finite chain basis
(weights up to the bar bound plus head room), so each identity is checked
exactly on every basis cochain pair against every basis chain in range.  The
Lie action is assembled from a match index, (arity, segment) -> the slots of
the basis chains it fills, which is read off hochschild.lie_terms, so the
slot enumeration and the Lie-action signs have one implementation.

An operator matrix is stored by columns, {col: ((row, coeff), ...)}, with no
zero entries; an integral coefficient is stored as an int, which is exact
since int and Fraction compare and hash equal, and keeps the products of
structure constants out of Fraction arithmetic.  An operator identity
lhs = rhs, in verify_lie_dagger and calculus_defect alike, is checked as
residuals lhs - rhs of the form sum s . X Y + sum s . Z, {col: {row: coeff}}
on the check columns (a prefix of the weight-ordered basis): the Lie action
of a cochain is added into a residual in place, and the rest by one kernel,
_residual, whose products are outer-product sparse products (Gustavson 1978)
over the stored nonzeros.  The identity holds exactly iff every residual
column is zero; its witness is the smallest nonzero column, the first chain
in weight order where the two sides differ.  An identity of calculus_defect
claimed on homology instead "holds on homology" when each residual sends
every homology representative to a boundary, and otherwise fails at the
first (label, degree) where one does not.

Cup-product sign convention (see README): for components of arities p, q,

    (P cup Q)[a_1|..|a_{p+q}]
        = (-1)^{(sd Q + 1) eps_p} P[a_1|..|a_p] . Q[a_{p+1}|..|a_{p+q}]

which makes the cup two-sided unital and gives the exact chain identity
I_P I_Q = (-1)^{|P||Q|} I_{Q cup P}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress, product as iproduct

from .coeff import exact
from .exactlin import apply_columns, chain_add, member, solve
from .hochschild import (
    ArityBoundExceeded,
    ChainBasis,
    Cochain,
    CochainBasis,
    DgStructure,
    _cochain_diff_matrix,
    basis_cochains,
    cochain_differential,
    cocycle_representatives,
    connes_runs,
    contraction_runs,
    flat_hochschild_homology,
    gerstenhaber_bracket,
    lie_action,
    lie_runs,
    lie_terms,
    structure_as_cochain,
    term_matrix,
)

# re-exported: the bracket and Lie action live with the chain machinery
__all__ = [
    "AxiomReport",
    "cup_product",
    "gerstenhaber_bracket",
    "lie_action",
    "contraction",
    "verify_lie_dagger",
    "calculus_defect",
]

from .hochschild import contraction  # noqa: E402  (re-export)


@dataclass
class AxiomReport:
    axiom: str
    status: str  # "holds exactly" | "holds on homology" | "fails"
    witness: object = None

    def __post_init__(self):
        if self.status == "fails" and self.witness is None:
            raise ValueError("a failing axiom needs a witness")

    def __str__(self):
        tail = "" if self.witness is None else f"  witness={self.witness}"
        return f"{self.axiom}: {self.status}{tail}"


def cup_product(algebra, p: Cochain, q: Cochain, arity_bound=None) -> Cochain:
    bound = arity_bound or p.arity_bound or q.arity_bound
    comps = {}
    for lp, compp in p.components.items():
        for lq, compq in q.components.items():
            n = lp + lq
            if bound is not None and n > bound:
                raise ArityBoundExceeded(f"arity {n} exceeds bound {bound}")
            for (w1, out1), (w2, out2) in iproduct(compp.items(), compq.items()):
                eps_p = sum(algebra.degrees[i] - 1 for i in w1)
                sgn = -1 if ((q.sdeg + 1) * eps_p) % 2 else 1
                vec = comps.setdefault(n, {}).setdefault(w1 + w2, {})
                for k1, c1 in out1.items():
                    for k2, c2 in out2.items():
                        for k, m in algebra.product(k1, k2).items():
                            chain_add(vec, k, sgn * c1 * c2 * m)
    return Cochain(algebra, comps, p.sdeg + q.sdeg + 1, bound)


# -- sparse operator engine ------------------------------------------------------


# the placeholder output of the recording probe: a wrap term carries it in
# the a_0 slot, and an interior term hands lie_terms' slotted callback the
# bar slot it fills
_SLOT = object()

# weights materialized beyond check_weight: one intermediate application, and
# the arity-0 and Connes terms
_HEAD_ROOM = 2


class _SlotProbe:
    """A stand-in cochain of sdeg 1 on every arity up to max_arity: it records
    the (arity, segment) lie_terms evaluates it on and outputs _SLOT."""

    sdeg = 1
    _out = {_SLOT: 1}

    def __init__(self, max_arity):
        self.max_arity = max_arity
        self.seen = None

    def arities(self):
        return range(self.max_arity + 1)

    def eval(self, l, seg):
        self.seen = (l, seg)
        return self._out


class OperatorSpace:
    """Finite chain basis with match indexes for fast operator assembly.

    check_weight: identities are asserted on columns of weight <= this;
    operators are materialized on columns up to check_weight + 1 so that one
    intermediate application stays in range.  The basis is ordered by weight,
    so the check columns and the apply columns are prefixes read from the
    basis offsets.

    The match index, (arity, segment) -> matches in increasing column order,
    is read off lie_terms run once per apply column on a _SlotProbe: an
    interior match is (col, slot, (-1)^mu), the slot handed over by
    lie_terms' slotted callback with no chain key built, and a wrap match is
    (col, sign, rest).
    """

    def __init__(self, algebra, check_weight):
        self.algebra = algebra
        self.check_weight = check_weight
        self.basis = ChainBasis(algebra, check_weight + _HEAD_ROOM)
        self.index = self.basis.index
        self.keys = self.basis.keys
        self.apply_cols = range(self.basis.offsets[check_weight + 2])
        self.check_cols = range(self.basis.offsets[check_weight + 1])
        self._interior = interior = {}
        self._wrap = wrap = {}
        probe = _SlotProbe(check_weight + 2)

        def wrap_match(key, sign):  # col is the loop's current column
            wrap.setdefault(probe.seen, []).append((col, sign, key[1]))

        def interior_match(j, out, sign):
            interior.setdefault(probe.seen, []).append((col, j, sign))

        for col in self.apply_cols:
            lie_terms(algebra, probe, *self.keys[col], (wrap_match, interior_match))

    def lie_into(self, cols, cochain, wrap_sign, stop):
        """Add the Lie action of the cochain to cols, {col: {row: coeff}}, in
        place on the columns < stop, and return cols.

        Cancelled entries stay as zeros.  wrap_sign is a self-test hook that
        scales the wrap terms.
        """
        odd = cochain.sdeg % 2
        index, keys = self.index, self.keys
        for l, comp in cochain.components.items():
            for w, out in comp.items():
                out = [(t, exact(c)) for t, c in out.items()]
                for col, j, s in self._interior.get((l, w), ()):
                    if col >= stop:
                        break
                    sgn = s if odd else 1
                    a0, word = keys[col]
                    head, tail = word[:j], word[j + l :]
                    acc = cols.setdefault(col, {})
                    for t, c in out:
                        if t:  # the unit dies in a bar slot
                            r = index[a0, head + (t,) + tail]
                            acc[r] = acc.get(r, 0) + sgn * c
                for col, sgn, rest in self._wrap.get((l, w), ()):
                    if col >= stop:
                        break
                    acc = cols.setdefault(col, {})
                    for t, c in out:
                        r = index[t, rest]
                        acc[r] = acc.get(r, 0) + wrap_sign * sgn * c
        return cols

    def lie_matrix(self, cochain, wrap_sign=1):
        """{col: ((row, coeff), ...)} of the Lie action of the cochain on the
        apply columns."""
        cols = self.lie_into({}, cochain, wrap_sign, len(self.keys))
        return {col: e for col, acc in cols.items() if (e := _column(acc))}

    def operator_matrix(self, runs):
        """{col: ((row, coeff), ...)} of an operator in run form on the apply
        columns."""
        off = self.basis.offsets
        mat = term_matrix(runs, (len(self.keys), len(self.apply_cols)),
                          {n: off[n] for n in range(self.check_weight + 2)}, off)
        return {col: e for col, acc in enumerate(mat.columns())
                if (e := _column(acc))}

    def boundary_matrix(self):
        return self.operator_matrix(
            partial(lie_runs, self.algebra, DgStructure(self.algebra)))

    def connes_matrix(self):
        return self.operator_matrix(partial(connes_runs, self.algebra))

    def contraction_matrix(self, cochain):
        return self.operator_matrix(partial(contraction_runs, self.algebra, cochain))


def _column(acc):
    """The stored form of a column {row: coeff}: a tuple with no zero entries."""
    return tuple((r, exact(v)) for r, v in acc.items() if v)


def _transpose(mat, ncols):
    """{row: ((col, coeff), ...)} of mat restricted to the columns < ncols."""
    rows = {}
    for col, entries in mat.items():
        if col < ncols:
            for r, v in entries:
                rows.setdefault(r, []).append((col, v))
    return {r: tuple(v) for r, v in rows.items()}


def _residual(res, ncols, products, singles=()):
    """Add the sum of s . X Y over products (s, X, tY) and of s . Z over
    singles (s, Z) to res, {col: {row: c}}, in place on the columns < ncols,
    and return res.

    tY is Y by rows over the columns < ncols.  Outer-product form (Gustavson
    1978): (X Y)[:, c] is the sum of X[:, i] * Y[i, c] over the rows i of tY
    that are also columns of X, so only stored nonzeros are touched.
    """
    for s, X, tY in products:
        for i in tY.keys() & X.keys():
            xcol = X[i]
            for c, y in tY[i]:
                acc = res.setdefault(c, {})
                y *= s
                for r, x in xcol:
                    acc[r] = acc.get(r, 0) + x * y
    for s, Z in singles:
        for c, entries in Z.items():
            if c < ncols:
                acc = res.setdefault(c, {})
                for r, z in entries:
                    acc[r] = acc.get(r, 0) + s * z
    return res


def _first_nonzero(res):
    """The smallest column of res with a nonzero entry, or None."""
    return min(compress(res, map(any, map(dict.values, res.values()))),
               default=None)


def _sign(k):
    return -1 if k % 2 else 1


def _report(axiom, witness):
    return AxiomReport(axiom, "holds exactly" if witness is None else "fails",
                       witness)


# -- Lie-dagger verification --------------------------------------------------------


def _lie_matrices(space, cochains, wrap_sign):
    """(L_P, L_P by rows over the check columns) for every cochain."""
    ncheck = len(space.check_cols)
    mats = [space.lie_matrix(c, wrap_sign=wrap_sign) for c in cochains]
    return [(m, _transpose(m, ncheck)) for m in mats]


def _bracket_action_witness(space, cochains, mats, arity_bound, wrap_sign,
                            a_range):
    ncheck = len(space.check_cols)
    for a in a_range:
        P, (mp, tp) = cochains[a], mats[a]
        for b in range(a, len(cochains)):
            Q, (mq, tq) = cochains[b], mats[b]
            res = space.lie_into({}, gerstenhaber_bracket(P, Q, 2 * arity_bound),
                                 wrap_sign, ncheck)
            sign = _sign(P.sdeg * Q.sdeg)
            col = _first_nonzero(_residual(res, ncheck, ((-1, mp, tq), (sign, mq, tp))))
            if col is not None:
                return (space.keys[col], a, b)
    return None


_POOL_STATE = {}


def _pool_init(algebra_data, arity_bound, bar_bound, wrap_sign):
    from .algebra import DgAlgebra

    labels, degrees, mult, diff, name = algebra_data
    algebra = DgAlgebra(labels, degrees, mult, diff, name=name, validate=False)
    space = OperatorSpace(algebra, bar_bound)
    cochains = basis_cochains(algebra, arity_bound)
    for c in cochains:
        c.arity_bound = 2 * arity_bound
    _POOL_STATE.update(space=space, cochains=cochains,
                       mats=_lie_matrices(space, cochains, wrap_sign),
                       arity_bound=arity_bound, wrap_sign=wrap_sign)


def _pool_chunk(a_range):
    s = _POOL_STATE
    return _bracket_action_witness(
        s["space"], s["cochains"], s["mats"], s["arity_bound"], s["wrap_sign"],
        a_range,
    )


def verify_lie_dagger(algebra, arity_bound=3, bar_bound=4, _wrap_sign=1,
                      workers=None):
    """Check the three dg-Lie-action identities exactly, plus L_b = boundary.

    (1) L_{[P,Q]} = L_P L_Q - (-1)^{sd P sd Q} L_Q L_P for all basis cochain
        pairs with arity <= arity_bound, on all chains of weight <= bar_bound;
    (2) d L_P - (-1)^{sd P} L_P d = L_{dP};
    (3) B L_P - (-1)^{sd P} L_P B = 0.

    Each identity is one residual per pair or cochain (module docstring): the
    witness is the first failing pair or cochain, with the smallest nonzero
    column of its residual.  Returns four AxiomReports; a negative bound
    raises ValueError.  _wrap_sign != 1 corrupts the wrap terms of the Lie
    action (self-test hook for the failure path).  workers > 1 splits the
    pair loop over processes (NCPERIOD_THREADS via the CLI); results are
    merged in index order, so the report is deterministic.
    """
    if min(arity_bound, bar_bound) < 0:
        raise ValueError(f"negative bound: arity {arity_bound}, bar {bar_bound}")
    import os

    space = OperatorSpace(algebra, bar_bound)
    ncheck = len(space.check_cols)
    cochains = basis_cochains(algebra, arity_bound)
    for c in cochains:
        c.arity_bound = 2 * arity_bound
    mats = _lie_matrices(space, cochains, _wrap_sign)
    boundary = space.boundary_matrix()
    t_boundary = _transpose(boundary, ncheck)
    connes = space.connes_matrix()
    t_connes = _transpose(connes, ncheck)
    reports = []

    if workers is None:
        workers = int(os.environ.get("NCPERIOD_THREADS", "1"))
    if workers > 1 and len(cochains) > 8:
        import multiprocessing as mp

        data = (list(algebra.labels), list(algebra.degrees),
                {k: dict(v) for k, v in algebra.mult.items()},
                {k: dict(v) for k, v in algebra.diff.items()}, algebra.name)
        chunks = [range(i, len(cochains), workers) for i in range(workers)]
        with mp.Pool(workers, initializer=_pool_init,
                     initargs=(data, arity_bound, bar_bound, _wrap_sign)) as pool:
            found = [w for w in pool.map(_pool_chunk, chunks) if w]
        witness = min(found, key=lambda w: (w[1], w[2])) if found else None
    else:
        witness = _bracket_action_witness(
            space, cochains, mats, arity_bound, _wrap_sign, range(len(cochains)))
    reports.append(_report("bracket-action: L_[P,Q] = [L_P, L_Q]", witness))

    for axiom, op, t_op, lhs in (
            ("boundary-compat: d^End L_P = L_dP", boundary, t_boundary,
             lambda P: cochain_differential(algebra, P, 2 * arity_bound)),
            ("connes-compat: [B, L_P] = 0", connes, t_connes, None)):
        witness = None
        for a, (P, (mp, tp)) in enumerate(zip(cochains, mats)):
            res = space.lie_into({}, lhs(P), _wrap_sign, ncheck) if lhs else {}
            col = _first_nonzero(_residual(
                res, ncheck, ((-1, op, tp), (_sign(P.sdeg), mp, t_op))))
            if col is not None:
                witness = (space.keys[col], a)
                break
        reports.append(_report(axiom, witness))

    res = space.lie_into({}, structure_as_cochain(algebra, 2 * arity_bound),
                         _wrap_sign, ncheck)
    col = _first_nonzero(_residual(res, ncheck, (), ((-1, boundary),)))
    reports.append(_report("action-at-structure: L_b = boundary",
                           None if col is None else space.keys[col]))
    return reports


# -- full calculus axioms, exact or on homology ---------------------------------------


def _is_boundary(space, hh, vec):
    """Is the chain vector (dict over space.basis) a boundary in its weight?"""
    if not vec:
        return True
    weights = {len(space.keys[i][1]) for i in vec}
    if len(weights) != 1:
        return False
    n = weights.pop()
    if n not in hh.spots:
        return False
    off = space.basis.offsets[n]
    return member(hh.spots[n].boundary_basis, {i - off: v for i, v in vec.items()})


def _chain_verdict(space, axiom, residuals, homology=None):
    """The report of an identity from its residuals [(label, res)].

    "holds exactly" when every residual is zero on the check columns.
    Otherwise, given homology = (hh, {degree: representatives}), "holds on
    homology" when each residual sends every representative to a boundary,
    else "fails" at the first (label, degree) that does not; with no
    homology (an identity claimed at chain level) "fails" at the chain of the
    first nonzero column.
    """
    cols = [col for _, res in residuals if (col := _first_nonzero(res)) is not None]
    if not cols:
        return AxiomReport(axiom, "holds exactly")
    if homology is None:
        return AxiomReport(axiom, "fails", space.keys[cols[0]])
    hh, reps = homology
    for label, res in residuals:
        for n, vecs in reps.items():
            for rep in vecs:
                if not _is_boundary(space, hh,
                                    apply_columns(lambda j: res.get(j, {}), rep)):
                    return AxiomReport(axiom, "fails", (label, n))
    return AxiomReport(axiom, "holds on homology")


def _cochain_is_coboundary(algebra, c: Cochain):
    """Is a single-arity cochain a coboundary of the normalized complex?"""
    arities = c.arities()
    if not arities:
        return True
    if len(arities) > 1:
        return False
    l = arities[0]
    if l == 0:
        return not c.components
    cb = CochainBasis(algebra, l)
    vec = {cb.index[w, t]: v for w, out in c.components[l].items()
           for t, v in out.items()}
    return solve(_cochain_diff_matrix(algebra, l - 1), vec) is not None


def _cochain_verdict(algebra, axiom, defects):
    """The report of an identity on HH^* from its defects [(label, cochain)]:
    "holds exactly" when all vanish, "holds on homology" when each is a
    coboundary, else "fails" at the first label that is not."""
    status = "holds exactly"
    for label, c in defects:
        if c.is_zero():
            continue
        status = "holds on homology"
        if not cochain_differential(algebra, c).is_zero() or \
                not _cochain_is_coboundary(algebra, c):
            return AxiomReport(axiom, "fails", label)
    return AxiomReport(axiom, status)


def calculus_defect(algebra, degree_bound=2, bar_bound=4):
    """Evaluate the calculus axioms at chain level on HH^* cocycle reps.

    Each identity is written as residuals (module docstring) and judged by
    one verdict: the chain-level identities by _chain_verdict on their
    operator residuals, the cochain-level ones on HH^* by _cochain_verdict
    on their defect cochains; cup-associativity is claimed at chain level
    and fails on any nonzero defect.  A negative bound raises ValueError.
    """
    if min(degree_bound, bar_bound) < 0:
        raise ValueError(f"negative bound: degree {degree_bound}, bar {bar_bound}")
    if not algebra.is_degree_zero():
        raise ValueError("calculus_defect requires a degree-0 algebra")
    space = OperatorSpace(algebra, bar_bound)
    ncheck = len(space.check_cols)
    # homology spots cover one weight above the probed classes, so that
    # weight-raising defects (arity-0 cochains, the Connes factor) stay
    # within the membership-checkable range
    hh = flat_hochschild_homology(algebra, range(0, bar_bound + 1))
    offsets = space.basis.offsets
    homology = (hh, {
        n: [{offsets[n] + i: v for i, v in rep.items()}
            for rep in hh.spots[n].homology_reps]
        for n in range(0, bar_bound)
    })
    classes = []
    for s in range(0, degree_bound + 1):
        classes.extend(cocycle_representatives(algebra, s, degree_bound + 2))
    for c in classes:
        c.arity_bound = 2 * degree_bound + 2
    reports = [_cochain_verdict(algebra, "cup-commutativity (on HH^*)", (
        ((P.sdeg + 1, Q.sdeg + 1), cup_product(algebra, P, Q).add(
            cup_product(algebra, Q, P), scale=-_sign((P.sdeg + 1) * (Q.sdeg + 1))))
        for P, Q in iproduct(classes, repeat=2)))]

    witness = None
    for P, Q, R in iproduct(classes, repeat=3):
        assoc = cup_product(algebra, cup_product(algebra, P, Q), R).add(
            cup_product(algebra, P, cup_product(algebra, Q, R)), scale=-1
        )
        if not assoc.is_zero():
            witness = (P.sdeg, Q.sdeg, R.sdeg)
            break
    reports.append(_report("cup-associativity (chain level)", witness))

    # Leibniz [P, Q cup R] = [P,Q] cup R + (-1)^{(|P|+1)|Q|} Q cup [P,R]
    reports.append(_cochain_verdict(algebra, "bracket-cup Leibniz (on HH^*)", (
        ((P.sdeg + 1, Q.sdeg + 1, R.sdeg + 1),
         gerstenhaber_bracket(P, cup_product(algebra, Q, R)).add(
             cup_product(algebra, gerstenhaber_bracket(P, Q), R).add(
                 cup_product(algebra, Q, gerstenhaber_bracket(P, R)),
                 scale=_sign((P.sdeg + 2) * (Q.sdeg + 1))), scale=-1))
        for P, Q, R in iproduct(classes, repeat=3))))

    # The chain-level identities, as residuals lhs - rhs on the check columns.
    # Relative to the abstract calculus the realized contraction carries a
    # suspension-order sign normalization (see README):
    #   module:  I_{P cup Q} = (-1)^{|P||Q|} I_Q I_P, exactly
    #   cartan:  B I_P - (-1)^{|P|} I_P B = (-1)^{|P|+1} L_P
    #   mixed:   I_P L_Q - (-1)^{|P|(|Q|-1)} L_Q I_P = (-1)^{|P|(|Q|+1)} I_{[P,Q]}
    #   l-cup:   L_{P cup Q} = (-1)^{|Q|(|P|+1)} L_P I_Q + (-1)^{|P||Q|} I_P L_Q
    single = [c for c in classes if len(c.arities()) == 1]
    deg = [P.sdeg + 1 for P in single]
    con = [space.contraction_matrix(P) for P in single]
    lie = [space.lie_matrix(P) for P in single]
    t_con = [_transpose(m, ncheck) for m in con]
    t_lie = [_transpose(m, ncheck) for m in lie]
    connes = space.connes_matrix()
    t_connes = _transpose(connes, ncheck)
    pairs = list(iproduct(range(len(single)), repeat=2))
    cups = {(p, q): cup_product(algebra, single[p], single[q]) for p, q in pairs}

    module = [(None, _residual(
        {}, ncheck, ((-_sign(deg[p] * deg[q]), con[q], t_con[p]),),
        ((1, space.contraction_matrix(cups[p, q])),))) for p, q in pairs]
    cartan = [((deg[p],), _residual(
        {}, ncheck, ((1, connes, t_con[p]), (-_sign(deg[p]), con[p], t_connes)),
        ((_sign(deg[p]), lie[p]),))) for p in range(len(single))]
    mixed = []
    for p, q in pairs:
        br = gerstenhaber_bracket(single[p], single[q])
        if len(br.arities()) <= 1:
            mixed.append(((deg[p], deg[q]), _residual(
                {}, ncheck, ((1, con[p], t_lie[q]),
                             (-_sign(deg[p] * (deg[q] - 1)), lie[q], t_con[p])),
                ((-_sign(deg[p] * (deg[q] + 1)), space.contraction_matrix(br)),))))
    l_cup = [((deg[p], deg[q]), _residual(
        space.lie_into({}, cups[p, q], 1, ncheck), ncheck,
        ((-_sign(deg[q] * (deg[p] + 1)), lie[p], t_con[q]),
         (-_sign(deg[p] * deg[q]), con[p], t_lie[q])))) for p, q in pairs]
    for axiom, residuals, on_homology in (
            ("contraction-module: I_{P cup Q} = (-1)^{|P||Q|} I_Q I_P (chain level)",
             module, None),
            ("cartan: B I_P - (-1)^{|P|} I_P B = (-1)^{|P|+1} L_P (on homology)",
             cartan, homology),
            ("precalculus-mixed: [I_P, L_Q] = (-1)^{|P|(|Q|+1)} I_{[P,Q]} "
             "(on homology)", mixed, homology),
            ("action-cup: L_{P cup Q} = (-1)^{|Q|(|P|+1)} L_P I_Q "
             "+ (-1)^{|P||Q|} I_P L_Q (on homology)", l_cup, homology)):
        reports.append(_chain_verdict(space, axiom, residuals, on_homology))
    return reports
