"""Chain-level cup, bracket, contraction, Lie action and their axiom checks.

The verifier works with sparse operator matrices over a finite chain basis
(weights up to the bar bound plus head room), so each identity is checked
exactly on every basis cochain pair against every basis chain in range.  d,
B and I_P are assembled per key, hochschild._keyed_matrix of lie_terms,
connes_terms and contraction_terms over the ChainBasis index.  The Lie
action of a cochain is assembled from per-word tables whose rows, columns
and signs are read off the per-word digit helpers of hochschild (_digits,
_interior_grid, _wrap_runs), the ones its run form lie_runs reads, so the
Lie-action index and its signs have one implementation.

An operator matrix is stored by columns, {col: ((row, coeff), ...)}, with no
zero entries; an integral coefficient is stored as an int, which is exact
since int and Fraction compare and hash equal, and keeps the products of
structure constants out of Fraction arithmetic.  The matrices and
transposes one OperatorSpace builds hold one object per distinct (row,
coeff) entry and per distinct column tuple, looked up once the coefficient
is exact, so an int and the Fraction equal to it never merge; most columns
of the Lie matrices repeat a few values.  verify_lie_dagger keeps a Lie
matrix's weight bar + 1 columns, which skip that store, only while its first
pass reads them, a word's apply-column Lie tables only until the cochains on
the word are built, and the store until its second pass.  An operator
identity lhs = rhs, in verify_lie_dagger and calculus_defect alike, is
checked as residuals lhs - rhs of the form sum s . X Y + sum s . Z on the
check columns (a prefix of the weight-ordered basis).  A residual is one
flat dict {col . N + row: coeff}, N the size of the chain basis, and the
transposes its products read store col . N.  The Lie action of a cochain is
added into a residual in place through per-word tables: the table of an
(arity, word, parity) is made from those helpers on first use, and kept when
it covers the check columns; each match in it is (kbase, stride, sign), the
row of output t being kbase + stride . t in the mixed-radix index of
chain_spaces, so no chain key is built per term.  The rest is added by one
kernel, _residual, whose products are outer-product sparse products
(Gustavson 1978) over the stored nonzeros.  The brackets whose action the
pair loop checks are p o q and the signed q o p, added into one component
dict by hochschild._brace_into from the _brace_index made once per basis
cochain (and for b), so no Cochain is built per pair.  The identity holds
exactly iff every residual entry is zero; its witness is the smallest
nonzero column, min(nonzero keys) // N, the first chain in weight order
where the two sides differ.  An identity of calculus_defect claimed on
homology instead "holds on homology" when each residual, regrouped by
column, sends every homology representative to a boundary (tested against
the span of boundaries its spot keeps), and otherwise fails at the first
(label, degree) where one does not.

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

from .algebra import require_degree_zero
from .coeff import exact
from .exactlin import apply_columns, chain_add
from .hochschild import (
    ArityBoundExceeded,
    ChainBasis,
    Cochain,
    CochainBasis,
    _bound,
    _bracket_components,
    _brace_index,
    _cohomology_spot,
    _digits,
    _interior_grid,
    _keyed_matrix,
    _wrap_runs,
    basis_cochains,
    cochain_differential,
    cocycle_representatives,
    connes_terms,
    contraction,
    contraction_terms,
    flat_hochschild_homology,
    gerstenhaber_bracket,
    lie_action,
    lie_terms,
    structure_as_cochain,
)

# re-exported: the bracket, Lie action and contraction live with the chain machinery
__all__ = [
    "AxiomReport",
    "cup_product",
    "gerstenhaber_bracket",
    "lie_action",
    "contraction",
    "verify_lie_dagger",
    "calculus_defect",
]


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
    bound = _bound(arity_bound, p.arity_bound, q.arity_bound)
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


# weights beyond check_weight: one intermediate application (the apply
# columns), and the arity-0 and Connes terms on it
_HEAD_ROOM = 2


class OperatorSpace:
    """Finite chain basis with per-word Lie tables for fast operator assembly.

    check_weight: identities are asserted on columns of weight <= this;
    operators are materialized on columns up to check_weight + 1 so that one
    intermediate application stays in range.  The basis is ordered by weight,
    so the check columns and the apply columns are prefixes read from the
    basis offsets.
    """

    def __init__(self, algebra, check_weight):
        self.algebra = algebra
        self.check_weight = check_weight
        self.basis = ChainBasis(algebra, check_weight + _HEAD_ROOM)
        self.keys = self.basis.keys
        self.size = len(self.keys)
        self.apply_cols = range(self.basis.offsets[check_weight + 2])
        self.check_cols = range(self.basis.offsets[check_weight + 1])
        self.ncheck = len(self.check_cols)
        # one int object per index and per check column's residual key, shared
        # by every stored column and transpose
        self._ints = list(range(self.size))
        self._bases = [col * self.size for col in self.check_cols]
        self._tables = {}  # stop -> {(arity, word, parity) -> _table}
        self._store = {}  # value -> the one object of that value, for _one

    def _one(self, value):
        """The space's one object equal to value, an entry pair or a column
        tuple of a stored matrix or transpose.  A coefficient in value is
        already exact, so 1 and Fraction(1), which compare and hash equal,
        never merge."""
        return self._store.setdefault(value, value)

    def release_build(self):
        """Drop what only the building of stored matrices reads: the Lie
        tables of the apply columns and the store of _one.  Matrices built
        before keep their objects; later builds remake both.  verify_lie_dagger
        calls it after its first pass, having dropped each word's tables."""
        self._tables.pop(self.size, None)
        self._store = {}

    def _table(self, l, w, odd, stop):
        """(interior, wrap): the matches of the word w of arity l on the
        apply columns < stop, the end of a weight, for a cochain of parity
        odd.  Each match is (kbase, stride, sign), the output t landing at
        the residual key kbase + stride . t; they are grouped as ((stride,
        sign), (kbase, ...)).

        The key of (col, row) is col . size + row, both read off the digits
        of hochschild's per-word helpers, the ones lie_runs reads: an
        interior match, prefix p and tail u at slot j (_interior_grid), has
        stride t = r^(n-j-l), and a wrap match, kept word e at a split of w
        (_wrap_runs), stride r^(n-l+1)."""
        alg, off, size = self.algebra, self.basis.offsets, self.size
        r = alg.dim - 1
        weights = [n for n in range(self.check_weight + 2) if off[n + 1] <= stop]
        interior, wrap = {}, {}
        s = _digits(alg, w)
        for n in weights if s is not None else ():
            for j in range(n - l + 1):
                tail, runs = _interior_grid(alg, odd, n, l, j)
                for sign, lo, hi in runs:
                    kbases = interior.setdefault((tail, sign), [])
                    for p in range(lo, hi):
                        # col (p r^l + s) t + u, row p r t + u, less the stride t
                        k = ((off[n] + (p * r ** l + s) * tail) * size
                             + off[n - l + 1] + (p * r - 1) * tail)
                        kbases.extend(range(k, k + tail * (size + 1), size + 1))
        for n in weights[max(l - 1, 0):]:  # a wrap of arity l needs weight l - 1
            stride = r ** (n - l + 1)
            for k in range(l):
                col, runs = _wrap_runs(alg, w, k, n)
                for sign, lo, hi in runs:
                    wrap.setdefault((stride, sign), []).extend(
                        (off[n] + col + e * r ** k) * size + off[n - l + 1] + e
                        for e in range(lo, hi))
        return ([(k, tuple(v)) for k, v in interior.items()],
                [(k, tuple(v)) for k, v in wrap.items()])

    def lie_into(self, res, components, odd, stop):
        """Add the Lie action of the cochain of these components, {arity:
        {word: {t: coeff}}}, and parity odd of sd on the columns < stop to
        the residual res, {col . size + row: coeff}, in place, and return
        res.  Zero coefficients are skipped; cancelled entries stay as zeros.
        The tables are kept, one cache per stop, so each word's table is
        made once per stop."""
        ground = self.algebra.ground
        tables = self._tables.setdefault(stop, {})
        for l, comp in components.items():
            for w, out in comp.items():
                out = [(t, exact(c)) for t, c in out.items() if c]
                if not out:
                    continue
                table = tables.get((l, w, odd))
                if table is None:
                    table = tables[l, w, odd] = self._table(l, w, odd, stop)
                interior, wrap = table
                # an output in the ground dies in a bar slot, as in lie_terms
                _add_terms(res, interior, [(t, c) for t, c in out if t not in ground])
                _add_terms(res, wrap, out)
        return res

    def lie_matrix(self, cochain, share_head=True):
        """{col: ((row, coeff), ...)} of the Lie action of the cochain on the
        apply columns, in the stored form of _column, its indices the shared
        int objects of _ints.  With share_head False, the columns above the
        check weight skip _one, so they are freed with the matrix."""
        cols, ints, one = {}, self._ints, self._one
        for k, v in self.lie_into({}, cochain.components, cochain.sdeg % 2,
                                  self.size).items():
            if v:
                col, row = divmod(k, self.size)
                cols.setdefault(ints[col], []).append((ints[row], exact(v)))
        return {col: one(tuple(map(one, e))) if share_head or col < self.ncheck
                else tuple(e) for col, e in cols.items()}

    def operator_matrix(self, terms):
        """{col: ((row, coeff), ...)} on the apply columns of an operator
        given per key, terms(a0, word, out_terms), in the stored form of
        _column."""
        mat = _keyed_matrix(terms, self.keys[:len(self.apply_cols)], self.basis.index)
        return {col: e for col, acc in enumerate(mat.columns())
                if (e := _column(self, acc))}

    def boundary_matrix(self):
        return self.operator_matrix(
            partial(lie_terms, self.algebra, structure_as_cochain(self.algebra)))

    def connes_matrix(self):
        return self.operator_matrix(partial(connes_terms, self.algebra))

    def contraction_matrix(self, cochain):
        return self.operator_matrix(partial(contraction_terms, self.algebra, cochain))


def _add_terms(res, groups, terms):
    """Add sign . c at kbase + stride . t to res for every match of a _table
    group ((stride, sign), kbases) and every term (t, c)."""
    for (stride, sign), kbases in groups:
        shifted = [(stride * t, sign * c) for t, c in terms]
        for kbase in kbases:
            for o, c in shifted:
                k = kbase + o
                res[k] = res.get(k, 0) + c


def _column(space, acc):
    """The stored form of a column {row: coeff}: a tuple with no zero
    entries, its pairs and itself the space's shared objects."""
    one = space._one
    return one(tuple(one((r, exact(v))) for r, v in acc.items() if v))


def _columns_of(space, res):
    """The residual res regrouped by column, {col: {row: coeff}}."""
    cols = {}
    for k, v in res.items():
        col, row = divmod(k, space.size)
        cols.setdefault(col, {})[row] = v
    return cols


def _transpose(space, mat):
    """{row: ((col . size, coeff), ...)} of mat on the check columns: Y by
    rows, each column already a residual key."""
    rows, one = {}, space._one
    for col, entries in mat.items():
        if col < space.ncheck:
            base = space._bases[col]
            for r, v in entries:
                rows.setdefault(r, []).append(one((base, v)))
    return {r: one(tuple(v)) for r, v in rows.items()}


def _residual(space, res, products, singles=()):
    """Add the sum of s . X Y over products (s, X, tY) and of s . Z over
    singles (s, Z) to the residual res, {col . size + row: c}, in place on
    the check columns, and return res.

    tY is _transpose(space, Y).  Outer-product form (Gustavson 1978):
    (X Y)[:, c] is the sum of X[:, i] * Y[i, c] over the rows i of tY that
    are also columns of X, so only stored nonzeros are touched.
    """
    for s, X, tY in products:
        for i in tY.keys() & X.keys():
            xcol = X[i]
            for base, y in tY[i]:
                y *= s
                for r, x in xcol:
                    k = base + r
                    res[k] = res.get(k, 0) + x * y
    for s, Z in singles:
        for c, entries in Z.items():
            if c < space.ncheck:
                base = space._bases[c]
                for r, z in entries:
                    k = base + r
                    res[k] = res.get(k, 0) + s * z
    return res


def _first_nonzero(space, res):
    """The smallest column of the residual res with a nonzero entry, or None."""
    key = min(compress(res, res.values()), default=None)
    return None if key is None else key // space.size


def _sign(k):
    return -1 if k % 2 else 1


def _report(axiom, witness):
    return AxiomReport(axiom, "holds exactly" if witness is None else "fails",
                       witness)


# -- Lie-dagger verification --------------------------------------------------------


def _first_failure(space, cases):
    """(chain, *label) of the first case (label, lhs, products[, singles])
    whose residual, L_lhs (zero for lhs None) plus the terms of _residual,
    is nonzero, at its smallest nonzero column, or None; lhs is read by
    lie_into, as (components, parity)."""
    for label, lhs, *terms in cases:
        res = {} if lhs is None else space.lie_into({}, *lhs, space.ncheck)
        col = _first_nonzero(space, _residual(space, res, *terms))
        if col is not None:
            return (space.keys[col], *label)
    return None


def _bracket(algebra, ip, iq):
    """[p, q] as lie_into reads it, (components, parity), from the
    _brace_index of each factor; the brackets of verify_lie_dagger stay
    below twice its arity bound, so none is checked."""
    return _bracket_components(algebra, ip, iq, None), ip[0] ^ iq[0]


def verify_lie_dagger(algebra, arity_bound=3, bar_bound=4, workers=1):
    """Check the three dg-Lie-action identities exactly, plus L_b = boundary.

    (1) L_{[P,Q]} = L_P L_Q - (-1)^{sd P sd Q} L_Q L_P for all basis cochain
        pairs with arity <= arity_bound, on all chains of weight <= bar_bound;
    (2) d L_P - (-1)^{sd P} L_P d = L_{dP};
    (3) B L_P - (-1)^{sd P} L_P B = 0.

    Each identity is one residual per pair or cochain (module docstring): the
    witness is the first failing pair or cochain, with the smallest nonzero
    column of its residual.  Returns four AxiomReports; a negative bound
    raises ValueError.  The pair loop runs in this process; workers is
    accepted and ignored, because the benchmark's traced pass still passes
    workers=2.

    Only B and an arity-0 L_P raise the weight, so only (3) and the pairs
    with P of arity 0, the first in (a, b) order, read the weight
    bar_bound + 1 columns of L_Q: a first pass builds each L_Q, runs those
    on it and keeps its check columns; a second runs the rest on them.
    """
    if min(arity_bound, bar_bound) < 0:
        raise ValueError(f"negative bound: arity {arity_bound}, bar {bar_bound}")
    space = OperatorSpace(algebra, bar_bound)
    cochains = basis_cochains(algebra, arity_bound)
    n, n0 = len(cochains), sum(0 in c.components for c in cochains)
    if any(0 in c.components for c in cochains[n0:]):
        raise AssertionError("basis_cochains must list the arity-0 cochains first")
    boundary, connes = space.boundary_matrix(), space.connes_matrix()
    t_boundary, t_connes = _transpose(space, boundary), _transpose(space, connes)
    lies, trans = [], []  # L_P, and L_P by rows over the check columns
    ixs = [_brace_index(P) for P in cochains]  # each led by the parity of sd P

    def pair(a, q):
        return ((a, q), _bracket(algebra, ixs[a], ixs[q]), (
            (-1, lies[a], trans[q]), (_sign(ixs[a][0] * ixs[q][0]), lies[q], trans[a])))

    # the Lie matrices are built last, so that the apply-column Lie tables
    # never live beside the assembly of B and b; a word's tables go once the
    # cochains on it, which basis_cochains lists together, are built
    bracket = connes_witness = word = None
    for q, Q in enumerate(cochains):
        (l, comp), = Q.components.items()  # one arity, one word
        if word != (word := (l, *comp)):
            space._tables.pop(space.size, None)
        lies.append(space.lie_matrix(Q, share_head=False))
        trans.append(_transpose(space, lies[q]))
        # a later pair precedes the witness only with a smaller a
        stop = min(q + 1, n0 if bracket is None else bracket[1])
        bracket = _first_failure(space, (pair(a, q) for a in range(stop))) or bracket
        connes_witness = connes_witness or _first_failure(space, [((q,), None, (
            (-1, connes, trans[q]), (_sign(Q.sdeg), lies[q], t_connes)))])
        # the arity-0 L_P keep their weight bar + 1 columns for the arity-0 Q
        for i in range(q + 1) if q + 1 == n0 else [q] if q >= n0 else ():
            lies[i] = {c: e for c, e in lies[i].items() if c < space.ncheck}
    space.release_build()
    del cochains  # the second pass reads only ixs, lies and trans
    bracket = bracket or _first_failure(
        space, (pair(a, q) for a in range(n0, n) for q in range(a, n)))
    b = structure_as_cochain(algebra)
    ib = _brace_index(b)
    boundary_witness = _first_failure(space, (
        ((a,), _bracket(algebra, ib, ip),
         ((-1, boundary, tp), (_sign(ip[0]), mp, t_boundary)))
        for a, (ip, mp, tp) in enumerate(zip(ixs, lies, trans))))
    structure = _first_failure(space, [((), (b.components, 1), (), ((-1, boundary),))])
    return [_report("bracket-action: L_[P,Q] = [L_P, L_Q]", bracket),
            _report("boundary-compat: d^End L_P = L_dP", boundary_witness),
            _report("connes-compat: [B, L_P] = 0", connes_witness),
            _report("action-at-structure: L_b = boundary", structure and structure[0])]


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
    return hh.spots[n].is_boundary({i - off: v for i, v in vec.items()})


def _chain_verdict(space, axiom, residuals, homology=None):
    """The report of an identity from its residuals [(label, res)].

    "holds exactly" when every residual is zero on the check columns.
    Otherwise, given homology = (hh, {degree: representatives}), "holds on
    homology" when each residual sends every representative to a boundary,
    else "fails" at the first (label, degree) that does not; with no
    homology (an identity claimed at chain level) "fails" at the chain of the
    first nonzero column.
    """
    cols = [col for _, res in residuals
            if (col := _first_nonzero(space, res)) is not None]
    if not cols:
        return AxiomReport(axiom, "holds exactly")
    if homology is None:
        return AxiomReport(axiom, "fails", space.keys[cols[0]])
    hh, reps = homology
    for label, res in residuals:
        by_col = _columns_of(space, res)
        for n, vecs in reps.items():
            for rep in vecs:
                if not _is_boundary(space, hh,
                                    apply_columns(lambda j: by_col.get(j, {}), rep)):
                    return AxiomReport(axiom, "fails", (label, n))
    return AxiomReport(axiom, "holds on homology")


def _cochain_is_coboundary(algebra, c: Cochain):
    """Is a single-arity cochain a coboundary of the normalized complex, its
    class in the HH^l spot zero?"""
    arities = c.arities()
    if len(arities) != 1:
        return not arities
    cb = CochainBasis(algebra, arities[0])
    return _cohomology_spot(algebra, cb.arity).is_boundary(cb.coordinates(c))


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
    require_degree_zero(algebra, "calculus_defect")
    space = OperatorSpace(algebra, bar_bound)
    # homology spots cover one weight above the probed classes, so that
    # weight-raising defects (arity-0 cochains, the Connes factor) stay
    # within the membership-checkable range
    hh = flat_hochschild_homology(algebra, range(0, bar_bound + 1))
    offsets = space.basis.offsets
    homology = (hh, {n: [{offsets[n] + i: v for i, v in rep.items()}
                         for rep in hh.spots[n].homology_reps] for n in range(bar_bound)})
    classes = [c for s in range(degree_bound + 1)
               for c in cocycle_representatives(algebra, s, degree_bound + 2)]
    # the cup triples of the associativity and Leibniz checks reach arity
    # 3 . degree_bound
    for c in classes:
        c.arity_bound = max(2 * degree_bound + 2, 3 * degree_bound)
    reports = [_cochain_verdict(algebra, "cup-commutativity (on HH^*)", (
        ((P.sdeg + 1, Q.sdeg + 1), cup_product(algebra, P, Q).add(
            cup_product(algebra, Q, P), scale=-_sign((P.sdeg + 1) * (Q.sdeg + 1))))
        for P, Q in iproduct(classes, repeat=2)))]

    reports.append(_report("cup-associativity (chain level)", next((
        (P.sdeg, Q.sdeg, R.sdeg) for P, Q, R in iproduct(classes, repeat=3)
        if not cup_product(algebra, cup_product(algebra, P, Q), R).add(
            cup_product(algebra, P, cup_product(algebra, Q, R)), scale=-1).is_zero()),
        None)))

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
    t_con, t_lie = ([_transpose(space, m) for m in ms] for ms in (con, lie))
    connes = space.connes_matrix()
    t_connes = _transpose(space, connes)
    pairs = list(iproduct(range(len(single)), repeat=2))
    cups = {(p, q): cup_product(algebra, single[p], single[q]) for p, q in pairs}

    module = [(None, _residual(
        space, {}, ((-_sign(deg[p] * deg[q]), con[q], t_con[p]),),
        ((1, space.contraction_matrix(cups[p, q])),))) for p, q in pairs]
    cartan = [((deg[p],), _residual(
        space, {}, ((1, connes, t_con[p]), (-_sign(deg[p]), con[p], t_connes)),
        ((_sign(deg[p]), lie[p]),))) for p in range(len(single))]
    brackets = {(p, q): gerstenhaber_bracket(single[p], single[q]) for p, q in pairs}
    mixed = [((deg[p], deg[q]), _residual(
        space, {}, ((1, con[p], t_lie[q]),
                    (-_sign(deg[p] * (deg[q] - 1)), lie[q], t_con[p])),
        ((-_sign(deg[p] * (deg[q] + 1)), space.contraction_matrix(br)),)))
        for (p, q), br in brackets.items() if len(br.arities()) <= 1]
    l_cup = [((deg[p], deg[q]), _residual(
        space, space.lie_into({}, cups[p, q].components, cups[p, q].sdeg % 2,
                              space.ncheck),
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
