"""Maurer-Cartan theory over artin local rings.

An MC element is a shifted-degree-1 normalized cochain with coefficients in
the maximal ideal; it deforms the algebra structure (b + x), the chain
differential (d + L_x) and, downstream, the cyclic complexes.

All solving goes through one routine, solve_by_levels: along the m-adic
filtration (the small-extension induction of Goldman-Millson), each step is
one affine-linear solve over Q on the lowest nonzero level of a residual.
Its unknowns are a copy of a fixed linear map's columns per ring slot of that
level, plus the kernel directions left free by the lower levels, whose
effect is probed by evaluating the residual.  That probing is exact through
nilpotency order 3; beyond it a found solution is still exact, but a failure
only says the linearized search ran out.  gauge_equivalent and
lift_order_by_order here, and trivialize_periodic and ptd_isomorphic in
period, are its four callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import ArtinLocalRing, RingElement, slot_coordinates
from .exactlin import express_in_homology, from_columns, rref, solve
from .hochschild import (
    ChainBasis,
    Cochain,
    CochainBasis,
    DeformedStructure,
    _cochain_diff_matrix,
    chain_add,
    cochain_differential,
    gerstenhaber_bracket,
    hochschild_boundary,
    hochschild_cohomology,
    structure_as_cochain,
)


class NotMaurerCartan(Exception):
    pass


@dataclass
class MCElement:
    ring: ArtinLocalRing
    value: Cochain  # coefficients are RingElements supported in m_R

    def __post_init__(self):
        for l, comp in self.value.components.items():
            for w, out in comp.items():
                for t, c in out.items():
                    if not isinstance(c, RingElement) or not c.in_maximal_ideal():
                        raise ValueError("MC coefficients must lie in m_R")
        if not self.value.is_zero() and self.value.sdeg != 1:
            raise ValueError("MC elements have shifted degree 1")

    @property
    def algebra(self):
        return self.value.algebra


@dataclass
class GaugeElement:
    ring: ArtinLocalRing
    value: Cochain  # shifted degree 0, coefficients in m_R

    def __post_init__(self):
        for l, comp in self.value.components.items():
            for w, out in comp.items():
                for t, c in out.items():
                    if not isinstance(c, RingElement) or not c.in_maximal_ideal():
                        raise ValueError("gauge coefficients must lie in m_R")
        if not self.value.is_zero() and self.value.sdeg != 0:
            raise ValueError("gauge elements have shifted degree 0")


def zero_mc(algebra, ring, arity_bound=4):
    return MCElement(ring, Cochain(algebra, {}, 1, arity_bound))


def cochain_over_ring(algebra, ring, components, sdeg, arity_bound=None):
    """Build a cochain whose coefficients are coerced into the ring."""
    comps = {}
    for l, comp in components.items():
        comps[l] = {
            tuple(w): {t: ring.coerce(c) for t, c in out.items()}
            for w, out in comp.items()
        }
    return Cochain(algebra, comps, sdeg, arity_bound)


def mc_residual(algebra, x: MCElement) -> Cochain:
    """dx + (1/2)[x, x]; zero exactly when b + x squares to zero."""
    dx = cochain_differential(algebra, x.value)
    bracket = gerstenhaber_bracket(x.value, x.value)
    return dx.add(bracket.scaled(Fraction(1, 2)))


def gauge_act(alpha: GaugeElement, x: MCElement) -> MCElement:
    """e^alpha . x = e^{ad alpha}(x) - Phi(ad alpha)(d alpha), Phi(z) = (e^z-1)/z."""
    if alpha.ring is not x.ring:
        raise ValueError("gauge and MC element live over different rings")
    algebra = x.algebra
    out = x.value
    term = x.value
    k = 1
    while not term.is_zero():
        term = gerstenhaber_bracket(alpha.value, term).scaled(Fraction(1, k))
        out = out.add(term)
        k += 1
        if k > alpha.ring.nilpotency_order + 2:
            raise RuntimeError("gauge exponential did not terminate")
    term = cochain_differential(algebra, alpha.value)
    k = 0
    while not term.is_zero():
        out = out.add(term, scale=-1)
        term = gerstenhaber_bracket(alpha.value, term).scaled(Fraction(1, k + 2))
        k += 1
        if k > alpha.ring.nilpotency_order + 2:
            raise RuntimeError("gauge exponential did not terminate")
    y = MCElement(x.ring, out)
    return y


# -- deformed algebras ---------------------------------------------------------------


@dataclass
class AlgebraOverArtin:
    """(A tensor R, b + x) for an MC element x; reduction mod m_R is A."""

    base: ArtinLocalRing
    algebra: object
    x: MCElement

    def structure(self):
        return DeformedStructure(self.algebra, self.x.value)

    def multiplication_constants(self):
        """Deformed m_2 as {(i, j): {k: RingElement}} (degree-0 algebras)."""
        alg = self.algebra
        ring = self.base
        out = {}
        for i in range(alg.dim):
            for j in range(alg.dim):
                col = {}
                for k, v in alg.product(i, j).items():
                    col[k] = ring.coerce(v)
                sgn = -1 if alg.degrees[i] % 2 else 1
                for k, v in self.x.value.eval(2, (i, j)).items():
                    cur = col.get(k, ring.zero())
                    col[k] = cur + sgn * v
                col = {k: v for k, v in col.items() if v}
                if col:
                    out[i, j] = col
        return out

    def validate(self):
        """Curved-structure validator: square-zero + unit condition."""
        res = mc_residual(self.algebra, self.x)
        if not res.is_zero():
            return ["square-zero fails: nonzero Maurer-Cartan residual"]
        # unit condition: x is normalized by construction, so 1 stays a unit;
        # re-check multiplicatively on the deformed constants for degree 0.
        problems = []
        if self.algebra.is_degree_zero():
            mult = self.multiplication_constants()
            ring = self.base
            for i in range(self.algebra.dim):
                got = mult.get((0, i), {})
                want = {i: ring.one()}
                if got != want:
                    problems.append(f"left unit fails at {i}")
                got = mult.get((i, 0), {})
                if got != want:
                    problems.append(f"right unit fails at {i}")
        return problems


def deform_algebra(algebra, x: MCElement) -> AlgebraOverArtin:
    res = mc_residual(algebra, x)
    if not res.is_zero():
        raise NotMaurerCartan("residual dx + [x,x]/2 is nonzero")
    return AlgebraOverArtin(base=x.ring, algebra=algebra, x=x)


# -- bar-level conjugation (independent route for the gauge dictionary) ---------------


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
                key = word[:j] + (t,) + word[j + l :]
                s = out.get(key, 0) + sgn * c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def _apply_coderivation(algebra, cochain, words):
    out = {}
    for word, c in words.items():
        for key, v in _coderivation_terms(algebra, cochain, word).items():
            s = out.get(key, 0) + c * v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
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
            s = acc.get(w, 0) + c
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)
        k += 1
        if k > order_cap + 2:
            break
    return acc


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def conjugated_structure_component(algebra, x: MCElement, alpha: GaugeElement,
                                   word):
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
            s = mid.get(key, 0) + c * v
            if s:
                mid[key] = s
            else:
                mid.pop(key, None)
    outer = {}
    for w, c in mid.items():
        for key, v in _bar_exp(algebra, alpha.value, w, cap, sign=1).items():
            s = outer.get(key, 0) + c * v
            if s:
                outer[key] = s
            else:
                outer.pop(key, None)
    # top component: words of length 1 (projection to A[1])
    return {w[0]: c for w, c in outer.items() if len(w) == 1}


# -- m-adic affine solving -------------------------------------------------------------


def solve_by_levels(ring, lin, residual, shift, state, kernel=(), seed=None,
                    steps=None):
    """Drive residual(state) to zero along the m-adic filtration of ring.

    residual(state) is {(slot, row): Fraction}, the ring-slot coordinates of
    the residual; shift(state, {slot: vector}) moves state by the unknowns
    (Q-vectors indexed like lin's columns) placed in those ring slots.  The
    SparseMatrix lin is their Q-linear effect on the residual rows of their
    own slot; everything else they do lands on deeper levels.

    Each step takes the lowest nonzero level of the residual and solves one
    stacked system with rhs = -(that level's slice): a copy of lin's columns
    per ring slot of the level (slots in increasing order), then one probe
    column per pending ambiguity -- a kernel vector placed in a slot of a
    lower level, whose effect on this level is measured by evaluating the
    residual.  The probes linearize that effect, which is exact through
    nilpotency order 3; for deeper rings a solved state is still exact, while
    a failure may only mean the linearized search was exhausted.  With
    seed(slot) -> vector, each slot of the residual at that level starts
    from that fixed part and its effect moves into the right-hand side.

    Returns (state, None) once the residual vanishes.  Otherwise returns
    (state, (level, rhs)) where the system of that level has no solution
    (state before that step, rhs {(slot, row): q}), or (state, (None, res))
    with the residual left when `steps` (default nilpotency order + 1) ran out.
    """
    levels = ring.levels
    cols = lin.columns()
    pending, registered = [], set()  # (slot, kernel vector) ambiguities

    def register(level):
        if level not in registered:
            registered.add(level)
            pending.extend((s, z) for s in range(ring.dim) if levels[s] == level
                           for z in kernel)

    for _ in range(steps or ring.nilpotency_order + 1):
        res = residual(state)
        if not res:
            return state, None
        level = min(levels[s] for s, _ in res)
        # a skipped level still leaves its kernel directions free
        for below in range(1, level):
            register(below)
        at = {key: q for key, q in res.items() if levels[key[0]] == level}
        slots = [s for s in range(ring.dim) if levels[s] == level]
        rows = {}
        stacked = [{rows.setdefault((s, i), len(rows)): v for i, v in col.items()}
                   for s in slots for col in cols]
        for s, z in pending:
            delta = {key: -q for key, q in at.items()}
            for key, q in residual(shift(state, {s: z})).items():
                if levels[key[0]] == level:
                    delta[key] = delta.get(key, 0) + q
            stacked.append({rows.setdefault(key, len(rows)): q
                            for key, q in delta.items() if q})
        rhs = {key: -q for key, q in at.items()}
        fixed = {}
        if seed is not None:
            for s in dict.fromkeys(s for s, _ in at):
                fixed[s] = seed(s)
                for j, q in fixed[s].items():
                    for i, v in cols[j].items():
                        rhs[s, i] = rhs.get((s, i), 0) - v * q
        b = {rows.setdefault(key, len(rows)): q for key, q in rhs.items()}
        sol = solve(from_columns(len(rows), stacked), b)
        if sol is None:
            return state, (level, rhs)
        vecs = {s: dict(v) for s, v in fixed.items()}
        n = len(cols)
        for j, q in sol.items():
            if j < n * len(slots):
                s, z = slots[j // n], {j % n: 1}
            else:
                s, z = pending[j - n * len(slots)]
            vec = vecs.setdefault(s, {})
            for i, zq in z.items():
                vec[i] = vec.get(i, 0) + q * zq
        state = shift(state, vecs)
        register(level)
    res = residual(state)
    return state, ((None, res) if res else None)


def _cochain_rows(c: Cochain, basis: CochainBasis):
    """Ring-slot coordinates {(slot, row)} of c's component in basis' arity."""
    comp = c.components.get(basis.arity, {})
    return slot_coordinates((basis.index[w, t], v)
                            for w, out in comp.items() for t, v in out.items())


def _shift_cochain(ring, state: Cochain, basis: CochainBasis, vecs):
    """state plus the cochain whose slot-s coordinates in basis are vecs[s]."""
    coeffs = {}
    for s, vec in vecs.items():
        for i, q in vec.items():
            coeffs.setdefault(basis.keys[i], [0] * ring.dim)[s] += q
    comp = {}
    for (w, t), cs in coeffs.items():
        comp.setdefault(w, {})[t] = RingElement(ring, cs)
    return state.add(Cochain(state.algebra, {basis.arity: comp}, basis.arity - 1,
                             state.arity_bound))


def gauge_equivalent(x: MCElement, y: MCElement):
    """Find alpha with e^alpha . x = y, or None if obstructed.

    Both must be Maurer-Cartan over the same ring.  solve_by_levels walks the
    m-adic filtration: the unknowns are the new slice of alpha (effect d on
    the residual y - e^alpha . x) together with the cocycle directions left
    free by the lower levels, so None means the linearized search was
    exhausted (see solve_by_levels for the nilpotency order 3 caveat).
    Degree-0 algebras only, so the unknown sits in arity 1 and the residual
    in arity 2.
    """
    if x.ring is not y.ring:
        raise ValueError("different base rings")
    algebra = x.algebra
    ring = x.ring
    for z in (x, y):
        if not mc_residual(algebra, z).is_zero():
            raise NotMaurerCartan("input is not Maurer-Cartan")
    cb1, cb2 = CochainBasis(algebra, 1), CochainBasis(algebra, 2)
    dmat = _cochain_diff_matrix(algebra, 1)

    def residual(alpha):
        cur = gauge_act(GaugeElement(ring, alpha), x)
        return _cochain_rows(y.value.add(cur.value, scale=-1), cb2)

    alpha, blocked = solve_by_levels(
        ring, dmat, residual,
        lambda alpha, vecs: _shift_cochain(ring, alpha, cb1, vecs),
        Cochain(algebra, {}, 0, x.value.arity_bound), kernel=rref(dmat)[1])
    return None if blocked else GaugeElement(ring, alpha)


def lift_order_by_order(algebra, x_low: MCElement, ring: ArtinLocalRing):
    """Lift an MC element along R -> R/m^n, or return the obstruction class.

    ring must extend x_low.ring by one m-adic level with matching basis
    labels (the truncated polynomial rings are built that way).  Returns
    ("lift", MCElement) or ("obstruction", {ring_index: class coordinates in
    the chosen degree-3 cohomology basis}) -- the quadratic obstruction per
    new-level ring slot, with the deterministic representative choice coming
    from the cohomology engine's homology basis.  The new level is one
    solve_by_levels step with no ambiguities, so x_low stays fixed.
    """
    small = x_low.ring
    if ring.basis_labels[: small.dim] != small.basis_labels:
        raise ValueError("ring does not extend the base of x_low")
    if not mc_residual(algebra, x_low).is_zero():
        raise NotMaurerCartan("x_low is not Maurer-Cartan")
    # re-coefficient x_low into the bigger ring
    pad = [0] * (ring.dim - small.dim)
    x = x_low.value.map_coefficients(lambda c: RingElement(ring, list(c.coeffs) + pad))
    cb2, cb3 = CochainBasis(algebra, 2), CochainBasis(algebra, 3)
    lifted, blocked = solve_by_levels(
        ring, _cochain_diff_matrix(algebra, 2),
        lambda c: _cochain_rows(mc_residual(algebra, MCElement(ring, c)), cb3),
        lambda c, vecs: _shift_cochain(ring, c, cb2, vecs), x, steps=1)
    if blocked is None:
        return "lift", MCElement(ring, lifted)
    level, rhs = blocked
    if level is None:
        raise RuntimeError("order-by-order lift left a deeper residual (bug)")
    parts = {}
    for (s, row), q in rhs.items():
        parts.setdefault(s, {})[row] = -q
    return "obstruction", obstruction_class(algebra, parts)


def obstruction_class(algebra, parts):
    """Express obstruction slices {ring_index: degree-3 cochain vector} in the
    degree-3 cohomology basis."""
    hh = hochschild_cohomology(algebra, [3])
    return {ridx: express_in_homology(hh.spots[3], vec) for ridx, vec in parts.items()}


# -- deformed mixed complex -------------------------------------------------------------


@dataclass
class DeformedMixedComplex:
    ring: ArtinLocalRing
    algebra: object
    x: MCElement

    def boundary(self, chain):
        """d + L_x via the deformed structure maps."""
        struct = DeformedStructure(self.algebra, self.x.value)
        return hochschild_boundary(struct, chain, self.algebra)

    def connes(self, chain):
        from .hochschild import connes_B

        return connes_B(self.algebra, chain)

    def undeformed_plus_lie(self, chain):
        """d tensor R + L_x, assembled from the two summands separately."""
        from .hochschild import connes_B, lie_action

        out = hochschild_boundary(self.algebra, chain)
        for k, v in lie_action(self.algebra, self.x.value, chain).items():
            chain_add(out, k, v)
        return out

    def verify(self, bar_bound=4):
        """Square-zero, the two-summand identity, and [B, L_x] = 0."""
        basis = ChainBasis(self.algebra, bar_bound + 1)
        from .hochschild import connes_B, lie_action

        for a0, word in basis.keys:
            if len(word) > bar_bound:
                continue
            c = {(a0, word): 1}
            if self.boundary(c) != self.undeformed_plus_lie(c):
                return False
            if self.boundary(self.boundary(c)):
                return False
            if len(word) <= bar_bound - 1:
                acc = connes_B(self.algebra, lie_action(self.algebra, self.x.value, c))
                sgn = -1 if self.x.value.sdeg % 2 else 1
                for k, v in lie_action(
                    self.algebra, self.x.value, connes_B(self.algebra, c)
                ).items():
                    chain_add(acc, k, -sgn * v)
                if acc:
                    return False
        return True


def deformed_mixed_complex(algebra, x: MCElement) -> DeformedMixedComplex:
    if not mc_residual(algebra, x).is_zero():
        raise NotMaurerCartan("residual is nonzero")
    return DeformedMixedComplex(ring=x.ring, algebra=algebra, x=x)


def push_mc(x: MCElement, target: ArtinLocalRing, apply_map) -> MCElement:
    """Functoriality: apply a ring map coefficientwise."""
    comps = {}
    for l, comp in x.value.components.items():
        comps[l] = {
            w: {t: apply_map(c) for t, c in out.items()} for w, out in comp.items()
        }
    return MCElement(target, Cochain(x.algebra, comps, 1, x.value.arity_bound))
