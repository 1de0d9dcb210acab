"""Maurer-Cartan theory over artin local rings.

An MC element is a shifted-degree-1 normalized cochain with coefficients in
the maximal ideal.  It deforms the algebra's structure cochain b (the one
form of b, hochschild.structure_as_cochain) to b.add(x) = b + x, whose
arity-2 part gives the deformed product and whose Lie action L_{b+x} is the
deformed chain differential d + L_x; downstream it deforms the cyclic
complexes.  Both MC operations read b + x: the residual mc_residual is the
brace (b + x) o (b + x), and gauge_act is e^{ad alpha}(b + x) - b
(Gerstenhaber 1963; Goldman-Millson 1988).  Both run on slot forms
(coeff.Slots): b + x is b in slot 0 and x's Q cochain of slot s in slot s,
and a brace of two slot forms is one hochschild._brace_into per slot pair,
through coeff.slot_product (_brace).  MCElement and GaugeElement keep the
value over the ring, whose coefficients are RingElements, and read its slot
form once (.slots); results over the ring are built once, by ring_cochain.

All solving goes through one routine, solve_by_levels: along the m-adic
filtration (the small-extension induction of Goldman-Millson), each step is
one affine-linear solve over Q on the lowest nonzero level of a residual.
Its unknowns are a copy of a fixed linear map's columns per ring slot of that
level, plus the kernel directions left free by the lower levels, whose
effect on this level and on the solved levels below it is probed by
evaluating the residual at coefficient 1.  Taking that effect as linear in
the coefficient is exact through nilpotency order 3; beyond it a found
solution is still exact, but a failure only says the linearized search ran
out.  gauge_equivalent and
lift_order_by_order here, and trivialize_periodic and ptd_isomorphic in
period, are its four callers.  Their states are slot forms, a residual's
ring-slot coordinates are read off its Q slots, and a shift adds a Q object
per slot, so no step converts to ring values.
Every operation that needs a Maurer-Cartan input checks it with the one
guard _require_mc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .coeff import (
    ArtinLocalRing,
    RingElement,
    Slots,
    exact,
    ring_values,
    slot_add,
    slot_coordinates,
    slot_product,
)
from .exactlin import chain_add, express_in_homology, from_columns, solve
from .hochschild import (
    Cochain,
    CochainBasis,
    _bound,
    _brace_index,
    _brace_into,
    _cochain_diff_matrix,
    _cohomology_spot,
    structure_as_cochain,
)


class NotMaurerCartan(Exception):
    pass


def _require_in_m(name, value: Cochain, sdeg):
    """ValueError unless every coefficient of value is a RingElement in m_R
    and a nonzero value has shifted degree sdeg."""
    if not all(isinstance(c, RingElement) and c.in_maximal_ideal()
               for comp in value.components.values()
               for out in comp.values() for c in out.values()):
        raise ValueError(f"{name} coefficients must lie in m_R")
    if not value.is_zero() and value.sdeg != sdeg:
        raise ValueError(f"{name} elements have shifted degree {sdeg}")


def cochain_slots(ring, value: Cochain) -> Slots:
    """The slot form {slot: Q cochain} of a cochain over ring, read by
    coeff.slot_coordinates (a Q coefficient sits in slot 0)."""
    parts = {}
    for (s, (l, w, t)), q in slot_coordinates(value.entries()).items():
        parts.setdefault(s, {}).setdefault(l, {}).setdefault(w, {})[t] = q
    return Slots(ring, {s: Cochain(value.algebra, comps, value.sdeg, value.arity_bound,
                                   value.normalized) for s, comps in parts.items()})


def ring_cochain(slots: Slots, algebra, sdeg, arity_bound=None) -> Cochain:
    """The cochain over slots.ring of a slot form, by coeff.ring_values."""
    comps = {}
    values = ring_values(slots.ring, {s: dict(c.entries()) for s, c in slots.items()})
    for (l, w, t), v in values.items():
        comps.setdefault(l, {}).setdefault(w, {})[t] = v
    return Cochain(algebra, comps, sdeg, arity_bound)


class _Slotted:
    @cached_property
    def slots(self) -> Slots:
        """The slot form of value, read once."""
        return cochain_slots(self.ring, self.value)


@dataclass
class MCElement(_Slotted):
    ring: ArtinLocalRing
    value: Cochain  # coefficients are RingElements supported in m_R

    def __post_init__(self):
        _require_in_m("MC", self.value, 1)

    @property
    def algebra(self):
        return self.value.algebra


@dataclass
class GaugeElement(_Slotted):
    ring: ArtinLocalRing
    value: Cochain  # shifted degree 0, coefficients in m_R

    def __post_init__(self):
        _require_in_m("gauge", self.value, 0)


def cochain_over_ring(algebra, ring, components, sdeg, arity_bound=None):
    """Build a cochain whose coefficients are coerced into the ring."""
    return Cochain(algebra, components, sdeg, arity_bound).map_coefficients(ring.coerce)


def _brace(a: Slots, b: Slots, bound, sign=None, scale=1) -> Slots:
    """scale . a o b of slot forms of cochains, or scale . [a, b] =
    scale . (a o b - sign . b o a) when sign is given: one
    hochschild._brace_into per slot pair, through coeff.slot_product, on
    one _brace_index per slot."""
    if not (a and b):
        return Slots(a.ring)
    p0, q0 = next(iter(a.values())), next(iter(b.values()))
    ia = Slots(a.ring, {k: _brace_index(p) for k, p in a.items()})
    ib = ia if b is a else {k: _brace_index(q) for k, q in b.items()}

    def product(ip, iq, c, comps):
        comps = {} if comps is None else comps
        _brace_into(comps, p0.algebra, ip, iq, c * scale, bound)
        if sign is not None:
            _brace_into(comps, p0.algebra, iq, ip, -sign * c * scale, bound)
        return comps

    out = Slots(a.ring)
    for k, comps in slot_product(ia, ib, product).items():
        c = Cochain(p0.algebra, comps, p0.sdeg + q0.sdeg, bound)
        if not c.is_zero():
            out[k] = c
    return out


def mc_residual(algebra, x) -> Slots:
    """(b + x) o (b + x) = dx + (1/2)[x, x] in slot form, since b o b = 0 on
    normalized words of a valid algebra; zero exactly when b + x squares to
    zero.  x is an MCElement or the slot form of its value; b sits in slot
    0, where x has no part."""
    if isinstance(x, MCElement):
        x, bound = x.slots, x.value.arity_bound
    else:
        bound = next((c.arity_bound for c in x.values()), None)
    bx = Slots(x.ring, {0: structure_as_cochain(algebra), **x})
    return _brace(bx, bx, bound)


def _require_mc(algebra, x: MCElement):
    """Raise NotMaurerCartan unless mc_residual(algebra, x) vanishes."""
    if not mc_residual(algebra, x).is_zero():
        raise NotMaurerCartan("not Maurer-Cartan: the residual dx + [x,x]/2 "
                              "is nonzero")


def _gauge_series(algebra, alpha: Slots, x: Slots, bound) -> Slots:
    """e^{ad alpha}(b + x) - b in slot form, the series
    x + sum_{k >= 1} (ad alpha)^k (b + x) / k!, for a gauge alpha of
    shifted degree 0."""
    out = x
    term = Slots(x.ring, {0: structure_as_cochain(algebra), **x})
    k = 1
    while term := _brace(alpha, term, bound, 1, exact(Fraction(1, k))):
        out = slot_add(out, term)
        k += 1
        if k > x.ring.nilpotency_order + 2:
            raise RuntimeError("gauge exponential did not terminate")
    return out


def gauge_act(alpha: GaugeElement, x: MCElement) -> MCElement:
    """e^alpha . x = e^{ad alpha}(b + x) - b (see _gauge_series)."""
    if alpha.ring is not x.ring:
        raise ValueError("gauge and MC element live over different rings")
    # the brackets check alpha's bound first, and the sum keeps x's first
    out = _gauge_series(x.algebra, alpha.slots, x.slots,
                        _bound(alpha.value.arity_bound, x.value.arity_bound))
    bound = _bound(x.value.arity_bound, alpha.value.arity_bound)
    return MCElement(x.ring, ring_cochain(out, x.algebra, 1, bound))


# -- deformed algebras ---------------------------------------------------------------


@dataclass
class AlgebraOverArtin:
    """(A tensor R, b + x) for an MC element x; reduction mod m_R is A."""

    base: ArtinLocalRing
    algebra: object
    x: MCElement

    def structure(self):
        """b + x, the structure cochain of the deformed algebra."""
        return structure_as_cochain(self.algebra).add(self.x.value)

    def multiplication_constants(self):
        """Deformed m_2 as {(i, j): {k: RingElement}} (degree-0 algebras): the
        arity-2 part of b + x with the shift sign undone."""
        degrees, ring = self.algebra.degrees, self.base
        return {(i, j): {k: ring.coerce(-v if degrees[i] % 2 else v)
                         for k, v in col.items()}
                for (i, j), col in sorted(self.structure().components[2].items())}

    def validate(self):
        """Curved-structure validator: square-zero + unit condition."""
        if not mc_residual(self.algebra, self.x).is_zero():
            return ["square-zero fails: nonzero Maurer-Cartan residual"]
        # unit condition: x is normalized by construction, so 1 stays a unit;
        # re-check multiplicatively on the deformed constants for degree 0.
        if any(self.algebra.degrees):
            return []
        mult, one = self.multiplication_constants(), self.base.one()
        return [f"{side} unit fails at {i}" for i in range(self.algebra.dim)
                for side, key in (("left", (0, i)), ("right", (i, 0)))
                if mult.get(key, {}) != {i: one}]


def deform_algebra(algebra, x: MCElement) -> AlgebraOverArtin:
    _require_mc(algebra, x)
    return AlgebraOverArtin(base=x.ring, algebra=algebra, x=x)


# -- m-adic affine solving -------------------------------------------------------------


def solve_by_levels(ring, lin, residual, shift, state, kernel=()):
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
    lower level, whose effect on this level and on every solved level below
    it is measured by evaluating the residual.  Those lower rows have rhs 0,
    so a combination of probes leaves the solved levels solved.  Each probe
    is evaluated at coefficient 1 and taken as linear in its coefficient,
    which is exact through nilpotency order 3; for deeper rings, where a
    coefficient can also act quadratically, a solved state is still exact,
    while a failure may only mean the linearized search was exhausted.

    Returns (state, None) once the residual vanishes.  Otherwise returns
    (state, (level, rhs)) where the system of that level has no solution
    (state before that step, rhs {(slot, row): q}), or (state, (None, res))
    with the residual left after nilpotency order + 1 steps.
    """
    levels = ring.levels
    cols = lin.columns()
    pending, registered = [], set()  # (slot, kernel vector) ambiguities

    def register(level):
        if level not in registered:
            registered.add(level)
            pending.extend((s, z) for s in range(ring.dim) if levels[s] == level
                           for z in kernel)

    for _ in range(ring.nilpotency_order + 1):
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
                if levels[key[0]] <= level:
                    chain_add(delta, key, q)
            stacked.append({rows.setdefault(key, len(rows)): q
                            for key, q in delta.items()})
        rhs = {key: -q for key, q in at.items()}
        b = {rows.setdefault(key, len(rows)): q for key, q in rhs.items()}
        sol = solve(from_columns(len(rows), stacked), b)
        if sol is None:
            return state, (level, rhs)
        vecs = {}
        n = len(cols)
        for j, q in sol.items():
            if j < n * len(slots):
                s, z = slots[j // n], {j % n: 1}
            else:
                s, z = pending[j - n * len(slots)]
            vec = vecs.setdefault(s, {})
            for i, zq in z.items():
                chain_add(vec, i, q * zq)
        state = shift(state, vecs)
        register(level)
    res = residual(state)
    return state, ((None, res) if res else None)


def _cochain_rows(c: Slots, basis: CochainBasis):
    """Ring-slot coordinates {(slot, row)} of the slot form c's component in
    basis' arity."""
    return {(s, i): q for s, cs in c.items() for i, q in basis.coordinates(cs).items()}


def _shift_cochain(state: Slots, basis: CochainBasis, vecs, bound):
    """state plus the cochain whose slot-s coordinates in basis are vecs[s]."""
    return slot_add(state, Slots(state.ring, {s: basis.cochain_of(vec, bound)
                                          for s, vec in vecs.items()}))


def gauge_equivalent(x: MCElement, y: MCElement):
    """Find alpha with e^alpha . x = y, or None if obstructed.

    Both must be Maurer-Cartan over the same ring.  solve_by_levels walks the
    m-adic filtration: the unknowns are the new slice of alpha (effect d on
    the residual y - e^alpha . x) together with the cocycle directions left
    free by the lower levels.  Through nilpotency order 3 None means that no
    gauge exists; over deeper rings it means only that the search, linear in
    the coefficients of those directions, found none (see solve_by_levels).
    Degree-0 algebras only, so the unknown sits in arity 1 and the residual
    in arity 2; the free directions are the cycles of the HH^1 spot.
    """
    if x.ring is not y.ring:
        raise ValueError("different base rings")
    algebra = x.algebra
    ring = x.ring
    for z in (x, y):
        _require_mc(algebra, z)
    cb1, cb2 = CochainBasis(algebra, 1), CochainBasis(algebra, 2)
    bound = x.value.arity_bound

    def residual(alpha):
        cur = _gauge_series(algebra, alpha, x.slots, bound)
        return _cochain_rows(slot_add(y.slots, cur, -1), cb2)

    alpha, blocked = solve_by_levels(
        ring, _cochain_diff_matrix(algebra, 1), residual,
        lambda alpha, vecs: _shift_cochain(alpha, cb1, vecs, bound), Slots(ring),
        kernel=_cohomology_spot(algebra, 1).cycle_basis)
    return None if blocked else GaugeElement(ring, ring_cochain(alpha, algebra, 0, bound))


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
    if not ring.extends(small):
        raise ValueError("ring does not extend the base of x_low by one "
                         "m-adic level")
    _require_mc(algebra, x_low)
    # x_low over the bigger ring, whose first slots are those of small
    x = Slots(ring, x_low.slots)
    bound = x_low.value.arity_bound
    cb2, cb3 = CochainBasis(algebra, 2), CochainBasis(algebra, 3)
    lifted, blocked = solve_by_levels(
        ring, _cochain_diff_matrix(algebra, 2),
        lambda c: _cochain_rows(mc_residual(algebra, c), cb3),
        lambda c, vecs: _shift_cochain(c, cb2, vecs, bound), x)
    if blocked is None:
        return "lift", MCElement(ring, ring_cochain(lifted, algebra, 1, bound))
    level, rhs = blocked
    if level is None:
        raise RuntimeError("order-by-order lift left a deeper residual (bug)")
    parts = {}
    for (s, row), q in rhs.items():
        parts.setdefault(s, {})[row] = -q
    return "obstruction", obstruction_class(algebra, parts)


def obstruction_class(algebra, parts):
    """Express obstruction slices {ring_index: degree-3 cochain vector} in the
    degree-3 cohomology basis of the flat complex, where they lie."""
    spot = _cohomology_spot(algebra, 3)
    return {ridx: express_in_homology(spot, vec) for ridx, vec in parts.items()}
