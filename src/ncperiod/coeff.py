"""Artin local coefficient rings over Q with nilpotent maximal ideal.

A ring is given by a basis (basis_labels[0] is the unit) and a commutative,
associative multiplication table; the span of the non-unit basis elements
must be the maximal ideal, i.e. nilpotent.  Elements (RingElement, the
public value type) are coefficient vectors over the basis and support +, -,
* and scalar multiplication by Q, so chain and cochain formulas run
unchanged over any such ring.

The deformation and period inner loops do not multiply RingElements.  They
hold a ring-valued object in slot form (Slots): {slot: Q object}, the sum of
each Q object times its slot's basis element.  slot_product is the one
product rule, sum over (i, j) of table[i, j][k] . (a_i * b_j) in slot k, and
each layer brings its own Q product *: the brace of cochains in deform, the
composition of block operators in period, the sparse apply in
cyclic.perturbation_transfer.  slot_coordinates reads ring values as slot
coordinates and its inverse ring_values turns slot vectors back into ring
values; the layers call them once, where a value over the ring enters or
leaves the slot arithmetic (MCElement, GaugeElement, a Trivialization, a
PTD, a PTD witness).

Coefficients follow the package's one rule, applied by `exact`: an integral
value is an `int` and a `Fraction` appears only where there is a
denominator (the two compare and hash equal, and int arithmetic is far
cheaper).  Table entries and element slots are normalized this way, and a
float is rejected with TypeError rather than read as a binary fraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class NotArtinLocal(Exception):
    """The supplied table violates an artin-local axiom."""


def exact(c):
    """c as an exact rational: an int when integral, else a Fraction.

    Accepts ints, Fractions and anything `Fraction` reads exactly (such as
    "1/2"); a float raises TypeError.
    """
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"exact coefficients must be int or Fraction, got {c!r}")
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class RingElement:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple([c if type(c) is int else exact(c) for c in coeffs])

    def __add__(self, other):
        other = self.ring.coerce(other)
        return RingElement(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self.ring.coerce(other)
        return RingElement(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __neg__(self):
        return RingElement(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RingElement(self.ring, [a * other for a in self.coeffs])
        other = self.ring.coerce(other)
        return self.ring.multiply(self, other)

    def __rmul__(self, other):
        # scalars and ring elements commute
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RingElement(self.ring, [Fraction(a) / other for a in self.coeffs])
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.coerce(other)
        return isinstance(other, RingElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    @property
    def augmentation(self):
        """Image in Q under killing the maximal ideal."""
        return self.coeffs[0]

    def in_maximal_ideal(self):
        return not self.coeffs[0]

    def __repr__(self):
        parts = []
        for c, lab in zip(self.coeffs, self.ring.basis_labels):
            if c:
                parts.append(f"{c}*{lab}" if lab != "1" else f"{c}")
        return " + ".join(parts) if parts else "0"


class ArtinLocalRing:
    """Finite-dimensional local Q-algebra; basis_labels[0] is the unit."""

    def __init__(self, basis_labels, mult_table):
        self.basis_labels = list(basis_labels)
        self.dim = len(self.basis_labels)
        # mult_table[(i, j)] = {k: coeff} for basis_i * basis_j
        self.table = {}
        for (i, j), col in mult_table.items():
            entry = {k: q for k, v in col.items() if (q := exact(v))}
            if entry:
                self.table[i, j] = entry
        self.maximal_ideal = tuple(range(1, self.dim))
        self._validate()
        self.nilpotency_order = self._nilpotency_order()
        # m-adic level of each basis slot: the largest s with the slot in m^s
        levels = [0] * self.dim
        for s, stage in enumerate(self.m_adic_filtration()[:-1], start=1):
            for i in stage:
                levels[i] = s
        self.levels = tuple(levels)

    # -- construction helpers -------------------------------------------------

    def zero(self):
        return RingElement(self, [0] * self.dim)

    def one(self):
        return RingElement(self, [1] + [0] * (self.dim - 1))

    def gen(self, idx_or_label):
        if isinstance(idx_or_label, str):
            idx = self.basis_labels.index(idx_or_label)
        else:
            idx = idx_or_label
        return RingElement(self, [1 if i == idx else 0 for i in range(self.dim)])

    def element(self, coeffs):
        return RingElement(self, coeffs)

    def coerce(self, x):
        if isinstance(x, RingElement):
            if x.ring is not self:
                raise TypeError("element of a different ring")
            return x
        if isinstance(x, (int, Fraction)):
            return RingElement(self, [x] + [0] * (self.dim - 1))
        raise TypeError(f"cannot coerce {x!r}")

    def multiply(self, a, b):
        out = [0] * self.dim
        table = self.table
        b_nonzero = [(j, cb) for j, cb in enumerate(b.coeffs) if cb]
        for i, ca in enumerate(a.coeffs):
            if not ca:
                continue
            for j, cb in b_nonzero:
                col = table.get((i, j))
                if col:
                    c = ca * cb
                    for k, v in col.items():
                        out[k] += c * v
        return RingElement(self, out)

    # -- axioms ----------------------------------------------------------------

    def _validate(self):
        gens = [self.gen(i) for i in range(self.dim)]
        one = gens[0]
        for a in gens:
            if a * one != a or one * a != a:
                raise NotArtinLocal("basis_labels[0] is not a unit")
        for a, b in itertools.product(gens, repeat=2):
            if a * b != b * a:
                raise NotArtinLocal("multiplication is not commutative")
        for a, b, c in itertools.product(gens, repeat=3):
            if (a * b) * c != a * (b * c):
                raise NotArtinLocal("multiplication is not associative")
        # m_R = span(non-unit basis) must be an ideal: products of non-unit
        # basis vectors may not hit the unit coordinate ... they may, as long
        # as the span is still nilpotent; the genuine requirement is that the
        # quotient by the nilradical is 1-dimensional.  We enforce the simple
        # normal form instead: products of maximal-ideal elements stay in it.
        for i in self.maximal_ideal:
            for j in self.maximal_ideal:
                if self.table.get((i, j), {}).get(0):
                    raise NotArtinLocal(
                        "product of maximal-ideal basis elements leaves the ideal"
                    )

    def _nilpotency_order(self):
        if self.dim == 1:
            return 1
        power = [self.gen(i) for i in self.maximal_ideal]
        order = 1
        while power:
            order += 1
            if order > self.dim + 1:
                raise NotArtinLocal("maximal ideal is not nilpotent")
            nxt = []
            for a in power:
                for i in self.maximal_ideal:
                    p = a * self.gen(i)
                    if p:
                        nxt.append(p)
            power = nxt
        return order

    # -- filtration ------------------------------------------------------------

    def m_adic_filtration(self):
        """Index sets of basis elements spanning m_R >= m_R^2 >= ... >= 0.

        Only meaningful for monomial-shaped tables (every basis product is a
        rational multiple of a basis element), which covers the built-in
        rings; the chain is strictly decreasing and ends with the empty set.
        """
        chain = []
        current = set(self.maximal_ideal)
        while current:
            chain.append(frozenset(current))
            nxt = set()
            for i in current:
                for j in self.maximal_ideal:
                    for k, v in self.table.get((i, j), {}).items():
                        if v:
                            nxt.add(k)
            if nxt == current:
                raise NotArtinLocal("m-adic filtration does not terminate")
            current = nxt
        chain.append(frozenset())
        return chain

    def filtration_level(self, idx):
        """Largest s with basis element idx in m^s (0 for the unit slot)."""
        return self.levels[idx]

    def extends(self, small):
        """True when small's basis labels are the first ones of this ring's
        and this ring adds exactly one m-adic level to small."""
        return (self.basis_labels[: small.dim] == small.basis_labels
                and self.nilpotency_order == small.nilpotency_order + 1)

    def __repr__(self):
        return f"ArtinLocalRing({self.basis_labels})"


def slot_coordinates(pairs):
    """{(slot, key): q}: the nonzero basis coordinates of (key, coefficient)
    pairs.  A RingElement spreads over its ring slots; a Q coefficient sits
    in the unit slot 0.  ring.levels[slot] then splits them by m-adic level.
    """
    out = {}
    for key, v in pairs:
        if isinstance(v, RingElement):
            for slot, q in enumerate(v.coeffs):
                if q:
                    out[slot, key] = q
        elif v:
            out[0, key] = v
    return out


def ring_values(ring, vecs):
    """{key: RingElement}: the values whose slot-s coordinate at key is
    vecs[s][key], for slot vectors vecs = {slot: {key: q}}; the inverse of
    slot_coordinates, regrouped by slot."""
    slots = {}
    for s, vec in vecs.items():
        for key, q in vec.items():
            slots.setdefault(key, [0] * ring.dim)[s] += q
    return {key: RingElement(ring, cs) for key, cs in slots.items()}


class Slots(dict):
    """A ring-valued object in slot form, {slot: Q object}: the sum over the
    slots of the Q object times the slot's basis element.  No slot holds a
    zero object, so the value is zero exactly when no slot is left."""

    __slots__ = ("ring",)

    def __init__(self, ring, parts=()):
        super().__init__(parts)
        self.ring = ring

    def is_zero(self):
        return not self


def slot_add(a, b, scale=1):
    """a + scale . b of slot forms whose Q objects have add(other, scale),
    scaled(c) and is_zero(); a zero slot is dropped."""
    out = Slots(a.ring, a)
    for s, v in b.items():
        v = out[s].add(v, scale) if s in out else v if scale == 1 else v.scaled(scale)
        if v.is_zero():
            out.pop(s, None)
        else:
            out[s] = v
    return out


def slot_product(a, b, product, out=None):
    """The product of the slot forms a and b over a.ring: slot k gets
    sum over (i, j) of table[i, j][k] . (a_i * b_j), for the Q product *
    the caller brings.  product(a_i, b_j, c, acc) adds c . (a_i * b_j) to the
    Q object acc (None for a slot not reached yet) and returns it; out
    (default empty) holds the accumulators and is returned.  A slot pair
    whose basis product vanishes is never multiplied, and zero accumulators
    are the caller's to drop."""
    out = {} if out is None else out
    table = a.ring.table
    for i, x in a.items():
        for j, y in b.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = product(x, y, c, out.get(k))
    return out


def build_truncated_poly(num_vars: int, order: int) -> ArtinLocalRing:
    """Q[eps_1..eps_s] / (monomials of total degree >= order).

    Basis: monomials of total degree < order in graded-lex order, the empty
    monomial (the unit) first.
    """
    if num_vars < 1 or order < 2:
        raise ValueError("need num_vars >= 1 and order >= 2")
    monos = [()]
    for deg in range(1, order):
        level = [
            m
            for m in itertools.combinations_with_replacement(range(num_vars), deg)
        ]
        monos.extend(sorted(level))
    index = {m: i for i, m in enumerate(monos)}

    def label(m):
        if not m:
            return "1"
        parts = []
        for v in sorted(set(m)):
            e = m.count(v)
            name = "eps" if num_vars == 1 else f"eps{v + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    table = {}
    for (i, a), (j, b) in itertools.product(enumerate(monos), repeat=2):
        prod = tuple(sorted(a + b))
        if len(prod) < order:
            table[i, j] = {index[prod]: 1}
    return ArtinLocalRing([label(m) for m in monos], table)


def dual_numbers() -> ArtinLocalRing:
    return build_truncated_poly(1, 2)
