"""Finite-dimensional dg algebras: construction, validation, builders.

Conventions baked in here and relied on everywhere downstream:
  * basis[0] is the unit (builders re-base if the natural unit is a sum);
  * the complement of the unit spanned by basis[1:] realizes A/k; bar-word
    slots carry indices from that complement only;
  * structure constants are exact rationals stored by the rule of
    `coeff.exact`: an `int` when integral, a `Fraction` only where there is
    a denominator, and never a float (TypeError).  Builders write ints, so
    every chain-level operator built from the constants runs on ints;
  * degrees are integers, the differential has degree +1 and
    homology-facing operations require the algebra to sit in degree 0;
  * an algebra may carry a complete set of orthogonal idempotents (the
    matrix and path-algebra builders attach the ones they know: the E_vv of
    M_n, the vertices of a quiver).  Their span E is separable, and
    `DgAlgebra.peirce` rewrites the algebra in a basis adapted to them, on
    which hochschild computes HH relative to E.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coeff import exact
from .exactlin import chain_add


class CyclicQuiver(Exception):
    """Path algebra builder got a quiver with an oriented cycle."""


@dataclass
class AxiomViolation:
    axiom: str
    witness: tuple
    detail: str = ""

    def __str__(self):
        msg = f"{self.axiom} fails at {self.witness}"
        return f"{msg}: {self.detail}" if self.detail else msg


class DgAlgebra:
    """Associative unital dg algebra with chosen basis, basis[0] = 1.

    mult[(i, j)] = {k: coeff} gives basis_i * basis_j; diff[j] = {i: coeff}
    gives d(basis_j).  Degrees are per basis element.  idempotents, if
    given, is {label: coefficient vector} of a complete set of orthogonal
    idempotents.
    """

    # the basis indices spanning the ground ring k: they die in a bar slot
    ground = frozenset((0,))

    def __init__(self, labels, degrees, mult, diff=None, name="", validate=True,
                 idempotents=None):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.degrees = list(degrees)
        self.name = name or "algebra"
        self.mult = {}
        for (i, j), col in mult.items():
            entry = {k: q for k, v in col.items() if (q := exact(v))}
            if entry:
                self.mult[i, j] = entry
        self.diff = {}
        if diff:
            for j, col in diff.items():
                entry = {i: q for i, v in col.items() if (q := exact(v))}
                if entry:
                    self.diff[j] = entry
        self.idempotents = None if idempotents is None else {
            lab: {k: q for k, v in vec.items() if (q := exact(v))}
            for lab, vec in idempotents.items()}
        self._peirce = None
        if validate:
            report = validate_dg_algebra(self)
            if report:
                raise ValueError("; ".join(str(v) for v in report[:3]))

    # basis[1:] spans the chosen complement of the unit
    @property
    def reduced_indices(self):
        return range(1, self.dim)

    def is_degree_zero(self):
        return all(d == 0 for d in self.degrees)

    def product(self, i, j):
        """Structure constants of basis_i * basis_j as {k: coeff}."""
        return self.mult.get((i, j), {})

    def d_of(self, j):
        return self.diff.get(j, {})

    def peirce(self):
        """The PeirceBasis of the idempotents, derived on first use."""
        if self._peirce is None:
            self._peirce = PeirceBasis(self)
        return self._peirce

    def __repr__(self):
        return f"DgAlgebra({self.name}, dim={self.dim})"


def _times(a, u, v):
    """The product of two coefficient vectors of the algebra a."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, c in a.product(i, j).items():
                chain_add(out, k, x * y * c)
    return out


class PeirceBasis:
    """A degree-0 algebra in a basis adapted to its idempotents e_0..e_{r-1}.

    Element x < r is e_x; after them comes every non-unit basis element of
    the algebra that is not an idempotent, in basis order, so the unit is
    the sum of the idempotents.  Each element lies in one e_x A e_y, and
    ends[i] is that (x, y); mult is the product table in this basis.  The
    idempotents span E, the ground of the E-relative complex: they die in a
    bar slot as the unit does in the flat complex.  hochschild's per-key
    generators read degrees, diff, product and ground of it, as of a
    DgAlgebra.  ValueError if the basis is not adapted to the idempotents.
    """

    def __init__(self, algebra):
        if not algebra.is_degree_zero():
            raise ValueError("a Peirce basis needs a degree-0 algebra")
        idem = list(algebra.idempotents.values())
        rest = [k for k in algebra.reduced_indices if {k: 1} not in idem]
        vecs = idem + [{k: 1} for k in rest]
        self.labels = list(algebra.idempotents) + [algebra.labels[k] for k in rest]
        self.dim = len(vecs)
        self.degrees = [0] * self.dim
        self.diff = {}
        self.ground = frozenset(range(len(idem)))
        pos = {k: i for i, v in enumerate(vecs) for k in v if v == {k: 1}}

        def coords(vec):
            out = {}
            for k, c in vec.items():
                for i in (self.ground if k == 0 else (pos[k],)):
                    chain_add(out, i, c)
            return out

        if self.dim != algebra.dim or any(coords(e) != {x: 1} for x, e in enumerate(idem)):
            raise ValueError("the idempotents and the basis give no Peirce basis")
        self.mult = {}
        for i, j in itertools.product(range(self.dim), repeat=2):
            if col := coords(_times(algebra, vecs[i], vecs[j])):
                self.mult[i, j] = col
        self.ends = []
        for i, lab in enumerate(self.labels):
            left = [x for x in self.ground if self.product(x, i) == {i: 1}]
            right = [y for y in self.ground if self.product(i, y) == {i: 1}]
            if len(left) != 1 or len(right) != 1:
                raise ValueError(f"{lab} lies in no single e_x A e_y")
            self.ends.append((left[0], right[0]))

    def product(self, i, j):
        return self.mult.get((i, j), {})


def validate_dg_algebra(a: DgAlgebra):
    """Every violated axiom with a witness, or an empty list if valid."""
    out = []
    dim = a.dim
    if dim == 0:
        return [AxiomViolation("unit", (), "the zero algebra is rejected")]
    # degrees of products add
    for (i, j), col in a.mult.items():
        for k, v in col.items():
            if v and a.degrees[k] != a.degrees[i] + a.degrees[j]:
                out.append(AxiomViolation("graded-product", (i, j, k),
                                          "degree of product does not add"))
    # unit axioms
    if a.degrees[0] != 0:
        out.append(AxiomViolation("unit-degree", (0,), "unit must have degree 0"))
    for i in range(dim):
        if a.product(0, i) != {i: 1}:
            out.append(AxiomViolation("left-unit", (i,), f"1*b_{i} != b_{i}"))
        if a.product(i, 0) != {i: 1}:
            out.append(AxiomViolation("right-unit", (i,), f"b_{i}*1 != b_{i}"))
    # associativity
    for i, j, k in itertools.product(range(dim), repeat=3):
        assoc = {}  # (b_i b_j) b_k - b_i (b_j b_k)
        for m, c in a.product(i, j).items():
            for n, c2 in a.product(m, k).items():
                chain_add(assoc, n, c * c2)
        for m, c in a.product(j, k).items():
            for n, c2 in a.product(i, m).items():
                chain_add(assoc, n, -c * c2)
        if assoc:
            out.append(AxiomViolation("associativity", (i, j, k)))
    # differential: degree +1, d^2 = 0, Leibniz, d(1) = 0
    for j, col in a.diff.items():
        for i, v in col.items():
            if v and a.degrees[i] != a.degrees[j] + 1:
                out.append(AxiomViolation("diff-degree", (j, i)))
    if a.diff.get(0):
        out.append(AxiomViolation("unit-cocycle", (0,), "d(1) != 0"))
    for j in range(dim):
        dd = {}
        for i, v in a.d_of(j).items():
            for k, w in a.d_of(i).items():
                chain_add(dd, k, v * w)
        if dd:
            out.append(AxiomViolation("d-squared", (j,)))
    for i, j in itertools.product(range(dim), repeat=2):
        # d(b_i b_j) = d(b_i) b_j + (-1)^{|b_i|} b_i d(b_j)
        diffr = {}  # lhs - rhs
        for k, c in a.product(i, j).items():
            for m, v in a.d_of(k).items():
                chain_add(diffr, m, c * v)
        for m, v in a.d_of(i).items():
            for k, c in a.product(m, j).items():
                chain_add(diffr, k, -v * c)
        sgn = -1 if a.degrees[i] % 2 else 1
        for m, v in a.d_of(j).items():
            for k, c in a.product(i, m).items():
                chain_add(diffr, k, -sgn * v * c)
        if diffr:
            out.append(AxiomViolation("leibniz", (i, j)))
    # idempotents: e_x e_y = delta_xy e_x and sum e_x = 1
    idem = a.idempotents or {}
    for (x, ex), (y, ey) in itertools.product(idem.items(), repeat=2):
        if _times(a, ex, ey) != (ex if x == y else {}):
            out.append(AxiomViolation("idempotents", (x, y), "e_x e_y != delta_xy e_x"))
    total = {}
    for vec in idem.values():
        for k, c in vec.items():
            chain_add(total, k, c)
    if idem and total != {0: 1}:
        out.append(AxiomViolation("idempotents", tuple(idem), "they do not sum to 1"))
    return out


# -- builders -----------------------------------------------------------------


def build_truncated_polynomial_algebra(n: int) -> DgAlgebra:
    """Q[x]/(x^n) in degree 0, basis 1, x, ..., x^{n-1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    labels = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, n)]
    mult = {}
    for i in range(n):
        for j in range(n):
            if i + j < n:
                mult[i, j] = {i + j: 1}
    return DgAlgebra(labels, [0] * n, mult, name=f"trunc_poly:{n}")


def build_matrix_algebra(n: int) -> DgAlgebra:
    """M_n(Q), re-based so that basis[0] is the identity matrix.

    Basis: 1, then the elementary matrices E_{pq} with (p, q) != (n-1, n-1)
    in row-major order; E_{n-1,n-1} = 1 - sum of the other diagonal ones.
    The idempotents E_11, ..., E_nn are attached.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    pairs = [(p, q) for p in range(n) for q in range(n) if (p, q) != (n - 1, n - 1)]
    labels = ["1"] + [f"E{p+1}{q+1}" for p, q in pairs]
    idx = {pq: k + 1 for k, pq in enumerate(pairs)}
    dim = len(labels)

    def as_vec(p, q):
        """E_{pq} as a coefficient vector over the chosen basis."""
        if (p, q) != (n - 1, n - 1):
            return {idx[p, q]: 1}
        vec = {0: 1}
        for r in range(n - 1):
            vec[idx[r, r]] = -1
        return vec

    mult = {(0, 0): {0: 1}}
    for k in range(1, dim):
        mult[0, k] = {k: 1}
        mult[k, 0] = {k: 1}
    for (p, q), (r, s) in itertools.product(pairs, repeat=2):
        if q != r:
            continue
        col = as_vec(p, s)
        mult[idx[p, q], idx[r, s]] = dict(col)
    return DgAlgebra(labels, [0] * dim, mult, name=f"matrix:{n}",
                     idempotents={f"E{v+1}{v+1}": as_vec(v, v) for v in range(n)})


def build_path_algebra(vertices, arrows, name=None) -> DgAlgebra:
    """Path algebra of an acyclic quiver, re-based so basis[0] is the unit.

    vertices: list of labels; arrows: list of (label, source, target).
    Paths multiply by concatenation: (p . q) means "p after q", defined when
    source(p) = target(q).  The basis is 1, the vertex idempotents except the
    first, then all paths of length >= 1 (by length, then lexicographically).
    The vertex idempotents e_v are attached.
    """
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertex labels")
    adj = {v: [] for v in vs}
    for lab, s, t in arrows:
        if s not in adj or t not in adj:
            raise ValueError(f"arrow {lab} uses unknown vertex")
        adj[s].append((lab, t))
    # acyclicity via DFS
    state = {v: 0 for v in vs}

    def dfs(v):
        state[v] = 1
        for _, t in adj[v]:
            if state[t] == 1:
                raise CyclicQuiver(f"cycle through vertex {t}")
            if state[t] == 0:
                dfs(t)
        state[v] = 2

    for v in vs:
        if state[v] == 0:
            dfs(v)
    # enumerate paths: (source, target, tuple of arrow labels)
    paths = []
    frontier = [(v, v, ()) for v in vs]
    while frontier:
        nxt = []
        for s, t, word in frontier:
            for lab, t2 in adj[t]:
                nxt.append((s, t2, word + (lab,)))
        paths.extend(nxt)
        frontier = nxt
    paths.sort(key=lambda p: (len(p[2]), p[2]))
    # basis: unit, e_v for v in vs[1:], then proper paths (word kept whole)
    basis = [("unit",)]
    basis += [("vertex", v) for v in vs[1:]]
    basis += [("path", s, t, word) for s, t, word in paths]
    labels = ["1"] + [f"e_{v}" for v in vs[1:]] + ["*".join(p[2]) for p in paths]
    pos = {b: k for k, b in enumerate(basis)}
    dim = len(basis)

    def vertex_vec(v):
        if v == vs[0]:
            vec = {0: 1}
            for w in vs[1:]:
                vec[pos["vertex", w]] = -1
            return vec
        return {pos["vertex", v]: 1}

    def elem_product(b1, b2):
        """Product of two primitive elements (vertex v) / (path s,t,word)."""
        if b1[0] == "vertex" and b2[0] == "vertex":
            return vertex_vec(b1[1]) if b1[1] == b2[1] else {}
        if b1[0] == "vertex":
            return {pos[b2]: 1} if b1[1] == b2[2] else {}
        if b2[0] == "vertex":
            return {pos[b1]: 1} if b1[1] == b2[1] else {}
        s1, t1, w1 = b1[1], b1[2], b1[3]
        s2, t2, w2 = b2[1], b2[2], b2[3]
        if s1 != t2:
            return {}
        # b1 . b2 = "b1 after b2": traverse b2's arrows first
        return {pos["path", s2, t1, w2 + w1]: 1}

    mult = {(0, 0): {0: 1}}
    for k in range(1, dim):
        mult[0, k] = {k: 1}
        mult[k, 0] = {k: 1}
    for b1, b2 in itertools.product(basis[1:], repeat=2):
        col = elem_product(b1, b2)
        if col:
            mult[pos[b1], pos[b2]] = col
    return DgAlgebra(labels, [0] * dim, mult,
                     name=name or f"path:{'-'.join(map(str, vs))}",
                     idempotents={f"e_{v}": vertex_vec(v) for v in vs})


def build_field() -> DgAlgebra:
    return DgAlgebra(["1"], [0], {(0, 0): {0: 1}}, name="Q")


def a2_quiver_algebra() -> DgAlgebra:
    """Path algebra of the two-vertex one-arrow quiver (A_2)."""
    return build_path_algebra([1, 2], [("f", 1, 2)], name="path:a2")


def kronecker_algebra() -> DgAlgebra:
    return build_path_algebra([1, 2], [("f", 1, 2), ("g", 1, 2)], name="path:kron")
