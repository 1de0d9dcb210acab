"""Finite-dimensional dg algebras: construction, validation, builders.

Conventions baked in here and relied on everywhere downstream:
  * basis[0] is the unit.  The matrix and path-algebra builders write their
    natural tables (every E_pq; every vertex and path) and re-base them
    onto 1 = sum of the e_v with change_basis, the one change of basis of
    structure constants, which also gives the coordinates of their
    idempotents; PeirceBasis and the CLI's unit re-basing call it too;
  * the complement of the unit spanned by basis[1:] realizes A/k; bar-word
    slots carry indices from that complement only;
  * structure constants are exact rationals stored by the rule of
    `coeff.exact`: an `int` when integral, a `Fraction` only where there is
    a denominator, and never a float (TypeError).  Builders write ints, so
    every chain-level operator built from the constants runs on ints;
  * degrees are integers, the differential has degree +1 and
    homology-facing operations require the algebra to sit in degree 0;
  * an algebra is valid when its structure cochain b (hochschild) has
    b o b = 0: validate_dg_algebra checks degrees and the unit by hand and
    reads associativity, d^2 = 0 and Leibniz off that one brace;
  * radical(algebra) gives the radical J, certified, and dim A/([A, A] + J);
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
from .exactlin import (
    SparseMatrix,
    chain_add,
    from_columns,
    kept,
    rank,
    rref,
    solve,
)


class CyclicQuiver(Exception):
    """Path algebra builder got a quiver with an oriented cycle."""


class NotDegreeZero(ValueError):
    """An operation that needs an algebra in degree 0 got a graded one."""


def require_degree_zero(algebra, operation):
    """NotDegreeZero naming the operation unless every basis element of the
    algebra, or of the chain model, sits in degree 0."""
    if any(algebra.degrees):
        raise NotDegreeZero(f"{operation} requires a degree-0 algebra")


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
        if validate:
            report = validate_dg_algebra(self)
            if report:
                raise ValueError("; ".join(str(v) for v in report[:3]))

    # basis[1:] spans the chosen complement of the unit
    @property
    def reduced_indices(self):
        return range(1, self.dim)

    @property
    def ends(self):
        """(x, y) with basis_i in e_x A e_y, per i: every element lies in
        1 A 1, the ground {0} being the one idempotent 1."""
        return [(0, 0)] * self.dim

    def product(self, i, j):
        """Structure constants of basis_i * basis_j as {k: coeff}."""
        return self.mult.get((i, j), {})

    def d_of(self, j):
        return self.diff.get(j, {})

    def peirce(self):
        """The PeirceBasis of the idempotents, built on first use and kept."""
        return kept(self, "peirce", lambda: PeirceBasis(self))

    def __repr__(self):
        return f"DgAlgebra({self.name}, dim={self.dim})"


def _times(mult, u, v):
    """The product of two coefficient vectors under the product table mult."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, c in mult.get((i, j), {}).items():
                chain_add(out, k, x * y * c)
    return out


def change_basis(mult, diff, vecs):
    """The structure constants in the basis vecs, and the map from old
    coordinates to new ones.

    vecs[i] is the i-th new basis element as a coefficient vector over the
    old basis, whose product table and differential are mult and diff (as
    stored by DgAlgebra).  Returns ((mult, diff), coords): the tables in the
    new basis, exact and with each column in index order, and coords(vec),
    the new coordinates of an old coefficient vector.  ValueError if vecs is
    no basis.
    """
    change = from_columns(len(vecs), vecs)
    inverse = solve(change, [{k: 1} for k in range(len(vecs))])
    if None in inverse:
        raise ValueError("the vectors are no basis")

    def coords(vec):
        out = {}
        for k, c in vec.items():
            for i, v in inverse[k].items():
                chain_add(out, i, c * v)
        return {i: exact(out[i]) for i in sorted(out)}

    new_mult, new_diff = {}, {}
    for (i, u), (j, v) in itertools.product(enumerate(vecs), repeat=2):
        if col := coords(_times(mult, u, v)):
            new_mult[i, j] = col
    for j, u in enumerate(vecs):
        du = {}
        for k, c in u.items():
            for i, v in diff.get(k, {}).items():
                chain_add(du, i, c * v)
        if col := coords(du):
            new_diff[j] = col
    return (new_mult, new_diff), coords


def _trace_form(mult, idx):
    """The Gram matrix of (a, b) -> tr(L_ab) on the basis indices idx of the
    table mult; coordinates outside idx are dropped (the quotient's form)."""
    trace = {k: sum(mult.get((k, l), {}).get(l, 0) for l in idx) for k in idx}
    return SparseMatrix(len(idx), len(idx), {
        (p, q): t for (p, a), (q, b) in itertools.product(enumerate(idx), repeat=2)
        if (t := sum(c * trace.get(k, 0) for k, c in mult.get((a, b), {}).items()))})


def _certify_radical(algebra, jac):
    """RuntimeError unless the span J of jac is a two-sided ideal, J^dim = 0,
    and A/J has a nondegenerate trace form, so that A/J is semisimple and J
    is the radical.  Read in the basis jac + the unit vectors completing it."""
    n, d = algebra.dim, len(jac)
    units = [{k: 1} for k in range(n)]
    pivots = rref(from_columns(n, jac + units))[2]
    (mult, _), _ = change_basis(algebra.mult, algebra.diff,
                                jac + [units[p - d] for p in pivots[d:]])
    power = units[:d]
    for _ in range(n - 1):  # a basis of J^2, .., J^n
        products = [_times(mult, u, v) for u in power for v in units[:d]]
        power = [products[p] for p in rref(from_columns(n, products))[2]]
    for failed, what in [
            (any(k >= d for (i, j), col in mult.items() if min(i, j) < d for k in col),
             "J is no two-sided ideal"),
            (power, "J is not nilpotent"),
            (rank(_trace_form(mult, range(d, n))) != n - d, "A/J is not semisimple")]:
        if failed:
            raise RuntimeError(f"radical certificate: {what} (bug)")


def radical(algebra):
    """(J, h), kept on a degree-0 algebra: a basis J of its radical as
    coefficient vectors, and h = dim A / ([A, A] + J) = dim HH_0(A/J).  In
    characteristic 0, J is the kernel of the trace form (Dickson), and
    _certify_radical checks it; over Q a failure is a bug."""
    def build():
        n = algebra.dim
        jac = rref(_trace_form(algebra.mult, range(n)))[1]
        _certify_radical(algebra, jac)
        spanning = list(jac)  # and the commutators [b_i, b_j]
        for i, j in itertools.combinations(range(n), 2):
            spanning.append(dict(algebra.product(i, j)))
            for k, c in algebra.product(j, i).items():
                chain_add(spanning[-1], k, -c)
        return jac, n - rank(from_columns(n, spanning))

    return kept(algebra, "radical", build)


class PeirceBasis:
    """A degree-0 algebra in a basis adapted to its idempotents e_0..e_{r-1}.

    Element x < r is e_x; after them comes every non-unit basis element of
    the algebra that is not an idempotent, in basis order, so the unit is
    the sum of the idempotents.  Each element lies in one e_x A e_y, and
    ends[i] is that (x, y); mult and diff are the tables in this basis, by
    change_basis.  The idempotents span E, the ground of the E-relative
    complex: they die in a bar slot as the unit does in the flat complex.  It
    is a chain model of hochschild as a DgAlgebra is, read through degrees,
    diff, product, ground and ends.  ValueError if the basis is not adapted
    to the idempotents.
    """

    def __init__(self, algebra):
        require_degree_zero(algebra, "a Peirce basis")
        idem = list(algebra.idempotents.values())
        rest = [k for k in algebra.reduced_indices if {k: 1} not in idem]
        vecs = idem + [{k: 1} for k in rest]
        if len(vecs) != algebra.dim:
            raise ValueError("the idempotents and the basis give no Peirce basis")
        self.labels = list(algebra.idempotents) + [algebra.labels[k] for k in rest]
        self.dim = len(vecs)
        self.degrees = [0] * self.dim
        (self.mult, self.diff), _ = change_basis(algebra.mult, algebra.diff, vecs)
        self.ground = frozenset(range(len(idem)))
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
    """Every violated axiom with a witness, or an empty list if valid.  The
    associativity, d^2 and Leibniz witnesses are the words of arity 3, 1 and
    2 of b o b, b the structure cochain, read only on tables that pass the
    degree and unit checks, where b's signs name them exactly."""
    from .hochschild import brace_compose, structure_as_cochain

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
    # associativity, read only where products add degrees and 1 is a unit
    b = structure_as_cochain(a)
    square = {} if out else brace_compose(b, b).components
    out.extend(AxiomViolation("associativity", w) for w in sorted(square.get(3, ())))
    # differential: degree +1 and d(1) = 0, which gate d^2 = 0 and Leibniz
    before = len(out)
    for j, col in a.diff.items():
        for i, v in col.items():
            if v and a.degrees[i] != a.degrees[j] + 1:
                out.append(AxiomViolation("diff-degree", (j, i)))
    if a.diff.get(0):
        out.append(AxiomViolation("unit-cocycle", (0,), "d(1) != 0"))
    if len(out) == before:
        out.extend(AxiomViolation("d-squared", w) for w in sorted(square.get(1, ())))
        out.extend(AxiomViolation("leibniz", w) for w in sorted(square.get(2, ())))
    # idempotents: e_x e_y = delta_xy e_x and sum e_x = 1
    idem = a.idempotents or {}
    for (x, ex), (y, ey) in itertools.product(idem.items(), repeat=2):
        if _times(a.mult, ex, ey) != (ex if x == y else {}):
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
    # the natural table: E_pq E_qs = E_ps on the basis of all E_pq, row-major
    idx = {(p, q): p * n + q for p in range(n) for q in range(n)}
    mult = {(idx[p, q], idx[q, s]): {idx[p, s]: 1}
            for p, q, s in itertools.product(range(n), repeat=3)}
    kept = [pq for pq in idx if pq != (n - 1, n - 1)]
    vecs = [{idx[v, v]: 1 for v in range(n)}] + [{idx[pq]: 1} for pq in kept]
    (mult, _), coords = change_basis(mult, {}, vecs)
    return DgAlgebra(["1"] + [f"E{p+1}{q+1}" for p, q in kept], [0] * len(vecs), mult,
                     name=f"matrix:{n}",
                     idempotents={f"E{v+1}{v+1}": coords({idx[v, v]: 1})
                                  for v in range(n)})


def build_path_algebra(vertices, arrows, name=None) -> DgAlgebra:
    """Path algebra of an acyclic quiver, re-based so basis[0] is the unit.

    vertices: list of labels; arrows: list of (label, source, target).
    Paths multiply by concatenation: (p . q) means "p after q", defined when
    source(p) = target(q).  The basis is 1, the vertex idempotents except the
    first, then all paths of length >= 1 (by length, then lexicographically).
    The vertex idempotents e_v are attached.
    """
    vs = list(vertices)
    if not vs:
        raise ValueError("need at least one vertex")
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
    # the natural table on the vertices and the paths (word kept whole)
    natural = [("vertex", v) for v in vs] + [("path", *p) for p in paths]
    pos = {b: k for k, b in enumerate(natural)}

    def elem_product(b1, b2):
        """Product of two natural basis elements, a vertex or a path."""
        if b1[0] == "vertex" and b2[0] == "vertex":
            return b1 if b1[1] == b2[1] else None
        if b1[0] == "vertex":
            return b2 if b1[1] == b2[2] else None
        if b2[0] == "vertex":
            return b1 if b1[1] == b2[1] else None
        # b1 . b2 = "b1 after b2": traverse b2's arrows first
        return ("path", b2[1], b1[2], b2[3] + b1[3]) if b1[1] == b2[2] else None

    mult = {(pos[b1], pos[b2]): {pos[b]: 1}
            for b1, b2 in itertools.product(natural, repeat=2)
            if (b := elem_product(b1, b2))}
    # re-based: 1 = sum of the e_v, the e_v except the first, the paths
    vecs = [{k: 1 for k in range(len(vs))}] + [{k: 1} for k in range(1, len(natural))]
    (mult, _), coords = change_basis(mult, {}, vecs)
    labels = ["1"] + [f"e_{v}" for v in vs[1:]] + ["*".join(p[2]) for p in paths]
    return DgAlgebra(labels, [0] * len(vecs), mult,
                     name=name or f"path:{'-'.join(map(str, vs))}",
                     idempotents={f"e_{v}": coords({pos["vertex", v]: 1}) for v in vs})


def build_field() -> DgAlgebra:
    return DgAlgebra(["1"], [0], {(0, 0): {0: 1}}, name="Q")


def a2_quiver_algebra() -> DgAlgebra:
    """Path algebra of the two-vertex one-arrow quiver (A_2)."""
    return build_path_algebra([1, 2], [("f", 1, 2)], name="path:a2")


def kronecker_algebra() -> DgAlgebra:
    return build_path_algebra([1, 2], [("f", 1, 2), ("g", 1, 2)], name="path:kron")
