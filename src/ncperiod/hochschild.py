"""Normalized Hochschild chains/cochains and their operators.

Representation
  * a chain is a dict {(a0, word): coeff} where a0 is an A-basis index and
    word is a tuple of indices from the unit complement (basis[1:]); the
    unit never occupies a bar slot (normalization);
  * a cochain of arity l is stored at the shifted level: a map sending an
    l-tuple of complement indices to a coefficient vector over the full
    basis.  The structure maps of the algebra itself (the product and the
    differential) are evaluated from the structure constants with the
    shift sign  b_n[a_1|..|a_n] = (-1)^{sum (n-i)|a_i|} m_n(a_1,..,a_n).

Signs use shifted degrees sd(a) = |a| - 1, eps_i = sd(a_1)+..+sd(a_i) and
mu_i = sd(a_0) + eps_i:
  * boundary, interior part:   (-1)^{mu_j}             (this is L at b)
  * boundary, wrap part:       (-1)^{mu_i (mu_n - mu_i)}
  * Lie action of P, interior: (-1)^{sd(P) mu_j}
  * Lie action of P, wrap:     (-1)^{mu_i (mu_n - mu_i)}
  * Connes operator, i-th rotation: (-1)^{(eps_i + sd(a_0))(eps_n - eps_i)}
  * contraction by arity-p P:  (-1)^{(sd(P)+1)|a_0|} a_0 P[a_1|..|a_p] x rest

The wrap windows are the contiguous cyclic runs containing a_0 exactly
once: for arity l they are i in 0..n with n-i+1 <= l <= n+1.

Indexing and assembly
  * chain_spaces is the one chain-space index: per bar weight, the keys
    (a0, word) in index order, which is mixed radix: with r = dim - 1 the
    key (a0, w) of weight n sits at a0 r^n + sum_k (w_k - 1) r^(n-1-k);
    ChainBasis is the same spaces laid end to end, weight n at positions
    offsets[n]..offsets[n+1]-1;
  * term_matrix is the one operator assembly: the matrix of an operator in
    run form (lie_runs, connes_runs, contraction_runs for d or L_P, B and
    I_P), whose terms come as runs of rows and columns computed from that
    index, with no per-term key.  d and B per weight (boundary_matrices,
    connes_matrices) and the operator matrices of calculus.OperatorSpace are
    all built by it.  The per-key generators (lie_terms, connes_terms,
    contraction_terms) act on chain dicts; both forms take their signs from
    _interior_sign, _rotation_sign and _cap_sign;
  * an algebra with idempotents also has the complex relative to their span
    E (relative_chain_spaces, relative_boundary_matrices): its chains are
    walks over the algebra's PeirceBasis, indexed by a dict, and its d is
    assembled from lie_terms, where an output in E dies in a bar slot.
    hochschild_homology takes that route whenever the algebra has
    idempotents; flat_hochschild_homology is the normalized complex above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction

from .exactlin import SparseMatrix, chain_add, homology_walk


class ArityBoundExceeded(Exception):
    pass


# -- cochains ------------------------------------------------------------------


class Cochain:
    """Element of the shifted normalized cochain complex, arity-bounded.

    components[l][word][out] = coeff; word entries are complement indices
    (>= 1), out ranges over the full basis.  sdeg is the degree as a map of
    shifted spaces; for an algebra in degree 0 an arity-l component has
    sdeg l - 1.
    """

    __slots__ = ("algebra", "components", "sdeg", "arity_bound", "normalized")

    def __init__(self, algebra, components, sdeg, arity_bound=None, normalized=True):
        self.algebra = algebra
        self.normalized = normalized
        self.components = {}
        for l, comp in components.items():
            clean = {}
            for word, out in comp.items():
                vec = {k: v for k, v in out.items() if v}
                if vec:
                    if normalized and any(i == 0 for i in word):
                        raise ValueError("normalized cochains vanish on the unit")
                    clean[tuple(word)] = vec
            if clean:
                self.components[l] = clean
        self.sdeg = sdeg
        self.arity_bound = arity_bound

    def arities(self):
        return sorted(self.components)

    def eval(self, l, word):
        """Value on a word of full-basis indices (zero if any slot is the unit)."""
        comp = self.components.get(l)
        if not comp:
            return {}
        return comp.get(tuple(word), {})

    def is_zero(self):
        return not self.components

    def map_coefficients(self, fn):
        comps = {}
        for l, comp in self.components.items():
            comps[l] = {
                w: {k: fn(v) for k, v in out.items()} for w, out in comp.items()
            }
        return Cochain(self.algebra, comps, self.sdeg, self.arity_bound,
                       normalized=self.normalized)

    def add(self, other, scale=1):
        if other.sdeg != self.sdeg and not (self.is_zero() or other.is_zero()):
            raise ValueError("cochain degrees differ")
        comps = {l: {w: dict(out) for w, out in c.items()}
                 for l, c in self.components.items()}
        for l, comp in other.components.items():
            tgt = comps.setdefault(l, {})
            for w, out in comp.items():
                vec = tgt.setdefault(w, {})
                for k, v in out.items():
                    chain_add(vec, k, scale * v)
        sdeg = self.sdeg if not self.is_zero() else other.sdeg
        return Cochain(self.algebra, comps, sdeg,
                       self.arity_bound or other.arity_bound,
                       normalized=self.normalized and other.normalized)

    def scaled(self, c):
        return self.map_coefficients(lambda v: c * v)

    def __repr__(self):
        parts = [f"arity {l}: {len(c)} words" for l, c in sorted(self.components.items())]
        return f"Cochain(sdeg={self.sdeg}; " + ", ".join(parts) + ")"


def basis_cochains(algebra, arity_bound, sdeg=None):
    """All (word, out) basis cochains with arity <= arity_bound.

    For a degree-0 algebra each arity-l basis cochain has sdeg l - 1; for
    graded algebras the sdeg is computed per (word, out) pair and cochains
    are grouped accordingly unless sdeg is given.
    """
    out = []
    red = list(algebra.reduced_indices)
    for l in range(arity_bound + 1):
        for word in itertools.product(red, repeat=l):
            eps = sum(algebra.degrees[i] - 1 for i in word)
            for t in range(algebra.dim):
                s = algebra.degrees[t] - 1 - eps
                if sdeg is not None and s != sdeg:
                    continue
                out.append(Cochain(algebra, {l: {word: {t: 1}}}, s, arity_bound))
    return out


def unit_cochain(algebra, arity_bound=None):
    """1 in Hom(k, A): the arity-0 cochain with value the unit."""
    return Cochain(algebra, {0: {(): {0: 1}}}, algebra.degrees[0] - 1, arity_bound)


# -- structure maps -------------------------------------------------------------


class DgStructure:
    """b of the algebra itself: b_1 from diff, b_2 from mult, sdeg 1."""

    __slots__ = ("algebra",)
    sdeg = 1

    def __init__(self, algebra):
        self.algebra = algebra

    def arities(self):
        out = []
        if self.algebra.diff:
            out.append(1)
        out.append(2)
        return out

    def eval(self, l, word):
        a = self.algebra
        if l == 1:
            return a.d_of(word[0])
        if l == 2:
            i, j = word
            sgn = -1 if a.degrees[i] % 2 else 1
            col = a.product(i, j)
            return {k: sgn * v for k, v in col.items()} if sgn < 0 else col
        return {}


class DeformedStructure:
    """b + x for a degree-1 cochain x with coefficients in a nilpotent ideal."""

    __slots__ = ("algebra", "x", "base")
    sdeg = 1

    def __init__(self, algebra, x):
        self.algebra = algebra
        self.x = x
        self.base = DgStructure(algebra)

    def arities(self):
        return sorted(set(self.base.arities()) | set(self.x.arities()))

    def eval(self, l, word):
        out = dict(self.base.eval(l, word))
        if any(i == 0 for i in word):
            return out  # x is normalized
        for k, v in self.x.eval(l, word).items():
            chain_add(out, k, v)
        return out


# -- signs -----------------------------------------------------------------------
# The sign rules of the chain operators, used by the per-key term generators
# and by the run-form assembly alike.  Every argument enters only through its
# parity, so the run form may pass the parity of a digit sum.


def _interior_sign(sdP, mu):
    """(-1)^{sd(P) mu_j}: the interior term of L_P at slot j."""
    return -1 if (sdP * mu) % 2 else 1


def _rotation_sign(mu, rest):
    """(-1)^{mu rest}: a wrap term of L_P (mu = mu_i, rest = mu_n - mu_i) and
    the i-th rotation of B (mu = eps_i + sd(a_0), rest = eps_n - eps_i)."""
    return -1 if (mu * rest) % 2 else 1


def _cap_sign(sdP, deg0):
    """(-1)^{(sd(P)+1)|a_0|}: the contraction by P."""
    return -1 if ((sdP + 1) * deg0) % 2 else 1


# -- term generation -------------------------------------------------------------


def _prefix_eps(algebra, word):
    eps = [0]
    acc = 0
    for i in word:
        acc += algebra.degrees[i] - 1
        eps.append(acc)
    return eps


def lie_terms(algebra, op, a0, word, out_terms):
    """Accumulate the terms of L_op on the basis chain (a0, word).

    op provides arities(), eval(l, word), sdeg.  out_terms is a callable
    (key, coeff) -> None receiving normalized chain keys; an output in
    algebra.ground (the unit, or the idempotents of a PeirceBasis) dies in a
    bar slot.  out_terms may also be a pair (keyed, slotted): then each
    interior term goes to slotted(j, out, coeff) instead, j being the bar
    slot its output fills, and no key is built for it.
    """
    keyed, slotted = out_terms if type(out_terms) is tuple else (out_terms, None)
    ground = algebra.ground
    n = len(word)
    eps = _prefix_eps(algebra, word)
    sd0 = algebra.degrees[a0] - 1
    sdP = op.sdeg
    for l in op.arities():
        # interior insertions
        for j in range(n - l + 1):
            seg = word[j:j + l]
            val = op.eval(l, seg)
            if not val:
                continue
            sgn = _interior_sign(sdP, sd0 + eps[j])
            if slotted is not None:
                for out, c in val.items():
                    if out not in ground:
                        slotted(j, out, sgn * c)
                continue
            head, tail = word[:j], word[j + l:]
            for out, c in val.items():
                if out not in ground:
                    keyed((a0, head + (out,) + tail), sgn * c)
        # wrap-around terms: window covers a_0
        for i in range(n + 1):
            lo = n - i + 1
            if l < lo or l > n + 1:
                continue
            m = l - (n - i) - 1
            if m > i:
                continue
            window = word[i:] + (a0,) + word[:m]
            val = op.eval(l, window)
            if not val:
                continue
            sgn = _rotation_sign(sd0 + eps[i], eps[n] - eps[i])
            rest = word[m:i]
            for out, c in val.items():
                keyed((out, rest), sgn * c)


def connes_terms(algebra, a0, word, out_terms):
    """B(a0 x word): all cyclic rotations with the unit in front."""
    if a0 == 0:
        return  # class of a0 in the complement is zero
    n = len(word)
    eps = _prefix_eps(algebra, word)
    sd0 = algebra.degrees[a0] - 1
    for i in range(n + 1):
        sgn = _rotation_sign(eps[i] + sd0, eps[n] - eps[i])
        out_terms((0, word[i:] + (a0,) + word[:i]), sgn)


def _contraction_arity(cochain):
    """The one arity of the cochain I_P caps off with, None if it is zero."""
    arities = cochain.arities()
    if len(arities) > 1:
        raise ValueError("contraction needs a single-arity cochain")
    return arities[0] if arities else None


def contraction_terms(algebra, cochain, a0, word, out_terms):
    """I_P for P concentrated in one arity p: cap off the first p slots."""
    p = _contraction_arity(cochain)
    if p is None or p > len(word):
        return
    val = cochain.eval(p, word[:p])
    if not val:
        return
    sgn = _cap_sign(cochain.sdeg, algebra.degrees[a0])
    rest = word[p:]
    for out, c in val.items():
        for k, m in algebra.product(a0, out).items():
            out_terms((k, rest), sgn * c * m)


# -- chains as dicts --------------------------------------------------------------


def apply_terms(term_fn, chain):
    """Apply a term generator term_fn(a0, word, out_terms) linearly to a chain dict."""
    out = {}
    for (a0, word), c in chain.items():
        term_fn(a0, word, lambda key, v, c=c: chain_add(out, key, c * v))
    return out


def hochschild_boundary(algebra_or_struct, chain, algebra=None):
    """The chain differential; accepts a DgAlgebra, a deformed algebra, or a
    structure object."""
    if hasattr(algebra_or_struct, "structure"):  # AlgebraOverArtin
        struct = algebra_or_struct.structure()
        alg = algebra_or_struct.algebra
    elif hasattr(algebra_or_struct, "eval"):
        struct, alg = algebra_or_struct, algebra or algebra_or_struct.algebra
    else:
        alg = algebra_or_struct
        struct = DgStructure(alg)
    return apply_terms(partial(lie_terms, alg, struct), chain)


def connes_B(algebra, chain):
    return apply_terms(partial(connes_terms, algebra), chain)


def lie_action(algebra, cochain, chain):
    return apply_terms(partial(lie_terms, algebra, cochain), chain)


def contraction(algebra, cochain, chain):
    return apply_terms(partial(contraction_terms, algebra, cochain), chain)


# -- cochain-level operations ------------------------------------------------------


def brace_compose(p, q, arity_bound=None):
    """The insertion composition p o q (sum over one slot of p fed by q).

    (p o q)[a_1|..] = sum_i (-1)^{sd(q) eps_i} p[a_1|..|q[window]|..]; the
    value of q is projected to the unit complement before insertion when p
    is normalized, and for the structure maps the unit component is kept by
    evaluating the product table directly (handled by callers that need it;
    here both are normalized cochains or the structure viewed as a cochain
    acting on complement words, so the unit component of q's value never
    contributes except through eval on full words).
    """
    algebra = p.algebra
    bound = arity_bound or p.arity_bound or q.arity_bound
    comps = {}
    sdq = q.sdeg
    items_p = [(l, w, out) for l, comp in p.components.items()
               for w, out in comp.items()]
    for v, compq in q.components.items():
        for l, w, outp in items_p:
            if l == 0:
                continue
            n = l + v - 1
            if bound is not None and n > bound:
                raise ArityBoundExceeded(f"arity {n} exceeds bound {bound}")
            # choose the slot i of p and a word for q matching w at slot i
            for i in range(l):
                # resulting word: w[:i] + u + w[i+1:], u of length v, with
                # q[u] having a component at w[i]; result words containing
                # the unit belong to unit inputs and are dropped (they only
                # arise when a factor is stored on full words, i.e. is b).
                for u, outq in compq.items():
                    c_ins = outq.get(w[i])
                    if not c_ins:
                        continue
                    word = w[:i] + u + w[i + 1:]
                    if 0 in word:
                        continue
                    eps_i = sum(algebra.degrees[a] - 1 for a in w[:i])
                    sgn = -1 if (sdq * eps_i) % 2 else 1
                    key = comps.setdefault(n, {}).setdefault(word, {})
                    for t, cp in outp.items():
                        chain_add(key, t, sgn * c_ins * cp)
    return Cochain(algebra, comps, p.sdeg + q.sdeg, bound)


def gerstenhaber_bracket(p, q, arity_bound=None):
    """[p, q] = p o q - (-1)^{sd(p) sd(q)} q o p."""
    pq = brace_compose(p, q, arity_bound)
    qp = brace_compose(q, p, arity_bound)
    sgn = -1 if (p.sdeg * q.sdeg) % 2 else 1
    return pq.add(qp, scale=-sgn)


def structure_as_cochain(algebra, arity_bound, struct=None):
    """b written out on all basis words (units included, so that insertions
    of unit-valued outputs are seen when b is the outer factor of a brace)."""
    struct = struct or DgStructure(algebra)
    comps = {}
    for l in struct.arities():
        comp = {}
        for word in itertools.product(range(algebra.dim), repeat=l):
            val = struct.eval(l, word)
            if val:
                comp[word] = dict(val)
        if comp:
            comps[l] = comp
    return Cochain(algebra, comps, 1, arity_bound, normalized=False)


def cochain_differential(algebra, p, arity_bound=None):
    """d p = [b, p] = b o p - (-1)^{sd p} p o b on normalized cochains."""
    bound = arity_bound or p.arity_bound
    if bound is None:
        bound = max(p.arities(), default=0) + 1
    b = structure_as_cochain(algebra, bound + 1)
    bp = brace_compose(b, p, bound)
    pb = brace_compose(p, b, bound)
    sgn = -1 if p.sdeg % 2 else 1
    return bp.add(pb, scale=-sgn)


# -- finite bases and matrices ------------------------------------------------------


def chain_spaces(algebra, max_weight):
    """Index maps {(a0, word): j} per weight 0..max_weight, keys in index order.

    The index is mixed radix: with r = dim - 1, the key (a0, w) of weight n
    sits at a0 r^n + sum_k (w_k - 1) r^(n-1-k), a0 being a digit of radix dim
    and each bar slot one of radix r.  For r = 0 the weights above 0 are
    empty.
    """
    red = list(algebra.reduced_indices)
    return [
        {
            key: j
            for j, key in enumerate(
                (a0, w)
                for a0 in range(algebra.dim)
                for w in itertools.product(red, repeat=n)
            )
        }
        for n in range(max_weight + 1)
    ]


def _word_index(word, r):
    """The mixed-radix index of a word of complement indices, radix r."""
    index = 0
    for i in word:
        index = index * r + i - 1
    return index


# -- run-form assembly ---------------------------------------------------------------
# An operator in run form is a generator runs(n) of the units of its matrix on
# the chains of weight n: (target weight, value, [(row, col, k, drow, dcol)]),
# each run standing for the entries (row + t drow, col + t dcol), t < k, all
# carrying value, all distinct within the unit.  Rows and columns are
# chain_spaces indices, so a term family whose digits run over a range is a
# run: the tail of an interior slot of L_P, the kept word of a wrap window or
# of I_P, both sides of a rotation of B.  A run stops where its sign changes.


def _digit_parities(algebra):
    """sd(a) mod 2 for a over the full basis and over the complement digits."""
    full = [(d - 1) % 2 for d in algebra.degrees]
    return full, full[1:]


def _parity_runs(positions):
    """[(parity, start, stop)]: the maximal runs of constant digit-sum parity
    over the mixed-radix numbers whose digits, most significant first, have
    the parities positions[0], positions[1], ..."""
    runs, size = [(0, 0, 1)], 1
    for par in reversed(positions):
        out = []
        for d, q in enumerate(par):
            for p, lo, hi in runs:
                p, lo, hi = p ^ q, lo + d * size, hi + d * size
                if out and out[-1][0] == p and out[-1][2] == lo:
                    out[-1] = (p, out[-1][1], hi)
                else:
                    out.append((p, lo, hi))
        runs, size = out, size * len(par)
    return runs


def _word_parity(par, word):
    return sum(par[i] for i in word) % 2


def _grid(row, col, n1, step1, n2, step2):
    """Runs covering (row, col) + a step1 + b step2 for a < n1, b < n2; each
    step is (drow, dcol) and the longer side becomes the run."""
    if n1 < n2:
        n1, step1, n2, step2 = n2, step2, n1, step1
    (dr, dc), (er, ec) = step1, step2
    return [(row + b * er, col + b * ec, n1, dr, dc) for b in range(n2)]


def lie_runs(algebra, op, n):
    """L_op on weight n in run form (the per-key form is lie_terms).

    Interior slot j of arity l: the source digits are (a0, head | seg | tail)
    and the target digits (a0, head | out | tail), so each prefix (a0, head)
    carries a run over the tail; op is evaluated once per (l, seg).  Wrap at
    rotation point i: the window word[i:] + (a0,) + word[:m] is evaluated
    once, and the kept word[m:i] is a run, strided by r^(n-i) in the source.
    """
    dim, r = algebra.dim, algebra.dim - 1
    red = algebra.reduced_indices
    full, par = _digit_parities(algebra)
    for l in op.arities():
        if l > n + 1:
            continue
        segs = [(s, out, c) for s, seg in enumerate(itertools.product(red, repeat=l))
                for out, c in op.eval(l, seg).items() if out] if l <= n else []
        for j in range(n - l + 1):
            tail = r ** (n - j - l)
            step = (r * tail, r ** l * tail)
            for mu, lo, hi in _parity_runs([full] + [par] * j):
                sgn = _interior_sign(op.sdeg, mu)
                for s, out, c in segs:
                    yield n - l + 1, sgn * c, _grid(
                        lo * step[0] + (out - 1) * tail, lo * step[1] + s * tail,
                        hi - lo, step, tail, (1, 1))
        for i in range(n + 1 - l, n + 1):
            m = l - (n - i) - 1
            kept = _parity_runs([par] * (i - m))
            stride = r ** (n - i)
            for z, zw in enumerate(itertools.product(red, repeat=n - i)):
                rest = _word_parity(full, zw)
                for a0 in range(dim):
                    for a, aw in enumerate(itertools.product(red, repeat=m)):
                        val = op.eval(l, zw + (a0,) + aw)
                        if not val:
                            continue
                        col = a0 * r ** n + a * r ** (n - m) + z
                        mu0 = full[a0] + _word_parity(full, aw)
                        for eps, lo, hi in kept:
                            sgn = _rotation_sign(mu0 + eps, rest)
                            for out, c in val.items():
                                yield n - l + 1, sgn * c, [(
                                    out * r ** (i - m) + lo, col + lo * stride,
                                    hi - lo, 1, stride)]


def connes_runs(algebra, n):
    """B on weight n in run form (the per-key form is connes_terms): the i-th
    rotation sends the digits (a0, A | Z) to (0, Z | a0 - 1 | A), a run over
    A and over Z for each a0 of the complement."""
    r = algebra.dim - 1
    full, par = _digit_parities(algebra)
    for i in range(n + 1):
        heads, tails = _parity_runs([par] * i), _parity_runs([par] * (n - i))
        for a0 in algebra.reduced_indices:
            for eps, a_lo, a_hi in heads:
                for rest, z_lo, z_hi in tails:
                    yield n + 1, _rotation_sign(eps + full[a0], rest), _grid(
                        z_lo * r ** (i + 1) + (a0 - 1) * r ** i + a_lo,
                        a0 * r ** n + a_lo * r ** (n - i) + z_lo,
                        a_hi - a_lo, (1, r ** (n - i)), z_hi - z_lo, (r ** (i + 1), 1))


def contraction_runs(algebra, cochain, n):
    """I_P on weight n in run form (the per-key form is contraction_terms):
    (a0, S | T) goes to (k, T) for each k of a0 P(S), a run over T."""
    p = _contraction_arity(cochain)
    if p is None or p > n:
        return
    r = algebra.dim - 1
    tail = r ** (n - p)
    for a0 in range(algebra.dim):
        sgn = _cap_sign(cochain.sdeg, algebra.degrees[a0])
        for s, seg in enumerate(itertools.product(algebra.reduced_indices, repeat=p)):
            coeffs = {}
            for out, c in cochain.eval(p, seg).items():
                for k, m in algebra.product(a0, out).items():
                    chain_add(coeffs, k, sgn * c * m)
            for k, v in coeffs.items():
                yield n - p, v, [(k * tail, a0 * r ** n + s * tail, tail, 1, 1)]


def term_matrix(runs, shape, col_offsets, row_offsets):
    """SparseMatrix of an operator in run form: the weight-n chains are the
    columns from col_offsets[n] on, for each n in col_offsets, and a target
    weight m the rows from row_offsets[m] on.

    Each unit is accumulated at once: its entries are made by slicing one
    list of the indices (so the entries share their index objects), and
    only those that meet an earlier entry go through chain_add, so every
    entry sums its terms in the order lie_terms, connes_terms and
    contraction_terms give them."""
    mat = SparseMatrix(*shape)
    acc = mat.entries
    ints = list(range(max(shape)))
    for n, co in col_offsets.items():
        for target, value, unit in runs(n):
            if not value:
                continue
            ro = row_offsets[target]
            new = dict.fromkeys(itertools.chain.from_iterable(
                zip(ints[ro + i:ro + i + k * di:di], ints[co + j:co + j + k * dj:dj])
                for i, j, k, di, dj in unit), value)
            for key in new.keys() & acc.keys():
                chain_add(acc, key, new.pop(key))
            acc.update(new)
    return mat


def boundary_matrices(algebra, spaces, struct=None):
    """d_n: C_n -> C_{n-1} for n = 1..len(spaces)-1 (index 0 is None)."""
    runs = partial(lie_runs, algebra, struct or DgStructure(algebra))
    return [None] + [term_matrix(runs, (len(spaces[n - 1]), len(spaces[n])),
                                 {n: 0}, {n - 1: 0})
                     for n in range(1, len(spaces))]


def connes_matrices(algebra, spaces):
    """B_n: C_n -> C_{n+1} for n = 0..len(spaces)-2."""
    runs = partial(connes_runs, algebra)
    return [term_matrix(runs, (len(spaces[n + 1]), len(spaces[n])), {n: 0}, {n + 1: 0})
            for n in range(len(spaces) - 1)]


class ChainBasis:
    """The chain spaces of bar weight <= max_weight laid end to end: weight n
    holds the positions offsets[n]..offsets[n+1]-1, in chain_spaces order."""

    def __init__(self, algebra, max_weight):
        self.algebra = algebra
        self.max_weight = max_weight
        spaces = chain_spaces(algebra, max_weight)
        self.offsets = list(itertools.accumulate(map(len, spaces), initial=0))
        self.keys = [key for space in spaces for key in space]
        self.index = {k: i for i, k in enumerate(self.keys)}

    def __len__(self):
        return len(self.keys)


# -- the complex relative to the vertex idempotents ---------------------------------
# For a PeirceBasis whose idempotents span E, the normalized complex
# A (x)_{E^e} (A/E)^{(x)_E n} computes HH (Loday, Cyclic Homology, 1.2.13).
# Its chains are the cyclic walks (a0; a1..an): each a_k lies in one
# e_x A e_y, consecutive letters compose, a_n composes with a0, and no bar
# letter lies in E.  Its d is lie_terms of the product on the PeirceBasis:
# a product of composable elements stays in one e_x A e_y, so every term is a
# walk again, and an output in E dies in a bar slot.


def relative_chain_spaces(peirce, max_weight):
    """Index maps {(a0, word): j} per weight 0..max_weight of the E-relative
    normalized complex of the PeirceBasis, keys in index order: by a0, then
    by word.  The walks of weight n + 1 extend those of weight n by one
    letter, so only words whose letters compose are ever made."""
    step = {}  # x -> [(b, y)]: the letters b outside E with e_x b e_y = b
    for b, (x, y) in enumerate(peirce.ends):
        if b not in peirce.ground:
            step.setdefault(x, []).append((b, y))
    walks = [((), x, x) for x in sorted(peirce.ground)]  # (word, start, end)
    spaces = []
    for _ in range(max_weight + 1):
        by_ends = {}
        for word, x, y in walks:
            by_ends.setdefault((x, y), []).append(word)
        # a0 in e_x A e_y closes the words that start at y and end at x
        keys = ((a0, word) for a0, (x, y) in enumerate(peirce.ends)
                for word in by_ends.get((y, x), ()))
        spaces.append({key: j for j, key in enumerate(keys)})
        walks = sorted((word + (b,), x, z) for word, x, y in walks
                       for b, z in step.get(y, ()))
    return spaces


def relative_boundary_matrices(peirce, spaces):
    """d_n on the relative chain spaces for n = 1..len(spaces)-1 (index 0 is
    None): one lie_terms call per column, each term found by its key."""
    struct = DgStructure(peirce)
    mats = [None]
    for n in range(1, len(spaces)):
        index, m = spaces[n - 1], SparseMatrix(len(spaces[n - 1]), len(spaces[n]))
        for j, (a0, word) in enumerate(spaces[n]):
            lie_terms(peirce, struct, a0, word,
                      lambda key, c: m.add_to(index[key], j, c))
        mats.append(m)
    return mats


# -- homology -----------------------------------------------------------------------


@dataclass
class GradedDims:
    """Dimensions per degree with homology representatives.

    spots and basis_keys are over the chain basis of the complex named by
    chain_model: {"kind": "flat"}, the normalized complex, or {"kind":
    "relative", "idempotents": r}, the complex relative to r idempotents,
    whose keys are walks over the algebra's peirce() indices."""

    dims: dict = field(default_factory=dict)
    spots: dict = field(default_factory=dict)  # degree -> SubquotientBasis
    basis_keys: dict = field(default_factory=dict)  # degree -> list of keys
    chain_model: dict = field(default_factory=lambda: {"kind": "flat"})

    def __getitem__(self, n):
        return self.dims[n]

    def as_tuple(self, degrees):
        return tuple(self.dims.get(n, 0) for n in degrees)


def _weight_graded_boundary(algebra, struct, max_weight):
    """Chain spaces and boundary matrices per weight up to max_weight."""
    spaces = chain_spaces(algebra, max_weight)
    return spaces, boundary_matrices(algebra, spaces, struct)


def _graded_homology(degrees, walk_maps, basis_keys):
    """GradedDims at each of the sorted degrees: 0 below degree 0, else one
    homology_walk per run a..b of consecutive degrees.  walk_maps(a, b) gives
    the degrees of the walk's spots, in order, and its maps."""
    spots = {}
    nonneg = sorted({n for n in degrees if n >= 0})
    for _, run in itertools.groupby(enumerate(nonneg), lambda p: p[1] - p[0]):
        run = [n for _, n in run]
        spot_degrees, maps = walk_maps(run[0], run[-1])
        spots.update(zip(spot_degrees, homology_walk(maps)))
    out = GradedDims()
    for n in degrees:
        if n < 0:
            out.dims[n] = 0
            continue
        out.dims[n], out.spots[n], out.basis_keys[n] = spots[n].dim, spots[n], basis_keys(n)
    return out


def _chain_homology(degrees, spaces, mats):
    """GradedDims of the chain complex with the given spaces and d_n = mats[n]."""
    def walk_maps(a, b):  # C_{b+1} -> C_b -> ... -> C_a -> C_{a-1}, C_{-1} = 0
        return range(b, a - 1, -1), [mats[n] if n else SparseMatrix(0, len(spaces[0]))
                                     for n in range(b + 1, a - 1, -1)]

    return _graded_homology(degrees, walk_maps, lambda n: list(spaces[n]))


def hochschild_homology(algebra, degree_range):
    """Exact HH dims with representatives; algebra must sit in degree 0.

    An algebra carrying idempotents runs on the complex relative to their
    span E (the builders attach them to M_n and to path algebras), and its
    spots and basis_keys name relative chains, walks (a0, word) over
    algebra.peirce() indices.  Any other algebra runs on the flat complex,
    flat_hochschild_homology, which callers that need representatives on
    flat chains call by name.
    """
    if algebra.idempotents is None:
        return flat_hochschild_homology(algebra, degree_range)
    if not algebra.is_degree_zero():
        raise ValueError("homology requires a degree-0 algebra")
    degrees = sorted(degree_range)
    peirce = algebra.peirce()
    spaces = relative_chain_spaces(peirce, degrees[-1] + 1)
    out = _chain_homology(degrees, spaces, relative_boundary_matrices(peirce, spaces))
    out.chain_model = {"kind": "relative", "idempotents": len(peirce.ground)}
    return out


def flat_hochschild_homology(algebra, degree_range):
    """Exact HH dims with representatives on the flat normalized complex,
    keys (a0, word) over the algebra's basis; algebra must sit in degree 0."""
    if not algebra.is_degree_zero():
        raise ValueError("homology requires a degree-0 algebra")
    degrees = sorted(degree_range)
    spaces, mats = _weight_graded_boundary(algebra, DgStructure(algebra), degrees[-1] + 1)
    return _chain_homology(degrees, spaces, mats)


class CochainBasis:
    """Indexed basis of normalized cochains of one arity: (w, t) sits at
    dim . (mixed-radix index of w, as in chain_spaces) + t."""

    def __init__(self, algebra, arity):
        self.algebra = algebra
        self.arity = arity
        red = list(algebra.reduced_indices)
        self.keys = [
            (w, t)
            for w in itertools.product(red, repeat=arity)
            for t in range(algebra.dim)
        ]
        self.index = {k: i for i, k in enumerate(self.keys)}

    def __len__(self):
        return len(self.keys)

    def cochain_of(self, vec, arity_bound=None):
        comps = {}
        for i, c in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
            if not c:
                continue
            w, t = self.keys[i]
            comps.setdefault(self.arity, {}).setdefault(w, {})[t] = c
        sdeg = self.arity - 1  # degree-0 algebras
        return Cochain(self.algebra, comps, sdeg, arity_bound)


def _cochain_diff_matrix(algebra, arity):
    """Matrix of [b, -] from arity l to arity l+1 (degree-0 algebras), built
    once per (algebra, arity) and kept on the algebra; callers only read it."""
    memo = getattr(algebra, "_cochain_diff_memo", None)
    if memo is None:
        memo = algebra._cochain_diff_memo = {}
    if arity not in memo:
        memo[arity] = _assemble_cochain_diff(algebra, arity)
    return memo[arity]


def _assemble_cochain_diff(algebra, arity):
    """The matrix of _cochain_diff_matrix, one cochain_differential per column."""
    src = CochainBasis(algebra, arity)
    dst = CochainBasis(algebra, arity + 1)
    m = SparseMatrix(len(dst), len(src))
    dim, r = algebra.dim, algebra.dim - 1
    for j, (w, t) in enumerate(src.keys):
        p = Cochain(algebra, {arity: {w: {t: 1}}}, arity - 1, arity + 2)
        dp = cochain_differential(algebra, p, arity + 1)
        comp = dp.components.get(arity + 1, {})
        for w2, out in comp.items():
            row = dim * _word_index(w2, r)
            for t2, c in out.items():
                m.add_to(row + t2, j, c)
    return m


def hochschild_cohomology(algebra, degree_range, arity_bound=None):
    """Exact HH^n dims (normalized complex); algebra must sit in degree 0."""
    if not algebra.is_degree_zero():
        raise ValueError("cohomology requires a degree-0 algebra")
    degrees = sorted(degree_range)
    if arity_bound is not None and arity_bound < degrees[-1] + 1:
        raise ArityBoundExceeded("arity_bound must be at least max degree + 1")

    def walk_maps(a, b):  # C^{a-1} -> C^a -> ... -> C^b -> C^{b+1}, C^{-1} = 0
        return range(a, b + 1), [_cochain_diff_matrix(algebra, l) if l >= 0
                                 else SparseMatrix(len(CochainBasis(algebra, 0)), 0)
                                 for l in range(a - 1, b + 1)]

    return _graded_homology(degrees, walk_maps, lambda n: CochainBasis(algebra, n).keys)


def cocycle_representatives(algebra, n, arity_bound=None):
    """HH^n classes as Cochain objects (one per homology generator)."""
    hh = hochschild_cohomology(algebra, [n], arity_bound)
    cb = CochainBasis(algebra, n)
    return [cb.cochain_of(rep, arity_bound) for rep in hh.spots[n].homology_reps]
