"""Normalized Hochschild chains/cochains and their operators.

Representation
  * a chain is a dict {(a0, word): coeff} where a0 is an A-basis index and
    word is a tuple of indices from the unit complement (basis[1:]); the
    unit never occupies a bar slot (normalization);
  * a cochain of arity l is stored at the shifted level: a map sending an
    l-tuple of indices outside the ground to a coefficient vector over the
    full basis.  The structure map of the algebra is one such cochain, b =
    structure_as_cochain(algebra), read off the structure constants with
    the shift sign  b_n[a_1|..|a_n] = (-1)^{sum (n-i)|a_i|} m_n(a_1,..,a_n),
    so b_1 = d and b_2[i|j] = (-1)^{|i|} ij; it is stored on all words,
    units included.  A deformation by an MC element x is b.add(x), and
    every chain differential is the Lie action L_b of its b; the cochain
    differential is [b, -], and b o b = 0 says the algebra is valid.

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

Chain models
  * a chain model is an algebra in a basis adapted to a separable ground E,
    with ground, the basis indices spanning E, and ends, where ends[i] =
    (x, y) says that basis_i lies in e_x A e_y.  Its chains are the
    normalized complex A (x)_{E^e} (A/E)^{(x)_E n}, which computes HH, and
    with B it is a mixed complex with the HC, HN and HP of A (Loday, Cyclic
    Homology, 1.2.13); its cochains Hom_{E^e}((A/E)^{(x)_E l}, A) compute
    HH^* (Gerstenhaber-Schack 1986; Cibils 2000).  The flat complex is the case E = k: a DgAlgebra has
    ground {0} and every element in 1 A 1.  The PeirceBasis of an algebra's
    idempotents is the model relative to their span E;
  * an element of the ground dies in a bar slot (lie_terms, lie_runs) and a
    normalized cochain vanishes on it (Cochain, _brace_into), an a0 in it
    dies under B, and in front of each rotation of B stands the ground
    element the rotated walk starts at: the unit, or an e_x (connes_terms);
  * chain_model_of is the routing rule of the operations that need
    cochains or a reduction: hochschild_cohomology, HP, the spectral
    sequence and the period layer take the PeirceBasis of an algebra with
    idempotents and the algebra itself otherwise.  HH, HC, HN and the SBI
    check route by homology_model_of, which sends the table of Q[x]/x^N
    (basis 1, x, .., x^{N-1}) to its morse.MorseModel, one per algebra, the
    Morse complex of an acyclic matching with N critical cells per weight,
    and every other algebra by chain_model_of.  The flat
    model, the algebra, is read explicitly by
    flat_hochschild_homology, cocycle_representatives, the obstruction
    classes, the period layer and the calculus, since L_x and I_x of a flat
    cochain x act on flat chains.

Indexing and assembly
  * _walks is the one walk enumerator: per weight, the words from e_x to
    e_y whose letters compose by their ends, none of them in the ground.  chain_spaces closes a walk
    cyclically, by an a0 in e_y A e_x, into the one chain-space index: by
    a0, then by word.  CochainBasis closes it in parallel, by a t in
    e_x A e_y, into the one cochain index: by word, then by t.  On a
    DgAlgebra both orders are mixed radix: with r = dim - 1 the chain
    (a0, w) of weight n sits at a0 r^n + sum_k (w_k - 1) r^(n-1-k), and the
    cochain (w, t) at dim . (that sum) + t.  ChainBasis is the chain spaces
    laid end to end, weight n at positions offsets[n]..offsets[n+1]-1;
  * the operators L_P, B and I_P are the per-key generators lie_terms,
    connes_terms and contraction_terms, which act on chain dicts and take
    their signs from _interior_sign, _rotation_sign and _cap_sign; only
    L_P also has a run form, lie_runs, whose runs of rows and columns are
    computed from the mixed-radix index with no per-term key.  Its index is
    the per-word digit arithmetic of _digits, _interior_grid (a slot, over
    the parity runs of (a0 | head)) and _wrap_runs (a split of a stored
    word), which the Lie tables of calculus.OperatorSpace read too;
  * _weight_graded_boundary is the one builder of a model's complex (chain
    spaces, d, and only when asked the retract that carries B: the identity
    with the B matrices, or the Morse SDR), read by HH, HC and the
    reduction.  A matrix is assembled per key, one generator call per
    column (_keyed_matrix), on every model: B (connes_matrices), d on a
    PeirceBasis, whose walks are found by key, and on a MorseModel, and the
    d, B and I_P of calculus.OperatorSpace.  The one exception is d on a
    DgAlgebra, term_matrix of lie_runs in boundary_matrices;
  * the cochain differential [b, -] of each (model, arity) is assembled
    once, one b bracketed with each column read through the CochainBasis
    coordinate map, and its HH^l spot is eliminated once (_cohomology_spot);
    both are kept on the model by exactlin.kept, and every reader of HH^*
    reads that spot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .algebra import DgAlgebra, require_degree_zero
from .exactlin import IdentityRetract, SparseMatrix, chain_add, homology_walk, kept
from .morse import MorseModel, MorseRetract


class ArityBoundExceeded(Exception):
    pass


# -- cochains ------------------------------------------------------------------


class Cochain:
    """Element of the shifted normalized cochain complex, arity-bounded.

    components[l][word][out] = coeff; word entries lie outside
    algebra.ground (the complement of the unit, or of the idempotents of a
    PeirceBasis), out ranges over the full basis.  sdeg is the degree as a
    map of shifted spaces; for an algebra in degree 0 an arity-l component
    has sdeg l - 1.
    """

    __slots__ = ("algebra", "components", "sdeg", "arity_bound", "normalized")

    def __init__(self, algebra, components, sdeg, arity_bound=None, normalized=True):
        self.algebra = algebra
        self.normalized = normalized
        self.components = {}
        ground = algebra.ground
        for l, comp in components.items():
            clean = {}
            for word, out in comp.items():
                vec = {k: v for k, v in out.items() if v}
                if vec:
                    if normalized and not ground.isdisjoint(word):
                        raise ValueError("normalized cochains vanish on the ground")
                    clean[tuple(word)] = vec
            if clean:
                self.components[l] = clean
        self.sdeg = sdeg
        self.arity_bound = arity_bound

    def arities(self):
        return sorted(self.components)

    def eval(self, l, word):
        """Value on a word of full-basis indices (zero if a slot is in the ground)."""
        comp = self.components.get(l)
        if not comp:
            return {}
        return comp.get(tuple(word), {})

    def is_zero(self):
        return not self.components

    def entries(self):
        """((l, word, t), value) for every stored value."""
        for l, comp in self.components.items():
            for w, out in comp.items():
                for t, v in out.items():
                    yield (l, w, t), v

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
                       _bound(self.arity_bound, other.arity_bound),
                       normalized=self.normalized and other.normalized)

    def scaled(self, c):
        return self.map_coefficients(lambda v: c * v)

    def __repr__(self):
        parts = [f"arity {l}: {len(c)} words" for l, c in sorted(self.components.items())]
        return f"Cochain(sdeg={self.sdeg}; " + ", ".join(parts) + ")"


def _bound(*bounds):
    """The first arity bound that is set, an explicit 0 included; None if
    none is.  Every cochain operation picks its bound by this rule."""
    return next((b for b in bounds if b is not None), None)


def shifted_degree(algebra, word, t):
    """sd of the basis cochain sending word to basis_t: sd(t) - sum sd(a_i)."""
    return algebra.degrees[t] - 1 - sum(algebra.degrees[i] - 1 for i in word)


def basis_cochains(algebra, arity_bound, sdeg=None):
    """All (word, out) basis cochains with arity <= arity_bound, by arity,
    then in CochainBasis order.

    For a degree-0 algebra each arity-l basis cochain has sdeg l - 1; for
    graded algebras the sdeg is computed per (word, out) pair, and only
    those of the given sdeg are kept if it is given.
    """
    out = []
    for l in range(arity_bound + 1):
        for word, t in CochainBasis(algebra, l).keys:
            s = shifted_degree(algebra, word, t)
            if sdeg is None or s == sdeg:
                out.append(Cochain(algebra, {l: {word: {t: 1}}}, s, arity_bound))
    return out


# -- signs -----------------------------------------------------------------------
# The sign rules of the chain operators, used by the per-key term generators
# and by the run form of L_P alike.  Every argument enters only through its
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
    bar slot.
    """
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
            head, tail = word[:j], word[j + l:]
            for out, c in val.items():
                if out not in ground:
                    out_terms((a0, head + (out,) + tail), sgn * c)
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
                out_terms((out, rest), sgn * c)


def connes_terms(algebra, a0, word, out_terms):
    """B(a0 x word): all cyclic rotations with the ground in front.

    An a0 in algebra.ground dies (its class in A/ground is zero).  In front
    of each rotation stands the one ground element x with x times the
    rotation's first letter nonzero: the unit of a DgAlgebra, the e_x of a
    PeirceBasis at which the rotated walk starts."""
    if a0 in algebra.ground:
        return
    n = len(word)
    eps = _prefix_eps(algebra, word)
    sd0 = algebra.degrees[a0] - 1
    for i in range(n + 1):
        sgn = _rotation_sign(eps[i] + sd0, eps[n] - eps[i])
        rotated = word[i:] + (a0,) + word[:i]
        front = next(x for x in algebra.ground if algebra.product(x, rotated[0]))
        out_terms((front, rotated), sgn)


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


def hochschild_boundary(b, chain):
    """The chain differential L_b of a structure cochain b: the algebra's
    structure_as_cochain, or b + x for a deformation."""
    return lie_action(b.algebra, b, chain)


def connes_B(algebra, chain):
    return apply_terms(partial(connes_terms, algebra), chain)


def lie_action(algebra, cochain, chain):
    return apply_terms(partial(lie_terms, algebra, cochain), chain)


def contraction(algebra, cochain, chain):
    return apply_terms(partial(contraction_terms, algebra, cochain), chain)


# -- cochain-level operations ------------------------------------------------------


def _brace_index(p):
    """p as _brace_into reads it, made once by a caller that braces p often:
    (parity of sd(p), [(l, word, [(t, coeff)])] over its words of arity
    l > 0, fed as the outer factor, {arity: {a: [(u, p[u] at a)]}} over its
    words u with no letter in algebra.ground, read when p is inserted)."""
    ground, by_letter = p.algebra.ground, {}
    for v, comp in p.components.items():
        letters = by_letter[v] = {}
        for u, out in comp.items():
            for a, c in out.items() if ground.isdisjoint(u) else ():
                letters.setdefault(a, []).append((u, c))
    return (p.sdeg % 2, [(l, w, list(out.items())) for l, comp in p.components.items()
                         if l for w, out in comp.items()], by_letter)


def _brace_into(comps, algebra, ip, iq, scale, arity_bound):
    """Add scale . p o q to comps, {arity: {word: {t: coeff}}}, in place,
    from the _brace_index ip of p and iq of q: the one brace.

    (p o q)[a_1|..] = sum_i (-1)^{sd(q) eps_i} p[a_1|..|q[u]|..].  Only the
    slots p is stored on are fed, so a ground component of q's value
    reaches p only when p is stored on full words (the structure cochain b).
    The result is normalized: a word with a letter in algebra.ground belongs
    to a ground input and is dropped (it only arises when a factor is b).
    A slot of p meets only the words of q whose value has a component at
    its letter; the terms are added in the order of a loop over (arity of
    q, word of p, slot, word of q).  Raises ArityBoundExceeded if an arity
    of p o q exceeds the bound.
    """
    ground, degrees = algebra.ground, algebra.degrees
    odd, items_p = iq[0], ip[1]
    if arity_bound is not None:
        for v in iq[2]:
            for l in ip[2]:
                if l and l + v - 1 > arity_bound:
                    raise ArityBoundExceeded(
                        f"arity {l + v - 1} exceeds bound {arity_bound}")
    for v, by_letter in iq[2].items():
        for l, w, outp in items_p:
            eps = 0
            for i, a in enumerate(w):
                if a in by_letter:
                    head, tail = w[:i], w[i + 1:]
                    if ground.isdisjoint(head) and ground.isdisjoint(tail):
                        sgn = -scale if odd and eps % 2 else scale
                        vec_of = comps.setdefault(l + v - 1, {})
                        for u, c_ins in by_letter[a]:
                            vec = vec_of.setdefault(head + u + tail, {})
                            for t, cp in outp:
                                chain_add(vec, t, sgn * c_ins * cp)
                eps += degrees[a] - 1


def brace_compose(p, q, arity_bound=None):
    """The insertion composition p o q (sum over one slot of p fed by q),
    a normalized cochain: see _brace_into."""
    bound = _bound(arity_bound, p.arity_bound, q.arity_bound)
    comps = {}
    _brace_into(comps, p.algebra, _brace_index(p), _brace_index(q), 1, bound)
    return Cochain(p.algebra, comps, p.sdeg + q.sdeg, bound)


def _bracket_components(algebra, ip, iq, arity_bound):
    """{arity: {word: {t: coeff}}} of [p, q] = p o q - (-1)^{sd(p) sd(q)} q o p
    from the _brace_index of each factor, both braces added into one dict
    and held to the bound."""
    comps = {}
    _brace_into(comps, algebra, ip, iq, 1, arity_bound)
    _brace_into(comps, algebra, iq, ip, 1 if ip[0] and iq[0] else -1, arity_bound)
    return comps


def gerstenhaber_bracket(p, q, arity_bound=None):
    """[p, q] as a cochain that carries the bound both braces check."""
    bound = _bound(arity_bound, p.arity_bound, q.arity_bound)
    comps = _bracket_components(p.algebra, _brace_index(p), _brace_index(q), bound)
    return Cochain(p.algebra, comps, p.sdeg + q.sdeg, bound)


def structure_as_cochain(algebra, arity_bound=None):
    """b of the algebra: b_1 = d and b_2[i|j] = (-1)^{|i|} ij, read off
    algebra.diff and algebra.mult on all basis words (units included, so
    that insertions of unit-valued outputs are seen when b is the outer
    factor of a brace)."""
    sign = [-1 if d % 2 else 1 for d in algebra.degrees]
    comps = {1: {(j,): col for j, col in sorted(algebra.diff.items())},
             2: {(i, j): {k: sign[i] * v for k, v in col.items()}
                 for (i, j), col in sorted(algebra.mult.items())}}
    return Cochain(algebra, comps, 1, arity_bound, normalized=False)


def cochain_differential(algebra, p, arity_bound=None):
    """d p = [b, p] on normalized cochains, b the algebra's structure cochain."""
    bound = _bound(arity_bound, p.arity_bound, max(p.arities(), default=0) + 1)
    return gerstenhaber_bracket(structure_as_cochain(algebra), p, bound)


# -- finite bases and matrices ------------------------------------------------------


def _walks(model, max_weight):
    """The walks of the chain model per weight 0..max_weight, each weight a
    list of (word, x, y): the word runs from e_x to e_y, each letter lying in
    the e_u A e_v of its model.ends, consecutive letters composing and no
    letter in model.ground.  The walks of weight n + 1 extend those of
    weight n by one letter, so only words whose letters compose are ever
    made; they are listed by x, and the words of one x in increasing order.
    chain_spaces closes them cyclically, CochainBasis in parallel."""
    step = {}  # x -> [(b, y)]: the letters b outside the ground with e_x b e_y = b
    for b, (x, y) in enumerate(model.ends):
        if b not in model.ground:
            step.setdefault(x, []).append((b, y))
    walks = [((), x, x) for x in sorted(model.ground)]
    for n in range(max_weight + 1):
        if n:
            walks = [(word + (b,), x, z) for word, x, y in walks
                     for b, z in step.get(y, ())]
        yield walks


def chain_spaces(model, max_weight):
    """Index maps {(a0, word): j} per weight 0..max_weight of the chain
    model, keys in index order: by a0, then by word.

    The keys are the cyclic walks: a walk of _walks from e_y to e_x closed
    by an a0 in e_x A e_y.  On a DgAlgebra every word is a walk and the index
    is mixed radix: with r = dim - 1, the key (a0, w) of weight n sits at
    a0 r^n + sum_k (w_k - 1) r^(n-1-k).  For r = 0 the weights above 0 are
    empty.
    """
    spaces = []
    for walks in _walks(model, max_weight):
        by_ends = {}
        for word, x, y in walks:
            by_ends.setdefault((x, y), []).append(word)
        keys = ((a0, word) for a0, (x, y) in enumerate(model.ends)
                for word in by_ends.get((y, x), ()))
        spaces.append({key: j for j, key in enumerate(keys)})
    return spaces


# -- run-form assembly ---------------------------------------------------------------
# An operator in run form is a generator runs(n) of the units of its matrix on
# the chains of weight n: (value, [(row, col, k, drow, dcol)]), each run
# standing for the entries (row + t drow, col + t dcol), t < k, all carrying
# value, all distinct within the unit.  Rows and columns are chain_spaces
# indices, so a term family whose digits run over a range is a run: the tail
# of an interior slot of L_P, the kept word of a wrap window.  A run stops
# where its sign changes.


def _digit_parities(algebra):
    """sd(a) mod 2 for a over the full basis and over the complement digits."""
    full = tuple((d - 1) % 2 for d in algebra.degrees)
    return full, full[1:]


@lru_cache(maxsize=1024)
def _parity_runs(positions):
    """((parity, start, stop), ...): the maximal runs of constant digit-sum
    parity over the mixed-radix numbers whose digits, most significant
    first, have the parities positions[0], positions[1], ...  The per-word
    helpers ask for the same layouts word after word, so they are cached."""
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
    return tuple(runs)


def _word_parity(par, word):
    return sum(par[i] for i in word) % 2


def _grid(row, col, n1, step1, n2, step2):
    """Runs covering (row, col) + a step1 + b step2 for a < n1, b < n2; each
    step is (drow, dcol) and the longer side becomes the run."""
    if n1 < n2:
        n1, step1, n2, step2 = n2, step2, n1, step1
    (dr, dc), (er, ec) = step1, step2
    return [(row + b * er, col + b * ec, n1, dr, dc) for b in range(n2)]


def _digits(algebra, word):
    """The mixed-radix index sum_k (w_k - 1) r^(len-1-k), r = dim - 1, of a
    bar word, as in chain_spaces; None if a letter lies in the ground, since
    no chain carries the word in its bar slots."""
    if not algebra.ground.isdisjoint(word):
        return None
    v, r = 0, algebra.dim - 1
    for a in word:
        v = v * r + a - 1
    return v


def _interior_grid(algebra, sdP, n, l, j):
    """Slot j of L_P, P of arity l and shifted degree sdP, on weight n.  With
    t = r^(n-j-l), the chain (a0, head | seg | tail) sits at p r^l t + s t + u
    and its term (a0, head | out | tail) at p r t + (out - 1) t + u, where p,
    s and u are the indices of (a0 | head), seg and tail.  Returns (t,
    [(sign, lo, hi)]): the prefixes lo <= p < hi carry one sign, (-1)^{sd(P)
    mu_j}, mu_j the digit-sum parity of (a0 | head)."""
    full, par = _digit_parities(algebra)
    return (algebra.dim - 1) ** (n - j - l), [
        (_interior_sign(sdP, mu), lo, hi) for mu, lo, hi in _parity_runs((full,) + (par,) * j)]


def _wrap_runs(algebra, w, k, n):
    """The wrap term of L_P at the split w = zw + (a0,) + aw of an arity-l
    word, len(zw) = k, on weight n: the chain (a0, aw | kept | zw) sits at
    col + e r^k and its term (out, kept) at out r^(n-l+1) + e, where e is the
    index of kept, col = a0 r^n + a r^(n-len(aw)) + z and a, z are those of
    aw and zw.  Returns (col, [(sign, lo, hi)]): the kept words lo <= e < hi
    carry one sign, (-1)^{mu_i (mu_n - mu_i)}; no runs if aw or zw has a
    letter in the ground."""
    zw, a0, aw = w[:k], w[k], w[k + 1:]
    a, z = _digits(algebra, aw), _digits(algebra, zw)
    if a is None or z is None:
        return None, []
    r = algebra.dim - 1
    full, par = _digit_parities(algebra)
    mu0, rest = full[a0] + _word_parity(full, aw), _word_parity(full, zw)
    return a0 * r ** n + a * r ** (n - len(aw)) + z, [
        (_rotation_sign(mu0 + eps, rest), lo, hi)
        for eps, lo, hi in _parity_runs((par,) * (n - len(w) + 1))]


def lie_runs(algebra, op, n):
    """L_op on weight n in run form (the per-key form is lie_terms), op a
    Cochain read only on its stored words, in sorted order.  The rows of
    arity l index weight n - l + 1, so term_matrix reads an op of one arity,
    such as b of an algebra with d = 0.

    Interior slot j of arity l (_interior_grid): each prefix (a0 | head)
    carries a run over the tail for each stored seg and output.  Wrap at
    the split w = zw + (a0,) + aw of a stored word (_wrap_runs): the kept
    word is a run, strided by r^len(zw) in the source; the splits go by
    len(zw) downward, so the rotation point n - len(zw) goes upward.
    """
    r = algebra.dim - 1
    for l in op.arities():
        if l > n + 1:
            continue
        words = sorted(op.components[l].items())
        segs = [(s, out, c) for seg, val in words
                if (s := _digits(algebra, seg)) is not None
                for out, c in val.items() if out not in algebra.ground]
        for j in range(n - l + 1):
            tail, runs = _interior_grid(algebra, op.sdeg, n, l, j)
            step = (r * tail, r ** l * tail)
            for sgn, lo, hi in runs:
                for s, out, c in segs:
                    yield sgn * c, _grid(
                        lo * step[0] + (out - 1) * tail, lo * step[1] + s * tail,
                        hi - lo, step, tail, (1, 1))
        for k in range(l - 1, -1, -1):
            stride = r ** k
            for w, val in words:
                col, runs = _wrap_runs(algebra, w, k, n)
                for sgn, lo, hi in runs:
                    for out, c in val.items():
                        yield sgn * c, [(
                            out * r ** (n - l + 1) + lo, col + lo * stride,
                            hi - lo, 1, stride)]


def term_matrix(runs, n, shape):
    """SparseMatrix, of the given shape, of an operator in run form on the
    chains of weight n, its rows the chains of the one weight it lands in.

    Each unit is accumulated at once: its entries are made by slicing one
    list of the indices (so the entries share their index objects), and
    only those that meet an earlier entry go through chain_add, so every
    entry sums its terms in the order lie_terms gives them."""
    mat = SparseMatrix(*shape)
    acc = mat.entries
    ints = list(range(max(shape)))
    for value, unit in runs(n):
        if not value:
            continue
        new = dict.fromkeys(itertools.chain.from_iterable(
            zip(ints[i:i + k * di:di], ints[j:j + k * dj:dj])
            for i, j, k, di, dj in unit), value)
        for key in new.keys() & acc.keys():
            chain_add(acc, key, new.pop(key))
        acc.update(new)
    return mat


def _keyed_matrix(terms, src, dst):
    """The matrix from the chains of the index src to those of dst of a
    per-key generator terms(a0, word, out_terms): one call per column, each
    term found by its key."""
    m = SparseMatrix(len(dst), len(src))
    for j, (a0, word) in enumerate(src):
        terms(a0, word, lambda key, c: m.add_to(dst[key], j, c))
    return m


def _weight_matrices(spaces, terms, weights, shift):
    """The matrices C_n -> C_{n+shift}, n in weights, of an operator given
    per key, terms(a0, word, out_terms), on the chain spaces of any model."""
    return [_keyed_matrix(terms, spaces[n], spaces[n + shift]) for n in weights]


def boundary_matrices(model, spaces):
    """d_n = L_b: C_n -> C_{n-1} for n = 1..len(spaces)-1 (index 0 is None):
    term_matrix of lie_runs on a DgAlgebra, whose index is mixed radix, and
    per key on a PeirceBasis, whose walks are found by key.  ValueError on a
    model with d != 0, whose L_b keeps a weight-preserving part b_1 = d."""
    if model.diff:
        raise ValueError("boundary_matrices assembles the weight-lowering "
                         "boundary, which needs d = 0")
    b = structure_as_cochain(model)
    weights = range(1, len(spaces))
    if not isinstance(model, DgAlgebra):
        return [None] + _weight_matrices(spaces, partial(lie_terms, model, b), weights, -1)
    return [None] + [term_matrix(partial(lie_runs, model, b), n,
                                 (len(spaces[n - 1]), len(spaces[n]))) for n in weights]


def connes_matrices(model, spaces):
    """B_n: C_n -> C_{n+1} for n = 0..len(spaces)-2."""
    return _weight_matrices(spaces, partial(connes_terms, model), range(len(spaces) - 1), 1)


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


def _flat_model(algebra):
    """The flat complex of the algebra as (model, record): the algebra itself."""
    return algebra, {"kind": "flat"}


def chain_model_of(algebra):
    """The routing rule of the operations that need B or cochains (HC, HN,
    HP and HH^*): (model, record), model being the algebra.peirce() of an
    algebra carrying idempotents (the E-relative complex, chains over its
    indices) and the algebra itself otherwise (the flat complex); record is
    the chain_model of the result."""
    if algebra.idempotents is None:
        return _flat_model(algebra)
    peirce = algebra.peirce()
    return peirce, {"kind": "relative", "idempotents": len(peirce.ground)}


def homology_model_of(algebra):
    """The routing rule of HH, HC, HN and the SBI check: the MorseModel of
    Q[x]/x^N, N >= 2, in the basis 1, x, .., x^{N-1} with no idempotents,
    kept on the algebra, and chain_model_of's model otherwise.  The table is
    read off the structure constants (x^i x^j = x^{i+j}, zero from x^N on),
    so an algebra file holding it routes to Morse and a permuted basis does
    not."""
    n = algebra.dim
    if n >= 2 and algebra.idempotents is None and algebra.mult == {
            (i, j): {i + j: 1} for i in range(n) for j in range(n - i)}:
        return kept(algebra, "morse", lambda: MorseModel(
            algebra, partial(lie_terms, algebra, structure_as_cochain(algebra)),
            partial(connes_terms, algebra))), {"kind": "morse"}
    return chain_model_of(algebra)


# -- homology -----------------------------------------------------------------------


@dataclass
class GradedDims:
    """Dimensions per degree with homology representatives.

    spots and basis_keys are over the chain (or cochain) basis of the
    complex named by chain_model: {"kind": "flat"}, the normalized complex,
    {"kind": "relative", "idempotents": r}, the complex relative to r
    idempotents, whose keys are walks over the algebra's peirce() indices:
    (a0, word) for HH, (w, t) for HH^*, or {"kind": "morse"}, the Morse
    complex of Q[x]/x^N, whose keys are its critical cells (a0, word)."""

    dims: dict = field(default_factory=dict)
    spots: dict = field(default_factory=dict)  # degree -> SubquotientBasis
    basis_keys: dict = field(default_factory=dict)  # degree -> list of keys
    chain_model: dict = field(default_factory=lambda: {"kind": "flat"})

    def __getitem__(self, n):
        return self.dims[n]

    def as_tuple(self, degrees):
        return tuple(self.dims.get(n, 0) for n in degrees)


def _weight_graded_boundary(model, max_weight):
    """The one builder of a model's complex up to max_weight: (spaces, d,
    mixed), d_n for n >= 1 (d[0] is None) and mixed(top) the retract onto
    the spaces, with B, that cyclic.perturbation_transfer reads through
    weight top, built when called so that a reader can drop d first: the
    Morse SDR of the flat complex on a MorseModel, else the identity with
    the B_n, n < top."""
    if isinstance(model, MorseModel):
        spaces = model.cells(max_weight)
        d = _weight_matrices(spaces, model.boundary_terms, range(1, max_weight + 1), -1)
        return spaces, [None] + d, partial(MorseRetract, model)
    spaces = chain_spaces(model, max_weight)
    return spaces, boundary_matrices(model, spaces), (lambda top: IdentityRetract(
        [len(s) for s in spaces[: top + 1]], connes_matrices(model, spaces[: top + 1])))


def _graded_dims(degrees, spot, basis_keys, record):
    """GradedDims at each of the degrees: 0 below degree 0, else the spot
    spot(n) with the keys basis_keys(n) of its basis."""
    out = GradedDims(chain_model=record)
    for n in degrees:
        if n < 0:
            out.dims[n] = 0
            continue
        out.spots[n] = spot(n)
        out.dims[n], out.basis_keys[n] = out.spots[n].dim, basis_keys(n)
    return out


def _model_homology(algebra, degree_range, model_of):
    """Exact HH dims with representatives on the chain model (model, record)
    = model_of(algebra); algebra must sit in degree 0.  One homology_walk
    per run a..b of consecutive degrees >= 0 takes the spots of
    C_{b+1} -> C_b -> ... -> C_a -> C_{a-1}, C_{-1} = 0."""
    require_degree_zero(algebra, "homology")
    model, record = model_of(algebra)
    degrees = sorted(degree_range)
    spaces, mats, _ = _weight_graded_boundary(model, max(degrees, default=-1) + 1)
    spots = {}
    nonneg = sorted({n for n in degrees if n >= 0})
    for _, run in itertools.groupby(enumerate(nonneg), lambda p: p[1] - p[0]):
        run = [n for _, n in run]
        spots.update(zip(range(run[-1], run[0] - 1, -1), homology_walk(
            [mats[n] if n else SparseMatrix(0, len(spaces[0]))
             for n in range(run[-1] + 1, run[0] - 1, -1)])))
    return _graded_dims(degrees, spots.get, lambda n: list(spaces[n]), record)


def hochschild_homology(algebra, degree_range):
    """Exact HH dims with representatives; algebra must sit in degree 0.

    It runs on the model homology_model_of picks: the table of Q[x]/x^N
    (basis 1, x, .., x^{N-1}, N >= 2) on its MorseModel, whose spots and
    basis_keys are over the N critical cells per weight; an algebra carrying
    idempotents (the builders attach them to M_n and to path algebras) on
    the complex relative to their span E, whose spots and basis_keys name
    walks (a0, word) over algebra.peirce() indices; any other algebra on the
    flat complex.  Callers that need representatives on flat chains call
    flat_hochschild_homology.
    """
    return _model_homology(algebra, degree_range, homology_model_of)


def flat_hochschild_homology(algebra, degree_range):
    """Exact HH dims with representatives on the flat normalized complex,
    keys (a0, word) over the algebra's basis; algebra must sit in degree 0."""
    return _model_homology(algebra, degree_range, _flat_model)


class CochainBasis:
    """The cochains of one arity of the chain model, keys (w, t) in index
    order: the parallel walks, w a walk of _walks from e_x to e_y and t in
    e_x A e_y, by w, then by t.  On a DgAlgebra every word is a walk and
    (w, t) sits at dim . (mixed-radix index of w, as in chain_spaces) + t."""

    def __init__(self, model, arity):
        self.algebra = model
        self.arity = arity
        targets = {}  # (x, y) -> the t in e_x A e_y
        for t, ends in enumerate(model.ends):
            targets.setdefault(ends, []).append(t)
        *_, walks = _walks(model, arity)
        self.keys = [(w, t) for w, x, y in walks for t in targets.get((x, y), ())]
        self.index = {k: i for i, k in enumerate(self.keys)}

    def __len__(self):
        return len(self.keys)

    def coordinates(self, cochain):
        """{index: coeff} of the cochain's component of this arity."""
        return {self.index[w, t]: c
                for w, out in cochain.components.get(self.arity, {}).items()
                for t, c in out.items()}

    def cochain_of(self, vec, arity_bound=None):
        comps = {}
        for i, c in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
            if not c:
                continue
            w, t = self.keys[i]
            comps.setdefault(self.arity, {}).setdefault(w, {})[t] = c
        sdeg = self.arity - 1  # degree-0 algebras
        return Cochain(self.algebra, comps, sdeg, arity_bound)


def _cochain_diff_matrix(model, arity):
    """Matrix of [b, -] from arity l to arity l+1 (degree-0 models), over
    CochainBasis indices, kept on the model."""
    return kept(model, ("[b, -]", arity), lambda: _assemble_cochain_diff(model, arity))


def _assemble_cochain_diff(model, arity):
    """The matrix of _cochain_diff_matrix: one b, bracketed with each column."""
    src, dst = CochainBasis(model, arity), CochainBasis(model, arity + 1)
    m = SparseMatrix(len(dst), len(src))
    b = structure_as_cochain(model)
    for j, (w, t) in enumerate(src.keys):
        p = Cochain(model, {arity: {w: {t: 1}}}, arity - 1, arity + 2)
        dp = gerstenhaber_bracket(b, p, arity + 1)
        for row, c in dst.coordinates(dp).items():
            m.add_to(row, j, c)
    return m


def _cohomology_spot(model, arity):
    """The HH^arity spot of the model's cochain complex, over CochainBasis
    indices: made once per (model, arity) and kept on the model, as
    _cochain_diff_matrix is.  HH^*, the cocycle representatives, the
    obstruction classes, the gauge search and the coboundary test of the
    calculus read it."""
    return kept(model, ("HH^", arity), lambda: _build_cohomology_spot(model, arity))


def _build_cohomology_spot(model, arity):
    """homology_walk of C^{arity-1} -> C^arity -> C^{arity+1}, C^{-1} = 0."""
    require_degree_zero(model, "cohomology")
    d_in = (_cochain_diff_matrix(model, arity - 1) if arity
            else SparseMatrix(len(CochainBasis(model, 0)), 0))
    return homology_walk([d_in, _cochain_diff_matrix(model, arity)])[0]


def hochschild_cohomology(algebra, degree_range):
    """Exact HH^n dims with representatives; algebra must sit in degree 0.

    It runs on the model chain_model_of picks: the spots and basis_keys of
    an algebra carrying idempotents are over the relative cochains (w, t) of
    algebra.peirce(), and those of any other algebra over its flat cochains.
    Unlike hochschild_homology it has no Morse route: the MorseModel carries
    chains only, so Q[x]/x^N stays flat here.  Callers that need flat
    cochains call cocycle_representatives.
    """
    require_degree_zero(algebra, "cohomology")
    model, record = chain_model_of(algebra)
    return _graded_dims(sorted(degree_range), lambda n: _cohomology_spot(model, n),
                        lambda n: CochainBasis(model, n).keys, record)


def cocycle_representatives(algebra, n, arity_bound=None):
    """HH^n classes as flat Cochain objects (one per homology generator),
    each carrying arity_bound.  They read the spot of the flat model, the
    algebra itself, whatever chain_model_of picks: the deformation, period
    and calculus layers act with flat cochains."""
    cb = CochainBasis(algebra, n)
    return [cb.cochain_of(rep, arity_bound)
            for rep in _cohomology_spot(algebra, n).homology_reps]
