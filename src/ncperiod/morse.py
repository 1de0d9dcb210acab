"""The Morse complex of Q[x]/x^N and its SDR, on which HH, HC and HN run.

The algebra is Q[x]/x^N, N >= 2, in the basis 1, x, ..., x^{N-1}, basis
index a being x^a; hochschild.homology_model_of recognizes that table from
the structure constants.  An acyclic matching of its flat normalized chains
leaves N critical cells per weight where the flat complex has N (N-1)^n,
and the Morse complex on them has the homology of the flat one (algebraic
Morse theory: Skoldberg 2006, Trans. AMS 358; Joellenbeck-Welker 2009,
Mem. AMS 197).

The matching
  * partner reads the bar word a_1|..|a_n of a chain (a0, word) against
    the pattern x | x^{N-1} | x | x^{N-1} | ...  At the first slot that
    leaves it, an odd slot holding x^a, a >= 2, is matched up, split into
    x | x^{a-1}, and an even slot holding x^a, a < N-1, is matched down,
    merged into the x before it.  The two moves undo each other and keep
    a0, and a word that follows the pattern to its end is critical: the N
    cells (a0, x | x^{N-1} | x | ...) of each weight.  On N = 2 the pattern
    is x | x | ..., so every chain is critical;
  * the matched coefficient of d is the one face that merges the split
    slots, +-1: every other face changes a0 or a letter left of the split;
  * the matching is acyclic.  Let tau be the partner of an up-matched
    sigma whose first departure is slot i, so tau follows the pattern
    through slot i and holds x^{a-1}, a-1 < N-1, in slot i+1.  A face of d
    tau other than sigma is zero (a merge inside the pattern, x . x^{N-1} =
    x^N = 0), matched down (slot i+1 keeps a power below x^{N-1}: a merge
    right of it, the wrap of a later last slot, or a merge of slots i+1 and
    i+2 that stays below), raises a0 (a0 . x, or the wrap x^{a_n} . a0), or
    merges slots i+1 and i+2 into x^{N-1}, which moves the first departure
    past i+1 with a0 kept.  So along every gradient path sigma -> tau ->
    sigma' -> ... the pair (a0, first departure) rises strictly, and every
    path ends.

The Morse SDR comes from one elimination (eliminate), d the flat boundary
given per key.  It cancels each up-matched cell sigma of a chain by
subtracting c pivot d(tau), tau its partner and pivot = +-1 the coefficient
of sigma in d(tau), and records c pivot tau in h; it drops each
down-matched cell and keeps the critical ones in p: the sums over gradient
paths.  So c = p(c) + d h(c) + (down-matched cells), with h(c) over
down-matched cells, and with iota(cell) = cell - h(d cell), (iota, p, h) is
a strong deformation retract of the flat complex onto the critical cells:
d h + h d = 1 - iota p, p iota = 1 and h h = h iota = p h = 0.  The Morse
differential is d_M = p d iota = p d (boundary_terms), which hochschild
assembles by _keyed_matrix and whose homology_walk checks d_M^2 = 0
exactly.  split keeps p and h of each flat key on the model, and a
MorseRetract hands iota, p, h and the flat B per key to
cyclic.perturbation_transfer, so that the Connes complex of HC is d_M plus
the t-blocks sum_k p tB (h tB)^k iota on the critical cells.  The critical
cells are flat chain keys, but a Morse homology representative is a vector
over them, not a flat cycle: callers that need flat cycles call
flat_hochschild_homology.
"""

from __future__ import annotations

from functools import partial

from .exactlin import apply_columns, chain_add, kept


class MorseModel:
    """The Morse complex of Q[x]/x^N under the matching of the module
    docstring.  d_terms(a0, word, out_terms) and b_terms(a0, word,
    out_terms) are the flat boundary and Connes' B as per-key generators:
    hochschild passes lie_terms of the structure cochain b and
    connes_terms."""

    def __init__(self, algebra, d_terms, b_terms):
        self.algebra = algebra
        self.d_terms = d_terms
        self.b_terms = b_terms

    degrees = property(lambda self: self.algebra.degrees)

    def cells(self, max_weight):
        """The critical cells per weight 0..max_weight as index maps {(a0,
        word): a0}, word = x | x^{N-1} | x | ... of length n."""
        top = self.algebra.dim - 1
        return [{(a0, tuple(top if k % 2 else 1 for k in range(n))): a0
                 for a0 in range(self.algebra.dim)} for n in range(max_weight + 1)]

    def partner(self, a0, word):
        """The chain matched with (a0, word): one weight up for an
        up-matched chain, one weight down for a down-matched one; None for
        a critical cell."""
        top = self.algebra.dim - 1
        for k, a in enumerate(word):  # slot k + 1
            if k % 2 == 0 and a != 1:
                return a0, word[:k] + (1, a - 1) + word[k + 1:]
            if k % 2 and a != top:
                return a0, word[:k - 1] + (a + 1,) + word[k + 1:]
        return None

    def eliminate(self, chain, out_terms, hmty=None):
        """p of the flat chain {(a0, word): value} of weight n, which it
        consumes, given term by term to out_terms(cell, value); with hmty,
        h of it is added into that dict.  ValueError if a matched
        coefficient is not +-1, or if the elimination runs past as many
        steps as weight n + 1 has flat chains, which only a matching with a
        cycle does."""
        todo = chain
        n = len(next(iter(chain), (0, ()))[1])
        for _ in range(self.algebra.dim * (self.algebra.dim - 1) ** (n + 1)):
            if not todo:
                return
            key, c = todo.popitem()
            mate = self.partner(*key)
            if mate is None:
                out_terms(key, c)
            elif len(mate[1]) > len(key[1]):
                face = {}
                self.d_terms(*mate, partial(chain_add, face))
                pivot = face.pop(key, 0)
                if pivot not in (1, -1):
                    raise ValueError(f"matched coefficient {pivot} at {key}")
                if hmty is not None:
                    chain_add(hmty, mate, c * pivot)
                for k, v in face.items():
                    chain_add(todo, k, -c * pivot * v)
        if todo:
            raise ValueError(f"the Morse elimination at weight {n} does not end")

    def boundary_terms(self, a0, word, out_terms):
        """The terms of d_M = p d on the critical cell (a0, word), a per-key
        generator for _keyed_matrix."""
        face = {}
        self.d_terms(a0, word, partial(chain_add, face))
        self.eliminate(face, out_terms)

    def split(self, key):
        """(p, h) of the flat chain key, kept on the model."""
        def build():
            proj, hmty = {}, {}
            self.eliminate({key: 1}, partial(chain_add, proj), hmty)
            return proj, hmty
        return kept(self, ("split", key), build)

    def inclusion(self, cell):
        """iota of the critical cell: the cell minus h of its boundary, from
        one elimination of the boundary, kept on the model."""
        def build():
            face, hmty = {}, {}
            self.d_terms(*cell, partial(chain_add, face))
            self.eliminate(face, lambda key, c: None, hmty)
            out = {cell: 1}
            for key, c in hmty.items():
                chain_add(out, key, -c)
            return out
        return kept(self, ("iota", cell), build)


class MorseRetract:
    """iota, p and h of the Morse SDR through weight bar_bound, with B of
    the flat complex, as the operations cyclic.perturbation_transfer reads:
    chains are dicts over flat keys, and p gives rows over the cells."""

    def __init__(self, model, bar_bound):
        self.model = model
        self.bar_bound = bar_bound
        self.cells = model.cells(bar_bound)

    def iota(self, m):
        return [self.model.inclusion(cell) for cell in self.cells[m]]

    def project(self, w, vecs):
        rows, out = self.cells[w], {}
        for k, vec in enumerate(vecs):
            for key, v in apply_columns(lambda j: self.model.split(j)[0], vec).items():
                out[rows[key], k] = v
        return out

    def homotopy(self, w):
        return lambda key: self.model.split(key)[1]

    def b_columns(self, w):
        def column(key):
            col = {}
            self.model.b_terms(*key, partial(chain_add, col))
            return col
        return column
