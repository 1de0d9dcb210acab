"""The Morse complex of Q[x]/x^N, on which hochschild_homology computes HH.

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

The Morse differential is d_M = p d on the critical cells (boundary_terms),
d the flat boundary given per key.  p eliminates each up-matched cell sigma
of a chain by subtracting the multiple of d(tau) that cancels it, tau its
partner, drops each down-matched cell and keeps the critical ones: the sum
over gradient paths.  hochschild assembles d_M by _keyed_matrix, and its
homology_walk checks d_M^2 = 0 exactly.  The critical cells are flat chain
keys, but a Morse homology representative is a vector over them, not a flat
cycle: callers that need flat cycles call flat_hochschild_homology.
"""

from __future__ import annotations

from functools import partial

from .exactlin import chain_add


class MorseModel:
    """The Morse complex of Q[x]/x^N under the matching of the module
    docstring.  d_terms(a0, word, out_terms) is the flat boundary as a
    per-key generator: hochschild passes lie_terms of the structure
    cochain b."""

    def __init__(self, algebra, d_terms):
        self.algebra = algebra
        self.d_terms = d_terms

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

    def boundary_terms(self, a0, word, out_terms):
        """The terms of d_M = p d on the critical cell (a0, word), a per-key
        generator for _keyed_matrix.  ValueError if a matched coefficient is
        not +-1, or if the elimination runs past as many steps as the
        weight has flat chains, which only a matching with a cycle does."""
        todo = {}
        self.d_terms(a0, word, partial(chain_add, todo))
        for _ in range(self.algebra.dim * (self.algebra.dim - 1) ** len(word)):
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
                for k, v in face.items():
                    chain_add(todo, k, -c * pivot * v)
        if todo:
            raise ValueError(f"the Morse elimination from {(a0, word)} does not end")
