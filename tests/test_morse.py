"""HH of Q[x]/x^N on its Morse complex (morse.MorseModel).

`hochschild_homology` routes a truncated polynomial table to the Morse
complex of an acyclic matching, N critical cells per weight, and every other
algebra to the model `chain_model_of` picks.  The Morse dims are checked
against the flat complex and against Loday 5.4.15 (HH_0 = N, HH_n = N - 1
above); the matching itself is checked on every flat chain of T3-T5 through
weight 6, and mutant matchings must fail those checks.
"""

import pytest

from conftest import rebased
from test_cyclic import QI, tensor

from ncperiod.algebra import build_field, build_truncated_polynomial_algebra
from ncperiod.cli import parse_algebra_file
from ncperiod.exactlin import chain_add
from ncperiod.hochschild import (
    chain_spaces,
    flat_hochschild_homology,
    hochschild_homology,
    homology_model_of,
)
from ncperiod.morse import MorseModel

MORSE = {"kind": "morse"}
FLAT = {"kind": "flat"}


def loday(n_power, top):
    return (n_power,) + (n_power - 1,) * top


@pytest.mark.parametrize("n_power, top", [(2, 8), (3, 7), (4, 6), (5, 5), (6, 4)])
def test_morse_dims_equal_flat_dims(n_power, top):
    alg = build_truncated_polynomial_algebra(n_power)
    got = hochschild_homology(alg, range(top + 1))
    assert got.chain_model == MORSE
    assert got.as_tuple(range(top + 1)) == \
        flat_hochschild_homology(alg, range(top + 1)).as_tuple(range(top + 1))
    assert [len(got.basis_keys[n]) for n in range(top + 1)] == [n_power] * (top + 1)


@pytest.mark.parametrize("n_power, top", [(3, 19), (4, 12), (5, 10)])
def test_morse_dims_match_loday_at_high_weight(n_power, top):
    """Loday 5.4.15 at weights the flat complex cannot reach: flat T4 through
    weight 12 would hold 4 . 3^13 chains at its top."""
    got = hochschild_homology(build_truncated_polynomial_algebra(n_power), range(top + 1))
    assert got.as_tuple(range(top + 1)) == loday(n_power, top)


T3_TABLE = """
name t3table
basis 1:0 x:0 xx:0
mult 0 0 0 1
mult 0 1 1 1
mult 1 0 1 1
mult 0 2 2 1
mult 2 0 2 1
mult 1 1 2 1
unit 1 0 0
"""

T2 = build_truncated_polynomial_algebra(2)
T3 = build_truncated_polynomial_algebra(3)


@pytest.mark.parametrize("build, model, want", [
    (build_field, FLAT, (1, 0, 0, 0, 0)),
    (lambda: rebased(T3, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]), FLAT, loday(3, 4)),
    (lambda: tensor(T2, T2), FLAT, (4, 4, 5, 6, 7)),
    (lambda: QI, FLAT, (2, 0, 0, 0, 0)),
    (lambda: parse_algebra_file(T3_TABLE), MORSE, loday(3, 4)),
], ids=["Q", "T3-permuted", "T2xT2", "Q(i)", "T3-file"])
def test_recognizer_routes(build, model, want):
    """Only the table 1, x, .., x^{N-1} with N >= 2 routes to Morse: Q (dim
    1) would ask for letters it has not, a permuted basis of T3, T2 x T2
    and Q(i) are not that table, and an algebra file holding it is.  Each
    answer equals the flat complex's (Kuenneth for T2 x T2)."""
    alg = build()
    got = hochschild_homology(alg, range(5))
    assert homology_model_of(alg)[1] == got.chain_model == model
    assert got.as_tuple(range(5)) == want == \
        flat_hochschild_homology(alg, range(5)).as_tuple(range(5))


def _departure(word, top):
    """The first slot (0-based) leaving x | x^top | x | ..., len(word) if none."""
    return next((k for k, a in enumerate(word) if a != (top if k % 2 else 1)), len(word))


def _faces(model, a0, word):
    out = {}
    model.d_terms(a0, word, lambda key, c: chain_add(out, key, c))
    return out


def _matching_defects(model, top_weight):
    """What breaks the matching's contract on the flat chains through
    top_weight: a partner not one weight away or not matched back, a matched
    coefficient of d other than +-1, a face of a partner that neither
    vanishes, is matched down nor raises (a0, first departure), and critical
    cells other than MorseModel.cells'."""
    top = model.algebra.dim - 1
    defects = []
    for n, space in enumerate(chain_spaces(model.algebra, top_weight)):
        critical = []
        for a0, word in space:
            mate = model.partner(a0, word)
            if mate is None:
                critical.append((a0, word))
                continue
            if abs(len(mate[1]) - n) != 1 or model.partner(*mate) != (a0, word):
                defects.append(("involution", (a0, word), mate))
                continue
            if len(mate[1]) < n:
                continue
            faces = _faces(model, *mate)
            if faces.pop((a0, word), 0) not in (1, -1):
                defects.append(("coefficient", (a0, word), mate))
            rank = (a0, _departure(word, top))
            for key in faces:
                down = (m := model.partner(*key)) is not None and len(m[1]) < n
                if not down and (key[0], _departure(key[1], top)) <= rank:
                    defects.append(("gradient", (a0, word), key))
        if critical != list(model.cells(top_weight)[n]):
            defects.append(("critical", n, critical))
    return defects


@pytest.mark.parametrize("n_power", [3, 4, 5])
def test_matching_is_an_acyclic_involution(n_power):
    """On every flat chain of T3-T5 through weight 6 the matching pairs
    adjacent weights both ways, each matched coefficient of d is +-1, the
    faces of a partner rise in (a0, first departure) as the morse module
    docstring argues, and the N cells (a0, x | x^{N-1} | ..) per weight are
    the critical ones."""
    model = homology_model_of(build_truncated_polynomial_algebra(n_power))[0]
    assert _matching_defects(model, 6) == []
    assert [len(c) for c in model.cells(6)] == [n_power] * 7


def _split_right(self, a0, word):
    """Splits x^a as x^{a-1} | x: its partners are not matched back."""
    top = self.algebra.dim - 1
    for k, a in enumerate(word):
        if k % 2 == 0 and a != 1:
            return a0, word[:k] + (a - 1, 1) + word[k + 1:]
        if k % 2 and a != top:
            return a0, word[:k - 1] + (a + 1,) + word[k + 1:]
    return None


_PARTNER = MorseModel.partner


def _no_down(self, a0, word):
    """Keeps the down-matched chains as critical."""
    mate = _PARTNER(self, a0, word)
    return mate if mate is None or len(mate[1]) > len(word) else None


def _last_departure(self, a0, word):
    """Matches at the last departure from the pattern, not the first."""
    top = self.algebra.dim - 1
    for k in range(len(word) - 1, -1, -1):
        a = word[k]
        if k % 2 == 0 and a != 1:
            return a0, word[:k] + (1, a - 1) + word[k + 1:]
        if k % 2 and a != top:
            return a0, word[:k - 1] + (word[k - 1] + a,) + word[k + 1:]
    return None


def _all_up(self, a0, word):
    """Matches a down-matched chain up as well, splitting its letter at the
    same slot: x | x^2 and x^2 | x then both point at x | x | x, a cycle."""
    mate = _PARTNER(self, a0, word)
    if mate is None or len(mate[1]) > len(word):
        return mate
    k = _departure(word, self.algebra.dim - 1)
    return (a0, word[:k] + (1, word[k] - 1) + word[k + 1:]) if word[k] > 1 else mate


@pytest.mark.parametrize("mutant", [_split_right, _no_down, _last_departure, _all_up])
def test_mutant_matchings_are_caught(monkeypatch, mutant):
    """A mutant matching breaks the matching checks, and every mutant but
    _split_right, whose Morse dims happen to come out right, also makes HH
    raise or disagree with the flat complex."""
    monkeypatch.setattr(MorseModel, "partner", mutant)
    alg = build_truncated_polynomial_algebra(4)
    assert _matching_defects(homology_model_of(alg)[0], 4)
    if mutant is _split_right:
        return
    flat = flat_hochschild_homology(alg, range(5)).as_tuple(range(5))
    try:
        got = hochschild_homology(alg, range(5)).as_tuple(range(5))
    except (KeyError, ValueError):
        return
    assert got != flat


def test_a_cycle_of_the_matching_stops_the_elimination(monkeypatch):
    """With a cycle the elimination would run for ever: it stops past as
    many steps as the weight has flat chains and raises."""
    monkeypatch.setattr(MorseModel, "partner", _all_up)
    with pytest.raises(ValueError, match="does not end"):
        hochschild_homology(build_truncated_polynomial_algebra(4), range(4))
