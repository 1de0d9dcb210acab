"""HH, HC and HN of Q[x]/x^N on its Morse complex (morse.MorseModel).

`homology_model_of` routes a truncated polynomial table to the Morse
complex of an acyclic matching, N critical cells per weight, and every other
algebra to the model `chain_model_of` picks.  The Morse dims are checked
against the flat complex and against Loday 5.4.15 (HH_0 = N, HH_n = N - 1
above); the matching itself is checked on every flat chain of T3-T5 through
weight 6, and mutant matchings must fail those checks.  The Morse SDR (iota,
p, h) is checked on every flat chain of T2-T5 through weight 5, and mutant
homotopies must fail; HC, HN and Connes' SBI sequence, with B transferred
through it, are checked against the flat Connes complex and Loday 5.4.15.
"""

import pytest

from conftest import rebased
from test_cyclic import QI, tensor

from ncperiod import cyclic
from ncperiod.algebra import (
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_truncated_polynomial_algebra,
)
from ncperiod.cli import parse_algebra_file
from ncperiod.cyclic import (
    _connes_complex,
    cyclic_homology,
    negative_cyclic_homology,
    sbi_consistent,
    sbi_exactness,
)
from ncperiod.exactlin import apply_columns, chain_add
from ncperiod.hochschild import (
    chain_model_of,
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


# -- the Morse SDR ----------------------------------------------------------------


def _d(model, chain):
    """The flat boundary of a chain {(a0, word): value}."""
    out = {}
    for key, c in chain.items():
        model.d_terms(*key, lambda k, v: chain_add(out, k, c * v))
    return out


def _p(model, chain):
    return apply_columns(lambda key: model.split(key)[0], chain)


def _h(model, chain):
    return apply_columns(lambda key: model.split(key)[1], chain)


def _iota(model, chain):
    """iota of a chain over the critical cells."""
    return apply_columns(model.inclusion, chain)


def _combine(*terms):
    """sum of c . chain over the (c, chain) pairs."""
    out = {}
    for c, chain in terms:
        for key, v in chain.items():
            chain_add(out, key, c * v)
    return out


def _reference_boundary_terms(model, a0, word):
    """d_M = p d on a critical cell as the loop of MorseModel.boundary_terms
    computed it before the SDR was drawn out of it."""
    todo, out = {}, {}
    model.d_terms(a0, word, lambda key, c: chain_add(todo, key, c))
    while todo:
        key, c = todo.popitem()
        mate = model.partner(*key)
        if mate is None:
            chain_add(out, key, c)
        elif len(mate[1]) > len(key[1]):
            face = _d(model, {mate: 1})
            pivot = face.pop(key)
            for k, v in face.items():
                chain_add(todo, k, -c * pivot * v)
    return out


def _sdr_defects(model, top_weight):
    """What breaks the SDR (iota, p, h) of the flat complex onto the critical
    cells on the flat chains c through top_weight: d h + h d = 1 - iota p,
    h h = p h = 0, p iota = 1 and h iota = 0 on the cells, and p d on a cell
    equal to boundary_terms and to the loop it replaced."""
    defects = []
    for space in chain_spaces(model.algebra, top_weight):
        for key in space:
            c = {key: 1}
            hc = _h(model, c)
            homotopy = _combine((1, _d(model, hc)), (1, _h(model, _d(model, c))))
            if homotopy != _combine((1, c), (-1, _iota(model, _p(model, c)))):
                defects.append(("dh + hd", key))
            if _h(model, hc) or _p(model, hc):
                defects.append(("h h, p h", key))
    for weight in model.cells(top_weight):
        for cell in weight:
            iota = model.inclusion(cell)
            if _p(model, iota) != {cell: 1} or _h(model, iota):
                defects.append(("p iota, h iota", cell))
            terms = {}
            model.boundary_terms(*cell, lambda key, v: chain_add(terms, key, v))
            if not _p(model, _d(model, {cell: 1})) == terms == \
                    _reference_boundary_terms(model, *cell):
                defects.append(("p d", cell))
    return defects


@pytest.mark.parametrize("n_power", [2, 3, 4, 5])
def test_morse_sdr_identities(n_power):
    """The elimination along the matching gives p and h of every flat chain
    of T2-T5 through weight 5, iota(c) = c - h(d c) on the cells, and
    (iota, p, h) is a strong deformation retract onto the critical cells
    whose d_M = p d is boundary_terms'."""
    model = homology_model_of(build_truncated_polynomial_algebra(n_power))[0]
    assert _sdr_defects(model, 5) == []


_ELIMINATE = MorseModel.eliminate


def _negated_h(self, chain, out_terms, hmty=None):
    """Records -tau where the elimination records tau."""
    if hmty is None:
        return _ELIMINATE(self, chain, out_terms)
    mine = {}
    _ELIMINATE(self, chain, out_terms, mine)
    for key, v in mine.items():
        chain_add(hmty, key, -v)


def _dropped_tau(self, chain, out_terms, hmty=None):
    """Never records the partner 1 | x | x^{N-2} of 1 | x^{N-1}."""
    if hmty is None:
        return _ELIMINATE(self, chain, out_terms)
    mine = {}
    _ELIMINATE(self, chain, out_terms, mine)
    mine.pop((0, (1, self.algebra.dim - 2)), None)
    for key, v in mine.items():
        chain_add(hmty, key, v)


@pytest.mark.parametrize("mutant", [_negated_h, _dropped_tau])
@pytest.mark.parametrize("n_power", [3, 4])
def test_mutant_homotopies_are_caught(monkeypatch, mutant, n_power):
    """A homotopy with the wrong sign, or one recorded tau missing, breaks
    the SDR identities; T2, where every chain is critical and h is zero,
    cannot tell."""
    monkeypatch.setattr(MorseModel, "eliminate", mutant)
    model = homology_model_of(build_truncated_polynomial_algebra(n_power))[0]
    assert _sdr_defects(model, 3)


# -- HC, HN and SBI on the Morse complex, with B transferred through the SDR ----------


def _hc_trunc(n_power, degrees):
    """HC_even(Q[x]/x^N) = N, HC_odd = 0 (Loday 5.4.15)."""
    return {n: n_power if n % 2 == 0 else 0 for n in degrees}


def _cyclic_answers(alg, top):
    """HC_0..top, HN_-3..top, the SBI verdicts through top, and the homology
    dims of the three windows of the Connes complex that the SBI check reads,
    with the chain model HC and HN report."""
    hc = cyclic_homology(alg, range(top + 1))
    hn = negative_cyclic_homology(alg, range(-3, top + 1))
    cx, (lo, _) = _connes_complex(homology_model_of(alg)[0] if hc.chain_model == MORSE
                                  else alg, top)
    windows = {w: [cx.homology(w, -n).dim for n in range(-1, top + 1)]
               for w in ((lo, 0), (0, 0), (lo, -1))}
    return (hc.chain_model, hn.chain_model), (hc.dims, hn.dims,
                                              sbi_exactness(alg, range(top + 1)), windows)


@pytest.mark.parametrize("n_power, top", [(2, 9), (3, 8), (4, 6), (5, 5)])
def test_cyclic_theories_on_morse_equal_flat(monkeypatch, n_power, top):
    """HC, HN and Connes' SBI sequence of T2-T5 on the critical cells, with
    d_M and B transferred through the Morse SDR, equal the flat Connes
    complex's, window by window; Loday 5.4.15 holds on both."""
    models, morse = _cyclic_answers(build_truncated_polynomial_algebra(n_power), top)
    monkeypatch.setattr(cyclic, "homology_model_of", chain_model_of)
    flat_models, flat = _cyclic_answers(build_truncated_polynomial_algebra(n_power), top)
    assert models == (MORSE, MORSE) and flat_models == (FLAT, FLAT)
    assert morse == flat
    assert morse[0] == _hc_trunc(n_power, range(top + 1))
    assert all(morse[2].values())


def test_morse_cyclic_theories_match_loday_at_degree_19():
    """HC and HN of T3 through degree 19 and the SBI check at 19, which the
    flat complex, 3 . 2^20 chains at its top weight, cannot reach."""
    alg = build_truncated_polynomial_algebra(3)
    assert cyclic_homology(alg, range(20)).dims == _hc_trunc(3, range(20))
    hn = negative_cyclic_homology(alg, range(-3, 20)).dims
    assert hn == {n: (n <= 0 and n % 2 == 0) + 2 * (n > 0 and n % 2 == 1)
                  for n in range(-3, 20)}
    assert sbi_exactness(alg, [19]) == {19: True}


@pytest.mark.parametrize("build", [
    lambda: build_truncated_polynomial_algebra(2), lambda: build_truncated_polynomial_algebra(3),
    lambda: build_matrix_algebra(2), a2_quiver_algebra, build_field,
], ids=["T2", "T3", "M2", "A2", "Q"])
def test_cyclic_theories_report_the_model_of_hh(build):
    """HC and HN route by homology_model_of, as HH does, so the three report
    one chain_model record: Morse for T2 and T3, relative for M2 and A2,
    flat for Q."""
    alg = build()
    hh = hochschild_homology(alg, range(3)).chain_model
    assert cyclic_homology(alg, range(3)).chain_model == hh
    assert negative_cyclic_homology(alg, range(3)).chain_model == hh
    assert hh == homology_model_of(alg)[1]


def test_one_morse_model_per_algebra():
    """homology_model_of keeps one MorseModel per algebra, so the HC dims
    and Connes complexes kept on it survive from one call to the next."""
    alg = build_truncated_polynomial_algebra(3)
    model = homology_model_of(alg)[0]
    assert homology_model_of(alg)[0] is model
    negative_cyclic_homology(alg, range(-3, 5))
    cx = _connes_complex(model, 3)[0]
    cyclic_homology(alg, range(4))
    assert _connes_complex(model, 3)[0] is cx


EXT1 = "basis 1:0 t:1\nmult 0 0 0 1\nmult 0 1 1 1\nmult 1 0 1 1\nunit 1 0\n"


@pytest.mark.parametrize("entry", [
    lambda alg: cyclic_homology(alg, range(3)),
    lambda alg: negative_cyclic_homology(alg, range(3)),
    lambda alg: sbi_consistent(alg, range(3)),
    lambda alg: sbi_exactness(alg, range(3)),
], ids=["HC", "HN", "sbi_consistent", "sbi_exactness"])
def test_cyclic_entry_points_refuse_a_graded_table(entry):
    """Q[t]/t^2 with |t| = 1 has the table of Q[x]/x^2, so it routes to a
    MorseModel; all four cyclic entry points run the degree-zero guard and
    raise the same ValueError."""
    alg = parse_algebra_file(EXT1)
    assert homology_model_of(alg)[1] == MORSE
    with pytest.raises(ValueError, match="^cyclic homology requires a degree-0 algebra$"):
        entry(alg)
