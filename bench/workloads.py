"""The four benchmark workloads and their oracle table.

Each workload is built in two steps.  `build(seed)` makes every input (the
algebras, rings and Maurer-Cartan elements); it is the set-up that `setup_s`
times.  `ops(inputs)` lists the operations of one pass.  Every operation
carries its expected answer and the closed-form source of that answer; no
expected value is taken from the program's own output.

Operations listed in KNOWN_DEFECTS disagree with their oracle at the commit
that introduced this benchmark.  They stay in the workloads with their true
oracle value and are counted as failed operations; see README.md.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from ncperiod import (
    GaugeElement,
    MCElement,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_truncated_poly,
    build_truncated_polynomial_algebra,
    cyclic_homology,
    dual_numbers,
    gauge_act,
    gauge_equivalent,
    hochschild_cohomology,
    hochschild_homology,
    hodge_spectral_sequence,
    kronecker_algebra,
    lift_order_by_order,
    mc_residual,
    negative_cyclic_homology,
    periodic_cyclic_homology,
    period_map_artin,
    ptd_isomorphic,
    sbi_consistent,
    torelli_rank,
    trivialize_periodic,
    vdb_duality_check,
    verify_lie_dagger,
)
from ncperiod.cyclic import sbi_exactness
from ncperiod.deform import cochain_over_ring
from ncperiod.hochschild import (
    Cochain,
    basis_cochains,
    cochain_differential,
    cocycle_representatives,
)

WINDOW = (-6, 6)
HOLDS = "holds exactly"

# Operations that fail their oracle at the commit that added this benchmark;
# all three look like the unchecked bar truncation of ROADMAP item 4.
KNOWN_DEFECTS = {
    "hn.T3": "bar-truncation artefact in the even degrees (ROADMAP item 4)",
    "hp.T3": "bar-truncation artefact, HP not nil-invariant (ROADMAP item 4)",
    "ptd2.T3": "False at the default bar 6, True at bar 7 (ROADMAP item 4)",
}


@dataclass
class Op:
    name: str
    run: object       # () -> comparable answer
    expected: object
    source: str


# -- closed-form oracles ------------------------------------------------------


def hh_trunc(n_power, degrees):
    """HH_n(k[x]/x^N) = N for n = 0 and N - 1 for n >= 1 (Loday 5.4.15)."""
    return tuple(n_power if n == 0 else n_power - 1 for n in degrees)


def hh_acyclic_quiver(vertices, degrees):
    """HH_0 = k^#vertices and HH_n = 0 for n >= 1: path algebras of acyclic
    quivers are hereditary and HH_0 = kQ/[kQ, kQ] is spanned by the
    vertices."""
    return tuple(vertices if n == 0 else 0 for n in degrees)


def hc_trunc(n_power, degrees):
    """HC_even(k[x]/x^N) = N, HC_odd = 0 in characteristic 0 (Loday 5.4.15)."""
    return {n: n_power if n % 2 == 0 else 0 for n in degrees}


def hn_trunc(n_power, degrees):
    """HN_n(k[x]/x^N) = 1 for even n <= 0, N - 1 for odd n >= 1, else 0, in
    the README's convention HN_n = H^{-n}(C[[t]], d + tB).  N = 1 is the
    ground field Q."""
    out = {}
    for n in degrees:
        if n <= 0:
            out[n] = 1 if n % 2 == 0 else 0
        else:
            out[n] = n_power - 1 if n % 2 else 0
    return out


# -- input generators ---------------------------------------------------------


def _nonzero(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def random_first_order_mc(alg, ring, rng, arity_bound=6):
    """Seeded arity-2 cocycle times eps: a coboundary of a random arity-1
    cochain plus a random combination of the HH^2 representatives.  Over a
    square-zero extension every such cochain is Maurer-Cartan."""
    z = Cochain(alg, {}, 1, arity_bound)
    for b in basis_cochains(alg, 1, sdeg=0):
        if b.arities() == [1]:
            z = z.add(cochain_differential(alg, b, arity_bound).scaled(_nonzero(rng)))
    for rep in cocycle_representatives(alg, 2, arity_bound):
        z = z.add(rep.scaled(_nonzero(rng)))
    eps = ring.gen(1)
    return MCElement(ring, z.map_coefficients(lambda q: eps * q))


def _gauge_found(x, y):
    """gauge_equivalent found a gauge, and it carries x to y exactly."""
    g = gauge_equivalent(x, y)
    return g is not None and y.value.add(gauge_act(g, x).value, scale=-1).is_zero()


def _lift_to_eps4(alg, x, r3, r4):
    status3, x3 = lift_order_by_order(alg, x, r3)
    if status3 != "lift":
        return status3, None, False
    status4, x4 = lift_order_by_order(alg, x3, r4)
    return status3, status4, status4 == "lift" and mc_residual(alg, x4).is_zero()


def _e1_summary(report):
    return report.degenerate_at_E1, report.abutment


def lie_dagger_statuses(alg, workers=1):
    return tuple(r.status for r in verify_lie_dagger(alg, 3, 4, workers=workers))


# -- cyclic ---------------------------------------------------------------------


def build_cyclic(seed):
    return {
        "M2": build_matrix_algebra(2),
        "T2": build_truncated_polynomial_algebra(2),
        "T3": build_truncated_polynomial_algebra(3),
        "A2": a2_quiver_algebra(),
    }


def ops_cyclic(a):
    M2, T2, T3, A2 = a["M2"], a["T2"], a["T3"], a["A2"]
    hn_deg, hn_t = range(-4, 3), range(-3, 5)
    morita = "Morita invariance: M2 has the cyclic theories of Q"
    nil = "Goodwillie 1985: HP is nil-invariant, HP(Q[x]/x^N) = HP(Q) = (1,0)"
    ops = [
        Op("hn.M2", lambda: negative_cyclic_homology(M2, hn_deg, WINDOW).dims,
           hn_trunc(1, hn_deg), morita + "; HN_n(Q) = 1 for even n <= 0"),
        Op("sbi_exactness.M2", lambda: sbi_exactness(M2, range(0, 3), WINDOW),
           {0: True, 1: True, 2: True},
           "a short exact sequence of complexes gives an exact homology sequence"),
        Op("sbi_consistent.M2", lambda: sbi_consistent(M2, range(0, 3), WINDOW)[0],
           True, "Connes' SBI sequence HN -> HP -> HC[-2] is exact"),
        Op("hp.M2", lambda: periodic_cyclic_homology(M2, WINDOW), (1, 0),
           morita + "; HP(Q) = (1,0)"),
    ]
    for name, alg, n_power in (("T2", T2, 2), ("T3", T3, 3)):
        ops += [
            Op(f"hn.{name}",
               lambda alg=alg: negative_cyclic_homology(alg, hn_t, WINDOW).dims,
               hn_trunc(n_power, hn_t),
               "Loday 5.4.15 with nil-invariance of HP (Goodwillie 1985)"),
            Op(f"hc.{name}",
               lambda alg=alg: cyclic_homology(alg, range(0, 5), WINDOW).dims,
               hc_trunc(n_power, range(0, 5)), "Loday 5.4.15"),
            Op(f"hp.{name}", lambda alg=alg: periodic_cyclic_homology(alg, WINDOW),
               (1, 0), nil),
        ]
    ops += [
        Op("hp.A2", lambda: periodic_cyclic_homology(A2, WINDOW), (2, 0),
           "acyclic quiver: HH = (2,0,...), so HP = (2,0)"),
        Op("ss.A2", lambda: _e1_summary(hodge_spectral_sequence(A2, WINDOW, (0, 1))),
           (True, {0: 2, 1: 0}),
           "smooth proper algebra: Hodge-to-de Rham degenerates at E1 "
           "(Kaledin 2008), abutment HP(A2) = (2,0)"),
    ]
    return ops


# -- hochschild -----------------------------------------------------------------


def build_hochschild(seed):
    return {
        "M2": build_matrix_algebra(2),
        "T4": build_truncated_polynomial_algebra(4),
        "KRON": kronecker_algebra(),
    }


def ops_hochschild(a):
    M2, T4, KRON = a["M2"], a["T4"], a["KRON"]
    return [
        Op("hh.M2", lambda: hochschild_homology(M2, range(7)).as_tuple(range(7)),
           hh_trunc(1, range(7)), "Morita invariance: HH(M2) = HH(Q)"),
        Op("hh.T4", lambda: hochschild_homology(T4, range(6)).as_tuple(range(6)),
           hh_trunc(4, range(6)), "Loday 5.4.15: HH_n(k[x]/x^4) = 4, 3, 3, ..."),
        Op("hh.kron", lambda: hochschild_homology(KRON, range(7)).as_tuple(range(7)),
           hh_acyclic_quiver(2, range(7)),
           "acyclic quiver: hereditary, HH_0 = k^#vertices"),
        Op("hhc.M2",
           lambda: hochschild_cohomology(M2, range(4)).as_tuple(range(4)),
           hh_trunc(1, range(4)), "Morita invariance: HH*(M2) = HH*(Q)"),
    ]


# -- lie_dagger -----------------------------------------------------------------


def build_lie_dagger(seed):
    return {
        "q": build_field(),
        "T2": build_truncated_polynomial_algebra(2),
        "T3": build_truncated_polynomial_algebra(3),
        "A2": a2_quiver_algebra(),
        "M2": build_matrix_algebra(2),
    }


def ops_lie_dagger(a):
    return [
        Op(f"lie_dagger.{name}", lambda alg=alg: lie_dagger_statuses(alg),
           (HOLDS,) * 4,
           "the Lie action of cochains on chains is a dg-Lie action "
           "(Tamarkin-Tsygan calculus): every identity holds exactly")
        for name, alg in a.items()
    ]


# -- deform_period --------------------------------------------------------------


def _ptd2_t3_inputs(T3, R3):
    """Fixed, seed-free pair over Q[eps]/(eps^3) on Q[x]/(x^3), basis indices
    0 = 1, 1 = x, 2 = x^2; y is gauge equivalent to x by construction."""
    eps, eps2 = R3.gen("eps"), R3.gen("eps^2")
    x = MCElement(R3, cochain_over_ring(T3, R3, {2: {
        (1, 1): {1: -eps, 2: eps * -2, 0: eps * 3},
        (2, 1): {2: eps * 2, 0: eps * -3 + eps2 * 6},
        (1, 2): {2: eps * 2, 0: eps * -3 + eps2 * 6},
        (2, 2): {1: eps * -3, 2: eps * -3, 0: eps2 * -9},
    }}, 1, 6))
    beta = GaugeElement(R3, cochain_over_ring(
        T3, R3, {1: {(1,): {2: eps, 0: eps2 * 3}}}, 0, 6))
    return x, gauge_act(beta, x)


def build_deform_period(seed):
    rng = random.Random(seed)
    R2 = dual_numbers()
    R3 = build_truncated_poly(1, 3)
    R4 = build_truncated_poly(1, 4)
    algs = {
        "q": build_field(),
        "T2": build_truncated_polynomial_algebra(2),
        "T3": build_truncated_polynomial_algebra(3),
        "A2": a2_quiver_algebra(),
        "M2": build_matrix_algebra(2),
    }
    T2 = algs["T2"]
    eps, eps2 = R3.gen("eps"), R3.gen("eps^2")
    x = MCElement(R3, cochain_over_ring(T2, R3, {2: {(1, 1): {0: eps}}}, 1, 6))
    alpha = GaugeElement(R3, cochain_over_ring(
        T2, R3, {1: {(1,): {1: eps, 0: eps2 * 3}}}, 0, 6))
    x3, y3 = _ptd2_t3_inputs(algs["T3"], R3)
    return {
        "algs": algs, "R3": R3, "R4": R4,
        "lift": [(name, k, random_first_order_mc(algs[name], R2, rng))
                 for name in ("A2", "M2") for k in range(2)],
        "triv": [(name, random_first_order_mc(alg, R2, rng))
                 for name, alg in algs.items()],
        "x": x,
        "y": gauge_act(alpha, x),
        "xx": MCElement(R3, cochain_over_ring(T2, R3, {2: {(1, 1): {0: eps + eps2}}},
                                              1, 6)),
        "x2": MCElement(R3, x.value.scaled(2)),
        "x3": x3, "y3": y3,
    }


def ops_deform_period(a):
    algs, R3, R4 = a["algs"], a["R3"], a["R4"]
    T2, T3, M2 = algs["T2"], algs["T3"], algs["M2"]
    ops = [
        Op(f"lift.{name}.{k}", lambda alg=algs[name], x=x: _lift_to_eps4(alg, x, R3, R4),
           ("lift", "lift", True), "HH^3 = 0, so every deformation is unobstructed")
        for name, k, x in a["lift"]
    ]
    ops += [
        Op(f"triv.{name}",
           lambda alg=algs[name], x=x: trivialize_periodic(alg, x, WINDOW).ok, True,
           "HP is rigid under nilpotent extensions (Goodwillie 1985), so the "
           "deformed periodic complex trivializes")
        for name, x in a["triv"]
    ]
    x, y, xx, x2 = a["x"], a["y"], a["xx"], a["x2"]
    ptd = {}

    def period(key, mc, alg=T2):
        if key not in ptd:
            ptd[key] = period_map_artin(alg, mc, WINDOW)
        return ptd[key]

    gauge_src = "gauge-equivalent inputs have isomorphic PTDs"
    ops += [
        Op("gauge.T2", lambda: _gauge_found(x, y), True,
           "y = e^alpha . x by construction"),
        Op("triv2.T2", lambda: trivialize_periodic(T2, x, WINDOW).ok, True,
           "HP rigidity (Goodwillie 1985) over Q[eps]/eps^3"),
        Op("ptd.T2.gauge",
           lambda: ptd_isomorphic(period("x", x), period("y", y))[0], True,
           gauge_src + "; y = e^alpha . x"),
        Op("ptd.T2.rescale",
           lambda: ptd_isomorphic(period("x", x), period("xx", xx))[0], True,
           gauge_src + "; x -> (1+eps)^(-1/2) x carries x^2 = eps + eps^2 "
           "to x^2 = eps"),
        Op("ptd.T2.scaled2",
           lambda: ptd_isomorphic(period("x", x), period("x2", x2))[0], False,
           "first-order classes eps and 2 eps differ in HH^2 and the "
           "first-order period map of Q[x]/x^2 is injective"),
        Op("gauge.T3", lambda: _gauge_found(a["x3"], a["y3"]), True,
           "y3 = e^beta . x3 by construction"),
        Op("ptd2.T3",
           lambda: ptd_isomorphic(period_map_artin(T3, a["x3"], WINDOW),
                                  period_map_artin(T3, a["y3"], WINDOW))[0],
           True, gauge_src + "; y3 = e^beta . x3"),
        Op("torelli.M2", lambda: torelli_rank(M2, range(0, 3)), (0, 0, True),
           "Morita invariance: HH^2(M2) = 0, injective on the zero space"),
        Op("vdb.M2",
           lambda: all(r["iso"] for r in vdb_duality_check(
               M2, 0, {(0, ()): Fraction(1)}, range(0, 3)).values()),
           True, "Van den Bergh duality: M2 is smooth Calabi-Yau of dimension 0"),
    ]
    return ops


WORKLOADS = {
    "cyclic": (build_cyclic, ops_cyclic),
    "hochschild": (build_hochschild, ops_hochschild),
    "lie_dagger": (build_lie_dagger, ops_lie_dagger),
    "deform_period": (build_deform_period, ops_deform_period),
}
