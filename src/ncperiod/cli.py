"""Command-line front end: deterministic reports over the library operations.

Commands: hh, hhc, cyclic, ss, calc {verify,defect}, deform {lift,gauge-check},
period {matrix,torelli,vdb,ptd}.  Exit codes: 0 success, 1 not-stabilized or
validation/verification failure, 2 parse errors and a graded algebra given
to a command that needs one in degree 0.  Output is plain text by
default, or stable-keyed JSON with --format structured.  The output depends
only on the arguments and the files they name: no environment variable is
read.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .algebra import (
    CyclicQuiver,
    DgAlgebra,
    NotDegreeZero,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_path_algebra,
    build_truncated_polynomial_algebra,
    change_basis,
    kronecker_algebra,
    validate_dg_algebra,
)
from .coeff import ArtinLocalRing, NotArtinLocal, build_truncated_poly, dual_numbers, exact
from .cyclic import (
    NotStabilized,
    cyclic_homology,
    hodge_spectral_sequence,
    negative_cyclic_homology,
    periodic_cyclic_homology,
    sbi_consistent,
)
from .deform import MCElement, NotMaurerCartan, gauge_equivalent, lift_order_by_order
from .exactlin import chain_add
from .hochschild import Cochain, hochschild_cohomology, hochschild_homology, shifted_degree
from .period import (
    first_order_period_matrix,
    griffiths_transversality_check,
    period_map_artin,
    torelli_rank,
    vdb_duality_check,
)


class ParseError(Exception):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ValidationError(Exception):
    def __init__(self, axiom, witness):
        super().__init__(f"{axiom} fails at {witness}")
        self.axiom = axiom
        self.witness = witness


# -- algebra sources -----------------------------------------------------------------


def _sized(spec, build, size):
    """build(int(size)), or a ParseError naming the spec when the size is no
    integer or build rejects it."""
    try:
        return build(int(size))
    except ValueError as exc:
        raise ParseError(0, f"bad size in {spec!r}: {exc}") from None


def _read_input(path, option):
    """The text of the file an option names; a ParseError naming the option
    when it cannot be read (missing, a directory, no permission, not UTF-8)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(0, f"cannot read {option}: {exc}") from None


def resolve_algebra(spec: str) -> DgAlgebra:
    if ":" in spec:
        kind, _, arg = spec.partition(":")
    else:
        kind, arg = spec, ""
    if kind in ("q", "Q", "field"):
        return build_field()
    if kind == "trunc_poly":
        return _sized(spec, build_truncated_polynomial_algebra, arg)
    if kind == "matrix":
        return _sized(spec, build_matrix_algebra, arg)
    if kind == "path":
        if arg == "a2":
            return a2_quiver_algebra()
        if arg in ("kron", "kronecker"):
            return kronecker_algebra()
        if arg.startswith("a") and arg[1:].isdigit():
            return _sized(spec, lambda n: build_path_algebra(
                list(range(1, n + 1)), [(f"f{i}", i, i + 1) for i in range(1, n)],
                name=f"path:a{n}"), arg[1:])
        raise ParseError(0, f"unknown quiver shorthand {arg!r}")
    if os.path.exists(spec):
        return parse_algebra_file(_read_input(spec, "--algebra"))
    raise ParseError(0, f"unknown algebra spec {spec!r}")


def resolve_ring(spec: str, option="--ring") -> ArtinLocalRing:
    if spec == "dual":
        return dual_numbers()
    if spec.startswith("eps^"):
        return _sized(spec, lambda n: build_truncated_poly(1, n), spec[4:])
    if spec == "eps2x2":
        return build_truncated_poly(2, 2)
    if os.path.exists(spec):
        return parse_ring_file(_read_input(spec, option))
    raise ParseError(0, f"unknown ring spec {spec!r}")


def _parse_rational(tok, lineno):
    """An exact rational from a token or JSON value; a float is a ParseError."""
    try:
        return exact(tok)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(lineno, f"bad rational {tok!r}: {exc}")


def _indices(tokens, size, lineno):
    """The basis indices of a mult or diff line, each in range(size)."""
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit() and int(tok) < size):
            raise ParseError(lineno, f"bad basis index {tok!r} for {size} elements")
    return [int(tok) for tok in tokens]


def parse_algebra_file(text: str) -> DgAlgebra:
    """Line format (# comments allowed):

        name <ident>
        field Q
        basis <label>:<degree> <label>:<degree> ...
        mult <i> <j> <k> <rational>          # b_i b_j += c b_k
        diff <j> <i> <rational>              # d(b_j) += c b_i
        unit <rational> ... <rational>       # coefficient vector
        builder <trunc_poly|matrix|path_a> <n>
    """
    name = "file-algebra"
    labels, degrees = [], []
    mult_entries, diff_entries = [], []
    unit = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "name":
            name = parts[1] if len(parts) > 1 else name
        elif key == "field":
            if len(parts) != 2 or parts[1] != "Q":
                raise ParseError(lineno, "field must be Q")
        elif key == "builder":
            if len(parts) != 3:
                raise ParseError(lineno, "builder needs a kind and a count")
            kind, n = parts[1], parts[2]
            if not n.isdigit():
                raise ParseError(lineno, "builder count must be an integer")
            try:
                return resolve_algebra(
                    {"trunc_poly": "trunc_poly", "matrix": "matrix",
                     "path_a": "path"}[kind]
                    + ":" + (("a" + n) if kind == "path_a" else n)
                )
            except KeyError:
                raise ParseError(lineno, f"unknown builder {kind!r}")
        elif key == "basis":
            for tok in parts[1:]:
                lab, _, deg = tok.partition(":")
                if not lab:
                    raise ParseError(lineno, f"bad basis token {tok!r}")
                labels.append(lab)
                try:
                    degrees.append(int(deg) if deg else 0)
                except ValueError:
                    raise ParseError(lineno, f"bad degree in {tok!r}")
        elif key == "mult":
            if len(parts) != 5:
                raise ParseError(lineno, "mult needs i j k value")
            mult_entries.append((lineno, parts[1:4], _parse_rational(parts[4], lineno)))
        elif key == "diff":
            if len(parts) != 4:
                raise ParseError(lineno, "diff needs j i value")
            diff_entries.append((lineno, parts[1:3], _parse_rational(parts[3], lineno)))
        elif key == "unit":
            unit = [_parse_rational(p, lineno) for p in parts[1:]]
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")
    if not labels:
        raise ParseError(0, "no basis given")
    if unit is None:
        raise ValidationError("unit", "missing unit vector")
    if len(unit) != len(labels):
        raise ValidationError("unit", "unit vector length mismatch")
    mult = {}
    for lineno, tokens, v in mult_entries:
        i, j, k = _indices(tokens, len(labels), lineno)
        chain_add(mult.setdefault((i, j), {}), k, v)
    diff = {}
    for lineno, tokens, v in diff_entries:
        j, i = _indices(tokens, len(labels), lineno)
        chain_add(diff.setdefault(j, {}), i, v)
    labels, degrees, mult, diff = _rebase_unit(labels, degrees, mult, diff, unit)
    alg = DgAlgebra(labels, degrees, mult, diff, name=name, validate=False)
    report = validate_dg_algebra(alg)
    if report:
        first = report[0]
        raise ValidationError(first.axiom, first.witness)
    return alg


def _rebase_unit(labels, degrees, mult, diff, unit):
    """Change basis so that basis[0] is the unit vector: the new basis is the
    unit, then the old basis without the first element the unit involves."""
    n = len(labels)
    pivot = next((i for i, c in enumerate(unit) if c), None)
    if pivot is None:
        raise ValidationError("unit", "unit vector is zero")
    if unit == [1] + [0] * (n - 1):
        return labels, degrees, mult, diff
    order = [i for i in range(n) if i != pivot]
    vecs = [{i: c for i, c in enumerate(unit) if c}] + [{i: 1} for i in order]
    (mult, diff), _ = change_basis(mult, diff, vecs)
    return (["1"] + [labels[i] for i in order], [0] + [degrees[i] for i in order],
            mult, diff)


def parse_ring_file(text: str) -> ArtinLocalRing:
    """basis <labels...> then mult <i> <j> <k> <rational> lines; label 0 = 1."""
    labels, entries = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "basis":
            labels = parts[1:]
        elif parts[0] == "mult":
            if len(parts) != 5:
                raise ParseError(lineno, "mult needs i j k value")
            entries.append((lineno, parts[1:4], _parse_rational(parts[4], lineno)))
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    table = {}
    for lineno, tokens, v in entries:
        i, j, k = _indices(tokens, len(labels), lineno)
        table.setdefault((i, j), {})[k] = v
    return ArtinLocalRing(labels, table)


def parse_mc_file(algebra, ring, text: str) -> MCElement:
    """JSON: [{"word": [label,...], "out": label, "coeffs": {ring_label: rat}}].
    A ParseError unless each entry has shifted degree 1 and no ground letter;
    a ValidationError if a coefficient lies outside m_R."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"bad JSON: {exc.msg}")
    if not isinstance(data, list):
        raise ParseError(0, "an MC file is a JSON list of entries")
    lab_pos = {lab: i for i, lab in enumerate(algebra.labels)}
    ring_pos = {lab: i for i, lab in enumerate(ring.basis_labels)}

    def position(table, lab, n):
        if not isinstance(lab, str) or lab not in table:
            raise ParseError(0, f"entry {n}: unknown label {lab!r}")
        return table[lab]

    comps = {}
    for n, entry in enumerate(data):
        if not (isinstance(entry, dict) and isinstance(entry.get("word"), list)
                and isinstance(entry.get("coeffs"), dict) and "out" in entry):
            raise ParseError(0, f"entry {n}: needs a word list, an out label "
                                f"and a coeffs object")
        word = tuple(position(lab_pos, w, n) for w in entry["word"])
        out = position(lab_pos, entry["out"], n)
        if (sd := shifted_degree(algebra, word, out)) != 1:
            raise ParseError(0, f"entry {n}: shifted degree {sd}, not 1")
        coeffs = [0] * ring.dim
        for lab, val in entry["coeffs"].items():
            coeffs[position(ring_pos, lab, n)] = _parse_rational(val, 0)
        if not (c := ring.element(coeffs)).in_maximal_ideal():
            raise ValidationError("coefficients in m_R", f"entry {n}")
        vec = comps.setdefault(len(word), {}).setdefault(word, {})
        vec[out] = vec.get(out, ring.zero()) + c
    try:
        return MCElement(ring, Cochain(algebra, comps, 1, None))
    except ValueError as exc:  # a word with a ground letter
        raise ParseError(0, str(exc)) from None


# -- report helpers -------------------------------------------------------------------


def _parse_bounds(spec, option):
    """(lo, hi) from "lo..hi"; ParseError unless both are integers, lo <= hi."""
    bad = ParseError(0, f"{option} must be lo..hi with integers lo <= hi, "
                        f"got {spec!r}")
    try:
        lo, hi = map(int, spec.split(".."))
    except ValueError:
        raise bad from None
    if lo > hi:
        raise bad
    return lo, hi


def _parse_range(spec):
    lo, hi = _parse_bounds(spec, "--degree-range")
    return range(lo, hi + 1)


def _parse_window(spec):
    return _parse_bounds(spec, "--t-window")


def _check_nonneg(args, *options):
    """ParseError unless every given option among `options` is >= 0."""
    if any((getattr(args, o) or 0) < 0 for o in options):
        flags = [f"--{o.replace('_', '-')}" for o in options]
        names = " and ".join(filter(None, [", ".join(flags[:-1]), flags[-1]]))
        raise ParseError(0, f"{names} must be >= 0")


def emit(payload, fmt, out):
    if fmt == "structured":
        out.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
    else:
        for line in payload["lines"]:
            out.write(line + "\n")


# -- commands --------------------------------------------------------------------------


def cmd_hh(args, out):
    """hh and hhc: the dims of HH or HH^* with the chain model they ran on."""
    alg = resolve_algebra(args.algebra)
    degrees = _parse_range(args.degree_range)
    compute = hochschild_homology if args.command == "hh" else hochschild_cohomology
    hh = compute(alg, degrees)
    dims = [hh.dims[n] for n in degrees]
    payload = {
        "command": args.command,
        "algebra": alg.name,
        "chain_model": hh.chain_model,
        "degrees": list(degrees),
        "dims": dims,
        "lines": [" ".join(str(d) for d in dims)],
    }
    emit(payload, args.format, out)
    return 0


def cmd_cyclic(args, out):
    alg = resolve_algebra(args.algebra)
    degrees = _parse_range(args.degree_range)
    window = _parse_window(args.t_window)
    hn = negative_cyclic_homology(alg, degrees, window)
    hp = periodic_cyclic_homology(alg, window)
    hc = cyclic_homology(alg, degrees, window)
    ok, _ = sbi_consistent(alg, degrees, window)
    lines = [
        "degree " + " ".join(f"{n:>3}" for n in degrees),
        "HN     " + " ".join(f"{hn.dims[n]:>3}" for n in degrees),
        "HC     " + " ".join(f"{hc.dims[n]:>3}" for n in degrees),
        f"HP     (HP0, HP1) = {hp}",
        f"SBI-consistent: {ok}",
    ]
    payload = {
        "command": "cyclic",
        "algebra": alg.name,
        "chain_model": hn.chain_model,
        "degrees": list(degrees),
        "hn": [hn.dims[n] for n in degrees],
        "hc": [hc.dims[n] for n in degrees],
        "hp": list(hp),
        "sbi_consistent": ok,
        "t_window": list(window),
        "lines": lines,
    }
    emit(payload, args.format, out)
    return 0 if ok else 1


def cmd_ss(args, out):
    _check_nonneg(args, "bar")
    alg = resolve_algebra(args.algebra)
    degrees = _parse_range(args.degree_range)
    window = _parse_window(args.t_window)
    rep = hodge_spectral_sequence(alg, window, degrees, args.bar)
    lines = [f"degenerate_at_E1: {rep.degenerate_at_E1}"]
    for n in degrees:
        cells = [f"t^{i}:{rep.e1[i, n]}" for i in range(window[0], window[1] + 1)
                 if (i, n) in rep.e1]
        lines.append(f"E1[n={n}]  " + " ".join(cells) +
                     f"  | abutment HP: {rep.abutment[n]}")
        ranks = {i: r for (i, m), r in rep.d1_ranks.items() if m == n and r}
        if ranks:
            lines.append(f"d1[n={n}]  nonzero ranks: " +
                         " ".join(f"t^{i}:{r}" for i, r in sorted(ranks.items())))
    payload = {
        "command": "ss",
        "algebra": alg.name,
        "chain_model": rep.chain_model,
        "degenerate_at_E1": rep.degenerate_at_E1,
        "e1": {f"{i},{n}": v for (i, n), v in sorted(rep.e1.items())},
        "d1_ranks": {f"{i},{n}": v for (i, n), v in sorted(rep.d1_ranks.items())},
        "e2": {f"{i},{n}": v for (i, n), v in sorted(rep.e2.items())},
        "abutment": {str(n): v for n, v in sorted(rep.abutment.items())},
        "filtration": {f"{i},{n}": v for (i, n), v in sorted(rep.filtration.items())},
        "lines": lines,
    }
    emit(payload, args.format, out)
    return 0


def cmd_calc(args, out):
    _check_nonneg(args, "arity", "bar", "degree_bound")
    alg = resolve_algebra(args.algebra)
    if args.action == "verify":
        from .calculus import verify_lie_dagger

        reports = verify_lie_dagger(alg, args.arity, args.bar)
    else:
        from .calculus import calculus_defect

        reports = calculus_defect(alg, degree_bound=args.degree_bound,
                                  bar_bound=args.bar)
    lines = [str(r) for r in reports]
    payload = {
        "command": f"calc {args.action}",
        "algebra": alg.name,
        "reports": [
            {"axiom": r.axiom, "status": r.status, "witness": str(r.witness)}
            for r in reports
        ],
        "lines": lines,
    }
    emit(payload, args.format, out)
    bad = [r for r in reports if r.status == "fails"]
    return 1 if bad else 0


def cmd_deform(args, out):
    if args.action == "gauge-check" and args.mc_file2 is None:
        raise ParseError(0, "deform gauge-check needs --mc-file2")
    alg = resolve_algebra(args.algebra)
    ring = resolve_ring(args.ring)
    x = parse_mc_file(alg, ring, _read_input(args.mc_file, "--mc-file"))
    if args.action == "lift":
        target = resolve_ring(args.target_ring, "--target-ring")
        if not target.extends(ring):
            raise ParseError(0, f"--target-ring {args.target_ring} does not "
                                f"extend --ring {args.ring}")
        status, result = lift_order_by_order(alg, x, target)
        if status == "lift":
            lines = [f"lift: ok to {target.basis_labels}"]
            code = 0
        else:
            lines = ["lift: obstructed"]
            code = 1
        payload = {"command": "deform lift", "status": status, "lines": lines}
        emit(payload, args.format, out)
        return code
    # gauge-check
    y = parse_mc_file(alg, ring, _read_input(args.mc_file2, "--mc-file2"))
    witness = gauge_equivalent(x, y)
    ok = witness is not None
    payload = {
        "command": "deform gauge-check",
        "equivalent": ok,
        "lines": [f"gauge-equivalent: {ok}"],
    }
    emit(payload, args.format, out)
    return 0 if ok else 1


def _format_blocks(pc):
    out = []
    for (i, j), mat in sorted(pc.blocks.items()):
        entries = ", ".join(f"[{r},{c}]={v}" for (r, c), v in sorted(mat.items()))
        out.append(f"HH_{i} -> HH_{j} . t^{(j - i) // 2}: {entries}")
    return out


def cmd_period(args, out):
    alg = resolve_algebra(args.algebra)
    degrees = _parse_range(args.degree_range)
    if args.action == "matrix":
        pcs = first_order_period_matrix(alg, degrees)
        lines = [f"HH^2 classes: {len(pcs)}"]
        for k, pc in enumerate(pcs):
            lines.append(f"class {k}:")
            lines.extend("  " + s for s in (_format_blocks(pc) or ["zero"]))
        gt = griffiths_transversality_check(alg, degrees, pcs)
        lines.append(f"transversality(all blocks at t^-1): {gt['ok']}")
        payload = {
            "command": "period matrix",
            "classes": len(pcs),
            "blocks": [
                {f"{i}->{j}": {f"{r},{c}": str(v) for (r, c), v in sorted(m.items())}
                 for (i, j), m in sorted(pc.blocks.items())}
                for pc in pcs
            ],
            "transversality": gt["ok"],
            "lines": lines,
        }
        emit(payload, args.format, out)
        return 0
    if args.action == "torelli":
        dim2, rank, inj = torelli_rank(alg, degrees)
        vac = " (vacuous)" if dim2 == 0 else ""
        lines = [f"dim HH^2={dim2}, rank={rank}, "
                 f"{'injective' + vac if inj else 'not injective'}"]
        payload = {
            "command": "period torelli",
            "dim_hh2": dim2,
            "rank": rank,
            "injective": inj,
            "lines": lines,
        }
        emit(payload, args.format, out)
        return 0
    if args.action == "vdb":
        if args.pi != "unit":
            raise ParseError(0, "only --pi unit is supported")
        if args.cy_dim != 0:
            raise ParseError(0, "--pi unit is a class in HH_0, so it needs --cy-dim 0")
        pi = {(0, ()): 1}
        rep = vdb_duality_check(alg, args.cy_dim, pi, degrees)
        lines = []
        for s in sorted(rep):
            r = rep[s]
            lines.append(f"degree {s}: iso={r['iso']}")
        all_iso = all(r["iso"] for r in rep.values())
        lines.append(f"duality holds in all computed degrees: {all_iso}")
        payload = {
            "command": "period vdb",
            "degrees": sorted(rep),
            "iso": {str(s): rep[s]["iso"] for s in rep},
            "all_iso": all_iso,
            "lines": lines,
        }
        emit(payload, args.format, out)
        return 0
    # ptd
    if args.mc_file is None:
        raise ParseError(0, "period ptd needs --mc-file")
    ring = resolve_ring(args.ring)
    x = parse_mc_file(alg, ring, _read_input(args.mc_file, "--mc-file"))
    window = _parse_window(args.t_window)
    try:
        ptd = period_map_artin(alg, x, window)
    except NotStabilized as exc:
        emit({"command": "period ptd", "error": str(exc), "lines": [str(exc)]},
             args.format, out)
        return 1
    neg = ptd.trivialization.negative_part()
    lines = ["PTD built: reduction trivial, trivialization verified",
             f"negative t-blocks of the gauge element: {len(neg.blocks)}"]
    for (sig, m, m2) in sorted(neg.blocks):
        lines.append(f"  HH_{m} -> HH_{m2} . t^{sig}")
    payload = {
        "command": "period ptd",
        "negative_blocks": [f"{sig},{m},{m2}" for (sig, m, m2) in sorted(neg.blocks)],
        "lines": lines,
    }
    emit(payload, args.format, out)
    return 0


_RANGE_OPTIONS = ("--degree-range", "--t-window")
_RANGE = re.compile(r"-?\d+\.\.-?\d+\Z")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes a negative `lo..hi` after a range option.

    argparse reads a separate token such as `-6..6` as an option flag, so
    `--t-window -6..6` would fail; it is glued to its option as
    `--t-window=-6..6` before parsing.  Subparsers inherit this class.
    """

    def parse_known_args(self, args=None, namespace=None):
        glued = []
        for arg in sys.argv[1:] if args is None else args:
            if glued and glued[-1] in _RANGE_OPTIONS and _RANGE.match(arg):
                glued[-1] += "=" + arg
            else:
                glued.append(arg)
        return super().parse_known_args(glued, namespace)


def build_parser():
    ap = _Parser(
        prog="ncperiod",
        description="Hochschild/cyclic homology, deformations and period "
                    "mappings of finite-dimensional algebras over Q.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, degree_default="0..4"):
        p.add_argument("--algebra", required=True,
                       help="trunc_poly:N | matrix:N | path:a2 | path:aN | "
                            "path:kron | q | file path")
        p.add_argument("--degree-range", default=degree_default)
        p.add_argument("--format", choices=["table", "structured"],
                       default="table")

    p = sub.add_parser("hh", help="Hochschild homology dims")
    p.add_argument("action", nargs="?", default="compute", choices=["compute"])
    common(p)
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("hhc", help="Hochschild cohomology dims")
    p.add_argument("action", nargs="?", default="compute", choices=["compute"])
    common(p)
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("cyclic", help="HN/HP/HC dims and SBI consistency")
    common(p)
    p.add_argument("--t-window", default="-6..6")
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("ss", help="Hodge-type spectral sequence report")
    common(p, degree_default="0..1")
    p.add_argument("--t-window", default="-6..6")
    p.add_argument("--bar", type=int, default=None)
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("calc", help="chain-level axiom suites")
    p.add_argument("action", choices=["verify", "defect"])
    common(p)
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--bar", type=int, default=4)
    p.add_argument("--degree-bound", type=int, default=2)
    p.set_defaults(func=cmd_calc)

    p = sub.add_parser("deform", help="Maurer-Cartan lifting and gauge checks")
    p.add_argument("action", choices=["lift", "gauge-check"])
    common(p)
    p.add_argument("--ring", default="dual")
    p.add_argument("--target-ring", default="eps^3")
    p.add_argument("--mc-file", required=True)
    p.add_argument("--mc-file2")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("period", help="period mapping diagnostics")
    p.add_argument("action", choices=["matrix", "torelli", "vdb", "ptd"])
    common(p)
    p.add_argument("--ring", default="dual")
    p.add_argument("--mc-file")
    p.add_argument("--t-window", default="-6..6")
    p.add_argument("--cy-dim", type=int, default=0)
    p.add_argument("--pi", default="unit")
    p.set_defaults(func=cmd_period)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ParseError, CyclicQuiver) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except NotDegreeZero as exc:
        sys.stderr.write(f"unsupported algebra: {exc}\n")
        return 2
    except (ValidationError, NotArtinLocal, NotMaurerCartan) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1
    except NotStabilized as exc:
        sys.stderr.write(f"{exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
