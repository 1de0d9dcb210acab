"""Outside-in per-layer spans for the traced benchmark pass.

Spans are named by concept, not by function: one span name may cover several
functions that do the same job in different modules.  `Tracer.install`
replaces each listed function with a timing wrapper, in its defining module
or class and in every loaded module that holds a reference to it (a
`from .exactlin import rref` copy, or the benchmark's own imports), so no
call is silently missed.  Nothing in the package is edited; `uninstall`
restores every replaced binding.

A span's self time is its duration minus the durations of the spans nested
inside it.  Work a hook does to compute a counter runs outside every span,
so it lands in `bench.untraced_s` and in the trace overhead, never in a
layer's self time.
"""

import importlib
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# span name -> "module:qualname" of every function it covers
SPANS = {
    "exactlin.complex_sdr": ["ncperiod.exactlin:complex_sdr"],
    "exactlin.homology_at": ["ncperiod.exactlin:homology_at"],
    "exactlin.rref": ["ncperiod.exactlin:rref"],
    "exactlin.solve": ["ncperiod.exactlin:solve"],
    "hochschild.d_assembly": [
        "ncperiod.cyclic:boundary_matrices",
        "ncperiod.hochschild:_weight_graded_boundary",
        "ncperiod.hochschild:_cochain_diff_matrix",
    ],
    "hochschild.chain_spaces": [
        "ncperiod.cyclic:chain_spaces",
        "ncperiod.hochschild:ChainBasis.__init__",
    ],
    "hochschild.gerstenhaber_bracket": ["ncperiod.hochschild:gerstenhaber_bracket"],
    "cyclic.transfer": ["ncperiod.cyclic:reduce_mixed_complex"],
    "cyclic.windowed_homology": ["ncperiod.cyclic:TruncatedLaurentComplex.homology"],
    "calculus.pair_loop": ["ncperiod.calculus:verify_lie_dagger"],
    "calculus.lie_matrix": ["ncperiod.calculus:OperatorSpace.lie_matrix"],
    "calculus.operator_space": [
        "ncperiod.calculus:OperatorSpace.__init__",
        "ncperiod.calculus:OperatorSpace.operator_matrix",
    ],
    "deform.lift": ["ncperiod.deform:lift_order_by_order"],
    "deform.gauge_equivalent": ["ncperiod.deform:gauge_equivalent"],
    "deform.mc_residual": ["ncperiod.deform:mc_residual"],
    "period.blockop_compose": ["ncperiod.period:BlockOp.compose"],
    "period.block_exp": ["ncperiod.period:block_exp"],
    "period.ptd_isomorphic": ["ncperiod.period:ptd_isomorphic"],
    "period.deformed_differential": ["ncperiod.period:deformed_differential"],
    "period.trivialize": ["ncperiod.period:trivialize_periodic"],
    "coeff.multiply": ["ncperiod.coeff:ArtinLocalRing.multiply"],
    "coeff.filtration_level": ["ncperiod.coeff:ArtinLocalRing.filtration_level"],
}

# spans whose call count is reported next to their self time
COUNTED = (
    "exactlin.complex_sdr",
    "hochschild.gerstenhaber_bracket",
    "cyclic.windowed_homology",
    "calculus.lie_matrix",
    "period.blockop_compose",
    "coeff.multiply",
    "coeff.filtration_level",
)


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _sdr_max_bits(spots):
    """Largest numerator/denominator bit length in p and h of an SDR."""
    best = 0
    for s in spots:
        for vec in (*s.proj_rows, *s.hmty_cols):
            for q in vec.values():
                best = max(best, _bits(q))
    return best


def _resolve(target):
    modname, qualname = target.split(":")
    owner = importlib.import_module(modname)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock   # seconds; calib.RefClock gives reference seconds
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.max_bits = 0
        self._stack = []   # frames [span name, seconds covered by child spans]
        self._undo = []    # (namespace owner, attribute, original value)

    # -- hooks: counters computed outside the timed interval --------------------

    def _before(self, name, args, kwargs):
        if name == "exactlin.complex_sdr":
            self.counts["sdr.cols"] += sum(args[0] if args else kwargs["dims"])
            parent = self._stack[-1][0] if self._stack else None
            if parent == "cyclic.transfer":
                self.counts["sdr.built_for_reduction"] += 1
        elif name == "exactlin.rref":
            m = args[0] if args else kwargs["m"]
            self.counts["rref.nnz"] += len(m.entries)

    def _after(self, name, result):
        if name == "exactlin.complex_sdr":
            self.max_bits = max(self.max_bits, _sdr_max_bits(result))

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        stack, before, after, clock = self._stack, self._before, self._after, self.clock

        @wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            before(name, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
            after(name, result)
            if stack:
                stack[-1][1] += clock() - t_in
            return result

        return wrapper

    def _count_span_adds(self, fn):
        counts = self.counts

        @wraps(fn)
        def add(span, vec):
            grew = fn(span, vec)
            counts["span.add"] += 1
            counts["span.grew"] += grew
            return grew

        return add

    def _replace(self, owner, attr, new):
        """Rebind owner.attr and every module-level alias of the original."""
        old = getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not space or mod is owner:
                continue
            for key, val in list(space.items()):
                if val is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self):
        for name, targets in SPANS.items():
            for target in targets:
                owner, attr = _resolve(target)
                self._replace(owner, attr, self._span(name, getattr(owner, attr)))
        owner, attr = _resolve("ncperiod.exactlin:IncrementalSpan.add")
        self._replace(owner, attr, self._count_span_adds(getattr(owner, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- report -----------------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of one traced pass that took wall_s seconds."""
        out = {f"{name}.self_s": (self.self_s[name], "s") for name in SPANS}
        for name in COUNTED:
            out[f"{name}.calls"] = (self.calls[name], "count")
        c = self.counts
        out["exactlin.complex_sdr.cols"] = (c["sdr.cols"], "count")
        out["exactlin.complex_sdr.max_bits"] = (self.max_bits, "bits")
        out["exactlin.rref.nnz"] = (c["rref.nnz"], "count")
        out["exactlin.span.useful_frac"] = (
            c["span.grew"] / c["span.add"] if c["span.add"] else 0.0, "ratio")
        requested = self.calls["cyclic.transfer"]
        out["cyclic.reduce.hit_frac"] = (
            1 - c["sdr.built_for_reduction"] / requested if requested else 0.0,
            "ratio")
        out["bench.untraced_s"] = (wall_s - sum(self.self_s.values()), "s")
        return out
