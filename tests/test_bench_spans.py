"""The benchmark's traced pass wraps package functions named by
`module:qualname` in `bench/spans.py`.  A rename the table does not follow
breaks that pass while the rest of the suite stays green, so every target
is resolved here."""

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [t for group in spans.SPANS.values() for t in group]
    targets.append("ncperiod.exactlin:IncrementalSpan.add")
    for target in targets:
        owner, attr = spans._resolve(target)
        assert callable(getattr(owner, attr)), target
