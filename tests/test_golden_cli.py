"""The README's CLI lines, in both output formats, against committed output.

`tests/golden/readme_cli.txt` holds the stdout and exit code of every line
of the README's CLI block under `--format table` and `--format structured`.
The file pins the exact bytes the CLI prints, so a change of internal
representation (say, of coefficient types) that alters any printed value
fails here, while `test_criterion_10_cli_determinism` only compares runs of
one build.  Regenerate with `PYTHONPATH=src python tests/test_golden_cli.py`
only when an output change is intended.
"""

import json
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from test_cli import run_cli  # noqa: E402

GOLDEN = HERE / "golden" / "readme_cli.txt"

README_LINES = [
    "ncperiod hh     --algebra trunc_poly:2 --degree-range 0..4",
    "ncperiod hhc    --algebra matrix:2 --degree-range 0..3",
    "ncperiod cyclic --algebra trunc_poly:2 --degree-range 0..4 --t-window -6..6",
    "ncperiod ss     --algebra path:a2",
    "ncperiod calc verify --algebra path:a2 --arity 3 --bar 4",
    "ncperiod calc defect --algebra trunc_poly:2 --degree-bound 2 --bar 4",
    "ncperiod deform lift --algebra trunc_poly:2 --ring dual --target-ring eps^3 --mc-file x.json",
    "ncperiod deform gauge-check --algebra trunc_poly:2 --ring dual --mc-file x.json --mc-file2 y.json",
    "ncperiod period matrix  --algebra trunc_poly:2 --degree-range 0..4",
    "ncperiod period torelli --algebra matrix:2 --degree-range 0..3",
    "ncperiod period vdb     --algebra matrix:2 --degree-range 0..2 --cy-dim 0 --pi unit",
    "ncperiod period ptd     --algebra trunc_poly:2 --ring dual --mc-file x.json",
]

MC_FILES = {
    "x.json": [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": "1"}}],
    "y.json": [{"word": ["x", "x"], "out": "1", "coeffs": {"eps": "2"}}],
}


def render(workdir):
    """Run every README line in both formats; MC files go to `workdir`."""
    for name, payload in MC_FILES.items():
        (workdir / name).write_text(json.dumps(payload))
    parts = []
    for line in README_LINES:
        argv = [str(workdir / a) if a in MC_FILES else a
                for a in shlex.split(line)[1:]]
        for fmt in ("table", "structured"):
            code, out = run_cli(argv + ["--format", fmt])
            parts.append(f"$ {' '.join(line.split())} --format {fmt}\n"
                         f"exit {code}\n{out}")
    return "".join(parts)


def test_readme_lines_are_the_readme_cli_block():
    readme = (HERE.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [l.split("#")[0].rstrip() for l in block.strip().splitlines()]
    assert lines == README_LINES


def test_readme_cli_output_matches_golden(tmp_path):
    assert render(tmp_path) == GOLDEN.read_text()


def test_readme_cyclic_line_computes_each_windowed_homology_once(monkeypatch):
    """The README's `ncperiod cyclic` line computes the homology of each
    (reduction, t-window, degree) spot once and still prints its golden
    output."""
    from ncperiod import cyclic

    spots = []
    homology = cyclic.TruncatedLaurentComplex.homology

    def counted(cx, r):
        spots.append((id(cx.blocks), cx.window, r))
        return homology(cx, r)

    monkeypatch.setattr(cyclic.TruncatedLaurentComplex, "homology", counted)
    line = README_LINES[2]
    code, out = run_cli(shlex.split(line)[1:] + ["--format", "table"])
    head = f"$ {' '.join(line.split())} --format table\n"
    want = GOLDEN.read_text().split(head, 1)[1].split("$ ", 1)[0]
    assert f"exit {code}\n{out}" == want
    assert spots and len(spots) == len(set(spots))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(render(Path(d)))
