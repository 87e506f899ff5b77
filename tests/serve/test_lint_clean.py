"""The serve subsystem must stay clean under the repo's own analyzers.

This is the same battery the CI lint gate runs (codelint + the RNG-flow
pass) pinned to ``src/repro/serve``, so a regression shows up as a
focused test failure here before it trips the repo-wide baseline gate.
"""

import pathlib

from repro.analysis.codelint import lint_source
from repro.analysis.flow import iter_python_files
from repro.analysis.rngflow import check_source as check_rngflow

REPO = pathlib.Path(__file__).resolve().parents[2]
SERVE = REPO / "src/repro/serve"


def render(diags):
    return "\n".join(d.render() for d in diags)


def test_serve_package_exists():
    assert (SERVE / "jobs.py").exists()


def test_codelint_clean():
    diags = []
    for path in iter_python_files([SERVE]):
        diags.extend(lint_source(path.read_text(encoding="utf-8"),
                                 str(path)))
    assert not diags, render(diags)


def test_rngflow_clean():
    diags = []
    for path in iter_python_files([SERVE]):
        diags.extend(check_rngflow(path.read_text(encoding="utf-8"),
                                   str(path)))
    assert not diags, render(diags)
