"""API-reference generator: walks the package, emits markdown.

No sphinx in this environment, so the reference is generated directly from
the live modules: public classes with their public methods and first
docstring lines, public functions with signatures.

Usage::

    python -m repro.apidoc [output.md]       # default docs/api.md
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import sys

MODULES = [
    "repro.nn",
    "repro.spice",
    "repro.spice.measure",
    "repro.spice.corners",
    "repro.spice.tf",
    "repro.core",
    "repro.core.synthetic",
    "repro.analysis",
    "repro.analysis.erc",
    "repro.analysis.configlint",
    "repro.analysis.codelint",
    "repro.analysis.flow",
    "repro.analysis.rngflow",
    "repro.obs",
    "repro.obs.report",
    "repro.obs.store",
    "repro.obs.tail",
    "repro.resilience",
    "repro.resilience.policy",
    "repro.resilience.checkpoint",
    "repro.circuits",
    "repro.baselines",
    "repro.experiments",
    "repro.experiments.figures",
    "repro.experiments.report",
]


def _first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.splitlines()[0] if doc else ""


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def _document_class(cls) -> list[str]:
    lines = [f"### class `{cls.__name__}`", "", _first_line(cls), ""]
    methods = []
    for name, member in inspect.getmembers(cls):
        if name.startswith("_") or not callable(member):
            continue
        if not (inspect.isfunction(member) or inspect.ismethod(member)):
            continue
        if member.__qualname__.split(".")[0] != cls.__name__:
            continue  # inherited
        methods.append((name, member))
    for name, member in methods:
        lines.append(f"- `{name}{_signature(member)}` — "
                     f"{_first_line(member)}")
    if methods:
        lines.append("")
    return lines


def document_module(module_name: str) -> list[str]:
    """Markdown section for one module's public API."""
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", "", _first_line(module), ""]
    exported = getattr(module, "__all__", None)
    members = []
    for name, member in inspect.getmembers(module):
        if name.startswith("_"):
            continue
        if exported is not None and name not in exported:
            continue
        if inspect.ismodule(member):
            continue
        origin = getattr(member, "__module__", "")
        if exported is None and not str(origin).startswith("repro"):
            continue
        members.append((name, member))
    for name, member in members:
        if inspect.isclass(member):
            lines.extend(_document_class(member))
        elif callable(member):
            lines.append(f"### `{name}{_signature(member)}`")
            lines.append("")
            lines.append(_first_line(member))
            lines.append("")
    return lines


def build_api_docs(output: str | pathlib.Path | None = None) -> str:
    """Generate the full reference; optionally write it to ``output``."""
    lines = [
        "# API reference",
        "",
        "*Generated by `python -m repro.apidoc` — regenerate after changing",
        "public signatures.*",
        "",
    ]
    for module_name in MODULES:
        lines.extend(document_module(module_name))
    text = "\n".join(lines)
    if output is not None:
        pathlib.Path(output).write_text(text)
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apidoc",
        description="Write the markdown API reference of the package.")
    parser.add_argument("output", nargs="?", default="docs/api.md",
                        help="file to write (default: docs/api.md)")
    args = parser.parse_args(argv)
    build_api_docs(args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
