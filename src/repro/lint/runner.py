"""File collection and rule dispatch for repro.lint.

The runner turns path arguments into a set of parsed modules, maps each
file to its dotted module name (everything from the last ``repro`` path
component down, so fixture trees under ``tmp/src/repro/...`` lint the
same way the real package does), runs the per-file determinism
(``D1xx``) and robustness (``R6xx``) families, and then anchors the project-scope families:

* order stability and observability gating need the engine/fastpath
  pair;
* span gating needs the sweep orchestrator and the idICN scheduler;
* the whole-program families (seed-flow ``S7xx``, worker-safety
  ``W8xx``, metrics-contract ``M9xx``) run over a
  :class:`~repro.lint.graph.ModuleGraph`/:class:`~repro.lint.graph.CallGraph`
  built from every collected ``repro.*`` module plus the resolved
  anchors.

Anchors are taken from the linted set first and fall back to the
package directory on disk (so ``python -m repro.lint src/repro/idicn``
still checks the engine hot loops of the package it belongs to).  Inline
suppressions are applied last, against every family uniformly; the
suppression comments themselves are checked (unknown ids are ``E998``
errors, and ``strict`` runs report unused entries as ``E997``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import (
    bounds,
    determinism,
    metricscontract,
    obsgate,
    order,
    rules,
    seedflow,
    workersafety,
)
from .diagnostics import Diagnostic, Report
from .graph import CallGraph, ModuleGraph
from .suppressions import Suppression, SuppressionIndex

#: Module names the project-scope families anchor on.
_ENGINE_MODULE = "repro.core.engine"
_FASTPATH_MODULE = "repro.core.fastpath"
_SWEEP_MODULE = "repro.core.sweep"
_SIMNET_MODULE = "repro.idicn.simnet"


@dataclass(frozen=True)
class SourceFile:
    """One collected file: location, module identity, and parse results."""

    path: Path
    display: str
    module: str
    source: str
    tree: ast.Module | None
    error: str | None = None


def module_name(path: Path) -> str:
    """Dotted module name from the last ``repro`` path component down.

    Files outside any ``repro`` package keep their stem as the module
    name, which places them outside every package-scoped rule family.
    """
    parts = list(path.parts)
    anchor = None
    for index, part in enumerate(parts):
        if part == "repro":
            anchor = index
    if anchor is None:
        return path.stem
    dotted = [p for p in parts[anchor:-1]] + [path.stem]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Python files under the given paths, sorted and deduplicated."""
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            out.append(candidate)
    return out


def _display(path: Path) -> str:
    """Path as printed in diagnostics: relative to cwd when possible."""
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def _load(path: Path) -> SourceFile:
    display = _display(path)
    module = module_name(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return SourceFile(path, display, module, "", None, str(exc))
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return SourceFile(
            path, display, module, source, None,
            f"syntax error: {exc.msg} (line {exc.lineno})",
        )
    except ValueError as exc:
        # e.g. null bytes in the source: not a SyntaxError, but the
        # file is just as unparseable — report it, don't crash the run.
        return SourceFile(
            path, display, module, source, None, f"unparseable file: {exc}"
        )
    return SourceFile(path, display, module, source, tree)


def _resolve_anchor(
    files: dict[str, SourceFile],
    module: str,
    sources: dict[str, str],
) -> SourceFile | None:
    """Find an anchor module: from the linted set, else from disk.

    The disk fallback walks up from any linted ``repro`` module to the
    package root and loads the sibling file, so partial lint runs keep
    the cross-file guarantees of the whole package.  Loaded sources are
    recorded in ``sources`` so inline suppressions still apply.
    """
    found = files.get(module)
    if found is not None:
        return found
    relative = Path(*module.split(".")[1:]).with_suffix(".py")
    for source_file in files.values():
        if not source_file.module.startswith("repro"):
            continue
        parts = list(source_file.path.parts)
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro":
                candidate = Path(*parts[: index + 1]) / relative
                if candidate.is_file():
                    loaded = _load(candidate)
                    sources[loaded.display] = loaded.source
                    return loaded
                break
    return None


def _in_program(module: str) -> bool:
    """Whether a module belongs to the whole-program ``repro`` graph."""
    return module == "repro" or module.startswith("repro.")


def lint_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    strict: bool = False,
) -> Report:
    """Lint files under ``paths`` and return the full report.

    ``select`` restricts the run to the given rule ids; ``ignore``
    removes ids from whatever is selected.  Inline suppressions are
    applied on top of both.  ``strict`` additionally reports
    suppression comments that silenced nothing (``E997``).
    """
    selected = _selected_rules(select, ignore)
    collected = [_load(path) for path in collect_files(paths)]
    files = {f.module: f for f in collected}
    sources = {f.display: f.source for f in collected}
    report = Report(files_checked=len(collected))
    raw: list[Diagnostic] = []

    for source_file in collected:
        if source_file.error is not None:
            raw.append(
                Diagnostic(
                    rule=rules.SYNTAX_ERROR,
                    path=source_file.display,
                    line=1,
                    col=0,
                    message=source_file.error,
                )
            )
            continue
        assert source_file.tree is not None
        raw.extend(
            determinism.check_module(
                source_file.display, source_file.module, source_file.tree
            )
        )
        raw.extend(
            bounds.check_module(
                source_file.display, source_file.module, source_file.tree
            )
        )

    engine = _resolve_anchor(files, _ENGINE_MODULE, sources)
    fastpath = _resolve_anchor(files, _FASTPATH_MODULE, sources)
    hot_modules = [
        (anchor.display, anchor.tree)
        for anchor in (engine, fastpath)
        if anchor is not None and anchor.tree is not None
    ]
    if hot_modules:
        raw.extend(order.check_order(hot_modules))
        raw.extend(obsgate.check_obsgate(hot_modules))

    sweep = _resolve_anchor(files, _SWEEP_MODULE, sources)
    simnet = _resolve_anchor(files, _SIMNET_MODULE, sources)
    span_modules = [
        (anchor.display, anchor.tree)
        for anchor in (sweep, simnet)
        if anchor is not None and anchor.tree is not None
    ]
    if span_modules:
        raw.extend(obsgate.check_spangate(span_modules))

    # Whole-program families over every repro.* module plus anchors.
    program: dict[str, tuple[str, ast.Module]] = {}
    anchors = (engine, fastpath, sweep, simnet)
    for source_file in list(collected) + [a for a in anchors if a is not None]:
        if source_file.tree is None or not _in_program(source_file.module):
            continue
        program.setdefault(
            source_file.module, (source_file.display, source_file.tree)
        )
    if program:
        graph = ModuleGraph(program)
        callgraph = CallGraph(graph)
        raw.extend(seedflow.check_seedflow(graph, callgraph))
        raw.extend(workersafety.check_workersafety(graph, callgraph))
        raw.extend(metricscontract.check_metrics(graph, callgraph))

    # Suppression indexes are built eagerly for every file so the
    # comments themselves can be checked, not just applied.
    indexes = {
        display: SuppressionIndex.from_source(source)
        for display, source in sources.items()
    }
    for display in sorted(indexes):
        for entry in indexes[display].entries:
            unknown = sorted(
                rule_id
                for rule_id in entry.ids
                if rule_id != "ALL" and rule_id not in rules.RULES_BY_ID
            )
            if unknown:
                raw.append(
                    Diagnostic(
                        rule=rules.UNKNOWN_SUPPRESSION,
                        path=display,
                        line=entry.line,
                        col=0,
                        message=(
                            "suppression comment names unknown rule "
                            f"id(s) {', '.join(unknown)}; it can never "
                            "match a finding"
                        ),
                    )
                )

    # Apply rule selection, dedup, and inline suppressions.
    used: set[tuple[str, Suppression]] = set()
    seen: set[tuple[str, str, int, int]] = set()
    for diagnostic in raw:
        if diagnostic.rule.id not in selected:
            continue
        key = (
            diagnostic.rule.id,
            diagnostic.path,
            diagnostic.line,
            diagnostic.col,
        )
        if key in seen:
            continue
        seen.add(key)
        index = indexes.get(diagnostic.path)
        entry = (
            index.match(diagnostic.rule.id, diagnostic.line)
            if index is not None
            else None
        )
        if entry is not None:
            used.add((diagnostic.path, entry))
            report.suppressed += 1
            continue
        report.diagnostics.append(diagnostic)

    if strict and rules.UNUSED_SUPPRESSION.id in selected:
        full_selection = select is None
        for display in sorted(indexes):
            for entry in indexes[display].entries:
                if (display, entry) in used:
                    continue
                known = {
                    rule_id
                    for rule_id in entry.ids
                    if rule_id in rules.RULES_BY_ID
                }
                relevant = bool(known & selected) or (
                    "ALL" in entry.ids and full_selection
                )
                if not relevant:
                    continue
                ids = ", ".join(sorted(entry.ids))
                scope = "file-wide " if entry.file_wide else ""
                report.diagnostics.append(
                    Diagnostic(
                        rule=rules.UNUSED_SUPPRESSION,
                        path=display,
                        line=entry.line,
                        col=0,
                        message=(
                            f"{scope}suppression of {ids} matched no "
                            "finding this run; remove it or re-justify it"
                        ),
                    )
                )
    return report


def _selected_rules(
    select: Iterable[str] | None, ignore: Iterable[str] | None
) -> frozenset[str]:
    selected = (
        {r.upper() for r in select}
        if select is not None
        else set(rules.RULES_BY_ID)
    )
    unknown = selected - set(rules.RULES_BY_ID)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    if ignore is not None:
        ignored = {r.upper() for r in ignore}
        unknown = ignored - set(rules.RULES_BY_ID)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}"
            )
        selected -= ignored
    return frozenset(selected)
