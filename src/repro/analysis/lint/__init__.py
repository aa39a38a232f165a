"""Static analysis of the reproduction's determinism contract.

The staged engine promises byte-identical study results across cache
on/off and ``jobs=1`` vs ``jobs=N`` — a promise that rests on code
conventions (named RNG streams, artifact-store-only I/O, no wall clock
in keyed paths) that this package makes checkable on every diff:

- :mod:`engine` parses each file once and runs every registered rule
  over the shared AST, honouring ``# repro: noqa[RULE]`` suppressions;
  project rules additionally share one lazily-built call graph per run;
- :mod:`graph` builds the project-wide symbol table and call graph the
  cross-module rules consume;
- :mod:`rules` holds the rule pack (``DET001``–``DET003`` determinism,
  ``PUR001``–``PUR002`` stage purity, ``CONC001``–``CONC003`` shard
  isolation);
- :mod:`baseline` grandfathers pre-existing findings in a committed
  JSON file so the CI gate only fails on *new* violations;
- :mod:`report` renders findings ruff-style, as JSON, or as SARIF.

Run it via ``repro lint [paths]``, ``make lint-repro`` (all rules), or
``make lint-contracts`` (the graph-backed CONC pack only).
"""

from repro.analysis.lint.baseline import Baseline, BaselineEntry
from repro.analysis.lint.engine import (
    FileContext,
    Finding,
    LintResult,
    LintStats,
    LintUsageError,
    Project,
    ProjectRule,
    Rule,
    all_rules,
    lint_paths,
    register,
    run_lint,
)
from repro.analysis.lint.report import render_json, render_sarif, render_text

__all__ = [
    "Baseline",
    "BaselineEntry",
    "FileContext",
    "Finding",
    "LintResult",
    "LintStats",
    "LintUsageError",
    "Project",
    "ProjectRule",
    "Rule",
    "all_rules",
    "lint_paths",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]
