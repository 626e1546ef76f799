"""Repo-specific static analysis for the reproduction's contracts.

The quantitative claims (Figures 6-10) rest on bit-identical seeded
simulation, and two engines now share that contract.  ``repro.lint``
checks the part of that contract a passing run cannot see: the shape of
the code.  A property Python exposes on a live object (a signature, a
dataclass's fields, a registry, a class's methods) is asserted on the
object by a test instead; engine parity and cache conformance live in
the differential suite and the cache tests (see DESIGN.md, "Runtime
contracts").  The families:

* **determinism** (D1xx) — every random draw in the simulation packages
  flows through a seeded ``np.random.Generator``; no stdlib ``random``,
  wall clocks, or OS entropy;
* **order stability** (O4xx) — no unordered iteration or ``popitem`` in
  the engine hot modules;
* **observability gating** (O5xx) — sink touches in the hot loops stay
  behind their zero-overhead guards;
* **robustness** (R6xx) — every queue-like container and ``while True``
  loop in ``repro.idicn`` has a bound or an exit;
* **seed flow** (S7xx) — whole-program: every generator's seed traces
  to a SeedSequence/seeded-config lineage, never to ambient entropy or
  a literal smuggled into an already-seeded call chain;
* **worker safety** (W8xx) — whole-program: everything reachable from
  the sweep's worker dispatch is picklable, writes no module-level
  state, and captures no open handles or locks;
* **metrics contract** (M9xx) — whole-program: observed metric families
  are registered with help text, label sets stay consistent, wall-clock
  values stay on the allow-list, schema versions stay named constants.

The whole-program families run on a module/call graph and a shared
data-flow engine (``repro.lint.graph``, ``repro.lint.dataflow``) built
once per run over every collected ``repro.*`` module.

Run as ``python -m repro.lint [paths]`` (text, ``--format json``, or
``--format github`` for CI annotations), or through :func:`lint_paths`
from tests.  Findings are silenced with inline
``# lint: disable=<rule>`` comments next to a justification; the
comments themselves are linted (unknown ids are ``E998``, and
``--strict`` reports entries that matched nothing as ``E997``).
See DESIGN.md, "Static analysis & determinism contract".
"""

from .cli import main
from .diagnostics import Diagnostic, Report, Rule, Severity
from .rules import ALL_RULES, DETERMINISM_PACKAGES, RULES_BY_ID
from .runner import lint_paths

__all__ = [
    "ALL_RULES",
    "DETERMINISM_PACKAGES",
    "Diagnostic",
    "Report",
    "Rule",
    "RULES_BY_ID",
    "Severity",
    "lint_paths",
    "main",
]
