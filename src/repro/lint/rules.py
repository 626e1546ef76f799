"""The rule catalogue: every repro.lint rule, its id, and its severity.

Rule ids are grouped by family:

* ``D1xx`` — determinism: no stdlib ``random``, no wall-clock or OS
  entropy, no unseeded or global-state NumPy RNGs inside the simulation
  packages (``repro.core``, ``repro.cache``, ``repro.workload``,
  ``repro.topology``, ``repro.idicn``);
* ``O4xx`` — order stability: no iteration over unordered containers
  and no ``dict.popitem`` in the engine/fastpath hot modules, where
  iteration order feeds simulation results;
* ``O5xx`` — observability gating: instrumentation (observer, recorder,
  tracer) touched inside an engine hot loop must sit behind an ``if``
  on a sink-typed name, preserving the zero-overhead-when-disabled
  contract of ``repro.obs``;
* ``R6xx`` — robustness: every wait inside ``repro.idicn`` must be
  bounded — no queue-like container without a capacity bound, no
  ``while True`` loop nothing can exit (the overload ladder's
  guarantees collapse if any component can wait forever);
* ``S7xx`` — seed-flow: generator seeds must keep a
  ``SeedSequence``/``seeded_configs`` lineage interprocedurally — no
  ambient sources, no literal re-seeding inside chains that already
  carry an rng, no module-scope generators;
* ``W8xx`` — worker-safety: callables reachable from ``run_sweep``'s
  worker dispatch must be picklable top-level functions that neither
  write module-level state nor capture open handles/locks;
* ``M9xx`` — metrics/schema contract: every observed family is
  registered with help text, label sets match at every call site,
  wall-clock-valued families appear in ``WALLCLOCK_METRICS``, and
  schema-version strings come from the ``repro.obs`` constants.

``E999`` reports files the linter could not parse; ``E998`` reports
unknown rule ids inside ``# lint: disable`` comments; ``E997`` (under
``--strict``) reports suppressions that matched nothing.
"""

from __future__ import annotations

from .diagnostics import Rule, Severity

#: Packages whose modules are subject to the determinism (D1xx) family.
DETERMINISM_PACKAGES = (
    "repro.core",
    "repro.cache",
    "repro.workload",
    "repro.topology",
    "repro.idicn",
)

SYNTAX_ERROR = Rule(
    id="E999",
    name="syntax-error",
    severity=Severity.ERROR,
    summary="file could not be parsed as Python",
)

UNKNOWN_SUPPRESSION = Rule(
    id="E998",
    name="unknown-suppression-id",
    severity=Severity.ERROR,
    summary=(
        "`# lint: disable` comment names a rule id that does not exist; "
        "the suppression can never match anything"
    ),
)

UNUSED_SUPPRESSION = Rule(
    id="E997",
    name="unused-suppression",
    severity=Severity.WARNING,
    summary=(
        "`# lint: disable` comment suppressed nothing this run "
        "(reported under --strict); stale suppressions hide future "
        "regressions"
    ),
)

STDLIB_RANDOM = Rule(
    id="D101",
    name="stdlib-random-import",
    severity=Severity.ERROR,
    summary=(
        "stdlib `random`/`secrets` imported in a simulation package; "
        "use an injected seeded numpy Generator"
    ),
)

WALL_CLOCK = Rule(
    id="D102",
    name="wall-clock-call",
    severity=Severity.ERROR,
    summary=(
        "wall-clock or OS-entropy call (time.time, datetime.now, "
        "os.urandom, uuid.uuid4) in a simulation package"
    ),
)

NUMPY_GLOBAL_RNG = Rule(
    id="D103",
    name="numpy-global-rng",
    severity=Severity.ERROR,
    summary=(
        "unseeded np.random.default_rng() or legacy global-state "
        "numpy.random call in a simulation package"
    ),
)

SHADOWED_RNG = Rule(
    id="D104",
    name="shadowed-rng-param",
    severity=Severity.ERROR,
    summary=(
        "function accepts an rng/seed parameter but constructs its own "
        "generator, splitting the deterministic stream"
    ),
)

SCHEDULING_CLOCK = Rule(
    id="D105",
    name="wall-clock-scheduling",
    severity=Severity.WARNING,
    summary=(
        "time.monotonic/time.sleep in a simulation package; fine for "
        "orchestration deadlines, a bug if it feeds simulated results"
    ),
)

SET_ITERATION = Rule(
    id="O401",
    name="set-iteration-hot-path",
    severity=Severity.ERROR,
    summary=(
        "iteration over a set/frozenset in an engine hot module; "
        "iteration order is unspecified and can skew results"
    ),
)

POPITEM = Rule(
    id="O402",
    name="dict-popitem-hot-path",
    severity=Severity.ERROR,
    summary=(
        "dict.popitem in an engine hot module; LIFO order is an "
        "implementation detail the engines must not depend on"
    ),
)

OBS_UNGATED = Rule(
    id="O501",
    name="ungated-observability-hot-loop",
    severity=Severity.ERROR,
    summary=(
        "observability call/counter update inside an engine hot loop "
        "without an enclosing sink-guard if; breaks the "
        "zero-overhead-when-disabled contract"
    ),
)

SPAN_UNGATED = Rule(
    id="O502",
    name="ungated-span-progress-hot-loop",
    severity=Severity.ERROR,
    summary=(
        "span/progress/heartbeat sink touched in a sweep or scheduler "
        "hot loop without a sink-guard if; breaks the "
        "zero-overhead-when-disabled contract"
    ),
)

AMBIENT_SEED = Rule(
    id="S701",
    name="ambient-seed-source",
    severity=Severity.ERROR,
    summary=(
        "generator seed traces interprocedurally to an ambient source "
        "(wall clock, OS entropy, pid, environ); seeds must derive from "
        "a SeedSequence/seeded_configs lineage"
    ),
)

LITERAL_RESEED = Rule(
    id="S702",
    name="literal-reseed-in-seeded-chain",
    severity=Severity.ERROR,
    summary=(
        "generator constructed from a bare literal inside a call chain "
        "that already carries an rng/seed parameter; the deterministic "
        "stream is silently split (interprocedural extension of D104)"
    ),
)

MODULE_SCOPE_RNG = Rule(
    id="S703",
    name="module-scope-generator",
    severity=Severity.ERROR,
    summary=(
        "generator constructed at module scope (or as a class "
        "attribute); ambient shared state that breaks per-run seeding "
        "and worker-fork isolation"
    ),
)

WORKER_NOT_TOPLEVEL = Rule(
    id="W801",
    name="worker-callable-not-toplevel",
    severity=Severity.ERROR,
    summary=(
        "callable handed to sweep worker dispatch is not a picklable "
        "module-level function (lambda, closure, or bound method)"
    ),
)

WORKER_GLOBAL_WRITE = Rule(
    id="W802",
    name="worker-global-write",
    severity=Severity.ERROR,
    summary=(
        "function reachable from sweep worker dispatch writes "
        "module-level state (global rebind, module container mutation, "
        "or class-attribute store); a race across the worker fork"
    ),
)

WORKER_CAPTURED_HANDLE = Rule(
    id="W803",
    name="worker-captured-handle",
    severity=Severity.ERROR,
    summary=(
        "function reachable from sweep worker dispatch captures a "
        "module-level open file handle or synchronization primitive, "
        "which does not survive pickling into a worker"
    ),
)

METRIC_UNREGISTERED = Rule(
    id="M901",
    name="metric-observed-unregistered",
    severity=Severity.ERROR,
    summary=(
        "metric family is observed somewhere but never registered with "
        "help text; merged registry output depends on observation order"
    ),
)

METRIC_LABEL_DRIFT = Rule(
    id="M902",
    name="metric-label-drift",
    severity=Severity.ERROR,
    summary=(
        "metric family observed with different label names at different "
        "call sites; label sets must be consistent per family"
    ),
)

METRIC_SEMANTICS = Rule(
    id="M903",
    name="metric-semantics-contract",
    severity=Severity.ERROR,
    summary=(
        "semantic-constant contract violation: a wall-clock tainted "
        "value feeds a family missing from WALLCLOCK_METRICS, or a "
        "schema-version string is spelled as an inline literal instead "
        "of the repro.obs constant"
    ),
)

UNBOUNDED_WAIT = Rule(
    id="R601",
    name="unbounded-wait",
    severity=Severity.ERROR,
    summary=(
        "unbounded wait in repro.idicn: queue-like container without a "
        "capacity bound, or a `while True` loop with no "
        "break/return/raise"
    ),
)

#: Every rule, in catalogue order.
ALL_RULES: tuple[Rule, ...] = (
    SYNTAX_ERROR,
    UNKNOWN_SUPPRESSION,
    UNUSED_SUPPRESSION,
    STDLIB_RANDOM,
    WALL_CLOCK,
    NUMPY_GLOBAL_RNG,
    SHADOWED_RNG,
    SCHEDULING_CLOCK,
    SET_ITERATION,
    POPITEM,
    OBS_UNGATED,
    SPAN_UNGATED,
    UNBOUNDED_WAIT,
    AMBIENT_SEED,
    LITERAL_RESEED,
    MODULE_SCOPE_RNG,
    WORKER_NOT_TOPLEVEL,
    WORKER_GLOBAL_WRITE,
    WORKER_CAPTURED_HANDLE,
    METRIC_UNREGISTERED,
    METRIC_LABEL_DRIFT,
    METRIC_SEMANTICS,
)

#: Rule lookup by id (e.g. ``RULES_BY_ID["D101"]``).
RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
