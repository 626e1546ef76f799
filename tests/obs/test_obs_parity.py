"""The observability contract, engine by engine.

Three pins:

* **disabled-obs parity** — ``observer=None`` (the default) produces a
  result bit-identical to a plain pre-observability run on *both*
  engines (the differential matrix guarantees reference == fast; this
  file guarantees observed-code-path == unobserved-code-path);
* **enabled-obs transparency** — attaching an observer changes *no*
  simulated number, and both engines emit byte-identical trace files
  for the same seed (content-addressed sampling);
* **enabled-obs overhead** — full tracing on a smoke-sized run stays
  within a modest multiple of the plain run (a smoke bound, not a
  benchmark: CI boxes are noisy).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cache.budget import node_budgets
from repro.core import (
    BASELINE_ARCHITECTURES,
    EDGE,
    ICN_NR_GLOBAL,
    CapacityModel,
    ExperimentConfig,
    Simulator,
    build_network,
    build_workload,
    run_experiment,
)
from repro.obs import MetricsRegistry, Observer, TraceSampler, TraceWriter

from ..conftest import assert_results_identical


def _config():
    return ExperimentConfig(
        tree_depth=3, num_objects=120, num_requests=4000, seed=11
    )


def _run_all(engine, observer=None):
    experiment = run_experiment(
        _config(), BASELINE_ARCHITECTURES, engine=engine, observer=observer
    )
    return {"NO-CACHE": experiment.baseline, **experiment.results}


@pytest.mark.parametrize("engine", ["reference", "fast"])
class TestObserverTransparency:
    def test_disabled_obs_matches_plain_run(self, engine):
        plain = _run_all(engine)
        disabled = _run_all(engine, observer=None)
        for name in plain:
            assert_results_identical(plain[name], disabled[name])

    def test_enabled_obs_changes_no_simulated_number(self, engine):
        plain = _run_all(engine)
        observed = _run_all(engine, observer=Observer(MetricsRegistry()))
        for name in plain:
            assert_results_identical(plain[name], observed[name])

    def test_requests_counter_matches_results(self, engine):
        registry = MetricsRegistry()
        results = _run_all(engine, observer=Observer(registry))
        for name, result in results.items():
            arch = result.architecture
            assert registry.value(
                "repro_requests_total", architecture=arch
            ) == result.num_requests


class TestTraceDeterminism:
    def _trace(self, engine, path, rate=0.3, seed=5):
        with TraceWriter(path, TraceSampler(rate=rate, seed=seed)) as tracer:
            observer = Observer(MetricsRegistry(), tracer=tracer)
            _run_all(engine, observer=observer)
        return path.read_bytes()

    def test_engines_emit_byte_identical_traces(self, tmp_path):
        ref = self._trace("reference", tmp_path / "ref.jsonl")
        fast = self._trace("fast", tmp_path / "fast.jsonl")
        assert ref == fast

    def test_repeated_seeded_runs_are_byte_identical(self, tmp_path):
        first = self._trace("fast", tmp_path / "a.jsonl")
        second = self._trace("fast", tmp_path / "b.jsonl")
        assert first == second

    def test_different_sample_seed_changes_the_trace(self, tmp_path):
        a = self._trace("fast", tmp_path / "a.jsonl", seed=5)
        b = self._trace("fast", tmp_path / "b.jsonl", seed=6)
        assert a != b

    def test_engines_agree_under_failures_capacity_and_warmup(self, tmp_path):
        """Fallback and coop records, refused hits and warmup traffic.

        Failed caches (two PoP roots among them) raise ``fallback`` on
        the requests that walk past them, the capacity model refuses
        hits, and warmup requests are traced but not counted; both
        engines must still write the same trace bytes and registry.
        """
        config = _config().with_(
            topology="abilene",
            capacity=CapacityModel(per_window=3, window=100),
            warmup_fraction=0.25,
        )
        network = build_network(config)
        workload = build_workload(config, network)
        budgets = node_budgets(
            network, config.budget_fraction, config.num_objects,
            config.budget_split,
        )
        failed = {
            network.root_gid(2), network.root_gid(5), network.gid(0, 1),
            network.gid(1, 7), network.gid(3, 9), network.gid(4, 12),
        }

        def observe(engine):
            registry = MetricsRegistry()
            path = tmp_path / f"{engine}.jsonl"
            with TraceWriter(path, TraceSampler(rate=0.3, seed=5)) as tracer:
                observer = Observer(registry, tracer=tracer)
                for arch in (*BASELINE_ARCHITECTURES, ICN_NR_GLOBAL):
                    Simulator(
                        network, arch, workload, budgets,
                        capacity=config.capacity,
                        warmup_fraction=config.warmup_fraction,
                        failed_nodes=failed, engine=engine,
                        observer=observer,
                    ).run()
            return path.read_bytes(), registry.snapshot()

        ref_trace, ref_registry = observe("reference")
        fast_trace, fast_registry = observe("fast")
        assert b'"fallback":true' in ref_trace
        assert b'"coop":true' in ref_trace
        assert ref_trace == fast_trace
        assert ref_registry == fast_registry

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_no_cache_traces_only_measured_requests(self, tmp_path, engine):
        """The baseline has no state to warm, so it skips its warmup.

        Its header keeps the routing label "origin", and only a cached
        design's records include the warmup requests.
        """
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, TraceSampler(rate=1.0, seed=0)) as tracer:
            run_experiment(
                _config().with_(warmup_fraction=0.25), (EDGE,),
                engine=engine, observer=Observer(tracer=tracer),
            )
        runs = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["kind"] == "header":
                indices = []
                runs[record["architecture"]] = (record, indices)
            else:
                indices.append(record["i"])
        header, indices = runs["NO-CACHE"]
        assert header["routing"] == "origin"
        assert indices == list(
            range(header["first_measured"], header["requests"])
        )
        header, indices = runs["EDGE"]
        assert indices == list(range(header["requests"]))


class TestObserverCoverage:
    """The registry actually reflects the run (not just zeroes)."""

    def test_node_and_link_families_populated(self, small_network,
                                              random_workload):
        workload = random_workload(
            small_network, seed=3, num_requests=800, num_objects=30
        )
        budgets = [3.0] * small_network.num_nodes
        registry = MetricsRegistry()
        arch = BASELINE_ARCHITECTURES[0]
        Simulator(
            small_network, arch, workload, budgets,
            observer=Observer(registry),
        ).run()
        names = registry.names()
        assert "repro_requests_total" in names
        assert "repro_node_serves_total" in names
        assert "repro_link_transfers_total" in names

    def test_copies_and_evictions_counted(self, small_network,
                                          random_workload):
        workload = random_workload(
            small_network, seed=4, num_requests=1200, num_objects=60
        )
        budgets = [2.0] * small_network.num_nodes
        registry = MetricsRegistry()
        arch = BASELINE_ARCHITECTURES[0]
        Simulator(
            small_network, arch, workload, budgets,
            observer=Observer(registry),
        ).run()
        snapshot = registry.snapshot()
        families = {m["name"] for m in snapshot["metrics"]}
        assert "repro_node_copies_total" in families
        assert "repro_node_evictions_total" in families


def _best_of(n, observer_factory):
    best = float("inf")
    for _ in range(n):
        observer = observer_factory()
        start = time.perf_counter()
        _run_all("fast", observer=observer)
        best = min(best, time.perf_counter() - start)
        if observer is not None:
            observer.close()
    return best


class TestOverheadSmoke:
    def test_metrics_observer_overhead_is_bounded(self):
        """Metrics observation must stay within 10% + fixed slack.

        The registry observer only bumps flat per-node counters in the
        hot loop and flushes families post-run, so its cost target is
        the design-doc contract: < 10%.  The absolute slack term
        absorbs scheduler noise on small timings; best-of-N on each
        side to de-noise further.
        """
        plain = _best_of(4, lambda: None)
        observed = _best_of(4, lambda: Observer(MetricsRegistry()))
        assert observed <= plain * 1.10 + 0.25, (
            f"metrics overhead too high: plain={plain:.3f}s "
            f"observed={observed:.3f}s"
        )

    def test_full_tracing_does_not_explode(self, tmp_path):
        """Tracing every request serializes a JSON record per request,
        so it legitimately costs more than 10% on a smoke-sized run —
        the pin here is that it stays within a small constant factor
        (a regression like re-opening the file per record would blow
        far past this)."""
        plain = _best_of(3, lambda: None)
        traced = _best_of(
            3,
            lambda: Observer(
                MetricsRegistry(),
                tracer=TraceWriter(
                    tmp_path / "t.jsonl", TraceSampler(rate=1.0, seed=0)
                ),
            ),
        )
        assert traced <= plain * 5.0 + 1.0, (
            f"tracing overhead exploded: plain={plain:.3f}s "
            f"traced={traced:.3f}s"
        )
