"""Tests for repro.shard — the spatially partitioned runner.

The contract under test: ``run_sharded`` (and ``run_experiment`` with
``shards > 1``) is *bit-identical* to the serial runner — same per-flow
records, same event count, same final clock, same reroute and probe-loss
counters — regardless of how the shards execute (round-robin in-process
or one OS process each).  On the golden 2-leaf grid the composite event
ordering is provably unambiguous, so the hazard counter must read zero.
"""

from dataclasses import replace

import pytest

from repro.api import (
    ExperimentConfig,
    FailureSpec,
    FaultEventSpec,
    FaultScheduleSpec,
    bench_topology,
    run_experiment,
    run_sharded,
    simulation_topology,
)
from repro.lb.factory import SPRAYING_SCHEMES


def _cell(lb: str, **overrides) -> ExperimentConfig:
    """One golden-style cell: 2x2 leaf-spine, 4 hosts/leaf, 40 flows."""
    defaults = dict(
        topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4),
        lb=lb,
        workload="web-search",
        load=0.5,
        n_flows=40,
        seed=1,
        size_scale=0.05,
        time_scale=0.05,
    )
    if lb in SPRAYING_SCHEMES:
        defaults["reorder_mask_us"] = 100.0
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _assert_identical(serial, sharded, *, hazard_free: bool = True) -> None:
    assert sharded.stats.records == serial.stats.records
    assert sharded.sim_time_ns == serial.sim_time_ns
    assert sharded.events == serial.events
    assert sharded.total_reroutes == serial.total_reroutes
    assert sharded.probe_losses == serial.probe_losses
    diag = sharded.shared["shard_diagnostics"]
    assert diag["shards"] >= 2
    assert diag["windows"] > 0
    if hazard_free:
        assert diag["hazards"] == 0


class TestBitIdentity:
    """shards=2 reproduces the serial run exactly, scheme by scheme."""

    # conga: its installer enables port DRE on one fabric; every shard
    # installs on its own fabric, so each must enable DRE on its ports.
    @pytest.mark.parametrize("lb", ["ecmp", "hermes", "rdna", "conga"])
    def test_golden_cell_matches_serial(self, lb):
        config = _cell(lb)
        serial = run_experiment(config)
        sharded = run_sharded(replace(config, shards=2), jobs=1)
        _assert_identical(serial, sharded)
        assert sharded.shared["shard_diagnostics"]["mode"] == "in-process"

    def test_run_experiment_dispatches_on_shards(self):
        """``run_experiment(shards=2)`` IS the sharded runner — the
        facade never silently falls back to a serial run."""
        config = _cell("hermes")
        serial = run_experiment(config)
        sharded = run_experiment(replace(config, shards=2))
        _assert_identical(serial, sharded)
        assert sharded.scheduler_info["shards"] == 2

    def test_forced_multiprocess_matches_serial(self):
        """jobs=2 forces one OS process per shard (the container may
        report a single core; the mode switch honours explicit jobs)."""
        config = _cell("hermes")
        serial = run_experiment(config)
        sharded = run_sharded(replace(config, shards=2), jobs=2)
        _assert_identical(serial, sharded)

    def test_jobs_never_changes_the_answer(self):
        config = replace(_cell("conga"), shards=2)
        inline = run_sharded(config, jobs=1)
        fleet = run_sharded(config, jobs=2)
        assert fleet.stats.records == inline.stats.records
        assert fleet.events == inline.events
        assert fleet.sim_time_ns == inline.sim_time_ns

    def test_both_engines_agree(self):
        """The composite-seq mixin works over both schedulers."""
        config = _cell("letflow")
        for scheduler in ("heap", "wheel:auto"):
            cfg = replace(config, scheduler=scheduler)
            serial = run_experiment(cfg)
            sharded = run_sharded(replace(cfg, shards=2), jobs=1)
            _assert_identical(serial, sharded)

    def test_blackhole_deadline_ending(self):
        """A static blackhole strands ECMP flows: the serial run ends at
        the drain deadline with unfinished-flow records.  The sharded
        run must reproduce that ending exactly (deadline clock, same
        unfinished set), not just the all-flows-finish fast path."""
        config = _cell(
            "ecmp",
            failure=FailureSpec(kind="blackhole", spine=0, pair_fraction=1.0),
            extra_drain_ns=2_000_000,
        )
        serial = run_experiment(config)
        sharded = run_sharded(replace(config, shards=2), jobs=1)
        _assert_identical(serial, sharded)
        unfinished = [r for r in serial.stats.records if r.fct_ns is None]
        assert unfinished, "blackhole cell must strand at least one flow"


class TestPaperScale:
    """The 8x8 leaf-spine / 128-host simulation shape from the paper."""

    def test_simulation_cell_completes_and_is_reproducible(self):
        config = ExperimentConfig(
            topology=simulation_topology(),
            lb="hermes",
            workload="web-search",
            load=0.5,
            n_flows=96,
            seed=1,
            size_scale=0.02,
            time_scale=0.02,
            shards=4,
        )
        a = run_sharded(config, jobs=1)
        b = run_sharded(config, jobs=2)
        assert len(a.stats.records) == 96
        assert all(r.fct_ns is not None for r in a.stats.records)
        assert b.stats.records == a.stats.records
        assert b.events == a.events
        assert b.sim_time_ns == a.sim_time_ns


class TestRestrictions:
    """Single-engine-only features refuse loudly instead of diverging."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(validate=True),
            dict(trace=True),
            dict(streaming_stats=True),
            dict(visibility_sampling=True),
            dict(detector="bfd"),
            dict(
                faults=FaultScheduleSpec(
                    events=(
                        FaultEventSpec(
                            action="link_down", time_ns=1_000_000,
                            leaf=0, spine=0,
                        ),
                    )
                )
            ),
            dict(failure=FailureSpec(kind="random_drop", spine=0)),
        ],
        ids=[
            "validate", "trace", "streaming", "visibility",
            "detector", "faults", "random_drop",
        ],
    )
    def test_unsupported_feature_raises(self, overrides):
        config = replace(_cell("ecmp", **overrides), shards=2)
        with pytest.raises(ValueError, match="do not support"):
            run_sharded(config, jobs=1)

    def test_blackhole_failure_is_supported(self):
        """One setup-time draw, static predicates — explicitly allowed
        (contrast random_drop above)."""
        config = replace(
            _cell("ecmp", failure=FailureSpec(kind="blackhole", spine=0)),
            shards=2,
        )
        run_sharded(config, jobs=1)  # must not raise

    def test_zero_prop_delay_has_no_lookahead(self):
        topo = replace(
            bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4),
            prop_delay_ns=0,
        )
        config = replace(_cell("ecmp", topology=topo), shards=2)
        with pytest.raises(ValueError, match="propagation delay"):
            run_sharded(config, jobs=1)

    def test_more_shards_than_leaves(self):
        config = replace(_cell("ecmp"), shards=3)
        with pytest.raises(ValueError, match="cannot cut"):
            run_sharded(config, jobs=1)

    def test_run_sharded_requires_two_shards(self):
        with pytest.raises(ValueError, match="shards >= 2"):
            run_sharded(_cell("ecmp"), jobs=1)


class TestConfigPlumbing:
    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="shards"):
            _cell("ecmp", shards=0)

    def test_shards_round_trips_through_dict(self):
        config = _cell("hermes", shards=2)
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.shards == 2

    def test_shards_distinguishes_cache_keys(self):
        """shards is part of the serialized config, so the result cache
        can never serve a sharded run for a serial key or vice versa."""
        serial = _cell("hermes").to_dict()
        sharded = _cell("hermes", shards=2).to_dict()
        assert serial != sharded
