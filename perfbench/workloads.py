"""The benchmark's four workloads and their correctness checks.

Each workload turns ``--seed`` into a fixed list of
:class:`~repro.experiments.config.ExperimentConfig` cells.  Only the
seed varies the inputs: sizes, schemes and schedules are constants here.

For the in-process workloads the seed picks, per input draw, the first
derived seed whose generated flows carry within ``BYTES_TOLERANCE`` of
the nominal offered bytes (flow count times the mean flow size).  Flow
sizes are heavy-tailed, so without this a 100-flow cell's work varies by
a factor of two between seeds and ``flows_per_s`` would measure the seed
rather than the code.  Every run therefore simulates the same number of
flows and the same number of bytes; which flows, between which hosts and
when, is the seed's.

``grid-parallel`` runs the golden reference grid: its seed-1 cells are
the committed reference and stay fixed, the other two seeds come from
``--seed``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenarios import (
    bench_topology,
    failure_bench_topology,
    simulation_topology,
)
from repro.faults import parse_schedule
from repro.lb.factory import SPRAYING_SCHEMES
from repro.sim.rng import RngStreams
from repro.validate import golden
from repro.workload.distributions import distribution_by_name

#: Allowed deviation of a cell's offered bytes from the nominal.
BYTES_TOLERANCE = 0.03

FAILOVER_FAULTS = (
    "link_down@2ms:leaf=0,spine=0; link_up@60ms:leaf=0,spine=0; "
    "random_drop_start@5ms:spine=1,rate=0.02; random_drop_stop@80ms:spine=1"
)

#: Schemes whose per-scheme cell time is reported as ``cell_s.<scheme>``.
REFGRID_SCHEMES = ("ecmp", "letflow", "conga", "hermes")


def derive_seed(seed: int, *tags) -> int:
    """A 31-bit seed from ``seed`` and ``tags``, stable across runs and
    Python versions (no ``hash()``), never the golden seed 1."""
    text = ":".join(str(t) for t in (seed,) + tags)
    value = int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")
    value &= 0x7FFFFFFF
    return value if value > 1 else value + 2


def arrival_sizes(config: ExperimentConfig) -> List[int]:
    """Flow sizes the runner generates for ``config``."""
    arrivals = runner._arrival_list(config, RngStreams(config.seed))
    return [a.size_bytes for a in arrivals]


def nominal_seed(config: ExperimentConfig, seed: int, tag: str) -> int:
    """The first seed derived from ``(seed, tag)`` whose flows offer the
    nominal byte count within :data:`BYTES_TOLERANCE`."""
    distribution = distribution_by_name(config.workload)
    nominal = config.n_flows * distribution.scaled(config.size_scale).mean()
    for attempt in range(10_000):
        candidate = derive_seed(seed, tag, attempt)
        offered = sum(arrival_sizes(replace(config, seed=candidate)))
        if abs(offered / nominal - 1.0) <= BYTES_TOLERANCE:
            return candidate
    raise RuntimeError(f"no seed near the nominal input for {tag}")


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in ``BENCHMARK.json``."""

    name: str
    #: ``cells(seed, tiny)`` -> the run's configs.
    cells: Callable[[int, bool], List[ExperimentConfig]]
    #: ``check(configs, summaries, golden_reference)`` -> failed cells.
    check: Callable[..., Dict[int, str]]
    #: Run through the process pool and the result cache.
    pooled: bool = False


def refgrid_cells(seed: int, tiny: bool = False) -> List[ExperimentConfig]:
    topology = bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4)
    n_flows = 12 if tiny else 50
    out = []
    for load in (0.5, 0.7):
        base = ExperimentConfig(
            topology=topology, workload="web-search", load=load,
            n_flows=n_flows, size_scale=0.1, time_scale=0.1,
        )
        # One input draw per load, shared by the schemes so that the
        # per-scheme cell times compare the same flows.
        cell_seed = nominal_seed(base, seed, f"refgrid@{load}")
        out.extend(replace(base, lb=lb, seed=cell_seed) for lb in REFGRID_SCHEMES)
    return out


def paper_hermes_cells(seed: int, tiny: bool = False) -> List[ExperimentConfig]:
    # Three short cells rather than one long one: the benchmark keeps
    # each cell's fastest pass, which filters out contention from other
    # tenants of a shared host only when a pass is short enough to
    # repeat many times in a run.
    base = ExperimentConfig(
        topology=simulation_topology(asymmetric=True), lb="hermes",
        workload="web-search", load=0.6, n_flows=20 if tiny else 60,
        size_scale=0.1, time_scale=0.1,
    )
    return [replace(base, seed=nominal_seed(base, seed, f"paper-hermes#{k}"))
            for k in range(1 if tiny else 3)]


def failover_cells(seed: int, tiny: bool = False) -> List[ExperimentConfig]:
    base = ExperimentConfig(
        topology=failure_bench_topology(), workload="web-search", load=0.5,
        n_flows=40 if tiny else 200, size_scale=0.03,
        faults=parse_schedule(FAILOVER_FAULTS),
    )
    cell_seed = nominal_seed(base, seed, "failover")
    return [
        replace(
            base, lb=lb, detector=detector, seed=cell_seed,
            reorder_mask_us=100.0 if lb in SPRAYING_SCHEMES else None,
        )
        for lb, detector in (("hermes", None), ("reps", None), ("ecmp", "bfd"))
    ]


def grid_cells(seed: int, tiny: bool = False) -> List[ExperimentConfig]:
    configs = golden.golden_configs()
    if tiny:
        return [c for c in configs if c.load == golden.GOLDEN_LOADS[0]]
    # The golden grid's 40-flow cells are tiny, so the derived seeds also
    # have to offer the nominal bytes (every cell of a seed draws the same
    # flow sizes: same topology, same stream).
    derived = [nominal_seed(configs[0], seed, f"grid#{k}") for k in (1, 2)]
    return configs + [replace(c, seed=d) for d in derived for c in configs]


# --------------------------------------------------------------------- #
# Correctness checks: each returns {cell index: reason} for failed cells.
# --------------------------------------------------------------------- #


def check_finished(configs, summaries, reference=None) -> Dict[int, str]:
    """Every flow of every cell finished."""
    return {
        i: f"{s.stats.unfinished_count} flows unfinished"
        for i, s in enumerate(summaries)
        if s.stats.unfinished_count
    }


def check_failover(configs, summaries, reference=None) -> Dict[int, str]:
    """Every cell detects the fault; Hermes strands no flow (Fig. 17)."""
    failed = {}
    for i, (config, s) in enumerate(zip(configs, summaries)):
        if s.detection_ns is None:
            failed[i] = "no finite detection_ns"
        elif config.lb == "hermes" and s.stats.unfinished_count:
            failed[i] = f"hermes left {s.stats.unfinished_count} flows unfinished"
    return failed


def golden_summary(s) -> dict:
    """One cell in :func:`repro.validate.golden.compute_reference` form."""
    stats = s.stats
    return {
        "avg_fct_ms": stats.mean_ms(),
        "p99_fct_ms": stats.p99_ms(),
        "small_avg_ms": stats.small.mean_ms(),
        "small_p99_ms": stats.small.p99_ms(),
        "large_avg_ms": stats.large.mean_ms(),
        "unfinished": stats.unfinished_count,
        "total_reroutes": s.total_reroutes,
        "events": s.events,
    }


def check_golden(configs, summaries, reference: dict) -> Dict[int, str]:
    """Golden-seed cells match ``reference`` (the committed golden file)."""
    expected = reference.get("cells", {})
    failed: Dict[int, str] = {}
    for i, (config, s) in enumerate(zip(configs, summaries)):
        if config.seed != golden.GOLDEN_SEED:
            continue
        key = f"{config.lb}@{config.load}"
        if key not in expected:
            failed[i] = f"{key}: missing from the golden reference"
            continue
        mismatches = golden.compare_reference(
            {"cells": {key: expected[key]}}, {"cells": {key: golden_summary(s)}}
        )
        if mismatches:
            failed[i] = "; ".join(mismatches)
    return failed


def check_same(label: str, summaries, reference_summaries) -> Dict[int, str]:
    """Cell by cell, ``summaries`` reproduce ``reference_summaries``."""
    return {
        i: f"{label}: records differ"
        for i, (a, b) in enumerate(zip(summaries, reference_summaries))
        if a.stats.records != b.stats.records or a.events != b.events
    }


def load_golden(root: str) -> Optional[dict]:
    return golden.load_reference(os.path.join(root, golden.DEFAULT_PATH))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("refgrid", refgrid_cells, check_finished),
        Workload("paper-hermes", paper_hermes_cells, check_finished),
        Workload("failover", failover_cells, check_failover),
        Workload("grid-parallel", grid_cells, check_golden, pooled=True),
    )
}
