"""The repository's benchmark: one workload per process, timed or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload refgrid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics (``flows_per_s``, ``setup_s``, ``peak_rss_mb``).
``--trace 1`` runs the workload once untraced and once traced, and
reports the per-layer metrics (see ``perfbench/README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance.  ``--all`` runs every workload, both ways, each in a
fresh process, and prints every metric with its unit.

Files written: ``perfbench/results/`` (provenance, per-pass timings and,
for traced runs, the span dump).  Nothing outside the checkout.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from typing import Dict, List, Optional

import spans

#: Imported by :func:`load`, once ``src`` is on the path.
workloads = None

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: Seed kept out of every tuning run, for verifying a later claim.
HELD_OUT_SEED = 7919
#: Every workload input is timed at least this many times per run.
MIN_PASSES = 3
#: Pool workers on ``grid-parallel`` (the container has 2 CPUs).
JOBS = 2
#: A cell slower than this fails (pool cells are killed at this limit).
CELL_TIMEOUT_S = 120.0
#: Import samples taken after each timed pass.
IMPORT_SAMPLES_PER_PASS = 2
#: Reference-kernel timings taken after each timed pass.
KERNEL_SAMPLES_PER_PASS = 5
#: Fastest time of :func:`reference_kernel` on the quiet 2-CPU host the
#: bounds were set on.
REFERENCE_KERNEL_S = 0.0145
#: Allowed gap between the traced pass's root spans and its cell times.
ROOT_SPAN_TOLERANCE = 0.01

END_TO_END_UNITS = {"flows_per_s": "flows/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Names of the spans that make up a cell's set-up.
SETUP_SPANS = ("Fabric.build", "install_lb", "FaultSchedule.install",
               "FlowGenerator.arrival_list")

LAYER_UNITS: Dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_ns_per_event": "ns",
    "sim.self_share": "frac",
    "sim.max_pending": "count",
    "net.packets": "count",
    "net.self_ns_per_packet": "ns",
    "net.self_share": "frac",
    "net.drops": "count",
    "net.ecn_mark_frac": "frac",
    "net.pool_reuse_frac": "frac",
    "net.build_s": "s",
    "transport.acks": "count",
    "transport.self_ns_per_ack": "ns",
    "transport.self_share": "frac",
    "transport.retx_frac": "frac",
    "transport.timeouts": "count",
    "lb.selects": "count",
    "lb.self_ns_per_select": "ns",
    "lb.self_share": "frac",
    "lb.reroutes": "count",
    "lb.install_s": "s",
    "cell_s.ecmp": "s",
    "cell_s.letflow": "s",
    "cell_s.conga": "s",
    "cell_s.hermes": "s",
    "core.self_ns_per_ack": "ns",
    "core.self_share": "frac",
    "core.probes": "count",
    "core.probe_loss_frac": "frac",
    "detect.heartbeats": "count",
    "detect.self_share": "frac",
    "detect.false_positives": "count",
    "detect.detection_ns": "ns",
    "faults.transitions": "count",
    "faults.injected_drops": "count",
    "faults.self_share": "frac",
    "workload.arrivals_s": "s",
    "metrics.summarize_s": "s",
    "metrics.self_share": "frac",
    "experiments.pool_speedup": "x",
    "experiments.cell_s_p50": "s",
    "experiments.cell_s_tail": "s",
    "experiments.cell_s_tail_pct": "pct",
    "experiments.cells": "count",
    "experiments.summary_bytes": "bytes",
    "experiments.cache_put_ms": "ms",
    "experiments.cache_get_ms": "ms",
    "experiments.cache_hit_frac": "frac",
    "experiments.warm_s": "s",
    "experiments.self_share": "frac",
    "other.self_share": "frac",
    "trace.overhead_x": "x",
    "trace.bookkeeping_share": "frac",
    "trace.unattributed_share": "frac",
}


# --------------------------------------------------------------------- #
# Instrumentation sets
# --------------------------------------------------------------------- #


def instrument(rec, full: bool, profilers: List) -> "spans.Instrumentation":
    """Wrap the set-up calls (always) and, when ``full``, every layer's
    per-packet entry points plus the engine's profiler slot."""
    from repro.core.sensing import HermesLeafState
    from repro.detect.base import Detector
    from repro.experiments import parallel, runner
    from repro.faults.plane import FaultSchedule
    from repro.lb.base import LoadBalancer
    from repro.lb.failaware import LeafPathHealth
    from repro.metrics.fct import FctStats
    from repro.net.fabric import Fabric
    from repro.net.port import OutputPort
    from repro.sim.engine import Simulator
    from repro.transport.base import FlowBase
    from repro.workload.generator import FlowGenerator

    inst = spans.Instrumentation(rec)

    def attach_profiler(init):
        def build(fabric, *args, **kwargs):
            init(fabric, *args, **kwargs)
            profiler = spans.DispatchProfiler(rec, fabric.sim)
            fabric.hooks.attach(profiler=profiler)
            profilers.append(profiler)
        return build

    inst.attr(Fabric, "__init__", "Fabric.build", "net",
              around=attach_profiler if full else None)
    inst.attr(runner, "install_lb", "install_lb", "lb")
    inst.attr(FaultSchedule, "install", "FaultSchedule.install", "faults")
    inst.attr(FlowGenerator, "arrival_list", "FlowGenerator.arrival_list",
              "workload")
    inst.attr(runner, "run_experiment", "run_experiment", "experiments")
    inst.attr(FctStats, "__init__", "FctStats.build", "metrics")
    inst.attr(parallel.ResultSummary, "from_result",
              "ResultSummary.from_result", "metrics")
    inst.attr(parallel, "run_cells", "run_cells", "experiments")
    inst.attr(parallel.ResultCache, "get", "ResultCache.get", "experiments")
    inst.attr(parallel.ResultCache, "put", "ResultCache.put", "experiments")
    if full:
        inst.methods(Simulator, ("run",))
        inst.attr(Fabric, "send", "Fabric.send", "net")
        inst.attr(Fabric, "forward", "Fabric.forward", "net")
        inst.attr(OutputPort, "enqueue", "OutputPort.enqueue", "net")
        inst.methods(FlowBase, ("on_ack", "on_data"))
        inst.methods(LoadBalancer, ("select_path", "on_ack", "on_timeout"))
        inst.methods(HermesLeafState, ("record_ack", "record_probe",
                                       "record_sent", "record_retransmit",
                                       "record_timeout"))
        for root in (Detector, LeafPathHealth):
            inst.methods(root, ("note_timeout", "note_retransmit", "note_ok"))
    return inst


# --------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------- #


class Pass:
    """One execution of every cell of the workload."""

    def __init__(self) -> None:
        self.summaries: List = []
        self.cell_s: List[float] = []
        self.setup_s: List[float] = []
        self.wall_s = 0.0
        self.counters: Dict[str, float] = {}
        self.rec = None
        self.profilers: List = []
        self.missing: List[str] = []

    def run_phase_s(self) -> List[float]:
        return [c - s for c, s in zip(self.cell_s, self.setup_s)]


def cell_counters(result, out: Dict[str, float]) -> None:
    """Fold one finished cell's program counters into ``out``."""
    fabric = result.fabric
    ports = fabric.topology.all_ports()
    pool = fabric.packet_pool
    flows = list(fabric.flows.values())
    add = lambda key, value: out.__setitem__(key, out.get(key, 0) + value)
    add("events", result.events)
    add("drops", sum(p.total_drops for p in ports))
    add("ecn_marks", sum(p.ecn_marks for p in ports))
    add("injected_drops", sum(p.drops_injected for p in ports))
    add("pool_reused", pool.reused)
    add("pool_acquired", pool.reused + pool.allocated)
    add("retx", sum(f.retx_count for f in flows))
    add("data_pkts", sum(f.pkts_sent for f in flows))
    add("timeouts", sum(f.timeout_count for f in flows))
    add("reroutes", result.total_reroutes)
    probers = result.shared.get("probers", {}).values()
    add("probes", sum(p.probes_sent for p in probers))
    add("probes_lost", sum(p.probes_lost for p in probers))
    detectors = result.shared.get("detectors", {}).values()
    add("heartbeats", sum(getattr(d, "heartbeats_sent", 0) for d in detectors))
    add("false_positives",
        result.detector_metrics.get("false_positive_count", 0))
    add("transitions", len(result.fault_timeline))
    if result.detection_ns is not None:
        out["detection_ns"] = max(out.get("detection_ns", 0), result.detection_ns)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 tiny: bool = False, reference: Optional[dict] = None) -> None:
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.configs = self.workload.cells(seed, tiny)
        self.reference = (
            reference if reference is not None else workloads.load_golden(ROOT)
        ) or {}
        #: cell index -> first failure reason.
        self.failed: Dict[int, str] = {}
        self.report: Dict = {}
        #: Import times sampled during the timed passes.
        self.import_samples: List[float] = []
        #: Reference-kernel times sampled during the timed passes.
        self.kernel_samples: List[float] = []

    def fail(self, found: Dict[int, str]) -> None:
        for i, reason in found.items():
            self.failed.setdefault(i, reason)

    # ----------------------------------------------------------------- #

    def serial_pass(self, full: bool) -> Pass:
        """Every cell in-process, in order, under the set-up spans (and
        under every layer's spans when ``full``)."""
        from repro.experiments import parallel, runner

        out = Pass()
        rec = out.rec = spans.SpanRecorder()
        if full:
            rec.calibrate()
        inst = instrument(rec, full, out.profilers)
        excluded = 0.0
        start = time.perf_counter()
        try:
            for i, config in enumerate(self.configs):
                rec.start_cell(i)
                setup_before = sum(rec.span_total(n)[1] for n in SETUP_SPANS)
                t0 = time.perf_counter()
                summary = result = None
                try:
                    result = runner.run_experiment(config)
                    summary = parallel.ResultSummary.from_result(result)
                except Exception as exc:  # a failing cell must not end the run
                    self.fail({i: f"raised {exc!r}"})
                elapsed = time.perf_counter() - t0
                if elapsed > CELL_TIMEOUT_S:
                    self.fail({i: f"took {elapsed:.1f}s > {CELL_TIMEOUT_S}s"})
                setup_ns = sum(rec.span_total(n)[1] for n in SETUP_SPANS)
                out.cell_s.append(elapsed)
                out.setup_s.append((setup_ns - setup_before) / 1e9)
                out.summaries.append(summary)
                if full and result is not None:
                    t1 = time.perf_counter()
                    cell_counters(result, out.counters)
                    excluded += time.perf_counter() - t1
                del result
        finally:
            inst.restore()
        out.wall_s = time.perf_counter() - start - excluded
        out.missing = inst.missing
        self.fail_missing(inst)
        return out

    def pool_pass(self, rec) -> Dict:
        """Cold then warm ``run_cells`` through a fresh cache directory."""
        from repro.experiments import parallel

        os.makedirs(RESULTS, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=RESULTS)
        inst = instrument(rec, False, [])
        try:
            t0 = time.perf_counter()
            cold = parallel.run_cells(self.configs, jobs=JOBS, use_cache=True,
                                      cache_dir=cache_dir,
                                      cell_timeout_s=CELL_TIMEOUT_S)
            cold_s = time.perf_counter() - t0
            puts = rec.span_total("ResultCache.put")
            gets_before = rec.span_total("ResultCache.get")
            entries = [os.path.getsize(os.path.join(cache_dir, n))
                       for n in os.listdir(cache_dir) if n.endswith(".pkl")]
            t0 = time.perf_counter()
            warm = parallel.run_cells(self.configs, jobs=JOBS, use_cache=True,
                                      cache_dir=cache_dir,
                                      cell_timeout_s=CELL_TIMEOUT_S)
            warm_s = time.perf_counter() - t0
            gets = rec.span_total("ResultCache.get")
            warm_puts = rec.span_total("ResultCache.put")[0] - puts[0]
        finally:
            inst.restore()
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.fail_missing(inst)
        self.fail({i: f"pool: {s.error}" for i, s in enumerate(cold) if s.error})
        warm_gets = gets[0] - gets_before[0]
        return {
            "cold": cold, "warm": warm, "cold_s": cold_s, "warm_s": warm_s,
            "put_ms": puts[1] / max(1, puts[0]) / 1e6,
            "get_ms": (gets[1] - gets_before[1]) / max(1, warm_gets) / 1e6,
            "hit_frac": (warm_gets - warm_puts) / max(1, warm_gets),
            "summary_bytes": statistics.mean(entries) if entries else 0.0,
        }

    def fail_missing(self, inst) -> None:
        """A function the benchmark wraps that the code no longer has
        fails the run: its layer would otherwise read as doing no work."""
        if inst.missing:
            self.fail({-1: "not wrapped: " + ", ".join(inst.missing)})

    def check(self, summaries) -> None:
        """The workload's own checks on one pass's results."""
        ran = [i for i, s in enumerate(summaries) if s is not None]
        found = self.workload.check(
            [self.configs[i] for i in ran], [summaries[i] for i in ran],
            self.reference,
        )
        self.fail({ran[i]: reason for i, reason in found.items()})

    def same(self, label: str, a, b) -> None:
        pairs = [(i, x, y) for i, (x, y) in enumerate(zip(a, b))
                 if x is not None and y is not None]
        found = workloads.check_same(label, [p[1] for p in pairs],
                                     [p[2] for p in pairs])
        self.fail({pairs[i][0]: reason for i, reason in found.items()})

    def timed_passes(self, run, check) -> List:
        """``run()`` at least :data:`MIN_PASSES` times, and again while
        another pass fits in ``--seconds``; ``check(first, later)`` sees
        every pass, which is then dropped to keep memory flat.  Each pass
        is followed by import and reference-kernel samples, so that the
        samples span the run rather than one moment of it; they do not
        count against ``--seconds``."""
        out = []
        first = None
        start = time.perf_counter()
        last = sampling = 0.0
        while len(out) < MIN_PASSES or (
            time.perf_counter() - start - sampling + last <= self.seconds
        ):
            t0 = time.perf_counter()
            result = run()
            last = time.perf_counter() - t0
            check(first, result)
            t0 = time.perf_counter()
            self.import_samples.extend(
                time_import() for _ in range(IMPORT_SAMPLES_PER_PASS))
            self.kernel_samples.extend(
                time_kernel() for _ in range(KERNEL_SAMPLES_PER_PASS))
            sampling += time.perf_counter() - t0
            if first is None:
                first = result
            out.append(result)
        return out

    # ----------------------------------------------------------------- #

    def timed(self) -> Dict[str, float]:
        """End-to-end metrics.  Like the run phase, set-up is the fastest
        sample: the fastest import plus each cell's fastest set-up.  All
        times are scaled to the host's reference speed."""
        flows = sum(c.n_flows for c in self.configs)
        if self.workload.pooled:
            serial = self.serial_pass(full=False)
            self.check(serial.summaries)

            def check_pool(_first, pool):
                cold = pool.pop("cold")
                self.check(cold)
                self.same("cold pool vs serial", cold, serial.summaries)
                self.same("warm vs cold", pool.pop("warm"), cold)

            pools = self.timed_passes(
                lambda: self.pool_pass(spans.SpanRecorder()), check_pool)
            flows_per_s = flows / min(p["cold_s"] for p in pools)
            # The pool cells' set-up happens in the workers, so set-up
            # comes from the one in-process pass.  Cells that differ only
            # in seed build the same fabric, scheme and number of flows;
            # each cell's set-up is the fastest of its seed group.
            group = [repr(replace(c, seed=0)) for c in self.configs]
            fastest: Dict[str, float] = {}
            for key, t in zip(group, serial.setup_s):
                fastest[key] = min(fastest.get(key, t), t)
            setup = sum(fastest[key] for key in group)
            self.report["passes"] = [
                {"cold_s": p["cold_s"], "warm_s": p["warm_s"]} for p in pools
            ]
            self.report["serial_s"] = serial.wall_s
            self.report["serial_setup_s"] = serial.setup_s
            first = serial
        else:
            def check_serial(first, later):
                if first is None:
                    self.check(later.summaries)
                else:
                    self.same("repeated pass", later.summaries, first.summaries)
                    later.summaries = []

            passes = self.timed_passes(
                lambda: self.serial_pass(full=False), check_serial)
            first = passes[0]
            best = [min(p.run_phase_s()[i] for p in passes)
                    for i in range(len(self.configs))]
            flows_per_s = flows / sum(best)
            setup = sum(min(p.setup_s[i] for p in passes)
                        for i in range(len(self.configs)))
            self.report["passes"] = [
                {"wall_s": p.wall_s, "cell_s": p.cell_s, "setup_s": p.setup_s}
                for p in passes
            ]
        self.report["scheduler_info"] = [
            s.scheduler_info if s is not None else None for s in first.summaries
        ]
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.workload.pooled:
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup += min(self.import_samples)
        # Other tenants slow this kind of host by up to 1.5x for minutes
        # at a time, longer than a run.  Times are scaled to the host's
        # reference speed, measured by a fixed kernel during the run.
        speed = REFERENCE_KERNEL_S / min(self.kernel_samples)
        self.report["import_s"] = self.import_samples
        self.report["kernel_s"] = self.kernel_samples
        self.report["unscaled"] = {"flows_per_s": flows_per_s, "setup_s": setup}
        self.report["host_speed"] = speed
        return {
            "flows_per_s": flows_per_s / speed,
            "setup_s": setup * speed,
            "peak_rss_mb": usage / 1024.0,
        }

    def traced(self) -> Dict[str, float]:
        pool = None
        if self.workload.pooled:
            pool = self.pool_pass(spans.SpanRecorder())
            self.check(pool["cold"])
            self.same("warm vs cold", pool["warm"], pool["cold"])
        plain = self.serial_pass(full=False)
        self.check(plain.summaries)
        if pool is not None:
            self.same("cold pool vs serial", pool["cold"], plain.summaries)
        traced = self.serial_pass(full=True)
        self.same("traced vs untraced", traced.summaries, plain.summaries)
        self.report["scheduler_info"] = [
            s.scheduler_info if s is not None else None for s in plain.summaries
        ]
        metrics = layer_metrics(self.configs, plain, traced, pool)
        self.report["spans"] = span_dump(traced)
        self.report["untraced_wall_s"] = plain.wall_s
        self.report["traced_wall_s"] = traced.wall_s
        # The layer self times, the bookkeeping and the time outside every
        # span add up to the traced pass by construction.  What can go
        # wrong is the spans themselves: the root spans must cover the
        # cells' own wall times, measured apart from the recorder.
        cell_ns = sum(traced.cell_s) * 1e9
        gap = traced.rec.root_ns / cell_ns - 1.0 if cell_ns else 0.0
        self.report["root_span_gap"] = gap
        if abs(gap) > ROOT_SPAN_TOLERANCE:
            self.fail({-1: f"root spans cover {traced.rec.root_ns} ns of "
                           f"{cell_ns:.0f} ns of cell time"})
        return metrics


def layer_metrics(configs, plain: Pass, traced: Pass, pool) -> Dict[str, float]:
    """Per-layer metrics from an untraced and a traced pass (and the pool
    pass on ``grid-parallel``)."""
    rec = traced.rec
    c = traced.counters
    total_ns = traced.wall_s * 1e9
    attributed_ns = total_ns - rec.bookkeeping_ns
    layer_self = rec.layer_self_ns()
    # Tracing slows everything it touches, so absolute self times come
    # from the traced shares applied to the untraced pass's wall time.
    untraced_ns = plain.wall_s * 1e9

    def untraced_self(traced_ns: float) -> float:
        return traced_ns / attributed_ns * untraced_ns if attributed_ns else 0.0

    def count(suffix: str, layer: Optional[str] = None) -> int:
        return sum(e[1] for n, e in rec.totals.items()
                   if n.endswith(suffix) and (layer is None or e[0] == layer))

    def self_of(suffix: str) -> int:
        return sum(e[3] for n, e in rec.totals.items() if n.endswith(suffix))

    def setup_total(name: str) -> float:
        return plain.rec.span_total(name)[1] / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    events = c.get("events", 0)
    packets = count("Fabric.send")
    acks = count(".on_ack", "transport")
    selects = count(".select_path")
    m: Dict[str, float] = {}
    m["sim.events"] = events
    m["sim.events_per_s"] = ratio(events, sum(plain.run_phase_s()))
    m["sim.self_ns_per_event"] = ratio(untraced_self(layer_self["sim"]), events)
    m["sim.max_pending"] = max((p.max_pending for p in traced.profilers), default=0)
    m["net.packets"] = packets
    m["net.self_ns_per_packet"] = ratio(untraced_self(layer_self["net"]), packets)
    m["net.drops"] = c.get("drops", 0)
    m["net.ecn_mark_frac"] = ratio(c.get("ecn_marks", 0), count("OutputPort.enqueue"))
    m["net.pool_reuse_frac"] = ratio(c.get("pool_reused", 0), c.get("pool_acquired", 0))
    m["net.build_s"] = setup_total("Fabric.build")
    m["transport.acks"] = acks
    m["transport.self_ns_per_ack"] = ratio(
        untraced_self(layer_self["transport"]), acks)
    m["transport.retx_frac"] = ratio(c.get("retx", 0), c.get("data_pkts", 0))
    m["transport.timeouts"] = c.get("timeouts", 0)
    m["lb.selects"] = selects
    m["lb.self_ns_per_select"] = ratio(
        untraced_self(self_of(".select_path")), selects)
    m["lb.reroutes"] = c.get("reroutes", 0)
    m["lb.install_s"] = setup_total("install_lb")
    for scheme in workloads.REFGRID_SCHEMES:
        m[f"cell_s.{scheme}"] = sum(
            t for cfg, t in zip(configs, plain.cell_s) if cfg.lb == scheme)
    m["core.self_ns_per_ack"] = ratio(untraced_self(layer_self["core"]), acks)
    m["core.probes"] = c.get("probes", 0)
    m["core.probe_loss_frac"] = ratio(c.get("probes_lost", 0), c.get("probes", 0))
    m["detect.heartbeats"] = c.get("heartbeats", 0)
    m["detect.false_positives"] = c.get("false_positives", 0)
    m["detect.detection_ns"] = c.get("detection_ns", 0)
    m["faults.transitions"] = c.get("transitions", 0)
    m["faults.injected_drops"] = c.get("injected_drops", 0)
    m["workload.arrivals_s"] = setup_total("FlowGenerator.arrival_list")
    m["metrics.summarize_s"] = (setup_total("FctStats.build")
                                + setup_total("ResultSummary.from_result"))
    cells = sorted(plain.cell_s)
    m["experiments.cells"] = len(cells)
    m["experiments.cell_s_p50"] = statistics.median(cells) if cells else 0.0
    if len(cells) > 10:
        # The highest percentile with at least ten cells beyond it.
        m["experiments.cell_s_tail"] = cells[len(cells) - 11]
        m["experiments.cell_s_tail_pct"] = 100 * (len(cells) - 10) // len(cells)
    else:
        m["experiments.cell_s_tail"] = 0.0
        m["experiments.cell_s_tail_pct"] = 0
    if pool is not None:
        m["experiments.pool_speedup"] = ratio(plain.wall_s, pool["cold_s"])
        m["experiments.summary_bytes"] = pool["summary_bytes"]
        m["experiments.cache_put_ms"] = pool["put_ms"]
        m["experiments.cache_get_ms"] = pool["get_ms"]
        m["experiments.cache_hit_frac"] = pool["hit_frac"]
        m["experiments.warm_s"] = pool["warm_s"]
    else:
        for key in ("pool_speedup", "summary_bytes", "cache_put_ms",
                    "cache_get_ms", "cache_hit_frac", "warm_s"):
            m[f"experiments.{key}"] = 0.0
    for layer in spans.LAYERS:
        key = f"{layer}.self_share"
        if key in LAYER_UNITS:
            m[key] = ratio(layer_self[layer], attributed_ns)
    attributed_layers = sum(layer_self.values())
    m["trace.overhead_x"] = ratio(traced.wall_s, plain.wall_s)
    m["trace.bookkeeping_share"] = ratio(rec.bookkeeping_ns, total_ns)
    m["trace.unattributed_share"] = ratio(attributed_ns - attributed_layers,
                                          attributed_ns)
    return m


def span_dump(traced: Pass) -> Dict:
    rec = traced.rec
    return {
        "uncovered_ns_per_span": rec.uncovered_ns,
        "inner_ns_per_span": rec.inner_ns,
        "bookkeeping_ns": rec.bookkeeping_ns,
        "traced_wall_ns": int(traced.wall_s * 1e9),
        "layers_self_ns": rec.layer_self_ns(),
        "by_name": {
            name: {"layer": e[0], "count": e[1], "total_ns": e[2], "self_ns": e[3]}
            for name, e in sorted(rec.totals.items(), key=lambda kv: -kv[1][3])
        },
        "not_wrapped": traced.missing,
        "raw_fields": ["span_id", "name", "start_ns", "end_ns", "parent_id", "cell"],
        "raw": rec.raw,
    }


# --------------------------------------------------------------------- #
# Provenance and output
# --------------------------------------------------------------------- #


def provenance(args) -> Dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                ref = fh.read().strip()
        commit = ref
    except OSError:
        pass
    from repro.experiments.parallel import code_version

    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "code_version": code_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "note": "numbers from different hosts are not comparable",
    }


def load() -> None:
    """Import ``repro`` and the workloads from ``src``."""
    global workloads
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads as loaded  # imports every repro module the run uses

    workloads = loaded


def time_import() -> float:
    """Seconds a fresh interpreter takes to import ``repro`` and every
    module the workloads use.  (The benchmark's own process imported them
    once, cold; a single such import varies by a third between runs.)"""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t = time.perf_counter(); import repro, workloads; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC, HERE],
                          capture_output=True, text=True, check=True,
                          timeout=60, cwd=ROOT)
    return float(proc.stdout)


class _Port:
    """A stand-in for an output port in :func:`reference_kernel`."""

    __slots__ = ("queued", "sent")

    def __init__(self) -> None:
        self.queued = 0
        self.sent = 0

    def enqueue(self, n: int) -> None:
        self.queued += n


def reference_kernel() -> None:
    """Fixed pure-Python work shaped like the simulator's inner loop: a
    heap of timed events, method calls and attribute updates."""
    ports = [_Port() for _ in range(16)]
    heap: List = []
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        ports[i & 15].enqueue(i & 7)
        if len(heap) > 256:
            t, j = heapq.heappop(heap)
            ports[j & 15].sent += t


def time_kernel() -> float:
    """Seconds one :func:`reference_kernel` call takes."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def run_one(args) -> int:
    load()
    bench = Bench(args.workload, args.seed, args.seconds, tiny=args.tiny)
    if args.trace:
        values = bench.traced()
        units = LAYER_UNITS
    else:
        values = bench.timed()
        units = END_TO_END_UNITS
    info = provenance(args)
    info["failures"] = {str(k): v for k, v in sorted(bench.failed.items())}
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump({"provenance": info, "metrics": values, **bench.report}, fh)
    attempted = len(bench.configs)
    failed = len([i for i in bench.failed if i >= 0])
    result = {
        "correct": not bench.failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, timed and traced, each in its own process."""
    rows = []
    report = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report[f"{name}/trace{trace}"] = result
            ok = ok and result["correct"]
            for key, metric in result["metrics"].items():
                rows.append((name, trace, key, metric["value"], metric["unit"]))
    for name, trace, key, value, unit in rows:
        print(f"{name:14s} {'traced' if trace else 'timed':6s} {key:30s} "
              f"{value:>16.6g} {unit}")
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"all-seed{args.seed}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": ok, "workloads": len(report) // 2}))
    return 0


WORKLOAD_NAMES = ("refgrid", "paper-hermes", "failover", "grid-parallel")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, timed and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-check")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
