"""Per-layer metrics from a traced run's spans and the program's counters.

Every ``*_s`` metric is summed *self* time: a span's duration minus the
union of its children in the same process.  Counts come from the
program's own ``obs`` counters (which the exec pool folds back from its
workers), from batch result metadata carried on ``exec.batch`` spans, and
from the spans themselves.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional

from common import percentile, self_time

#: Experiments whose self time ``paper-run`` reports.
EXPERIMENTS = [f"E{i}" for i in range(1, 22) if i not in (9, 14)]

#: ``metric -> span names`` whose self time it sums.
SELF_TIME = {
    "model.build_s": ["model.build"],
    "fastbuild.build_s": ["fastbuild.build"],
    "provider.get_self_s": ["provider.get"],
    "codec.store_s": ["codec.store"],
    "codec.load_s": ["codec.load"],
    "partition.arrays_store_s": ["partition.arrays_store"],
    "partition.arrays_load_s": ["partition.arrays_load"],
    "partition.build_s": ["partition.build"],
    "partition.components_s": ["partition.components"],
    "knowledge.eval_s.bitset": ["knowledge.eval.bitset"],
    "knowledge.eval_s.chunked": ["knowledge.eval.chunked"],
    "knowledge.components_s": ["knowledge.components"],
    "exec.batch_s": ["exec.batch"],
    "exec.shard_busy_s": ["exec.shard"],
    "exec.shard_wait_s": ["exec.shard_wait"],
    "exec.finalize_s": ["exec.finalize"],
    "sim.run_s": ["sim.run"],
    "core.construction_s": ["core.construction"],
    "core.optimality_s": ["core.optimality"],
    "core.domination_s": ["core.domination"],
}
SELF_TIME.update({f"experiment.{e}_s": [f"experiment.{e}"]
                  for e in EXPERIMENTS})


class Trace:
    """The spans, events and counter records of one traced process tree."""

    def __init__(self, span_dir: str) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self.counters: List[Dict[str, Any]] = []
        for path in sorted(glob.glob(os.path.join(span_dir, "*.jsonl"))):
            with open(path) as handle:
                for line in handle:
                    record = json.loads(line)
                    if "name" in record:
                        self.spans.append(record)
                    elif record.get("kind") == "counters":
                        self.counters.append(record)
                    else:
                        self.events.append(record)

    def self_times(self) -> Dict[str, float]:
        children = defaultdict(list)
        for span in self.spans:
            children[(span["pid"], span["parent"])].append(
                (span["start"], span["end"])
            )
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += self_time(
                span["start"], span["end"],
                children.get((span["pid"], span["id"]), ()),
            )
        return totals

    def roots(self) -> List[Dict[str, Any]]:
        return [span for span in self.spans if span["name"] == "root"]


def _obs(traces: Iterable[Trace]) -> Dict[str, float]:
    total: Dict[str, float] = defaultdict(float)
    for trace in traces:
        for record in trace.counters:
            for name, value in record.get("obs", {}).items():
                total[name] += value
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _attr_sum(traces, name: str, attr: str) -> float:
    return float(sum((span.get("attrs") or {}).get(attr, 0)
                     for trace in traces for span in trace.spans
                     if span["name"] == name))


def _ms_quantile(values: List[float], q: float) -> float:
    return percentile(values, q) * 1000.0 if values else 0.0


def serve_metrics(traces: List[Trace], samples, counters) -> Dict[str, float]:
    """Queue wait, execute and wire time of the open-loop requests."""
    ids = {sample.id for sample in samples}
    waits: Dict[Any, float] = {}
    executes: Dict[Any, float] = {}
    depth = 0
    for trace in traces:
        for event in trace.events:
            if event["kind"] == "queue_wait" and event.get("id") in ids:
                waits[event["id"]] = event["seconds"]
            elif event["kind"] == "queue_depth":
                depth = max(depth, event["depth"])
        for span in trace.spans:
            rid = (span.get("attrs") or {}).get("rid")
            if span["name"] == "serve.execute" and rid in ids:
                executes[rid] = span["end"] - span["start"]
    wires = []
    for sample in samples:
        if sample.done is None or sample.id not in waits \
                or sample.id not in executes:
            continue
        wires.append(max(0.0, (sample.done - sample.sent)
                         - waits[sample.id] - executes[sample.id]))
    rejected = sum(value for name, value in counters.items()
                   if name.startswith("serve_rejected_"))
    return {
        "serve.queue_wait_ms.p50": _ms_quantile(list(waits.values()), 50),
        "serve.queue_wait_ms.p99": _ms_quantile(list(waits.values()), 99),
        "serve.execute_ms.p50": _ms_quantile(list(executes.values()), 50),
        "serve.execute_ms.p99": _ms_quantile(list(executes.values()), 99),
        "serve.wire_ms.p50": _ms_quantile(wires, 50),
        "serve.rejected": float(rejected),
        "serve.max_queue_depth": float(depth),
        "serve.fork_builds": float(counters.get("serve_placement_fork", 0)),
        # Coverage of a served request: how much of the latency the
        # client saw (from its actual send) queue wait and execute explain.
        "_covered": sum(waits[i] + executes[i] for i in waits
                        if i in executes),
        "_observed": sum(sample.done - sample.sent for sample in samples
                         if sample.done is not None and sample.id in waits
                         and sample.id in executes),
    }


def layer_metrics(traces: List[Trace], *, cpu_s: float, wall_s: float,
                  nproc: int, served: Optional[list] = None
                  ) -> Dict[str, float]:
    """Every layer metric of a traced run (zero where a layer is idle)."""
    selfs: Dict[str, float] = defaultdict(float)
    for trace in traces:
        for name, value in trace.self_times().items():
            selfs[name] += value
    obs = _obs(traces)
    metrics: Dict[str, float] = {
        metric: sum(selfs.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME.items()
    }
    memory_hits = obs["system_cache_hits"] + obs["arrays_cache_hits"]
    memory_lookups = (memory_hits + obs["system_cache_misses"]
                      + obs["arrays_disk_hits"] + obs["arrays_cache_misses"])
    formula_lookups = obs["formula_cache_hits"] + obs["formula_cache_misses"]
    metrics.update({
        "model.runs_built": obs["runs_built"],
        "model.views_interned": obs["views_interned"],
        "provider.memory_hit_ratio": _ratio(memory_hits, memory_lookups),
        "provider.disk_hits": obs["disk_cache_hits"] + obs["arrays_disk_hits"],
        "provider.misses": obs["disk_cache_misses"]
        + obs["arrays_cache_misses"],
        "provider.evictions": obs["system_cache_evictions"]
        + obs["arrays_cache_evictions"],
        "codec.bytes_written": _attr_sum(traces, "codec.store", "bytes"),
        "codec.bytes_read": _attr_sum(traces, "codec.load", "bytes"),
        "knowledge.evals": obs["formula_cache_misses"],
        "knowledge.cache_hit_ratio": _ratio(obs["formula_cache_hits"],
                                            formula_lookups),
        "exec.shards": _attr_sum(traces, "exec.batch", "shards"),
        "exec.retries": _attr_sum(traces, "exec.batch", "retries"),
        "sim.runs": float(sum(1 for trace in traces for span in trace.spans
                              if span["name"] == "sim.run")),
        "proc.cpu_s": cpu_s,
        "proc.cpu_util": _ratio(cpu_s, wall_s * nproc),
    })
    serve = serve_metrics(traces, served or [], obs)
    covered, observed = serve.pop("_covered"), serve.pop("_observed")
    metrics.update(serve)
    if served:
        metrics["trace.coverage"] = _ratio(covered, observed)
    else:
        # The entry point's wall time spent inside some layer span.
        root_wall = sum(root["end"] - root["start"]
                        for trace in traces for root in trace.roots())
        metrics["trace.coverage"] = _ratio(
            root_wall - selfs.get("root", 0.0), root_wall
        )
    # Tracer time: the measured cost of each span recorded, plus the
    # shim's calibration, wrapping and span writing, over the wall time
    # of the traced processes.
    spans = sum(len(trace.spans) for trace in traces)
    counters = [record for trace in traces for record in trace.counters]
    cost = max((record.get("span_cost_s", 0.0) for record in counters),
               default=0.0)
    tracer_s = sum(record.get("tracer_s", 0.0) for record in counters)
    metrics["trace.overhead_frac"] = _ratio(spans * cost + tracer_s, wall_s)
    return metrics
