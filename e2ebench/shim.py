"""Traced launcher: wraps the program's layer entry points, then runs it.

Usage::

    python3 e2ebench/shim.py SPAN_DIR -- <repro-eba arguments>

The shim imports the program, replaces each public function listed in
``TARGETS`` with a wrapper that records a span (name, start, end,
parent, pid, thread), rebinds every module-level import of it, and then
calls ``repro.cli.main``.  The program's files are not changed.

Processes forked from the traced one (exec workers, serve fork builds)
inherit the wrappers.  Spans are kept in memory and appended to
``SPAN_DIR/spans-<pid>.jsonl`` when a process's outermost span ends in a
forked child, when a forked child exits through ``os._exit``, and when
the traced process finishes.  The last line the traced process writes is
a ``counters`` record: the program's ``obs`` counters, the provider's
``cache_info()``, the measured cost of one span and the tracer's own
time outside the spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder for one process (reset in forked children)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.child = False
        self.records: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name, hook: Optional[Callable] = None):
        """*fn* recording one span per call.

        *name* is a string or ``name(args, kwargs, result)``; *hook*
        returns extra attributes from ``(args, kwargs, result)``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                record = {
                    "id": span_id, "parent": parent,
                    "name": name if isinstance(name, str)
                    else name(args, kwargs, result),
                    "start": start, "end": end, "pid": tracer.pid,
                    "tid": threading.get_ident(),
                }
                if failed:
                    record["error"] = True
                elif hook is not None:
                    record["attrs"] = hook(args, kwargs, result)
                tracer.records.append(record)
                if not stack and tracer.child:
                    tracer.flush()

        return traced

    def event(self, kind: str, **fields: Any) -> None:
        fields["kind"] = kind
        fields["pid"] = self.pid
        self.events.append(fields)

    def after_fork(self) -> None:
        self.pid = os.getpid()
        self.child = True
        self.records = []
        self.events = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def flush(self, extra: Optional[Dict[str, Any]] = None) -> None:
        with self._lock:
            records, self.records = self.records, []
            events, self.events = self.events, []
            if not records and not events and extra is None:
                return
            path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
            with open(path, "a") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
                for record in events:
                    handle.write(json.dumps(record) + "\n")
                if extra is not None:
                    handle.write(json.dumps(extra, default=str) + "\n")


# -- wrap targets ----------------------------------------------------------------


def _size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _runs(_args, _kwargs, system) -> Dict[str, Any]:
    return {"runs": len(system.runs)}


def _store_bytes(args, kwargs, _result) -> Dict[str, Any]:
    return {"bytes": _size(args[1] if len(args) > 1 else kwargs.get("path"))}


def _load_bytes(args, kwargs, _result) -> Dict[str, Any]:
    return {"bytes": _size(args[0] if args else kwargs.get("path"))}


def _batch_meta(_args, _kwargs, result) -> Dict[str, Any]:
    batch = result.data.get("batch", {})
    return {"shards": batch.get("shards", 0),
            "retries": batch.get("retries", 0)}


def _eval_name(args, _kwargs, _result) -> str:
    return f"knowledge.eval.{args[0].effective_kernel()}"


def _experiment_name(args, kwargs, _result) -> str:
    return f"experiment.{args[0] if args else kwargs.get('experiment_id')}"


#: ``(module, attribute path, span name, attribute hook)``.  Names are
#: the layer names the per-layer metrics use.
TARGETS = [
    ("repro.model.system", "build_system", "model.build", _runs),
    ("repro.model.system", "extend_system", "model.build", _runs),
    ("repro.model.fastbuild", "build_arrays", "fastbuild.build", None),
    ("repro.model.provider", "SystemProvider.get", "provider.get", None),
    ("repro.model.provider", "SystemProvider.get_arrays", "provider.get",
     None),
    ("repro.model.provider", "SystemProvider.extend", "provider.get", None),
    ("repro.io.system_codec", "dump_system", "codec.store", _store_bytes),
    ("repro.io.system_codec", "dump_system_pickle", "codec.store",
     _store_bytes),
    ("repro.io.system_codec", "load_system", "codec.load", _load_bytes),
    ("repro.io.system_codec", "load_system_pickle", "codec.load",
     _load_bytes),
    ("repro.model.partition", "SystemArrays.save", "partition.arrays_store",
     None),
    ("repro.model.partition", "SystemArrays.load", "partition.arrays_load",
     None),
    ("repro.model.partition", "SystemArrays.from_system", "partition.build",
     None),
    ("repro.model.partition", "LimbBlockPartition.from_arrays",
     "partition.build", None),
    ("repro.model.partition", "LimbBlockPartition.from_index",
     "partition.build", None),
    ("repro.model.partition", "LimbBlockPartition.component_labels",
     "partition.components", None),
    ("repro.model.partition", "merge_component_labels",
     "partition.components", None),
    ("repro.model.system", "System.cached_evaluation", _eval_name, None),
    ("repro.knowledge.semantics", "run_reachability_components",
     "knowledge.components", None),
    ("repro.exec.plan", "run_batch", "exec.batch", _batch_meta),
    ("repro.exec.pool", "ShardPool.run", "exec.shard_wait", None),
    ("repro.exec.shard", "run_task", "exec.shard", None),
    ("repro.sim.engine", "execute", "sim.run", None),
    ("repro.core.construction", "construction_sequence", "core.construction",
     None),
    ("repro.core.construction", "two_step_optimization", "core.construction",
     None),
    ("repro.core.optimality", "check_optimality", "core.optimality", None),
    ("repro.core.domination", "compare", "core.domination", None),
    ("repro.experiments.registry", "run_experiment", _experiment_name, None),
]


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every loaded ``repro`` module's copy of *original* at *wrapped*."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every target, the serve queue and the exec finalize step."""
    for module_name, path, name, hook in TARGETS:
        module = importlib.import_module(module_name)
        owner: Any = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(tracer.wrap(raw.__func__, name, hook)))
            continue
        wrapped = tracer.wrap(raw, name, hook)
        setattr(owner, attr, wrapped)
        if owner is module:
            _rebind(raw, wrapped)
    _install_plan_finalize(tracer)
    _install_queue(tracer)


def _install_plan_finalize(tracer: Tracer) -> None:
    plan_module = importlib.import_module("repro.exec.plan")
    original = plan_module.plan_for

    @functools.wraps(original)
    def plan_for(*args, **kwargs):
        plan = original(*args, **kwargs)
        plan.finalize = tracer.wrap(plan.finalize, "exec.finalize")
        return plan

    plan_module.plan_for = plan_for
    _rebind(original, plan_for)


def _install_queue(tracer: Tracer) -> None:
    """Queue wait per request id and the deepest queue seen."""
    queue_module = importlib.import_module("repro.serve.queue")
    cls = queue_module.RequestQueue
    push, pop = cls.try_push, cls.pop
    state = {"max_depth": 0}

    def try_push(self, item):
        admitted = push(self, item)
        if admitted:
            depth = len(self)
            if depth > state["max_depth"]:
                state["max_depth"] = depth
                tracer.event("queue_depth", depth=depth)
        return admitted

    def pop_traced(self, timeout=None):
        popped = pop(self, timeout)
        if popped is not None:
            waited, pending = popped
            tracer.event("queue_wait", id=getattr(pending, "request_id", None),
                         seconds=waited)
            tracer._local.request_id = getattr(pending, "request_id", None)
        return popped

    cls.try_push = try_push
    cls.pop = pop_traced

    engine_cls = importlib.import_module("repro.serve.session").QueryEngine
    engine_cls.execute = tracer.wrap(
        engine_cls.execute, "serve.execute",
        lambda *_: {"rid": getattr(tracer._local, "request_id", None)},
    )


def span_cost(tracer: Tracer, calls: int = 20000) -> float:
    """Measured seconds one wrapper adds to a call (recorded, then dropped)."""

    def noop():
        return None

    wrapped = tracer.wrap(noop, "calibration")
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - started
    tracer.records = []
    return max(0.0, (traced - bare) / calls)


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: shim.py SPAN_DIR -- <repro-eba arguments>",
              file=sys.stderr)
        return 2
    out_dir, cli_args = argv[0], argv[2:]
    os.makedirs(out_dir, exist_ok=True)
    setup_started = time.perf_counter()
    tracer = Tracer(out_dir)
    cost = span_cost(tracer)
    install(tracer)
    os.register_at_fork(after_in_child=tracer.after_fork)
    real_exit = os._exit

    def exit_flushing(code):
        try:
            tracer.flush()
        finally:
            real_exit(code)

    os._exit = exit_flushing
    from repro import obs
    from repro.cli import main as cli_main
    from repro.model.provider import get_provider

    started = time.perf_counter()
    try:
        code = cli_main(cli_args)
    finally:
        ended = time.perf_counter()
        tracer.records.append({
            "id": 0, "parent": -1, "name": "root", "start": started,
            "end": ended, "pid": tracer.pid, "tid": threading.get_ident(),
        })
        info = get_provider().cache_info()
        info.pop("keys", None)
        counters = {
            "kind": "counters", "pid": tracer.pid,
            "obs": obs.snapshot().get("counters", {}),
            "cache_info": info, "span_cost_s": cost,
        }
        tracer.flush()
        # The tracer's own time outside the spans: calibration, wrapping
        # and writing the spans out.
        counters["tracer_s"] = (time.perf_counter() - ended) + (
            started - setup_started)
        tracer.flush(extra=counters)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
