"""The workloads: ``paper-run``, ``paper-batch`` and ``serve-mix``.

Each workload runs the program only through its user-facing entry points
(``repro-eba run``, ``repro-eba batch run``, the ``repro-eba serve``
daemon), from a hermetic environment: its own cache directory (exec
checkpoints included) inside the run's work directory, and no inherited
``REPRO_*`` settings.  "Cold" means an empty cache in a fresh process;
the OS page cache is not dropped.

Untraced runs report the end-to-end metrics.  Traced runs start the same
commands through ``shim.py`` and report the per-layer metrics.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import socket
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import inputs as inputs_mod
import loadgen
from common import (Children, Finished, canonical_answer, median, percentile,
                    tree_bytes)
from layers import Trace, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
#: Where runs keep their caches, logs and spans (inside the checkout).
WORK_DIR = ".e2ebench_work"
#: Every run must finish well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3
#: Closed-loop phase of serve-mix, as a share of ``--seconds``.
CLOSED_SHARE = 0.5
#: Cold/warm daemon cycles of serve-mix (a pass lasts about a second, so
#: one alone would mostly measure the machine's second-to-second noise).
SERVE_CYCLES = 6
#: Warm passes per serve-mix cycle, each by a fresh daemon (a warm pass
#: reads the cache and writes nothing to it).  A warm pass lasts a
#: quarter of a second; with one a cycle, warm_s spread 0.23 across ten
#: seeds while the closed loop's figures, in the same runs, held 0.06.
WARM_PASSES = 2
#: Latency charged to a request that failed or never came back (it then
#: misses any latency limit).
MISSING_MS = 60_000.0

_FLOAT = re.compile(r"\d+\.\d+")
_HEADER = re.compile(r"^== (E\d+): .*\[([A-Z][A-Z ]*)\] ==$")


class Failure(Exception):
    """The workload could not run at all (the result is not printed)."""


class Bench:
    """One benchmark run: hermetic environment, children, tallies."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 traced: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = os.path.join(root, WORK_DIR, f"{workload}-{os.getpid()}")
        self.cache = os.path.join(self.work, "cache")
        self.logs = os.path.join(self.work, "logs")
        self.deadline = time.monotonic() + RUN_BUDGET_S
        os.makedirs(os.path.join(self.work, "tmp"), exist_ok=True)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update({
            "PYTHONPATH": os.path.join(root, "src"),
            "REPRO_CACHE_DIR": self.cache,
            "TMPDIR": os.path.join(self.work, "tmp"),
        })
        self.env = env
        self.children = Children(env=env, cwd=root)
        self.traces: List[Trace] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.detail: Dict[str, Any] = {}

    # -- bookkeeping -------------------------------------------------------

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise Failure("run budget exhausted")
        return left

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed one is recorded with its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def span_dir(self) -> str:
        path = os.path.join(self.work, "spans", f"{len(self.traces):02d}")
        os.makedirs(path, exist_ok=True)
        return path

    def argv(self, args: List[str], span_dir: Optional[str]) -> List[str]:
        if span_dir is None:
            return [sys.executable, "-m", "repro.cli"] + args
        return [sys.executable, os.path.join(HERE, "shim.py"), span_dir,
                "--"] + args

    def cli(self, args: List[str]) -> Finished:
        """Run one CLI command to completion (through the shim if traced)."""
        span_dir = self.span_dir() if self.traced else None
        done = self.children.run(self.argv(args, span_dir),
                                 timeout=self.remaining(), log_dir=self.logs)
        if span_dir is not None:
            self.traces.append(Trace(span_dir))
        return done

    def cli_startup(self) -> float:
        """Wall time of one fresh ``repro-eba list`` process."""
        done = self.children.run(self.argv(["list"], None),
                                 timeout=self.remaining(), log_dir=self.logs)
        if done.returncode != 0:
            raise Failure(f"`repro-eba list` failed: {done.stderr[-500:]}")
        return done.wall_s

    def cli_setup(self) -> float:
        """Median start-up of ``SETUP_REPEATS`` fresh processes."""
        return median([self.cli_startup() for _ in range(SETUP_REPEATS)])

    def layer_metrics(self, finished: List[Finished],
                      served=None) -> Dict[str, float]:
        # Traced walls, to set against the untraced runs' figures.
        self.detail["traced_walls_s"] = [f.wall_s for f in finished]
        return layer_metrics(
            self.traces,
            cpu_s=sum(f.cpu_s for f in finished),
            wall_s=sum(f.wall_s for f in finished),
            nproc=os.cpu_count() or 1,
            served=served,
        )

    def close(self) -> None:
        self.children.close()


def _normalized(text: str) -> str:
    """Text with decimal numbers masked (timings differ run to run)."""
    return _FLOAT.sub("#", text)


def _latency_ms(samples: List[float], q: float) -> float:
    return percentile(samples, q) if samples else MISSING_MS


# -- paper-run -------------------------------------------------------------------


def paper_run(bench: Bench) -> Dict[str, float]:
    """``repro-eba run`` over the experiments, cold then warm, in rounds.

    Each round empties the cache, runs every experiment in a fresh
    process (the cold pass), then the experiments that read the system
    cache in another over the cache it left (the warm pass).  A pass's
    time is, per experiment, the median over the rounds, plus the median
    of the process's time outside the experiments (start-up, import,
    exit).  Set-up is the median of one start-up before each pass,
    spread over the run.  Peak memory is the median over the rounds of
    each round's peak: which cells the provider still holds when a large
    experiment runs depends on the order.  Traced runs make one round.
    """
    drawn = inputs_mod.paper_run(bench.seed)
    bench.detail["inputs_digest"] = drawn["digest"]
    rounds = drawn["rounds"][:1] if bench.traced else drawn["rounds"]
    startups: List[float] = []
    finished: List[Finished] = []
    spent: Dict[str, Dict[str, List[float]]] = {"cold": {}, "warm": {}}
    outside: Dict[str, List[float]] = {"cold": [], "warm": []}
    tables: Dict[str, str] = {}
    kernels: Counter = Counter()
    peaks: List[float] = []
    for index, orders in enumerate(rounds):
        shutil.rmtree(bench.cache, ignore_errors=True)
        for name in ("cold", "warm"):
            if not bench.traced:
                startups.append(bench.cli_startup())
            export = os.path.join(bench.work, f"{name}{index}.json")
            done = bench.cli(["run", *orders[name], "--json", export])
            finished.append(done)
            try:
                with open(export) as handle:
                    got = {e["experiment_id"]: e for e in json.load(handle)}
            except (OSError, ValueError):
                got = {}
            bench.check(done.returncode == 0,
                        f"{name} pass {index} exited {done.returncode}: "
                        f"{done.stderr[-300:]}")
            inside = 0.0
            for experiment in orders[name]:
                entry = got.get(experiment)
                ok = entry is not None and bool(entry.get("ok"))
                if ok:
                    text = _normalized(
                        entry["table"] + "\n".join(entry.get("notes", [])))
                    ok = tables.setdefault(experiment, text) == text
                bench.check(ok, f"{experiment} ({name} pass {index}) did not "
                                f"reproduce, or its verdicts differ from "
                                f"the first pass")
                if entry is None:
                    continue
                inside += float(entry["seconds"])
                spent[name].setdefault(experiment, []).append(
                    float(entry["seconds"]))
                counters = entry["data"].get("instrumentation", {}).get(
                    "counters", {})
                kernels.update({key[len("kernel_selected_"):]: count
                                for key, count in counters.items()
                                if key.startswith("kernel_selected_")})
            outside[name].append(max(0.0, done.wall_s - inside))
        peaks.append(max(f.maxrss_mb for f in finished[-2:]))
    bench.detail["kernels"] = dict(kernels)
    # Per (pass, experiment): the median wall over the rounds, in ms.
    typical = {name: {e: median(times) * 1000.0
                      for e, times in spent[name].items()}
               for name in spent}
    samples = [ms for name in typical for ms in typical[name].values()]
    bench.detail["samples"] = len(samples)
    bench.detail["rounds"] = len(rounds)
    if bench.traced:
        return dict(bench.layer_metrics(finished),
                    **{"query.samples": float(len(samples)),
                       "loadgen.late_ms.p99": 0.0})
    walls = {name: sum(typical[name].values()) / 1000.0
             + median(outside[name]) for name in typical}
    bench.detail["pass_walls_s"] = [f.wall_s for f in finished]
    bench.detail["round_peak_rss_mb"] = peaks
    bench.detail["experiment_ms"] = typical
    return {
        "setup_s": median(startups),
        "cold_s": walls["cold"],
        "warm_s": walls["warm"],
        "query_p50_ms": _latency_ms(samples, 50),
        "query_p99_ms": _latency_ms(samples, 99),
        "serve_qps": len(samples) / (walls["cold"] + walls["warm"]),
        "peak_rss_mb": median(peaks),
        "cache_mb": tree_bytes(bench.cache) / 1e6,
    }


# -- paper-batch -----------------------------------------------------------------


def _batch_verdicts(stdout: str) -> Dict[str, Tuple[str, str]]:
    """``claim -> (verdict, normalized result text)`` from batch output."""
    verdicts: Dict[str, Tuple[str, str]] = {}
    current = None
    body: List[str] = []
    for line in stdout.splitlines() + ["== END"]:
        match = _HEADER.match(line)
        if match or line == "== END":
            if current is not None:
                text = "\n".join(body).split("instrumentation:")[0]
                verdicts[current[0]] = (current[1], _normalized(text))
            current = (match.group(1), match.group(2)) if match else None
            body = []
        elif current is not None:
            body.append(line)
    return verdicts


def _claim_seconds(cache: str) -> Dict[str, float]:
    """Wall time of each claim's batch, from the journals the program wrote.

    Each batch run rewrites its claims' journals, so after a pass they
    hold that pass's times.
    """
    seconds: Dict[str, float] = {}
    exec_dir = os.path.join(cache, "exec")
    if not os.path.isdir(exec_dir):
        return seconds
    for batch in sorted(os.listdir(exec_dir)):
        path = os.path.join(exec_dir, batch, "telemetry.jsonl")
        if not os.path.exists(path):
            continue
        with open(path) as handle:
            for line in handle:
                event = json.loads(line)
                if event.get("event") == "batch_done":
                    seconds[batch.split("_")[0]] = float(event["seconds"])
    return seconds


def paper_batch(bench: Bench) -> Dict[str, float]:
    """``repro-eba batch run`` of E4/E5/E21/E9 on 2 workers, in rounds.

    Each round empties the cache (exec checkpoints included), runs the
    claims in a fresh process (the cold pass) and again in another over
    the cache it left (the warm pass).  Cold and warm are the median
    walls over the rounds; the per-claim samples are, per pass and
    claim, the median over the rounds.  Traced runs make one round.
    """
    drawn = inputs_mod.paper_batch(bench.seed)
    bench.detail["inputs_digest"] = drawn["digest"]
    rounds = drawn["rounds"][:1] if bench.traced else drawn["rounds"]
    setup = None if bench.traced else bench.cli_setup()
    finished: List[Finished] = []
    walls: Dict[str, List[float]] = {"cold": [], "warm": []}
    spent: Dict[str, Dict[str, List[float]]] = {"cold": {}, "warm": {}}
    peaks: List[float] = []
    seen: Dict[str, str] = {}
    for index, orders in enumerate(rounds):
        shutil.rmtree(bench.cache, ignore_errors=True)
        for name in ("cold", "warm"):
            order = orders[name]
            done = bench.cli(["batch", "run", *order, "--workers", "2"])
            finished.append(done)
            walls[name].append(done.wall_s)
            for claim, seconds in _claim_seconds(bench.cache).items():
                spent[name].setdefault(claim, []).append(seconds * 1000.0)
            verdicts = _batch_verdicts(done.stdout)
            for claim in order:
                verdict, text = verdicts.get(claim, ("MISSING", ""))
                ok = done.returncode == 0 and verdict == "REPRODUCED"
                ok = ok and seen.setdefault(claim, text) == text
                bench.check(ok, f"batch {claim} ({name} pass {index}): "
                                f"{verdict}, exit {done.returncode} "
                                f"{done.stderr[-300:]}")
        peaks.append(max(f.maxrss_mb for f in finished[-2:]))
    keys = re.findall(r"\(batch (\S+?):", finished[0].stdout)
    bench.detail["kernels"] = sorted({key.split("_")[2] for key in keys
                                      if key.count("_") >= 2})
    claim_ms = [median(times) for name in spent
                for times in spent[name].values()]
    bench.detail["samples"] = len(claim_ms)
    bench.detail["rounds"] = len(rounds)
    if bench.traced:
        return dict(bench.layer_metrics(finished),
                    **{"query.samples": float(len(claim_ms)),
                       "loadgen.late_ms.p99": 0.0})
    cold, warm = median(walls["cold"]), median(walls["warm"])
    bench.detail["claim_ms"] = spent
    return {
        "setup_s": setup,
        "cold_s": cold,
        "warm_s": warm,
        "query_p50_ms": _latency_ms(claim_ms, 50),
        "query_p99_ms": _latency_ms(claim_ms, 99),
        "serve_qps": len(claim_ms) / (cold + warm),
        "peak_rss_mb": median(peaks),
        "cache_mb": tree_bytes(bench.cache) / 1e6,
    }


# -- serve-mix -------------------------------------------------------------------


def _healthz(path: str) -> bool:
    probe = socket.socket(socket.AF_UNIX)
    probe.settimeout(2.0)
    try:
        probe.connect(path)
        probe.sendall(b'{"id": 0, "op": "healthz"}\n')
        return b'"ok": true' in probe.makefile("rb").readline()
    except OSError:
        return False
    finally:
        probe.close()


class Daemon:
    """One ``repro-eba serve`` process and how long it took to answer."""

    def __init__(self, bench: Bench, tag: str) -> None:
        self.bench = bench
        name = f"{tag}.sock"
        self.socket = os.path.relpath(os.path.join(bench.work, name))
        self.span_dir = bench.span_dir() if bench.traced else None
        argv = bench.argv(["serve", "--socket", name, "--workers", "2"],
                          self.span_dir)
        self.proc = bench.children.start(argv, cwd=bench.work,
                                         log_dir=bench.logs)
        started = self.proc.e2e_started  # type: ignore[attr-defined]
        while not _healthz(self.socket):
            if self.proc.poll() is not None or bench.remaining() < 60:
                raise Failure(f"daemon {tag} did not come up")
            time.sleep(0.002)
        self.startup_s = time.perf_counter() - started

    def stop(self) -> Finished:
        done = self.bench.children.stop(self.proc,
                                        timeout=min(30.0, self.bench.remaining()))
        if self.span_dir is not None:
            self.bench.traces.append(Trace(self.span_dir))
        return done


def _request_key(op: str, params: Dict[str, Any]) -> str:
    return json.dumps([op, params], sort_keys=True)


def _reference(bench: Bench, samples) -> Dict[str, Dict[str, Any]]:
    """In-process QueryEngine answers for every distinct request sent."""
    distinct: Dict[str, Dict[str, Any]] = {}
    for sample in samples:
        distinct.setdefault(_request_key(sample.op, sample.params),
                            {"op": sample.op, "params": sample.params})
    requests_path = os.path.join(bench.work, "reference-requests.json")
    answers_path = os.path.join(bench.work, "reference-answers.json")
    with open(requests_path, "w") as handle:
        json.dump(list(distinct.values()), handle)
    env = dict(bench.env, REPRO_DISK_CACHE="0")
    children = Children(env=env, cwd=bench.root)
    try:
        done = children.run(
            [sys.executable, os.path.join(HERE, "reference.py"),
             requests_path, answers_path],
            timeout=bench.remaining(), log_dir=bench.logs,
        )
    finally:
        children.close()
    if done.returncode != 0:
        raise Failure(f"reference run failed: {done.stderr[-500:]}")
    with open(answers_path) as handle:
        answers = json.load(handle)
    return dict(zip(distinct, answers))


def _check_served(bench: Bench, samples, reference) -> Counter:
    """Fail every refused, errored or wrong answer; count eval kernels."""
    kernels: Counter = Counter()
    for sample in samples:
        what = f"{sample.op} #{sample.id} {json.dumps(sample.params)[:160]}"
        if not sample.ok:
            error = (sample.frame or {}).get("error", "no reply")
            bench.check(False, f"{what}: {error}")
            continue
        result = sample.frame["result"]
        expected = reference.get(_request_key(sample.op, sample.params), {})
        ok = expected.get("answer") == canonical_answer(sample.op, result)
        if sample.op == "explain":
            ok = ok and bool(result.get("check_ok"))
        if sample.op == "monitor":
            ok = ok and sample.stream_events == sample.params["rounds"]
        if sample.op == "eval":
            kernels[result.get("kernel")] += 1
        bench.check(ok, f"{what}: served answer differs from in-process "
                        f"QueryEngine ({expected.get('error', 'mismatch')})")
    return kernels


def _session_latency(sample) -> float:
    return sample.done - sample.sent if sample.done else MISSING_MS / 1000.0


def _session_wall(samples) -> float:
    return (samples[-1].done - samples[0].sent if samples[-1].done
            else MISSING_MS / 1000.0)


def _typical_pass(passes) -> float:
    """The wall of a typical session pass, from several passes.

    Per request, the median of its latencies over the passes, summed,
    plus the median of each pass's time between requests.  Every pass
    sends the same requests in the same order, so a blip of the machine
    that slows a few requests of one pass moves no median.
    """
    per_request = [median([_session_latency(s) for s in column])
                   for column in zip(*passes)]
    between = [max(0.0, _session_wall(samples)
                   - sum(_session_latency(s) for s in samples))
               for samples in passes]
    return sum(per_request) + median(between)


def serve_mix(bench: Bench) -> Dict[str, float]:
    """A ``repro-eba serve --workers 2`` daemon under a seeded query mix.

    ``SERVE_CYCLES`` cycles, each: a fresh daemon on an empty cache runs
    the session (every popular formula on every cell: forked builds,
    then evaluation) — a cold pass; ``WARM_PASSES`` fresh daemons on that
    cache run it again (disk loads, evaluation) — warm passes — and the
    last then takes one slice of the open-loop schedule and one slice of
    the closed loop.
    Interleaving spreads every metric over the whole run, so a slow
    stretch of the machine weighs on all of them alike.  Set-up is the
    median daemon start-up; cold and warm are ``_typical_pass``.
    """
    drawn = inputs_mod.serve_mix(bench.seed, bench.seconds)
    bench.detail["inputs_digest"] = drawn["digest"]
    startups: List[float] = []
    stopped: List[Finished] = []
    passes: Dict[str, List[List[Any]]] = {"cold": [], "warm": []}
    served, opened, closed = [], [], []
    slices: List[Tuple[List[Any], float]] = []
    slice_s = bench.seconds / SERVE_CYCLES
    # The closed loop measures the hot path: its requests, on the cells
    # the LRU holds, are each answered once before it starts.
    hot = list({_request_key(r["op"], r["params"]): r
                for r in drawn["closed"]}.values())

    def run_session(daemon: Daemon, name: str, first_id: int) -> None:
        samples = asyncio.run(loadgen.sequential(
            daemon.socket, drawn["session"], first_id,
            timeout=bench.remaining()))
        served.extend(samples)
        passes[name].append(samples)

    for cycle in range(SERVE_CYCLES):
        shutil.rmtree(bench.cache, ignore_errors=True)
        base = (cycle + 1) * 1_000_000
        daemon = Daemon(bench, f"cold{cycle}")
        startups.append(daemon.startup_s)
        run_session(daemon, "cold", base)
        stopped.append(daemon.stop())
        for extra in range(WARM_PASSES - 1):
            daemon = Daemon(bench, f"warm{cycle}x{extra}")
            startups.append(daemon.startup_s)
            run_session(daemon, "warm", base + 500_000 + extra * 1_000)
            stopped.append(daemon.stop())
        daemon = Daemon(bench, f"warm{cycle}")
        startups.append(daemon.startup_s)
        run_session(daemon, "warm", base + 100_000)
        window = [dict(r, at=r["at"] - cycle * slice_s)
                  for r in drawn["schedule"]
                  if cycle * slice_s <= r["at"] < (cycle + 1) * slice_s]
        opened.extend(asyncio.run(loadgen.open_loop(
            daemon.socket, window, base + 200_000, connections=2,
            drain_timeout=min(30.0, bench.remaining()))))
        served.extend(asyncio.run(loadgen.sequential(
            daemon.socket, hot, base + 300_000, timeout=bench.remaining())))
        samples, elapsed = asyncio.run(loadgen.closed_loop(
            daemon.socket, drawn["closed"], base + 400_000, connections=2,
            seconds=slice_s * CLOSED_SHARE,
            timeout=min(30.0, bench.remaining())))
        closed.extend(samples)
        slices.append((samples, elapsed))
        stopped.append(daemon.stop())

    everything = served + opened + closed
    reference = _reference(bench, everything)
    kernels = _check_served(bench, everything, reference)
    def latencies(samples) -> List[float]:
        return [(s.done - s.due) * 1000.0 if s.ok else MISSING_MS
                for s in samples]

    late = [(s.sent - s.due) * 1000.0 for s in opened]
    bench.detail.update({
        "kernels": dict(kernels),
        "startups_s": startups,
        "passes_s": {name: [_session_wall(p) for p in runs]
                     for name, runs in passes.items()},
        "samples": {"open": len(opened), "closed": len(closed)},
        "closed_loop_ms": {f"p{q}": _latency_ms(latencies(closed), q)
                           for q in (10, 25, 50, 75, 90, 99)},
        "open_loop_ms": {"p50": _latency_ms(latencies(opened), 50),
                         "p99": _latency_ms(latencies(opened), 99)},
        "late_ms": {"p50": percentile(late, 50), "p99": percentile(late, 99),
                    "max": max(late)},
    })
    if bench.traced:
        metrics = bench.layer_metrics(stopped, served=opened)
        metrics["loadgen.late_ms.p99"] = percentile(late, 99)
        metrics["query.samples"] = float(len(opened))
        return metrics

    return {
        "setup_s": median(startups),
        "cold_s": _typical_pass(passes["cold"]),
        "warm_s": _typical_pass(passes["warm"]),
        # Closed-loop latency and throughput: per slice (about 10^3
        # samples each), the median over the slices, so a stall that
        # lands on one slice sets no figure.  The open loop's p99 rests
        # on a dozen stalls and swung 0.5 (IQR/median) across seeds; it
        # is in the detail line and the per-layer serve.* spans.
        "query_p50_ms": median([_latency_ms(latencies(part), 50)
                                for part, _ in slices]),
        "query_p99_ms": median([_latency_ms(latencies(part), 99)
                                for part, _ in slices]),
        "serve_qps": median([sum(1 for s in part if s.ok) / elapsed
                             for part, elapsed in slices]),
        "peak_rss_mb": max(f.maxrss_mb for f in stopped),
        "cache_mb": tree_bytes(bench.cache) / 1e6,
    }


WORKLOADS = {
    "paper-run": paper_run,
    "paper-batch": paper_batch,
    "serve-mix": serve_mix,
}
