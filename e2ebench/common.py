"""Shared helpers: percentiles, span self time, child processes, fingerprint.

Nothing here imports the program under test; the benchmark talks to it
only through its command line, its daemon socket and (in traced runs)
the shim in ``shim.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: always one of the observations.

    With one observation every percentile is that observation, and no
    percentile exceeds the maximum.  An empty sample has no percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle observation (mean of the two middle ones for even n)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``[start, end)`` spans."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent, so a child that starts before or
    ends after its parent only removes the part they share.
    """
    clipped = [(max(start, s), min(end, e)) for s, e in children]
    return max(0.0, (end - start) - union_length(clipped))


def check_metric_names(names: Iterable[str]) -> None:
    """Raise if a metric name breaks ``[A-Za-z0-9_.-]`` or repeats."""
    seen = set()
    for name in names:
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)


def digest(obj) -> str:
    """SHA-256 of an object's canonical JSON (sorted keys, no spaces)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- child processes -----------------------------------------------------------


@dataclass
class Finished:
    """One child process that has ended, with its own resource usage."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


@dataclass
class Children:
    """Tracks every process the benchmark starts, so all are reaped.

    ``wait`` uses ``os.wait4`` so each child's CPU time and peak RSS
    (which on Linux include the descendants it reaped, e.g. forked
    workers) come back with its exit status.
    """

    env: Dict[str, str]
    cwd: str
    live: List[subprocess.Popen] = field(default_factory=list)
    finished: List[Finished] = field(default_factory=list)

    def start(self, argv: List[str], *, cwd: Optional[str] = None,
              log_dir: str) -> subprocess.Popen:
        os.makedirs(log_dir, exist_ok=True)
        tag = f"{len(self.finished) + len(self.live):03d}"
        out = open(os.path.join(log_dir, f"{tag}.out"), "w+")
        err = open(os.path.join(log_dir, f"{tag}.err"), "w+")
        try:
            proc = subprocess.Popen(
                argv, cwd=cwd or self.cwd, env=self.env,
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        finally:
            out.close()
            err.close()
        proc.e2e_logs = (out.name, err.name)  # type: ignore[attr-defined]
        proc.e2e_started = time.perf_counter()  # type: ignore[attr-defined]
        self.live.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen, timeout: float) -> Finished:
        watchdog = threading.Timer(timeout, self._kill, args=(proc,))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - proc.e2e_started  # type: ignore[attr-defined]
        self._kill(proc)  # anything the child left behind in its session
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        out_path, err_path = proc.e2e_logs  # type: ignore[attr-defined]
        with open(out_path) as handle:
            stdout = handle.read()
        with open(err_path) as handle:
            stderr = handle.read()
        done = Finished(
            returncode=proc.returncode, wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0, stdout=stdout, stderr=stderr,
        )
        self.finished.append(done)
        return done

    def run(self, argv: List[str], *, timeout: float, log_dir: str,
            cwd: Optional[str] = None) -> Finished:
        return self.wait(self.start(argv, cwd=cwd, log_dir=log_dir), timeout)

    def stop(self, proc: subprocess.Popen, timeout: float) -> Finished:
        """SIGTERM (the daemon's graceful drain), then wait."""
        # Not proc.poll(): it would reap the child before wait4 can.
        try:
            os.kill(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        return self.wait(proc, timeout)

    def close(self) -> None:
        """Kill and reap whatever is still running."""
        for proc in list(self.live):
            self._kill(proc)
            try:
                os.waitpid(proc.pid, 0)
            except ChildProcessError:
                pass
            self.live.remove(proc)

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def tree_bytes(path: str) -> int:
    """Bytes of the regular files under *path*."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def fingerprint(root: str) -> Dict[str, object]:
    """What a result must match before two results are compared."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    sha = "unknown"
    try:
        # The ceiling keeps git from reading repositories above the root.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "source_digest": source_digest(os.path.join(root, "src")),
    }


def source_digest(src: str) -> str:
    """SHA-256 over the program's Python sources (works without git)."""
    hasher = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                hasher.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def canonical_answer(op: str, result: dict) -> str:
    """The part of a query answer that must match across code paths.

    Timing and placement fields are left out, and so is the eval's
    effective kernel (verdicts are kernel-independent); what remains is
    the verdict: the eval digest, count and validity; the explanation and
    its check; the monitor's final verdicts.
    """
    if op == "eval":
        kept = {key: result.get(key)
                for key in ("digest", "count_true", "valid")}
    elif op == "explain":
        kept = {"explanation": result.get("explanation"),
                "check_ok": result.get("check_ok")}
    else:
        kept = {"verdicts": result.get("verdicts"),
                "rounds": result.get("rounds")}
    return digest(kept)
