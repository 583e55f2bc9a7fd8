"""Operation bookkeeping, timing and child processes shared by the workloads."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

# a child that runs longer than this is killed and its operation fails
CHILD_TIMEOUT_S = 60


class Ledger:
    """Attempted and failed operations, timings of the ones that succeeded,
    and the name of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.times: dict[str, list[float]] = defaultdict(list)
        self.failures: Counter = Counter()

    def _fail(self, kind: str, label: str, reason: str) -> None:
        self.failed += 1
        self.failures[f"{kind} [{label}]: {reason}"] += 1

    def run(self, kind: str, label: str, call, check):
        """Time call(), then check its result outside the timed span.

        An exception from the program fails the operation; so does a check
        that reports problems, which also makes the run incorrect.  Returns the
        result, or None when the operation failed.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the program's own failure: record and go on
            self._fail(kind, label, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        try:
            problems = check(result)
        except Exception as exc:  # output the checks cannot read is wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.incorrect += 1
            self._fail(kind, label, "; ".join(problems))
            return None
        self.times[kind].append(elapsed)
        return result

    def skip(self, kind: str, label: str, reason: str) -> None:
        """Count an operation that could not run because one it needs failed."""
        self.attempted += 1
        self._fail(kind, label, reason)

    def report_failures(self, stream=sys.stderr) -> None:
        for name, count in sorted(self.failures.items()):
            stream.write(f"failed x{count}: {name}\n")


class Admission:
    """Draws seeded inputs in turn from per-kind pools, skipping the ones
    whose admitted() is false, and counts what it drew and skipped."""

    def __init__(self, pools: dict):
        self.pools = pools
        self.drawn = {kind: 0 for kind in pools}
        self.skipped = {kind: 0 for kind in pools}

    def next(self, kind):
        pool = self.pools[kind]
        while True:
            item = pool[self.drawn[kind] % len(pool)]
            self.drawn[kind] += 1
            if item.admitted():
                return item
            self.skipped[kind] += 1

    def skipped_pct(self, kind) -> float:
        return 100.0 * self.skipped[kind] / max(self.drawn[kind], 1)

    def notes(self) -> dict:
        return {"drawn": dict(self.drawn), "skipped": dict(self.skipped)}

    def summary(self) -> str:
        return ", ".join(
            f"{kind} skipped {self.skipped[kind]} of {self.drawn[kind]} drawn"
            for kind in self.pools
        )


class Workload:
    """What a workload provides beyond generate() and round()."""

    admission = None  # an Admission, for workloads that skip seeded inputs

    def peak_rss_mb(self):
        """Peak RSS to report, or None for this process's own."""
        return None

    def notes(self) -> dict:
        """Facts about the run for the record in .bench_out/."""
        return self.admission.notes() if self.admission else {}


def median(values) -> float:
    return float(statistics.median(values))


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout()


def run_child(argv, env, stdout_path, stderr_path):
    """Run one child process to its end.

    Returns (exit code, wall seconds from start to reaped, peak RSS in MB).
    The output goes to files, so no pipe or reader thread is needed; the
    child is reaped with wait4, which also gives its own peak RSS.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        except _ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
            status = None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    code = -1 if status is None else os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return code, elapsed, usage.ru_maxrss / 1024.0
