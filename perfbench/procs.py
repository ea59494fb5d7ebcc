"""Child processes, their resource usage, and the environment stamp."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Children started and not yet reaped; :func:`stop_all` ends them.
_LIVE: set = set()
#: ``prctl`` option that makes orphaned descendants this process's children.
_PR_SET_CHILD_SUBREAPER = 36


def child_env() -> dict:
    """The benchmark's environment plus ``src`` on the import path.  BLAS
    thread settings are passed through untouched, never set."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repro_argv(trace_dir: str | None, *args: str) -> list[str]:
    """``python -m repro ARGS``, or the same command through ``launch.py``
    with the span wrappers installed when ``trace_dir`` is given."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "launch.py"), trace_dir, *args]


class Child:
    """A child process, reaped with ``wait4`` so its resource usage (and
    that of the descendants it reaped) is known."""

    def __init__(self, argv: list[str]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        self.pid = self.proc.pid
        _LIVE.add(self)
        self.returncode: int | None = None
        self.rusage = None
        self.ended: float | None = None

    def readline(self, timeout: float) -> str:
        """One line of the child's output ('' on end of output or timeout)."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline() if ready else ""

    def poll(self) -> int | None:
        if self.returncode is None:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                self.ended = time.perf_counter()
                self.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = usage
                self.proc.returncode = self.returncode
                _LIVE.discard(self)
        return self.returncode

    def wait(self, timeout: float) -> int:
        deadline = time.perf_counter() + timeout
        while self.poll() is None:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"process {self.pid} still running after {timeout:.0f} s")
            time.sleep(0.002)
        return self.returncode

    def stop(self, timeout: float = 30.0) -> int:
        """Ask the child to drain and exit; kill it if it does not."""
        # os.kill, not Popen.send_signal: Popen would reap the child itself
        # and its resource usage would be lost.
        if self.poll() is None:
            os.kill(self.pid, signal.SIGTERM)
            try:
                self.wait(timeout)
            except TimeoutError:
                os.kill(self.pid, signal.SIGKILL)
                self.wait(timeout)
        return self.returncode

    def output(self) -> str:
        """The rest of the child's output; call after it has exited."""
        text = self.proc.stdout.read()
        self.proc.stdout.close()
        return text

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB


def adopt_orphans() -> None:
    """Become the parent of every descendant orphaned during the run (a
    worker whose parent exited first, a library helper process), so that
    :func:`stop_all` can end and reap it instead of leaving it behind."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # not Linux
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def stop_all() -> None:
    """Stop every process the run started, directly or not, and reap it."""
    for child in list(_LIVE):
        child.stop()
    # Shared memory (the data-parallel trainer) starts multiprocessing's
    # resource tracker, which otherwise exits only after this process does.
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    _reap_children()


def _children() -> list[int]:
    """Pids of this process's children, running or exited."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        state_and_ppid = stat[stat.rindex(b")") + 2:].split()[:2]
        if int(state_and_ppid[1]) == me:
            pids.append(int(entry))
    return pids


def _reap_children(grace: float = 10.0) -> None:
    """End every remaining child (SIGTERM, then SIGKILL after ``grace``
    seconds) and reap it, until none is left."""
    kill_at = time.perf_counter() + grace
    give_up_at = kill_at + grace
    sent: set = set()
    while time.perf_counter() < give_up_at:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:  # no children left
            return
        signum = signal.SIGTERM if time.perf_counter() < kill_at else signal.SIGKILL
        for pid in _children():
            if (pid, signum) not in sent:
                sent.add((pid, signum))
                try:
                    os.kill(pid, signum)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def run_to_end(argv: list[str], timeout: float) -> tuple[Child, str]:
    """Run a command to completion; returns the reaped child and its output."""
    child = Child(argv)
    try:
        child.wait(timeout)
    finally:
        child.stop()
    return child, child.output()


def cpu_now() -> float:
    """User + system seconds of this process and every child it reaped."""
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (self_usage.ru_utime + self_usage.ru_stime
            + children.ru_utime + children.ru_stime)


def self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(include_children: bool) -> float:
    """Largest resident set of this process (and of the children it reaped)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def cores() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads() -> int | None:
    """The live OpenBLAS thread count of numpy's bundled library in this
    process (read, never set)."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git(*args: str) -> str | None:
    """A git query about the checkout, or None when it is not a repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def env_stamp(seed: int) -> dict:
    """Where and on what a report was measured."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "affinity_cores": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }
