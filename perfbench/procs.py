"""Child-process hygiene: every process a run starts has ended before it does.

A ``discover --jobs 2`` child forks pool workers and starts the
shared-memory resource tracker; both can outlive the child by a moment.
So the benchmark makes itself a child subreaper (orphaned descendants
are re-parented to it, not to init), starts every child in a process
group of its own, and after the child exits waits for the rest of that
group (:func:`reap_group`), killing it after a grace period.  When a run
ends, :func:`reap_all` does the same for whatever the benchmark process
itself started (the traced pool's workers and resource tracker).
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

#: ``prctl`` option that makes orphaned descendants re-parent to us.
PR_SET_CHILD_SUBREAPER = 36
#: How long leftovers of a finished child may take to exit on their own.
GRACE_S = 10.0
#: How long SIGKILLed processes may take to disappear.
KILL_WAIT_S = 5.0


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux; elsewhere a no-op)."""
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _processes() -> list[tuple[int, int, int]]:
    """(pid, ppid, pgid) of every process in ``/proc``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii", errors="replace")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        found.append((int(entry.name), int(fields[1]), int(fields[2])))
    return found


def _group_members(pgid: int) -> list[int]:
    return [pid for pid, _, group in _processes() if group == pgid]


def _own_children() -> list[int]:
    me = os.getpid()
    return [pid for pid, parent, _ in _processes() if parent == me]


def _kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _wait_until_gone(
    waitpid_target: int, alive: Any, kill: Any, grace: float
) -> None:
    """Reap ``waitpid_target`` children until ``alive()`` is empty.

    After ``grace`` seconds the survivors are killed; a process that is
    still listed ``KILL_WAIT_S`` later (one we cannot reap) is left.
    """
    deadline = time.monotonic() + grace
    killed_at: float | None = None
    while True:
        try:
            pid, _ = os.waitpid(waitpid_target, os.WNOHANG)
        except ChildProcessError:
            pid = 0
        if pid:
            continue
        survivors = alive()
        if not survivors:
            return
        now = time.monotonic()
        if killed_at is None and now >= deadline:
            kill(survivors)
            killed_at = now
        elif killed_at is not None and now - killed_at > KILL_WAIT_S:
            return
        time.sleep(0.005)


def reap_group(pgid: int, grace: float = GRACE_S) -> None:
    """Wait for every process of group ``pgid`` to end, then reap it."""

    def kill(_: list[int]) -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    _wait_until_gone(-pgid, lambda: _group_members(pgid), kill, grace)


def run(args: list[str], check: bool = False, **kwargs: Any) -> Any:
    """``subprocess.run`` in a process group of its own, reaped whole."""
    with subprocess.Popen(args, process_group=0, **kwargs) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            reap_group(proc.pid, grace=0.0)
            raise
        reap_group(proc.pid)
    if check and proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args, stdout, stderr)
    return subprocess.CompletedProcess(args, proc.returncode, stdout, stderr)


def _stop_resource_tracker() -> None:
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is None:
        return
    tracker = tracker_module._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def reap_all(grace: float = GRACE_S) -> None:
    """End every process this process started, in order of dependence.

    Pool workers go first (they hold the resource tracker's pipe), then
    the tracker, then anything else still parented here.
    """
    deadline = time.monotonic() + grace
    for process in multiprocessing.active_children():
        process.join(max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join(KILL_WAIT_S)
    _stop_resource_tracker()
    _wait_until_gone(
        -1, _own_children, _kill, max(0.0, deadline - time.monotonic())
    )
