"""Launching and stopping the program's processes, with hygiene checks.

Each program process starts in its own session, so it and everything
it forks (shard workers, sweep pool workers) share one process group.
Stopping sends SIGINT to the leader only, waits with a bound, and then
requires the whole group to be gone; anything left is killed and the
run is marked unclean.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.obs.promtext import parse_exposition

_BANNER = re.compile(rb"recovery service on http://127\.0\.0\.1:(\d+)")
_LAUNCH_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 20.0
_GROUP_GRACE_S = 5.0


def program_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != b"Z":
            members.append(int(entry))
    return members


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident set (VmHWM) of *pids*, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "rb") as handle:
                for line in handle:
                    if line.startswith(b"VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class ProgramProcess:
    """One program process (and its group) with bounded shutdown."""

    def __init__(self, argv: list[str], root: Path) -> None:
        self.launched_ns = time.perf_counter_ns()
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=program_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.stdout: list[bytes] = []
        self.stderr: list[bytes] = []
        self._line_seen = threading.Condition()
        self._readers = [
            threading.Thread(
                target=self._drain, args=(self.proc.stdout, self.stdout), daemon=True
            ),
            threading.Thread(
                target=self._drain, args=(self.proc.stderr, self.stderr), daemon=True
            ),
        ]
        for reader in self._readers:
            reader.start()

    def _drain(self, pipe, lines: list[bytes]) -> None:
        for line in pipe:
            with self._line_seen:
                lines.append(line)
                self._line_seen.notify_all()
        with self._line_seen:
            self._line_seen.notify_all()

    def wait_for_line(self, pattern: re.Pattern, stream: str) -> re.Match:
        """Block until a line of *stream* matches; raise if the process dies."""
        lines = self.stdout if stream == "stdout" else self.stderr
        deadline = time.monotonic() + _LAUNCH_TIMEOUT_S
        seen = 0
        with self._line_seen:
            while True:
                for line in lines[seen:]:
                    match = pattern.search(line)
                    if match:
                        return match
                seen = len(lines)
                if self.proc.poll() is not None and not any(
                    reader.is_alive() for reader in self._readers
                ):
                    raise RuntimeError(
                        f"program exited with {self.proc.returncode}: "
                        + b"".join(self.stderr[-20:]).decode(errors="replace")
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("program did not become ready in time")
                self._line_seen.wait(min(remaining, 0.5))

    def members(self) -> list[int]:
        return group_members(self.pgid)

    def stop(self, interrupt: bool = True) -> bool:
        """Stop the process and its group; True when it ended cleanly.

        Clean means: the leader exited with status 0 within the bound
        after SIGINT (or on its own), and no member of its group was
        still alive after a short grace period.
        """
        clean = True
        if interrupt and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            clean = False
        if self.proc.poll() is None or self.proc.returncode != 0:
            clean = False
        deadline = time.monotonic() + _GROUP_GRACE_S
        while self.members() and time.monotonic() < deadline:
            time.sleep(0.05)
        if self.members():
            clean = False
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        while self.members() and time.monotonic() < deadline:
            time.sleep(0.05)
        for reader in self._readers:
            reader.join(timeout=_STOP_TIMEOUT_S)
        return clean and not self.members()


class Service(ProgramProcess):
    """A ``repro serve-recovery`` process on an ephemeral port."""

    def __init__(
        self,
        root: Path,
        contexts: list[str],
        workers: int,
        traced: bool,
    ) -> None:
        entry = (
            [str(root / "perfbench" / "tracehook.py")]
            if traced else ["-m", "repro"]
        )
        argv = [
            sys.executable, *entry, "serve-recovery",
            "--port", "0",
            "--preload", ",".join(contexts),
            "--workers", str(workers),
        ]
        super().__init__(argv, root)
        self.port = 0

    def wait_ready(self) -> float:
        """Seconds from launch until ``/healthz`` answered 200."""
        self.port = int(self.wait_for_line(_BANNER, "stderr").group(1))
        while True:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{self.port}/healthz", timeout=10.0
                ) as response:
                    if response.status == 200:
                        break
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError("service exited before /healthz answered")
            time.sleep(0.005)
        return (time.perf_counter_ns() - self.launched_ns) / 1e9

    def scrape(self) -> dict:
        """``GET /metrics``, parsed strictly."""
        with urllib.request.urlopen(
            f"http://127.0.0.1:{self.port}/metrics", timeout=30.0
        ) as response:
            return parse_exposition(response.read().decode("utf-8"))
