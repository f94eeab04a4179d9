"""Shared plumbing of the lifecycle benchmark.

Host block, quantiles, peak-RSS readings, outside-in timers (an
``IOPlane`` subclass and a fingerprint timer), the collector-server
child process, span deltas from registry snapshots, and the outcome
ledger behind ``correct``, ``attempted`` and ``failed``.
"""

from __future__ import annotations

import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
#: Scratch state (collector roots, server logs) and result documents.
#: Lives inside the checkout and is ignored by git.
STATE_ROOT = REPO / ".bench_state"

from repro.faults import IOPlane  # noqa: E402  (needs SRC on sys.path)

#: The wire schema's attributes that RR-Joint randomizes jointly:
#: 16 × 15 × 7 × 2 × 2 = 6,720 cells.
JOINT_NAMES = ("education", "occupation", "marital-status", "sex", "income")
#: A 64-cell joint domain for quick (smoke) runs.
QUICK_JOINT_NAMES = ("education", "sex", "income")
KEEP_P = 0.7


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def fast_side(values, share: float, higher_is_better: bool = False) -> float:
    """The quantile ``share`` in from the fast end of many short samples.

    The host switches between fast and slow spells every second or so
    (the same 65,536-record randomize runs at 6.2M or 5.0M reports/s;
    loopback rounds at 120k to 175k reports/s) and the share of slow
    time differs from run to run, so a median over samples jumps with
    it. A fast-side quantile stays with the fast spells while at least
    ``share`` of the samples fall in them. Figures with hundreds of
    samples a run take the decile (0.1), those with a handful (one per
    round, setup or restart) the quartile (0.25).
    """
    q = 100 * share
    return percentile(values, 100 - q if higher_is_better else q)


# ----------------------------------------------------------------------
# Host block
# ----------------------------------------------------------------------
def fsync_probe(directory: Path, samples: int = 15) -> float:
    """Median seconds for one 4 KiB write + fsync in ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "fsync-probe.bin"
    block = os.urandom(4096)
    times = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        for _ in range(samples):
            start = time.perf_counter()
            os.write(fd, block)
            os.fsync(fd)
            times.append(time.perf_counter() - start)
    finally:
        os.close(fd)
        path.unlink()
    return median(times)


def host_block(directory: Path) -> dict:
    """What a result must carry to be compared with another one."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "fsync_4k_median_ms": fsync_probe(directory) * 1e3,
    }


def proc_status_mb(field: str, pid="self") -> float:
    """One memory field of ``/proc/<pid>/status`` (``VmHWM``, ``VmRSS``), MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def vmhwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    return proc_status_mb("VmHWM", pid)


def reset_peak_rss() -> float:
    """Reset this process's ``VmHWM`` to its current RSS; returns that, MB.

    Writing ``5`` to ``/proc/self/clear_refs`` is the kernel's reset of
    the high-water mark, so a later ``vmhwm_mb()`` is the peak of what
    ran in between.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    return proc_status_mb("VmRSS")


# ----------------------------------------------------------------------
# Outside-in timers
# ----------------------------------------------------------------------
class TimingPlane(IOPlane):
    """Passthrough I/O plane that counts fsyncs, their time, and bytes."""

    def __init__(self):
        self.fsyncs = 0
        self.fsync_s = 0.0
        self.bytes_written = 0

    def write(self, handle, data: bytes) -> int:
        self.bytes_written += len(data)
        return handle.write(data)

    def fsync(self, fileno: int, *, path=None) -> None:
        start = time.perf_counter()
        os.fsync(fileno)
        self.fsync_s += time.perf_counter() - start
        self.fsyncs += 1

    def totals(self) -> tuple:
        return self.fsyncs, self.fsync_s, self.bytes_written


class FingerprintTimer:
    """Times every ``matrix_fingerprint`` call of a collector or tenant open.

    ``CollectorService`` fingerprints its matrices through the name it
    imported into :mod:`repro.service.pipeline`, and a design document's
    fingerprint (checked when a server opens a tenant) goes through the
    name in :mod:`repro.service.codec`. While installed, both names
    point at a timing wrapper around the public function.
    """

    def __init__(self):
        import repro.service.codec as codec
        import repro.service.pipeline as pipeline

        self._modules = (codec, pipeline)
        self._original = codec.matrix_fingerprint
        self.seconds = 0.0

    def _timed(self, matrix):
        start = time.perf_counter()
        try:
            return self._original(matrix)
        finally:
            self.seconds += time.perf_counter() - start

    def install(self) -> None:
        for module in self._modules:
            module.matrix_fingerprint = self._timed

    def remove(self) -> None:
        for module in self._modules:
            module.matrix_fingerprint = self._original


def span_totals(snapshot: dict) -> dict:
    """``{span name: (seconds, calls)}`` plus ``{counter: value}``."""
    spans = {}
    for name, payload in snapshot["histograms"].items():
        if name.startswith("span.") and name.endswith(".seconds"):
            spans[name[len("span."):-len(".seconds")]] = (
                float(payload["sum"]),
                int(payload["count"]),
            )
    return {"spans": spans, "counters": dict(snapshot["counters"])}


def delta(after: dict, before: dict) -> dict:
    """Span seconds/calls and counters accrued between two span_totals."""
    spans = {}
    for name, (seconds, calls) in after["spans"].items():
        s0, c0 = before["spans"].get(name, (0.0, 0))
        spans[name] = (seconds - s0, calls - c0)
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    return {"spans": spans, "counters": counters}


def span_s(d: dict, name: str) -> float:
    return d["spans"].get(name, (0.0, 0))[0]


def span_calls(d: dict, name: str) -> int:
    return d["spans"].get(name, (0.0, 0))[1]


# ----------------------------------------------------------------------
# Outcome ledger
# ----------------------------------------------------------------------
class Ledger:
    """Counts attempted and failed operations and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def op(self, func, what: str):
        """Run one ingest call or query; a typed refusal counts as failed."""
        from repro.exceptions import ReproError

        try:
            result = func()
        except ReproError as exc:
            self.check(False, f"{what}: {exc}")
            return None
        self.check(True, what)
        return result

    @property
    def ratio(self) -> float:
        return self.failed / max(1, self.attempted)


# ----------------------------------------------------------------------
# The collector server as a child process
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro-anonymize serve`` in its own interpreter.

    Spawned through ``perfbench/serve.py``, which runs the CLI's
    ``serve`` command with the benchmark's timers installed, so the
    server never shares a GIL with the load and :meth:`probe` can read
    the server's fsync and fingerprint totals.
    """

    def __init__(self, root: Path, tenant: str, design_path: Path, *extra):
        root.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self._probe_path = probe_path(root)
        self._probes = 0
        self._log = open(root.parent / f"{root.name}.server.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).with_name("serve.py")),
                "-s", str(root), "--tenant", f"{tenant}={design_path}",
                "--port", "0", *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(REPO),
            env=env,
        )
        try:
            self.address = self._await_listening(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _await_listening(self, timeout: float) -> tuple:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("collector server did not start listening")
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if not line.startswith("listening on "):
            raise RuntimeError(f"collector server failed to start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        return host, int(port)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def probe(self) -> dict:
        """The server's running fsync, write and fingerprint totals.

        Sends SIGUSR1 and waits for ``serve.py`` to write the answer.
        """
        self._probes += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                doc = json.loads(self._probe_path.read_text())
                if doc["pid"] == self.pid and doc["seq"] == self._probes:
                    return doc
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("collector server did not answer a probe")
            time.sleep(0.0005)

    def stop(self, signum=signal.SIGTERM) -> int:
        """Signal (SIGTERM drains and checkpoints), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signum)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()
        return self.proc.returncode


def probe_path(root) -> Path:
    """Where ``serve.py`` answers probes of the server on ``root``."""
    root = Path(root)
    return root.parent / f"{root.name}.probe.json"
