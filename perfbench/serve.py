"""``repro-anonymize serve`` with the benchmark's outside-in timers.

    python3 perfbench/serve.py -s ROOT --tenant NAME=DESIGN.json [serve options]

Installs a counting ``IOPlane`` (through the public
``repro.faults.set_plane``) and the ``matrix_fingerprint`` timer, then
runs the CLI's ``serve`` command in this process. On SIGUSR1 it writes
their running totals, with its pid and a sequence number, to
``ROOT.probe.json`` beside the state root, where
``common.ServerProcess.probe`` reads them. Needs the repository's
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from common import FingerprintTimer, TimingPlane, probe_path
from repro.cli import main
from repro.faults import set_plane


def serve(argv) -> int:
    plane = TimingPlane()
    fingerprints = FingerprintTimer()
    out = probe_path(argv[argv.index("-s") + 1])
    seq = 0

    def answer(signum, frame) -> None:
        nonlocal seq
        seq += 1
        fsyncs, fsync_s, written = plane.totals()
        tmp = out.with_name(out.name + ".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "pid": os.getpid(),
                    "seq": seq,
                    "fsyncs": fsyncs,
                    "fsync_s": fsync_s,
                    "bytes_written": written,
                    "fingerprint_s": fingerprints.seconds,
                }
            )
        )
        os.replace(tmp, out)

    set_plane(plane)
    fingerprints.install()
    signal.signal(signal.SIGUSR1, answer)
    return main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1:]))
