"""``repro serve`` shuts down cleanly on SIGTERM.

``kill <pid>`` (what CI traps, systemd and docker send) must take the
same path as Ctrl-C: ``CampaignService.stop()`` terminates the local
workers and closes the listening socket, so no worker outlives the
server and a restart on the same port binds.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import socket
import subprocess
import sys

import pytest

import repro

PROC = pathlib.Path("/proc")


def _pids_naming(text: str) -> list:
    """Live processes whose command line contains ``text``."""
    needle = text.encode()
    pids = []
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:  # exited while we looked
            continue
        if needle in cmdline:
            pids.append(int(entry.name))
    return pids


@pytest.mark.skipif(not (PROC / "self" / "cmdline").exists(), reason="needs /proc")
def test_sigterm_stops_service_and_local_workers(tmp_path):
    jobs = tmp_path / "jobs"
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1",
         "--jobs", str(jobs)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
        # The server and its forked worker share the command line.
        assert len(_pids_naming(str(jobs))) >= 2

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert _pids_naming(str(jobs)) == []
    # A restarted server (HTTPServer sets SO_REUSEADDR) gets the port back.
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", port))
