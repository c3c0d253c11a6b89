"""The server under test, in its own process.

Untraced runs start the real CLI (``python -m repro serve``).  Traced
runs start ``launcher.py``, which builds the same server from the
library's public constructors and times its entry points.  Either way
the process inherits the generator's CPU (``hostspeed.pin``), announces
its port on stdout, is stopped with SIGTERM (the server's graceful
drain) and is always waited for.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from wire import LaneError

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """One ``repro serve`` (or traced launcher) process."""

    def __init__(self, root: Path, workdir: Path, serve_args: list,
                 *, spans_out: Path | None = None,
                 extra_args: list | None = None) -> None:
        if spans_out is None:
            head = [sys.executable, "-m", "repro", "serve"]
        else:
            head = [sys.executable, str(root / "perfbench" / "launcher.py"),
                    "--spans-out", str(spans_out), *(extra_args or [])]
        cmd = [*head, "--port", "0", "--flight-dir", str(workdir),
               *serve_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._stderr = open(workdir / "server.stderr", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        try:
            self.port = self._read_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        out = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [],
                                        deadline - time.monotonic())
            if not ready:
                break
            line = out.readline().decode()
            if not line:
                break
            if "listening on" in line:
                return int(line.rsplit(":", 1)[1])
        raise LaneError(
            f"server did not announce a port (exit code {self.proc.poll()})"
        )

    def cpu_seconds(self) -> float:
        """User + system CPU the server process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> int:
        """SIGTERM, wait for the drain, kill if it hangs; returns the
        exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return self.proc.returncode
