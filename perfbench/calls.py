"""Run citetrace CLI calls as child processes and account for each one.

Wall time runs from spawn to exit, with stdout and stderr drained through
pipes; CPU time and peak RSS come from the child's own rusage
(``os.wait4``), so only the benchmark's children are measured.

On Linux a child's ``ru_maxrss`` starts from the memory high-water mark
of the process that spawned it, whether by fork or by posix_spawn.  The
benchmark itself grows (generated inputs, captured outputs), so calls
are started by a small helper process, ``Spawner``, whose own memory
stays at that of a bare interpreter.

The host's speed is not constant.  On a shared virtual machine each
virtual CPU runs the same work at speeds up to 1.5x apart, switching
every few seconds, and the CPUs switch independently of each other.  So
the helper and every process it starts are pinned to one CPU, each timed
call is made between two runs of ``REFERENCE``, a fixed piece of work
that does not use citetrace, and the call's times are scaled by how long
the reference took around it (``Paced``).
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

CALL_TIMEOUT_S = 60.0  # a call of the seed code takes at most a few seconds

# The installed console script runs exactly this.
ENTRY = "import sys; from citetrace.cli import main; sys.exit(main(prog_name='citetrace'))"

# The yardstick of machine speed: interpreter start, some of the imports a
# citetrace call makes, and a pure-Python loop of dict and str work.  It
# imports neither citetrace nor scipy, so a change to the program (or to
# what the program imports) cannot change it.
REFERENCE = ("import csv, json, numpy, click\n"
             "d = {}\n"
             "for i in range(60000):\n"
             "    k = str(i % 997); d[k] = d.get(k, 0) + i * 0.5\n")
# About the median wall time of one REFERENCE run on the machine the
# benchmark was tuned on (2-core Xeon VM, Python 3.11, numpy 2.4); paced
# times are seconds on a machine that runs the reference in this time.
REFERENCE_WALL_S = 0.2


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def child_env(src: str) -> dict[str, str]:
    """The caller's environment with only the checkout's sources importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    return env


def run(argv: list[str]) -> Call:
    """Spawn argv, drain both pipes until exit (or CALL_TIMEOUT_S), and reap it with wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        deadline = start + CALL_TIMEOUT_S
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Call(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode,
                timed_out=timed_out, stdout=b"".join(chunks[proc.stdout]),
                stderr=b"".join(chunks[proc.stderr]))


def serve() -> None:
    """Helper loop: one JSON argv per stdin line; reply with a JSON header line
    followed by the call's raw stdout and stderr bytes."""
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        call = run(json.loads(line))
        stdout, stderr = call.stdout, call.stderr
        header = {k: v for k, v in asdict(call).items() if k not in ("stdout", "stderr")}
        header.update(stdout_len=len(stdout), stderr_len=len(stderr))
        out.write(json.dumps(header).encode() + b"\n" + stdout + stderr)
        out.flush()


class Spawner:
    """Runs calls through the helper process; use as a context manager."""

    def __init__(self, env: dict[str, str]) -> None:
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, env=env)
        # Children inherit the helper's CPU; the benchmark process stays free
        # to run on the others.
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(self._proc.pid, {self.cpu})

    def run(self, argv: list[str]) -> Call:
        self._proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the call helper process died")
        header = json.loads(line)
        stdout = self._proc.stdout.read(header.pop("stdout_len"))
        stderr = self._proc.stdout.read(header.pop("stderr_len"))
        return Call(stdout=stdout, stderr=stderr, **header)

    def citetrace(self, args: list[str]) -> Call:
        return self.run([sys.executable, "-c", ENTRY, *args])

    def reference(self) -> Call:
        call = self.run([sys.executable, "-c", REFERENCE])
        if call.exit_code != 0:
            raise SystemExit(f"error: the reference run failed:\n{call.stderr.decode()}")
        return call

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Paced:
    """citetrace calls, each between two runs of the reference.

    Call k runs between reference runs k and k + 1.  Its paced times are
    its wall and CPU times scaled by REFERENCE_WALL_S over the mean wall
    time of those two runs, so a stretch in which the CPU runs slow
    stretches the call and the yardstick alike and cancels out.
    """

    def __init__(self, spawner: Spawner) -> None:
        self.spawner = spawner
        self.references = [spawner.reference().wall_s]
        self.scales: list[float] = []  # one per call

    def citetrace(self, args: list[str]) -> Call:
        """Make a call; its wall_s and cpu_s are returned paced."""
        call = self.spawner.citetrace(args)
        self.references.append(self.spawner.reference().wall_s)
        scale = REFERENCE_WALL_S / ((self.references[-2] + self.references[-1]) / 2)
        self.scales.append(scale)
        call.wall_s *= scale
        call.cpu_s *= scale
        return call


if __name__ == "__main__":
    serve()
