"""A speed reference for the shared machine the benchmark runs on.

The host's speed drifts: for tens of seconds to minutes at a time every
op runs up to twice as slow, on one CPU or on both. No choice of
sample within a run hides a slow spell that outlasts the run, so the
benchmark times a fixed task that uses none of the repository's code
in the same moments as the ops. Its mean time, against what it takes on
a quiet machine, is the run's slowness; the workloads report their
times divided by it.

The task is ``compile()`` of a fixed Python module. Of four candidates
timed after every op (a dict/set graph walk, frozen-dataclass churn,
a JSON round trip and this), its slowdown followed the workloads' most
closely: over five-minute windows in which pass times drifted by up to
2x, the spread (IQR/median) of pass time over 2-3 passes fell from
0.16-0.48 to 0.04-0.10 on analyze-corpus, check-litmus and lint-confirm
once divided by it.

The in-process workloads time the task once after every op, on the same
thread (``SpeedProbe``). serve-edit's work runs in the server's
processes, so ``watched()`` times the task in a process of its own
while the requests run, on that process's CPU clock: waiting for a CPU
the server's processes hold would measure the load, not the machine.
Over six serve-edit runs on a shared 2-CPU x86-64 container this cut the
spread of the median latency from 0.135 to 0.054, where sampling in the idle client just before and after
the requests made it worse.

    python3 perfbench/reference.py

runs the watcher: it samples every ``WATCH_INTERVAL_S`` until its stdin
closes, then prints ``<seconds> <samples>``.
"""

from __future__ import annotations

import gc
import select
import subprocess
import sys
import time
from contextlib import contextmanager

#: Seconds the task takes on a quiet machine (2-CPU x86-64 container,
#: CPython 3.11, fastest of 300 runs). It only sets the scale: scaled
#: times read as if the ops ran on that machine while it was quiet.
QUIET_COMPILE_S = 0.0027
#: The watcher's pause between samples, so it takes about 5% of a CPU.
WATCH_INTERVAL_S = 0.05

_SOURCE = "\n".join(
    f"def f{i}(a, b):\n"
    f"    c = [a + b for _ in range({i})]\n"
    f"    return {{k: v for k, v in enumerate(c)}}\n"
    for i in range(60)
)


def compile_module():
    return compile(_SOURCE, "<reference>", "exec")


class SpeedProbe:
    """Times the task on every ``sample()``; ``slowness()`` is how many
    times slower than on a quiet machine it ran, on average."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.samples = 0
        self.seconds = 0.0

    def sample(self) -> None:
        # No collection while timing: one triggered by the task's
        # allocations would time the caller's heap, not the machine.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            compile_module()
            self.seconds += self.clock() - start
        finally:
            if enabled:
                gc.enable()
        self.samples += 1

    def slowness(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return self.seconds / (self.samples * QUIET_COMPILE_S)


@contextmanager
def watched():
    """Run the watcher in a process of its own while the block runs; the
    yielded probe holds its samples once the block has ended."""
    probe = SpeedProbe()
    proc = subprocess.Popen(
        [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        yield probe
        out, _ = proc.communicate(timeout=60)
        seconds, samples = out.split()
        probe.seconds, probe.samples = float(seconds), int(samples)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def watch() -> None:
    probe = SpeedProbe(time.thread_time)
    while True:
        probe.sample()
        if select.select([sys.stdin], [], [], WATCH_INTERVAL_S)[0] and not sys.stdin.read(1):
            break
    print(probe.seconds, probe.samples, flush=True)


if __name__ == "__main__":
    watch()
