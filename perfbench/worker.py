"""One benchmark process: set up a workload, then time it or trace it.

Started by run.py with BLAS pinned to one thread.  Prints ``ready`` once the
set-up (imports, input generation, reference loading, warm-up) is done; a
``--setup-only`` process exits there.  Otherwise the last line of stdout is
one JSON object with the run's samples, checks and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import envinfo
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


class Tally:
    """Operations attempted and the failure messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, messages) -> None:
        for i, msg in enumerate(messages):
            self.attempted += 1
            if msg is not None:
                self.failures.append(f"{label}[{i}]: {msg}")


def timed(wl, inputs):
    t0 = time.perf_counter()
    outputs = wl.run(inputs)
    return time.perf_counter() - t0, outputs


def measure(wl, seed: int, seconds: float, pending: list, tally: Tally) -> dict:
    """Repeat the job on fresh inputs while another one fits in ``seconds``.

    The job runs at least once; a job longer than the window runs once.
    ``pending`` holds the set-up's inputs for the first repetition.  Each
    repetition's wall time leaves out the speed meter's samples, and its
    corrected time is scaled to the host's nominal speed (see speed.py).
    """
    inputs = pending.pop()
    meter = speed.SpeedMeter()
    for kind in speed.KERNELS:
        speed.kernel_time(kind)  # first calls off the clock
    walls, corrected = [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        t0 = time.perf_counter()
        outputs = wl.run(inputs, meter)
        took = time.perf_counter() - t0
        walls.append(sum(times[-1] for times in wl.job_wall_s.values()))
        corrected.append(sum(times[-1] for times in wl.job_corrected_s.values()))
        tally.add(f"rep{rep}", wl.check(inputs, outputs))
        rep += 1
        if time.perf_counter() + took > deadline:
            break
        # drop the last inputs first, so peak memory does not grow with repetitions
        inputs = outputs = None
        inputs = wl.inputs(seed, rep)
    tally.add("post", wl.post_check(inputs, outputs))
    return {"wall_s": walls, "corrected_wall_s": corrected}


def trace(wl, seed: int, pending: list, tally: Tally, dump_path: Path) -> dict:
    """Rep 0 untraced, then rep 0 again with every wrapper installed."""
    inputs = pending.pop()
    wall_plain, outputs = timed(wl, inputs)
    tally.add("untraced", wl.check(inputs, outputs))
    tracer = tracing.Tracer()
    tracer.install(tracing.WRAPS)
    try:
        inputs = wl.inputs(seed, 0)  # again, so make_spiked_tensor is traced
        wall_traced, outputs = timed(wl, inputs)
    finally:
        tracer.uninstall()
    tally.add("traced", wl.check(inputs, outputs))
    extras = dict(wl.extras(inputs, outputs), **{"trace.overhead_s": wall_traced - wall_plain})
    for job in wl.jobs:
        if isinstance(job, workloads.Oracle):
            extras["kacrice.thread_speedup"] = job.thread_speedup()
    tracer.dump(dump_path)
    layers = tracing.layer_metrics(tracer, extras)
    return {"wall_s": [wall_plain], "traced_wall_s": wall_traced,
            "layers": {name: {"value": layers[name], "unit": unit}
                       for name, unit, _ in tracing.PER_LAYER}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.make(args.workload, workdir)
        # handed over in a list so that no reference here keeps the first
        # repetition's inputs alive after they are replaced
        pending = [wl.inputs(args.seed, 0)]
        wl.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tally = Tally()
        if args.trace:
            dump = OUT / f"trace-{args.workload}-{args.seed}.json"
            result = trace(wl, args.seed, pending, tally, dump)
        else:
            result = measure(wl, args.seed, args.seconds, pending, tally)
        result.update(
            job_wall_s=wl.job_wall_s,
            job_corrected_s=wl.job_corrected_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=tally.attempted,
            failures=tally.failures,
            env=envinfo.record(ROOT),
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
