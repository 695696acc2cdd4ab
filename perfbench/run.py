"""Benchmark of the tensorlandscape package.  Run from the repository root:

    python3 perfbench/run.py --workload bands_recovery --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Each run starts fresh worker processes with BLAS pinned to one thread:
SETUP_PROBES that only set up, then one that sets up and runs the workload.
setup_s is the median over all of them of the time from process start to
ready, corrected for the host's speed (see speed.py) by the scalar kernel
timed just before each start.  With --trace 0 the worker repeats the
workload's job, on fresh inputs, as often as it fits in --seconds (at least
once) and reports the median of its speed-corrected times; with --trace 1 it
runs the job once plain and once traced and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``--workload all`` runs every workload in
turn and prints a table before that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from envinfo import THREAD_VARS

os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads a BLAS
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("bands_recovery", "oracle_inventory")
SETUP_PROBES = 5
SETUP_KIND = "scalar"
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, setup_only: bool, deadline: float) -> tuple[float, float, dict | None]:
    """Start one worker.

    Return its set-up wall time, the host's speed relative to nominal just
    before it started, and unless setup_only its result.
    """
    before = [speed.kernel_time(SETUP_KIND) for _ in range(speed.BURST)]
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerError(f"{args.workload} worker exited with {proc.returncode}")
    factor = statistics.fmean(speed.NOMINAL_S[SETUP_KIND] / t for t in before)
    if setup_only:
        return setup, factor, None
    return setup, factor, json.loads(rest.strip().splitlines()[-1])


def run_workload(args) -> dict:
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    speed.kernel_time(SETUP_KIND)  # first call off the clock
    setups = [spawn(args, True, deadline)[:2] for _ in range(SETUP_PROBES)]
    setup, factor, res = spawn(args, False, deadline)
    setups.append((setup, factor))
    res["setup_wall_s"] = [wall for wall, _ in setups]
    res["setup_s"] = [wall * factor for wall, factor in setups]
    return res


def result_line(res: dict, trace: bool) -> dict:
    if trace:
        metrics = res["layers"]
    else:
        metrics = {
            "corrected_wall_s": {"value": statistics.median(res["corrected_wall_s"]),
                                 "unit": "s"},
            "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    failed = len(res["failures"])
    return {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tensorlandscape" / "__init__.py").is_file():
        print(f"error: no tensorlandscape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    for name, res in results.items():
        with open(out_dir / f"result-{name}-{args.seed}-{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        print(json.dumps({"workload": name, "env": res["env"]}))
        for msg in res["failures"]:
            print(f"{name}: check failed: {msg}")
    if len(results) == 1:
        res = next(iter(results.values()))
        print(f"{args.workload}: wall_s {statistics.median(res['wall_s']):.3f} s and "
              f"corrected_wall_s over {len(res['wall_s'])} job(s), "
              f"setup_s over {len(res['setup_s'])} process(es)")
        print(json.dumps(result_line(res, bool(args.trace))))
        return 0

    lines = {name: result_line(res, bool(args.trace)) for name, res in results.items()}
    if not args.trace:
        print(f"{'workload':<18} {'wall_s':>8} {'corrected_wall_s':>22} {'setup_s':>14} "
              f"{'peak_rss_mb':>12} {'error_rate':>16}")
        for name, res in results.items():
            m, line = lines[name]["metrics"], lines[name]
            print(f"{name:<18} {statistics.median(res['wall_s']):8.3f}"
                  f" {m['corrected_wall_s']['value']:15.3f} (n={len(res['wall_s'])})"
                  f" {m['setup_s']['value']:7.3f} (n={len(res['setup_s'])})"
                  f" {m['peak_rss_mb']['value']:12.1f}"
                  f" {line['failed'] / line['attempted']:9.3g} (n={line['attempted']})")
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{name}.{metric}": value for name, line in lines.items()
                    for metric, value in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
