"""The benchmark's jobs and the two workloads that pair them.

Four jobs (Bands, Oracle, Inventory, Recovery) each exercise one part of the
package.  A workload runs two jobs that share no layer, one after the other:

* ``bands_recovery``: the band search (complexity, scan) and power
  iteration / gradient ascent at n=100 (large-n simulate);
* ``oracle_inventory``: the Kac-Rice oracle (kacrice) and the n=5
  critical-point inventory (small-n simulate).

So each planned optimisation has a workload that exercises it and one that
does not, and a batching change to simulate that helps small n but costs
large n moves the two workloads in opposite directions.  Pairing the jobs
lets each run measure for longer within the run budget.  Each job names the
reference kernels (``speed_kinds``) that correct its time for the host's
speed, and whether it runs threads of its own (``threaded``); see speed.py.

Each job class offers

* ``inputs(seed, rep)``: the inputs of repetition ``rep``, made from the seed;
* ``warm_up()``: one small call down each code path the job takes;
* ``run(inputs, between_ops=None)``: the timed job, a list with one output
  per operation (an ``OpError`` where the operation raised); a threaded job
  calls ``between_ops()`` between its operations, where the speed meter may
  sample;
* ``check(inputs, outputs)``: one failure message or None per operation;
* ``post_check(inputs, outputs)``: checks run once per run, after timing;
* ``extras(inputs, outputs)``: per-layer numbers the trace cannot see.

The checks do not depend on the random stream: they compare against
references within their stated error, or test invariants that hold sample by
sample.  Module functions are looked up at call time (``cli.main``,
``simulate.power_iteration``) so that a traced run sees them wrapped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tensorlandscape import cli, kacrice, scan, simulate
from tensorlandscape.complexity import ModelParams

from speed import SpeedMeter

REFS = Path(__file__).resolve().parent / "refs"


def load_ref(name: str) -> dict:
    with open(REFS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for (seed, keys), independent across keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class OpError:
    traceback: str


def attempt(fn, *args, **kwargs):
    """Call fn; an exception becomes the operation's output, so the job goes on."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # any failure of one operation is recorded, never fatal
        return OpError(traceback.format_exc())


def run_cli(argv, out_path=None) -> dict:
    """One in-process ``tensorland`` invocation with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    out = Path(out_path).read_text(encoding="ascii") if out_path and rc == 0 else ""
    return {"rc": rc, "stdout": buf.getvalue(), "file": out}


def _cli_bytes(outputs) -> int:
    return sum(len(o["stdout"]) + len(o["file"]) for o in outputs if isinstance(o, dict))


# ---------------------------------------------------------------------------
# bands: tensorland thresholds --k 3 --lambda 3

BANDS_K, BANDS_LAMBDA = 3, 3.0

#: |output - reference| allowed per quantity.  Band edges come from a
#: bisection with xtol 1e-10; the touch point m_star is the argmax of a
#: projection that is flat to second order there, so golden-section search
#: places it only to ~1e-10 and 1e-9 is allowed.
BANDS_TOL = {
    "lambda_critical": 1e-15,
    "m_critical": 1e-14,
    "good_location_zero": 1e-11,
    "zero_band_m1": 2e-10,
    "zero_band_m2": 2e-10,
    "zero_band_m_star": 1e-9,
    "star_band_m1": 2e-10,
    "star_band_m2": 2e-10,
    "star_band_m_star": 1e-9,
}


def check_bands(output, ref: dict) -> str | None:
    if isinstance(output, OpError):
        return output.traceback
    if output["rc"] != 0:
        return f"exit code {output['rc']}"
    lines = output["stdout"].splitlines()
    if not lines or lines[0] != "quantity,value":
        return "missing header"
    got = dict(line.split(",", 1) for line in lines[1:])
    for name, tol in BANDS_TOL.items():
        try:
            value = float(got[name])
        except (KeyError, ValueError):
            return f"{name}: no numeric value in {got.get(name)!r}"
        if not abs(value - ref["values"][name]) <= tol:
            return f"{name} = {value!r}, reference {ref['values'][name]!r} +- {tol}"
    return None


class Bands:
    """Scalar complexity calls inside the projections of the band search."""

    name = "bands"
    speed_kinds, threaded = ("scalar",), False

    def __init__(self):
        self.ref = load_ref("bands")

    def inputs(self, seed: int, rep: int):
        return ["thresholds", "--k", str(BANDS_K), "--lambda", repr(BANDS_LAMBDA)]

    def warm_up(self) -> None:
        scan.project_max_over_x(ModelParams(BANDS_K, BANDS_LAMBDA), 0.1, which="zero")

    def run(self, inputs, between_ops=None):
        return [attempt(run_cli, inputs)]

    def check(self, inputs, outputs):
        return [check_bands(outputs[0], self.ref)]

    def post_check(self, inputs, outputs):
        return []

    def extras(self, inputs, outputs):
        return {"cli.bytes_written": _cli_bytes(outputs)}


# ---------------------------------------------------------------------------
# oracle: three tensorland oracle invocations at --threads 2

ORACLE_K = 3
ORACLE_THREADS = 2
ORACLE_RUNS = [
    {"lambda": 1.5, "which": "star", "n_list": (20, 40, 80), "samples": 100,
     "ref_samples": 4000},
    {"lambda": 0.0, "which": "star", "n_list": (40, 80, 160), "samples": 400,
     "ref_samples": 16000},
    {"lambda": 0.0, "which": "zero", "n_list": (40, 80, 160), "samples": 400,
     "ref_samples": 16000},
]

#: An estimate passes when it is within ORACLE_Z combined standard errors of
#: its reference.  The log of a heavy-tailed sample mean errs low far more
#: often than a Gaussian would: over 40 to 90 seeds per estimate the
#: standardized error ranged from -5.0 to +2.9, hence the wide multiple.
ORACLE_Z = 8.0

#: The lambda = 0 star growth-rate fit over n = 40, 80, 160 must lie within
#: this of its n -> oo limit (1/2) log 2; over 40 seeds it lay 0.001 to 0.010
#: above.
GROWTH_LIMIT = 0.5 * math.log(2.0)
GROWTH_TOL = 0.03


def oracle_key(lam: float, which: str, n: int) -> str:
    return f"{lam:g}/{which}/{n}"


def parse_oracle(output) -> tuple[dict, float]:
    """{n: (log_mean, log_std_error)} and the growth rate of one oracle CSV."""
    lines = output["file"].splitlines()
    if not lines or lines[0] != "n,log_expected_count,std_error":
        raise ValueError("missing header")
    rows = {}
    for line in lines[1:-1]:
        n, lm, se = line.split(",")
        rows[int(n)] = (float(lm), float(se))
    tag, rate = lines[-1].split(",")
    if tag != "# growth_rate":
        raise ValueError("missing growth-rate line")
    return rows, float(rate)


def check_oracle(outputs, ref: dict) -> list[str | None]:
    """One message or None per oracle invocation, in ORACLE_RUNS order."""
    parsed, messages = [], []
    for spec, output in zip(ORACLE_RUNS, outputs):
        parsed.append(None)
        if isinstance(output, OpError):
            messages.append(output.traceback)
            continue
        if output["rc"] != 0:
            messages.append(f"exit code {output['rc']}")
            continue
        try:
            rows, rate = parse_oracle(output)
        except ValueError as exc:
            messages.append(f"unreadable CSV: {exc}")
            continue
        if sorted(rows) != list(spec["n_list"]):
            messages.append(f"rows for n = {sorted(rows)}")
            continue
        parsed[-1] = (rows, rate)
        problems = []
        for n, (lm, se) in rows.items():
            r = ref["estimates"][oracle_key(spec["lambda"], spec["which"], n)]
            allowed = ORACLE_Z * math.hypot(se, r["log_std_error"])
            if not abs(lm - r["log_mean"]) <= allowed:
                problems.append(f"n={n}: log mean {lm!r}, reference "
                                f"{r['log_mean']!r} +- {allowed:.3g}")
        if spec["lambda"] == 0.0 and spec["which"] == "star":
            if not abs(rate - GROWTH_LIMIT) <= GROWTH_TOL:
                problems.append(f"growth rate {rate!r} not within {GROWTH_TOL} of log(2)/2")
        messages.append("; ".join(problems) or None)
    # local maxima never outnumber critical points, sample by sample
    runs = {(s["lambda"], s["which"]): i for i, s in enumerate(ORACLE_RUNS)}
    star, iz = parsed[runs[0.0, "star"]], runs[0.0, "zero"]
    if star is not None and parsed[iz] is not None:
        above = [n for n, (lm, _) in parsed[iz][0].items() if lm > star[0][n][0]]
        if above:
            messages[iz] = "; ".join(filter(None, [
                messages[iz], f"zero estimate above star at n = {above}"]))
    return messages


class Oracle:
    """Kac-Rice Monte Carlo: one eigvalsh per distinct theta and sample."""

    name = "oracle"
    speed_kinds, threaded = ("pool", "stream"), True

    def __init__(self, workdir: Path):
        self.ref = load_ref("oracle")
        self.workdir = workdir

    def inputs(self, seed: int, rep: int):
        cli_seed = derive(seed, rep)
        argvs = []
        for i, spec in enumerate(ORACLE_RUNS):
            out = self.workdir / f"oracle-{rep}-{i}.csv"
            argvs.append(([
                "oracle", "--k", str(ORACLE_K), "--lambda", repr(spec["lambda"]),
                "--which", spec["which"], "--n-list", ",".join(map(str, spec["n_list"])),
                "--samples", str(spec["samples"]), "--threads", str(ORACLE_THREADS),
                "--seed", str(cli_seed), "--out", str(out)], out))
        return argvs

    def warm_up(self) -> None:
        kacrice.crt_expected(ModelParams(ORACLE_K, 1.5), 5, m_steps=2, x_steps=2,
                             n_samples=2, n_threads=ORACLE_THREADS)

    def run(self, inputs, between_ops=None):
        outputs = []
        for argv, out in inputs:
            if outputs and between_ops:
                between_ops()
            outputs.append(attempt(run_cli, argv, out))
        return outputs

    def check(self, inputs, outputs):
        return check_oracle(outputs, self.ref)

    def post_check(self, inputs, outputs):
        """The last invocation again at --threads 1 must give identical bytes."""
        argv, out = inputs[-1]
        argv, out = list(argv), f"{out}.t1"
        argv[argv.index("--threads") + 1] = "1"
        argv[argv.index("--out") + 1] = out
        single = attempt(run_cli, argv, out)
        if isinstance(single, OpError):
            return [single.traceback]
        if isinstance(outputs[-1], OpError) or single["file"] != outputs[-1]["file"]:
            return ["oracle CSV differs between --threads 1 and --threads 2"]
        return [None]

    def extras(self, inputs, outputs):
        return {"cli.bytes_written": _cli_bytes(outputs)}

    def thread_speedup(self, rounds: int = 2) -> float:
        """1-thread over 2-thread time of one fixed estimate, median of rounds."""
        params = ModelParams(ORACLE_K, 1.5)
        times = {1: [], 2: []}
        for _ in range(rounds):
            for threads in (1, 2):
                t0 = time.perf_counter()
                kacrice.crt_expected(params, 40, n_samples=100, seed=0, n_threads=threads)
                times[threads].append(time.perf_counter() - t0)
        return statistics.median(times[1]) / statistics.median(times[2])


# ---------------------------------------------------------------------------
# inventory: complete critical-point inventories of two n=5 tensors

INVENTORY_N, INVENTORY_LAMBDA = 5, 1.5
INVENTORY_TENSORS = (0, 1)
INVENTORY_BATCH = 100
INVENTORY_CAP = 2000
INVENTORY_REF_STARTS = 10000
CHORD_TOL = 1e-6


def cli_draw(n: int, lam: float, seed: int):
    """The k=3 tensor and start ``tensorland simulate --n n --lambda lam --seed seed`` draw."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    tensor = simulate.make_spiked_tensor(n, 3, lam, u, seed=seed)
    start = rng.standard_normal(n)
    return tensor, start / np.linalg.norm(start)


def inventory_tensor(t: int):
    return cli_draw(INVENTORY_N, INVENTORY_LAMBDA, t)[0]


def merge_points(inventory: list, records) -> None:
    """Add each record whose sigma is farther than CHORD_TOL from all kept ones."""
    for r in records:
        if all(np.linalg.norm(r.sigma - q["sigma"]) >= CHORD_TOL for q in inventory):
            inventory.append({"sigma": r.sigma, "f": r.f_value, "index": r.index,
                              "grad_norm": r.grad_norm})


def inventory_problem(points, n: int) -> str | None:
    """Why an inventory cannot be complete, or None.

    On S^(n-1) the Morse indices satisfy sum (-1)^index = 1 + (-1)^(n-1); for
    odd k the antipode of a critical point is one with value -f and index
    n - 1 - index.
    """
    euler = sum((-1) ** p["index"] for p in points)
    if euler != 1 + (-1) ** (n - 1):
        return f"Euler characteristic {euler}"
    for p in points:
        sigma = np.asarray(p["sigma"])
        partner = min(points, key=lambda q: np.linalg.norm(np.asarray(q["sigma"]) + sigma))
        if (np.linalg.norm(np.asarray(partner["sigma"]) + sigma) >= CHORD_TOL
                or abs(partner["f"] + p["f"]) > 1e-9
                or partner["index"] != n - 1 - p["index"]):
            return f"point with f = {p['f']!r} has no antipodal partner"
    return None


def check_inventory(output, ref_tensor: dict, n: int = INVENTORY_N) -> str | None:
    if isinstance(output, OpError):
        return output.traceback
    points = output["points"]
    if len(points) != ref_tensor["count"]:
        return f"{len(points)} points after {output['starts']} starts, reference {ref_tensor['count']}"
    problem = inventory_problem(points, n)
    if problem:
        return problem
    for p in points:
        if not p["grad_norm"] < 1e-10:
            return f"point with gradient norm {p['grad_norm']!r}"
        sigma = np.asarray(p["sigma"])
        if not any(np.linalg.norm(np.asarray(q["sigma"]) - sigma) < CHORD_TOL
                   and abs(q["f"] - p["f"]) <= 1e-9 and q["index"] == p["index"]
                   for q in ref_tensor["points"]):
            return f"point with f = {p['f']!r} is not in the reference inventory"
    return None


def complete_inventory(tensor, t: int, count: int) -> dict:
    """Batches of starts until the merged inventory is complete, or the cap."""
    points, starts = [], 0
    while starts < INVENTORY_CAP:
        records, _ = simulate.find_critical_points(
            tensor, n_starts=INVENTORY_BATCH, seed=[t, starts // INVENTORY_BATCH])
        starts += INVENTORY_BATCH
        merge_points(points, records)
        if len(points) == count and inventory_problem(points, tensor.n) is None:
            break
    return {"points": points, "starts": starts}


class Inventory:
    """Multistart Newton at small n until each inventory is provably complete.

    The tensors and the start stream do not depend on the seed: the number
    of starts a complete inventory needs varies by a factor of several from
    one start stream to the next, which would swamp any change to the time
    per start.
    """

    name = "inventory"
    speed_kinds, threaded = ("small",), False

    def __init__(self):
        self.ref = {r["tensor"]: r for r in load_ref("inventory")["tensors"]}

    def inputs(self, seed: int, rep: int):
        return [(t, inventory_tensor(t)) for t in INVENTORY_TENSORS]

    def warm_up(self) -> None:
        simulate.find_critical_points(inventory_tensor(0), n_starts=1, seed=0)

    def run(self, inputs, between_ops=None):
        return [attempt(complete_inventory, tensor, t, self.ref[t]["count"])
                for t, tensor in inputs]

    def check(self, inputs, outputs):
        return [check_inventory(out, self.ref[t]) for (t, _), out in zip(inputs, outputs)]

    def post_check(self, inputs, outputs):
        return []

    def extras(self, inputs, outputs):
        return {"newton.starts_to_complete": sum(
            o["starts"] for o in outputs if isinstance(o, dict))}


# ---------------------------------------------------------------------------
# recovery: power iteration and gradient ascent on n=100 tensors

RECOVERY_N = 100
RECOVERY_LAMBDA_FACTORS = (0.5, 1.0, 2.0)  # lambda / sqrt(n)
RECOVERY_POWER_RUNS, RECOVERY_POWER_CAP, RECOVERY_ASCENT_CAP = 20, 200, 2000
MONOTONE_SLACK = 1e-12  # gradient_ascent accepts steps that lose at most this


def check_power(output, tensor, must_recover: bool) -> str | None:
    if isinstance(output, OpError):
        return output.traceback
    sigma, iters = output
    if not (np.all(np.isfinite(sigma)) and abs(np.linalg.norm(sigma) - 1.0) < 1e-9):
        return "power iterate is not a unit vector"
    if not 1 <= iters <= RECOVERY_POWER_CAP:
        return f"{iters} iterations"
    if must_recover and not abs(float(sigma @ tensor.u)) >= 0.9:
        return f"spike not recovered: overlap {float(sigma @ tensor.u)!r}"
    return None


def check_ascent(output) -> str | None:
    if isinstance(output, OpError):
        return output.traceback
    sigma, trace = output
    if not (np.all(np.isfinite(sigma)) and abs(np.linalg.norm(sigma) - 1.0) < 1e-9):
        return "ascent iterate is not a unit vector"
    f = trace.f_values
    if not (np.all(np.isfinite(f)) and np.all(f[1:] >= f[:-1] - MONOTONE_SLACK)):
        return f"ascent trace not monotone: largest drop {-float(np.min(np.diff(f)))!r}"
    return None


class Recovery:
    """Contraction of an 8 MB tensor (n=100, k=3) in power iteration and ascent.

    Tensor i and its ascent start are what ``tensorland simulate --n 100
    --lambda <lambda_i> --seed i --method ascent`` draws; only the power
    iteration starts come from the seed.  An ascent run takes 100 to 2000
    iterations depending on its tensor and start, so seeding those would
    spread the job's time by about 15 %.
    """

    name = "recovery"
    speed_kinds, threaded = ("stream",), False

    def inputs(self, seed: int, rep: int):
        out = []
        for i, factor in enumerate(RECOVERY_LAMBDA_FACTORS):
            tensor, ascent_start = cli_draw(RECOVERY_N, factor * math.sqrt(RECOVERY_N), i)
            starts = np.random.default_rng([seed, rep, i]).standard_normal(
                (RECOVERY_POWER_RUNS, RECOVERY_N))
            starts /= np.linalg.norm(starts, axis=1, keepdims=True)
            out.append((factor, tensor, starts, ascent_start))
        return out

    def warm_up(self) -> None:
        tensor = simulate.noiseless_tensor(4, 3, 1.0, np.array([1.0, 0, 0, 0]))
        simulate.power_iteration(tensor, np.array([0.6, 0.8, 0, 0]), max_iters=1)
        simulate.gradient_ascent(tensor, np.array([0.6, 0.8, 0, 0]), max_iters=1)

    def run(self, inputs, between_ops=None):
        outputs = []
        for _, tensor, starts, ascent_start in inputs:
            outputs += [attempt(simulate.power_iteration, tensor, s,
                                max_iters=RECOVERY_POWER_CAP) for s in starts]
            outputs.append(attempt(simulate.gradient_ascent, tensor, ascent_start,
                                   max_iters=RECOVERY_ASCENT_CAP))
        return outputs

    def check(self, inputs, outputs):
        messages = []
        per_tensor = RECOVERY_POWER_RUNS + 1
        for i, (factor, tensor, _, _) in enumerate(inputs):
            block = outputs[i * per_tensor:(i + 1) * per_tensor]
            messages += [check_power(o, tensor, must_recover=factor >= 2.0) for o in block[:-1]]
            messages.append(check_ascent(block[-1]))
        return messages

    def post_check(self, inputs, outputs):
        return []

    def extras(self, inputs, outputs):
        return {}


class Workload:
    """Jobs run one after the other; each method combines theirs in order."""

    def __init__(self, name: str, jobs):
        self.name, self.jobs = name, jobs
        self.job_wall_s = {job.name: [] for job in jobs}
        self.job_corrected_s = {job.name: [] for job in jobs}

    def inputs(self, seed: int, rep: int):
        return [job.inputs(seed, rep) for job in self.jobs]

    def warm_up(self) -> None:
        for job in self.jobs:
            job.warm_up()

    def run(self, inputs, meter: SpeedMeter | None = None):
        """Run the jobs in turn; with a meter, also record speed-corrected times."""
        outputs = []
        for job, job_inputs in zip(self.jobs, inputs):
            if meter is None:
                t0 = time.perf_counter()
                outputs.append(job.run(job_inputs))
                self.job_wall_s[job.name].append(time.perf_counter() - t0)
                continue
            with meter.watch(job.speed_kinds, job.threaded):
                outputs.append(job.run(job_inputs, meter.between_ops))
            self.job_wall_s[job.name].append(meter.net)
            self.job_corrected_s[job.name].append(meter.corrected())
        return outputs

    def _each(self, method, inputs, outputs):
        return [getattr(job, method)(i, o) for job, i, o in zip(self.jobs, inputs, outputs)]

    def _messages(self, method, inputs, outputs):
        return [m and f"{job.name}: {m}" for job, messages
                in zip(self.jobs, self._each(method, inputs, outputs)) for m in messages]

    def check(self, inputs, outputs):
        return self._messages("check", inputs, outputs)

    def post_check(self, inputs, outputs):
        return self._messages("post_check", inputs, outputs)

    def extras(self, inputs, outputs):
        merged = {}
        for extra in self._each("extras", inputs, outputs):
            for key, value in extra.items():
                merged[key] = merged.get(key, 0) + value
        return merged


def make(name: str, workdir: Path) -> Workload:
    if name == "bands_recovery":
        return Workload(name, [Bands(), Recovery()])
    if name == "oracle_inventory":
        return Workload(name, [Oracle(workdir), Inventory()])
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("bands_recovery", "oracle_inventory")
