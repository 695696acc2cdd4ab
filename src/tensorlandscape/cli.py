"""Command-line front end for landscape computations and simulations.

Subcommands
-----------
grid        complexity surfaces on an (m, x) grid -> CSV
projection  complexity curves maximized over the other variable -> CSV
thresholds  critical SNR, crossover overlap, good-maximum location, bands
oracle      finite-n Monte-Carlo expected counts and growth-rate fit -> CSV
simulate    spiked-tensor optimization runs and critical-point hunts -> CSV

Conventions shared by every command: deterministic output given the full
configuration including --seed; CSV with '.' decimal point, ',' separator,
'\\n' line terminator, 17 significant digits for reals, and the exact token
'-inf' for minus infinity.  A key=value config file (--config) supplies
defaults; explicit flags override it.  No environment variables are read.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .complexity import ModelParams, _count, _seed, s_star, s_zero
from .kacrice import crt_expected, growth_rate_fit
from .scan import (
    GridSpec,
    band_endpoints,
    grid_centers,
    project_max_over_m,
    project_max_over_x,
)
# objective and riemannian_grad/_hess are not called here: the benchmark's
# tracer (perfbench/tracing.py) wraps them as cli attributes
from .simulate import (
    find_critical_points,
    gradient_ascent,
    landscape_histogram,
    make_spiked_tensor,
    noiseless_tensor,
    objective,  # noqa: F401
    power_iteration,
    riemannian_grad,  # noqa: F401
    riemannian_hess,  # noqa: F401
    _records,
)
from .thresholds import good_location_zero, lambda_critical, m_critical


def _fmt(x) -> str:
    """17-significant-digit, locale-independent float rendering."""
    return "%.17g" % float(x)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


# ---------------------------------------------------------------------------
# config file handling

def _load_config(path: str) -> dict:
    """Parse a key=value file into a string-valued mapping.

    Blank lines and '#' comments are ignored.  Keys use the long flag
    spelling without dashes; '-' and '_' are interchangeable.
    """
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            values[key] = value.strip()
    return values


# ---------------------------------------------------------------------------
# parser

class _Command:
    """One subcommand parser and the options added to it, recorded as they
    are added: ``options`` maps each destination to its argparse action and
    ``switches`` names the ``store_true`` ones."""

    def __init__(self, subs, name: str, help: str, func) -> None:
        self.name = name
        self.parser = subs.add_parser(name, help=help)
        self.parser.set_defaults(func=func)
        self.options: dict[str, argparse.Action] = {}
        self.switches: set[str] = set()
        # the options every subcommand takes
        self.add("--k",type=int, default=3, help="tensor order (>= 3)")
        self.add("--lambda", dest="lam", type=float, default=0.0,
                 help="signal-to-noise ratio (>= 0)")
        self.add("--seed", type=int, default=0, help="base RNG seed")
        self.add("--out", default=None, help="output CSV path")
        self.add("--threads", type=int, default=1,
                 help="accepted for compatibility (>= 1); has no effect, "
                      "every command runs serially")
        self.add("--config", default=None,
                 help="key=value file of defaults; flags override")

    def add(self, *flags, **kwargs) -> None:
        action = self.parser.add_argument(*flags, **kwargs)
        self.options[action.dest] = action
        if kwargs.get("action") == "store_true":
            self.switches.add(action.dest)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The top-level parser and its subcommands by name."""
    parser = argparse.ArgumentParser(
        prog="tensorland",
        description="Spiked-tensor landscape complexity toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    g = _Command(subs, "grid", "complexity surfaces on an (m, x) grid", cmd_grid)
    g.add("--m-min", type=float, default=-0.999)
    g.add("--m-max", type=float, default=0.999)
    g.add("--m-steps", type=int, default=161)
    g.add("--x-min", type=float, default=-3.0)
    g.add("--x-max", type=float, default=3.0)
    g.add("--x-steps", type=int, default=161)

    p = _Command(subs, "projection", "curves maximized over the other axis", cmd_projection)
    p.add("--axis", choices=("m", "x"), default="m",
          help="independent variable of the emitted curve")
    p.add("--points", type=int, default=201)
    p.add("--lo", type=float, default=None, help="lower end of the axis range")
    p.add("--hi", type=float, default=None, help="upper end of the axis range")

    t = _Command(subs, "thresholds", "critical SNR and band report", cmd_thresholds)

    o = _Command(subs, "oracle", "finite-n expected-count estimates", cmd_oracle)
    o.add("--n-list", default="10,20,40",
          help="comma-separated ascending dimensions (>= 3 values)")
    o.add("--samples", type=int, default=500,
          help="Monte-Carlo samples per estimate (>= 2)")
    o.add("--which", choices=("star", "zero"), default="star",
          help="count all critical points or local maxima only")
    o.add("--m-min", type=float, default=-0.99)
    o.add("--m-max", type=float, default=0.99)
    o.add("--x-min", type=float, default=-3.0)
    o.add("--x-max", type=float, default=3.0)
    o.add("--m-steps", type=int, default=60)
    o.add("--x-steps", type=int, default=60)

    s = _Command(subs, "simulate", "optimization runs on sampled tensors", cmd_simulate)
    s.add("--n", type=int, default=10, help="ambient dimension")
    s.add("--seeds", type=int, default=1,
          help="number of consecutive seeds starting at --seed")
    s.add("--method", choices=("power", "ascent", "newton"), default="power")
    s.add("--noiseless", action="store_true",
          help="use the pure rank-one tensor (no noise)")
    s.add("--max-iters", type=int, default=None,
          help="iteration cap, power and ascent only (method-dependent default)")
    s.add("--tol", type=float, default=None,
          help="stop once the sphere gradient norm is below this, power and "
               "ascent only (method-dependent default)")
    s.add("--n-starts", type=int, default=1000,
          help="Newton starts for method=newton, run past the homotopy's path "
               "budget or where its certificate fails (>= 1)")
    s.add("--hist-out", default=None,
          help="also emit a 2-D local-maximum histogram CSV")
    s.add("--hist-bins", type=int, default=20)

    return parser, {c.name: c for c in (g, p, t, o, s)}


# ---------------------------------------------------------------------------
# commands

def cmd_grid(args) -> None:
    params = ModelParams(args.k, args.lam)
    grid = GridSpec(m_min=args.m_min, m_max=args.m_max, m_steps=args.m_steps,
                    x_min=args.x_min, x_max=args.x_max, x_steps=args.x_steps)
    m, x = grid_centers(grid)
    star = s_star(params, m[:, None], x[None, :])
    zero = s_zero(params, m[:, None], x[None, :])
    lines = ["m,x,s_star,s_zero"]
    for i in range(m.size):
        for j in range(x.size):
            lines.append(",".join((_fmt(m[i]), _fmt(x[j]),
                                   _fmt(star[i, j]), _fmt(zero[i, j]))))
    _write_lines(args.out, lines)


def cmd_projection(args) -> None:
    params = ModelParams(args.k, args.lam)
    if args.axis == "m":
        lo = -0.99 if args.lo is None else args.lo
        hi = 0.99 if args.hi is None else args.hi
        header = "m,s_star_of_m,s_zero_of_m"
        project = project_max_over_x
    else:
        lo = -3.0 if args.lo is None else args.lo
        hi = 3.0 if args.hi is None else args.hi
        header = "x,s_star_of_x,s_zero_of_x"
        project = project_max_over_m
    if not lo < hi:
        raise ValueError("projection range must satisfy lo < hi")
    _count(args.points, "--points", 2)
    axis = np.linspace(lo, hi, args.points)
    star = project(params, axis, "star").value
    zero = project(params, axis, "zero").value
    lines = [header]
    lines.extend(",".join(map(_fmt, row)) for row in zip(axis, star, zero))
    _write_lines(args.out, lines)


def cmd_thresholds(args) -> None:
    params = ModelParams(args.k, args.lam)
    rows = [("lambda_critical", lambda_critical(args.k))]
    rows.append(("m_critical",
                 m_critical(params) if args.lam > 0 else None))
    touch = good_location_zero(params)  # one root for the three touch-point rows
    rows.append(("good_location_zero", touch))
    for which in ("zero", "star"):
        band = band_endpoints(params, which=which)
        rows.append((f"{which}_band_m1", band.m1))
        rows.append((f"{which}_band_m2", band.m2))
        rows.append((f"{which}_band_m_star", touch))
    lines = ["quantity,value"]
    for name, value in rows:
        lines.append(f"{name},{'absent' if value is None else _fmt(value)}")
    if args.out is None:
        for line in lines:
            print(line)
    else:
        _write_lines(args.out, lines)


def cmd_oracle(args) -> None:
    params = ModelParams(args.k, args.lam)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --n-list: {args.n_list!r}") from exc
    if len(n_list) < 3:
        raise ValueError("growth-rate fit needs at least 3 dimensions")
    if sorted(n_list) != n_list:
        raise ValueError("--n-list must be ascending")
    for n in n_list:
        _count(n, "--n-list", 3)
    if len(set(n_list)) < 2:
        raise ValueError("--n-list needs at least two distinct dimensions")
    _count(args.samples, "--samples", 2)
    lines = ["n,log_expected_count,std_error"]
    points = []
    for n in n_list:
        est = crt_expected(
            params, n,
            m_interval=(args.m_min, args.m_max),
            x_interval=(args.x_min, args.x_max),
            m_steps=args.m_steps, x_steps=args.x_steps,
            n_samples=args.samples, seed=args.seed,
            which=args.which, n_threads=args.threads,
        )
        points.append((n, est.log_mean))
        lines.append(",".join((str(n), _fmt(est.log_mean),
                               _fmt(est.log_std_error))))
    rate = growth_rate_fit(points)
    lines.append(f"# growth_rate,{_fmt(rate)}")
    _write_lines(args.out, lines)
    print(f"growth rate: {_fmt(rate)}")


def _draw_tensor(args, seed: int):
    """The spike u and tensor of one seed, and the generator that drew u.

    The noise is drawn from ``seed`` and u (then the start) from
    ``[seed, 1]``, so the spike and start are independent of the noise."""
    rng = np.random.default_rng(_seed([seed, 1]))
    u = rng.standard_normal(args.n)
    u /= np.linalg.norm(u)
    if args.noiseless:
        tensor = noiseless_tensor(args.n, args.k, args.lam, u)
    else:
        tensor = make_spiked_tensor(args.n, args.k, args.lam, u, seed=seed)
    return rng, u, tensor


def _simulate_one(args, seed: int):
    """One optimization run; returns the record of its final point."""
    rng, _u, tensor = _draw_tensor(args, seed)
    sigma0 = rng.standard_normal(args.n)
    sigma0 /= np.linalg.norm(sigma0)
    # only the flags that are set: the defaults are the optimizers' own
    given = {name: value for name, value in (("max_iters", args.max_iters), ("tol", args.tol))
             if value is not None}
    if args.method == "power":
        sigma, iters = power_iteration(tensor, sigma0, **given)
    else:
        sigma, trace = gradient_ascent(tensor, sigma0, **given)
        iters = trace.iters
    return _records(tensor, sigma[None], [iters])[0]


def cmd_simulate(args) -> None:
    _count(args.seeds, "--seeds", 1)
    if args.hist_out is not None and args.method != "newton":
        raise ValueError("--hist-out requires --method newton")
    _count(args.hist_bins, "--hist-bins", 1)
    _count(args.n_starts, "--n-starts", 1)
    if args.method == "newton" and (args.max_iters is not None or args.tol is not None):
        raise ValueError("--max-iters and --tol do not apply to --method newton")
    ModelParams(args.k, args.lam)  # validate k and lambda
    header = "seed,n,k,lambda,method,m_final,f_final,grad_norm,index,iters"
    lines = [header]
    found = []
    for seed in range(args.seed, args.seed + args.seeds):
        if args.method == "newton":
            _rng, _u, tensor = _draw_tensor(args, seed)
            records, _failures = find_critical_points(
                tensor, n_starts=args.n_starts, seed=seed + 1)
            found.extend(records)
        else:
            records = [_simulate_one(args, seed)]
        for r in records:
            lines.append(",".join((
                str(seed), str(args.n), str(args.k), _fmt(args.lam),
                args.method, _fmt(r.m), _fmt(r.f_value), _fmt(r.grad_norm),
                str(r.index), str(r.iters))))
    if args.hist_out is not None:
        # built before either file is written: with no record at all it
        # raises, and the run leaves no file behind.  The value axis spans
        # the maxima; with none, all records give its range and the
        # histogram is all zero
        maxima = [r for r in found if r.index == 0]
        counts, m_edges, f_edges = landscape_histogram(
            maxima or found, m_bins=args.hist_bins, f_bins=args.hist_bins)
        hlines = ["m_left,m_right,f_left,f_right,count"]
        for i in range(counts.shape[0]):
            for j in range(counts.shape[1]):
                hlines.append(",".join((
                    _fmt(m_edges[i]), _fmt(m_edges[i + 1]),
                    _fmt(f_edges[j]), _fmt(f_edges[j + 1]),
                    str(int(counts[i, j])))))
    _write_lines(args.out, lines)
    if args.hist_out is not None:
        _write_lines(args.hist_out, hlines)


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _rest = pre.parse_known_args(argv)

    parser, commands = _build_parser()
    try:
        if known.config is not None:
            overrides = _load_config(known.config)
            if argv[0] in commands:
                _apply_config(commands[argv[0]], overrides)
        args = parser.parse_args(argv)
        if getattr(args, "out", None) is None and args.command != "thresholds":
            raise ValueError("--out is required (flag or config file)")
        _count(args.threads, "--threads", 1)
        args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


#: config-file spellings of a switch, compared case-insensitively
_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _apply_config(command: _Command, overrides: dict) -> None:
    """Install file-supplied values as defaults of ``command``'s parser.

    argparse applies --flag values after defaults, so explicit flags win.
    String defaults are passed through each option's type converter.
    """
    unknown = set(overrides) - set(command.options)
    # accept the flag spelling 'lambda' for the 'lam' destination
    if "lambda" in unknown:
        overrides = dict(overrides)
        overrides["lam"] = overrides.pop("lambda")
        unknown.discard("lambda")
    if unknown:
        raise ValueError(
            f"unknown config keys for '{command.name}': {', '.join(sorted(unknown))}")
    defaults = {}
    for key, text in overrides.items():
        if key == "config":
            continue
        action = command.options[key]
        if key in command.switches:
            if text.lower() not in _SWITCH_WORDS:
                raise ValueError(f"config key {key}={text!r} not in {list(_SWITCH_WORDS)}")
            defaults[key] = _SWITCH_WORDS[text.lower()]
        elif action.type is not None:
            defaults[key] = action.type(text)
        else:
            defaults[key] = text
        if action.choices is not None and defaults[key] not in action.choices:
            raise ValueError(
                f"config key {key}={text!r} not in {sorted(action.choices)}")
    command.parser.set_defaults(**defaults)


if __name__ == "__main__":
    sys.exit(main())
