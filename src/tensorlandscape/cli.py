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

from .complexity import ModelParams, s_star, s_zero
from .kacrice import crt_expected, growth_rate_fit
from .scan import (
    GridSpec,
    band_endpoints,
    grid_centers,
    project_max_over_m,
    project_max_over_x,
)
from .simulate import (
    find_critical_points,
    gradient_ascent,
    landscape_histogram,
    make_spiked_tensor,
    noiseless_tensor,
    objective,
    power_iteration,
    riemannian_grad,
    riemannian_hess,
    INDEX_ZERO_THRESHOLD,
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

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, default=3, help="tensor order (>= 3)")
    sub.add_argument("--lambda", dest="lam", type=float, default=0.0,
                     help="signal-to-noise ratio (>= 0)")
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--out", default=None, help="output CSV path")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility (>= 1); has no effect, "
                          "every command runs serially")
    sub.add_argument("--config", default=None,
                     help="key=value file of defaults; flags override")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="tensorland",
        description="Spiked-tensor landscape complexity toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("grid", help="complexity surfaces on an (m, x) grid")
    _add_common(g)
    g.add_argument("--m-min", type=float, default=-0.999)
    g.add_argument("--m-max", type=float, default=0.999)
    g.add_argument("--m-steps", type=int, default=161)
    g.add_argument("--x-min", type=float, default=-3.0)
    g.add_argument("--x-max", type=float, default=3.0)
    g.add_argument("--x-steps", type=int, default=161)
    g.set_defaults(func=cmd_grid)

    p = subs.add_parser("projection", help="curves maximized over the other axis")
    _add_common(p)
    p.add_argument("--axis", choices=("m", "x"), default="m",
                   help="independent variable of the emitted curve")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--lo", type=float, default=None,
                   help="lower end of the axis range")
    p.add_argument("--hi", type=float, default=None,
                   help="upper end of the axis range")
    p.set_defaults(func=cmd_projection)

    t = subs.add_parser("thresholds", help="critical SNR and band report")
    _add_common(t)
    t.set_defaults(func=cmd_thresholds)

    o = subs.add_parser("oracle", help="finite-n expected-count estimates")
    _add_common(o)
    o.add_argument("--n-list", default="10,20,40",
                   help="comma-separated ascending dimensions (>= 3 values)")
    o.add_argument("--samples", type=int, default=500,
                   help="Monte-Carlo samples per estimate")
    o.add_argument("--which", choices=("star", "zero"), default="star",
                   help="count all critical points or local maxima only")
    o.add_argument("--m-min", type=float, default=-0.99)
    o.add_argument("--m-max", type=float, default=0.99)
    o.add_argument("--x-min", type=float, default=-3.0)
    o.add_argument("--x-max", type=float, default=3.0)
    o.add_argument("--m-steps", type=int, default=60)
    o.add_argument("--x-steps", type=int, default=60)
    o.set_defaults(func=cmd_oracle)

    s = subs.add_parser("simulate", help="optimization runs on sampled tensors")
    _add_common(s)
    s.add_argument("--n", type=int, default=10, help="ambient dimension")
    s.add_argument("--seeds", type=int, default=1,
                   help="number of consecutive seeds starting at --seed")
    s.add_argument("--method", choices=("power", "ascent", "newton"),
                   default="power")
    s.add_argument("--noiseless", action="store_true",
                   help="use the pure rank-one tensor (no noise)")
    s.add_argument("--max-iters", type=int, default=None,
                   help="iteration cap (method-dependent default)")
    s.add_argument("--tol", type=float, default=None,
                   help="convergence tolerance (method-dependent default)")
    s.add_argument("--n-starts", type=int, default=1000,
                   help="multistart count for method=newton")
    s.add_argument("--hist-out", default=None,
                   help="also emit a 2-D local-maximum histogram CSV")
    s.add_argument("--hist-bins", type=int, default=20)
    s.set_defaults(func=cmd_simulate)

    return parser, subs.choices


# ---------------------------------------------------------------------------
# commands

def cmd_grid(args) -> None:
    params = ModelParams(args.k, args.lam)
    grid = GridSpec(m_min=args.m_min, m_max=args.m_max, m_steps=args.m_steps,
                    x_min=args.x_min, x_max=args.x_max, x_steps=args.x_steps)
    m, x = grid_centers(grid)
    mm, xx = np.meshgrid(m, x, indexing="ij")
    star = s_star(params, mm, xx)
    zero = s_zero(params, mm, xx)
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
        project = lambda v, which: project_max_over_x(params, v, which)
    else:
        lo = -3.0 if args.lo is None else args.lo
        hi = 3.0 if args.hi is None else args.hi
        header = "x,s_star_of_x,s_zero_of_x"
        project = lambda v, which: project_max_over_m(params, v, which)
    if not lo < hi:
        raise ValueError("projection range must satisfy lo < hi")
    if args.points < 2:
        raise ValueError("projection needs at least 2 points")
    axis = np.linspace(lo, hi, args.points)
    lines = [header]
    for v in axis:
        star = project(v, "star").value
        zero = project(v, "zero").value
        lines.append(",".join((_fmt(v), _fmt(star), _fmt(zero))))
    _write_lines(args.out, lines)


def cmd_thresholds(args) -> None:
    params = ModelParams(args.k, args.lam)
    rows = [("lambda_critical", lambda_critical(args.k))]
    rows.append(("m_critical",
                 m_critical(params) if args.lam > 0 else None))
    rows.append(("good_location_zero", good_location_zero(params)))
    for which in ("zero", "star"):
        band = band_endpoints(params, which=which)
        rows.append((f"{which}_band_m1", band.m1))
        rows.append((f"{which}_band_m2", band.m2))
        rows.append((f"{which}_band_m_star", band.m_star))
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
    """The spike u and tensor of one seed, and the generator that drew u."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(args.n)
    u /= np.linalg.norm(u)
    if args.noiseless:
        tensor = noiseless_tensor(args.n, args.k, args.lam, u)
    else:
        tensor = make_spiked_tensor(args.n, args.k, args.lam, u, seed=seed)
    return rng, u, tensor


def _simulate_one(args, seed: int):
    """One optimization run; returns the CSV row fields."""
    rng, u, tensor = _draw_tensor(args, seed)
    n, k, lam = args.n, args.k, args.lam
    sigma0 = rng.standard_normal(n)
    sigma0 /= np.linalg.norm(sigma0)
    if args.method == "power":
        cap = 500 if args.max_iters is None else args.max_iters
        tol = 1e-10 if args.tol is None else args.tol
        sigma, iters = power_iteration(tensor, sigma0, max_iters=cap, tol=tol)
    else:
        cap = 2000 if args.max_iters is None else args.max_iters
        tol = 1e-8 if args.tol is None else args.tol
        sigma, trace = gradient_ascent(tensor, sigma0, max_iters=cap, tol=tol)
        iters = trace.iters
    f_val = objective(tensor, sigma)
    grad_norm = float(np.linalg.norm(riemannian_grad(tensor, sigma)))
    eigs = np.linalg.eigvalsh(riemannian_hess(tensor, sigma))
    index = int(np.count_nonzero(eigs > INDEX_ZERO_THRESHOLD))
    return (seed, n, k, lam, args.method, float(sigma @ u), f_val,
            grad_norm, index, iters)


def cmd_simulate(args) -> None:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    if args.hist_out is not None and args.method != "newton":
        raise ValueError("--hist-out requires --method newton")
    if args.hist_bins < 1:
        raise ValueError("--hist-bins must be >= 1")
    ModelParams(args.k, args.lam)  # validate k and lambda
    header = "seed,n,k,lambda,method,m_final,f_final,grad_norm,index,iters"
    lines = [header]
    maxima = []
    for seed in range(args.seed, args.seed + args.seeds):
        if args.method == "newton":
            _rng, _u, tensor = _draw_tensor(args, seed)
            records, _failures = find_critical_points(
                tensor, n_starts=args.n_starts, seed=seed + 1)
            maxima.extend(r for r in records if r.index == 0)
            for r in records:
                lines.append(",".join((
                    str(seed), str(args.n), str(args.k), _fmt(args.lam),
                    "newton", _fmt(r.m), _fmt(r.f_value), _fmt(r.grad_norm),
                    str(r.index), str(r.iters))))
        else:
            row = _simulate_one(args, seed)
            lines.append(",".join(
                str(v) if isinstance(v, int) else (_fmt(v) if isinstance(v, float) else v)
                for v in row))
    _write_lines(args.out, lines)
    if args.hist_out is not None:
        counts, m_edges, f_edges = landscape_histogram(
            maxima, m_bins=args.hist_bins, f_bins=args.hist_bins)
        hlines = ["m_left,m_right,f_left,f_right,count"]
        for i in range(counts.shape[0]):
            for j in range(counts.shape[1]):
                hlines.append(",".join((
                    _fmt(m_edges[i]), _fmt(m_edges[i + 1]),
                    _fmt(f_edges[j]), _fmt(f_edges[j + 1]),
                    str(int(counts[i, j])))))
        _write_lines(args.hist_out, hlines)


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _rest = pre.parse_known_args(argv)

    parser, subparsers = _build_parser()
    try:
        if known.config is not None:
            overrides = _load_config(known.config)
            if argv[0] in subparsers:
                _apply_config(subparsers[argv[0]], argv[0], overrides)
        args = parser.parse_args(argv)
        if getattr(args, "out", None) is None and args.command != "thresholds":
            raise ValueError("--out is required (flag or config file)")
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
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


def _apply_config(sub: argparse.ArgumentParser, command: str, overrides: dict) -> None:
    """Install file-supplied values as defaults of subcommand parser ``sub``.

    argparse applies --flag values after defaults, so explicit flags win.
    String defaults are passed through each option's type converter.
    """
    dests = {a.dest: a for a in sub._actions if a.dest != "help"}
    unknown = set(overrides) - set(dests) - {"config"}
    # accept the flag spelling 'lambda' for the 'lam' destination
    if "lambda" in unknown and "lam" in dests:
        overrides = dict(overrides)
        overrides["lam"] = overrides.pop("lambda")
        unknown.discard("lambda")
    if unknown:
        raise ValueError(
            f"unknown config keys for '{command}': {', '.join(sorted(unknown))}")
    defaults = {}
    for key, text in overrides.items():
        if key == "config":
            continue
        action = dests[key]
        if isinstance(action, argparse._StoreTrueAction):
            defaults[key] = text.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            defaults[key] = action.type(text)
        else:
            defaults[key] = text
        if action.choices is not None and defaults[key] not in action.choices:
            raise ValueError(
                f"config key {key}={text!r} not in {sorted(action.choices)}")
    sub.set_defaults(**defaults)


if __name__ == "__main__":
    sys.exit(main())
