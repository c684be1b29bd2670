"""Command-line harness: simulate, fit and experiment (sweeps and diagnose configs)."""

from __future__ import annotations

import argparse
import sys

from .config import DEFAULT_SIMULATION_C2, ConfigError, load_config, resolve_c2
from .estimator import FitConfig, fit, lambda_policy
from .experiments import run_experiment
from .link import LinkSpec, sigmoid_link
from .simulate import DEFAULT_BURN_IN, random_sparse_theta, read_path, simulate, write_path
from .tensor import read_tensor, write_tensor

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _add_link_flags(parser):
    parser.add_argument("--alpha", type=float, default=LinkSpec.alpha, help="sigmoid gain")
    parser.add_argument("--eps", type=float, default=LinkSpec.eps, help="probability clamp level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbp",
        description="Binary autoregressive process toolkit: simulation, "
        "l1-penalized fitting, and mixing diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a sample path and write it to a file")
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", help="tensor file with the generating weights")
    group.add_argument(
        "--random",
        metavar="N,P,S",
        help="generate a random s-sparse N x N x p truth instead",
    )
    sim.add_argument("--n", type=int, required=True, help="number of recorded samples")
    sim.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output path file")
    sim.add_argument("--theta-out", help="also write the generating tensor here")
    _add_link_flags(sim)

    fit_p = sub.add_parser("fit", help="fit the penalized estimator to a path file")
    fit_p.add_argument("--data", required=True, help="sample path file")
    lam_group = fit_p.add_mutually_exclusive_group(required=True)
    lam_group.add_argument("--lambda", dest="lam", type=float, help="penalty weight")
    lam_group.add_argument(
        "--lambda-policy",
        metavar="MODE[,C2]",
        help="derive the weight from a policy: simulation or theorem, "
        "optionally with the constant, e.g. 'simulation,0.5'; simulation without "
        f"one uses {DEFAULT_SIMULATION_C2}, as configs do",
    )
    fit_p.add_argument("--tol", type=float, default=FitConfig.tol, help="KKT tolerance over lambda")
    fit_p.add_argument("--max-iters", type=int, default=FitConfig.max_iters)
    fit_p.add_argument("--out", required=True, help="output tensor file")
    _add_link_flags(fit_p)

    exp = sub.add_parser("experiment", help="run a config-driven sweep or diagnostic checks")
    exp.add_argument("--config", required=True, help="config file")
    return parser


def _cmd_simulate(args) -> int:
    link = sigmoid_link(args.alpha, args.eps)
    if args.theta:
        theta = read_tensor(args.theta)
    else:
        parts = args.random.split(",")
        if len(parts) != 3:
            print("--random expects N,P,S", file=sys.stderr)
            return EXIT_ERROR
        n_dims, p, s = (int(x) for x in parts)
        theta = random_sparse_theta(n_dims, p, s, seed=args.seed)
    path = simulate(theta, link, args.n, burn_in=args.burn_in, seed=args.seed)
    write_path(path, args.out)
    if args.theta_out:
        write_tensor(theta, args.theta_out)
    print(f"wrote {args.out}: n={path.n} N={path.n_dims} p={path.n_lags}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    link = sigmoid_link(args.alpha, args.eps)
    path = read_path(args.data)
    if args.lam is not None:
        lam = args.lam
    else:
        parts = args.lambda_policy.split(",")
        mode = parts[0]
        c2 = resolve_c2(mode, float(parts[1]) if len(parts) > 1 else None)
        lam = lambda_policy(path.n, path.n_dims, path.n_lags, link=link, c2=c2, mode=mode)
    result = fit(path, link, FitConfig(lam=lam, max_iters=args.max_iters, tol=args.tol))
    write_tensor(result.theta_hat, args.out)
    print(
        f"wrote {args.out}: lambda={lam:.6g} iterations={result.iterations} "
        f"objective={result.objective_trace[-1]:.8f} "
        f"kkt/lambda={result.kkt_over_lambda:.3g} (stopped: {result.stop_reason})"
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_experiment(args) -> int:
    for f in run_experiment(load_config(args.config)):
        print(f"wrote {f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"simulate": _cmd_simulate, "fit": _cmd_fit, "experiment": _cmd_experiment}
    try:
        return commands[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
