"""Command-line front end: solve, div, grad, flow, check."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .divergences import (hausdorff_divergence, ot_eps, sinkhorn_divergence,
                          sinkhorn_entropy, solve_terms)
from .entropies import parse_entropy
from .errors import UotError
from .flows import FlowParams, FlowState, run_flow
from .measures import CostSpec, load_measure
from .oracle import run_checks
from .sinkhorn import INFEASIBLE, MAX_ITER, SolveOptions, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (argparse defaults to 2, reserved for
    # infeasible instances)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _emit(payload: dict, args) -> None:
    if args.format == "csv":
        lines = []
        for key, val in payload.items():
            if isinstance(val, (list, tuple)):
                lines.append([key] + [repr(float(v)) if isinstance(v, float) else v
                                      for v in np.ravel(val).tolist()])
            elif isinstance(val, dict):
                lines.append([key, json.dumps(val)])
            else:
                lines.append([key, repr(val) if isinstance(val, float) else val])
        out = sys.stdout if args.output is None else open(args.output, "w", newline="")
        writer = csv.writer(out)
        writer.writerows(lines)
        if out is not sys.stdout:
            out.close()
        return
    # one top-level key a line, each value encoded without indent=, which
    # would select json's pure-Python encoder over its C one
    text = "{\n" + ",\n".join(f"  {json.dumps(key)}: {json.dumps(val)}"
                               for key, val in payload.items()) + "\n}"
    if args.output is None:
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")


def _warn_max_iter(report) -> None:
    if report.status == MAX_ITER:
        print(f"warning: stopped at max_iter after {report.iterations} "
              f"sweeps, final update {report.final_update:.3g}",
              file=sys.stderr)


def _report_dict(report) -> dict:
    return {"status": report.status, "iterations": report.iterations,
            "final_update": report.final_update}


def _solver_options(args) -> SolveOptions:
    return SolveOptions(tol=args.tol, max_iter=args.max_iter)


def _add_common(p, need_b=True):
    p.add_argument("measure_a", help="measure file (.json or .csv)")
    if need_b:
        p.add_argument("measure_b", help="measure file (.json or .csv)")
    else:
        p.add_argument("measure_b", nargs="?", default=None)
    p.add_argument("--entropy", default="kl:rho=1.0",
                   help="balanced | kl:rho=R | tv:rho=R | range:a=A,b=B | "
                        "power:rho=R,s=S | berg:rho=R")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--cost-power", type=float, default=2.0)
    p.add_argument("--cost-scale", type=float, default=1.0)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _cost(args) -> CostSpec:
    return CostSpec(power=args.cost_power, scale=args.cost_scale)


def _cmd_solve(args) -> int:
    entropy = parse_entropy(args.entropy)
    a = load_measure(args.measure_a)
    b = load_measure(args.measure_b)
    cost = _cost(args)
    pots, report = solve(a, b, cost.pairwise(a.points, b.points), entropy,
                         args.eps, _solver_options(args))
    if report.status == INFEASIBLE:
        print("infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    _warn_max_iter(report)
    payload = pots.to_dict()
    payload["report"] = _report_dict(report)
    _emit(payload, args)
    return EXIT_OK


def _cmd_div(args) -> int:
    entropy = parse_entropy(args.entropy)
    a = load_measure(args.measure_a)
    cost = _cost(args)
    opts = _solver_options(args)
    if args.divergence == "f":
        result = sinkhorn_entropy(a, cost, entropy, args.eps, opts)
    else:
        if args.measure_b is None:
            return _fail("this divergence needs a second measure")
        b = load_measure(args.measure_b)
        fn = {"ot": ot_eps, "s": sinkhorn_divergence,
              "h": hausdorff_divergence}[args.divergence]
        result = fn(a, b, cost, entropy, args.eps, opts)
    if result.report.status == INFEASIBLE:
        print("infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    _warn_max_iter(result.report)
    _emit({"value": result.value, "report": _report_dict(result.report)}, args)
    return EXIT_OK


def _cmd_grad(args) -> int:
    entropy = parse_entropy(args.entropy)
    a = load_measure(args.measure_a)
    b = load_measure(args.measure_b)
    solved = solve_terms(a, b, _cost(args), entropy, args.eps, args.which,
                         _solver_options(args))
    result = solved.value()
    if result.report.status == INFEASIBLE:
        print("infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    _warn_max_iter(result.report)
    payload = {"value": result.value}
    # positions first: their reductions keep the row sums the weight
    # gradients read, so each plan is built once
    g_pos = solved.grad_positions() if args.target != "weights" else None
    if args.target in ("weights", "both"):
        g = solved.grad_weights()
        payload["grad_weights_a"] = g.d_weights_a.tolist()
        payload["grad_weights_b"] = g.d_weights_b.tolist()
    if g_pos is not None:
        payload["grad_points_a"] = g_pos.d_points_a.tolist()
        payload["grad_points_b"] = g_pos.d_points_b.tolist()
    payload["report"] = _report_dict(result.report)
    _emit(payload, args)
    return EXIT_OK


def _write_flow_csvs(trajectory, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for state in trajectory:
        path = os.path.join(out_dir, f"snapshot_{state.step:05d}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            dim = state.positions.shape[1]
            writer.writerow(["step", "i"] + [f"x{k + 1}" for k in range(dim)]
                            + ["mass"])
            for i, (pos, r) in enumerate(zip(state.positions, state.r)):
                writer.writerow([state.step, i] + [repr(float(v)) for v in pos]
                                + [repr(float(r * r))])
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "S_eps", "status", "sweeps"])
        for state in trajectory:
            writer.writerow([state.step, repr(float(state.s_eps)),
                             state.report.status, state.report.iterations])


def _cmd_flow(args) -> int:
    entropy = parse_entropy(args.entropy)
    source = load_measure(args.measure_a)
    target = load_measure(args.measure_b)
    params = FlowParams(eta_x=args.eta_x, eta_r=args.eta_r, eps=args.eps,
                        entropy=entropy, steps=args.steps,
                        mass_updates=not args.no_mass_updates,
                        mass_rate=args.mass_rate, solve_tol=args.tol,
                        solve_max_iter=args.max_iter)
    trajectory = run_flow(FlowState.from_measure(source), target, _cost(args),
                          params, snapshot_every=args.snapshot_every)
    _write_flow_csvs(trajectory, args.out_dir)
    unconverged = [s.step for s in trajectory if not s.report.converged]
    if unconverged:
        print(f"warning: {len(unconverged)} of {len(trajectory)} snapshots "
              f"did not converge, the first at step {unconverged[0]} (see "
              "summary.csv)", file=sys.stderr)
    print(f"wrote {len(trajectory)} snapshots to {args.out_dir}")
    return EXIT_OK


def _cmd_check(args) -> int:
    report = run_checks(seed=args.seed)
    _emit(report, args)
    return EXIT_OK if report["all_passed"] else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uot", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="dual potentials for one instance")
    _add_common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("div", help="transport cost or debiased divergence")
    _add_common(p, need_b=False)
    p.add_argument("--divergence", choices=("ot", "s", "f", "h"), default="s")
    p.set_defaults(fn=_cmd_div)

    p = sub.add_parser("grad", help="weight/position gradients")
    _add_common(p)
    p.add_argument("--which", choices=("ot", "s"), default="s")
    p.add_argument("--target", choices=("weights", "positions", "both"),
                   default="both")
    p.set_defaults(fn=_cmd_grad)

    p = sub.add_parser("flow", help="particle gradient flow toward a target")
    _add_common(p)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--eta-x", type=float, default=60.0)
    p.add_argument("--eta-r", type=float, default=0.3)
    p.add_argument("--snapshot-every", type=int, default=50)
    p.add_argument("--mass-rate", choices=("printed", "eta_r"), default="printed")
    p.add_argument("--no-mass-updates", action="store_true")
    p.add_argument("--out-dir", default="flow_out")
    p.set_defaults(fn=_cmd_flow, eps=1e-3, tol=1e-7)

    p = sub.add_parser("check", help="run the brute-force oracle suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=_cmd_check, format="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        return _fail(f"cannot read {exc.filename}")
    except (UotError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
