"""Command-line interface.

Exit codes: 0 on solver success, 64 for usage/input errors, and otherwise a
code mirroring the termination status: 21 lack of progress, 23 numerical
failure, 26 iteration limit.  11 / 12 (primal / dual infeasible) are
reserved for a checked infeasibility certificate and are not produced.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .ipm import SolverConfig, solve
from .modeling import model_from_json
from .npa import (
    Scenario,
    chsh_nv_game,
    chsh_nv_task,
    mlp_bound,
    nv_build_basis,
    nv_solve,
    qrac_nv_game,
    qrac_nv_task,
    solve_bell,
)
from .problem import (
    STATUS_ITERATION_LIMIT,
    STATUS_LACK_OF_PROGRESS,
    STATUS_NUMERICAL_FAILURE,
    STATUS_PRIMAL_INFEASIBLE,
    STATUS_DUAL_INFEASIBLE,
    STATUS_SUCCESS,
)
from .quantum import DensityMatrix, dps_test, qsd_optimal
from .graphs import lovasz_theta, parse_graph, weighted_theta
from .report import RunReport
from .sdpa import parse_sdpa
from .seesaw import chsh_seesaw, qrac_seesaw
from .sos import sos_certificate, tsirelson_sos_chsh

EXIT_USAGE = 64
_EXIT_BY_STATUS = {
    STATUS_SUCCESS: 0,
    STATUS_PRIMAL_INFEASIBLE: 11,
    STATUS_DUAL_INFEASIBLE: 12,
    STATUS_LACK_OF_PROGRESS: 21,
    STATUS_NUMERICAL_FAILURE: 23,
    STATUS_ITERATION_LIMIT: 26,
}


class UsageError(Exception):
    pass


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        tol_gap=args.tol,
        tol_primal=args.tol,
        tol_dual=args.tol,
        max_iterations=args.maxit,
        direction=args.direction,
    )


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _scenario_from_doc(doc) -> Scenario:
    try:
        return Scenario(tuple(doc["settings"]), tuple(tuple(o) for o in doc["outcomes"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad scenario document: {exc}") from exc


def _bell_from_doc(doc) -> dict:
    bell = {}
    try:
        for entry in doc.get("bell", []):
            bell[(entry["a"], entry["b"], entry["x"], entry["y"])] = float(entry["coeff"])
    except KeyError as exc:
        raise UsageError(f"a 'bell' entry lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad 'bell' entry: {exc}") from exc
    if not bell:
        raise UsageError("scenario document has no 'bell' coefficients")
    return bell


# ---------------------------------------------------------------------------
# subcommand handlers; each returns a RunReport and the solver's iteration log


def _cmd_solve(args) -> tuple:
    text = _read(args.input)
    cfg = _solver_config(args)
    if args.input.endswith(".json"):
        model = model_from_json(text)
        compiled = model.compile(framing=args.framing)
        res = compiled.solve(cfg)
        result = {"model_value": res.value, "framing": args.framing}
        return RunReport.from_solution("solve", compiled.problem, res.solution, result=result), res.log
    p = parse_sdpa(text)
    sol, log = solve(p, cfg)
    return RunReport.from_solution("solve", p, sol, result={"sdpa_objective": -sol.dual_value}), log


def _cmd_npa(args) -> tuple:
    doc = json.loads(_read(args.scenario))
    scenario = _scenario_from_doc(doc)
    bell = _bell_from_doc(doc)
    level = args.level if args.level == "1+AB" else int(args.level)
    res = solve_bell(scenario, level, bell, cfg=_solver_config(args))
    mr = res.model_result
    result = {"bound": res.value, "level": str(level), "moment_size": res.gamma.shape[0]}
    return RunReport.from_solution("npa", mr.compiled.problem, mr.solution, result=result), mr.log


def _cmd_mlp(args) -> tuple:
    doc = json.loads(_read(args.scenario))
    try:
        scenario = Scenario.prepare_measure(doc["preparations"], doc["meas_settings"], doc.get("outcomes", 2))
        d = int(doc["dim"])
        witness = {(e["b"], e["x"], e["y"]): float(e["coeff"]) for e in doc["witness"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad prepare-and-measure document: {exc}") from exc
    level = args.level if args.level == "1+AB" else int(args.level)
    res = mlp_bound(scenario, d, witness, level=level, cfg=_solver_config(args))
    mr = res.model_result
    result = {"bound": res.value, "dim": d, "level": str(level)}
    return RunReport.from_solution("mlp", mr.compiled.problem, mr.solution, result=result), mr.log


def _cmd_nv(args) -> tuple:
    doc = json.loads(_read(args.scenario))
    if not isinstance(doc, dict):
        raise UsageError("nv scenario document must be a JSON object")
    kind = doc.get("kind")
    if kind == "qrac":
        task = qrac_nv_task(int(doc.get("bits", 2)), int(doc.get("dim", 2)))
        game = qrac_nv_game(task, int(doc.get("bits", 2)))
    elif kind == "chsh":
        task = chsh_nv_task(int(doc.get("dim_each", 2)))
        game = chsh_nv_game(task)
    else:
        raise UsageError("nv scenario document needs kind 'qrac' or 'chsh'")
    basis = nv_build_basis(task, seed=args.seed, max_draws=int(doc.get("max_draws", 800)))
    value, _, res = nv_solve(basis, game, cfg=_solver_config(args))
    result = {"bound": value, "basis_size": len(basis), "kind": kind}
    return RunReport.from_solution("nv", res.compiled.problem, res.solution, seed=args.seed, result=result), res.log


def _cmd_theta(args) -> tuple:
    g = parse_graph(_read(args.graph))
    cfg = _solver_config(args)
    if g.weights is not None:
        value, res = weighted_theta(g, cfg)
        payload = {"theta_weighted": value, "vertices": g.n, "edges": len(g.edges)}
    else:
        value, _, res = lovasz_theta(g, cfg)
        payload = {"theta": value, "vertices": g.n, "edges": len(g.edges)}
    return RunReport.from_solution("theta", res.compiled.problem, res.solution, result=payload), res.log


def _cmd_dps(args) -> tuple:
    doc = json.loads(_read(args.state))
    rho = DensityMatrix.from_json_dict(doc)
    dims = (args.dims[0], args.dims[1])
    res = dps_test(rho, dims, k=args.copies, ppt=not args.no_ppt, cfg=_solver_config(args))
    mr = res.model_result
    result = {"feasible": res.feasible, "slack": res.slack, "copies": args.copies, "ppt": not args.no_ppt}
    return RunReport.from_solution("dps", mr.compiled.problem, mr.solution, result=result), mr.log


def _cmd_qsd(args) -> tuple:
    doc = json.loads(_read(args.states))
    try:
        states = [DensityMatrix.from_json_dict(d) for d in doc["states"]]
        priors = doc.get("priors")
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad states document: {exc}") from exc
    value, _, res = qsd_optimal(states, priors, cfg=_solver_config(args))
    result = {"success_probability": value, "n_states": len(states)}
    return RunReport.from_solution("qsd", res.compiled.problem, res.solution, result=result), res.log


def _cmd_seesaw(args) -> tuple:
    start = time.perf_counter()
    if args.task == "chsh":
        out = chsh_seesaw(restarts=args.restarts, seed=args.seed)
    elif args.task == "qrac":
        for flag, value in (("--bits", args.bits), ("--dim", args.dim)):
            if value < 1:
                raise UsageError(f"seesaw {flag} must be at least 1, got {value}")
        out = qrac_seesaw(n_bits=args.bits, d=args.dim, restarts=args.restarts, seed=args.seed)
    else:
        raise UsageError("seesaw task must be 'chsh' or 'qrac'")
    wall_time = time.perf_counter() - start
    # no solver runs, so the report carries the lower bound only, and there is no log
    report = RunReport(
        command="seesaw",
        status=STATUS_SUCCESS,
        status_label="success",
        block_sizes=[],
        m=0,
        nonneg_dim=0,
        free_dim=0,
        wall_time=wall_time,
        seed=args.seed,
        result={
            "lower_bound": out.value,
            "task": args.task,
            "restarts": args.restarts,
            "restart_values": list(out.restart_values),
            "sweeps": len(out.trajectory) - 1,
        },
    )
    return report, None


def _cmd_sos(args) -> tuple:
    cfg = _solver_config(args)
    if args.chsh:
        q1, report = tsirelson_sos_chsh(cfg)
        res = report["result"]
        result = {"q1": q1, "residual": report["residual"], "kind": "chsh"}
        return RunReport.from_solution("sos", res.compiled.problem, res.solution, result=result), res.log
    if not args.poly:
        raise UsageError("sos needs --poly FILE or --chsh")
    doc = json.loads(_read(args.poly))
    try:
        n_vars = int(doc["vars"])
        h = {tuple(int(e) for e in t["exponents"]): float(t["coeff"]) for t in doc["terms"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad polynomial document: {exc}") from exc
    res = sos_certificate(h, n_vars, cfg=cfg)
    mr = res.model_result
    payload = {"feasible": res.feasible, "margin": res.margin}
    if res.certificate is not None:
        payload["residual"] = res.certificate.residual
        payload["n_squares"] = len(res.certificate.squares)
    return RunReport.from_solution("sos", mr.compiled.problem, mr.solution, result=payload), mr.log


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsdp", description="SDP toolkit for quantum information")
    sub = parser.add_subparsers(dest="command", required=True)

    def output_flags(p):
        p.add_argument("--json-out", default=None, help="write the report as JSON ('-' for stdout)")

    def solver_flags(p):
        p.add_argument("--tol", type=float, default=SolverConfig.tol_gap, help="gap and residual tolerance")
        p.add_argument("--maxit", type=int, default=SolverConfig.max_iterations, help="iteration limit")
        p.add_argument("--direction", choices=("hkm", "nt"), default=SolverConfig.direction)
        p.add_argument("--verbose", action="store_true", help="print the per-iteration table")

    p = sub.add_parser("solve", help="solve an SDPA sparse file or a model JSON file")
    p.add_argument("input")
    p.add_argument("--framing", choices=("dual", "primal"), default="dual")
    solver_flags(p)
    output_flags(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("npa", help="Bell-functional bound from the moment-matrix hierarchy")
    p.add_argument("--scenario", required=True)
    p.add_argument("--level", default="1")
    solver_flags(p)
    output_flags(p)
    p.set_defaults(handler=_cmd_npa)

    p = sub.add_parser("mlp", help="dimension-constrained prepare-and-measure bound")
    p.add_argument("--scenario", required=True)
    p.add_argument("--level", default="2")
    solver_flags(p)
    output_flags(p)
    p.set_defaults(handler=_cmd_mlp)

    p = sub.add_parser("nv", help="randomized fixed-dimension moment-matrix bound")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    solver_flags(p)
    output_flags(p)
    p.set_defaults(handler=_cmd_nv)

    p = sub.add_parser("theta", help="Lovasz theta of a graph (weighted when weights present)")
    p.add_argument("--graph", required=True)
    solver_flags(p)
    output_flags(p)
    p.set_defaults(handler=_cmd_theta)

    p = sub.add_parser("dps", help="PPT symmetric-extension separability test")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", type=int, nargs=2, required=True)
    p.add_argument("--copies", type=int, default=2)
    p.add_argument("--no-ppt", action="store_true")
    solver_flags(p)
    output_flags(p)
    p.set_defaults(handler=_cmd_dps)

    p = sub.add_parser("qsd", help="optimal quantum state discrimination")
    p.add_argument("--states", required=True)
    solver_flags(p)
    output_flags(p)
    p.set_defaults(handler=_cmd_qsd)

    p = sub.add_parser("seesaw", help="alternating lower bounds (chsh or qrac)")
    p.add_argument("--task", default="chsh")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    output_flags(p)
    p.set_defaults(handler=_cmd_seesaw)

    p = sub.add_parser("sos", help="sum-of-squares certificates")
    p.add_argument("--poly", default=None)
    p.add_argument("--chsh", action="store_true")
    solver_flags(p)
    output_flags(p)
    p.set_defaults(handler=_cmd_sos)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        report, log = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if log is not None and args.verbose:
        print(log.to_text())
    print(report.to_text())
    if args.json_out:
        text = report.to_json()
        if args.json_out == "-":
            print(text)
        else:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    return _EXIT_BY_STATUS.get(report.status, 23)


if __name__ == "__main__":
    sys.exit(main())
