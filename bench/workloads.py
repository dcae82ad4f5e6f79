"""Benchmark workloads: seeded inputs, the pipeline calls and the correctness gate.

Each workload is a list of instances.  An instance runs the whole pipeline
for one input (scenario -> words -> model -> compile -> validate -> IPM ->
recover -> report) and returns an :class:`Outcome` whose ``errors`` list is
empty only when every check of the gate passed.  Inputs are built from the
workload seed before any timing starts; the package only sees the generated
inputs.

Every call into qsdp goes through a module attribute looked up at call time
(``quantum.dps_test``, not a name bound at import), so that the traced run's
wrappers see it.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qsdp import ipm, npa, quantum, report, sdpa
from qsdp.problem import STATUS_SUCCESS

seesaw_mod = importlib.import_module("qsdp.seesaw")  # qsdp.seesaw is the function

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / "demos" / "data"

# Solver tolerance the instances run at, and the gate on the DIMACS errors.
_DEFAULTS = ipm.SolverConfig()
SOLVER_TOL = max(_DEFAULTS.tol_gap, _DEFAULTS.tol_primal, _DEFAULTS.tol_dual)
DIMACS_LIMIT = 10.0 * SOLVER_TOL
VALUE_TOL = 1e-6

TSIRELSON = 2.0 * math.sqrt(2.0)
QRAC_OPT = (2.0 + math.sqrt(2.0)) / 4.0
I3322_L3 = 0.25087556  # Pal & Vertesi, PRA 82, 022116 (2010), NPA level 3
DPS_K3_SLACK = {"werner_p025": 1.0 / 64.0, "werner_p05": -1.0 / 32.0}
CHANNEL_VALUE = 0.25


@dataclass
class Outcome:
    name: str
    value: float | None = None
    reference: float | None = None
    status: int | None = None
    iterations: int | None = None
    dimacs: list[float] | None = None
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    problem: object = None  # the instance's ConeProblem, kept for statistics only

    def record(self) -> dict:
        doc = {
            "name": self.name,
            "ok": not self.errors,
            "value": self.value,
            "reference": self.reference,
            "status": self.status,
            "iterations": self.iterations,
            "dimacs": self.dimacs,
            "errors": self.errors,
            **self.extra,
        }
        if self.problem is not None:
            doc["problem"] = problem_stats(self.problem)
        return doc


@dataclass
class Instance:
    name: str
    run: object  # callable () -> Outcome


# ---------------------------------------------------------------------------
# the correctness gate


def check_value(out: Outcome, value: float, reference: float, tol: float = VALUE_TOL):
    out.value, out.reference = float(value), float(reference)
    if not abs(value - reference) <= tol:
        out.errors.append(f"value {value!r} differs from reference {reference!r} by more than {tol:g}")


def check_solution(out: Outcome, problem, solution, dimacs=None):
    """Status success and all six DIMACS errors within DIMACS_LIMIT."""
    out.problem = problem
    out.status = int(solution.status)
    out.iterations = int(solution.stats.get("iterations", 0))
    if solution.status != STATUS_SUCCESS:
        out.errors.append(f"status {solution.status} ({solution.status_label})")
    errs = report.dimacs_errors(problem, solution) if dimacs is None else dimacs
    out.dimacs = [float(e) for e in errs]
    bad = [k + 1 for k, e in enumerate(out.dimacs) if not abs(e) <= DIMACS_LIMIT]
    if bad:
        out.errors.append(f"DIMACS errors {bad} exceed {DIMACS_LIMIT:g}: {out.dimacs}")


def check_pincer(out: Outcome, lower: float, upper: float, tol: float = VALUE_TOL):
    """See-saw lower bound below the hierarchy bound, and the two meet."""
    out.extra.update(lower=float(lower), upper=float(upper))
    if not lower <= upper + tol:
        out.errors.append(f"see-saw lower bound {lower!r} exceeds the upper bound {upper!r}")
    if not upper - lower <= tol:
        out.errors.append(f"pincer open: upper {upper!r} - lower {lower!r} > {tol:g}")


# ---------------------------------------------------------------------------
# problem statistics, computed from the ConeProblem outside the package


def problem_stats(p) -> dict:
    st = p.structure
    dim = sum(n * n for n in st.sdp_blocks) + st.nonneg_dim + st.free_dim
    nnz = 0
    coeffs = [np.abs(p.rhs[p.rhs != 0])]
    for a in [p.c_obj] + list(p.constraints):
        parts = [b.reshape(-1) for b in a.blocks] + [a.nonneg, a.free]
        flat = np.concatenate(parts) if parts else np.zeros(0)
        nz = flat[flat != 0]
        if a is not p.c_obj:
            nnz += nz.size
        coeffs.append(np.abs(nz))
    allc = np.concatenate(coeffs)
    m = p.num_constraints
    return {
        "block_sizes": list(st.sdp_blocks),
        "nonneg_dim": st.nonneg_dim,
        "free_dim": st.free_dim,
        "m": m,
        "a_nnz": int(nnz),
        "a_density": nnz / (m * dim) if m and dim else 0.0,
        "coeff_spread": float(allc.max() / allc.min()) if allc.size else 0.0,
    }


# ---------------------------------------------------------------------------
# inputs


def i3322_functional(rng) -> dict:
    """I3322 in joint-probability form, relabelled by a seeded symmetry.

    Collins-Gisin form: -P_A(0|0) - 2 P_B(0|0) - P_B(0|1) + sum_xy J_xy P(00|xy).
    Marginals are expanded as sums of joints over a seeded setting of the
    other party.  The settings of each party are permuted and the parties
    possibly swapped.  These relabellings map the moment matrix onto itself
    by a permutation, so the optimum stays at the published value and the
    solver faces the same problem up to the order of its rows.  (Outcome
    relabellings are left out: they act on the moment matrix by a congruence
    that is not a permutation, which changes the solver's path.)
    """
    joint = [[1, 1, 1], [1, 1, -1], [1, -1, 0]]
    y_for_a, x_for_b = (int(v) for v in rng.integers(0, 3, size=2))
    terms: dict = {}

    def add(key, c):
        terms[key] = terms.get(key, 0.0) + c

    for x in range(3):
        for y in range(3):
            if joint[x][y]:
                add((0, 0, x, y), float(joint[x][y]))
    for b in range(2):
        add((0, b, 0, y_for_a), -1.0)
    for a in range(2):
        add((a, 0, x_for_b, 0), -2.0)
        add((a, 0, x_for_b, 1), -1.0)

    perm_a, perm_b = rng.permutation(3), rng.permutation(3)
    swap = bool(rng.integers(0, 2))
    bell = {}
    for (a, b, x, y), c in terms.items():
        key = (a, b, int(perm_a[x]), int(perm_b[y]))
        if swap:
            key = (key[1], key[0], key[3], key[2])
        bell[key] = bell.get(key, 0.0) + c
    return bell


def haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_state(name: str, rng):
    """A shipped state under a seeded local unitary U (x) V; DPS slacks and the
    partial-transpose spectrum are invariant under it."""
    doc = json.loads((STATE_DIR / f"{name}.json").read_text())
    rho = quantum.DensityMatrix.from_json_dict(doc).matrix
    w = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    rho = w @ rho @ w.conj().T
    return quantum.DensityMatrix((rho + rho.conj().T) / 2.0)


def pt_min_eig(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the two-qubit partial transpose on B (the PPT oracle)."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


# ---------------------------------------------------------------------------
# instances


def bell_instance(name: str, scenario, level, bell: dict, reference: float) -> Instance:
    """solve_bell, then the compiled problem through SDPA text and back, then the run report."""

    def run() -> Outcome:
        out = Outcome(name)
        res = npa.solve_bell(scenario, level, bell)
        mr = res.model_result
        problem, sol = mr.compiled.problem, mr.solution
        text = sdpa.write_sdpa(problem, comment=name)
        back = sdpa.parse_sdpa(text)
        out.extra["sdpa_bytes"] = len(text.encode())
        if back.num_constraints != problem.num_constraints or not np.array_equal(back.rhs, problem.rhs):
            out.errors.append("SDPA round trip changed the constraints")
        rep = report.RunReport.from_solution(name, problem, sol, result={"value": res.value})
        rep.to_json()
        check_solution(out, problem, sol, dimacs=rep.dimacs)
        check_value(out, res.value, reference)
        return out

    return Instance(name, run)


def dps_instance(name: str, rho, k: int, reference: float) -> Instance:
    def run() -> Outcome:
        out = Outcome(name)
        res = quantum.dps_test(rho, (2, 2), k=k, ppt=True)
        check_solution(out, res.model_result.compiled.problem, res.model_result.solution)
        check_value(out, res.slack, reference)
        separable = pt_min_eig(rho.matrix) >= 0.0
        out.extra["ppt_oracle_separable"] = separable
        if res.feasible != separable:
            out.errors.append(f"DPS verdict feasible={res.feasible} disagrees with the PPT oracle")
        return out

    return Instance(name, run)


def channel_instance() -> Instance:
    def run() -> Outcome:
        out = Outcome("channel-ppt-ns")
        res = quantum.channel_feasibility(4, 4, ppt_preserving_dims=(2, 2, 2, 2), nonsignaling_b_to_a_dims=(2, 2, 2, 2))
        check_solution(out, res["result"].compiled.problem, res["result"].solution)
        check_value(out, res["value"], CHANNEL_VALUE)
        return out

    return Instance("channel-ppt-ns", run)


def seesaw_instance(name: str, lower_fn, upper_fn, reference: float) -> Instance:
    """See-saw lower bound against the hierarchy upper bound (the pincer)."""

    def run() -> Outcome:
        out = Outcome(name)
        lower = lower_fn()
        upper = upper_fn()
        mr = upper.model_result
        check_solution(out, mr.compiled.problem, mr.solution)
        check_value(out, upper.value, reference)
        check_pincer(out, lower.value, upper.value)
        vals = np.asarray(lower.restart_values)
        out.extra.update(restarts=int(vals.size), restart_hits=int(np.sum(np.abs(vals - lower.value) <= 1e-6)))
        return out

    return Instance(name, run)


def chsh_bound():
    return npa.solve_bell(npa.Scenario.chsh(), 1, npa.chsh_functional())


def qrac_bound():
    return npa.mlp_bound(npa.Scenario.prepare_measure(4, 2), 2, npa.qrac_witness(2), level=2)


def make_npa(rng, smoke: bool) -> list[Instance]:
    if smoke:
        return [bell_instance("chsh-l1", npa.Scenario.chsh(), 1, npa.chsh_functional(), TSIRELSON)]
    scenario = npa.Scenario((3, 3), ((2, 2, 2), (2, 2, 2)))
    return [bell_instance("i3322-l3", scenario, 3, i3322_functional(rng), I3322_L3)]


def make_dps(rng, smoke: bool) -> list[Instance]:
    out = []
    for name, ref in DPS_K3_SLACK.items():
        rho = rotated_state(name, rng)
        if smoke:
            # k = 1 is the PPT test itself: the slack is the smaller of the two spectra's minima
            ref = min(float(np.linalg.eigvalsh(rho.matrix)[0]), pt_min_eig(rho.matrix))
            out.append(dps_instance(f"dps-k1-{name}", rho, 1, ref))
        else:
            out.append(dps_instance(f"dps-k3-{name}", rho, 3, ref))
    out.append(channel_instance())
    return out


def make_seesaw(rng, smoke: bool) -> list[Instance]:
    seed_chsh, seed_qrac = (int(s) for s in rng.integers(0, 2**31, size=2))
    restarts = 1 if smoke else 20
    out = [
        seesaw_instance(
            "chsh-pincer",
            lambda: seesaw_mod.chsh_seesaw(restarts=restarts, seed=seed_chsh),
            chsh_bound,
            TSIRELSON,
        )
    ]
    if not smoke:
        out.append(
            seesaw_instance(
                "qrac-pincer",
                lambda: seesaw_mod.qrac_seesaw(restarts=restarts, seed=seed_qrac),
                qrac_bound,
                QRAC_OPT,
            )
        )
    return out


WORKLOADS = {"npa-i3322-l3": make_npa, "dps-channel": make_dps, "seesaw-pincer": make_seesaw}


def make_instances(workload: str, seed: int, smoke: bool = False) -> list[Instance]:
    return WORKLOADS[workload](np.random.default_rng(seed), smoke)


def warm_up():
    """One small instance: pays the first-call costs a user pays once per process."""
    chsh_bound()
