"""Run reports with the six standard DIMACS error measures.

The DIMACS measures, with |.|_2 the Euclidean, |.|_F the Frobenius norm and
|.|_inf the largest absolute entry:

    err1 = |A(X) - b|_2 / (1 + |b|_inf)
    err2 = max(0, -lambda_min(X)) / (1 + |b|_inf)
    err3 = |C - A*(y) - Z|_F / (1 + |C|_inf)
    err4 = max(0, -lambda_min(Z)) / (1 + |C|_inf)
    err5 = (<C, X> - b'y) / (1 + |<C, X>| + |b'y|)
    err6 = <X, Z> / (1 + |<C, X>| + |b'y|)

lambda_min runs over the SDP blocks and nonnegative entries (the cone part).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .blockmat import frobenius_inner
from .problem import ConeProblem, Solution, STATUS_LABELS


def dimacs_errors(p: ConeProblem, sol: Solution) -> list[float]:
    b_scale = 1.0 + (np.max(np.abs(p.rhs)) if p.rhs.size else 0.0)
    c_scale = 1.0 + p.c_obj.max_abs()
    x, y, z = sol.x_primal, sol.y_dual, sol.z_slack
    err1 = np.linalg.norm(p.apply(x) - p.rhs) / b_scale
    err2 = max(0.0, -x.min_cone_eig()) / b_scale
    err3 = (p.c_obj - p.adjoint(y) - z).norm() / c_scale
    err4 = max(0.0, -z.min_cone_eig()) / c_scale
    pobj = frobenius_inner(p.c_obj, x)
    dobj = float(p.rhs @ y)
    denom = 1.0 + abs(pobj) + abs(dobj)
    err5 = (pobj - dobj) / denom
    err6 = frobenius_inner(x, z) / denom
    return [float(e) for e in (err1, err2, err3, err4, err5, err6)]


@dataclass
class RunReport:
    """One subcommand's result.  The solver fields (values, gap, residuals,
    iterations, DIMACS errors, direction) are None, JSON null, when no
    solver certifies the result, as for the see-saw lower bound.
    ``symmetry`` is the solution's ``stats["symmetry"]`` (the relabelling
    group that tied the moments of a Bell solve), None elsewhere; the LMIs
    the moment matrix became are ``block_sizes``, and ``block_weights`` gives
    each block's multiplicity (the congruent copies it stands for)."""

    command: str
    status: int
    status_label: str
    block_sizes: list[int]
    m: int
    nonneg_dim: int
    free_dim: int
    wall_time: float
    primal_value: float | None = None
    dual_value: float | None = None
    gap: float | None = None
    primal_residual: float | None = None
    dual_residual: float | None = None
    iterations: int | None = None
    dimacs: list[float] | None = None
    direction: str | None = None
    seed: int | None = None
    result: dict = field(default_factory=dict)  # subcommand-specific payload
    symmetry: dict | None = None
    block_weights: list[int] = field(default_factory=list)
    version: int = 5

    @classmethod
    def from_solution(cls, command: str, p: ConeProblem, sol: Solution, seed=None, result=None) -> "RunReport":
        st = p.structure
        return cls(
            command=command,
            status=sol.status,
            status_label=STATUS_LABELS.get(sol.status, str(sol.status)),
            block_sizes=list(st.sdp_blocks),
            m=p.num_constraints,
            nonneg_dim=st.nonneg_dim,
            free_dim=st.free_dim,
            primal_value=sol.primal_value,
            dual_value=sol.dual_value,
            gap=sol.stats.get("gap", float("nan")),
            primal_residual=sol.stats.get("primal_residual", float("nan")),
            dual_residual=sol.stats.get("dual_residual", float("nan")),
            iterations=sol.stats.get("iterations", 0),
            wall_time=sol.stats.get("time", 0.0),
            dimacs=dimacs_errors(p, sol),
            direction=sol.stats.get("direction", "hkm"),
            seed=seed,
            result=result or {},
            symmetry=sol.stats.get("symmetry"),
            block_weights=list(st.multiplicities),
        )

    def to_json(self) -> str:
        def fix(v):
            if isinstance(v, float):
                return float(f"{v:.12e}")
            if isinstance(v, dict):
                return {k: fix(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [fix(x) for x in v]
            if isinstance(v, np.ndarray):
                return fix(v.tolist())
            if isinstance(v, (np.floating, np.integer)):
                return fix(float(v)) if isinstance(v, np.floating) else int(v)
            return v

        doc = {k: fix(v) for k, v in self.__dict__.items()}
        return json.dumps(doc, indent=1, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"command        : {self.command}",
            f"status         : {self.status} ({self.status_label})",
            f"blocks         : {self.block_sizes}  nonneg={self.nonneg_dim}  free={self.free_dim}"
            + (f"  weights={self.block_weights}" if any(w > 1 for w in self.block_weights) else ""),
            f"constraints m  : {self.m}",
        ]
        if self.dimacs is not None:
            lines += [
                f"primal value   : {self.primal_value:.9f}",
                f"dual value     : {self.dual_value:.9f}",
                f"gap            : {self.gap:.3e}",
                f"residuals      : primal {self.primal_residual:.3e}  dual {self.dual_residual:.3e}",
                f"iterations     : {self.iterations}   direction: {self.direction}",
                "DIMACS errors  : " + "  ".join(f"{e:.2e}" for e in self.dimacs),
            ]
        if self.symmetry is not None:
            sym = self.symmetry
            lines.append(
                f"symmetry       : order {sym['order']}, {sym['classes']} moments -> {sym['orbits']} orbits,"
                f" {sym['pinned']} pinned to 0"
            )
        lines.append(f"wall time      : {self.wall_time:.3f}s")
        for k, v in self.result.items():
            if isinstance(v, float):
                lines.append(f"{k:<15}: {v:.9f}")
            elif isinstance(v, (int, str, bool)):
                lines.append(f"{k:<15}: {v}")
        return "\n".join(lines)
