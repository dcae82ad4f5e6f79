"""The I3322 inequality at NPA level 4, end to end.

The (3,3) binary scenario at level 4 has a 244 x 244 moment matrix with 4492
distinct moments.  Its upper bound on I3322 (Collins-Gisin form, written
through joint probabilities) is 0.2508753748 (Pal & Vertesi, PRA 82, 022116,
2010), a little below level 3 (0.25087556).

`solve_bell` builds the SDP in the +-1 observable basis and ties each moment
to its orbit under the relabellings that fix the functional.  Here they form
a group of order 8: every element but the identity flips outcomes, most
also permute settings, and half swap the parties.  That leaves 593 unknowns
in place of 4491.  The same group (the dihedral group D4: four irreps of
dimension 1, one of dimension 2) splits the tied moment matrix into
symmetry-adapted blocks, one per copy of each irrep: 244 = 26 + 30 + 31 +
35 + 61 + 61.  The two 61-blocks, the copies of the 2-dimensional irrep,
hold one matrix up to a rotation, so they are one block of multiplicity 2,
which the solver's barrier counts twice: it factors five small matrices in
place of one 244 x 244.  The moment matrix it reports is the
projector-basis one, lifted from the tied solution.

The script exits non-zero when the solve does not succeed, when a DIMACS
error exceeds 1e-6, when the value is off by more than 1e-7, when the
lifted moment matrix has an eigenvalue below -1e-8, or when the peak
resident memory of the process exceeds 1 GiB.
"""

import resource
import sys
import time

import numpy as np

from qsdp import Scenario, build_moment_model, solve_bell
from qsdp.report import dimacs_errors

REFERENCE = 0.2508753748
LEVEL3 = 0.25087556
GIB = 2**30


def i3322() -> dict:
    """-P_A(0|0) - 2 P_B(0|0) - P_B(0|1) + sum_xy J_xy P(00|xy), each
    marginal expanded over the other party's first setting."""
    joint = [[1, 1, 1], [1, 1, -1], [1, -1, 0]]
    bell = {(0, 0, x, y): float(joint[x][y]) for x in range(3) for y in range(3) if joint[x][y]}
    for b in range(2):
        bell[(0, b, 0, 0)] = bell.get((0, b, 0, 0), 0.0) - 1.0
    for a in range(2):
        bell[(a, 0, 0, 0)] = bell.get((a, 0, 0, 0), 0.0) - 2.0
        bell[(a, 0, 0, 1)] = bell.get((a, 0, 0, 1), 0.0) - 1.0
    return bell


scenario = Scenario((3, 3), ((2, 2, 2), (2, 2, 2)))
mm = build_moment_model(scenario, 4)
print(f"level 4: moment matrix {mm.size} x {mm.size}, {mm.num_unknowns} unknowns")

start = time.perf_counter()
res = solve_bell(scenario, 4, i3322())
wall = time.perf_counter() - start
sol = res.model_result.solution
dimacs = dimacs_errors(res.model_result.compiled.problem, sol)
sym = sol.stats["symmetry"]
structure = res.model_result.compiled.problem.structure
min_eig = float(np.linalg.eigvalsh(res.gamma)[0])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # ru_maxrss is in KiB on Linux

print(f"value       {res.value:.10f}   (reference {REFERENCE}, level 3 {LEVEL3})")
print(f"status      {sol.status} ({sol.status_label}), {sol.stats.get('iterations')} IPM iterations")
print(f"DIMACS      " + "  ".join(f"{e:.1e}" for e in dimacs))
print(
    f"symmetry    group of order {sym['order']}: {sym['classes']} moments -> {sym['orbits']} orbits,"
    f" {sym['pinned']} pinned to 0, blocks {list(structure.sdp_blocks)}"
    f" of multiplicities {list(structure.multiplicities)}"
)
print(f"min eig     {min_eig:.1e}   (lifted projector-basis moment matrix)")
print(f"wall time   {wall:.1f} s")
print(f"peak RSS    {peak / 2**20:.0f} MiB")

failures = []
if sol.status != 0:
    failures.append(f"status {sol.status}")
if max(abs(e) for e in dimacs) > 1e-6:
    failures.append("a DIMACS error exceeds 1e-6")
if abs(res.value - REFERENCE) > 1e-7:
    failures.append(f"value {res.value:.10f} is more than 1e-7 from {REFERENCE}")
if min_eig < -1e-8:
    failures.append(f"the moment matrix has eigenvalue {min_eig:.1e} below -1e-8")
if peak > GIB:
    failures.append(f"peak RSS {peak / 2**20:.0f} MiB exceeds 1 GiB")
if failures:
    sys.exit("I3322 level 4 failed: " + "; ".join(failures))
