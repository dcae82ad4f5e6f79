"""Lower and upper bounds pinching the same quantum optimum.

Quantum state discrimination has an exact SDP (and the two-state Helstrom
formula as a check).  For the 2->1 random access code the see-saw iteration
gives lower bounds while the dimension-constrained hierarchies (pinned
success probabilities, and the randomized fixed-dimension basis) give upper
bounds; all meet at (1 + 1/sqrt(2))/2.  The demo exits non-zero when a
pincer is open: a bound more than 1e-6 from its optimum.
"""

import sys

import numpy as np

from qsdp import Scenario, mlp_bound, nv_build_basis, nv_solve, qsd_optimal
from qsdp.npa import qrac_nv_game, qrac_nv_task, qrac_witness
from qsdp.quantum import helstrom_bound, random_pure
from qsdp.seesaw import chsh_seesaw, qrac_seesaw

print("two-state discrimination vs the Helstrom formula:")
rng = np.random.default_rng(1)
for trial in range(3):
    r1, r2 = random_pure(rng, 2), random_pure(rng, 2)
    value, povm, _ = qsd_optimal([r1, r2])
    print(f"  pair {trial}: SDP {value:.7f}   Helstrom {helstrom_bound(r1, r2):.7f}")

target = (1 + 1 / np.sqrt(2)) / 2
print(f"\n2->1 random access code with a single qubit (optimum {target:.6f}):")

upper_mlp = mlp_bound(Scenario.prepare_measure(4, 2), d=2, witness=qrac_witness(2), level=2).value
print(f"  upper bound, pinned-probability hierarchy (level 2): {upper_mlp:.6f}")

task = qrac_nv_task(2, 2)
basis = nv_build_basis(task, seed=11)
upper_nv, _, _ = nv_solve(basis, qrac_nv_game(task, 2))
print(f"  upper bound, randomized basis ({len(basis)} moment matrices): {upper_nv:.6f}")

lower = qrac_seesaw(restarts=8, seed=2)
print(f"  lower bound, see-saw over 8 restarts: {lower.value:.6f}")
print(f"  trajectory of the best restart: {[round(v, 5) for v in lower.trajectory]}")

print("\nCHSH see-saw against the level-1 moment bound:")
out = chsh_seesaw(restarts=6, seed=3)
print(f"  lower bound {out.value:.7f}   vs   2 sqrt(2) = {2 * np.sqrt(2):.7f}")

gaps = {
    "QRAC pinned-probability upper bound": upper_mlp - target,
    "QRAC randomized-basis upper bound": upper_nv - target,
    "QRAC see-saw lower bound": lower.value - target,
    "CHSH see-saw lower bound": out.value - 2 * np.sqrt(2),
}
open_pincers = {name: gap for name, gap in gaps.items() if abs(gap) > 1e-6}
for name, gap in open_pincers.items():
    print(f"OPEN: {name} is {gap:+.2e} from the optimum", file=sys.stderr)
sys.exit(1 if open_pincers else 0)
