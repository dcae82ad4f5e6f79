"""Entanglement detection for the Werner family with symmetric extensions.

A state admitting no PPT symmetric extension is entangled.  For two-qubit
Werner states the exact boundary is p = 1/3, which the level-1 test (the
PPT criterion) already finds; the optimal slack reproduces the smallest
eigenvalue of the partial transpose.
"""

import sys

import numpy as np

from qsdp import dps_test, werner_state
from qsdp.modeling import partial_trace, partial_transpose
from qsdp.quantum import swap_operator

print(" p      slack (SDP)   min eig of rho^T_B   verdict")
for p in (0.0, 0.1, 0.25, 1 / 3, 0.4, 0.5, 0.7, 0.9):
    rho = werner_state(p)
    res = dps_test(rho, (2, 2), k=1, ppt=True)
    pt_eig = np.linalg.eigvalsh(partial_transpose(rho.matrix, (2, 2), [1]))[0].real
    verdict = "separable-compatible" if res.feasible else "entangled"
    print(f" {p:.3f}  {res.slack:+.6f}     {pt_eig:+.6f}            {verdict}")

print("\nlevel-2 extension for a separable point (p = 0.25):")
res2 = dps_test(werner_state(0.25), (2, 2), k=2, ppt=True)
print(f"  feasible: {res2.feasible}, slack = {res2.slack:.6f}")
ext = res2.extension
swap = swap_operator((2, 2, 2), 1, 2)
swap_dev = np.max(np.abs(swap @ ext @ swap.T - ext))
trace_dev = np.max(np.abs(partial_trace(ext, (2, 2, 2), keep=[0, 1]) - werner_state(0.25).matrix))
print(f"  the 8x8 extension changes by {swap_dev:.1e} under swapping the two B copies")
print(f"  and its partial trace over the second copy differs from rho by {trace_dev:.1e}")
if max(swap_dev, trace_dev) > 1e-6:
    sys.exit("the level-2 extension is not swap-symmetric or does not trace back to rho")

print("\nan infeasible point returns a dual witness (p = 0.5):")
res3 = dps_test(werner_state(0.5), (2, 2), k=1, ppt=True)
print(f"  feasible: {res3.feasible}, slack = {res3.slack:.6f} (= (1 - 3p)/4 = {(1 - 1.5) / 4:.6f})")
