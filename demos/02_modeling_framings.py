"""Build a complex-variable model symbolically and compare compilations.

A 3x3 Hermitian density matrix S maximizing Tr(X S) is lowered to a real
SDP of twice the size.  The same model compiles to visibly different
canonical problems in the dual and the primal framing, and the dual one
loses its free variable (the equality) to the solver's presolve; every
route returns the same optimum: the largest eigenvalue of X.
"""

import numpy as np

from qsdp import Model
from qsdp.ipm import split_free

rng = np.random.default_rng(7)
g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
x_data = (g + g.conj().T) / 2
print("Data matrix X: random Hermitian 3x3 with eigenvalues")
print(" ", np.round(np.linalg.eigvalsh(x_data), 5))


def build():
    m = Model()
    s = m.declare(3, structure="hermitian", field="complex", name="S")
    m.add_lmi(s.expr())  # S >= 0
    m.add_equality(s.trace(), 1.0)  # Tr S = 1
    m.maximize(s.expr().frobenius_with(x_data))
    return m


print("\ncompilation routes:")
for framing in ("dual", "primal"):
    compiled = build().compile(framing=framing)
    st = compiled.problem.structure
    res = compiled.solve()
    print(
        f"  {framing:<6}: blocks={list(st.sdp_blocks)}  m={compiled.problem.num_constraints}"
        f"  nonneg={st.nonneg_dim}  free={st.free_dim}  ->  value {res.value:.9f}"
    )

# the dual framing keeps Tr S = 1 as a free variable; the solver eliminates
# it before its first iteration, and this is the problem it then solves
q = split_free(build().compile().problem).problem
print(f"  dual after split_free: blocks={list(q.structure.sdp_blocks)}  m={q.num_constraints}  free={q.structure.free_dim}")
print(f"\neigenvalue oracle: {np.linalg.eigvalsh(x_data)[-1]:.9f}")

res = build().solve(framing="primal")
s_opt = res.values["S"]
print("\nrecovered S from the primal framing:")
print("  Hermitian deviation:", np.max(np.abs(s_opt - s_opt.conj().T)))
print("  trace:", np.trace(s_opt).real)
print("  eigenvalues:", np.round(np.linalg.eigvalsh(s_opt), 6))
