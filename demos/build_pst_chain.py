"""Build a transfer chain and watch the excitation arrive.

Constructs the q-Krawtchouk chain at the transfer point p = q**-N,
prints its couplings and spectrum, then evaluates the endpoint
correlation at T = Q**N * pi through the exact phase route.
"""

from qchain import (
    RationalQ,
    analytic_decomposition,
    correlation_exact_phase,
    families,
    pst_time,
)

q = RationalQ(3, 5)
N = 4
spec = families.pst_spec(q, N)
print(f"spec: {spec.describe()}")

data = families.orthogonality_data(spec)
built = data.chain
for n, J in enumerate(built.couplings):
    print(f"  J[{n}] = {J:.12f}")
for n, h in enumerate(built.fields):
    print(f"  h[{n}] = {h:.12f}")

dec = analytic_decomposition(data)
print("eigenvalues:", ", ".join(str(e) for e in dec.exact_eigenvalues))

t = pst_time(q, N)
print(f"transfer time T = {t}")
for site in range(N + 1):
    amp = correlation_exact_phase(dec, site, 0, t)
    print(f"  |f_{site}0(T)| = {amp.magnitude:.15f}")
