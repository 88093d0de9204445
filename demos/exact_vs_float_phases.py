"""Why the phases are rational: transfer at t = 3**20 * pi.

The transfer time grows like Q**N, so a float phase t * eps loses all
precision long before the largest sizes.  The float route refuses such
times; the exact route reduces t * eps mod 2 in integer arithmetic and
keeps the endpoint magnitude at 1 to machine precision.
"""

from qchain import (
    RationalQ,
    TimeBoundExceededError,
    analytic_decomposition,
    correlation,
    correlation_exact_phase,
    families,
    pst_time,
)

q = RationalQ(3, 1)
N = 20
spec = families.pst_spec(q, N)
t = pst_time(q, N)
print(f"spec: {spec.describe()}")
print(f"T = {t} = {t.to_float():.6e}")

dec = analytic_decomposition(families.orthogonality_data(spec))
try:
    correlation(dec, N, 0, t.to_float())
except TimeBoundExceededError as err:
    print(f"float route: {err}")

amp = correlation_exact_phase(dec, N, 0, t)
print(f"exact route: |f_N0(T)| = {amp.magnitude:.15f}")

doubled = correlation_exact_phase(dec, 0, 0, t.doubled())
print(f"exact route: f_00(2T) = {doubled.re:.15f} (period check)")
