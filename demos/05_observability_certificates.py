"""Observability certificates and counterexamples.

For mixed-parity rational speed ratios the eigenfrequencies keep a uniform
gap and nonharmonic Fourier frame bounds certify exact observability beyond
an explicit time.  For irrational ratios, odd/odd approximants build
two-mode states of constant norm whose output energy vanishes like q^-2:
the quantitative failure of observability.

Run:  python demos/05_observability_certificates.py
"""

from pathlib import Path

import numpy as np

from piezobeam import (
    BeamParameters,
    derive_constants,
    exponent_family,
    ingham_frame_bounds,
    ingham_gap,
    near_unobservable_state,
    observability_quotient,
    odd_odd_approximants,
    parameters_for_ratio,
    quotient_bound,
)
from piezobeam.csvio import write_csv

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

golden = BeamParameters(1, 1, 1, 1, 1)
dc = derive_constants(golden)
T = 10.0

print(f"Odd/odd approximants of zeta2/zeta1 = {dc.ratio:.10f}:")
rows = []
for a in odd_odd_approximants(dc.ratio, 5, qmax=2000):
    state = near_unobservable_state(a, golden)
    quotient = observability_quotient(state, golden, T)
    bound = quotient_bound(a, golden, T)
    rows.append((a.p, a.q, a.err, a.cq2, quotient, bound))
    print(
        f"   {a.p:>4d}/{a.q:<4d}  err {a.err:.3e}  err*q^2 {a.cq2:.4f}  "
        f"quotient {quotient:.3e}  (bound {bound:.3e})"
    )
write_csv(
    out / "observability_quotients.csv",
    ["p", "q", "err", "cq2", "quotient", "bound"],
    columns=zip(*rows),
)
qs = np.log([r[1] for r in rows])
slope = np.polyfit(qs, np.log([r[4] for r in rows]), 1)[0]
print(f"   log-log slope {slope:.2f}: output energy collapses ~ q^-2 at constant state norm")

print("\nMixed parity instead (zeta2/zeta1 = 1/2):")
half = parameters_for_ratio(0.5)
gap, tmin = ingham_gap(half, 1, 2)
print(f"   uniform frequency gap {gap:.4f}, critical window T > {tmin:.4f}")
T_obs = 1.2 * tmin
frame_rows = []
for J in (5, 10, 15, 20):
    fb = ingham_frame_bounds(exponent_family(half, J), T_obs)
    frame_rows.append((J, fb.cmin, fb.cmax))
    print(f"   J={J:>2d}: exact frame bounds [{fb.cmin:.3f}, {fb.cmax:.3f}]")
write_csv(out / "frame_bounds.csv", ["J", "cmin", "cmax"], columns=zip(*frame_rows))

collided = exponent_family(half, 20)
collided[-1] = collided[-2]
fb = ingham_frame_bounds(collided, T_obs)
print(f"\nForcing two frequencies to coincide collapses the floor: cmin = {fb.cmin:.1e}")
print("That coincidence is exactly what an odd/odd speed ratio produces physically.")
