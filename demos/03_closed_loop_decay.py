"""Closed-loop energy decay across the three arithmetic classes.

Current feedback V = pdot(L)/(2h) damps the beam:

* mixed-parity speed ratio (1/2): clean exponential decay;
* odd/odd ratio (1/3) started in the paired two-mode state: no decay at all,
  the feedback literally cannot see the state;
* golden-ratio speeds: every state decays, but along the approximant states
  the fitted rate degrades toward zero - strong but not exponential.

Run:  python demos/03_closed_loop_decay.py       (a few seconds)
"""

from pathlib import Path

import numpy as np

from piezobeam import (
    BeamParameters,
    Grid,
    SimConfig,
    decay_rate,
    derive_constants,
    gaussian_velocity_state,
    grid_state_from_modal,
    near_unobservable_state,
    odd_odd_approximants,
    parameters_for_ratio,
    simulate,
)
from piezobeam.csvio import write_csv, write_svg

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

print("1) zeta2/zeta1 = 1/2, generic bump, T=40")
half = parameters_for_ratio(0.5)
traj = simulate(
    gaussian_velocity_state(Grid(512), center=0.5, width=0.08),
    half,
    SimConfig(mode="closed", T=40.0, energy_stride=4),
)
rate, r2 = decay_rate(traj.energy, traj.t)
print(f"   E(T)/E(0) = {traj.energy[-1] / traj.energy[0]:.2e}, rate {rate:.3f}, r2 {r2:.4f}")
write_csv(out / "decay_half.csv", ["time", "energy", "y"], columns=[traj.t, traj.energy, traj.y])
write_svg(out / "decay_half.svg", traj.t, np.log10(traj.energy), title="log10 energy, ratio 1/2")

print("\n2) zeta2/zeta1 = 1/3, paired invisible state, T=20")
third = parameters_for_ratio(1.0 / 3.0)
phi = near_unobservable_state(
    odd_odd_approximants(derive_constants(third).ratio, 1)[0], third
)
traj = simulate(
    grid_state_from_modal(phi, third, Grid(1024)),
    third,
    SimConfig(mode="closed", T=20.0, energy_stride=4),
)
drift = np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0]
print(f"   energy drift {drift:.2e}, max |y| = {np.max(np.abs(traj.y)):.2e}  (nothing to damp)")

print("\n3) golden-ratio speeds, approximant states, T=60")
golden = BeamParameters(1, 1, 1, 1, 1)
rows = []
for approx in odd_odd_approximants(derive_constants(golden).ratio, 3, qmax=100):
    state = grid_state_from_modal(near_unobservable_state(approx, golden), golden, Grid(1024))
    traj = simulate(state, golden, SimConfig(mode="closed", T=60.0, energy_stride=4))
    rate, _ = decay_rate(traj.energy, traj.t)
    rows.append((approx.p, approx.q, rate, traj.energy[-1] / traj.energy[0]))
    print(f"   state ({approx.p:>2d},{approx.q:>2d}): rate {rate:.3e},  E(T)/E(0) = {rows[-1][3]:.4f}")
write_csv(out / "decay_golden_states.csv", ["p", "q", "rate", "energy_fraction"], columns=zip(*rows))
print(
    "\nDecay degrades monotonically along the sequence: every trajectory decays,"
    "\nbut no uniform exponential rate exists."
)
