"""Boundary transfer function: closed form, oracle solve, damped loop.

G(s) maps electrode voltage to electrode current.  Its closed form is a
two-term tanh expression; an independent finite-difference boundary-value
solve confirms it.  The damped loop's input-output map is the Cayley
transform (1 - G/2)/(1 + G/2), which stays in the unit disk on the whole
right half-plane - even next to the imaginary-axis poles of G.

Run:  python demos/04_transfer_function.py
"""

from pathlib import Path

import numpy as np

from piezobeam import (
    BeamParameters,
    boundedness_scan,
    damped_trace_gain,
    transfer_bvp,
    transfer_closed,
    transfer_damped,
    transfer_damped_bvp,
)
from piezobeam.csvio import write_csv, write_svg

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

params = BeamParameters(1, 1, 1, 1, 1)

print("Closed form vs direct boundary-value solve:")
for s in (0.5, 1.0, 2.0, 1.0 + 4.0j):
    closed = transfer_closed(s, params)
    oracle = transfer_bvp(s, params, 2048)
    print(f"   s={s}:  closed {closed:.8f}   oracle {oracle:.8f}   gap {abs(closed - oracle):.1e}")

print(f"\nLimits: G(0) = {transfer_closed(0.0, params):.1f},  "
      f"G(s->inf) -> {transfer_closed(60.0, params).real:.7f} (= 3/sqrt(5))")

scan = boundedness_scan(1.0, 100.0, 2001, params)
print(f"\nOn the line Re s = 1: sup |G| = {scan.sup:.4f} at {scan.argmax:.3f} "
      f"(analytic bound {scan.bound:.4f})")

ims = np.linspace(-30.0, 30.0, 1201)
g = transfer_closed(1.0 + 1j * ims, params)
write_csv(out / "transfer_line.csv", ["re_s", "im_s", "re_G", "im_G", "abs_G"],
          columns=[np.ones_like(ims), ims, g.real, g.imag, np.abs(g)])
write_svg(out / "transfer_line.svg", ims, np.abs(g), title="|G(1+i w)|")
print(f"Wrote the line scan to {out / 'transfer_line.csv'}")

print("\nDamped loop:")
print(f"   G_d(0) = {transfer_damped(0.0, params):.3f}  (static input passes straight through)")
print(f"   G_d(s->inf) -> {transfer_damped(60.0, params).real:.6f}")
print(f"   input-to-current gain at large s: {damped_trace_gain(60.0, params).real:.6f}")
s_near_pole = 0.001 + 1j * np.pi / (2.0 * 0.6180339887498949)
g = transfer_closed(s_near_pole, params)
print(f"   next to a pole (|G| = {abs(g):.1f}):  |G_d| = {abs(transfer_damped(s_near_pole, params)):.6f} <= 1")
print(f"   damped boundary-value cross-check at s=1: "
      f"{transfer_damped_bvp(1.0, params, 2048):.8f} vs {transfer_damped(1.0, params):.8f}")
