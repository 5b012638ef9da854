"""Path-ordered transport around closed field loops, checked against the
analytic special cases.

Rotating the electric field around a closed loop leaves each Kramers
doublet where it started but applies a unitary to it -- the holonomy.  The
numeric pipeline multiplies the exact rotors that carry the band
projector from one path point to the next; two analytic constructions
cover special cases and must agree with it.
"""

import numpy as np

from holostark import (eigenphase_distance, eigenphases, half_spin_band,
                       linear_stark_holonomy, make_latitude_loop,
                       make_spherical_triangle, material_lookup, wilson_loop,
                       zee_holonomy)

ge = material_lookup("Ge", "B")
ge_iso = ge.spherical()  # beta = delta/sqrt(3): isotropic quadratic model

octant = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6)

print("Octant triangle (pole -> equator -> quarter turn -> pole)")
hol = wilson_loop(octant, "quadratic", ge_iso, steps=20000)
band = half_spin_band(ge_iso)
print(f"  4x4 unitarity defect: {hol.unitarity_defect:.2e}")
print(f"  {band}-band block eigenphases: {eigenphases(hol.block(band))}")
print(f"  closed-form triangle product:  {eigenphases(zee_holonomy(np.pi/2, np.pi/2))}")
other = "plus" if band == "minus" else "minus"
print(f"  {other}-band block eigenphases: {eigenphases(hol.block(other))} "
      "(solid-angle phases 3*Omega/2 of the spin-3/2 doublet)")

print("\nAgreement across random triangles (quadratic isotropic model)")
rng = np.random.default_rng(1)
for _ in range(3):
    theta, phi = rng.uniform(0.2, 1.4), rng.uniform(-np.pi, np.pi)
    path = make_spherical_triangle(theta, phi, 1e6)
    hol = wilson_loop(path, "quadratic", ge_iso, steps=20000)
    dist = eigenphase_distance(zee_holonomy(theta, phi), hol.block(band))
    print(f"  theta={theta:.3f} phi={phi:+.3f}: eigenphase distance {dist:.2e}")

print("\nLinear regime: 2x2 ordered-product oracle vs the 4x4 pipeline")
for _ in range(3):
    theta, phi = rng.uniform(0.2, 1.4), rng.uniform(0.2, np.pi)
    path = make_spherical_triangle(theta, phi, 1e6)
    oracle = linear_stark_holonomy(path, steps=20000)
    hol = wilson_loop(path, "linear", ge, steps=20000)
    dist = eigenphase_distance(oracle, hol.block_plus)
    print(f"  theta={theta:.3f} phi={phi:+.3f}: eigenphase distance {dist:.2e}")

print("\nEquatorial loop in the linear regime: holonomy = -identity")
equator = make_latitude_loop(np.pi / 2, 1e6)
u = linear_stark_holonomy(equator, steps=20000)
print(f"  max |u + I| = {np.abs(u + np.eye(2)).max():.2e} "
      "(solid angle 2*pi, phases +/-pi)")

print("\nSecond-order convergence under step refinement")
path = make_spherical_triangle(0.9, 1.3, 1e6)
fulls = {n: wilson_loop(path, "quadratic", ge_iso, steps=n).full
         for n in (1000, 2000, 4000, 8000)}
for n in (1000, 2000, 4000):
    d = np.abs(fulls[n] - fulls[2 * n]).max()
    print(f"  steps {n:>5} -> {2*n:>5}: refinement defect {d:.3e}")
print("  (each halving of the step size divides the defect by ~4)")
