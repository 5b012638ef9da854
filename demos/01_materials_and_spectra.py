"""Stark spectra of acceptor-bound holes: materials, level splittings,
and the experimental feasibility budget.

The hole bound to an acceptor (B, Al, Ga) in Ge or Si is a spin-3/2 object.
An electric field splits its four levels into two Kramers doublets; the
whole Hamiltonian is encoded by six numbers (d0, d1..d5) with levels at
d0 +/- |d|.
"""

import numpy as np

from holostark import builtin_materials, eigen_split, feasibility_report
from holostark.stark import d_components

print("Built-in material constants")
print(f"{'material':>9} {'dopant':>6} {'alpha':>6} {'beta':>6} {'delta':>6} "
      f"{'chi':>8} {'rbar(A)':>8} {'ionization(meV)':>16}")
for m in builtin_materials():
    print(f"{m.name:>9} {m.dopant:>6} {m.alpha:>6} {m.beta:>6} {m.delta:>6} "
          f"{m.chi:>8} {m.rbar_angstrom:>8} {m.ionization_meV:>16}")

ge = next(m for m in builtin_materials() if (m.name, m.dopant) == ("Ge", "B"))

print("\nQuadratic regime, Ge:B at |E| = 1e6 V/m")
for label, e in [("E || z", [0, 0, 1e6]),
                 ("E || (110)", np.array([1, 1, 0]) * 1e6 / np.sqrt(2)),
                 ("E || (111)", np.array([1, 1, 1]) * 1e6 / np.sqrt(3))]:
    eps_minus, eps_plus, gap = eigen_split(d_components(e, ge, "quadratic"))
    print(f"  {label:<12} levels ({eps_minus:+.4f}, {eps_plus:+.4f}) meV, "
          f"gap {gap:.4f} meV")
print("  -> the quadratic splitting depends on the field direction")

print("\nLinear regime, Ge:B at |E| = 1e5 V/m")
for label, e in [("E || x", [1e5, 0, 0]),
                 ("E || (111)", np.array([1, 1, 1]) * 1e5 / np.sqrt(3))]:
    gap = eigen_split(d_components(e, ge, "linear"))[2]
    print(f"  {label:<12} gap {gap:.6e} meV")
print("  -> the linear splitting is independent of the field direction")

print("\nFeasibility at 1e6 V/m, field rotated at 2020 Hz (NQR-style rate)")
rep = feasibility_report(1e6, ge, 2020.0, regime="quadratic")
print(f"  gap over directions: {rep.gap_min_meV:.3f} .. {rep.gap_max_meV:.3f} meV")
print(f"  drive quantum h*f:   {rep.drive_quantum_meV:.3e} meV")
print(f"  adiabaticity ratio:  {rep.adiabaticity_ratio:.3e}")
print(f"  ionization margin:   {rep.ionization_margin_meV:.3f} meV")
print(f"  flags: {rep.flags or 'none'}")
