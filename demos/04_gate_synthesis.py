"""Synthesizing SU(2) gates from sequences of field triangles.

Each spherical triangle (theta, phi) applies a holonomy to the qubit
doublet; concatenating loops multiplies them.  A coarse grid of loop
sequences seeds Levenberg-Marquardt refinements, which find sequences
realizing a requested gate up to global phase.
"""

import numpy as np

from holostark import LoopModel, loop_product, synthesize, zee_holonomy

model = LoopModel("spherical_quadratic")

print("Round trip: recover a loop-generated gate with a single triangle")
theta0, phi0 = 0.85, 1.55
target = zee_holonomy(theta0, phi0)
result = synthesize(target, model=model, max_loops=1, tol=1e-6, seed=7)
(theta, phi), = result.loops
print(f"  generated at (theta, phi) = ({theta0:.4f}, {phi0:.4f})")
print(f"  recovered   (theta, phi) = ({theta:.4f}, {phi:.4f})")
print(f"  infidelity {max(0.0, 1 - result.fidelity):.2e} "
      f"in {result.evaluations} evaluations")

print("\nHadamard-like gate from three loops")
hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
result = synthesize(hadamard, model=model, max_loops=3, tol=1e-3, seed=3)
print(f"  converged: {result.converged}, fidelity {result.fidelity:.6f}")
for k, (t, p) in enumerate(result.loops, 1):
    print(f"  loop {k}: theta = {t:.4f}, phi = {p:+.4f}")
achieved = loop_product(result.loops, model)
print("  achieved matrix (up to global phase):")
print(np.array2string(achieved, precision=4, suppress_small=True))

print("\nA random SU(2) target")
rng = np.random.default_rng(11)
z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
q, r = np.linalg.qr(z)
target = q * (np.diag(r) / np.abs(np.diag(r)))
result = synthesize(target, model=model, max_loops=3, tol=1e-3, seed=5)
print(f"  converged: {result.converged}, fidelity {result.fidelity:.6f}, "
      f"{result.evaluations} evaluations")
