"""Non-abelian holonomies of acceptor-bound hole states in p-type
semiconductors under adiabatically rotated electric fields.

The library builds the spin-3/2 Stark Hamiltonians of an acceptor-bound
hole, transports its Kramers doublets around closed electric-field loops
with a path-ordered integrator, cross-checks the transport against analytic
special cases and a time-dependent Schrodinger oracle, and synthesizes loop
sequences realizing target SU(2) gates.
"""

__version__ = "0.1.0"

from .algebra import (CliffordBasis, SpinOperators, acomm, default_basis, gamma_basis,
                      spin_matrices)
from .connection import connection_d, projectors, transport_exponents
from .dynamics import AdiabaticFidelity, Drive, adiabatic_fidelity, evolve
from .errors import (DegeneratePoint, HolostarkError, InvalidAngle, InvalidInput,
                     NonPositiveMagnitude, NotClosed, NotConstantMagnitude,
                     NotUnitary, UnknownMaterial)
from .holonomy import (FieldPath, Holonomy, basepoint_frames, eigenphase_distance,
                       eigenphases, half_spin_band, holonomy_fidelity,
                       linear_stark_holonomy, linear_triangle_holonomy,
                       make_latitude_loop, make_spherical_triangle, path_from_dict,
                       path_to_dict, sampled_path, wilson_loop, zee_holonomy)
from .stark import (FeasibilityReport, MaterialParams, builtin_materials, d_increment,
                    eigen_split, feasibility_report, hamiltonian, material_lookup,
                    material_table)
from .synth import LoopModel, SynthesisResult, loop_product, synthesize
