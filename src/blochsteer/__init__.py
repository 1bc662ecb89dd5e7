"""blochsteer: reverse-engineered control of non-Markovian Bloch dynamics.

Given a designed trajectory of a (generalized) Bloch vector, solve the
time-convolutionless master equation backwards for the coherent and
incoherent control schedules that realize it exactly, and verify by
forward simulation in two independent representations.
"""

from .controls import (ControllabilityReport, ControlSchedule, ControlSolution, ControlSystem,
                       assemble_control_system, controllability_check,
                       markovian_reduction_check, schedule_from_trajectory, solve_controls,
                       two_level_controls)
from .environment import (LorentzianEnvironment, decay_and_shift, decay_shift_derivatives,
                          find_gamma_negmax, find_gamma_zero, propagator_u,
                          tune_detuning_for_lamb_zero)
from .liouvillian import (HamiltonianSpec, LindbladChannel, LiouvillianComponents,
                          assemble_components, components_from_kron, kron_liouvillian)
from .simulator import (SimulationRun, fidelity_bloch, integrate_bloch, integrate_density,
                        lab_field_from_effective, renormalized_field, reservoir_table)
from .sun_algebra import (GeneratorBasis, StructureTensors, bloch_to_density,
                          build_basis, density_to_bloch, structure_constants)
from .trajectories import (BOUNDARY_TABLE, TrajectorySpec, mixed_inversion_trajectory,
                           pure_inversion, reference_ramp, tracking_trajectory)

__version__ = "0.1.0"
