"""blochsteer: reverse-engineered control of non-Markovian Bloch dynamics.

Given a designed trajectory of a (generalized) Bloch vector, solve the
time-convolutionless master equation backwards for the coherent and
incoherent control schedules that realize it exactly, and verify by
forward simulation in two independent representations.
"""

from .controls import (ControlSchedule, ControlSolution, ControlSystem,
                       assemble_control_system, markovian_reduction_check,
                       schedule_from_trajectory, solve_controls,
                       two_level_controls, two_level_controls_detuning)
from .environment import (LorentzianEnvironment, correlation_kernel, decay_and_shift,
                          decay_shift_derivatives, find_gamma_negmax, find_gamma_zero,
                          propagator_u, tune_detuning_for_lamb_zero)
from .liouvillian import (HamiltonianSpec, LindbladChannel, LiouvillianComponents,
                          assemble_components, coherent_part, components_from_kron,
                          incoherent_part, inhomogeneous_part, kron_liouvillian)
from .simulator import (SimulationRun, adiabatic_reference_run, fidelity,
                        fidelity_bloch, integrate_bloch, integrate_density,
                        lab_field_from_effective, renormalized_field)
from .sun_algebra import (GeneratorBasis, StructureTensors, bloch_to_density,
                          build_basis, density_to_bloch, structure_constants)
from .trajectories import (BOUNDARY_TABLE, ControllabilityReport, TrajectorySpec,
                           controllability_check, mixed_inversion_trajectory,
                           pure_inversion, pure_inversion_trajectory,
                           reference_ramp, steady_state_bloch, tracking_trajectory)

__version__ = "0.1.0"
