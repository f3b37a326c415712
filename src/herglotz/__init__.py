"""Numerics for Herglotz-Nevanlinna integral representations.

Evaluate Cauchy-type transforms of complex boundary measures, recover measures
from holomorphic functions by tangential boundary limits, compute
distributional boundary values, transport measures under fractional-linear
maps, and check the circle/line compatibility identities.
"""
from .sphere import (SpherePoint, INFINITY, MobiusMatrix, mobius_apply,
                     cayley_to_disc, cayley_to_halfplane, disc_rotation_matrix)
from .measures import (Atom, DensityPart, TestFunction, BoundaryMeasure,
                       integrate, conjugate, total_variation,
                       pushforward_mobius, table_density,
                       measure_to_json, measure_from_json)
from .catalog import (AnalyticFunction, CatalogSpec, catalog_build,
                      principal_log, principal_power, cauchy_kernel,
                      cauchy_eval, invert_variable, star_reflect,
                      boundary_atoms_in_window)
from .extrapolation import LimitSchedule, ExtrapolatedLimit
from .extraction import (extract_functional, density_at, density_grid,
                         atomic_mass_at, atomic_mass_at_infinity,
                         vladimirov_norm, simple_scan)
from .boundary_limits import (normalized_antiderivative,
                              c02_from_callables, boundary_functional,
                              phi_profile, PhiProfile, pair_with_phi,
                              boundary_limit_order_m)
from .circle_line import (RadiusSchedule, to_disc, circle_measure_functional,
                          circle_limit, GapReport, consistency_gap,
                          inversion_duality_gap, joined_distribution_check)
from .reconstruction import (ReconstructionSpec, ReconstructionResult,
                             reconstruct, resynthesis_residual,
                             tan_sigma_log_masses)
from .errors import (HerglotzError, DomainError, NonSimpleBehaviorError,
                     NonConvergentLimitError, SpecError)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
