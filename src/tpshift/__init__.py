"""Shift-invariant spaces over totally positive Gaussian-type generators.

Numerical toolbox for generators whose Fourier transform is a Gaussian
divided by finitely many first-order factors: evaluation of the generator
and of finite shift combinations, real zero sets and their interlacing under
the first-order reduction operator, finite-radius Beurling and circular
density estimates, zero counting for the entire extension in the Gaussian
case, and recovery of a function from the absolute values of its samples up
to a global sign.
"""

__version__ = "0.1.0"

from .errors import (ChainViolationError, IdenticallyZeroError, MagnitudeFloorError,
                     NumericalError, OrderDetectionError, PhaseTrackingError,
                     QuadratureError, RankDeficiencyError, SearchBudgetError,
                     VerificationError)
from .generator import (GeneratorParams, TimeDomainTable, build_table, decay_radius,
                        ft_eval, log_envelope, reduce, table_half_width, time_eval)
from .sispace import (CoeffSeq, InterlaceReport, PointSet, SegmentReport,
                      SISFunction, apply_rolle_op, check_interlacing, eval_deriv,
                      eval_f, find_zeros, segment_inequality)
from .density import (DensityProfile, RelationReport, SubadditivityReport,
                      beurling_lower_profile, check_lemma1, circ_density_direct,
                      circ_density_lattice, circ_inner_integral,
                      circ_subadditivity, pair_moduli, union_points)
from .jensen import (BaseCaseReport, DiskZeroCount, JensenContext, build_context,
                     count_zeros_disk, fit_growth_constant, jensen_lhs,
                     jensen_rhs, log_abs_f_complex, safe_radius,
                     verify_base_case)
from .sigret import (ExperimentConfig, ExperimentReport, MagnitudeSample,
                     RetrievalResult, SignPattern, brute_force_signs,
                     design_matrix, fit_coeffs, run_threshold_experiment,
                     sample_magnitudes, solve_signs)

__all__ = [name for name in dir() if not name.startswith("_")]
