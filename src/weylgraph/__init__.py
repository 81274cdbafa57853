"""Discrete shift/clock covariance on a doubled space: entangled bases, the
induced group action, covariant resolutions of identity, the operator graphs
they generate, and entangled-code anticliques, with residual-based numerical
verification of every structural identity.
"""

from .linalg import (DEFAULT_TOL, BlockOperators, DegenerateClusteringError, OperatorSubspace,
                     SpectralDecomposition, SubspaceComparison, dft_unitary,
                     span_operators, spectral_projections, subspace_equal,
                     tensor_product)
from .weylrep import (EntangledBasis, GroupAction, element_unitaries,
                      entangled_basis, rep_generators, shift_clock,
                      verify_representation)
from .covariant import (CovariantResolution, FixedPointUnits,
                        covariant_resolution, expectation_avg,
                        expectation_trace, fixed_units, q_projection,
                        verify_theorem1)
from .graphs import (AnticliqueReport, OperatorGraph, Prop1Scan,
                     anticlique_projector, check_knill_laflamme, graph_orbit,
                     h_generators, kl_suite_extremes, proposition1_scan,
                     verify_theorem2, y_units, z_generators)
from .results import CheckResult, Discrepancy, GraphAudit, VerificationReport
from .report import run_verification
from .serialize import (CANONICAL_CHECK_ORDER, dumps, matrix_to_obj,
                        obj_to_matrix, report_to_obj)

__version__ = '0.1.0'

__all__ = [
    'DEFAULT_TOL', 'BlockOperators', 'DegenerateClusteringError', 'OperatorSubspace',
    'SpectralDecomposition', 'SubspaceComparison', 'dft_unitary',
    'span_operators', 'spectral_projections', 'subspace_equal',
    'tensor_product',
    'EntangledBasis', 'GroupAction', 'element_unitaries', 'entangled_basis',
    'rep_generators', 'shift_clock', 'verify_representation',
    'CovariantResolution', 'FixedPointUnits', 'covariant_resolution',
    'expectation_avg', 'expectation_trace', 'fixed_units', 'q_projection',
    'verify_theorem1',
    'AnticliqueReport', 'OperatorGraph', 'Prop1Scan', 'anticlique_projector',
    'check_knill_laflamme', 'graph_orbit', 'h_generators', 'kl_suite_extremes',
    'proposition1_scan', 'verify_theorem2', 'y_units', 'z_generators',
    'CheckResult', 'Discrepancy', 'GraphAudit', 'VerificationReport',
    'run_verification',
    'CANONICAL_CHECK_ORDER', 'dumps', 'matrix_to_obj', 'obj_to_matrix',
    'report_to_obj',
]
