"""Canonical JSON emission and the matrix interchange format.

Output must be byte-identical across runs: floats are always rendered with 17
significant digits (enough to round-trip a double), dict keys keep insertion
order, and no locale- or hash-dependent state is consulted.
"""

from __future__ import annotations

import json

import numpy as np

from .results import VerificationReport

CANONICAL_CHECK_ORDER = (
    'rep_unitary', 'rep_order', 'weyl_relation', 'subspace_invariance',
    'intertwiner', 'expectation_forms_agree', 'expectation_idempotent',
    'theorem1', 'resolution_mass', 'resolution_covariance', 'kl_anticliques',
    'spectral_pk_match', 'graphs_coincide', 'orbit_equals_z',
)


def format_float(x) -> str:
    """17-significant-digit decimal rendering of a finite double."""
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("non-finite value in output")
    return f'{x:.17g}'


def dumps(value) -> str:
    """Deterministic JSON text for nested dicts/lists/scalars."""
    out: list[str] = []
    _emit(value, out, 0)
    return ''.join(out)


def _emit(value, out: list, indent: int) -> None:
    if isinstance(value, dict):
        if not value:
            out.append('{}')
            return
        out.append('{\n')
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            out.append('  ' * (indent + 1) + json.dumps(str(key)) + ': ')
            _emit(val, out, indent + 1)
            out.append(',\n' if i + 1 < len(items) else '\n')
        out.append('  ' * indent + '}')
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append('[]')
            return
        if all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in seq):
            out.append('[' + ', '.join(_scalar(v) for v in seq) + ']')
            return
        out.append('[\n')
        for i, v in enumerate(seq):
            out.append('  ' * (indent + 1))
            _emit(v, out, indent + 1)
            out.append(',\n' if i + 1 < len(seq) else '\n')
        out.append('  ' * indent + ']')
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (complex, np.complexfloating)):
        _emit([value.real, value.imag], out, indent)
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return 'true' if value else 'false'
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if value is None:
        return 'null'
    raise TypeError(f'cannot serialize {type(value).__name__}')


def matrix_to_obj(m) -> dict:
    """Interchange object for a square matrix or a column vector.

    A d x d matrix carries d^2 entries row-major; a length-d vector (a d x 1
    matrix) carries d entries.  Every entry is an [re, im] pair.  A length-1
    vector is refused: its object would be that of a 1 x 1 matrix.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.shape == (1,):
        raise ValueError('a length-1 vector encodes as a 1 x 1 matrix; pass it as one')
    if arr.ndim == 1:
        dim = arr.shape[0]
        flat = arr
    elif arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        dim = arr.shape[0]
        flat = arr.reshape(-1)
    else:
        raise ValueError(f'expected a square matrix or a vector, got shape {arr.shape}')
    if not np.isfinite(arr).all():
        raise ValueError('entries must be finite')
    return {'dim': dim, 'entries': [[float(v.real), float(v.imag)] for v in flat]}


def obj_to_matrix(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_obj; entry count decides matrix versus vector."""
    dim = int(obj['dim'])
    entries = obj['entries']
    data = np.array([complex(re, im) for re, im in entries])
    if len(entries) == dim * dim:
        return data.reshape(dim, dim)
    if len(entries) == dim:
        return data
    raise ValueError('entry count matches neither a square matrix nor a vector')


def report_to_obj(report: VerificationReport) -> dict:
    """Report object with the canonical check order enforced."""
    ids = tuple(c.check_id for c in report.checks)
    if ids != CANONICAL_CHECK_ORDER:
        raise ValueError(f'checks out of canonical order: {ids}')
    checks = []
    for c in report.checks:
        entry = {'id': c.check_id, 'pass': bool(c.passed),
                 'max_residual': float(c.max_residual)}
        if c.details is not None:
            entry['details'] = c.details
        checks.append(entry)
    return {
        'n': report.n,
        'tol': float(report.tol),
        'checks': checks,
        'graph': {
            'dim_orbit': report.graph.dim_orbit,
            'dim_z_span': report.graph.dim_z_span,
            'dim_h_span': report.graph.dim_h_span,
            'orbit_equals_z': bool(report.graph.orbit_equals_z),
            'orbit_equals_h': bool(report.graph.orbit_equals_h),
        },
        'discrepancies': [{'claim': d.claim, 'observed': d.observed}
                          for d in report.discrepancies],
        # wall-clock time varies run to run; the emitted report must not
        'timing_ms': 0,
    }


def anticlique_to_obj(report) -> dict:
    """JSON object for an AnticliqueReport; lambda keys are "p,q" labels."""
    lam = {}
    for label in sorted(report.lambdas):
        value = report.lambdas[label]
        key = ','.join(str(int(v)) for v in label) if isinstance(label, tuple) \
            else str(label)
        lam[key] = [float(value.real), float(value.imag)]
    return {
        'n': report.n,
        'k': report.k,
        's': report.s,
        'is_anticlique': bool(report.is_anticlique),
        'lambda': lam,
        'max_residual': float(report.max_residual),
    }
