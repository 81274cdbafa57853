"""Assemble the full verification report for one modulus."""

from __future__ import annotations

import numpy as np

from .covariant import (covariant_resolution, expectation_avg, expectation_trace,
                        fixed_units, resolution_covariance_check,
                        resolution_mass_check, verify_theorem1)
from .graphs import (graph_orbit, kl_corollary_check, proposition1_scan,
                     spectral_match_check, verify_theorem2, y_units)
from .linalg import DEFAULT_TOL, frob, frobs, random_hermitian, stack_size
from .results import CheckResult, VerificationReport
from .weylrep import (element_unitaries, entangled_basis, rep_generators,
                      verify_representation)

# enough samples to make a silent disagreement implausible, small enough to
# keep a full scan interactive; the larger moduli keep a reduced count
def _sample_count(n: int) -> int:
    return 100 if n <= 8 else 20


def run_verification(n: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Run every check at modulus n and collect the canonical report."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 < tol < 1:  # at tol >= 1 span_operators keeps no direction
        raise ValueError("tol must be positive and finite, and below 1")
    d = n * n
    basis = entangled_basis(n)
    pi_s, pi_m = rep_generators(n, basis=basis)
    unitaries = element_unitaries(n, pi_s, pi_m)
    units = fixed_units(n, basis=basis)
    y = y_units(n, basis)

    checks = list(verify_representation(n, tol, pi_s=pi_s, pi_m=pi_m, basis=basis))

    seed = 1000 + n  # fixed seed per n: reports must be stable
    rng = np.random.default_rng(seed)
    samples = _sample_count(n)
    # the draws in stacks, each stack one call of each form; the stream and
    # the order of the draws are those of one sample at a time
    step = stack_size(d * d)
    stacks = [(lo, min(lo + step, samples)) for lo in range(0, samples, step)]
    worst, where = 0.0, 0
    for lo, hi in stacks:
        x = random_hermitian(d, rng, hi - lo)
        average, bound = expectation_avg(n, x, unitaries)
        average -= expectation_trace(n, x, units)
        for i, r in enumerate((frobs(average) + bound).tolist(), lo):
            if r > worst:
                worst, where = r, i
    checks.append(CheckResult('expectation_forms_agree', worst <= tol, worst,
                              details=f'{samples} random Hermitian samples, draws '
                                      f'0-{samples - 1} of seed {seed}; worst at draw {where}'))

    eye = np.eye(d, dtype=complex)
    worst, where = frob(expectation_trace(n, eye, units) - eye), 'the identity'
    for lo, hi in stacks:
        x = random_hermitian(d, rng, hi - lo)
        once = expectation_trace(n, x, units)
        idempotence = frobs(expectation_trace(n, once, units) - once).tolist()
        drift = (np.trace(once, axis1=1, axis2=2) - np.trace(x, axis1=1, axis2=2)).tolist()
        for i, (r, t) in enumerate(zip(idempotence, drift), samples + lo):
            r = max(r, abs(t))
            if r > worst:
                worst, where = r, f'draw {i}'
    checks.append(CheckResult('expectation_idempotent', worst <= tol, worst,
                              details=f'idempotence, unitality and trace preservation; '
                                      f'{samples} samples, draws {samples}-{2 * samples - 1} '
                                      f'of seed {seed}; worst at {where}'))

    # nothing past the sample stages reads these d x d arrays, and the peak
    # comes later, in theorem 2
    del eye, x, once, average
    checks.append(verify_theorem1(n, tol, unitaries=unitaries, units=units))

    resolution = covariant_resolution(n, 0, unitaries=unitaries)
    checks.append(resolution_mass_check(n, tol, resolution))
    checks.append(resolution_covariance_check(n, tol, resolution, unitaries,
                                              exhaustive=n <= 6))

    orbit_graphs = [graph_orbit(n, s, tol, unitaries) for s in range(n)]
    checks.append(kl_corollary_check(n, tol, basis, orbit_graphs))

    try:
        scan = proposition1_scan(n, 0, tol, unitaries=unitaries, orbit=orbit_graphs[0])
        checks.append(spectral_match_check(n, tol, pi_m, unitaries, basis,
                                           extra_details=scan.summary()))
    except ValueError as exc:  # the spectrum cannot be clustered at this tolerance
        checks.append(CheckResult('spectral_pk_match', False, float(n),
                                  details=f'spectral clustering failed: {exc}'))

    t2_checks, audit, discrepancies = verify_theorem2(
        n, tol, basis=basis, unitaries=unitaries, orbit_graphs=orbit_graphs, y=y)
    checks.extend(t2_checks)

    return VerificationReport(n, tol, checks, audit, discrepancies)
