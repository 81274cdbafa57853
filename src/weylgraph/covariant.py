"""The commutant units x_pq, the group average (conditional expectation) in its
two forms, the diagonal-block projections Q_s, and the covariant resolution of
identity built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, as_operators, frob, frobs, stack_size
from .results import CheckResult
from .weylrep import (EntangledBasis, GroupAction, element_unitaries,
                      entangled_basis, rep_generators)


@dataclass(frozen=True)
class FixedPointUnits:
    """The commutant units x_pq = sum_k |h_k^p><h_k^q|, kept as the factor
    units[p, k] = h_k^p, shape (n, n, n*n).

    A unit grid is carried by the vectors it sums: a factor f stands for
    grid[a][b] = sum_c |f[a, c]><f[b, c]|, 16 n^4 bytes instead of the
    16 n^6 of the dense grid.  Every consumer evaluates its defining sum
    through the factor.  The x_pq span the commutant of the induced action.
    """
    n: int
    units: np.ndarray  # shape (n, n, n*n); units[p, k] is h_k^p

    @cached_property
    def blocks(self):
        """The units on the supports of the factor, as (cells, products,
        bras).

        S_p, the rows where some h_k^p is nonzero, is read from the factor
        and padded to the largest support with rows where F_p is zero, and
        A_p = F_p[:, S_p]; products[p, q] = A_p^T conj(A_q) is x_pq on
        S_p x S_q, zero elsewhere, bras is its conjugate, and cells[p, q]
        holds its flat indices S_p[i] d + S_q[j].  For the entangled basis
        the S_p are the blocks {(a, a+p)}, n rows each, so each array has
        n^4 entries.  Computed once per factor: change one by
        dataclasses.replace, not in place."""
        d = self.units.shape[-1]
        nonzero = (self.units != 0).any(axis=1)
        # each row's support first, then the rows where F_p is zero
        rows = np.argsort(~nonzero, axis=1, kind='stable')[:, :nonzero.sum(axis=1).max()]
        a = np.take_along_axis(self.units, rows[:, None, :], axis=2)
        products = np.einsum('pki,qkj->pqij', a, a.conj())
        return (rows[:, None, :, None] * d + rows[None, :, None, :],
                products, products.conj())


def fixed_units(n: int, basis: EntangledBasis | None = None) -> FixedPointUnits:
    basis = basis if basis is not None else entangled_basis(n)
    return FixedPointUnits(n, np.ascontiguousarray(basis.vectors.swapaxes(0, 1)))


def _default_unitaries(n: int) -> GroupAction:
    return element_unitaries(n, *rep_generators(n))


def expectation_avg(n: int, x, unitaries: GroupAction | None = None) -> tuple:
    """Uniform average of u x u* over the n^2 group unitaries, as (average,
    bound).

    The average of the real table is block-diagonal on the first-factor
    blocks T_a = {(a, b) : b}, which GroupAction.average reads from the
    table and computes it on, per permutation class.  Its class weights
    vanish off the T_a only up to cancellation, and bound, (1/n^2) sum_k
    max|W_k off| ||x||_F, covers what that leaves out: a residual of the
    average adds it.

    x is an n^2 x n^2 matrix or a (k, n^2, n^2) stack of them, averaged
    together; a stack has an array of bounds, one per sample.
    """
    x = as_operators(x, n * n)
    if unitaries is None:
        unitaries = _default_unitaries(n)
    return unitaries.average(x)


def expectation_trace(n: int, x, units: FixedPointUnits | None = None) -> np.ndarray:
    """Trace form of the same average: (1/n) sum_pq Tr(x_qp x) x_pq.

    On the supports of the factor (FixedPointUnits.blocks) the weight
    Tr(x_qp x) = sum_k <h_k^p| x |h_k^q> is the sum of x[S_p, S_q] against
    conj(x_pq[S_p, S_q]), one gather of x for every (p, q), and the sum of
    the units adds each block back, scaled by its weight: the defining sum
    for any factor, in O(n^4) for the entangled basis.

    x is an n^2 x n^2 matrix or a (k, n^2, n^2) stack of them: one gather
    of the stack, and one scatter of all its samples, each at its own
    offset.
    """
    d = n * n
    x = as_operators(x, d)
    stack = x.reshape(-1, d * d)
    cells, products, bras = (units if units is not None else fixed_units(n)).blocks
    terms = np.take(stack, cells, axis=1)
    coef = np.einsum('kpqij,pqij->kpq', terms, bras) / n
    np.multiply(coef[..., None, None], products, out=terms)
    out = np.zeros(stack.shape, dtype=complex)
    # added, not assigned: the supports of a factor off the basis may overlap
    at = cells.ravel() + d * d * np.arange(len(stack))[:, None]
    np.add.at(out.reshape(-1), at.ravel(), terms.ravel())
    return out.reshape(x.shape)


def q_projection(n: int, s: int) -> np.ndarray:
    """Projection onto span{|s, s+k mod n> : k}, i.e. |s><s| on the first factor."""
    if not 0 <= s < n:
        raise ValueError("s out of range")
    q = np.zeros((n * n, n * n), dtype=complex)
    idx = s * n + (s + np.arange(n)) % n
    q[idx, idx] = 1.0
    return q


@dataclass(frozen=True)
class CovariantResolution:
    """Resolution of identity covariant under the group action.

    atoms[p, q] is the diagonal of the measure of the singleton at S^p M^q,
    the atom (1/n^2) u (n Q_s) u*, shape (n, n, d): every group unitary is
    monomial, so conjugation maps diagonals to diagonals.  base_operator is
    n Q_s, the unique positive multiple of Q_s whose orbit sums to the
    identity; off_diagonal is its measured Frobenius distance from its real
    diagonal, which a monomial unitary u with unimodular phases leaves
    unchanged, so every atom lies within off_diagonal / n^2 of its diagonal.
    """
    n: int
    s: int
    atoms: np.ndarray
    base_operator: np.ndarray
    off_diagonal: float


def covariant_resolution(n: int, s: int, unitaries=None) -> CovariantResolution:
    base = n * q_projection(n, s)
    if unitaries is None:
        unitaries = _default_unitaries(n)
    diag = np.diagonal(base).real
    atoms = unitaries.orbit_diagonals(diag) / (n * n)
    return CovariantResolution(n, s, atoms, base, frob(base - np.diag(diag)))


def verify_theorem1(n: int, tol: float = DEFAULT_TOL,
                    unitaries=None, units: FixedPointUnits | None = None) -> CheckResult:
    """Check that the group average of every Q_s is I/n, in both forms; the
    unitary form adds its off-block bound.  The Q_s go to both forms in
    stacks (linalg.stack_size)."""
    if unitaries is None:
        unitaries = _default_unitaries(n)
    if units is None:
        units = fixed_units(n)
    forms = (('unitary', lambda q: expectation_avg(n, q, unitaries)),
             ('trace', lambda q: (expectation_trace(n, q, units), np.zeros(len(q)))))
    d = n * n
    step = stack_size(d * d)
    worst, where = 0.0, (0, 'unitary')
    for lo in range(0, n, step):
        qs = np.array([q_projection(n, s) for s in range(lo, min(lo + step, n))])
        residuals = []
        for _, average in forms:
            miss, bound = average(qs)
            miss.reshape(len(qs), -1)[:, ::d + 1] -= 1.0 / n  # the averages less I/n, in place
            residuals.append((frobs(miss) + bound).tolist())
            del miss  # one stack of averages alive at a time
        for j, pair in enumerate(zip(*residuals)):
            for (form, _), r in zip(forms, pair):
                if r > worst:
                    worst, where = r, (lo + j, form)
    return CheckResult('theorem1', worst <= tol, worst,
                       details=f'both average forms, every base index s; '
                               f'worst at s = {where[0]}, {where[1]} form')


def resolution_mass_check(n: int, tol: float,
                          resolution: CovariantResolution) -> CheckResult:
    """Atoms must sum to the identity and each atom must be positive.

    The atom sum differs from the identity by at most its diagonal residual
    and the n^2 atoms' off-diagonal parts, each at most off_diagonal / n^2.
    By Weyl's inequality an atom's smallest eigenvalue is at least its
    smallest diagonal entry less off_diagonal / n^2: that floor is the
    positivity measured.  The details name the atom sum or the first atom
    (p, q) with the largest violation, whichever is strictly worse.
    """
    total = resolution.atoms.sum(axis=(0, 1))
    worst = float(np.hypot(frob(total - 1.0), resolution.off_diagonal))
    where = 'the atom sum'
    violation = np.maximum(0.0, resolution.off_diagonal / (n * n)
                           - resolution.atoms.min(axis=2))
    p, q = np.unravel_index(np.argmax(violation), violation.shape)
    if violation[p, q] > worst:
        worst, where = float(violation[p, q]), f'the positivity of atom (p, q) = ({p}, {q})'
    return CheckResult('resolution_mass', worst <= tol, worst,
                       details=f'atom sum against identity, atom positivity '
                               f'(smallest diagonal entry less the off-diagonal '
                               f'norm); worst at {where}')


_COVARIANCE_SAMPLE = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 2))


def resolution_covariance_check(n: int, tol: float,
                                resolution: CovariantResolution,
                                unitaries, exhaustive: bool) -> CheckResult:
    """Conjugating the atom at g by the unitary of h must land on the atom at hg.

    Central phases cancel inside the conjugation, so only the (p, q) labels
    matter.  The exhaustive mode walks all n^4 pairs; the sampled mode walks
    every h against a small fixed list of g.  Conjugation acts on the atom
    diagonals as one gather per g (GroupAction.orbit_diagonals); the
    off-diagonal parts, which the atoms do not carry, can differ by at most
    twice off_diagonal / n^2, and that bound is added.  The details name the
    first (h, g) with the largest residual, h-major.
    """
    if exhaustive:
        g_list = [(p, q) for p in range(n) for q in range(n)]
        details = 'all group pairs'
    else:
        g_list = [(p % n, q % n) for p, q in _COVARIANCE_SAMPLE]
        details = 'all h against a fixed g sample'
    atoms = resolution.atoms
    # residual[hp, hq, i] for g = g_list[i]: the target atom at hg is the
    # atom grid rolled back by g
    residual = np.stack([np.linalg.norm(unitaries.orbit_diagonals(atoms[gp, gq])
                                        - np.roll(atoms, (-gp, -gq), axis=(0, 1)),
                                        axis=2)
                         for gp, gq in g_list], axis=2)
    residual = np.hypot(residual, 2.0 * resolution.off_diagonal / (n * n))
    hp, hq, i = np.unravel_index(np.argmax(residual), residual.shape)
    worst = float(residual[hp, hq, i])
    return CheckResult('resolution_covariance', worst <= tol, worst,
                       details=f'{details}; worst at h = ({hp}, {hq}), '
                               f'g = ({g_list[i][0]}, {g_list[i][1]})')
