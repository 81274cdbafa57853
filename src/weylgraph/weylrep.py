"""Shift and clock operators on C^n, the entangled basis grid on C^(n*n), and
the reducible unitary action they induce there, kept as one monomial table.

The grid vector h[k][0] is the Fourier-weighted diagonal ket
(1/sqrt(n)) sum_j w^(kj) |jj> with w = exp(2*pi*i/n), and h[k][j] applies the
shift to the second factor j times.  The induced action permutes the k index
and leaves each fixed-j block invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, as_operator, frob, tensor_product, unit_roots
from .results import CheckResult


def shift_clock(n: int):
    """The cyclic shift S|j> = |j+1 mod n> and the clock M|j> = w^j |j>."""
    if n < 2:
        raise ValueError("n must be >= 2")
    s = np.zeros((n, n), dtype=complex)
    s[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    m = np.diag(unit_roots(n))
    return s, m


@dataclass(frozen=True)
class EntangledBasis:
    """Orthonormal grid h[k][j] of maximally entangled vectors on C^(n*n)."""
    n: int
    vectors: np.ndarray  # shape (n, n, n*n); vectors[k, j] is h_k^j

    def vector(self, k: int, j: int) -> np.ndarray:
        return self.vectors[k, j]

    def isometry(self, j: int) -> np.ndarray:
        """Columns h_0^j .. h_{n-1}^j; embeds C^n onto the j-th invariant block."""
        return self.vectors[:, j, :].T.copy()

    def code_isometry(self, k: int) -> np.ndarray:
        """Columns h_k^0 .. h_k^{n-1}; embeds C^n onto the k-th code subspace."""
        return self.vectors[k].T.copy()

    def flat(self) -> np.ndarray:
        """The unitary whose column k*n+j is h_k^j."""
        return self.vectors.reshape(self.n * self.n, -1).T.copy()


def entangled_basis(n: int) -> EntangledBasis:
    """Build the full grid from the defining sums."""
    if n < 2:
        raise ValueError("n must be >= 2")
    idx = np.arange(n)
    amp = unit_roots(n)[np.outer(idx, idx) % n] / np.sqrt(n)
    j, a = idx[:, None], idx[None, :]
    vectors = np.zeros((n, n, n, n), dtype=complex)
    # h_k^j carries amp[k, a] on |a, a+j>: shifting the second factor rolls it
    vectors[:, j, a, (a + j) % n] = amp[:, None, :]
    return EntangledBasis(n, vectors.reshape(n, n, n * n))


def change_of_basis(n: int, basis: EntangledBasis | None = None) -> np.ndarray:
    """Unitary W with column k*n+j equal to h_k^j (standard basis -> grid)."""
    basis = basis if basis is not None else entangled_basis(n)
    return basis.flat()


def rep_generators(n: int, basis: EntangledBasis | None = None):
    """Images of S and M acting on the grid: k -> k+1 and k -> w^k, block-wise.

    Built by conjugating S (x) I and M (x) I through the change of basis, so
    that column k*n+j of the grid plays the role of |k> (x) |j>.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    w = change_of_basis(n, basis)
    s, m = shift_clock(n)
    eye = np.eye(n, dtype=complex)
    wt = w.conj().T
    pi_s = w @ tensor_product(s, eye) @ wt
    pi_m = w @ tensor_product(m, eye) @ wt
    return pi_s, pi_m


@dataclass(frozen=True)
class GroupElement:
    """Label (p, q, r) for the unitary w^r S^p M^q; exponents live mod n."""
    p: int
    q: int
    r: int = 0

    def normalized(self, n: int) -> 'GroupElement':
        return GroupElement(self.p % n, self.q % n, self.r % n)


def compose(n: int, g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product; moving M^q past S^p' costs the central phase w^(q p')."""
    return GroupElement((g.p + h.p) % n, (g.q + h.q) % n,
                        (g.r + h.r + g.q * h.p) % n)


def rep_element(n: int, g: GroupElement, generators=None) -> np.ndarray:
    """The unitary w^r piS^p piM^q for a group label."""
    pi_s, pi_m = generators if generators is not None else rep_generators(n)
    g = g.normalized(n)
    u = np.linalg.matrix_power(pi_s, g.p) @ np.linalg.matrix_power(pi_m, g.q)
    if g.r:
        u = unit_roots(n)[g.r] * u
    return u


@dataclass(frozen=True)
class GroupAction:
    """The n^2 unitaries piS^p piM^q as a monomial table.

    Row i of piS^p piM^q holds phase[p, q, i] in column perm[p, q, i] and is
    zero elsewhere, so conjugating by a group element is an index gather.
    """
    perm: np.ndarray   # shape (n, n, d), int
    phase: np.ndarray  # shape (n, n, d), complex

    def conj(self, p: int, q: int, x: np.ndarray) -> np.ndarray:
        """u x u* for u = piS^p piM^q."""
        perm, phase = self.perm[p, q], self.phase[p, q]
        return phase[:, None] * x[np.ix_(perm, perm)] * phase.conj()

    @cached_property
    def classes(self):
        """The table grouped by permutation: (perms, weights), where perms[k]
        is the k-th distinct permutation (sorted) and weights[k] the d x d
        matrix W_k = sum phase phase* over the elements that carry it.

        Computed once per table: change a table by dataclasses.replace, not in
        place."""
        d = self.perm.shape[-1]
        perms, label = np.unique(self.perm.reshape(-1, d), axis=0, return_inverse=True)
        label = label.ravel()
        phase = self.phase.reshape(-1, d)
        weights = np.array([phase[label == k].T @ phase[label == k].conj()
                            for k in range(len(perms))])
        return perms, weights

    def average(self, x: np.ndarray) -> np.ndarray:
        """(1/n^2) sum over the table of u x u*, grouped by permutation: the
        elements sharing pi_k contribute W_k o x[pi_k, pi_k] (entrywise
        product), so the cost is one gather per class, n for the real table."""
        perms, weights = self.classes
        acc = np.zeros_like(weights[0])
        for perm, weight in zip(perms, weights):
            acc += weight * x[np.ix_(perm, perm)]
        return acc / self.perm[..., 0].size

    def orbit_diagonals(self, v: np.ndarray) -> np.ndarray:
        """Diagonals of u diag(v) u* for every u = piS^p piM^q, shape (n, n, d):
        u is monomial, so entry i is |phase[i]|^2 v[perm[i]], one gather."""
        return (self.phase * self.phase.conj()).real * np.asarray(v)[self.perm]

    def dense(self, p: int, q: int) -> np.ndarray:
        """The unitary piS^p piM^q as a dense matrix."""
        d = self.perm.shape[-1]
        u = np.zeros((d, d), dtype=complex)
        u[np.arange(d), self.perm[p, q]] = self.phase[p, q]
        return u

    def eigenpairs(self, p: int, q: int, tol: float = DEFAULT_TOL):
        """Eigenvalues and orthonormal eigenvector columns of piS^p piM^q.

        With (u v)[i] = phase[i] v[perm[i]], a cycle i_0 -> perm[i_0] -> ...
        of length L and phase product Phi contributes the L roots of
        lambda^L = Phi, each with an eigenvector on the cycle given by
        v[i_0] = 1/sqrt(L) and v[i_(m+1)] = lambda v[i_m] / phase[i_m].
        ValueError if perm is not a permutation or u is not unitary within
        tol, the test spectral_projections makes, here in O(d).
        """
        perm, phase = self.perm[p, q], self.phase[p, q]
        d = perm.size
        if not np.array_equal(np.sort(perm), np.arange(d)):
            raise ValueError("perm is not a permutation of range(d)")
        if frob(np.abs(phase) ** 2 - 1.0) > tol * d:  # u* u = diag(|phase|^2)
            raise ValueError("input is not unitary within tolerance")
        values = np.empty(d, dtype=complex)
        vectors = np.zeros((d, d), dtype=complex)
        seen = np.zeros(d, dtype=bool)
        succ = perm.tolist()
        col = 0
        for start in range(d):
            if seen[start]:
                continue
            cycle = [start]
            while succ[cycle[-1]] != start:
                cycle.append(succ[cycle[-1]])
            seen[cycle] = True
            size = len(cycle)
            steps = phase[cycle]
            total = np.prod(steps)
            lam = abs(total) ** (1.0 / size) * np.exp(
                1j * (np.angle(total) + 2.0 * np.pi * np.arange(size)) / size)
            # row m holds v[i_m] = lambda^m / (phase[i_0] ... phase[i_(m-1)])
            m = np.arange(size)[:, None]
            walk = np.concatenate(([1.0], np.cumprod(steps[:-1])))[:, None]
            values[col:col + size] = lam
            vectors[cycle, col:col + size] = lam ** m / walk / np.sqrt(size)
            col += size
        return values, vectors

    @property
    def nbytes(self) -> int:
        return self.perm.nbytes + self.phase.nbytes


def _powers(n: int, u: np.ndarray):
    """Monomial tables (perm, phase) of u^0 .. u^(n-1), read off the largest
    entry in each row of u."""
    rows = np.arange(u.shape[0])
    perm = np.argmax(np.abs(u), axis=1)
    phase = u[rows, perm]
    perms, phases = [rows], [np.ones(rows.size, dtype=complex)]
    for _ in range(n - 1):
        # row i of A u is phase_A[i] times row perm_A[i] of u
        phases.append(phases[-1] * phase[perms[-1]])
        perms.append(perm[perms[-1]])
    return np.array(perms), np.array(phases)


def element_unitaries(n: int, pi_s: np.ndarray, pi_m: np.ndarray) -> GroupAction:
    """All n^2 products piS^p piM^q, indexed [p, q], via cumulative powers;
    ValueError if the monomial form misses a generator by more than DEFAULT_TOL."""
    s_perm, s_phase = _powers(n, pi_s)
    m_perm, m_phase = _powers(n, pi_m)
    q, rows = np.arange(n)[None, :, None], s_perm[:, None, :]
    action = GroupAction(m_perm[q, rows], s_phase[:, None, :] * m_phase[q, rows])
    if max(frob(action.dense(1, 0) - pi_s), frob(action.dense(0, 1) - pi_m)) > DEFAULT_TOL:
        raise ValueError("generator is not monomial within tolerance")
    return action


def verify_representation(n: int, tol: float = DEFAULT_TOL,
                          pi_s=None, pi_m=None,
                          basis: EntangledBasis | None = None) -> list:
    """The five structural checks on the induced action, in fixed order.

    Explicit pi_s / pi_m overrides exist so mutation tests can feed in
    tampered generators; failures come back as results, not exceptions.
    """
    basis = basis if basis is not None else entangled_basis(n)
    if pi_s is None or pi_m is None:
        built = rep_generators(n, basis=basis)
        pi_s = built[0] if pi_s is None else as_operator(pi_s)
        pi_m = built[1] if pi_m is None else as_operator(pi_m)
    d = n * n
    eye = np.eye(d, dtype=complex)
    s, m = shift_clock(n)
    omega = unit_roots(n)[1]
    checks = []

    r = max(frob(pi_s.conj().T @ pi_s - eye), frob(pi_m.conj().T @ pi_m - eye))
    checks.append(CheckResult('rep_unitary', r <= tol, r))

    r = max(frob(np.linalg.matrix_power(pi_s, n) - eye),
            frob(np.linalg.matrix_power(pi_m, n) - eye))
    checks.append(CheckResult('rep_order', r <= tol, r))

    r = frob(pi_m @ pi_s - omega * (pi_s @ pi_m))
    checks.append(CheckResult('weyl_relation', r <= tol, r))

    r_inv = 0.0
    r_int = 0.0
    for j in range(n):
        v = basis.isometry(j)
        for op in (pi_s, pi_m):
            x = op @ v
            r_inv = max(r_inv, frob(x - v @ (v.conj().T @ x)))
        r_int = max(r_int, frob(pi_s @ v - v @ s), frob(pi_m @ v - v @ m))
    checks.append(CheckResult('subspace_invariance', r_inv <= tol, r_inv,
                              details='worst block over j'))
    checks.append(CheckResult('intertwiner', r_int <= tol, r_int,
                              details='grid columns against shift/clock, worst block'))
    return checks
