"""Dense references for the fast paths: the group elements by matrix powers,
cluster projectors, the orbit span of every generator, the operator-span
comparison on densely embedded bases,
the covariant resolution with dense atoms, and the dense unit grids with the
unreduced z grid.  Each is the code the fast path replaced, kept here so the
tests can hold the two against each other."""

import dataclasses

import numpy as np

from weylgraph.linalg import OperatorSubspace, frob, span_operators, unit_roots


def rep_element(pi_s: np.ndarray, pi_m: np.ndarray, p: int, q: int) -> np.ndarray:
    """The group element piS^p piM^q as a product of dense matrix powers."""
    return np.linalg.matrix_power(pi_s, p) @ np.linalg.matrix_power(pi_m, q)


def cluster_projector(columns) -> np.ndarray:
    """The d x d orthogonal projection B B* onto the columns B of a
    ClusterColumns."""
    b = columns.dense()
    return b @ b.conj().T


def member_span(diagonals: np.ndarray, tol: float = 1e-10) -> OperatorSubspace:
    """The span of all the generator diagonals, one per group element, from
    one eigh of their Gram, which is n^2 x n^2 for an orbit."""
    return span_operators(list(diagonals), tol)


def dyad_grid(blocks: np.ndarray) -> np.ndarray:
    """The dense grid a unit factor stands for, grid[a][b] =
    sum_c |blocks[a, c]><blocks[b, c]|, as one batched product."""
    return np.swapaxes(blocks, 1, 2)[:, None] @ blocks.conj()[None]


def z_grid(n: int, j: int, y: np.ndarray):
    """The z family over a dense grid y of shape (n, n, D, D), unreduced.

    Returns (grid, reduced): grid[q][p] = sum_{m,l} w^((m-l)(p-j)) y_{m+q,l+q}
    and reduced[c] = sum_{m,l} w^(c(m-l)) y_{m,l}.
    """
    roots = unit_roots(n)
    size = y.shape[-1]
    idx = np.arange(n)
    diff = np.subtract.outer(idx, idx).reshape(-1)  # m - l, flattened over (m, l)
    # one product per q: row p of the phase table against y rolled by q in m and l
    phases = roots[np.outer(idx - j, diff) % n]
    flat = (size * size,)
    grid = np.stack([phases @ np.roll(y, -q, axis=(0, 1)).reshape(n * n, *flat)
                     for q in range(n)]).reshape(n, n, size, size)
    reduced = (roots[np.outer(idx, diff) % n] @ y.reshape(n * n, *flat)).reshape(n, size, size)
    return grid, reduced


def dense_embedding(space: OperatorSubspace) -> OperatorSubspace:
    """The same subspace with every basis element a dense d x d matrix."""
    if not space.diagonal:
        return space
    return dataclasses.replace(space, basis=space.basis[:, :, None] * np.eye(space.ambient_dim))


def dense_subspace_equal(v: OperatorSubspace, w: OperatorSubspace, tol: float):
    """(equal, worst residual) on the flattened d^2-entry bases."""
    worst = 0.0
    for a, b in ((v, w), (w, v)):
        if a.dim == 0:
            continue
        fa = dense_embedding(a).flat()
        if b.dim == 0:
            worst = max(worst, float(np.linalg.norm(fa, axis=1).max()))
            continue
        fb = dense_embedding(b).flat()
        proj = (fb.conj() @ fa.T).T @ fb
        worst = max(worst, float(np.linalg.norm(fa - proj, axis=1).max()))
    return v.dim == w.dim and worst <= tol, worst


def dense_atoms(n: int, s: int, unitaries, base=None) -> dict:
    """(p, q) -> u (n Q_s) u* / n^2 as a dense matrix, by dense products."""
    if base is None:
        base = np.zeros((n * n, n * n), dtype=complex)
        idx = s * n + (s + np.arange(n)) % n
        base[idx, idx] = n
    atoms = {}
    for p in range(n):
        for q in range(n):
            u = unitaries.dense(p, q)
            atoms[(p, q)] = u @ base @ u.conj().T / (n * n)
    return atoms


def dense_mass(n: int, atoms: dict) -> float:
    """Worst of || sum of atoms - I ||_F and the most negative atom eigenvalue."""
    d = n * n
    total = sum(atoms.values())
    floor = min(float(np.linalg.eigvalsh(a)[0]) for a in atoms.values())
    return max(frob(total - np.eye(d)), max(0.0, -floor))


def dense_covariance(n: int, atoms: dict, unitaries, g_list) -> float:
    """Worst || u_h atom_g u_h* - atom_hg ||_F over every h and the listed g."""
    worst = 0.0
    for hp in range(n):
        for hq in range(n):
            u = unitaries.dense(hp, hq)
            for gp, gq in g_list:
                moved = u @ atoms[(gp, gq)] @ u.conj().T
                target = atoms[((hp + gp) % n, (hq + gq) % n)]
                worst = max(worst, frob(moved - target))
    return worst
