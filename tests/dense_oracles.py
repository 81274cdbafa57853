"""Dense references for the diagonal fast paths: the operator-span
comparison on densely embedded bases, and the covariant resolution with
dense atoms.  Each is the code the fast path replaced, kept here so the
tests can hold the two against each other."""

import numpy as np

from weylgraph.linalg import OperatorSubspace, frob


def dense_embedding(space: OperatorSubspace) -> OperatorSubspace:
    """The same subspace with every basis element a dense d x d matrix."""
    if not space.diagonal:
        return space
    d = space.ambient_dim
    return OperatorSubspace(d, space.basis[:, :, None] * np.eye(d), space.build_tol)


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
