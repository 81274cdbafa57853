"""Dense references for the fast paths: the group elements by matrix powers,
the Hermitian sample from a complex draw, cluster projectors, the orbit
span of every generator, the operator-span comparison on densely embedded
bases, the h and z families from the whole unit factor, the covariant resolution with dense atoms, the dense unit
grids with the unreduced z grid, and the group average in both forms on
whole d x d matrices.  Each is the code the fast path replaced, kept here so
the tests can hold the two against each other."""

import dataclasses

import numpy as np

from weylgraph.covariant import q_projection
from weylgraph.linalg import OperatorSubspace, frob, span_operators, unit_roots


def rep_element(pi_s: np.ndarray, pi_m: np.ndarray, p: int, q: int) -> np.ndarray:
    """The group element piS^p piM^q as a product of dense matrix powers."""
    return np.linalg.matrix_power(pi_s, p) @ np.linalg.matrix_power(pi_m, q)


def complex_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The Gaussian Hermitian sample (a + a*) / 2 from the complex a = re +
    i im of two standard normal draws."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def cluster_projector(columns) -> np.ndarray:
    """The d x d orthogonal projection B B* onto the columns B of a
    ClusterColumns."""
    b = columns.dense()
    return b @ b.conj().T


def member_diagonals(unitaries, s: int) -> np.ndarray:
    """The diagonals of u Q_s u* for every element u of the table, shape
    (n^2, d) in (p, q) order: one gather per element
    (GroupAction.orbit_diagonals), not a class row read through a label."""
    n, _, d = unitaries.perm.shape
    return unitaries.orbit_diagonals(np.diagonal(q_projection(n, s))).reshape(n * n, d)


def member_span(diagonals: np.ndarray, tol: float = 1e-10) -> OperatorSubspace:
    """The span of all the generator diagonals, one per group element, from
    one eigh of their Gram, which is n^2 x n^2 for an orbit."""
    return span_operators(list(diagonals), tol)


def class_average(table, x: np.ndarray) -> np.ndarray:
    """(1/E) sum over the E elements of a monomial table of u x u*, grouped
    by permutation class: the elements sharing pi_k contribute
    W_k o x[pi_k, pi_k], with W_k = sum phase phase* the dense d x d class
    weight, one gather per class."""
    d = table.perm.shape[-1]
    perms, label = table.grouping
    phase = table.phase.reshape(-1, d)
    acc = np.zeros((d, d), dtype=complex)
    for k, perm in enumerate(perms):
        members = phase[label == k]
        acc += (members.T @ members.conj()) * x[np.ix_(perm, perm)]
    return acc / len(label)


def product_trace_form(n: int, x: np.ndarray, units) -> np.ndarray:
    """(1/n) sum_pq Tr(x_qp x) x_pq through the whole factor F, rows (p, k):
    the weights Tr(x_qp x) = sum_k <h_k^p| x |h_k^q> are read off the rows
    of F^* x, and the weighted sum of units is one product back, d^3 flops
    each."""
    d = n * n
    f = units.units
    bras = f.conj()
    coef = (bras.reshape(d, d) @ x).reshape(n, n * d) @ f.reshape(n, n * d).T / n
    return f.reshape(d, d).T @ (coef @ bras.reshape(n, n * d)).reshape(d, d)


def dyad_grid(blocks: np.ndarray) -> np.ndarray:
    """The dense grid a unit factor stands for, grid[a][b] =
    sum_c |blocks[a, c]><blocks[b, c]|, as one batched product."""
    return np.swapaxes(blocks, 1, 2)[:, None] @ blocks.conj()[None]


def dense_h_generators(n: int, y: np.ndarray) -> list:
    """The h family as d x d matrices from the whole factor: with Y the
    factor flattened to rows (m, k) and R_p its copy rolled by p in m,
    sum_m y_{m+p,m} = R_p^T Y^*, so h_0 = Y^T Y^* and h_p = A + A* for
    A = R_p^T Y^*, d^3 flops each."""
    d = n * n
    bras = y.reshape(d, d).conj()
    out = [y.reshape(d, d).T @ bras]
    for p in range(1, n):
        pair = np.roll(y, -p, axis=0).reshape(d, d).T @ bras
        out.append(pair + pair.conj().T)
    return out


def dense_z_generators(n: int, y: np.ndarray) -> list:
    """The z family as d x d matrices from the whole factor,
    z_c = sum_k |u_c^k><u_c^k| with u_c^k = sum_m w^(cm) y[m, k]: one phase
    product, then one d x n x d product per c."""
    d = n * n
    idx = np.arange(n)
    u = (unit_roots(n)[np.outer(idx, idx) % n] @ y.reshape(n, n * d)).reshape(n, n, d)
    return [u[c].T @ u[c].conj() for c in range(n)]


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
    """The same subspace on one block: every basis element a dense d x d
    matrix."""
    return dataclasses.replace(space, partition=np.arange(space.ambient_dim)[None],
                               basis=space.operators().dense()[:, None])


def dense_subspace_equal(v: OperatorSubspace, w: OperatorSubspace, tol: float):
    """(equal, worst residual) on the flattened d^2-entry bases."""
    worst = 0.0
    for a, b in ((v, w), (w, v)):
        if a.dim == 0:
            continue
        fa = a.operators().dense().reshape(a.dim, -1)
        if b.dim == 0:
            worst = max(worst, float(np.linalg.norm(fa, axis=1).max()))
            continue
        fb = b.operators().dense().reshape(b.dim, -1)
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
