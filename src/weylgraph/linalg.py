"""Dense complex linear algebra: Kronecker products, Hilbert-Schmidt geometry,
spectral projections of unitaries, and operator-subspace (Gram-rank)
arithmetic on block-diagonal operators (BlockOperators).

Operators are complex128 arrays: square matrices, or the blocks of
BlockOperators.  Identities are exact in exact arithmetic, so every check
here is residual-based with an absolute tolerance (default 1e-10).

All of it runs on numpy's LAPACK and BLAS, so the program loads one BLAS
library with one thread pool; the one exception is the Schur test oracle
spectral_projections (see its docstring).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-10

# work done on stacks (the census's cycle blocks, the sampled checks' (k, d, d)
# samples) takes as many items per stack as hold at most this many entries
# (an item holding more is a stack of its own): one item per stack pays
# numpy's call overhead once per item, and one stack of everything holds all
# of it at once
_STACK_ENTRIES = 1 << 13


class DegenerateClusteringError(ValueError):
    """Eigenvalue clusters could not be separated unambiguously."""


def stack_size(entries) -> int:
    """How many items, taken in order, make the next stack: as many as hold
    at most _STACK_ENTRIES entries between them, and at least one.  entries
    is the count of each item, or one count shared by all of them."""
    if np.ndim(entries) == 0:
        return max(1, _STACK_ENTRIES // int(entries))
    return max(1, int(np.searchsorted(np.cumsum(entries), _STACK_ENTRIES, side='right')))


def as_operator(a) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_operators(a, dim: int) -> np.ndarray:
    """Validate and return a finite complex dim x dim matrix or a (k, dim,
    dim) stack of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (dim, dim):
        raise ValueError(f"expected {dim} x {dim} matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def frobs(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, bit for bit frob of
    each: np.linalg.norm takes the dot products of the real and of the
    imaginary parts, and a stacked row-by-column matmul takes the same dot
    products, all in one call."""
    flat = stack.reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).ravel()


def unit_roots(n: int) -> np.ndarray:
    """Table of the n-th roots of unity, entry t equal to exp(2*pi*i*t/n).

    Index phase exponents mod n into this table instead of exponentiating
    arbitrary integers; it keeps repeated runs bit-identical.
    """
    return np.exp(2j * np.pi * np.arange(n) / n)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; composite index of |k> (x) |j> is k*dim_b + j."""
    return np.kron(as_operator(a), as_operator(b))


def dft_unitary(n: int) -> np.ndarray:
    """Discrete Fourier matrix F[k, j] = exp(2*pi*i*k*j/n)/sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    t = np.arange(n)
    return unit_roots(n)[np.outer(t, t) % n] / np.sqrt(n)


def random_hermitian(dim: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Gaussian Hermitian sample, used by the randomized residual checks:
    (a + a*) / 2 for a = re + i im, two standard normal draws, built part
    by part as (re + re^T) / 2 + i (im - im^T) / 2, with no complex a.

    With a count, a (count, dim, dim) stack of samples from one draw of
    2 count matrices, re and im of each sample in turn: the stream of count
    calls without one, bit for bit."""
    parts = rng.standard_normal((1 if count is None else count, 2, dim, dim))
    re, im = parts[:, 0], parts[:, 1]
    out = np.empty(re.shape, dtype=complex)
    np.add(re, re.swapaxes(1, 2), out=out.real)
    np.subtract(im, im.swapaxes(1, 2), out=out.imag)
    out *= 0.5
    return out[0] if count is None else out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigendecomposition of a unitary.

    eigenvalues[c] is the unimodular representative of cluster c, projectors[c]
    the orthogonal projection onto its eigenspace, ranks[c] its multiplicity.
    Clusters are ordered by phase angle in [0, 2*pi).
    """
    eigenvalues: np.ndarray
    projectors: np.ndarray
    ranks: tuple


def spectral_projections(u, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Cluster the spectrum of a unitary and return the spectral projections.

    The eigenpairs come from a complex Schur decomposition and are grouped by
    cluster_eigenpairs.  It is the dense test oracle of the cycle-block path
    and the only caller of scipy, whose wheel bundles an OpenBLAS of its own:
    scipy is imported here, when the oracle runs, never by the program.
    """
    import scipy.linalg

    u = as_operator(u)
    d = u.shape[0]
    if frob(u.conj().T @ u - np.eye(d)) > tol * d:
        raise ValueError("input is not unitary within tolerance")
    t, z = scipy.linalg.schur(u, output='complex')
    eigenvalues, isometries = cluster_eigenpairs(np.diag(t), z, u, tol)
    return SpectralDecomposition(eigenvalues,
                                 np.array([b @ b.conj().T for b in isometries]),
                                 tuple(b.shape[1] for b in isometries))


def cluster_eigenvalues(eigs, tol: float = DEFAULT_TOL):
    """Group the eigenvalues of a unitary into its spectral clusters; a 2-D
    eigs is a stack of spectra, one per row, each clustered on its own.

    One angular split: the eigenvalues are sorted by angle in [0, 2*pi) and
    cut wherever two neighbours lie more than the linking gap 10*tol apart;
    the first and last runs are one cluster when they meet across the wrap.
    A cluster whose diameter exceeds the gap is ambiguous, and one whose mean
    is zero (within tol) has no unimodular representative: both raise
    DegenerateClusteringError.  Returns (values, labels): labels has the
    shape of eigs and names the cluster of each eigenvalue, clusters are
    numbered row by row and, within a row, in the order of the angle of
    values in [0, 2*pi), and values[c] is the normalised mean of cluster c.
    """
    eigs = np.asarray(eigs, dtype=complex)
    spectra = np.atleast_2d(eigs)
    count, size = spectra.shape
    gap = 10.0 * tol
    order = np.argsort(np.mod(np.angle(spectra), 2.0 * np.pi), axis=1, kind='stable')
    ranked = np.take_along_axis(spectra, order, axis=1)
    run = np.zeros((count, size), dtype=np.intp)
    run[:, 1:] = np.cumsum(np.abs(np.diff(ranked, axis=1)) > gap, axis=1)
    # the circle wraps: the last run joins the first
    last = run[:, -1:]
    run[(last > 0) & (np.abs(ranked[:, :1] - ranked[:, -1:]) <= gap) & (run == last)] = 0
    runs = run.max(axis=1) + 1
    run = (run + (np.cumsum(runs) - runs)[:, None]).ravel()  # numbered across rows
    sizes = np.bincount(run)
    members = ranked.ravel()[np.argsort(run, kind='stable')]
    starts = np.cumsum(sizes) - sizes
    # diameters over all pairs, one broadcast per distinct cluster size, in
    # chunks of the pairs' first members that hold at most _STACK_ENTRIES
    # pairs (at least one member of each cluster)
    diam = np.zeros(len(sizes))
    for width in set(sizes[sizes > 1].tolist()):
        which = np.flatnonzero(sizes == width)
        vals = members[starts[which, None] + np.arange(width)]
        step = stack_size(len(which) * width)
        diam[which] = np.max([np.abs(vals[:, lo:lo + step, None] - vals[:, None, :]).max(axis=(1, 2))
                              for lo in range(0, width, step)], axis=0)
    if (diam > gap).any():
        raise DegenerateClusteringError(
            f"degenerate clustering: a linked cluster has diameter "
            f"{diam[np.argmax(diam > gap)]:.6e}, wider than the linking gap")
    mean = np.add.reduceat(members, starts) / sizes
    if (np.abs(mean) <= tol).any():
        raise DegenerateClusteringError(
            "degenerate clustering: a cluster's eigenvalues average to zero, "
            "so it has no unimodular representative")
    reps = mean / np.abs(mean)
    # order each row's clusters by representative angle; a representative
    # within the linking gap of +1 counts as angle 0 even when roundoff lands
    # it just below the 2*pi wrap
    angle = np.where(np.abs(reps - 1.0) <= gap, 0.0, np.mod(np.angle(reps), 2.0 * np.pi))
    rank = np.lexsort((angle, np.repeat(np.arange(count), runs)))
    labels = np.empty(count * size, dtype=np.intp)
    labels[(order + size * np.arange(count)[:, None]).ravel()] = np.argsort(rank)[run]
    return reps[rank], labels.reshape(eigs.shape)


def cluster_eigenpairs(eigs, vectors, u, tol: float = DEFAULT_TOL):
    """Group the eigenpairs of a dense unitary u into its spectral clusters.

    eigs[i] is the eigenvalue of the orthonormal column vectors[:, i], and
    the clusters are those of cluster_eigenvalues.  Returns (eigenvalues,
    isometries) in cluster order; isometries[c] holds the columns of cluster
    c.  Raises ValueError if the clusters do not reassemble u, as the one
    product (V Lambda_cluster) V*.
    """
    values, labels = cluster_eigenvalues(eigs, tol)
    if frob((vectors * values[labels]) @ vectors.conj().T - u) > 100.0 * tol * u.shape[0]:
        raise ValueError("spectral decomposition failed to reconstruct the input")
    return values, [vectors[:, labels == c] for c in range(len(values))]


class BlockOperators(NamedTuple):
    """A stack of operators on C^d, each block diagonal on one partition of
    range(d).

    partition has shape (count, size): row c lists the indices of part c in
    ascending order, a part shorter than size padded with -1 at its end.
    blocks has shape (k, count, size, size): blocks[i, c] holds operator i
    on part c x part c, and is zero in the padded rows and columns.  A
    diagonal operator is the partition into singletons, a dense one the
    partition into one block.
    """
    partition: np.ndarray
    blocks: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return int(np.count_nonzero(self.partition >= 0))

    def dense(self) -> np.ndarray:
        """The (k, d, d) stack of the operators as matrices."""
        d = self.ambient_dim
        # a padding index -1 lands in row or column d, cut off at the end
        out = np.zeros((len(self.blocks), d + 1, d + 1), dtype=self.blocks.dtype)
        out[:, self.partition[:, :, None], self.partition[:, None, :]] = self.blocks
        return out[:, :d, :d]


def label_partition(label: np.ndarray) -> np.ndarray:
    """The indices of range(d) grouped by label[i] into the partition of
    BlockOperators, the parts in the order of their labels: the least
    member as label orders them by least index."""
    part = np.unique(label, return_inverse=True)[1].ravel()
    sizes = np.bincount(part)
    order = np.argsort(part, kind='stable')
    partition = np.full((len(sizes), sizes.max()), -1, dtype=np.intp)
    partition[part[order], np.arange(len(part)) - (np.cumsum(sizes) - sizes)[part[order]]] = order
    return partition


def _operator_stack(generators) -> BlockOperators:
    """The generators of span_operators as BlockOperators."""
    if isinstance(generators, BlockOperators):
        ops = generators
    else:
        gens = np.array([np.asarray(g, dtype=complex) for g in generators])
        if not len(gens):
            raise ValueError("empty generator list")
        d = gens.shape[-1]
        if gens.ndim == 2:
            ops = BlockOperators(np.arange(d)[:, None], gens[:, :, None, None])
        elif gens.ndim == 3 and gens.shape[1] == d:
            ops = BlockOperators(np.arange(d)[None], gens[:, None])
        else:
            raise ValueError(f"expected square matrices or diagonals, got shape {gens.shape[1:]}")
    if not np.isfinite(ops.blocks).all():
        raise ValueError("generator entries must be finite")
    return ops


@dataclass(frozen=True)
class OperatorSubspace:
    """A subspace of operator space, carried by an HS-orthonormal basis.

    basis has shape (dim, count, size, size), the blocks of BlockOperators
    on partition, and gram_spectrum holds the ascending eigenvalues of the
    generators' Hilbert-Schmidt Gram that span_operators diagonalised.
    """
    partition: np.ndarray
    basis: np.ndarray
    gram_spectrum: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def ambient_dim(self) -> int:
        return self.operators().ambient_dim

    def operators(self) -> BlockOperators:
        return BlockOperators(self.partition, self.basis)

    def residual(self, x) -> float:
        """Frobenius distance from x to the subspace; x is a d x d matrix or
        the length-d diagonal of a diagonal operator."""
        return float(_distances(*_one_partition(_operator_stack([x]), self.operators()))[0])


def span_operators(generators, tol: float = DEFAULT_TOL) -> OperatorSubspace:
    """Orthonormalize generators into an OperatorSubspace on their
    partition: a BlockOperators, or a sequence of d x d matrices (one
    block) or of length-d diagonals (singletons); ValueError for an empty
    or mixed sequence, a non-square matrix or a non-finite entry.

    The Hilbert-Schmidt Gram is that of the flattened blocks, since the
    operators vanish off them.  Dimension counting and the basis both come
    from the eigendecomposition of the Gram matrix (order-independent,
    unlike sequential Gram-Schmidt), taken with numpy's eigh, whose
    ascending eigenvalues the subspace keeps; the rank cutoff is tol times
    the largest.
    """
    ops = _operator_stack(generators)
    shape = ops.blocks.shape[1:]
    flat = ops.blocks.reshape(len(ops.blocks), -1)
    w, v = np.linalg.eigh(flat.conj() @ flat.T)
    lam_max = float(w[-1])
    if lam_max <= 0.0:
        warnings.warn("all generators are numerically zero; returning the zero subspace")
        return OperatorSubspace(ops.partition, np.zeros((0, *shape), dtype=complex), w)
    keep = np.nonzero(w > tol * lam_max)[0][::-1]
    rows = (v[:, keep] / np.sqrt(w[keep])).T @ flat
    return OperatorSubspace(ops.partition, rows.reshape(-1, *shape), w)


class SubspaceComparison(NamedTuple):
    equal: bool
    max_residual: float


def subspace_equal(v: OperatorSubspace, w: OperatorSubspace,
                   tol: float = DEFAULT_TOL) -> SubspaceComparison:
    """Whether two operator subspaces coincide, with the worst residual seen.

    Equal means the dimensions agree and every basis element of each side
    projects onto the other with residual at most tol.  The residuals are
    taken with both bases on one partition (_one_partition), so a block
    that one side carries and the other lacks enters them directly.
    """
    if v.ambient_dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    fv, fw = _one_partition(v.operators(), w.operators())
    worst = 0.0
    for a, b in ((fv, fw), (fw, fv)):
        if len(a):
            worst = max(worst, float(_distances(a, b).max()))
    return SubspaceComparison(v.dim == w.dim and worst <= tol, worst)


def _owners(partition: np.ndarray, d: int):
    """(part, pos): index i of range(d) is entry pos[i] of row part[i] of
    partition.  Both have length d + 1, the last entry standing for the
    padding index -1."""
    part = np.zeros(d + 1, dtype=np.intp)
    pos = np.zeros(d + 1, dtype=np.intp)
    part[partition] = np.arange(len(partition))[:, None]
    pos[partition] = np.arange(partition.shape[1])
    return part, pos


def _refines(fine: np.ndarray, coarse: np.ndarray, d: int) -> bool:
    """Whether every part of fine lies inside one part of coarse."""
    own = _owners(coarse, d)[0][fine]
    return bool(((own == own[:, :1]) | (fine < 0)).all())


def _lift(ops: BlockOperators, onto: np.ndarray) -> np.ndarray:
    """The blocks of ops on the partition onto, which ops.partition refines:
    each block is written into the part of onto that holds it."""
    fine = ops.partition
    part, pos = _owners(onto, ops.ambient_dim)
    valid = fine >= 0
    # an entry in a padded row or column goes to a scratch part, cut off below
    into = np.where(valid[:, :, None] & valid[:, None, :], part[fine[:, :1, None]], len(onto))
    at = pos[fine]
    size = onto.shape[1]
    out = np.zeros((len(ops.blocks), len(onto) + 1, size, size), dtype=ops.blocks.dtype)
    out[:, into, at[:, :, None], at[:, None, :]] = ops.blocks
    return out[:, :-1]


def _one_partition(a: BlockOperators, b: BlockOperators):
    """The blocks of a and b, flattened per operator, on one partition: the
    coarser of theirs, the finer one lifted onto it, or one block when
    neither refines the other."""
    fa, fb = a.blocks, b.blocks
    if not np.array_equal(a.partition, b.partition):
        d = a.ambient_dim
        if _refines(a.partition, b.partition, d):
            fa = _lift(a, b.partition)
        elif _refines(b.partition, a.partition, d):
            fb = _lift(b, a.partition)
        else:
            fa, fb = _lift(a, np.arange(d)[None]), _lift(b, np.arange(d)[None])
    entries = math.prod(fa.shape[1:])  # explicit: a stack may be empty
    return fa.reshape(len(fa), entries), fb.reshape(len(fb), entries)


def _distances(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Frobenius distance from each row of fa to the span of the orthonormal
    rows of fb, operators flattened on one partition (_one_partition): the
    norm of a - coef b, the operator less its projection, never a
    difference of squared norms."""
    coef = fa @ fb.conj().T  # coef[i, j] = <b_j, a_i>
    return np.linalg.norm(fa - coef @ fb, axis=1)
