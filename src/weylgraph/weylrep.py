"""Shift and clock operators on C^n, the entangled basis grid on C^(n*n), and
the reducible unitary action they induce there, kept as one monomial table
indexed by (p, q): conjugation u x u* cancels the central phase w^r, so the
label of piS^p piM^q is all of the group that the graphs see.

The grid vector h[k][0] is the Fourier-weighted diagonal ket
(1/sqrt(n)) sum_j w^(kj) |jj> with w = exp(2*pi*i/n), and h[k][j] applies the
shift to the second factor j times.  The induced action permutes the k index
and leaves each fixed-j block invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (DEFAULT_TOL, as_operator, cluster_eigenvalues, dft_unitary,
                     frob, tensor_product, unit_roots)
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
    amp = dft_unitary(n)
    idx = np.arange(n)
    j, a = idx[:, None], idx[None, :]
    vectors = np.zeros((n, n, n, n), dtype=complex)
    # h_k^j carries amp[k, a] on |a, a+j>: shifting the second factor rolls it
    vectors[:, j, a, (a + j) % n] = amp[:, None, :]
    return EntangledBasis(n, vectors.reshape(n, n, n * n))


def rep_generators(n: int, basis: EntangledBasis | None = None):
    """Images of S and M acting on the grid: k -> k+1 and k -> w^k, block-wise.

    Built by conjugating S (x) I and M (x) I through the change of basis
    W = basis.flat(), so that column k*n+j of the grid plays the role of
    |k> (x) |j>.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    w = (basis if basis is not None else entangled_basis(n)).flat()
    s, m = shift_clock(n)
    eye = np.eye(n, dtype=complex)
    wt = w.conj().T
    pi_s = w @ tensor_product(s, eye) @ wt
    pi_m = w @ tensor_product(m, eye) @ wt
    return pi_s, pi_m


class CycleBlock(NamedTuple):
    """The eigenpairs on the cycles of one length L of monomial unitaries.

    positions[c] lists cycle c as i_0, perm[i_0], ..., starting at its least
    index; vectors[c, :, j] is the eigenvector of values[c, j] on those
    indices, zero elsewhere; owner[c] is the element of the cycle in a stack
    of elements (0 for a single one)."""
    positions: np.ndarray  # (cycles, L) int
    values: np.ndarray     # (cycles, L) complex
    vectors: np.ndarray    # (cycles, L, L) complex
    owner: np.ndarray      # (cycles,) int


class ClusterColumns(NamedTuple):
    """The orthonormal columns of one spectral cluster, kept on their cycles:
    column a holds entries[starts[a]:starts[a+1]] in the rows
    rows[starts[a]:starts[a+1]] of C^d and is zero elsewhere."""
    d: int
    rows: np.ndarray     # int
    entries: np.ndarray  # complex
    starts: np.ndarray   # int, one per column, increasing from 0

    @property
    def rank(self) -> int:
        return len(self.starts)

    def dense(self) -> np.ndarray:
        """The columns as a d x rank isometry."""
        column = np.searchsorted(self.starts, np.arange(len(self.rows)), side='right') - 1
        out = np.zeros((self.d, self.rank), dtype=complex)
        out[self.rows, column] = self.entries
        return out


@dataclass(frozen=True)
class CycleClusters:
    """The spectral clusters of a stack of monomial unitaries, columns kept
    on their cycles.

    Clusters are numbered across the stack, element by element and, within
    an element, in angle order: element e owns the clusters first[e]:first[e+1].
    values[c] is the unimodular representative of cluster c, and
    labels[b][c, j] the cluster of the eigenvector blocks[b].vectors[c, :, j].
    """
    d: int
    first: np.ndarray
    values: np.ndarray
    blocks: list
    labels: list

    @cached_property
    def ranks(self) -> np.ndarray:
        return np.bincount(np.concatenate([lab.ravel() for lab in self.labels]),
                           minlength=len(self.values))

    def traces(self, x: np.ndarray) -> np.ndarray:
        """Re Tr(x P_c) for each cluster projection P_c: the sum over its
        columns v of Re <v, x v>, read from x[pos, pos] on each cycle."""
        out = np.zeros(len(self.values))
        for b, lab in zip(self.blocks, self.labels):
            sub = x[b.positions[:, :, None], b.positions[:, None, :]]
            forms = (b.vectors.conj() * (sub @ b.vectors)).sum(axis=1).real
            out += np.bincount(lab.ravel(), forms.ravel(), minlength=len(self.values))
        return out

    def columns(self, c: int) -> ClusterColumns:
        """The columns of cluster c on their cycles, as views of the stack."""
        rows, entries, heads, ends, tops = self._sorted
        lo, hi = ends[c], ends[c + 1]
        return ClusterColumns(self.d, rows[lo:hi], entries[lo:hi],
                              heads[tops[c]:tops[c + 1]] - lo)

    def select(self, cs):
        """The columns of the clusters cs, one after another, in arrays of
        their own, so that keeping them does not keep the stack: (columns,
        tops), where cluster cs[j] owns the columns tops[j]:tops[j+1] of the
        ClusterColumns columns."""
        rows, entries, heads, ends, tops = self._sorted
        cs = np.asarray(cs, dtype=np.intp)
        ends, tops = np.asarray(ends), np.asarray(tops)
        lo, hi = ends[cs], ends[cs + 1]
        ranks = tops[cs + 1] - tops[cs]
        # column k of the selection starts at heads[k] less the entries skipped
        skipped = np.repeat(lo - (np.cumsum(hi - lo) - (hi - lo)), ranks)
        at = _ranges(lo, hi)
        return (ClusterColumns(self.d, rows[at], entries[at],
                               heads[_ranges(tops[cs], tops[cs + 1])] - skipped),
                np.concatenate(([0], np.cumsum(ranks))))

    def overlaps(self, columns: list, cs) -> np.ndarray:
        """||B_j* C_j||_F^2 for each pair of a ClusterColumns B_j = columns[j]
        and the columns C_j of cluster cs[j] of this stack, in one gather:
        each entry of B_j meets the entries of C_j in its own row, which
        _by_row holds, and the products are summed into the blocks B_j* C_j
        by one bincount."""
        values, slots, _ = self._by_row
        cs = np.asarray(cs, dtype=np.intp)
        count = len(columns)
        sizes = np.array([len(b.rows) for b in columns], dtype=np.intp)
        ranks = np.array([b.rank for b in columns], dtype=np.intp)
        pair = np.repeat(np.arange(count), sizes)
        # the column of each entry, counted across all the B_j
        mark = np.zeros(len(pair), dtype=np.intp)
        mark[np.concatenate([b.starts for b in columns])
             + np.repeat(np.cumsum(sizes) - sizes, ranks)] = 1
        width = self.ranks[cs]
        cells = ranks * width
        # block j, B_j* C_j row by row, starts at cell offset[j]; its row a
        # is column a + skipped[j] of all the B_j
        offset = np.cumsum(cells) - cells
        skipped = np.cumsum(ranks) - ranks
        at = cs[pair] * self.d + np.concatenate([b.rows for b in columns])
        cell = (offset - skipped * width)[pair] + (np.cumsum(mark) - 1) * width[pair]
        cell = cell[:, None] + slots[at]
        prod = np.concatenate([b.entries for b in columns]).conj()[:, None] * values[at]
        # real and imaginary parts side by side, summed in one bincount
        sums = np.bincount((2 * cell[:, :, None] + (0, 1)).ravel(),
                           prod.view(np.float64).ravel(), 2 * int(cells.sum()))
        return np.add.reduceat(sums ** 2, 2 * offset)

    @property
    def shared(self) -> np.ndarray:
        """shared[c]: whether two columns of cluster c lie on one cycle."""
        return self._by_row[2]

    @cached_property
    def _by_row(self):
        """Every cluster's columns read by row, as (values, slots, shared):
        row i of cluster c is row c d + i of the (clusters d, m) arrays,
        whose slot j holds the j-th column of c through row i, as its entry
        there in values and its index within the cluster in slots (0 and 0
        for none); m is the most columns of one cluster through one row, and
        shared[c] tells whether two columns of c pass through one row.  The
        columns of one cluster lie on distinct cycles, so m is 1, unless a
        tol wide enough to join two eigenvalues of one cycle puts two of its
        eigenvectors in one cluster."""
        rows, entries, heads, _, tops = self._sorted
        ranks = self.ranks
        count = len(self.values)
        owner = np.repeat(np.arange(count), ranks)
        # a column's first row is the least index of its cycle
        cycle = owner * self.d + rows[heads]
        order = np.argsort(cycle, kind='stable')
        run = np.concatenate(([True], cycle[order][1:] != cycle[order][:-1]))
        slot = np.empty(len(heads), dtype=np.intp)
        slot[order] = np.arange(len(heads)) - np.maximum.accumulate(
            np.where(run, np.arange(len(heads)), 0))
        width = int(slot.max()) + 1
        size = np.diff(np.append(heads, len(rows)))
        at = (np.repeat(owner * self.d, size) + rows) * width + np.repeat(slot, size)
        values = np.zeros(count * self.d * width, dtype=complex)
        values[at] = entries
        slots = np.zeros(count * self.d * width, dtype=np.intp)
        slots[at] = np.repeat(np.arange(len(heads)) - np.asarray(tops)[owner], size)
        shared = np.bincount(owner, slot > 0, count) > 0
        return (values.reshape(-1, width), slots.reshape(-1, width), shared)

    @cached_property
    def _sorted(self):
        """The entries of every column, grouped by cluster, as (rows,
        entries, heads, ends, tops): cluster c owns the entries
        ends[c]:ends[c+1] and the columns tops[c]:tops[c+1], and column k
        starts at entry heads[k]."""
        label = np.concatenate([lab.ravel() for lab in self.labels])
        size = np.concatenate([np.full(lab.size, lab.shape[1]) for lab in self.labels])
        rows = np.concatenate([np.broadcast_to(b.positions[:, None, :], b.vectors.shape).ravel()
                               for b in self.blocks])
        entries = np.concatenate([b.vectors.transpose(0, 2, 1).ravel() for b in self.blocks])
        # the columns sorted by cluster, stably, each with its entries
        order = np.argsort(label, kind='stable')
        start, size = (np.cumsum(size) - size)[order], size[order]
        at = _ranges(start, start + size)
        heads = np.cumsum(size) - size
        tops = np.concatenate(([0], np.cumsum(self.ranks)))
        ends = np.append(heads, len(at))[tops]
        return rows[at], entries[at], heads, ends.tolist(), tops.tolist()


@dataclass(frozen=True)
class GroupAction:
    """The n^2 unitaries piS^p piM^q as a monomial table.

    Row i of piS^p piM^q holds phase[p, q, i] in column perm[p, q, i] and is
    zero elsewhere, so conjugating by a group element is an index gather.
    """
    perm: np.ndarray   # shape (n, n, d), int
    phase: np.ndarray  # shape (n, n, d), complex

    @cached_property
    def grouping(self):
        """The table grouped by permutation: (perms, label), where perms[k]
        is the k-th distinct permutation in sorted order and label[e] the
        class of the e-th element in (p, q) order.  The rows are compared as
        big-endian byte strings, whose byte order is the numeric order, so
        the classes come out as np.unique(axis=0) sorts them, at a tenth of
        its cost.

        Computed once per table: change a table by dataclasses.replace, not in
        place."""
        d = self.perm.shape[-1]
        flat = self.perm.reshape(-1, d)
        keys = np.ascontiguousarray(flat, dtype='>i8').view(np.dtype((np.void, 8 * d)))
        _, first, label = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        return flat[first], label.ravel()

    @cached_property
    def classes(self):
        """The table grouped by permutation: (perms, weights), where perms
        are those of grouping and weights[k] the d x d matrix
        W_k = sum phase phase* over the elements that carry perms[k]."""
        d = self.perm.shape[-1]
        perms, label = self.grouping
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

    def cycle_entries(self) -> np.ndarray:
        """The eigenvector entries that eigenpairs holds for each element, in
        (p, q) order: a cycle of length L has L eigenvectors of L entries, so
        an element holds the sum of L^2 over its cycles.  Elements of one
        class share their cycles, so one member of each is walked."""
        perms, label = self.grouping
        count, d = perms.shape
        low = _least_on_cycles((perms + d * np.arange(count)[:, None]).ravel(), d)
        return np.bincount(low)[low].reshape(count, d).sum(axis=1)[label]

    def dense(self, p: int, q: int) -> np.ndarray:
        """The unitary piS^p piM^q as a dense matrix."""
        d = self.perm.shape[-1]
        u = np.zeros((d, d), dtype=complex)
        u[np.arange(d), self.perm[p, q]] = self.phase[p, q]
        return u

    def _rows(self, p, q):
        """perm and phase of the elements (p, q), broadcast and raveled, one
        row per element."""
        d = self.perm.shape[-1]
        return self.perm[p, q].reshape(-1, d), self.phase[p, q].reshape(-1, d)

    def eigenpairs(self, p, q, tol: float = DEFAULT_TOL) -> list:
        """Eigenpairs of piS^p piM^q, one CycleBlock per cycle length L.

        With (u v)[i] = phase[i] v[perm[i]], a cycle i_0 -> perm[i_0] -> ...
        of length L and phase product Phi contributes the L roots of
        lambda^L = Phi, each with an eigenvector on the cycle given by
        v[i_0] = 1/sqrt(L) and v[i_(m+1)] = lambda v[i_m] / phase[i_m].
        p and q may be index arrays: the elements (p, q), broadcast and
        raveled, are stacked, and their cycles found together.  The cycles
        come from pointer doubling and every cycle of one length is walked at
        once, so no step loops over cycles.  verify takes every spectrum from
        here; Schur (spectral_projections) is the tests' oracle.  ValueError if
        a perm is not a permutation or a u is not unitary within tol, in O(d).
        """
        perm, phase = self._rows(p, q)
        count, d = perm.shape
        if not (np.sort(perm, axis=1) == np.arange(d)).all():
            raise ValueError("perm is not a permutation of range(d)")
        # u* u = diag(|phase|^2)
        if (np.linalg.norm(np.abs(phase) ** 2 - 1.0, axis=1) > tol * d).any():
            raise ValueError("input is not unitary within tolerance")
        # one permutation of range(count d): element e acts on e d .. e d + d - 1
        flat = (perm + d * np.arange(count)[:, None]).ravel()
        phase = phase.ravel()
        low = _least_on_cycles(flat, d)
        starts = np.flatnonzero(low == np.arange(flat.size))
        sizes = np.bincount(low)[starts]
        blocks = []
        for size in sorted(set(sizes.tolist())):
            # positions[:, m] = perm^m(start), doubling the known columns
            positions, jump = starts[sizes == size, None], flat
            while positions.shape[1] < size:
                positions = np.concatenate((positions, jump[positions]), axis=1)
                jump = jump[jump]
            positions = positions[:, :size]
            steps = phase[positions]
            # row m holds v[i_m] = lambda^m / (phase[i_0] ... phase[i_(m-1)])
            walk = np.cumprod(steps, axis=1)
            total = walk[:, -1:]
            lam = np.abs(total) ** (1.0 / size) * np.exp(
                1j * (np.angle(total) + 2.0 * np.pi * np.arange(size)) / size)
            walk = np.sqrt(size) * walk / steps
            vectors = lam[:, None, :] ** np.arange(size)[:, None] / walk[:, :, None]
            owner = positions[:, 0] // d
            blocks.append(CycleBlock(positions - d * owner[:, None], lam, vectors, owner))
        return blocks

    def clusters(self, p, q, tol: float = DEFAULT_TOL) -> CycleClusters:
        """The spectral clusters of piS^p piM^q on its cycle blocks; p and q
        may be index arrays, as in eigenpairs.

        The eigenvalues of each element in eigenpairs are grouped by
        cluster_eigenvalues.  The guard is the gather residual
        R = u V - V Lambda_cluster, read as (u V)[i_m] = phase[i_m] V[i_(m+1)]
        on each cycle, with the orthonormality defect E = V* V - I of every
        block, after checking that the blocks walk the cycles of perm and
        cover range(d) once, so that V is square.  Then
        V Lambda V* - u = -R V* + u (V V* - I), ||V||_2^2 <= 1 + ||E||_2 and
        V V* - I has the singular values of E, so
        ||V Lambda V* - u||_F <= ||R|| sqrt(1 + ||E||) + ||u||_2 ||E||.
        ValueError if that bound exceeds 100 tol d for an element.
        """
        perm, phase = self._rows(p, q)
        count, d = perm.shape
        blocks = self.eigenpairs(p, q, tol)
        covered = np.concatenate([(b.positions + d * b.owner[:, None]).ravel() for b in blocks])
        walks = np.array_equal(np.sort(covered), np.arange(count * d)) and all(
            np.array_equal(perm[b.owner[:, None], b.positions],
                           np.roll(b.positions, -1, axis=1)) for b in blocks)
        if not walks:
            raise ValueError("cycle blocks do not walk the cycles of the permutation")
        # each element's eigenvalues as one row of a stack, so that every
        # element is clustered on its own in one call
        owner = np.concatenate([np.repeat(b.owner, b.values.shape[1]) for b in blocks])
        order = np.argsort(owner, kind='stable')
        spectra = np.concatenate([b.values.ravel() for b in blocks])[order]
        values, stacked = cluster_eigenvalues(spectra.reshape(count, d), tol)
        first = np.append(stacked.min(axis=1), len(values))
        flat = np.empty(order.size, dtype=np.intp)
        flat[order] = stacked.ravel()
        ends = np.cumsum([b.values.size for b in blocks])
        labels = [lab.reshape(b.values.shape)
                  for b, lab in zip(blocks, np.split(flat, ends[:-1]))]
        residual, defect = np.zeros(count), np.zeros(count)
        for b, lab in zip(blocks, labels):
            miss = (phase[b.owner[:, None], b.positions][:, :, None] * np.roll(b.vectors, -1, axis=1)
                    - b.vectors * values[lab][:, None, :])
            gram = b.vectors.conj().transpose(0, 2, 1) @ b.vectors - np.eye(b.vectors.shape[1])
            residual += np.bincount(b.owner, (np.abs(miss) ** 2).sum(axis=(1, 2)), count)
            defect += np.bincount(b.owner, (np.abs(gram) ** 2).sum(axis=(1, 2)), count)
        residual, defect = np.sqrt(residual), np.sqrt(defect)
        bound = residual * np.sqrt(1.0 + defect) + np.abs(phase).max(axis=1) * defect
        if (bound > 100.0 * tol * d).any():
            raise ValueError("spectral decomposition failed to reconstruct the input")
        return CycleClusters(d, first, values, blocks, labels)

    @property
    def nbytes(self) -> int:
        return self.perm.nbytes + self.phase.nbytes


def _least_on_cycles(flat: np.ndarray, d: int) -> np.ndarray:
    """The least index on the cycle of each index of a permutation flat of
    range(count d) whose cycles are at most d long, by pointer doubling:
    after k doublings, low[i] is the least of i, flat[i], ...,
    flat^(2^k - 1)[i]."""
    low, jump = np.arange(flat.size), flat
    for _ in range(int(d - 1).bit_length()):
        low, jump = np.minimum(low, low[jump]), jump[jump]
    return low


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenated ranges lo[j]:hi[j]."""
    size = hi - lo
    return np.repeat(lo - np.cumsum(size) + size, size) + np.arange(int(size.sum()))


def _powers(n: int, u: np.ndarray):
    """Monomial tables (perm, angle) of u^0 .. u^(n-1), read off the largest
    entry in each row of u: row i of u^k holds exp(1j angle[k, i]) in column
    perm[k, i].  Angles add where phases would multiply, so a phase built
    from them is unimodular to roundoff at every power."""
    rows = np.arange(u.shape[0])
    perm = np.argmax(np.abs(u), axis=1)
    angle = np.angle(u[rows, perm])
    perms, angles = [rows], [np.zeros(rows.size)]
    for _ in range(n - 1):
        # row i of A u is phase_A[i] times row perm_A[i] of u
        angles.append(angles[-1] + angle[perms[-1]])
        perms.append(perm[perms[-1]])
    return np.array(perms), np.array(angles)


def element_unitaries(n: int, pi_s: np.ndarray, pi_m: np.ndarray) -> GroupAction:
    """All n^2 products piS^p piM^q, indexed [p, q], via cumulative powers;
    ValueError if the monomial table misses a generator by more than
    DEFAULT_TOL, as it does for an entry that is not unimodular."""
    s_perm, s_angle = _powers(n, pi_s)
    m_perm, m_angle = _powers(n, pi_m)
    q, rows = np.arange(n)[None, :, None], s_perm[:, None, :]
    action = GroupAction(m_perm[q, rows],
                         np.exp(1j * (s_angle[:, None, :] + m_angle[q, rows])))
    if max(frob(action.dense(1, 0) - pi_s), frob(action.dense(0, 1) - pi_m)) > DEFAULT_TOL:
        raise ValueError("generator is not a monomial unitary within tolerance")
    return action


def verify_representation(n: int, tol: float = DEFAULT_TOL,
                          pi_s=None, pi_m=None,
                          basis: EntangledBasis | None = None) -> list:
    """The five structural checks on the induced action, in fixed order.

    Explicit pi_s / pi_m overrides exist so mutation tests can feed in
    tampered generators; failures come back as results, not exceptions.
    Each override, one or both, must be a finite square matrix (ValueError).
    """
    basis = basis if basis is not None else entangled_basis(n)
    if pi_s is None or pi_m is None:
        built = rep_generators(n, basis=basis)
        pi_s = built[0] if pi_s is None else pi_s
        pi_m = built[1] if pi_m is None else pi_m
    pi_s, pi_m = as_operator(pi_s), as_operator(pi_m)
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
