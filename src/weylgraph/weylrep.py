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

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (DEFAULT_TOL, as_operator, cluster_eigenvalues, dft_unitary,
                     frob, frobs, tensor_product, unit_roots)
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
    of elements (0 for a single one); values[c, j] is exp(2 pi i roots[c, j]
    / (N L)), N the order of the table's roots."""
    positions: np.ndarray  # (cycles, L) int
    values: np.ndarray     # (cycles, L) complex
    vectors: np.ndarray    # (cycles, L, L) complex
    owner: np.ndarray      # (cycles,) int
    roots: np.ndarray      # (cycles, L) int


@dataclass(frozen=True)
class ClusterColumns:
    """The orthonormal columns of a run of spectral clusters, kept on their
    cycles: column a holds entries[starts[a]:starts[a+1]] in the rows
    rows[starts[a]:starts[a+1]] of C^d and is zero elsewhere, and cluster j
    owns the columns tops[j]:tops[j+1]."""
    d: int
    rows: np.ndarray     # int
    entries: np.ndarray  # complex
    starts: np.ndarray   # int, one per column, increasing from 0
    tops: np.ndarray     # int, one per cluster and one more, increasing from 0

    @classmethod
    def of(cls, b: np.ndarray, tops=None) -> ClusterColumns:
        """The nonzero entries of the d x rank isometry b, column by column,
        as one cluster, or as the clusters tops.  ValueError for a column
        with none: a sum over its empty segment (np.add.reduceat) would read
        the next column's first entry."""
        column, rows = np.nonzero(b.T)
        counts = np.bincount(column, minlength=b.shape[1])
        if not counts.all():
            raise ValueError("a column of the isometry has no nonzero entry")
        return cls(b.shape[0], rows, b[rows, column], np.cumsum(counts) - counts,
                   np.asarray([0, b.shape[1]] if tops is None else tops, dtype=np.intp))

    @property
    def rank(self) -> int:
        return len(self.starts)

    @cached_property
    def ranks(self) -> np.ndarray:
        return np.diff(self.tops)

    @cached_property
    def ends(self) -> np.ndarray:
        """Cluster j owns the entries ends[j]:ends[j+1]."""
        return np.append(self.starts, len(self.rows))[self.tops]

    def dense(self) -> np.ndarray:
        """The columns as a d x rank isometry."""
        column = np.searchsorted(self.starts, np.arange(len(self.rows)), side='right') - 1
        out = np.zeros((self.d, self.rank), dtype=complex)
        out[self.rows, column] = self.entries
        return out

    def cluster(self, j: int) -> ClusterColumns:
        """The columns of cluster j, as views of these."""
        lo, hi = self.ends[j], self.ends[j + 1]
        return ClusterColumns(self.d, self.rows[lo:hi], self.entries[lo:hi],
                              self.starts[self.tops[j]:self.tops[j + 1]] - lo,
                              np.array([0, self.ranks[j]]))

    def select(self, cs) -> ClusterColumns:
        """The columns of the clusters cs, one after another, in arrays of
        their own, so that keeping them does not keep these."""
        cs = np.asarray(cs, dtype=np.intp)
        lo, hi, ranks = self.ends[cs], self.ends[cs + 1], self.ranks[cs]
        # column k of the selection starts at its old start less the entries skipped
        skipped = np.repeat(lo - (np.cumsum(hi - lo) - (hi - lo)), ranks)
        at = _ranges(lo, hi)
        return ClusterColumns(self.d, self.rows[at], self.entries[at],
                              self.starts[_ranges(self.tops[cs], self.tops[cs + 1])] - skipped,
                              np.concatenate(([0], np.cumsum(ranks))))


class ClassBlocks(NamedTuple):
    """The class weights W_k = sum phase phase* of a monomial table (the sum
    over the elements that carry pi_k) on the diagonal blocks of a partition
    of range(d), with the measured size of what the blocks leave out.

    cells[k, a] holds the flat indices pi_k[i] d + pi_k[j] of x, and
    weights[k, a] the entries W_k[i, j], for i, j in block a; out[a] holds
    the flat indices i d + j.  off is (1/E) sum_k max|W_k| off the blocks,
    over the E elements of the table."""
    out: np.ndarray      # (count, size, size) int
    cells: np.ndarray    # (classes, count, size, size) int
    weights: np.ndarray  # (classes, count, size, size) complex
    off: float


@dataclass(frozen=True)
class CycleClusters:
    """The spectral clusters of a stack of monomial unitaries, columns kept
    on their cycles.

    Clusters are numbered across the stack, element by element and, within
    an element, in angle order: element e owns the clusters first[e]:first[e+1].
    values[c] is the unimodular representative of cluster c.  columns holds
    each eigenvector of the stack once, sorted by cluster; column k lies on
    a cycle of length lengths[k] and has the eigenvalue
    exp(2 pi i roots[k] / (N lengths[k])), N the order of the table's roots.
    """
    first: np.ndarray
    values: np.ndarray
    columns: ClusterColumns
    roots: np.ndarray
    lengths: np.ndarray

    def exact(self, order: int):
        """Each cluster's eigenvalues in integers, read from the columns'
        roots over order L: (top, bottom, single), where cluster c holds
        exp(2 pi i top[c] / bottom[c]), the fraction in lowest terms, and
        single[c] is whether it holds no other exact eigenvalue."""
        bottom = order * self.lengths
        top = self.roots % bottom
        common = np.gcd(top, bottom)
        top, bottom = top // common, bottom // common
        heads, ranks = self.columns.tops[:-1], self.columns.ranks
        other = (top != np.repeat(top[heads], ranks)) | (bottom != np.repeat(bottom[heads], ranks))
        return top[heads], bottom[heads], ~np.logical_or.reduceat(other, heads)

    def traces(self, g: np.ndarray) -> np.ndarray:
        """Tr(g* P_c g) for each cluster projection P_c and a (d, r) factor
        g: the sum over its columns v of ||v* g||^2, read from each column
        of g on the columns' cycles."""
        forms = np.zeros(self.columns.rank)
        for r in range(g.shape[1]):
            # the conjugate of v* g[:, r], of the same modulus
            proj = np.add.reduceat(np.take(g[:, r].conj(), self.columns.rows) * self.columns.entries,
                                   self.columns.starts)
            forms += proj.real ** 2 + proj.imag ** 2
        count = len(self.values)
        return np.bincount(np.repeat(np.arange(count), self.columns.ranks), forms, count)


@dataclass(frozen=True)
class GroupAction:
    """The n^2 unitaries piS^p piM^q as a monomial table of integers.

    Row i of piS^p piM^q holds exp(2 pi i expo[p, q, i] / order) in column
    perm[p, q, i] and is zero elsewhere, so conjugating by a group element
    is an index gather, and every phase is an order-th root of unity.
    """
    perm: np.ndarray  # shape (n, n, d), int
    expo: np.ndarray  # shape (n, n, d), int
    order: int
    _class_blocks: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    @cached_property
    def phase(self) -> np.ndarray:
        """The phases exp(2 pi i expo / order), shape (n, n, d), evaluated
        once per table: change a table by dataclasses.replace, not in
        place."""
        return _root(self.expo, self.order)

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
    def unit_classes(self):
        """The table split into unit classes {(a p mod n, a q mod n) :
        gcd(a, n) = 1}, certified in integers: (first, power, shift), in
        (p, q) order.  first[e] is the first element of the class of e, and
        e is power[e] times it.  For e != first[e], with g = first[e] and
        a = power[e], shift[e] is the c with u_e = w^c u_g^a, w the table's
        root exp(2 pi i / order): perm[e] equals perm[g] composed a times,
        and expo[e] equals the exponents of u_g^a plus c mod order.  It is
        -1 where the table does not prove that identity, and 0 at e = g.
        The powers u_g^2, u_g^3, ... of every first element are composed
        one factor u_g at a time, as index compositions and exponent sums,
        and the members with power a are compared with u_g^a.

        Computed once per table: change a table by dataclasses.replace, not
        in place."""
        n, _, d = self.perm.shape
        size = n * n
        units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
        p, q = np.divmod(np.arange(size), n)
        images = units[:, None] * p % n * n + units[:, None] * q % n
        first = images.min(axis=0)
        power = units[(images[:, first] == np.arange(size)).argmax(axis=0)]
        shift = np.zeros(size, dtype=np.intp)
        members = np.flatnonzero(first != np.arange(size))
        if not members.size:
            return first, power, shift
        perm, expo = self.perm.reshape(-1, d), self.expo.reshape(-1, d) % self.order
        heads = np.flatnonzero(np.bincount(first[members], minlength=size))
        row = np.searchsorted(heads, first)
        # (perms, sums)[r] is u_g^a for g = heads[r]: u_g^a = u_g^(a-1) u_g,
        # the rows of u_g read through perms, at offset d r
        at = d * np.arange(len(heads))[:, None]
        step, add = (perm[heads] + at).ravel(), expo[heads].ravel()
        perms, sums = perm[heads] + at, expo[heads]
        for a in range(2, int(power[members].max()) + 1):
            perms, sums = step[perms], sums + add[perms]
            mine = members[power[members] == a]
            r = row[mine]
            diff = (expo[mine] - sums[r]) % self.order
            proved = (perm[mine] + at[r] == perms[r]).all(axis=1) & (diff == diff[:, :1]).all(axis=1)
            shift[mine] = np.where(proved, diff[:, 0], -1)
        return first, power, shift

    def class_blocks(self, blocks) -> ClassBlocks:
        """The class weights W_k on the diagonal blocks of a partition of
        range(d), given as the rows of the (count, size) index array blocks.

        Computed once per table and partition, one transient d x d W_k per
        class: change a table by dataclasses.replace, not in place.
        ValueError if the rows of blocks do not partition range(d)."""
        blocks = np.asarray(blocks, dtype=np.intp)
        key = (blocks.shape, blocks.tobytes())
        if key not in self._class_blocks:
            self._class_blocks[key] = self._weigh_blocks(blocks)
        return self._class_blocks[key]

    def _weigh_blocks(self, blocks: np.ndarray) -> ClassBlocks:
        d = self.perm.shape[-1]
        if blocks.ndim != 2 or not np.array_equal(np.sort(blocks, axis=None), np.arange(d)):
            raise ValueError("the rows of blocks do not partition range(d)")
        perms, label = self.grouping
        phase = self.phase.reshape(-1, d)
        inside = blocks[:, :, None], blocks[:, None, :]
        weights, off = [], 0.0
        for k in range(len(perms)):
            members = phase[label == k]
            dense = members.T @ members.conj()
            weights.append(dense[inside])
            dense[inside] = 0.0
            off += float(np.abs(dense).max())
        rows = perms[:, blocks]
        return ClassBlocks(blocks[:, :, None] * d + blocks[:, None, :],
                           rows[..., :, None] * d + rows[..., None, :],
                           np.array(weights), off / len(label))

    def average(self, x: np.ndarray, blocks) -> tuple:
        """(1/E) sum over the E elements of the table of u x u*, kept on the
        diagonal blocks of a partition of range(d), as (average, bound).

        The elements sharing pi_k contribute W_k o x[pi_k, pi_k] (entrywise
        product); on the blocks that is one gather of x for all classes at
        once (class_blocks) and a weighted sum over the classes, and the
        average is zero off them.  There the dense sum is
        (1/E) sum_k W_k o x[pi_k, pi_k] over the off-block entries, whose
        Frobenius norm is at most the bound (1/E) sum_k max|W_k off| ||x||_F.
        With blocks a single row, the average is the dense sum and the
        bound 0.

        x may be a (k, d, d) stack, averaged in the same gather and scatter,
        with a bound per sample, the array off ||x_j||_F; one d x d matrix
        is a stack of one, with a float bound."""
        classes = self.class_blocks(blocks)
        stack = x.reshape(-1, x.shape[-1] ** 2)
        terms = np.take(stack, classes.cells, axis=1)
        terms *= classes.weights
        out = np.zeros(stack.shape, dtype=complex)
        out[:, classes.out.ravel()] = terms.sum(axis=1).reshape(len(stack), -1) / self.perm[..., 0].size
        bound = classes.off * frobs(stack)
        return out.reshape(x.shape), (float(bound[0]) if x.ndim == 2 else bound)

    def orbit_diagonals(self, v: np.ndarray) -> np.ndarray:
        """Diagonals of u diag(v) u* for every u = piS^p piM^q, shape (n, n, d):
        u is monomial with phases of modulus 1, so entry i is v[perm[i]],
        one gather."""
        return np.asarray(v)[self.perm]

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

    def _rows(self, p, q, table: np.ndarray):
        """perm and the rows of table (expo or phase) of the elements (p, q),
        broadcast and raveled, one row per element."""
        d = self.perm.shape[-1]
        return self.perm[p, q].reshape(-1, d), table[p, q].reshape(-1, d)

    def eigenpairs(self, p, q) -> list:
        """Eigenpairs of piS^p piM^q, one CycleBlock per cycle length L.

        With (u v)[i] = w^expo[i] v[perm[i]], w = exp(2 pi i / N) for N =
        order, a cycle i_0 -> perm[i_0] -> ... of length L, with exponent
        prefix sums C_m = expo[i_0] + ... + expo[i_(m-1)] and total E = C_L,
        contributes the L roots lambda_j = exp(2 pi i (E + N j) / (N L)) of
        lambda^L = w^E, each with the eigenvector on the cycle
        v[i_m] = lambda_j^m w^(-C_m) / sqrt(L) = exp(2 pi i t / (N L)) / sqrt(L)
        for the integer t = m (E + N j) - L C_m: every entry is evaluated
        from its exact exponent, so it has modulus 1/sqrt(L).
        p and q may be index arrays: the elements (p, q), broadcast and
        raveled, are stacked, and their cycles found together.  The cycles
        come from pointer doubling and every cycle of one length is walked at
        once, so no step loops over cycles.  verify takes every spectrum from
        here; Schur (spectral_projections) is the tests' oracle.  ValueError if
        a perm is not a permutation.
        """
        perm, expo = self._rows(p, q, self.expo)
        count, d = perm.shape
        if not (np.sort(perm, axis=1) == np.arange(d)).all():
            raise ValueError("perm is not a permutation of range(d)")
        # one permutation of range(count d): element e acts on e d .. e d + d - 1
        flat = (perm + d * np.arange(count)[:, None]).ravel()
        expo = expo.ravel() % self.order
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
            steps = expo[positions]
            prefix = np.cumsum(steps, axis=1) - steps
            # roots[c, j] = E + N j, the exponent of lambda_j over N L
            roots = (prefix[:, -1] + steps[:, -1])[:, None] + self.order * np.arange(size)
            exponents = np.arange(size)[:, None] * roots[:, None, :] - size * prefix[:, :, None]
            vectors = _root(exponents, self.order * size) / np.sqrt(size)
            owner = positions[:, 0] // d
            blocks.append(CycleBlock(positions - d * owner[:, None],
                                     _root(roots, self.order * size), vectors, owner, roots))
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
        ValueError if that bound exceeds 100 tol d for an element.  The
        blocks are then read out once, into the columns of the clusters
        sorted by cluster (CycleClusters.columns), and not kept.
        """
        perm, phase = self._rows(p, q, self.phase)
        count, d = perm.shape
        blocks = self.eigenpairs(p, q)
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
        # each eigenvector once, a column on its cycle, the columns sorted by
        # cluster and, within one, kept in the order of the blocks
        by_cluster = np.argsort(flat, kind='stable')
        lengths = np.concatenate([np.full(b.values.size, b.values.shape[1]) for b in blocks])
        rows = np.concatenate([np.broadcast_to(b.positions[:, None, :], b.vectors.shape).ravel()
                               for b in blocks])
        entries = np.concatenate([b.vectors.transpose(0, 2, 1).ravel() for b in blocks])
        start, lengths = (np.cumsum(lengths) - lengths)[by_cluster], lengths[by_cluster]
        at = _ranges(start, start + lengths)
        tops = np.searchsorted(flat[by_cluster], np.arange(len(values) + 1))
        columns = ClusterColumns(d, rows[at], entries[at], np.cumsum(lengths) - lengths, tops)
        roots = np.concatenate([b.roots.ravel() for b in blocks])[by_cluster]
        return CycleClusters(first, values, columns, roots, lengths)

    @property
    def nbytes(self) -> int:
        return self.perm.nbytes + self.expo.nbytes


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


def _root(exponent, order: int) -> np.ndarray:
    """exp(2 pi i exponent / order), the exponent reduced mod order first."""
    return np.exp(2j * np.pi * (exponent % order) / order)


def _powers(n: int, u: np.ndarray):
    """Monomial tables (perm, expo) of u^0 .. u^(n-1) for a generator u
    whose phases are n-th roots of unity: row i of u holds
    exp(2 pi i expo[i] / n) in column perm[i], read off its largest entry
    as the angle there in steps of 2 pi / n, rounded.  Row i of A u is the
    phase of A at i times row perm_A[i] of u, so the permutations compose
    and the exponents add mod n."""
    perm = np.argmax(np.abs(u), axis=1)
    expo = np.rint(np.angle(u[np.arange(len(u)), perm]) * n / (2 * np.pi)).astype(np.intp)
    perms = [np.arange(len(u))]
    for _ in range(n - 1):
        perms.append(perm[perms[-1]])
    steps = expo[np.array(perms)]
    return np.array(perms), (np.cumsum(steps, axis=0) - steps) % n


def element_unitaries(n: int, pi_s: np.ndarray, pi_m: np.ndarray) -> GroupAction:
    """All n^2 products piS^p piM^q, indexed [p, q], composed as integers:
    ValueError if the monomial table misses a generator by more than
    DEFAULT_TOL, as it does for an entry that is not an n-th root of unity."""
    s_perm, s_expo = _powers(n, pi_s)
    m_perm, m_expo = _powers(n, pi_m)
    q, rows = np.arange(n)[None, :, None], s_perm[:, None, :]
    action = GroupAction(m_perm[q, rows], (s_expo[:, None, :] + m_expo[q, rows]) % n, n)
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
