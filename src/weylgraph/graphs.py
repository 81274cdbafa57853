"""Operator graphs from the conjugation orbit of the diagonal-block
projections, the y/h/z generator families, the entangled-code anticliques, and
the span audit that compares all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (DEFAULT_TOL, BlockOperators, DegenerateClusteringError, OperatorSubspace,
                     as_operator, cluster_eigenvalues, frob, span_operators,
                     stack_size, subspace_equal, unit_roots)
from .results import CheckResult, Discrepancy, GraphAudit
from .weylrep import (ClusterColumns, EntangledBasis, GroupAction, element_unitaries,
                      entangled_basis, rep_generators)
from .covariant import q_projection

# two spectral projections are considered the same object below this distance;
# distinct exact projections in scope differ by at least 1 in Frobenius norm
_MATCH_TOL = 1e-6


def y_units(n: int, basis: EntangledBasis | None = None) -> np.ndarray:
    """The units y_ml = sum_k |h_m^k><h_l^k| as the factor y[m, k] = h_m^k,
    shape (n, n, n*n): the superscript is the summed index (FixedPointUnits
    gives the expansion)."""
    basis = basis if basis is not None else entangled_basis(n)
    return basis.vectors.copy()


def _factor_blocks(y: np.ndarray):
    """(partition, part, g) for a unit factor y of shape (n, n, d).

    partition, in the layout of BlockOperators, holds the connected
    components of the supports T_k = union over m of supp y[m, k], read
    from the factor's nonzeros, with an index in no T_k a singleton; part[k]
    is the component that holds T_k, and g[m, k] the entries of y[m, k] on
    it (zero at its padding).  So every term |y[m', k]><y[m, k]| lies in
    the block part[k].  The components come from label propagation: each
    index takes the smallest index that a T_k links it to, until no label
    moves."""
    n, count, d = y.shape
    support = (y != 0).any(axis=0)
    root = np.arange(d)
    while True:
        least = np.where(support, root, d).min(axis=1)
        moved = np.minimum(root, np.where(support, least[:, None], d).min(axis=0))
        if np.array_equal(moved, root):
            break
        root = moved
    index = np.zeros(d, dtype=np.intp)
    roots = np.flatnonzero(root == np.arange(d))
    index[roots] = np.arange(len(roots))
    comp = index[root]
    sizes = np.bincount(comp)
    order = np.argsort(comp, kind='stable')
    partition = np.full((len(sizes), sizes.max()), -1, dtype=np.intp)
    partition[comp[order], np.arange(d) - (np.cumsum(sizes) - sizes)[comp[order]]] = order
    part = comp[support.argmax(axis=1)]  # an empty T_k has a zero column: any part
    cols = partition[part]
    g = np.where(cols >= 0, y[:, np.arange(count)[:, None], cols], 0.0)
    return partition, part, g


def _gather_parts(terms: np.ndarray, part: np.ndarray, count: int) -> np.ndarray:
    """Blocks (family, count, size, size) from the per-k terms (family, k,
    size, size): block c sums the terms of the k with part[k] = c."""
    member = part == np.arange(count)[:, None]
    return (member @ terms.reshape(*terms.shape[:2], -1)).reshape(
        len(terms), count, *terms.shape[2:])


def h_generators(n: int, y: np.ndarray | None = None) -> BlockOperators:
    """The Hermitian family h_0 = sum_m y_mm, h_p = sum_m (y_{m+p,m} + y_{m,m+p}),
    as BlockOperators on the components of the factor's supports
    (_factor_blocks).

    sum_m y_{m+p,m} = sum_k A_pk with A_pk = sum_m |y[m+p, k]><y[m, k]|,
    one n x n x n product per (p, k) on the block of k; h_0 = sum_k A_0k and
    h_p = sum_k (A_pk + A_pk*)."""
    if y is None:
        y = y_units(n)
    partition, part, g = _factor_blocks(y)
    idx = np.arange(n)
    rolled = g[(idx[:, None] + idx) % n]  # rolled[p, m] = g[m + p]
    a = rolled.transpose(0, 2, 3, 1) @ g.conj().transpose(1, 0, 2)
    a[1:] += a[1:].conj().swapaxes(-1, -2)
    return BlockOperators(partition, _gather_parts(a, part, len(partition)))


def z_generators(n: int, y: np.ndarray | None = None) -> BlockOperators:
    """The orbit generators in the y coordinates, z_c = sum_{m,l} w^(c(m-l)) y_ml,
    as BlockOperators on the components of the factor's supports
    (_factor_blocks).

    Expanding y_ml through its factor, z_c = sum_k |u_c^k><u_c^k| with
    u_c^k = sum_m w^(cm) h_m^k: one phase product for every u, then one
    outer product per (c, k) on the block of k.
    """
    if y is None:
        y = y_units(n)
    partition, part, g = _factor_blocks(y)
    idx = np.arange(n)
    u = (unit_roots(n)[np.outer(idx, idx) % n] @ g.reshape(n, -1)).reshape(g.shape)
    return BlockOperators(partition, _gather_parts(u[..., :, None] * u[..., None, :].conj(),
                                                   part, len(partition)))


@dataclass(frozen=True)
class OperatorGraph:
    """Conjugation orbit of a base projection, orthonormalized.

    The span is taken from the class rows, one per permutation class of the
    table: u diag(v) u* is diag(v[perm]) for a monomial u, so the elements
    of one class conjugate a diagonal to the same diagonal, and the class
    rows with the element-to-class label are the orbit's generators."""
    n: int
    s: int
    space: OperatorSubspace
    rows: np.ndarray  # (classes, d): the class rows, in the order of GroupAction.grouping
    label: np.ndarray  # (n^2,): the class of each element in (p, q) order, GroupAction.grouping[1]

    @property
    def provenance(self) -> list:
        """[((p, q), diagonal of u Q_s u*)] in (p, q) order, each diagonal a
        view of its class row, rows[label[p n + q]].  Only the benchmark's
        byte count (perfbench/spans.py, graphs.graph_orbit.bytes) reads it;
        it goes once that metric reads rows."""
        return [(divmod(e, self.n), self.rows[c]) for e, c in enumerate(self.label.tolist())]


def _class_span(rows: np.ndarray, label: np.ndarray, tol: float = DEFAULT_TOL):
    """The span of the diagonals of the elements grouped by label, whose
    class k shares the diagonal rows[k]: that of the rows, each weighted by
    the square root of its class size m, so that its Gram
    diag(sqrt m) G diag(sqrt m) has the nonzero spectrum of the Gram of all
    the diagonals; the space keeps that spectrum padded with one zero per
    further element, as the Gram of all of them has it."""
    space = span_operators(np.sqrt(np.bincount(label))[:, None] * rows, tol)
    spectrum = np.sort(np.concatenate((space.gram_spectrum, np.zeros(len(label) - len(rows)))))
    return replace(space, gram_spectrum=spectrum)


def graph_orbit(n: int, s: int, tol: float = DEFAULT_TOL,
                unitaries: GroupAction | None = None) -> OperatorGraph:
    """Span of u Q_s u* over the n^2 group unitaries, taken from the diagonals
    of the generators (diagonal for monomial u), one class row v[pi_k] per
    permutation class pi_k (GroupAction.grouping), v the diagonal of Q_s;
    the basis is kept as n orthonormal diagonals."""
    if not 0 <= s < n:
        raise ValueError("s out of range")
    if unitaries is None:
        unitaries = element_unitaries(n, *rep_generators(n))
    perms, label = unitaries.grouping
    rows = np.diagonal(q_projection(n, s))[perms]
    return OperatorGraph(n, s, _class_span(rows, label, tol), rows, label)


def anticlique_projector(n: int, k: int, basis: EntangledBasis | None = None) -> np.ndarray:
    """P_k = sum_j |h_k^j><h_k^j|, the rank-n projection onto the k-th code."""
    if not 0 <= k < n:
        raise ValueError("k out of range")
    basis = basis if basis is not None else entangled_basis(n)
    block = basis.code_isometry(k)
    return block @ block.conj().T


@dataclass
class AnticliqueReport:
    """Result of compressing a generator family by a candidate code projection."""
    n: int | None
    k: int | None
    s: int | None
    is_anticlique: bool
    lambdas: dict  # generator label -> compression scalar
    max_residual: float
    rank: int


def check_knill_laflamme(generators, projection, tol: float = DEFAULT_TOL,
                         n: int | None = None, k: int | None = None,
                         s: int | None = None) -> AnticliqueReport:
    """Test P X P = lambda_X P for every labeled generator X.

    generators is an iterable of (label, matrix).  The scalar is extracted as
    Tr(PXP)/Tr(P), the minimizer of the Frobenius residual; by linearity a
    pass certifies the condition on the whole span.  An anticlique further
    requires rank(P) >= 2.
    """
    p = as_operator(projection)
    d = p.shape[0]
    if frob(p - p.conj().T) > tol * d or frob(p @ p - p) > tol * d:
        raise ValueError("not an orthogonal projection within tolerance")
    tr = float(np.trace(p).real)
    rank = int(round(tr))
    if abs(tr - rank) > 1e-8:  # projections in scope have exact integer trace
        raise ValueError("projection trace is not near an integer")
    if rank == 0:
        raise ValueError("zero-rank projection")
    lambdas = {}
    worst = 0.0
    for label, x in generators:
        compressed = p @ as_operator(x) @ p
        lam = complex(np.trace(compressed) / rank)
        worst = max(worst, frob(compressed - lam * p))
        lambdas[label] = lam
    return AnticliqueReport(n, k, s, rank >= 2 and worst <= tol,
                           lambdas, worst, rank)


def compressions(columns: ClusterColumns, rows: np.ndarray):
    """Knill-Laflamme compression of each diagonal generator X = diag(x), x a
    row of rows, by each cluster b of columns: the residuals
    || b* X b - lambda I ||_F and the scalars lambda = Tr(b* X b) / rank,
    each of shape (len(rows), clusters).

    Entry (a, c) of b* X b sums conj(b[i, a]) x[i] b[i, c] over the rows i
    where both columns are nonzero.  So the diagonal is one segment sum of
    |b|^2 x over the columns' entries, for every cluster at once, and a
    cluster has off-diagonal entries only where two of its columns meet in
    a row: never for the columns of one cycle cluster, which lie on distinct
    cycles, nor for the codes, whose columns have disjoint supports.  A
    cluster whose columns do meet, found by a repeated row, takes its
    off-diagonal entries from its dense columns.  The rows are taken in
    chunks: each gather holds at most linalg._STACK_ENTRIES entries (at
    least one row of rows), and so does each block of off-diagonal products
    (at least one column of the cluster): only the results hold a value
    per row and cluster."""
    ranks, heads = columns.ranks, columns.tops[:-1]
    key = np.sort(np.repeat(np.arange(len(ranks)) * columns.d, np.diff(columns.ends)) + columns.rows)
    met = [(j, columns.cluster(j).dense())
           for j in set((key[1:][key[1:] == key[:-1]] // columns.d).tolist())]
    weight = columns.entries.real ** 2 + columns.entries.imag ** 2
    lam = np.empty((len(rows), len(ranks)), dtype=np.result_type(rows, weight))
    squares = np.empty((len(rows), len(ranks)))
    step = stack_size(len(columns.rows))
    for lo in range(0, len(rows), step):
        x = rows[lo:lo + step]
        diag = np.add.reduceat(np.take(x, columns.rows, axis=1) * weight, columns.starts, axis=1)
        lam[lo:lo + step] = np.add.reduceat(diag, heads, axis=1) / ranks
        off = diag - np.repeat(lam[lo:lo + step], ranks, axis=1)
        squares[lo:lo + step] = np.add.reduceat(off.real ** 2 + off.imag ** 2, heads, axis=1)
        for j, b in met:
            rank = b.shape[1]
            width = stack_size(max(columns.d, len(x)) * rank)
            outer = np.zeros(len(x))
            for a in range(0, rank, width):
                pairs = b[:, a:a + width, None].conj() * b[:, None, :]
                blk = (x @ pairs.reshape(columns.d, -1)).reshape(len(x), -1, rank)
                cols = np.arange(blk.shape[1])
                blk[:, cols, a + cols] = 0.0  # the diagonal entries are in diag
                outer += (blk.real ** 2 + blk.imag ** 2).sum(axis=(1, 2))
            squares[lo:lo + step, j] += outer
    return np.sqrt(squares), lam


def kl_suite_extremes(n: int, basis: EntangledBasis, orbits):
    """Worst || P_k X P_k - (1/n) P_k ||_F and |lambda - 1/n| over all (k, s, g)
    for the generators X of the orbit graphs orbits (orbits[s] for the base
    s) and P_k = B_k B_k*, where B_k = basis.code_isometry(k), the columns
    n k .. n k + n - 1 of basis.flat().  Every orbit's class rows are
    compressed by every code in one call (compressions).  B_k* X B_k -
    lambda I is traceless, so its distance to I/n is
    sqrt(residual^2 + n |lambda - 1/n|^2).  Returns (worst, lam_worst,
    (k, s, p, q)), the last naming the first strict maximum in (k, s,
    class) order by the first member of its class, read from the orbit's
    label."""
    counts = [len(g.rows) for g in orbits]
    residual, lam = compressions(ClusterColumns.of(basis.flat(), n * np.arange(n + 1)),
                                 np.concatenate([g.rows for g in orbits]))
    off = np.abs(lam - 1.0 / n)
    dist = np.sqrt(residual ** 2 + n * off ** 2).T
    k, i = divmod(int(np.argmax(dist)), dist.shape[1])
    s = int(np.searchsorted(np.cumsum(counts), i, side='right'))
    member = int(np.flatnonzero(orbits[s].label == i - sum(counts[:s]))[0])
    return float(dist[k, i]), float(off.max()), (k, s, *divmod(member, n))


def kl_corollary_check(n: int, tol: float, basis: EntangledBasis, orbits) -> CheckResult:
    """Report-shaped wrapper around kl_suite_extremes."""
    worst, lam_worst, (k, s, p, q) = kl_suite_extremes(n, basis, orbits)
    return CheckResult('kl_anticliques', worst <= tol, worst,
                       details=f'max |lambda - 1/n| = {lam_worst:.3e} over all (k, s, g); '
                               f'worst at k = {k}, s = {s}, g = ({p}, {q})')


def spectral_match_check(n: int, tol: float, pi_m: np.ndarray, unitaries: GroupAction,
                         basis: EntangledBasis,
                         extra_details: str | None = None) -> CheckResult:
    """The spectral clusters of the clock image must be exactly {(w^k, P_k)}:
    those of the table's element (0, 1) in cycle blocks (GroupAction.clusters),
    plus ||table(0, 1) - pi_m||_F in the residual, so that pi_m is certified.

    A cluster of rank n with isometry B is compared with P_k = C C*, C the
    k-th code isometry, without forming either projector: for two d x n
    isometries ||B B* - C C*||_F = sqrt(2) ||B - C (C* B)||_F, which is zero
    only when C C* = B B*.  A cluster of another rank scores n."""
    clusters = unitaries.clusters(0, 1, tol)
    gap = frob(unitaries.dense(0, 1) - pi_m)
    roots = unit_roots(n)
    worst = 0.0
    parts = []
    if len(clusters.values) != n:
        worst = float(n)
        parts.append(f'expected {n} clusters, found {len(clusters.values)}')
    else:
        for k, rank in enumerate(clusters.columns.ranks.tolist()):
            worst = max(worst, abs(complex(clusters.values[k]) - complex(roots[k])))
            if rank != n:
                worst = max(worst, float(n))
                continue
            b, c = clusters.columns.cluster(k).dense(), basis.code_isometry(k)
            worst = max(worst, 2 ** 0.5 * frob(b - c @ (c.conj().T @ b)))
    if extra_details:
        parts.append(extra_details)
    return CheckResult('spectral_pk_match', worst + gap <= tol, worst + gap,
                       details='; '.join(parts) if parts else None)


@dataclass
class ScanProjection:
    """One deduplicated spectral projection found while scanning the group."""
    element: tuple       # (p, q) where it was first seen
    eigenvalue: complex  # its eigenvalue at the first sighting
    rank: int
    occurrences: int
    compresses: bool     # P X P is scalar on P for every orbit generator
    kl_residual: float
    is_anticlique: bool


@dataclass
class Prop1Scan:
    """Spectral-projection census over the whole group.

    common lists the rank >= 2 projections occurring in the spectral
    decomposition of every group unitary simultaneously, each as the
    ClusterColumns of its first sighting; projections lists
    every distinct projection seen anywhere, each with its compression verdict
    against the orbit graph.  Findings are recorded, never presumed.
    """
    n: int
    s: int
    projections: list
    common: list

    def summary(self) -> str:
        rank2 = sum(1 for r in self.projections if r.rank >= 2)
        anti = sum(1 for r in self.projections if r.is_anticlique)
        return (f'common rank>=2 projections: {len(self.common)}; '
                f'distinct spectral projections: {len(self.projections)} '
                f'({rank2} of rank>=2, {anti} anticliques for the orbit)')


def _apart(rows: np.ndarray, counts: np.ndarray, tol: float) -> np.ndarray:
    """Whether cluster_eigenvalues at tol puts each of the first counts[j]
    entries of row j in a cluster of its own, the rest of the row repeating
    its last entry, whose cluster such copies join; a row that it refuses
    is not apart."""
    try:
        labels = cluster_eigenvalues(rows, tol)[1]
    except DegenerateClusteringError:
        if len(rows) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_apart(rows[j:j + 1], counts[j:j + 1], tol)
                               for j in range(len(rows))])
    return labels.max(axis=1) - labels.min(axis=1) + 1 == counts


def _keeps_clusters(clusters, owner: np.ndarray, power: np.ndarray, shift: np.ndarray,
                    order: int, tol: float) -> np.ndarray:
    """Whether u_h = w^c u_g^a has the clusters of u_g, w = exp(2 pi i /
    order), for each member h of a stack's element g = owner[j] (its index
    in the stack), a = power[j] and c = shift[j].

    u_h has the eigenvectors of u_g, the eigenvalue lambda of u_g becoming
    w^c lambda^a.  When every cluster of u_g holds one exact eigenvalue
    (CycleClusters.exact, in integers) and cluster_eigenvalues at tol keeps
    the images of those values apart, the eigenvalues of u_h in one cluster
    of u_g are one exact value and those of different clusters are not
    linked, so u_h clusters as u_g does, with the same projections.  The
    images of all the members go to cluster_eigenvalues as one stack."""
    if not len(owner):
        return np.zeros(0, dtype=bool)
    top, bottom, single = clusters.exact(order)
    lo, hi = clusters.first[owner], clusters.first[owner + 1]
    cs = np.minimum(lo[:, None] + np.arange(int((hi - lo).max())), hi[:, None] - 1)
    # w^c exp(2 pi i t / b)^a = exp(2 pi i (a t order + c b) / (b order))
    den = bottom[cs] * order
    num = (power[:, None] * top[cs] * order + shift[:, None] * bottom[cs]) % den
    return single[cs].all(axis=1) & _apart(np.exp(2j * np.pi * num / den), hi - lo, tol)


def _overlap(b: ClusterColumns, c: ClusterColumns) -> float:
    """||b* c||_F^2: row a of b* c sums conj(b[i, a]) c[i, :] over the
    entries of column a of b, with c read densely on b's rows, so columns
    of either that share a row (a cycle, at a wide tol) add up."""
    prod = np.add.reduceat(b.entries.conj()[:, None] * c.dense()[b.rows], b.starts)
    return float((prod.real ** 2 + prod.imag ** 2).sum())


class _Census:
    """The census across stacks of elements of a table with qs elements
    per p: the records in first-sighting order, the columns of each
    (supports), the dedup buckets, which map (rank, Tr(G* P G) to 6
    places), G the probe factor, to record indices in record order, the
    clusters' record indices (hits), each as often as an element has those
    clusters, and the common list so far.  A stack's clusters are matched
    in one ordered pass (_match) before its first sightings are recorded
    (_record)."""

    def __init__(self, tol: float, orbit: OperatorGraph, probe: np.ndarray, qs: int):
        self.tol, self.orbit, self.probe, self.qs = tol, orbit, probe, qs
        self.records: list[ScanProjection] = []
        self.supports: list = []
        self.buckets: dict = {}
        self.hits: list = []
        self.common: list | None = None

    def add(self, clusters, elements: np.ndarray, repeats: np.ndarray) -> None:
        """Count the clusters of the stack of elements (flat (p, q)
        indices, increasing), those of elements[e] repeats[e] times, and
        test the projections seen first there."""
        ranks = clusters.columns.ranks
        keys = list(zip(ranks.tolist(),
                        [round(t, 6) for t in clusters.traces(self.probe).tolist()]))
        hits, new = self._match(clusters, keys)
        self.hits.append(np.repeat(hits, np.repeat(repeats, np.diff(clusters.first))))
        if new:
            self._record(clusters, new, elements)
        if self.common != []:
            first, seen, ranks = clusters.first.tolist(), hits.tolist(), ranks.tolist()
            for e in range(len(first) - 1):
                mine = [seen[c] for c in range(first[e], first[e + 1]) if ranks[c] >= 2]
                self.common = mine if self.common is None else \
                    [idx for idx in self.common if idx in mine]

    def _match(self, clusters, keys):
        """The record index of each cluster of a stack, and its first
        sightings in cluster order, in one pass in cluster order.  A cluster
        takes the first record of its key's bucket, in record order, whose
        projection is within _MATCH_TOL of its own: ||P1 - P2||_F^2 =
        2 rank - 2 ||b1* b2||_F^2 (_overlap).  A cluster that matches none
        is a first sighting: it takes the next record index, after the
        records and the stack's earlier first sightings, and joins its
        bucket; its columns are read from the stack when a later cluster
        compares with it."""
        hits = np.empty(len(keys), dtype=np.intp)
        new: list = []
        for c, key in enumerate(keys):
            bucket = self.buckets.setdefault(key, [])
            for idx in bucket:
                seen = idx - len(self.records)
                other = self.supports[idx] if seen < 0 else clusters.columns.cluster(new[seen])
                distance = 2 * clusters.columns.ranks[c] - 2 * _overlap(other, clusters.columns.cluster(c))
                if distance <= _MATCH_TOL ** 2:
                    hits[c] = idx
                    break
            else:
                hits[c] = len(self.records) + len(new)
                bucket.append(int(hits[c]))
                new.append(c)
        return hits, new

    def _record(self, clusters, new: list, elements: np.ndarray) -> None:
        """Keep the columns of the first sightings new and test each for
        Knill-Laflamme against the orbit: every generator's diagonal is its
        class row, so the largest residual over the class rows is that of
        every generator."""
        columns = clusters.columns.select(new)
        worst = compressions(columns, self.orbit.rows)[0].max(axis=0).tolist()
        owner = elements[np.searchsorted(clusters.first, new, side='right') - 1].tolist()
        for j, c in enumerate(new):
            self.supports.append(columns.cluster(j))
            rank, w = int(columns.ranks[j]), worst[j]
            self.records.append(ScanProjection(
                divmod(owner[j], self.qs), complex(clusters.values[c]), rank, 0,
                compresses=w <= self.tol, kl_residual=w,
                is_anticlique=w <= self.tol and rank >= 2))

    def result(self, n: int, s: int) -> Prop1Scan:
        counts = np.bincount(np.concatenate(self.hits), minlength=len(self.records))
        for rec, count in zip(self.records, counts.tolist()):
            rec.occurrences = count
        return Prop1Scan(n, s, self.records, [self.supports[idx] for idx in self.common or []])


def proposition1_scan(n: int, s: int, tol: float = DEFAULT_TOL,
                      unitaries=None, orbit: OperatorGraph | None = None) -> Prop1Scan:
    """Scan spectral projections of every group unitary and test each one.

    The table is split into unit classes (GroupAction.unit_classes): u_h =
    w^c u_g^a for h = a g, gcd(a, n) = 1, proved from the integer table, so
    u_h has the spectral projections of u_g.  The first element g of each
    class, in (p, q) order, is clustered; each other member h takes the
    clusters of g, and with them g's record indices, when _keeps_clusters
    proves that it clusters as g does.  It then adds occurrences only: it
    forms no eigenvectors and sees no projection first, and the common list,
    already inside g's, keeps its value.  An element that the table or the
    cluster test does not certify is clustered on its own, in its (p, q)
    place, like a first element; when that place lies inside a stack
    already clustered, the stack is clustered again with it.  So the
    records, their order and their counts are those of clustering every
    element in (p, q) order.

    The clustered elements are taken in stacks, in (p, q) order, whose
    cycle blocks hold at most linalg._STACK_ENTRIES eigenvector entries
    (linalg.stack_size).  Each stack's clusters come in cycle blocks
    (GroupAction.clusters): the eigenvectors live on the cycles of the
    monomial table, and the clusters are guarded by the gather residual
    u V - V Lambda and the orthonormality of each block, so no dense
    unitary or d x d product is formed.  A cluster P = b b* is read
    through its columns on their cycles (ClusterColumns, each column of the
    stack held once, sorted by cluster), and a record keeps those, cut from
    a copy of the stack's first sightings (ClusterColumns.select) so that
    the stack is not kept.  Dedup buckets by rank and Tr(G* P G) =
    ||b* G||_F^2 for a seeded complex Gaussian d x 2 factor G, read on the
    columns' cycles (CycleClusters.traces), then matches a cluster with the first
    record of its bucket, in record order, for which ||P1 - P2||_F^2 =
    2 rank - 2 ||b1* b2||_F^2 is below _MATCH_TOL^2, in one pass over the
    clusters in their order (_Census._match).  With the members certified,
    no two clusters of the group table share a key (measured at the
    default tol for n = 2..24 and 32), so that search compares no pair
    there; it is the safety path for a table whose members cluster on
    their own.  The common list intersects the rank >= 2 projections
    across all elements and is usually empty, since only a unitary
    proportional to the identity admits the identity as a cluster
    projection.  A projection's Knill-Laflamme residual is taken at its
    first sighting, against the orbit's class rows (_Census._record, by
    compressions).
    """
    if unitaries is None:
        unitaries = element_unitaries(n, *rep_generators(n))
    if orbit is None:
        orbit = graph_orbit(n, s, tol, unitaries)
    qs = unitaries.perm.shape[1]
    parts = np.random.default_rng(23117).standard_normal((2, unitaries.perm.shape[-1], 2))
    probe = parts[0] + 1j * parts[1]
    census = _Census(tol, orbit, probe, qs)
    first, power, shift = unitaries.unit_classes
    entries = unitaries.cycle_entries()
    alone = (first == np.arange(len(first))) | (shift < 0)
    done = 0
    while (queue := done + np.flatnonzero(alone[done:])).size:
        stack = queue[:stack_size(entries[queue])]
        clusters = unitaries.clusters(*np.divmod(stack, qs), tol)
        stacked = np.zeros(len(first), dtype=bool)
        stacked[stack] = True
        members = np.flatnonzero(~alone & stacked[first])
        owner = np.searchsorted(stack, first[members])
        kept = _keeps_clusters(clusters, owner, power[members], shift[members],
                               unitaries.order, tol)
        alone[members[~kept]] = True
        if (members[~kept] < stack[-1]).any():
            continue  # the stack again, with those members in their places
        census.add(clusters, stack, 1 + np.bincount(owner[kept], minlength=len(stack)))
        done = stack[-1] + 1
    return census.result(n, s)


def verify_theorem2(n: int, tol: float = DEFAULT_TOL,
                    basis: EntangledBasis | None = None,
                    unitaries=None, orbit_graphs=None,
                    y: np.ndarray | None = None):
    """Span audit: orbit graphs pairwise, the z family, and the h family.

    Returns (checks, audit, discrepancies).  The conjugation orbit is the
    ground truth; the h-family comparison is recorded as data, and any
    dimension mismatch becomes a structured discrepancy entry instead of a
    failure, with the Gram spectra that span_operators diagonalised (for
    the orbit, the n^2-member spectrum that _class_span keeps).  The h and
    z families are spanned on the blocks of the factor y (h_generators),
    and the diagonal orbit is compared with them lifted onto those blocks
    (subspace_equal).
    """
    basis = basis if basis is not None else entangled_basis(n)
    if unitaries is None:
        unitaries = element_unitaries(n, *rep_generators(n))
    if orbit_graphs is None:
        orbit_graphs = [graph_orbit(n, s, tol, unitaries) for s in range(n)]
    if y is None:
        y = y_units(n, basis)

    # residuals in a fixed order, so the first strict maximum is named
    pair_equal = True
    coincide_worst, where = 0.0, (0, 1)
    for s1 in range(n):
        for s2 in range(s1 + 1, n):
            cmp_ = subspace_equal(orbit_graphs[s1].space, orbit_graphs[s2].space, tol)
            if cmp_.max_residual > coincide_worst:
                coincide_worst, where = cmp_.max_residual, (s1, s2)
            pair_equal = pair_equal and cmp_.equal
    checks = [CheckResult('graphs_coincide', pair_equal, coincide_worst,
                          details=f'orbit graphs pairwise; worst at '
                                  f'(s1, s2) = ({where[0]}, {where[1]})')]

    z_space = span_operators(z_generators(n, y), tol)
    h_space = span_operators(h_generators(n, y), tol)
    orbit_space = orbit_graphs[0].space
    cmp_z = subspace_equal(orbit_space, z_space, tol)
    cmp_h = subspace_equal(orbit_space, h_space, tol)
    z_equal, h_equal = cmp_z.equal, cmp_h.equal
    checks.append(CheckResult('orbit_equals_z', z_equal, cmp_z.max_residual))

    audit = GraphAudit(orbit_space.dim, z_space.dim, h_space.dim, z_equal, h_equal)
    discrepancies = []
    if not h_equal:
        discrepancies.append(Discrepancy(
            claim='Theorem 2: the graph coincides with the span of the symmetric '
                  'pair-sum family {h_p}',
            observed=f'dim span{{h_p}} = {h_space.dim} but dim of the conjugation '
                     f'orbit = {orbit_space.dim} at n = {n}; the family satisfies '
                     f'h_p = h_(n-p) exactly, so it spans floor(n/2)+1 directions; '
                     f'h Gram spectrum [{_fmt_spectrum(h_space.gram_spectrum)}]; '
                     f'orbit Gram spectrum [{_fmt_spectrum(orbit_space.gram_spectrum)}]'))
    return checks, audit, discrepancies


def _fmt_spectrum(values) -> str:
    return ', '.join(f'{float(v):.6e}' for v in values)
