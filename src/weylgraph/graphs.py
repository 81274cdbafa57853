"""Operator graphs from the conjugation orbit of the diagonal-block
projections, the y/h/z generator families, the entangled-code anticliques, and
the span audit that compares all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (DEFAULT_TOL, OperatorSubspace, as_operator, frob,
                     random_hermitian, span_operators, subspace_equal, unit_roots)
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


def h_generators(n: int, y: np.ndarray | None = None) -> list:
    """The Hermitian family h_0 = sum_m y_mm, h_p = sum_m (y_{m+p,m} + y_{m,m+p}).

    With Y the factor flattened to rows (m, k) and R_p its copy rolled by p in
    m, sum_m y_{m+p,m} = R_p^T Y^*, so h_p = A + A* for A = R_p^T Y^*."""
    if y is None:
        y = y_units(n)
    d = n * n
    bras = y.reshape(d, d).conj()
    out = [y.reshape(d, d).T @ bras]
    for p in range(1, n):
        pair = np.roll(y, -p, axis=0).reshape(d, d).T @ bras
        out.append(pair + pair.conj().T)
    return out


def z_generators(n: int, y: np.ndarray | None = None) -> list:
    """The orbit generators in the y coordinates, z_c = sum_{m,l} w^(c(m-l)) y_ml.

    Expanding y_ml through its factor, z_c = sum_k |u_c^k><u_c^k| with
    u_c^k = sum_m w^(cm) h_m^k: one phase product for every u, then one
    product per c.
    """
    if y is None:
        y = y_units(n)
    d = n * n
    idx = np.arange(n)
    u = (unit_roots(n)[np.outer(idx, idx) % n] @ y.reshape(n, n * d)).reshape(n, n, d)
    return [u[c].T @ u[c].conj() for c in range(n)]


@dataclass(frozen=True)
class OperatorGraph:
    """Conjugation orbit of a base projection, orthonormalized, with provenance.

    The span is taken from the class rows, the generator diagonal of the
    first element of each permutation class of the table: elements of one
    class conjugate a diagonal to the same diagonal, up to the roundoff of
    |phase|^2.  spread, the largest Frobenius distance from a generator's
    diagonal to its class row, is measured, and every residual that stands
    for the generators rather than the rows adds it."""
    n: int
    s: int
    space: OperatorSubspace
    provenance: list  # [((p, q), diagonal of u Q_s u*)] in lexicographic order
    rows: np.ndarray  # (classes, d): the class rows, in the order of GroupAction.grouping
    spread: float


def _class_span(diagonals: np.ndarray, label: np.ndarray, tol: float = DEFAULT_TOL):
    """(space, rows, spread) for generator diagonals (one row per element)
    grouped by label: rows[k] is the diagonal of the first element of class
    k, and spread the largest distance from a diagonal to its class row.
    The span is that of the rows, each weighted by the square root of its
    class size m, so that its Gram diag(sqrt m) G diag(sqrt m) has the
    nonzero spectrum of the Gram of all the diagonals; the space keeps that
    spectrum padded with one zero per further element, as the Gram of all
    of them would have it when the spread is 0."""
    first = np.unique(label, return_index=True)[1]
    rows = diagonals[first]
    spread = float(np.linalg.norm(diagonals - rows[label], axis=1).max())
    space = span_operators(np.sqrt(np.bincount(label))[:, None] * rows, tol)
    spectrum = np.sort(np.concatenate((space.gram_spectrum, np.zeros(len(label) - len(rows)))))
    return replace(space, gram_spectrum=spectrum), rows, spread


def graph_orbit(n: int, s: int, tol: float = DEFAULT_TOL,
                unitaries: GroupAction | None = None) -> OperatorGraph:
    """Span of u Q_s u* over the n^2 group unitaries, taken from the diagonals
    of the generators (diagonal for monomial u), one class row per
    permutation class (GroupAction.grouping); the basis is kept as n
    orthonormal diagonals."""
    if not 0 <= s < n:
        raise ValueError("s out of range")
    if unitaries is None:
        unitaries = element_unitaries(n, *rep_generators(n))
    diagonals = unitaries.orbit_diagonals(np.diagonal(q_projection(n, s)))
    provenance = [((p, q), diagonals[p, q])
                  for p in range(n) for q in range(n)]
    space, rows, spread = _class_span(diagonals.reshape(n * n, -1),
                                      unitaries.grouping[1], tol)
    return OperatorGraph(n, s, space, provenance, rows, spread)


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


def _compressions(b: np.ndarray, diagonals: np.ndarray):
    """The traceless compressions C = b* X b - lambda I of the generators X
    whose diagonals are the rows of diagonals, as (lam, diag, off): the
    scalars lambda = Tr(b* X b) / rank, the diagonals of every C (one product
    with |b|^2), and an iterator over batches of off-diagonal entries, at
    most d x d per batch.  The entry C[a, c] = sum_i conj(b[i, a]) x[i] b[i, c]
    only gathers rows where several columns are nonzero, so only those rows
    are read; the columns of one cycle cluster lie on distinct cycles, share
    no row, and give no batch."""
    d, rank = b.shape
    diag = diagonals @ (b.real ** 2 + b.imag ** 2)
    lam = diag.sum(axis=1) / rank
    shared = np.flatnonzero(np.count_nonzero(b, axis=1) > 1)
    sub, x = b[shared], diagonals[:, shared]
    step = max(1, d // rank)

    def off():
        for lo in range(0, rank if len(shared) else 0, step):
            pairs = sub[:, lo:lo + step, None].conj() * sub[:, None, :]
            blk = (x @ pairs.reshape(len(shared), -1)).reshape(len(x), -1, rank)
            a = np.arange(blk.shape[1])
            blk[:, a, lo + a] = 0.0  # the diagonal entries are in diag
            yield blk.reshape(len(x), -1)

    return lam, diag - lam[:, None], off()


def compress_diagonals(b: np.ndarray, diagonals: np.ndarray):
    """Knill-Laflamme compression by the isometry b of each generator X whose
    diagonal is a row of diagonals: the residuals || b* X b - lambda I ||_F
    and the scalars lambda = Tr(b* X b) / rank."""
    lam, diag, off = _compressions(b, diagonals)
    squares = (np.abs(diag) ** 2).sum(axis=1)
    for blk in off:
        squares += (np.abs(blk) ** 2).sum(axis=1)
    return np.sqrt(squares), lam


def kl_suite_extremes(n: int, basis: EntangledBasis, orbit_diagonals_by_s):
    """Worst || P_k X P_k - (1/n) P_k ||_F and |lambda - 1/n| over all (k, s, g)
    for generators X given by their diagonals and P_k = B_k B_k*, where
    B_k = basis.code_isometry(k).  B_k* X B_k - lambda I is traceless, so its
    distance to I/n is sqrt(residual^2 + n |lambda - 1/n|^2).  Returns
    (worst, lam_worst, (k, s, p, q)), the last naming the first strict
    maximum of the residual in (k, s, g) order, where the g-th diagonal of
    each s is the generator of the element (p, q) = divmod(g, n)."""
    x = np.concatenate([np.asarray(diags) for diags in orbit_diagonals_by_s])
    ends = np.cumsum([len(diags) for diags in orbit_diagonals_by_s])
    worst, lam_worst, where = 0.0, 0.0, (0, 0, 0, 0)
    for k in range(n):
        residual, lam = compress_diagonals(basis.code_isometry(k), x)
        off = np.abs(lam - 1.0 / n)
        dist = np.sqrt(residual ** 2 + n * off ** 2)
        i = int(np.argmax(dist))
        if dist[i] > worst:
            s = int(np.searchsorted(ends, i, side='right'))
            g = i - (int(ends[s - 1]) if s else 0)
            worst, where = float(dist[i]), (k, s, *divmod(g, n))
        lam_worst = max(lam_worst, float(off.max()))
    return worst, lam_worst, where


def kl_corollary_check(n: int, tol: float, basis: EntangledBasis,
                       orbit_diagonals_by_s) -> CheckResult:
    """Report-shaped wrapper around kl_suite_extremes."""
    worst, lam_worst, (k, s, p, q) = kl_suite_extremes(n, basis, orbit_diagonals_by_s)
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
        for k, rank in enumerate(clusters.ranks.tolist()):
            worst = max(worst, abs(complex(clusters.values[k]) - complex(roots[k])))
            if rank != n:
                worst = max(worst, float(n))
                continue
            b, c = clusters.columns(k).dense(), basis.code_isometry(k)
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


# the census takes the table in stacks of consecutive elements whose cycle
# blocks hold at most this many eigenvector entries (an element holding more
# is a stack of its own): one element per stack pays numpy's call overhead
# n^2 times, and one stack of the whole table holds every block at once
_STACK_ENTRIES = 1 << 13


def _stacks(entries: np.ndarray, budget: int) -> list:
    """Runs (lo, hi) of consecutive elements that hold at most budget
    entries between them, unless one element alone holds more."""
    bounds, held = [0], 0
    for e, size in enumerate(entries.tolist()):
        if held + size > budget and e > bounds[-1]:
            bounds.append(e)
            held = 0
        held += size
    bounds.append(len(entries))
    return list(zip(bounds[:-1], bounds[1:]))


def _compression_residuals(columns, tops: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|| b* diag(x) b - lambda I ||_F for each row x of rows and each
    cluster b, the columns tops[j]:tops[j+1] of the ClusterColumns columns,
    shape (len(rows), clusters).  Columns on distinct cycles share no row,
    so the compression is diagonal, its entry a the sum of |b[i, a]|^2 x[i]
    over the rows of column a: one segment sum over the columns per row x
    gives it for every cluster at once, holding one gather of the entries
    at a time.  Columns that share a cycle also have off-diagonal entries,
    which this leaves out."""
    weight = columns.entries.real ** 2 + columns.entries.imag ** 2
    diag = np.array([np.add.reduceat(x[columns.rows] * weight, columns.starts) for x in rows])
    ranks = np.diff(tops)
    lam = np.add.reduceat(diag, tops[:-1], axis=1) / ranks
    off = diag - np.repeat(lam, ranks, axis=1)
    return np.sqrt(np.add.reduceat(off.real ** 2 + off.imag ** 2, tops[:-1], axis=1))


class _Census:
    """The census across stacks of elements of a table with qs elements
    per p: the records in first-sighting order, the columns of each
    (supports), the dedup buckets, which map (rank, Re Tr(probe P) to 6
    places) to record indices in record order, the clusters' record
    indices (hits) and the common list so far."""

    def __init__(self, tol: float, orbit: OperatorGraph, probe: np.ndarray, qs: int):
        self.tol, self.orbit, self.probe, self.qs = tol, orbit, probe, qs
        self.records: list[ScanProjection] = []
        self.supports: list = []
        self.buckets: dict = {}
        self.hits: list = []
        self.common: list | None = None

    def add(self, clusters, lo: int) -> None:
        """Count the clusters of the stack of elements lo, lo + 1, ... and
        test the projections seen first there."""
        ranks = clusters.ranks
        keys = list(zip(ranks.tolist(),
                        [round(t, 6) for t in clusters.traces(self.probe).tolist()]))
        hits, new = self._match(clusters, keys)
        self.hits.append(hits)
        if new:
            self._record(clusters, new, lo)
        if self.common != []:
            first, seen, ranks = clusters.first.tolist(), hits.tolist(), ranks.tolist()
            for e in range(len(first) - 1):
                mine = [seen[c] for c in range(first[e], first[e + 1]) if ranks[c] >= 2]
                self.common = mine if self.common is None else \
                    [idx for idx in self.common if idx in mine]

    def _match(self, clusters, keys):
        """The record index of each cluster of a stack, and its first
        sightings in cluster order.

        The clusters of one key compare, round by round, with the records of
        their bucket in record order, every pair of a round in one gather
        (CycleClusters.overlaps); a match ends a cluster's search.  When a
        key's bucket is used up, the first cluster still searching is a
        first sighting, appended to the bucket, and the others compare with
        it next.  So each cluster gets the first record in record order that
        matches it, as one pass in cluster order would find.  A first
        sighting c counts as -1 - c until the stack is done, when the first
        sightings take their record indices in cluster order."""
        groups: dict = {}
        for c, key in enumerate(keys):
            groups.setdefault(key, []).append(c)
        touched, at = list(groups), dict.fromkeys(groups, 0)
        hits = np.empty(len(keys), dtype=np.intp)
        fresh: dict = {}
        while groups:
            refs, cs = [], []
            for key in list(groups):
                group, bucket = groups[key], self.buckets.setdefault(key, [])
                if at[key] == len(bucket):
                    c = group.pop(0)
                    fresh[c] = clusters.columns(c)
                    hits[c] = -1 - c
                    bucket.append(-1 - c)
                    if not group:
                        del groups[key]
                        continue
                refs += [bucket[at[key]]] * len(group)
                cs += group
                at[key] += 1
            if not cs:
                break
            overlap = clusters.overlaps(
                [self.supports[r] if r >= 0 else fresh[-1 - r] for r in refs], cs)
            cs, refs = np.array(cs), np.array(refs)
            same = 2 * clusters.ranks[cs] - 2 * overlap <= _MATCH_TOL ** 2
            hits[cs[same]] = refs[same]
            found = set(cs[same].tolist())
            for key in list(groups):
                groups[key] = [c for c in groups[key] if c not in found]
                if not groups[key]:
                    del groups[key]
        new = sorted(fresh)
        index = np.empty(len(keys), dtype=np.intp)
        index[new] = len(self.records) + np.arange(len(new))
        late = hits < 0
        hits[late] = index[-1 - hits[late]]
        for key in touched:
            bucket = self.buckets[key]
            for i in range(len(bucket) - 1, -1, -1):
                if bucket[i] >= 0:
                    break
                bucket[i] = int(index[-1 - bucket[i]])
        return hits, new

    def _record(self, clusters, new: list, lo: int) -> None:
        """Keep the columns of the first sightings new and test each for
        Knill-Laflamme against the orbit: every generator is within the
        orbit's spread of its class row, and compressing by an isometry and
        removing the trace do not increase the Frobenius norm, so the
        largest residual over the class rows plus the spread bounds the
        residual of every generator."""
        columns, tops = clusters.select(new)
        rows = self.orbit.rows
        worst = _compression_residuals(columns, tops, rows).max(axis=0)
        for j in np.flatnonzero(clusters.shared[new]):
            worst[j] = compress_diagonals(clusters.columns(new[j]).dense(), rows)[0].max()
        worst = worst + self.orbit.spread
        bounds = np.append(columns.starts, len(columns.rows))[tops].tolist()
        owner = (np.searchsorted(clusters.first, new, side='right') - 1).tolist()
        for j, c in enumerate(new):
            a, b = bounds[j], bounds[j + 1]
            self.supports.append(ClusterColumns(columns.d, columns.rows[a:b], columns.entries[a:b],
                                                columns.starts[tops[j]:tops[j + 1]] - a))
            rank, w = int(clusters.ranks[c]), float(worst[j])
            self.records.append(ScanProjection(
                divmod(lo + owner[j], self.qs), complex(clusters.values[c]), rank, 0,
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

    The table is taken in stacks of consecutive elements sized by
    _STACK_ENTRIES.  Each stack's clusters come in cycle blocks
    (GroupAction.clusters): the eigenvectors live on the cycles of the
    monomial table, and the clusters are guarded by the gather residual
    u V - V Lambda and the orthonormality of each block, so no dense unitary
    or d x d product is formed.  A cluster P = b b* is read through its
    columns on their cycles (ClusterColumns), and a record keeps those, cut
    from arrays of its stack's first sightings (CycleClusters.select) so
    that the stack itself is not kept.  Dedup buckets by rank and
    Re Tr(probe P), a probe[pos, pos]
    gather per cycle, then matches when ||P1 - P2||_F^2 = 2 rank -
    2 ||b1* b2||_F^2 is below _MATCH_TOL^2, round by round (_Census._match).
    The common list intersects the rank >= 2 projections across all
    elements and is usually empty, since only a unitary proportional to the
    identity admits the identity as a cluster projection.  A projection's
    Knill-Laflamme residual is taken at its first sighting, against the
    orbit's class rows plus its spread (_Census._record); columns that share
    a cycle (only at a very large tol) get their off-diagonal entries from
    compress_diagonals.
    """
    if unitaries is None:
        unitaries = element_unitaries(n, *rep_generators(n))
    if orbit is None:
        orbit = graph_orbit(n, s, tol, unitaries)
    qs = unitaries.perm.shape[1]
    probe = random_hermitian(unitaries.perm.shape[-1], np.random.default_rng(23117))
    census = _Census(tol, orbit, probe, qs)
    for lo, hi in _stacks(unitaries.cycle_entries(), _STACK_ENTRIES):
        p, q = divmod(np.arange(lo, hi), qs)
        census.add(unitaries.clusters(p, q, tol), lo)
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
    the orbit, the n^2-member spectrum that _class_span keeps).  An orbit's
    span is that of its class rows, so every comparison adds the spread of
    each orbit in it to the subspace residual.
    """
    basis = basis if basis is not None else entangled_basis(n)
    if unitaries is None:
        unitaries = element_unitaries(n, *rep_generators(n))
    if orbit_graphs is None:
        orbit_graphs = [graph_orbit(n, s, tol, unitaries) for s in range(n)]
    if y is None:
        y = y_units(n, basis)
    h_list = h_generators(n, y)
    z_red = z_generators(n, y)

    # residuals in a fixed order, so the first strict maximum is named; each
    # orbit's spread counts, since its span is that of its class rows
    pair_equal = True
    coincide_worst, where = 0.0, (0, 1)
    for s1 in range(n):
        for s2 in range(s1 + 1, n):
            g1, g2 = orbit_graphs[s1], orbit_graphs[s2]
            cmp_ = subspace_equal(g1.space, g2.space, tol)
            residual = cmp_.max_residual + g1.spread + g2.spread
            if residual > coincide_worst:
                coincide_worst, where = residual, (s1, s2)
            pair_equal = pair_equal and cmp_.equal and residual <= tol
    checks = [CheckResult('graphs_coincide', pair_equal, coincide_worst,
                          details=f'orbit graphs pairwise; worst at '
                                  f'(s1, s2) = ({where[0]}, {where[1]})')]

    z_space = span_operators(z_red, tol)
    h_space = span_operators(h_list, tol)
    orbit_space, spread = orbit_graphs[0].space, orbit_graphs[0].spread
    cmp_z = subspace_equal(orbit_space, z_space, tol)
    cmp_h = subspace_equal(orbit_space, h_space, tol)
    z_residual = cmp_z.max_residual + spread
    z_equal = cmp_z.equal and z_residual <= tol
    h_equal = cmp_h.equal and cmp_h.max_residual + spread <= tol
    checks.append(CheckResult('orbit_equals_z', z_equal, z_residual))

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
