"""Operator graphs from the conjugation orbit of the diagonal-block
projections, the y/h/z generator families, the entangled-code anticliques, and
the span audit that compares all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, OperatorSubspace, as_operator, frob,
                     random_hermitian, span_operators, subspace_equal, unit_roots)
from .results import CheckResult, Discrepancy, GraphAudit
from .weylrep import (EntangledBasis, GroupAction, element_unitaries,
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
    """Conjugation orbit of a base projection, orthonormalized, with provenance."""
    n: int
    s: int
    space: OperatorSubspace
    provenance: list  # [((p, q), diagonal of u Q_s u*)] in lexicographic order


def graph_orbit(n: int, s: int, tol: float = DEFAULT_TOL,
                unitaries: GroupAction | None = None) -> OperatorGraph:
    """Span of u Q_s u* over the n^2 group unitaries, taken from the diagonals
    of the generators (diagonal for monomial u); the basis is kept as n
    orthonormal diagonals."""
    if not 0 <= s < n:
        raise ValueError("s out of range")
    if unitaries is None:
        unitaries = element_unitaries(n, *rep_generators(n))
    diagonals = unitaries.orbit_diagonals(np.diagonal(q_projection(n, s)))
    provenance = [((p, q), diagonals[p, q])
                  for p in range(n) for q in range(n)]
    return OperatorGraph(n, s, span_operators([v for _, v in provenance], tol),
                         provenance)


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


def compression_gram(b: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """G[j, k] = <C_j, C_k>, the Hilbert-Schmidt Gram of the traceless
    compressions C_j = b* X_j b - lambda_j I of the generators X_j given by
    the rows of diagonals.  C is linear in X, so for X = sum_j c_j X_j the
    residual || C(X) ||_F is sqrt(c* G c)."""
    _, diag, off = _compressions(b, diagonals)
    gram = diag.conj() @ diag.T
    for blk in off:
        gram += blk.conj() @ blk.T
    return gram


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


def proposition1_scan(n: int, s: int, tol: float = DEFAULT_TOL,
                      unitaries=None, orbit: OperatorGraph | None = None) -> Prop1Scan:
    """Scan spectral projections of every group unitary and test each one.

    Each unitary's clusters come in cycle blocks (GroupAction.clusters): its
    eigenvectors live on the cycles of its monomial table, and the clusters
    are guarded by the gather residual u V - V Lambda and the orthonormality
    of each block, so no dense unitary or d x d product is formed.  A
    cluster P = b b* is read through its columns on their cycles
    (ClusterColumns), and a record keeps a copy of those.  Dedup
    buckets by rank and Re Tr(probe P), a probe[pos, pos] gather per cycle,
    then matches when ||P1 - P2||_F^2 = 2 rank - 2 ||b1* b2||_F^2 is below
    _MATCH_TOL^2, with b1* b2 read on the support of b1.  The common list
    intersects the rank >= 2 projections across all elements and is usually
    empty, since only a unitary proportional to the identity admits the
    identity as a cluster projection.  A projection's Knill-Laflamme residual
    is taken at its first sighting by compressing only the orthonormal
    diagonals of orbit.space: a generator x = sum_j c_j e_j + delta has
    residual at most sqrt(c* G c) + ||delta||_F, with G the Gram of the
    compressed basis (compression_gram) and delta the generator's measured
    distance to the span, since compressing by an isometry and removing the
    trace do not increase the Frobenius norm.  The columns of one cluster lie
    on distinct cycles, so each compression is diagonal, a weighted cycle
    average per column, and G is an n x rank product; columns that do share
    a cycle (only at a very large tol) get their off-diagonal entries.
    """
    if unitaries is None:
        unitaries = element_unitaries(n, *rep_generators(n))
    if orbit is None:
        orbit = graph_orbit(n, s, tol, unitaries)
    # every generator in span coordinates, x = coef @ rows + defect, with the
    # defect's norm measured, so that a generator off the span still counts
    span = orbit.space.basis
    diagonals = np.array([v for _, v in orbit.provenance])
    coef = diagonals @ span.conj().T
    defect = np.linalg.norm(diagonals - coef @ span, axis=1)
    probe = random_hermitian(unitaries.perm.shape[-1], np.random.default_rng(23117))
    coef_h = coef.conj()
    records: list[ScanProjection] = []
    supports: list = []  # the ClusterColumns of each record
    buckets: dict = {}
    common: list[int] | None = None
    for p in range(n):
        # the n elements of one row p at a time: one stack of cycle blocks
        clusters = unitaries.clusters(p, np.arange(n), tol)
        traces = [round(t, 6) for t in clusters.traces(probe).tolist()]
        first = clusters.first.tolist()
        for q in range(n):
            seen_rank2 = []
            for c in range(first[q], first[q + 1]):
                cols = clusters.columns(c)
                rank, b = cols.rank, cols.dense()
                key = (rank, traces[c])
                hit = next((idx for idx in buckets.get(key, ())
                            if 2 * rank - 2 * supports[idx].overlap(b) <= _MATCH_TOL ** 2),
                           None)
                if hit is None:
                    hit = len(records)
                    supports.append(cols.copy())
                    buckets.setdefault(key, []).append(hit)
                    spanned = ((coef_h @ compression_gram(b, span)) * coef).sum(axis=1).real
                    worst = float((np.sqrt(np.maximum(spanned, 0.0)) + defect).max())
                    records.append(ScanProjection(
                        (p, q), complex(clusters.values[c]), rank, 0, compresses=worst <= tol,
                        kl_residual=worst, is_anticlique=worst <= tol and rank >= 2))
                records[hit].occurrences += 1
                if rank >= 2:
                    seen_rank2.append(hit)
            common = seen_rank2 if common is None else \
                [idx for idx in common if idx in seen_rank2]
    return Prop1Scan(n, s, records, [supports[idx] for idx in common or []])


def verify_theorem2(n: int, tol: float = DEFAULT_TOL,
                    basis: EntangledBasis | None = None,
                    unitaries=None, orbit_graphs=None,
                    y: np.ndarray | None = None):
    """Span audit: orbit graphs pairwise, the z family, and the h family.

    Returns (checks, audit, discrepancies).  The conjugation orbit is the
    ground truth; the h-family comparison is recorded as data, and any
    dimension mismatch becomes a structured discrepancy entry instead of a
    failure, with the Gram spectra that span_operators diagonalised.
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

    z_space = span_operators(z_red, tol)
    h_space = span_operators(h_list, tol)
    orbit_space = orbit_graphs[0].space
    cmp_z = subspace_equal(orbit_space, z_space, tol)
    cmp_h = subspace_equal(orbit_space, h_space, tol)
    checks.append(CheckResult('orbit_equals_z', cmp_z.equal, cmp_z.max_residual))

    audit = GraphAudit(orbit_space.dim, z_space.dim, h_space.dim,
                       cmp_z.equal, cmp_h.equal)
    discrepancies = []
    if not cmp_h.equal:
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
