"""The group-wide spectral census from the cycle blocks of the monomial table,
against the dense Schur census it replaced and its golden summaries, plus
property and mutation tests for the cycle eigenpairs and their guard."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylgraph.graphs
import weylgraph.weylrep
from dense_oracles import cluster_projector
from weylgraph.covariant import q_projection
from weylgraph.graphs import (OperatorGraph, Prop1Scan, ScanProjection, _MATCH_TOL,
                              _class_span, anticlique_projector, compress_diagonals,
                              graph_orbit, kl_suite_extremes, proposition1_scan,
                              verify_theorem2)
from weylgraph.linalg import (DEFAULT_TOL, cluster_eigenpairs, frob,
                              random_hermitian, spectral_projections, unit_roots)
from weylgraph.weylrep import (ClusterColumns, CycleClusters, GroupAction, element_unitaries,
                               entangled_basis, rep_generators)


def dense_census(n, s, tol=DEFAULT_TOL):
    """The census from one dense Schur decomposition per group unitary and
    one eigh per distinct projection, compressing the dense orbit generators
    u Q_s u*: the reference for proposition1_scan."""
    unitaries = element_unitaries(n, *rep_generators(n))
    d = n * n
    probe = random_hermitian(d, np.random.default_rng(23117))
    records, canon, buckets, common = [], [], {}, None
    for p in range(n):
        for q in range(n):
            dec = spectral_projections(unitaries.dense(p, q), tol)
            seen_rank2 = []
            for lam, proj, rank in zip(dec.eigenvalues, dec.projectors, dec.ranks):
                key = (rank, round(float(np.vdot(probe, proj).real), 6))
                hit = None
                for idx in buckets.get(key, ()):
                    if frob(proj - canon[idx]) <= _MATCH_TOL:
                        hit = idx
                        break
                if hit is None:
                    hit = len(canon)
                    canon.append(proj)
                    buckets.setdefault(key, []).append(hit)
                    records.append(ScanProjection((p, q), complex(lam), int(rank),
                                                  0, False, 0.0, False))
                records[hit].occurrences += 1
                if rank >= 2:
                    seen_rank2.append(hit)
            common = seen_rank2 if common is None else \
                [idx for idx in common if idx in seen_rank2]
    base = q_projection(n, s)
    gen_mats = []
    for p in range(n):
        for q in range(n):
            u = unitaries.dense(p, q)
            gen_mats.append(u @ base @ u.conj().T)
    for idx, rec in enumerate(records):
        w, v = np.linalg.eigh(canon[idx])
        b = v[:, w > 0.5]  # isometry onto the range
        worst = 0.0
        for x in gen_mats:
            blk = b.conj().T @ x @ b
            lam = complex(np.trace(blk)) / rec.rank
            worst = max(worst, frob(blk - lam * np.eye(rec.rank)))
        rec.kl_residual = worst
        rec.compresses = worst <= tol
        rec.is_anticlique = rec.compresses and rec.rank >= 2
    return Prop1Scan(n, s, records, [canon[idx] for idx in (common or [])])


@pytest.mark.parametrize('n', range(2, 9))
def test_cycle_census_matches_dense_census(n):
    fast, dense = proposition1_scan(n, 0), dense_census(n, 0)
    assert fast.summary() == dense.summary()
    assert fast.common == [] and dense.common == []
    assert len(fast.projections) == len(dense.projections)
    for a, b in zip(fast.projections, dense.projections):
        assert (a.element, a.rank, a.occurrences, a.is_anticlique) == \
            (b.element, b.rank, b.occurrences, b.is_anticlique)
        assert abs(a.eigenvalue - b.eigenvalue) <= 1e-9
        assert abs(a.kl_residual - b.kl_residual) <= 1e-9


def _dense_compression_residual(b, diagonals):
    """max over the generators diag(x) of || b* diag(x) b - lambda I ||_F,
    each compression formed densely."""
    rank = b.shape[1]
    worst = 0.0
    for x in diagonals:
        blk = (b.conj().T * x) @ b
        worst = max(worst, frob(blk - np.trace(blk) / rank * np.eye(rank)))
    return worst


def _record_isometry(unitaries, rec, tol=DEFAULT_TOL):
    """The dense columns of a census record's cluster at its first sighting."""
    clusters = unitaries.clusters(*rec.element, tol)
    c = int(np.argmin(np.abs(clusters.values - rec.eigenvalue)))
    assert clusters.values[c] == rec.eigenvalue
    return clusters.columns(c).dense()


@pytest.mark.parametrize('n', [2, 3, 4, 5, 6])
def test_census_rounds_match_the_dense_census_when_every_key_collides(n, monkeypatch):
    # every cluster of one rank in one bucket: each cluster then compares
    # with the records of its rank round by round, and must still find the
    # first match in record order, both within one stack of the whole table
    # and, with one element per stack, against buckets of many records
    monkeypatch.setattr(CycleClusters, 'traces',
                        lambda self, x: np.zeros(len(self.values)))
    dense = dense_census(n, 0)
    for budget in (weylgraph.graphs._STACK_ENTRIES, 1):
        monkeypatch.setattr(weylgraph.graphs, '_STACK_ENTRIES', budget)
        fast = proposition1_scan(n, 0)
        assert len(fast.projections) == len(dense.projections)
        for a, b in zip(fast.projections, dense.projections):
            assert (a.element, a.rank, a.occurrences, a.is_anticlique) == \
                (b.element, b.rank, b.occurrences, b.is_anticlique)
            assert abs(a.eigenvalue - b.eigenvalue) <= 1e-9
            assert abs(a.kl_residual - b.kl_residual) <= 1e-9


def test_census_stacks_peak_below_theorem2():
    # theorem 2 sets the peak of verify; the census's stacks, bounded by
    # _STACK_ENTRIES, must stay under it so that the census does not raise
    # the peak
    n = 10
    unitaries = element_unitaries(n, *rep_generators(n))
    orbits = [graph_orbit(n, s, unitaries=unitaries) for s in range(n)]
    peaks = []
    for stage in (lambda: proposition1_scan(n, 0, unitaries=unitaries, orbit=orbits[0]),
                  lambda: verify_theorem2(n, unitaries=unitaries, orbit_graphs=orbits)):
        tracemalloc.start()
        try:
            stage()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


def _synthetic_orbit(diagonals):
    """An OperatorGraph whose generators are the given diagonals, each its
    own class."""
    space, rows, spread = _class_span(diagonals, np.arange(len(diagonals)))
    return OperatorGraph(1, 0, space, [((0, g), v) for g, v in enumerate(diagonals)],
                         rows, spread)


@pytest.mark.parametrize('n', range(2, 9))
def test_span_census_matches_the_per_generator_compression(n):
    # the census compresses only the n class rows of the orbit and adds the
    # spread; compressing each of the n^2 generators densely by the record's
    # own isometry must give the same verdicts and, to roundoff, the same
    # worst residual
    unitaries = element_unitaries(n, *rep_generators(n))
    orbit = graph_orbit(n, 0, unitaries=unitaries)
    diagonals = np.array([v for _, v in orbit.provenance])
    scan = proposition1_scan(n, 0, unitaries=unitaries, orbit=orbit)
    for rec in scan.projections:
        b = _record_isometry(unitaries, rec)
        assert b.shape[1] == rec.rank
        want = _dense_compression_residual(b, diagonals)
        assert abs(rec.kl_residual - want) <= 1e-12
        assert abs(float(compress_diagonals(b, diagonals)[0].max()) - want) <= 1e-12
        assert rec.compresses == (want <= DEFAULT_TOL)
        assert rec.is_anticlique == (want <= DEFAULT_TOL and rec.rank >= 2)


def test_census_counts_the_off_diagonal_entries_of_a_shared_cycle():
    # at a very large tol one cluster can hold two columns of one cycle, and
    # their compressions then have off-diagonal entries: here a 2-cycle
    # (eigenvalues 1 and -1) and a fixed point (eigenvalue 1) form one
    # cluster at tol 0.25
    tol = 0.25
    table = _table([1, 0, 2], np.ones(3))
    diagonals = np.random.default_rng(5).standard_normal((4, 3))
    orbit = _synthetic_orbit(diagonals)
    [rec] = proposition1_scan(1, 0, tol, unitaries=table, orbit=orbit).projections
    b = table.clusters(0, 0, tol).columns(0).dense()
    assert rec.rank == b.shape[1] == 3
    want = _dense_compression_residual(b, diagonals)
    diagonal_only = max(frob(np.diag(np.diag((b.conj().T * x) @ b)) - np.mean(x) * np.eye(3))
                        for x in diagonals)
    assert want - diagonal_only > 0.1
    assert abs(rec.kl_residual - want) <= 1e-12


def test_census_common_projection_is_the_dense_one():
    # a one-element table: every rank >= 2 cluster is common, here the
    # eigenvalue 1 of a 2-cycle and a fixed point
    table = _table([1, 0, 2], np.ones(3))
    diagonals = np.random.default_rng(5).standard_normal((4, 3))
    scan = proposition1_scan(1, 0, unitaries=table, orbit=_synthetic_orbit(diagonals))
    dec = spectral_projections(table.dense(0, 0))
    assert [r.rank for r in scan.projections] == list(dec.ranks) == [2, 1]
    [common] = scan.common
    assert np.abs(cluster_projector(common) - dec.projectors[0]).max() <= 1e-12


@pytest.mark.parametrize('n', [3, 4, 6])
def test_cluster_overlaps_match_the_dense_products(n):
    # ||B* C||_F^2 for every pair of a cluster B of one element and a
    # cluster C of a stack of two others whose cycles differ, in one gather,
    # against the dense product
    unitaries = element_unitaries(n, *rep_generators(n))
    ones, others = unitaries.clusters(1, 1), unitaries.clusters([0, 2], [1, 1])
    mine = [ones.columns(c) for c in range(len(ones.values))]
    theirs = [others.columns(c).dense() for c in range(len(others.values))]
    pairs = [(a, c) for a in range(len(mine)) for c in range(len(theirs))]
    got = others.overlaps([mine[a] for a, _ in pairs], [c for _, c in pairs])
    for (a, c), value in zip(pairs, got):
        dense = mine[a].dense()
        assert frob(dense.conj().T @ dense - np.eye(mine[a].rank)) <= 1e-12
        assert abs(value - frob(dense.conj().T @ theirs[c]) ** 2) <= 1e-12
    assert got.max() > 0.1


def test_cluster_overlaps_read_columns_that_share_a_cycle():
    # at tol 0.25 the 2-cycle's eigenvalues 1 and -1 and the fixed point's 1
    # form one cluster of three columns, two of them on one cycle
    table = _table([1, 0, 2], np.ones(3))
    clusters = table.clusters(0, 0, 0.25)
    assert clusters.shared.tolist() == [True]
    b = clusters.columns(0).dense()
    rng = np.random.default_rng(9)
    for _ in range(3):
        c = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))[0]
        cols = ClusterColumns(3, np.array([0, 1, 2, 0, 1, 2]), c.T.ravel(), np.array([0, 3]))
        [got] = clusters.overlaps([cols], [0])
        assert abs(got - frob(c.conj().T @ b) ** 2) <= 1e-12


@pytest.mark.parametrize('seed', range(4))
def test_compressions_of_a_dense_isometry_match_the_dense_forms(seed):
    # every row shared by every column: the general case of _compressions
    rng = np.random.default_rng(seed)
    d, rank = 7, 3
    b = np.linalg.qr(rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank)))[0]
    diagonals = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
    comps = []
    for x in diagonals:
        blk = (b.conj().T * x) @ b
        comps.append(blk - np.trace(blk) / rank * np.eye(rank))
    residual, lam = compress_diagonals(b, diagonals)
    assert np.allclose(residual, [frob(c) for c in comps], rtol=0.0, atol=1e-12)
    assert np.allclose(lam, [np.trace((b.conj().T * x) @ b) / rank for x in diagonals],
                       rtol=0.0, atol=1e-12)


# summary() of the dense-reconstruction census that the cycle blocks replaced, n = 2..16
CENSUS_SUMMARIES = {
    2: (7, 6), 3: (13, 12), 4: (31, 24), 5: (31, 30), 6: (91, 72), 7: (57, 56),
    8: (127, 96), 9: (121, 108), 10: (217, 180), 11: (133, 132), 12: (403, 288),
    13: (183, 182), 14: (399, 336), 15: (403, 360), 16: (511, 384),
}


@pytest.mark.parametrize('n', sorted(CENSUS_SUMMARIES))
def test_census_summary_is_the_golden_one(n):
    distinct, anti = CENSUS_SUMMARIES[n]
    assert proposition1_scan(n, 0).summary() == (
        f'common rank>=2 projections: 0; distinct spectral projections: {distinct} '
        f'({distinct} of rank>=2, {anti} anticliques for the orbit)')


def test_census_reconstruction_guard_catches_swapped_eigenvectors(monkeypatch):
    # two eigenvector columns of different eigenvalues exchanged within one
    # cycle: the clusters still look clean, but u V is no longer V Lambda
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))
    blocks = unitaries.eigenpairs(1, 1)
    block = blocks[-1]
    assert block.values.shape[1] >= 2
    assert abs(block.values[0, 0] - block.values[0, 1]) > 1e-3
    vectors = block.vectors.copy()
    vectors[0][:, [0, 1]] = vectors[0][:, [1, 0]]
    _feed(monkeypatch, blocks)
    unitaries.clusters(1, 1)
    _feed(monkeypatch, blocks[:-1] + [block._replace(vectors=vectors)])
    with pytest.raises(ValueError, match='reconstruct'):
        unitaries.clusters(1, 1)


def _feed(monkeypatch, blocks):
    """Make GroupAction.eigenpairs hand out the given cycle blocks."""
    monkeypatch.setattr(GroupAction, 'eigenpairs',
                        lambda self, p, q, tol=DEFAULT_TOL: blocks)


def _tampered(monkeypatch, unitaries, p, q, edit):
    """Feed clusters the cycle blocks of (p, q) with edit applied to a copy
    of the vectors of the longest cycles; the edit must change them."""
    blocks = unitaries.eigenpairs(p, q)
    block = blocks[-1]
    vectors = block.vectors.copy()
    edit(block, vectors)
    assert not np.allclose(vectors, block.vectors)
    _feed(monkeypatch, blocks[:-1] + [block._replace(vectors=vectors)])


def test_cycle_guard_catches_a_wrong_cluster_representative(monkeypatch):
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))
    clustered = weylgraph.weylrep.cluster_eigenvalues

    def turned(eigs, tol):
        values, labels = clustered(eigs, tol)
        values = values.copy()
        values[1] *= np.exp(1e-6j)
        return values, labels

    monkeypatch.setattr(weylgraph.weylrep, 'cluster_eigenvalues', turned)
    with pytest.raises(ValueError, match='reconstruct'):
        unitaries.clusters(1, 1)


def test_cycle_guard_catches_a_shifted_phase_walk(monkeypatch):
    # the walk taken one step late, phase[i_0] ... phase[i_m] instead of
    # phase[i_0] ... phase[i_(m-1)]: on a cycle with unequal phases the
    # columns are no longer eigenvectors
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))
    phase = unitaries.phase[1, 1]

    def shift(block, vectors):
        steps = phase[block.positions[0]]
        assert np.ptp(np.angle(steps)) > 1e-3
        size = len(steps)
        m = np.arange(size)[:, None]
        vectors[0] = block.values[0] ** m / np.cumprod(steps)[:, None] / np.sqrt(size)

    _tampered(monkeypatch, unitaries, 1, 1, shift)
    with pytest.raises(ValueError, match='reconstruct'):
        unitaries.clusters(1, 1)


def test_cycle_guard_catches_a_scaled_column(monkeypatch):
    # a scaled eigenvector is still an eigenvector: only the orthonormality
    # defect of its block sees it
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))

    def scale(block, vectors):
        vectors[0, :, 0] *= 1.001

    _tampered(monkeypatch, unitaries, 1, 1, scale)
    with pytest.raises(ValueError, match='reconstruct'):
        unitaries.clusters(1, 1)


def test_cycle_guard_catches_a_column_swapped_between_cycles(monkeypatch):
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))

    def swap(block, vectors):
        assert len(block.positions) >= 2
        vectors[0, :, 0], vectors[1, :, 1] = block.vectors[1, :, 1], block.vectors[0, :, 0]

    _tampered(monkeypatch, unitaries, 1, 1, swap)
    with pytest.raises(ValueError, match='reconstruct'):
        unitaries.clusters(1, 1)


# -- the cycle eigenpairs ------------------------------------------------------

def _table(perm, phase) -> GroupAction:
    return GroupAction(np.asarray(perm)[None, None],
                       np.asarray(phase, dtype=complex)[None, None])


@st.composite
def monomials(draw):
    d = draw(st.integers(1, 16))
    perm = draw(st.permutations(range(d)))
    if draw(st.booleans()):
        # generic phases on a grid fine enough to be generic, coarse enough
        # that distinct eigenvalues stay far outside the clustering gap
        ticks = draw(st.lists(st.integers(0, 10**6 - 1), min_size=d, max_size=d))
        phase = np.exp(2j * np.pi * np.array(ticks) / 10**6)
    else:
        # roots of unity of a common order, so clusters have multiplicity
        order = draw(st.integers(1, 12))
        powers = draw(st.lists(st.integers(0, order - 1), min_size=d, max_size=d))
        phase = unit_roots(order)[powers]
    return _table(perm, phase)


def _dense_eigenpairs(blocks, d):
    """The eigenvalues and the d x d eigenvector matrix spelled out from the
    cycle blocks, columns in block order."""
    values, vectors, col = np.empty(d, dtype=complex), np.zeros((d, d), dtype=complex), 0
    for block in blocks:
        for positions, lam, vecs in zip(block.positions, block.values, block.vectors):
            size = len(positions)
            values[col:col + size] = lam
            vectors[positions, col:col + size] = vecs
            col += size
    assert col == d
    return values, vectors


@settings(max_examples=150, deadline=None)
@given(monomials())
def test_eigenpairs_diagonalise_the_dense_unitary(table):
    u = table.dense(0, 0)
    d = u.shape[0]
    values, vectors = _dense_eigenpairs(table.eigenpairs(0, 0), d)
    assert frob(vectors.conj().T @ vectors - np.eye(d)) <= 1e-12
    assert frob(u @ vectors - vectors * values) <= 1e-12
    eigenvalues, isometries = cluster_eigenpairs(values, vectors, u)
    projectors = np.array([b @ b.conj().T for b in isometries])
    dec = spectral_projections(u)
    assert tuple(b.shape[1] for b in isometries) == dec.ranks
    assert np.abs(eigenvalues - dec.eigenvalues).max() <= 1e-9
    assert np.abs(projectors - dec.projectors).max() <= 1e-9
    # the cycle path clusters alike, without the dense unitary
    clusters = table.clusters(0, 0)
    assert tuple(clusters.ranks) == dec.ranks
    assert np.abs(clusters.values - dec.eigenvalues).max() <= 1e-9
    for c, (proj, rank) in enumerate(zip(dec.projectors, dec.ranks)):
        cols = clusters.columns(c)
        assert cols.rank == rank
        assert np.abs(cluster_projector(cols) - proj).max() <= 1e-9


def test_eigenpairs_reject_a_non_permutation():
    # 0 -> 1 -> 1 never returns to 0: walking it would not terminate
    table = _table([1, 1, 2], np.ones(3))
    with pytest.raises(ValueError, match='not a permutation'):
        table.eigenpairs(0, 0)


def test_eigenpairs_reject_a_non_unimodular_phase():
    table = _table([1, 2, 0], [1.0, 1.0 + 1e-6, 1.0])
    with pytest.raises(ValueError, match='input is not unitary within tolerance'):
        table.eigenpairs(0, 0)


def test_census_catches_a_perturbed_generator_diagonal():
    # the census and kl_suite_extremes read the generators' diagonals; a 1e-6
    # defect in one diagonal entry of one generator must reach both verdicts
    n, index = 3, 2
    unitaries = element_unitaries(n, *rep_generators(n))
    orbits = [graph_orbit(n, s, unitaries=unitaries) for s in range(n)]
    tampered = [(g, v.copy()) for g, v in orbits[0].provenance]
    # element (1, 1) is not the first of its class (0, 1), so the defect
    # reaches the census through the spread
    tampered[4][1][index] += 1e-6
    space, rows, spread = _class_span(np.array([v for _, v in tampered]),
                                      unitaries.grouping[1])
    assert spread >= 1e-6
    orbit = OperatorGraph(n, 0, space, tampered, rows, spread)
    scan = proposition1_scan(n, 0, unitaries=unitaries, orbit=orbit)
    codes = [r for r in scan.projections if r.element == (0, 1)]
    assert len(codes) == n
    # every code projection covers the index: P_k has diagonal 1/n
    for k in range(n):
        assert anticlique_projector(n, k)[index, index].real >= 1.0 / n - 1e-12
    for rec in codes:
        assert rec.kl_residual > 1e-10
        assert not rec.is_anticlique
    diagonals = [[v for _, v in tampered]] + \
        [[v for _, v in g.provenance] for g in orbits[1:]]
    worst, _, _ = kl_suite_extremes(n, entangled_basis(n), diagonals)
    assert worst > 1e-10
