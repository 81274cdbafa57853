"""The group-wide spectral census from the cycle blocks of the monomial table,
against the dense Schur census it replaced and its golden summaries, plus
property and mutation tests for the cycle eigenpairs and their guard, and
for the unit classes whose members take their first element's clusters."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylgraph.graphs
import weylgraph.linalg
import weylgraph.weylrep
from dense_oracles import cluster_projector, member_diagonals
from exact_oracles import census_closed_form_errors, dedekind_psi
from weylgraph.covariant import q_projection
from weylgraph.graphs import (OperatorGraph, Prop1Scan, ScanProjection, _MATCH_TOL,
                              _class_span, _overlap, anticlique_projector, check_knill_laflamme,
                              compressions, graph_orbit, kl_suite_extremes,
                              proposition1_scan)
from weylgraph.linalg import (DEFAULT_TOL, cluster_eigenpairs, frob,
                              random_hermitian, spectral_projections)
from weylgraph.weylrep import (ClusterColumns, CycleClusters, GroupAction, element_unitaries,
                               entangled_basis, rep_generators)


def dense_census(n, s, tol=DEFAULT_TOL, unitaries=None):
    """The census from one dense Schur decomposition per element of the
    table unitaries (the group's by default), in (p, q) order, and one eigh
    per distinct projection, compressing the dense orbit generators
    u Q_s u*: the reference for proposition1_scan."""
    if unitaries is None:
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


def _assert_same_census(fast, dense):
    assert fast.summary() == dense.summary()
    assert len(fast.projections) == len(dense.projections)
    for a, b in zip(fast.projections, dense.projections):
        assert (a.element, a.rank, a.occurrences, a.is_anticlique) == \
            (b.element, b.rank, b.occurrences, b.is_anticlique)
        assert abs(a.eigenvalue - b.eigenvalue) <= 1e-9
        assert abs(a.kl_residual - b.kl_residual) <= 1e-9


@pytest.mark.parametrize('n', range(2, 11))
def test_cycle_census_matches_dense_census(n):
    fast, dense = proposition1_scan(n, 0), dense_census(n, 0)
    assert fast.common == [] and dense.common == []
    _assert_same_census(fast, dense)


def _clustered_elements(monkeypatch):
    """Wrap GroupAction.clusters to list, in call order, the flat (p, q)
    indices of the elements that it clusters."""
    seen = []
    clusters = GroupAction.clusters

    def counting(self, p, q, tol=DEFAULT_TOL):
        seen.extend((np.asarray(p) * self.perm.shape[1] + np.asarray(q)).ravel().tolist())
        return clusters(self, p, q, tol)

    monkeypatch.setattr(GroupAction, 'clusters', counting)
    return seen


@pytest.mark.parametrize('n, classes', [(5, 7), (7, 9), (10, 28)])
def test_census_clusters_one_element_per_unit_class(n, classes, monkeypatch):
    # (a p, a q) for gcd(a, n) = 1 has the spectral projections of (p, q):
    # n + 2 classes at a prime n (the identity and the n + 1 lines through
    # the origin), 28 at n = 10; each class is clustered at its first element
    unitaries = element_unitaries(n, *rep_generators(n))
    first = unitaries.unit_classes[0]
    assert len(set(first.tolist())) == classes
    seen = _clustered_elements(monkeypatch)
    proposition1_scan(n, 0, unitaries=unitaries)
    assert len(seen) == classes
    assert seen == sorted(set(first.tolist()))


def test_unit_classes_certify_every_member_of_the_group_table():
    for n in range(2, 13):
        unitaries = element_unitaries(n, *rep_generators(n))
        first, power, shift = unitaries.unit_classes
        for e in range(n * n):
            g, a, c = int(first[e]), int(power[e]), int(shift[e])
            assert c >= 0 and g <= e
            assert divmod(e, n) == (a * (g // n) % n, a * (g % n) % n)
            if e != g:
                want = np.exp(2j * np.pi * c / n) * np.linalg.matrix_power(
                    unitaries.dense(*divmod(g, n)), a)
                assert np.abs(unitaries.dense(*divmod(e, n)) - want).max() <= 1e-12


def _raise_one_exponent(table, e):
    expo = table.expo.copy()
    expo.reshape(-1, expo.shape[-1])[e, 3] += 1
    return dataclasses.replace(table, expo=expo)


def _swap_two_rows(table, e):
    perm = table.perm.copy()
    row = perm.reshape(-1, perm.shape[-1])[e]
    row[[1, 5]] = row[[5, 1]]
    return dataclasses.replace(table, perm=perm)


@pytest.mark.parametrize('tamper', [_raise_one_exponent, _swap_two_rows])
@pytest.mark.parametrize('n, element', [(6, (0, 5)), (7, (3, 2))])
def test_a_tampered_member_is_clustered_on_its_own(n, element, tamper, monkeypatch):
    # a member whose row is not w^c u_g^a fails the table identity and is
    # clustered in its (p, q) place: the census is the per-element one of
    # the tampered table, and not that of the group
    unitaries = element_unitaries(n, *rep_generators(n))
    e = element[0] * n + element[1]
    first = unitaries.unit_classes[0]
    assert first[e] < e
    table = tamper(unitaries, e)
    assert table.unit_classes[2][e] == -1
    seen = _clustered_elements(monkeypatch)
    fast = proposition1_scan(n, 0, unitaries=table)
    assert seen == sorted(set(first.tolist()) | {e})
    monkeypatch.undo()
    _assert_same_census(fast, dense_census(n, 0, unitaries=table))
    honest = proposition1_scan(n, 0, unitaries=unitaries)
    assert [(r.element, r.rank, r.occurrences) for r in fast.projections] != \
        [(r.element, r.rank, r.occurrences) for r in honest.projections]


@pytest.mark.parametrize('order, cycles, expo, tol', [
    # two 2-cycles: their square sends the eigenvalues 1 and -1 both to 1
    (3, [1, 0, 3, 2], [0, 0, 0, 0], DEFAULT_TOL),
    # at tol 0.06 one cluster holds 1 and exp(2 pi i / 12), 0.52 apart;
    # their squares, 1 apart, are not linked
    (12, [0, 1, 2, 3], [0, 1, 0, 0], 0.06),
])
def test_a_member_that_does_not_cluster_as_its_first_element_is_clustered_on_its_own(
        order, cycles, expo, tol, monkeypatch):
    # a 3 x 3 table of identities but for (0, 1) and its square (0, 2): the
    # table proves u_(0,2) = u_(0,1)^2, but the cluster test refuses it, so
    # (0, 2) is clustered in its place, inside the stack of (0, 1)
    n, d = 3, 9
    perm = np.tile(np.arange(d), (n, n, 1))
    exps = np.zeros((n, n, d), dtype=int)
    perm[0, 1, :4], exps[0, 1, :4] = cycles, expo
    perm[0, 2] = perm[0, 1][perm[0, 1]]
    exps[0, 2] = (exps[0, 1] + exps[0, 1][perm[0, 1]]) % order
    table = GroupAction(perm, exps, order)
    first, power, shift = table.unit_classes
    assert (first[2], power[2], shift[2]) == (1, 2, 0)
    seen = _clustered_elements(monkeypatch)
    fast = proposition1_scan(n, 0, tol, unitaries=table)
    # the stack of the first elements, then again with (0, 2) in its place
    assert seen == [0, 1, 3, 4, 5, 0, 1, 2, 3, 4, 5]
    monkeypatch.undo()
    _assert_same_census(fast, dense_census(n, 0, tol, unitaries=table))


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
    return clusters.columns.cluster(c).dense()


@pytest.mark.parametrize('n', [2, 3, 4, 5, 6])
def test_census_matches_the_dense_census_when_every_key_collides(n, monkeypatch):
    # every cluster of one rank in one bucket: each cluster then compares
    # with the records of its rank in record order, and must still find the
    # first match, both within one stack of the whole table and, with one
    # element per stack, against buckets of many records
    monkeypatch.setattr(CycleClusters, 'traces',
                        lambda self, x: np.zeros(len(self.values)))
    dense = dense_census(n, 0)
    for budget in (weylgraph.linalg._STACK_ENTRIES, 1):
        monkeypatch.setattr(weylgraph.linalg, '_STACK_ENTRIES', budget)
        fast = proposition1_scan(n, 0)
        assert len(fast.projections) == len(dense.projections)
        for a, b in zip(fast.projections, dense.projections):
            assert (a.element, a.rank, a.occurrences, a.is_anticlique) == \
                (b.element, b.rank, b.occurrences, b.is_anticlique)
            assert abs(a.eigenvalue - b.eigenvalue) <= 1e-9
            assert abs(a.kl_residual - b.kl_residual) <= 1e-9


@pytest.mark.parametrize('n', range(2, 9))
def test_census_matches_uncertified_members_through_the_dedup(n, monkeypatch):
    # with no member certified, every element is clustered on its own, and
    # each member's clusters must find its first element's records in the
    # dedup: among the first sightings of its own stack when one stack holds
    # the whole table, and among the records with one element per stack
    unitaries = element_unitaries(n, *rep_generators(n))
    members = n * n - len(set(unitaries.unit_classes[0].tolist()))
    certified, dense = proposition1_scan(n, 0, unitaries=unitaries), dense_census(n, 0)
    unit_classes = GroupAction.unit_classes.func

    def uncertified(self):
        first, power, shift = unit_classes(self)
        return first, power, np.full_like(shift, -1)

    compared = []
    overlap = weylgraph.graphs._overlap
    monkeypatch.setattr(GroupAction, 'unit_classes', property(uncertified))
    monkeypatch.setattr(weylgraph.graphs, '_overlap',
                        lambda b, c: compared.append(1) or overlap(b, c))
    seen = _clustered_elements(monkeypatch)
    for budget in (weylgraph.linalg._STACK_ENTRIES, 1):
        monkeypatch.setattr(weylgraph.linalg, '_STACK_ENTRIES', budget)
        seen.clear()
        compared.clear()
        fast = proposition1_scan(n, 0)
        assert seen == list(range(n * n))
        assert len(compared) >= members
        assert fast.projections == certified.projections
        assert fast.common == certified.common == []
        _assert_same_census(fast, dense)


def test_dedekind_psi_counts_the_cyclic_subgroups_of_full_order():
    # the elements of order n of Z_n x Z_n, phi(n) to each cyclic subgroup
    for n in range(1, 41):
        full = sum(np.gcd.reduce([p, q, n]) == 1 for p in range(n) for q in range(n))
        units = sum(np.gcd(a, n) == 1 for a in range(n))
        assert dedekind_psi(n) * units == full


@pytest.mark.parametrize('n', range(2, 25))
def test_census_has_its_closed_form(n):
    # n psi(n) anticliques, one per eigenvalue of each cyclic subgroup of
    # full order; sum_{d | n} d psi(d) distinct projections, of rank n^2 / d
    # for the elements of order d; the lower orders give no anticlique
    assert census_closed_form_errors(proposition1_scan(n, 0)) == []


@pytest.mark.parametrize('n', [6, 8])
def test_census_closed_form_catches_a_wrong_census(n):
    # a full-order projection marked as no anticlique, and the census of a
    # table with one exponent of a first element of full order raised, so
    # that its clusters split, each depart from the closed form
    scan = proposition1_scan(n, 0)
    e = next(j for j, rec in enumerate(scan.projections) if rec.is_anticlique)
    scan.projections[e] = dataclasses.replace(scan.projections[e], is_anticlique=False)
    assert census_closed_form_errors(scan)
    unitaries = element_unitaries(n, *rep_generators(n))
    tampered = _raise_one_exponent(unitaries, 1)
    assert census_closed_form_errors(proposition1_scan(n, 0, unitaries=tampered))


def test_census_stacks_peak_below_the_unbudgeted_census(monkeypatch):
    # the census takes the table in stacks of at most _STACK_ENTRIES
    # eigenvector entries; with the budget lifted the whole table is one
    # stack, and the stacks must at least halve that peak.  One untraced run
    # first builds what the table caches and loads numpy.random, which the
    # census's probe imports on first use
    n = 10
    unitaries = element_unitaries(n, *rep_generators(n))
    orbit = graph_orbit(n, 0, unitaries=unitaries)
    proposition1_scan(n, 0, unitaries=unitaries, orbit=orbit)
    peaks = []
    for budget in (weylgraph.linalg._STACK_ENTRIES, 1 << 30):
        monkeypatch.setattr(weylgraph.linalg, '_STACK_ENTRIES', budget)
        tracemalloc.start()
        try:
            proposition1_scan(n, 0, unitaries=unitaries, orbit=orbit)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 2 * peaks[0] <= peaks[1], peaks


def _synthetic_orbit(diagonals):
    """An OperatorGraph whose generators are the given diagonals, each its
    own class."""
    every = np.arange(len(diagonals))
    return OperatorGraph(1, 0, _class_span(diagonals, every), diagonals, every)


@pytest.mark.parametrize('n', range(2, 9))
def test_span_census_matches_the_per_generator_compression(n):
    # the census compresses only the n class rows of the orbit; compressing
    # each of the n^2 generators densely by the record's own isometry must
    # give the same verdicts and, to roundoff, the same worst residual
    unitaries = element_unitaries(n, *rep_generators(n))
    orbit = graph_orbit(n, 0, unitaries=unitaries)
    diagonals = member_diagonals(unitaries, 0)
    scan = proposition1_scan(n, 0, unitaries=unitaries, orbit=orbit)
    for rec in scan.projections:
        b = _record_isometry(unitaries, rec)
        assert b.shape[1] == rec.rank
        want = _dense_compression_residual(b, diagonals)
        assert abs(rec.kl_residual - want) <= 1e-12
        got = compressions(ClusterColumns.of(b), diagonals)[0]
        assert abs(float(got.max()) - want) <= 1e-12
        assert rec.compresses == (want <= DEFAULT_TOL)
        assert rec.is_anticlique == (want <= DEFAULT_TOL and rec.rank >= 2)


def test_census_counts_the_off_diagonal_entries_of_a_shared_cycle():
    # at a very large tol one cluster can hold two columns of one cycle, and
    # their compressions then have off-diagonal entries: here a 2-cycle
    # (eigenvalues 1 and -1) and a fixed point (eigenvalue 1) form one
    # cluster at tol 0.25
    tol = 0.25
    table = _table([1, 0, 2], np.zeros(3, dtype=int), 1)
    diagonals = np.random.default_rng(5).standard_normal((4, 3))
    orbit = _synthetic_orbit(diagonals)
    [rec] = proposition1_scan(1, 0, tol, unitaries=table, orbit=orbit).projections
    b = table.clusters(0, 0, tol).columns.cluster(0).dense()
    assert rec.rank == b.shape[1] == 3
    want = _dense_compression_residual(b, diagonals)
    diagonal_only = max(frob(np.diag(np.diag((b.conj().T * x) @ b)) - np.mean(x) * np.eye(3))
                        for x in diagonals)
    assert want - diagonal_only > 0.1
    assert abs(rec.kl_residual - want) <= 1e-12


def test_census_common_projection_is_the_dense_one():
    # a one-element table: every rank >= 2 cluster is common, here the
    # eigenvalue 1 of a 2-cycle and a fixed point
    table = _table([1, 0, 2], np.zeros(3, dtype=int), 1)
    diagonals = np.random.default_rng(5).standard_normal((4, 3))
    scan = proposition1_scan(1, 0, unitaries=table, orbit=_synthetic_orbit(diagonals))
    dec = spectral_projections(table.dense(0, 0))
    assert [r.rank for r in scan.projections] == list(dec.ranks) == [2, 1]
    [common] = scan.common
    assert np.abs(cluster_projector(common) - dec.projectors[0]).max() <= 1e-12


@pytest.mark.parametrize('n', [3, 4, 6])
def test_cluster_overlaps_match_the_dense_products(n):
    # ||B* C||_F^2 for every pair of a cluster B of one element and a
    # cluster C of a stack of two others whose cycles differ, against the
    # dense product
    unitaries = element_unitaries(n, *rep_generators(n))
    ones, others = unitaries.clusters(1, 1), unitaries.clusters([0, 2], [1, 1])
    mine = [ones.columns.cluster(c) for c in range(len(ones.values))]
    theirs = [others.columns.cluster(c).dense() for c in range(len(others.values))]
    pairs = [(a, c) for a in range(len(mine)) for c in range(len(theirs))]
    got = np.array([_overlap(mine[a], others.columns.cluster(c)) for a, c in pairs])
    for (a, c), value in zip(pairs, got):
        dense = mine[a].dense()
        assert frob(dense.conj().T @ dense - np.eye(mine[a].rank)) <= 1e-12
        assert abs(value - frob(dense.conj().T @ theirs[c]) ** 2) <= 1e-12
    assert got.max() > 0.1


def test_cluster_overlaps_read_columns_that_share_a_cycle():
    # at tol 0.25 the 2-cycle's eigenvalues 1 and -1 and the fixed point's 1
    # form one cluster of three columns, two of them on one cycle; the
    # overlap reads it on either side of the pair
    table = _table([1, 0, 2], np.zeros(3, dtype=int), 1)
    clusters = table.clusters(0, 0, 0.25)
    b = clusters.columns.cluster(0).dense()
    assert (np.count_nonzero(b, axis=1) > 1).any()
    rng = np.random.default_rng(9)
    for _ in range(3):
        c = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))[0]
        cols = ClusterColumns.of(c)
        shared = clusters.columns.cluster(0)
        for got in (_overlap(cols, shared), _overlap(shared, cols)):
            assert abs(got - frob(c.conj().T @ b) ** 2) <= 1e-12


@pytest.mark.parametrize('n', [3, 4, 6])
def test_cluster_traces_are_the_dense_probe_forms(n):
    # the dedup key Tr(G* P G) = ||b* G||_F^2 of every cluster of a stack,
    # read from G on the cycles, against the dense projection, also for a
    # cluster of the wide tol whose columns share a cycle
    unitaries = element_unitaries(n, *rep_generators(n))
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n * n, 2)) + 1j * rng.standard_normal((n * n, 2))
    clusters = unitaries.clusters([0, 1, 2], [1, 1, 2])
    got = clusters.traces(g)
    for c, value in enumerate(got):
        proj = cluster_projector(clusters.columns.cluster(c))
        assert abs(value - np.trace(g.conj().T @ proj @ g).real) <= 1e-12 * n
    shared = _table([1, 0, 2], np.zeros(3, dtype=int), 1).clusters(0, 0, 0.25)
    [value] = shared.traces(g[:3])
    assert abs(value - frob(g[:3]) ** 2) <= 1e-12


@pytest.mark.parametrize('seed', range(4))
def test_compressions_of_a_dense_isometry_match_the_dense_forms(seed):
    # every row shared by every column: the general case of compressions
    rng = np.random.default_rng(seed)
    d, rank = 7, 3
    b = np.linalg.qr(rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank)))[0]
    diagonals = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
    comps = []
    for x in diagonals:
        blk = (b.conj().T * x) @ b
        comps.append(blk - np.trace(blk) / rank * np.eye(rank))
    residual, lam = compressions(ClusterColumns.of(b), diagonals)
    assert np.allclose(residual[:, 0], [frob(c) for c in comps], rtol=0.0, atol=1e-12)
    assert np.allclose(lam[:, 0], [np.trace((b.conj().T * x) @ b) / rank for x in diagonals],
                       rtol=0.0, atol=1e-12)


def test_cluster_columns_of_reads_the_nonzeros_of_an_isometry():
    # the code isometries have n nonzeros per column, a generic one has d
    basis = entangled_basis(3)
    dense = np.linalg.qr(np.random.default_rng(2).standard_normal((5, 2)))[0]
    for b in (basis.code_isometry(1), basis.flat(), dense):
        cols = ClusterColumns.of(b)
        assert cols.rank == b.shape[1]
        assert np.array_equal(cols.dense(), b)
    assert len(ClusterColumns.of(basis.flat()).rows) == 27
    # a column with no nonzero entry has an empty segment, whose
    # np.add.reduceat sum would be the next column's first entry
    b = basis.code_isometry(0)
    b[:, 1] = 0.0
    with pytest.raises(ValueError, match='no nonzero entry'):
        ClusterColumns.of(b)


@pytest.mark.parametrize('source', ['dense', 'stack'])
def test_cluster_columns_slice_like_the_dense_columns(source):
    # one cluster as views (cluster) and any clusters in any order as
    # copies (select), against the same columns of the dense isometry: a
    # dense one read as three clusters, and the clusters of a stack of
    # elements of different orders
    if source == 'dense':
        rng = np.random.default_rng(4)
        b = np.linalg.qr(rng.standard_normal((7, 6)) + 1j * rng.standard_normal((7, 6)))[0]
        columns = ClusterColumns.of(b, [0, 1, 4, 6])
    else:
        n = 6
        unitaries = element_unitaries(n, *rep_generators(n))
        columns = unitaries.clusters([0, 1, 2, 2], [1, 1, 3, 0]).columns
    b, tops = columns.dense(), columns.tops
    count = len(tops) - 1
    assert np.array_equal(columns.ranks, np.diff(tops)) and count >= 3
    for j in range(count):
        one = columns.cluster(j)
        assert one.tops.tolist() == [0, tops[j + 1] - tops[j]]
        assert np.array_equal(one.dense(), b[:, tops[j]:tops[j + 1]])
        assert np.shares_memory(one.entries, columns.entries)
    rng = np.random.default_rng(count)
    for cs in ([count - 1, 0], rng.permutation(count)[:count // 2], range(count)):
        picked = columns.select(cs)
        want = [b[:, tops[c]:tops[c + 1]] for c in cs]
        assert np.array_equal(picked.dense(), np.hstack(want))
        assert picked.ranks.tolist() == [w.shape[1] for w in want]
        assert not np.shares_memory(picked.entries, columns.entries)
        for j, w in enumerate(want):
            assert np.array_equal(picked.cluster(j).dense(), w)


@pytest.mark.parametrize('n', [4, 6])
def test_cluster_exact_values_are_the_cluster_values(n):
    # each cluster's eigenvalue as a fraction in lowest terms, read from
    # its columns' integer roots over their cycle lengths, for the whole
    # table as one stack, whose elements have cycles of different lengths;
    # at a wide tol a cluster holds two exact values
    unitaries = element_unitaries(n, *rep_generators(n))
    clusters = unitaries.clusters(*np.divmod(np.arange(n * n), n))
    assert len(set(clusters.lengths.tolist())) > 2
    top, bottom, single = clusters.exact(unitaries.order)
    assert single.all()
    assert (np.gcd(top, bottom) == 1).all() and ((top >= 0) & (top < bottom)).all()
    assert np.abs(np.exp(2j * np.pi * top / bottom) - clusters.values).max() <= 1e-12
    shared = _table([1, 0, 2], np.zeros(3, dtype=int), 1).clusters(0, 0, 0.25)
    assert shared.exact(1)[2].tolist() == [False]


def test_stack_clusters_hold_each_eigenvector_entry_once():
    # a stack's clusters keep each eigenvector entry once (its row and its
    # value, 24 B) and a few integers per column, also after a selection,
    # which is a copy of its own
    n = 10
    unitaries = element_unitaries(n, *rep_generators(n))
    # what the table caches, its grouping and phases, is built before tracing
    entries, _ = unitaries.cycle_entries(), unitaries.phase
    stack = np.arange(n, 2 * n)
    tracemalloc.start()
    try:
        clusters = unitaries.clusters(*np.divmod(stack, n))
        clusters.columns.select(range(len(clusters.values)))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(clusters.columns.rows) == entries[stack].sum()
    assert held <= 1.5 * 24 * entries[stack].sum(), held / (24 * entries[stack].sum())


@pytest.mark.parametrize('n', range(2, 9))
def test_compressions_match_check_knill_laflamme(n, monkeypatch):
    # three inputs against the dense P X P - lambda P: the codes, every code
    # at once; the clusters of a stack of census elements; and a dense
    # isometry whose every row is shared by every column.  Each at the
    # default budget and at one of 8 entries, which takes one row per
    # gather and one column per block of off-diagonal products
    rng = np.random.default_rng(n)
    d = n * n
    diagonals = rng.standard_normal((3, d))
    basis = entangled_basis(n)
    unitaries = element_unitaries(n, *rep_generators(n))
    clusters = unitaries.clusters([0, 1, 1], [1, 0, 1])
    dense = np.linalg.qr(rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3)))[0]
    inputs = [ClusterColumns.of(basis.flat(), n * np.arange(n + 1)),
              clusters.columns.select(range(len(clusters.values))),
              ClusterColumns.of(dense)]
    for columns, budget in itertools.product(inputs, (weylgraph.linalg._STACK_ENTRIES, 8)):
        monkeypatch.setattr(weylgraph.linalg, '_STACK_ENTRIES', budget)
        residual, lam = compressions(columns, diagonals)
        b, tops = columns.dense(), columns.tops
        for j, (lo, hi) in enumerate(zip(tops[:-1], tops[1:])):
            proj = b[:, lo:hi] @ b[:, lo:hi].conj().T
            for g, x in enumerate(diagonals):
                want = check_knill_laflamme([(g, np.diag(x))], proj)
                assert abs(residual[g, j] - want.max_residual) <= 1e-12
                assert abs(lam[g, j] - want.lambdas[g]) <= 1e-12


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

def _table(perm, expo, order) -> GroupAction:
    return GroupAction(np.asarray(perm)[None, None], np.asarray(expo)[None, None], order)


@st.composite
def monomials(draw):
    d = draw(st.integers(1, 16))
    perm = draw(st.permutations(range(d)))
    # roots of unity of an order up to 12, so clusters have multiplicity, or
    # up to 10^6, fine enough to be generic, coarse enough that distinct
    # eigenvalues stay far outside the clustering gap
    order = draw(st.integers(1, 12) | st.integers(1, 10**6))
    expo = draw(st.lists(st.integers(0, order - 1), min_size=d, max_size=d))
    return _table(perm, expo, order)


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
    assert tuple(clusters.columns.ranks) == dec.ranks
    assert np.abs(clusters.values - dec.eigenvalues).max() <= 1e-9
    for c, (proj, rank) in enumerate(zip(dec.projectors, dec.ranks)):
        cols = clusters.columns.cluster(c)
        assert cols.rank == rank
        assert np.abs(cluster_projector(cols) - proj).max() <= 1e-9


def test_eigenpairs_reject_a_non_permutation():
    # 0 -> 1 -> 1 never returns to 0: walking it would not terminate
    table = _table([1, 1, 2], np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError, match='not a permutation'):
        table.eigenpairs(0, 0)


def test_census_catches_a_perturbed_generator_diagonal():
    # the census and kl_suite_extremes read the generators' diagonals as
    # class rows; a 1e-6 defect in one diagonal entry of the row of one
    # class, that of (0, 1) and (1, 1), must reach both verdicts
    n, index = 3, 2
    unitaries = element_unitaries(n, *rep_generators(n))
    orbits = [graph_orbit(n, s, unitaries=unitaries) for s in range(n)]
    label = unitaries.grouping[1]
    assert label[1] == label[n + 1]
    rows = orbits[0].rows.copy()
    rows[label[1], index] += 1e-6
    orbit = OperatorGraph(n, 0, _class_span(rows, label), rows, label)
    scan = proposition1_scan(n, 0, unitaries=unitaries, orbit=orbit)
    codes = [r for r in scan.projections if r.element == (0, 1)]
    assert len(codes) == n
    # every code projection covers the index: P_k has diagonal 1/n
    for k in range(n):
        assert anticlique_projector(n, k)[index, index].real >= 1.0 / n - 1e-12
    for rec in codes:
        assert rec.kl_residual > 1e-10
        assert not rec.is_anticlique
    worst, _, _ = kl_suite_extremes(n, entangled_basis(n), [orbit] + orbits[1:])
    assert worst > 1e-10
