"""The group-wide spectral census from the cycles of the monomial table,
against the dense Schur census it replaced, plus property and mutation tests
for the cycle eigenpairs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylgraph.graphs
from weylgraph.covariant import q_projection
from weylgraph.graphs import (OperatorGraph, Prop1Scan, ScanProjection, _MATCH_TOL,
                              anticlique_projector, compress_diagonals, graph_orbit,
                              kl_suite_extremes, proposition1_scan)
from weylgraph.linalg import (DEFAULT_TOL, cluster_eigenpairs, frob,
                              random_hermitian, spectral_projections, unit_roots)
from weylgraph.weylrep import (GroupAction, change_of_basis, element_unitaries,
                               rep_generators)


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


@pytest.mark.parametrize('n', range(2, 9))
def test_span_census_matches_the_per_generator_compression(n, monkeypatch):
    # the census compresses only the n orthonormal diagonals of the orbit
    # span; compressing each of the n^2 generators by the same isometry must
    # give the same verdicts and, to roundoff, the same worst residual
    unitaries = element_unitaries(n, *rep_generators(n))
    orbit = graph_orbit(n, 0, unitaries=unitaries)
    diagonals = np.array([v for _, v in orbit.provenance])
    seen = []
    gram = weylgraph.graphs.compression_gram

    def recording(b, rows):
        seen.append(b)
        return gram(b, rows)

    monkeypatch.setattr(weylgraph.graphs, 'compression_gram', recording)
    scan = proposition1_scan(n, 0, unitaries=unitaries, orbit=orbit)
    assert len(seen) == len(scan.projections)
    for b, rec in zip(seen, scan.projections):
        want = float(compress_diagonals(b, diagonals)[0].max())
        assert abs(rec.kl_residual - want) <= 1e-12
        assert rec.compresses == (want <= DEFAULT_TOL)
        assert rec.is_anticlique == (want <= DEFAULT_TOL and b.shape[1] >= 2)


def test_census_reconstruction_guard_catches_swapped_eigenvectors():
    # two eigenvector columns of different eigenvalues exchanged: the
    # clusters still look clean, but (V Lambda) V* is no longer the unitary
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))
    eigs, vectors = unitaries.eigenpairs(1, 1)
    i, j = 0, int(np.argmax(np.abs(eigs - eigs[0]) > 1e-3))
    assert j > 0
    swapped = vectors.copy()
    swapped[:, [i, j]] = swapped[:, [j, i]]
    cluster_eigenpairs(eigs, vectors, unitaries.dense(1, 1))
    with pytest.raises(ValueError, match='reconstruct'):
        cluster_eigenpairs(eigs, swapped, unitaries.dense(1, 1))


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


@settings(max_examples=150, deadline=None)
@given(monomials())
def test_eigenpairs_diagonalise_the_dense_unitary(table):
    u = table.dense(0, 0)
    d = u.shape[0]
    values, vectors = table.eigenpairs(0, 0)
    assert frob(vectors.conj().T @ vectors - np.eye(d)) <= 1e-12
    assert frob(u @ vectors - vectors * values) <= 1e-12
    eigenvalues, isometries = cluster_eigenpairs(values, vectors, u)
    projectors = np.array([b @ b.conj().T for b in isometries])
    dec = spectral_projections(u)
    assert tuple(b.shape[1] for b in isometries) == dec.ranks
    assert np.abs(eigenvalues - dec.eigenvalues).max() <= 1e-9
    assert np.abs(projectors - dec.projectors).max() <= 1e-9


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
    tampered[4][1][index] += 1e-6
    orbit = OperatorGraph(n, 0, orbits[0].space, tampered)
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
    worst, _ = kl_suite_extremes(n, change_of_basis(n), diagonals)
    assert worst > 1e-10
