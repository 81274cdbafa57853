"""Tests for the y/h/z generator families, the conjugation-orbit graphs, the
code anticliques, and the span audit."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import exact_oracles
import weylgraph.graphs
import weylgraph.linalg
from dense_oracles import (cluster_projector, dense_h_generators, dense_subspace_equal,
                           dense_z_generators, dyad_grid, member_diagonals, member_span,
                           rep_element, z_grid)
from weylgraph.graphs import (
    OperatorGraph,
    _class_span,
    anticlique_projector,
    check_knill_laflamme,
    graph_orbit,
    h_generators,
    kl_corollary_check,
    kl_suite_extremes,
    proposition1_scan,
    spectral_match_check,
    verify_theorem2,
    y_units,
    z_generators,
)
from weylgraph.covariant import fixed_units, q_projection
from weylgraph.linalg import (frob, span_operators, spectral_projections,
                              subspace_equal, tensor_product, unit_roots)
from weylgraph.report import run_verification
from weylgraph.weylrep import (element_unitaries, entangled_basis, rep_generators,
                               shift_clock)


# -- the y units -------------------------------------------------------------

def test_y_units_projections_and_completeness():
    n = 3
    y = dyad_grid(y_units(n))
    total = np.zeros((9, 9), dtype=complex)
    for m in range(n):
        u = y[m, m]
        assert frob(u @ u - u) <= 1e-13
        assert np.trace(u).real == pytest.approx(n)
        total += u
    assert frob(total - np.eye(9)) <= 1e-13


def test_y_units_adjoint_and_orthogonality():
    n = 3
    y = dyad_grid(y_units(n))
    for m in range(n):
        for l in range(n):
            assert frob(y[m, l].conj().T - y[l, m]) <= 1e-13
            for mp in range(n):
                for lp in range(n):
                    inner = np.vdot(y[m, l], y[mp, lp])
                    want = n if (m, l) == (mp, lp) else 0.0
                    assert abs(inner - want) <= 1e-12


def test_y_units_clock_scaling():
    # conjugating by the clock image multiplies y_ml by w^(m-l)
    n = 3
    _, pi_m = rep_generators(n)
    y = dyad_grid(y_units(n))
    roots = unit_roots(n)
    for m in range(n):
        for l in range(n):
            moved = pi_m @ y[m, l] @ pi_m.conj().T
            assert frob(moved - roots[(m - l) % n] * y[m, l]) <= 1e-12


# -- the h family ------------------------------------------------------------

def test_h_family_identity_and_hermitian():
    n = 5
    h = h_generators(n).dense()
    assert frob(h[0] - np.eye(n * n)) <= 1e-12
    for mat in h:
        assert frob(mat - mat.conj().T) <= 1e-12


@pytest.mark.parametrize('n', range(2, 7))
def test_h_family_index_symmetry(n):
    # h_p and h_(n-p) are the same matrix, which caps the span dimension
    h = h_generators(n).dense()
    for p in range(1, n):
        assert frob(h[p] - h[(n - p) % n]) <= 1e-11
    assert exact_oracles.h_symmetry_holds(n)


@pytest.mark.parametrize('n', [4, 5])
def test_h_family_closed_form(n):
    # h_p = D_p (x) I with D_p the diagonal of 2 cos(2 pi p a / n)
    h = h_generators(n).dense()
    for p in range(1, n):
        diag = np.diag(2.0 * np.cos(2.0 * np.pi * p * np.arange(n) / n))
        want = tensor_product(diag.astype(complex), np.eye(n, dtype=complex))
        assert frob(h[p] - want) <= 1e-11


# -- the z family ------------------------------------------------------------

@st.composite
def y_grids(draw):
    """(n, j, y): an arbitrary complex grid y of shape (n, n, D, D), not
    necessarily built from any basis, and a label j in 0..n-1."""
    n, size = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n, n, size, size)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return n, draw(st.integers(0, n - 1)), y


@settings(max_examples=100, deadline=None)
@given(y_grids())
def test_z_grid_collapses_to_reduced_for_any_y(case):
    # grid[q][p] = reduced[(p - j) mod n] for every q and j: shifting m and l
    # by q only reorders the sum, whatever y is, so the unreduced grid checks
    # nothing and the report computes only the reduced family
    n, j, y = case
    grid, reduced = z_grid(n, j, y)
    scale = np.abs(y).sum()
    for q in range(n):
        for p in range(n):
            assert frob(grid[q, p] - reduced[(p - j) % n]) <= 1e-13 * scale


def test_z_grid_is_q_independent():
    n = 4
    grid, _ = z_grid(n, 1, dyad_grid(y_units(n)))
    for p in range(n):
        for q in range(1, n):
            assert frob(grid[q, p] - grid[0, p]) <= 1e-11


def test_z_grid_collapses_to_reduced():
    # on the entangled-basis y the collapsed grid is the library's z family
    n = 3
    y = dyad_grid(y_units(n))
    z = z_generators(n).dense()
    for j in range(n):
        grid, reduced = z_grid(n, j, y)
        for q in range(n):
            for p in range(n):
                assert frob(grid[q, p] - reduced[(p - j) % n]) <= 1e-11
                assert frob(grid[q, p] - z[(p - j) % n]) <= 1e-11


@pytest.mark.parametrize('n', [2, 3, 4, 5])
def test_z_reduced_is_scaled_block_projection(n):
    # reduced[c] = n Q_(-c mod n); equivalently Q_j = z_red[(-j) mod n] / n
    reduced = z_generators(n).dense()
    for j in range(n):
        assert frob(q_projection(n, j) - reduced[(-j) % n] / n) <= 1e-11


def test_z_span_dimension():
    n = 3
    reduced = z_generators(n)
    space = span_operators(reduced)
    assert space.dim == 3
    assert space.dim == exact_oracles.z_span_dim(n)


@pytest.mark.parametrize('n', [3, 4])
def test_families_match_defining_sums(n):
    # loop references: the expanded y factor keeps the arithmetic of the
    # block products; the h family sums through the factor in another order
    basis = entangled_basis(n)
    blocks = [basis.code_isometry(m) for m in range(n)]
    factor = y_units(n, basis)
    y = dyad_grid(factor)
    for m in range(n):
        for l in range(n):
            assert np.array_equal(y[m, l], blocks[m] @ blocks[l].conj().T)
    h = h_generators(n, factor).dense()
    assert frob(h[0] - sum(y[m, m] for m in range(n))) <= 1e-12
    for p in range(1, n):
        want = sum(y[(m + p) % n, m] + y[m, (m + p) % n] for m in range(n))
        assert frob(h[p] - want) <= 1e-12


@pytest.mark.parametrize('n', range(2, 9))
def test_unit_factors_stay_n4_and_expand_to_the_loop_sums(n):
    # the unit grids are kept as their basis vectors, 16 n^4 bytes each, and
    # the z family as its n reduced generators, each n blocks of n x n, also
    # 16 n^4 bytes; expanded, the factors are the per-pair defining sums
    d = n * n
    basis = entangled_basis(n)
    x_factor = fixed_units(n, basis).units
    y_factor = y_units(n, basis)
    assert x_factor.nbytes == y_factor.nbytes == 16 * n ** 4
    z_blocks = z_generators(n, y_factor)
    assert z_blocks.blocks.shape == (n, n, n, n)
    z = z_blocks.dense()
    assert z.shape == (n, d, d)
    h = basis.vectors  # h[k, j] is h_k^j
    x_grid, y_grid = dyad_grid(x_factor), dyad_grid(y_factor)
    roots = unit_roots(n)
    for a in range(n):
        for b in range(n):
            x_ab = sum(np.outer(h[k, a], h[k, b].conj()) for k in range(n))
            y_ab = sum(np.outer(h[a, k], h[b, k].conj()) for k in range(n))
            assert frob(x_grid[a, b] - x_ab) <= 1e-12
            assert frob(y_grid[a, b] - y_ab) <= 1e-12
    for c in range(n):
        want = sum(roots[(c * (m - l)) % n] * y_grid[m, l]
                   for m in range(n) for l in range(n))
        assert frob(z[c] - want) <= 1e-12


def perturbed_factors(n: int) -> dict:
    """The unit factor; copies with a stray ket at m = 0, at m != 0, and at
    both (each stray ket merges the supports of S_0 and S_(n-1)); and a copy
    with a dense 1e-6 perturbation (one component)."""
    d = n * n
    y = y_units(n)
    first, other = y.copy(), y.copy()
    first[0, 0, n] += 1.0
    other[1, n - 1, d - 1] += 0.5
    rng = np.random.default_rng(n)
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return {'real': y, 'stray m = 0': first, 'stray m != 0': other,
            'stray both': first + other - y, 'dense': y + 1e-6 * noise}


@pytest.mark.parametrize('n', range(2, 9))
def test_block_families_are_the_dense_ones(n):
    # h and z are built block by block on the components of the supports
    # T_k of the factor; densified, they are the products over the whole
    # factor, whatever the factor
    for name, y in perturbed_factors(n).items():
        h, z = h_generators(n, y), z_generators(n, y)
        assert np.array_equal(h.partition, z.partition)
        assert frob(h.dense() - np.array(dense_h_generators(n, y))) <= 1e-12
        assert frob(z.dense() - np.array(dense_z_generators(n, y))) <= 1e-12
        sizes = sorted((h.partition >= 0).sum(axis=1).tolist())
        want = ([n] * n if name == 'real' else [n * n] if name == 'dense' or n == 2
                else [n] * (n - 2) + [2 * n])
        assert sizes == want
    # on the real factor the blocks are S_k = {(a, a + k)}
    idx = np.arange(n)
    s_k = np.sort(idx * n + (idx[:, None] + idx) % n, axis=1)
    assert np.array_equal(h_generators(n).partition, s_k)


@pytest.mark.parametrize('m, k, index', [(0, 0, 'n'), (1, -1, 'last')])
def test_a_stray_ket_fails_orbit_equals_z(m, k, index):
    # a 1e-6 entry of the factor outside the support of y[m, k] merges two
    # blocks of z and puts mass off the diagonal, outside the orbit span
    n = 4
    y = y_units(n)
    y[m, k % n, n if index == 'n' else n * n - 1] += 1e-6
    checks, audit, _ = verify_theorem2(n, y=y)
    by_id = {c.check_id: c for c in checks}
    assert not by_id['orbit_equals_z'].passed
    assert by_id['orbit_equals_z'].max_residual >= 1e-7
    assert not audit.orbit_equals_z


def test_theorem2_holds_no_dense_stack():
    # a dense stack of n generators of size n^2 x n^2 is 16 n^5 bytes; the
    # span audit keeps its operators on the n blocks S_k, n^4 entries each
    n = 12
    basis = entangled_basis(n)
    unitaries = element_unitaries(n, *rep_generators(n))
    orbits = [graph_orbit(n, s, unitaries=unitaries) for s in range(n)]
    y = y_units(n, basis)
    tracemalloc.start()
    try:
        checks = verify_theorem2(n, basis=basis, unitaries=unitaries,
                                 orbit_graphs=orbits, y=y)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < 16 * n ** 5


def test_orbit_graphs_hold_no_member_diagonals():
    # the n orbit graphs of verify keep n class rows and n basis diagonals
    # each, 2 x 16 n^4 bytes together, and share one label; the n^2 member
    # diagonals of every orbit would add 16 n^5 bytes, n times as much
    n = 12
    unitaries = element_unitaries(n, *rep_generators(n))
    tracemalloc.start()
    try:
        orbits = [graph_orbit(n, s, unitaries=unitaries) for s in range(n)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(orbits) == n
    assert held < 4 * 16 * n ** 4


# -- the conjugation orbit ---------------------------------------------------

def test_orbit_contains_base_and_identity():
    n = 3
    graph = graph_orbit(n, 1)
    assert graph.space.residual(q_projection(n, 1)) <= 1e-10
    assert graph.space.residual(np.eye(n * n, dtype=complex)) <= 1e-10


@pytest.mark.parametrize('n', range(2, 9))
def test_orbit_provenance_complete(n):
    generators = rep_generators(n)
    unitaries = element_unitaries(n, *generators)
    dense = [rep_element(*generators, p, q) for p in range(n) for q in range(n)]
    for s in range(n):
        graph = graph_orbit(n, s, unitaries=unitaries)
        labels = [label for label, _ in graph.provenance]
        assert labels == [(p, q) for p in range(n) for q in range(n)]
        # the diagonals really are the conjugated base projection, which the
        # dense product shows to have nothing off the diagonal
        base = q_projection(n, s)
        for (_, v), u in zip(graph.provenance, dense):
            assert frob(np.diag(v) - u @ base @ u.conj().T) <= 1e-12


@pytest.mark.parametrize('n', range(2, 13))
def test_class_members_share_their_orbit_diagonal(n):
    # u diag(v) u* is diag(v[perm]) for a monomial u: the members of one
    # permutation class conjugate Q_s to one diagonal, the class row, as
    # identical arrays, and each is still the dense product u Q_s u*
    unitaries = element_unitaries(n, *rep_generators(n))
    label = unitaries.grouping[1]
    for s in range(n):
        graph = graph_orbit(n, s, unitaries=unitaries)
        assert graph.label is label
        members = member_diagonals(unitaries, s)
        assert np.array_equal(members, graph.rows[label])
        base = q_projection(n, s)
        for e, v in enumerate(members):
            u = unitaries.dense(*divmod(e, n))
            assert frob(np.diag(v) - u @ base @ u.conj().T) <= 1e-12


@pytest.mark.parametrize('n', range(2, 9))
def test_class_row_span_is_the_span_of_every_generator(n):
    # the orbit spans its n class rows; the oracle spans all n^2 generator
    # diagonals with one eigh of their Gram, as graph_orbit did before
    unitaries = element_unitaries(n, *rep_generators(n))
    for s in range(n):
        graph = graph_orbit(n, s, unitaries=unitaries)
        assert graph.rows.shape == (n, n * n)
        want = member_span(member_diagonals(unitaries, s))
        assert graph.space.dim == want.dim == n
        cmp_ = subspace_equal(graph.space, want, 1e-12)
        assert cmp_.equal, cmp_.max_residual


def test_orbit_dimensions():
    assert graph_orbit(2, 0).space.dim == 2
    assert graph_orbit(3, 0).space.dim == 3
    assert graph_orbit(3, 0).space.dim == exact_oracles.orbit_span_dim(3, 0)


def test_orbit_adjoint_closed():
    n = 4
    space = graph_orbit(n, 2).space
    for mat in space.operators().dense():
        assert space.residual(mat.conj().T) <= 1e-10


@pytest.mark.parametrize('n', [3, 4])
def test_orbit_closed_form(n):
    # the orbit spans exactly the diagonal-block algebra {|t><t| (x) I}
    eye = np.eye(n, dtype=complex)
    gens = []
    for t in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[t, t] = 1.0
        gens.append(tensor_product(e, eye))
    cmp_ = subspace_equal(graph_orbit(n, 0).space, span_operators(gens))
    assert cmp_.equal, cmp_.max_residual


def test_orbit_rejects_bad_s():
    with pytest.raises(ValueError):
        graph_orbit(3, 3)


# -- anticliques and the compression law --------------------------------------

def test_anticlique_projectors_complete():
    n = 3
    basis = entangled_basis(n)
    total = np.zeros((9, 9), dtype=complex)
    for k in range(n):
        pk = anticlique_projector(n, k, basis)
        total += pk
        for kp in range(n):
            for j in range(n):
                v = basis.vector(kp, j)
                want = v if kp == k else np.zeros_like(v)
                assert frob(pk @ v - want) <= 1e-12
    assert frob(total - np.eye(9)) <= 1e-12


def test_spectral_clusters_match_anticliques():
    n = 4
    basis = entangled_basis(n)
    pi_s, pi_m = rep_generators(n, basis)
    res = spectral_match_check(n, 1e-9, pi_m, element_unitaries(n, pi_s, pi_m), basis)
    assert res.passed
    assert res.max_residual <= 1e-9


def _spectral_inputs(n):
    basis = entangled_basis(n)
    pi_s, pi_m = rep_generators(n, basis)
    return basis, pi_m, element_unitaries(n, pi_s, pi_m)


@pytest.mark.parametrize('n', range(2, 17))
def test_spectral_match_passes_at_the_default_tol(n):
    basis, pi_m, unitaries = _spectral_inputs(n)
    res = spectral_match_check(n, 1e-10, pi_m, unitaries, basis)
    assert res.passed
    assert res.details is None


@pytest.mark.parametrize('n', range(2, 9))
def test_spectral_match_clusters_are_the_schur_ones(n):
    # the dense Schur decomposition of piM is the oracle of the cycle path
    _, pi_m, unitaries = _spectral_inputs(n)
    dec = spectral_projections(pi_m)
    clusters = unitaries.clusters(0, 1)
    assert tuple(clusters.columns.ranks) == dec.ranks
    assert np.abs(clusters.values - dec.eigenvalues).max() <= 1e-12
    for c, proj in enumerate(dec.projectors):
        assert frob(cluster_projector(clusters.columns.cluster(c)) - proj) <= 1e-12


def _one_entry_moved(pi_m, unitaries, basis):
    pi_m = pi_m.copy()
    pi_m[1, 2] += 1e-6
    return pi_m, unitaries, basis


def _one_phase_rotated(pi_m, unitaries, basis):
    # one root of unity further on: +1 in the exponent
    expo = unitaries.expo.copy()
    expo[0, 1, 3] += 1
    return pi_m, dataclasses.replace(unitaries, expo=expo), basis


def _codes_swapped(pi_m, unitaries, basis):
    vectors = basis.vectors.copy()
    vectors[[0, 1]] = vectors[[1, 0]]
    return pi_m, unitaries, dataclasses.replace(basis, vectors=vectors)


@pytest.mark.parametrize('n', [3, 8])
@pytest.mark.parametrize('mutate', [_one_entry_moved, _one_phase_rotated, _codes_swapped])
def test_spectral_match_catches_a_mutation(n, mutate):
    # piM off the table, the table off piM, and a basis whose codes do not
    # follow the clock phases: each fails, at the default tol
    basis, pi_m, unitaries = _spectral_inputs(n)
    res = spectral_match_check(n, 1e-10, *mutate(pi_m, unitaries, basis))
    assert not res.passed
    assert res.max_residual > 1e-8


def _dense_spectral_match(n, pi_m, unitaries, basis):
    """The spectral_pk_match residual with both projectors formed densely."""
    clusters = unitaries.clusters(0, 1)
    assert clusters.columns.ranks.tolist() == [n] * n
    roots = unit_roots(n)
    worst = max(max(abs(complex(clusters.values[k]) - complex(roots[k])),
                    frob(cluster_projector(clusters.columns.cluster(k))
                         - anticlique_projector(n, k, basis)))
                for k in range(n))
    return worst + frob(unitaries.dense(0, 1) - pi_m)


@pytest.mark.parametrize('n', range(2, 9))
def test_spectral_match_agrees_with_dense_projectors(n):
    # for rank-n isometries sqrt(2) ||B - C (C* B)||_F = ||B B* - C C*||_F,
    # on the true codes and on swapped ones
    basis, pi_m, unitaries = _spectral_inputs(n)
    for inputs in ((pi_m, unitaries, basis), _codes_swapped(pi_m, unitaries, basis)):
        res = spectral_match_check(n, 1e-10, *inputs)
        assert abs(res.max_residual - _dense_spectral_match(n, *inputs)) <= 1e-12


@pytest.mark.parametrize('n', range(2, 9))
def test_verify_needs_no_schur_and_no_gram_rebuild(n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError('dense spectral path called')

    monkeypatch.setattr(scipy.linalg, 'schur', refuse)
    monkeypatch.setattr(weylgraph.linalg, 'spectral_projections', refuse)
    monkeypatch.setattr(np.linalg, 'eigvalsh', refuse)
    report = run_verification(n)
    assert report.all_passed()


def test_kl_scalar_on_identity():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    report = check_knill_laflamme([('id', np.eye(3, dtype=complex))], p)
    assert report.is_anticlique
    assert report.rank == 2
    assert report.lambdas['id'] == pytest.approx(1.0)


def test_kl_orbit_compression():
    # P_k compresses every orbit generator to exactly 1/n
    n = 3
    members = member_diagonals(element_unitaries(n, *rep_generators(n)), 0)
    pk = anticlique_projector(n, 1)
    report = check_knill_laflamme(
        [(divmod(e, n), np.diag(v)) for e, v in enumerate(members)], pk, tol=1e-10,
        n=n, k=1, s=0)
    assert report.is_anticlique
    assert report.max_residual <= 1e-10
    for lam in report.lambdas.values():
        assert abs(lam - 1.0 / n) <= 1e-10


def _orbit_of(n, s, rows, label):
    """The OperatorGraph of the class rows rows, the diagonals of the
    elements grouped by label."""
    rows = np.asarray(rows)
    return OperatorGraph(n, s, _class_span(rows, label), rows, label)


def test_kl_suite_extremes_small():
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))
    orbits = [graph_orbit(n, s, unitaries=unitaries) for s in range(n)]
    worst, lam_worst, _ = kl_suite_extremes(n, entangled_basis(n), orbits)
    assert worst <= 1e-12
    assert lam_worst <= 1e-12


def dense_kl_suite_extremes(n, w, orbit_matrices_by_s):
    """The dense reference for kl_suite_extremes: compress every generator
    matrix by the whole change of basis and read each (k, k) block."""
    wt = w.conj().T
    target = np.eye(n, dtype=complex) / n
    worst = 0.0
    lam_worst = 0.0
    for mats in orbit_matrices_by_s:
        for x in mats:
            y = wt @ x @ w
            for k in range(n):
                blk = y[k * n:(k + 1) * n, k * n:(k + 1) * n]
                worst = max(worst, frob(blk - target))
                lam_worst = max(lam_worst, abs(complex(np.trace(blk)) / n - 1.0 / n))
    return worst, lam_worst


@pytest.mark.parametrize('n', range(2, 9))
def test_kl_suite_extremes_matches_dense_oracle(n):
    basis = entangled_basis(n)
    unitaries = element_unitaries(n, *rep_generators(n))
    # generic diagonal generators, so both sides have residuals to agree on;
    # each generator is a class of its own, so that every one is compressed
    rng = np.random.default_rng(n)
    diagonals = [list(rng.standard_normal((n * n, n * n))) for _ in range(2)]
    diagonals.append(list(member_diagonals(unitaries, 0)))
    label = np.arange(n * n)
    worst, lam_worst, _ = kl_suite_extremes(
        n, basis, [_orbit_of(n, s, diags, label) for s, diags in enumerate(diagonals)])
    want = dense_kl_suite_extremes(n, basis.flat(), [[np.diag(v) for v in diags]
                                          for diags in diagonals])
    assert np.allclose((worst, lam_worst), want, rtol=0.0, atol=1e-12)
    assert want[0] > 0.1


def test_kl_anticliques_holds_no_rows_by_columns_array():
    # compressions takes the n^2 class rows of the n orbits in chunks and
    # keeps only its (rows, codes) results: the diagonal of every
    # compression and its deviation from lambda would each be an n^2 x n^2
    # array, 16 n^4 bytes; the dense code isometry is one of them
    n = 16
    basis = entangled_basis(n)
    unitaries = element_unitaries(n, *rep_generators(n))
    orbits = [graph_orbit(n, s, unitaries=unitaries) for s in range(n)]
    kl_corollary_check(n, 1e-10, basis, orbits)
    tracemalloc.start()
    try:
        check = kl_corollary_check(n, 1e-10, basis, orbits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 2.5 * 16 * n ** 4, peak / (16 * n ** 4)


@pytest.mark.parametrize('n', [3, 4])
def test_kl_anticliques_names_a_tampered_orbit_diagonal(n):
    # one entry of the class row of (p, q) raised, the diagonal that every
    # member of its class shares: the worst (k, s, g) is at the first code k
    # with the largest residual for it, and g is named by the first member
    # of the class, (0, q) for (1, 2) as for (0, 2)
    basis = entangled_basis(n)
    unitaries = element_unitaries(n, *rep_generators(n))
    label = unitaries.grouping[1]
    s = n - 1
    for p, q in ((0, 2), (1, 2)):
        assert label[p * n + q] == label[q]
        rows = graph_orbit(n, s, unitaries=unitaries).rows.copy()
        x = rows[label[p * n + q]]
        x[n + 1] += 1e-3
        orbits = [graph_orbit(n, t, unitaries=unitaries) for t in range(n - 1)]
        orbits.append(_orbit_of(n, s, rows, label))
        check = kl_corollary_check(n, 1e-10, basis, orbits)
        assert not check.passed
        assert check.max_residual >= 0.99e-3 / n  # a code's diagonal is 1/n
        b = basis.code_isometry
        residuals = [frob((b(k).conj().T * x) @ b(k) - np.eye(n) / n) for k in range(n)]
        k = int(np.argmax(residuals))
        worst, _, where = kl_suite_extremes(n, basis, orbits)
        assert where == (k, s, 0, q)
        assert worst == pytest.approx(residuals[k], abs=1e-15)
        assert check.details.endswith(f'; worst at k = {k}, s = {s}, g = (0, {q})')


def test_kl_rejects_full_matrix_unit_family():
    # compressing all matrix units by any rank-2 projection cannot be scalar
    units = []
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1.0
            units.append(((a, b), e))
    report = check_knill_laflamme(units, np.eye(2, dtype=complex))
    assert not report.is_anticlique
    assert report.max_residual >= 0.5


def test_kl_validates_projection():
    with pytest.raises(ValueError):
        check_knill_laflamme([('id', np.eye(2))], 0.5 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        check_knill_laflamme([('id', np.eye(2))], np.zeros((2, 2), dtype=complex))


def test_kl_rank_one_never_anticlique():
    p = np.diag([1.0, 0.0]).astype(complex)
    report = check_knill_laflamme([('id', np.eye(2, dtype=complex))], p)
    assert not report.is_anticlique
    assert report.max_residual <= 1e-12  # it compresses, but rank 1 is excluded


# -- the group-wide census ----------------------------------------------------

@pytest.mark.parametrize('n', [2, 3])
def test_census_finds_code_anticliques(n):
    scan = proposition1_scan(n, 0)
    assert scan.common == []
    # the clock image sits at (p, q) = (0, 1) and its clusters are the codes
    clock_records = [r for r in scan.projections if r.element == (0, 1)]
    assert len(clock_records) == n
    # exactly one clock eigenvalue within 1e-9 of each w^k, compared on the
    # unit circle so that 1 - 0j and 1 + 0j do not land on opposite ends
    seen = np.array([r.eigenvalue for r in clock_records])
    for root in unit_roots(n):
        assert np.count_nonzero(np.abs(seen - root) <= 1e-9) == 1
    for rec in clock_records:
        assert rec.rank == n
        assert rec.is_anticlique
        assert rec.kl_residual <= 1e-10


def test_census_identity_is_not_an_anticlique():
    scan = proposition1_scan(3, 0)
    full = [r for r in scan.projections if r.rank == 9]
    assert len(full) == 1
    assert full[0].element == (0, 0)
    assert full[0].occurrences == 1
    assert not full[0].is_anticlique


def test_census_summary_counts():
    scan = proposition1_scan(3, 0)
    rank2 = sum(1 for r in scan.projections if r.rank >= 2)
    anti = sum(1 for r in scan.projections if r.is_anticlique)
    assert scan.summary() == (
        f'common rank>=2 projections: 0; '
        f'distinct spectral projections: {len(scan.projections)} '
        f'({rank2} of rank>=2, {anti} anticliques for the orbit)')


# -- the span audit ----------------------------------------------------------

def test_theorem2_qubits_no_discrepancy():
    checks, audit, discrepancies = verify_theorem2(2)
    assert all(c.passed for c in checks)
    assert (audit.dim_orbit, audit.dim_z_span, audit.dim_h_span) == (2, 2, 2)
    assert audit.orbit_equals_z and audit.orbit_equals_h
    assert discrepancies == []


@pytest.mark.parametrize('n', [3, 4, 5, 6])
def test_theorem2_audit_dimensions(n):
    checks, audit, discrepancies = verify_theorem2(n)
    assert all(c.passed for c in checks)
    assert audit.dim_orbit == n
    assert audit.dim_z_span == n
    assert audit.dim_h_span == n // 2 + 1
    assert audit.orbit_equals_z
    assert not audit.orbit_equals_h
    assert len(discrepancies) == 1
    d = discrepancies[0]
    assert d.claim.startswith('Theorem 2')
    assert f'dim span{{h_p}} = {n // 2 + 1}' in d.observed
    assert 'floor(n/2)+1' in d.observed


@pytest.mark.parametrize('n', range(2, 9))
def test_theorem2_gram_spectra_are_the_dense_ones(n):
    # the spectra the h-family discrepancy prints come from span_operators,
    # the orbit's from its class rows; the oracle rebuilds both Gram
    # matrices, the orbit's from all n^2 generators, and takes eigvalsh.
    # At n = 2 the h family spans the orbit and nothing is printed.
    unitaries = element_unitaries(n, *rep_generators(n))
    orbits = [graph_orbit(n, s, unitaries=unitaries) for s in range(n)]
    found = verify_theorem2(n, unitaries=unitaries, orbit_graphs=orbits)[2]
    assert len(found) == (n > 2)
    flat_h = np.array([h.reshape(-1) for h in dense_h_generators(n, y_units(n))])
    flat_orbit = member_diagonals(unitaries, 0)
    spectra = {'h': span_operators(h_generators(n)).gram_spectrum,
               'orbit': orbits[0].space.gram_spectrum}
    for name, flat in (('h', flat_h), ('orbit', flat_orbit)):
        want = np.linalg.eigvalsh(flat.conj() @ flat.T)
        assert spectra[name].shape == want.shape
        assert np.abs(spectra[name] - want).max() <= 1e-12 * np.abs(want).max()
        for entry in found:
            printed = re.search(rf'{name} Gram spectrum \[([^]]*)\]', entry.observed).group(1)
            got = np.array([float(v) for v in printed.split(', ')])
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize('n', range(2, 9))
def test_span_audit_matches_the_dense_embedding(n):
    # every comparison verify_theorem2 makes, against the old comparison of
    # densely embedded orbit bases
    unitaries = element_unitaries(n, *rep_generators(n))
    orbits = [graph_orbit(n, s, unitaries=unitaries).space for s in range(n)]
    z_red = z_generators(n)
    pairs = [(orbits[s1], orbits[s2]) for s1 in range(n) for s2 in range(s1 + 1, n)]
    pairs += [(orbits[0], span_operators(z_red)), (orbits[0], span_operators(h_generators(n)))]
    for v, w in pairs:
        got = subspace_equal(v, w)
        want = dense_subspace_equal(v, w, 1e-10)
        assert got.equal == want[0]
        assert abs(got.max_residual - want[1]) <= 1e-12


def test_off_diagonal_z_entry_fails_orbit_equals_z(monkeypatch):
    # the orbit span is diagonal; a z generator with a 1e-6 entry off the
    # diagonal of a block must leave the span, which the comparison sees
    # only once the orbit is lifted onto the z blocks
    n = 3
    built = z_generators

    def tampered(n_, y=None):
        reduced = built(n_, y)
        reduced.blocks[1, 0, 0, 1] += 1e-6
        return reduced

    monkeypatch.setattr(weylgraph.graphs, 'z_generators', tampered)
    checks, audit, _ = verify_theorem2(n)
    by_id = {c.check_id: c for c in checks}
    assert not by_id['orbit_equals_z'].passed
    assert by_id['orbit_equals_z'].max_residual >= 1e-7
    assert not audit.orbit_equals_z


@pytest.mark.parametrize('n', [3, 4, 8])
def test_graphs_coincide_names_the_worst_comparison(n):
    unitaries = element_unitaries(n, *rep_generators(n))
    orbits = [graph_orbit(n, s, unitaries=unitaries) for s in range(n)]
    check = verify_theorem2(n, unitaries=unitaries, orbit_graphs=orbits)[0][0]
    match = re.fullmatch(r'orbit graphs pairwise; worst at (\(s1, s2\) = \(\d, \d\))',
                         check.details)
    assert match
    # recomputing every comparison in the same order: the named one is the
    # first to reach the reported maximum
    residuals = [(subspace_equal(orbits[s1].space, orbits[s2].space).max_residual,
                  f'(s1, s2) = ({s1}, {s2})')
                 for s1 in range(n) for s2 in range(s1 + 1, n)]
    first = next(where for r, where in residuals if r == check.max_residual)
    assert match.group(1) == first
    assert check.max_residual == max(r for r, _ in residuals)


# -- the code subspaces -------------------------------------------------------

def test_code_subspace_bell_pair():
    vecs = entangled_basis(2).code_isometry(0).T
    r = 1.0 / np.sqrt(2.0)
    assert frob(vecs[0] - np.array([r, 0, 0, r])) <= 1e-15
    assert frob(vecs[1] - np.array([0, r, r, 0])) <= 1e-15


def test_code_subspace_lies_under_projector():
    n = 3
    for k in range(n):
        pk = anticlique_projector(n, k)
        for v in entangled_basis(n).code_isometry(k).T:
            assert frob(pk @ v - v) <= 1e-12


def test_code_vectors_maximally_entangled():
    # all Schmidt coefficients equal 1/sqrt(n)
    n = 3
    for k in range(n):
        for v in entangled_basis(n).code_isometry(k).T:
            sv = np.linalg.svd(v.reshape(n, n), compute_uv=False)
            assert frob(sv - np.full(n, 1.0 / np.sqrt(n))) <= 1e-12
