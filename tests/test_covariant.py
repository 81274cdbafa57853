"""Tests for the commutant units, the group average, and the covariant
resolution of identity."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylgraph.covariant
import weylgraph.linalg
import weylgraph.report
from dense_oracles import (class_average, dense_atoms, dense_covariance, dense_mass, dyad_grid,
                           member_span, product_trace_form)
from weylgraph.covariant import (
    _COVARIANCE_SAMPLE,
    covariant_resolution,
    expectation_avg,
    expectation_trace,
    fixed_units,
    q_projection,
    resolution_covariance_check,
    resolution_mass_check,
    verify_theorem1,
)
from weylgraph.graphs import _class_span
from weylgraph.linalg import (frob, random_hermitian, span_operators, subspace_equal,
                              tensor_product)
from weylgraph.report import run_verification
from weylgraph.serialize import dumps, report_to_obj
from weylgraph.weylrep import (GroupAction, element_unitaries, entangled_basis,
                               rep_generators)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# -- commutant units ---------------------------------------------------------

def test_diagonal_units_are_projections():
    n = 3
    grid = dyad_grid(fixed_units(n).units)
    for p in range(n):
        u = grid[p, p]
        assert frob(u - u.conj().T) <= 1e-13
        assert frob(u @ u - u) <= 1e-13
        assert np.trace(u).real == pytest.approx(n)


def test_units_match_block_products():
    # the expanded factor keeps the arithmetic of the per-pair block products
    n = 4
    basis = entangled_basis(n)
    grid = dyad_grid(fixed_units(n, basis).units)
    for p in range(n):
        for q in range(n):
            want = basis.isometry(p) @ basis.isometry(q).conj().T
            assert np.array_equal(grid[p, q], want)


def test_units_complete_and_traced():
    n = 3
    grid = dyad_grid(fixed_units(n).units)
    total = grid[np.arange(n), np.arange(n)].sum(axis=0)
    assert frob(total - np.eye(n * n)) <= 1e-13
    for p in range(n):
        for q in range(n):
            want = n if p == q else 0.0
            assert abs(np.trace(grid[p, q]) - want) <= 1e-13


def test_units_matrix_algebra():
    # x_pq x_q'p' = delta_qq' x_pp', the defining matrix-unit relations
    n = 3
    grid = dyad_grid(fixed_units(n).units)
    for p in range(n):
        for q in range(n):
            assert frob(grid[p, q].conj().T - grid[q, p]) <= 1e-13
            for qp in range(n):
                for pp in range(n):
                    prod = grid[p, q] @ grid[qp, pp]
                    want = grid[p, pp] if q == qp else np.zeros_like(prod)
                    assert frob(prod - want) <= 1e-11


# -- the group average -------------------------------------------------------

def loop_average(table, x):
    """The defining sum (1/n^2) sum_pq u x u*, one dense conjugation per
    element."""
    n = table.perm.shape[0]
    acc = np.zeros(x.shape, dtype=complex)
    for p in range(n):
        for q in range(n):
            u = table.dense(p, q)
            acc += u @ x @ u.conj().T
    return acc / (n * n)


def einsum_trace_form(n, x, units):
    """(1/n) sum_pq Tr(x_qp x) x_pq on the expanded grid, one trace per pair
    of indices."""
    grid = dyad_grid(units.units)
    acc = np.zeros_like(x)
    for p in range(n):
        for q in range(n):
            acc += np.einsum('ij,ji->', grid[q, p], x) * grid[p, q]
    return acc / n


def first_factor_blocks(n):
    """The blocks T_a = {(a, b) : b} of the first tensor factor, as rows."""
    return np.arange(n * n).reshape(n, n)


@pytest.mark.parametrize('n', range(2, 11))
def test_average_matches_the_defining_sum(n):
    unitaries = element_unitaries(n, *rep_generators(n))
    rng = np.random.default_rng(500 + n)
    for _ in range(3):
        x = random_hermitian(n * n, rng)
        average, bound = expectation_avg(n, x, unitaries)
        assert bound <= 1e-12
        assert frob(average - loop_average(unitaries, x)) <= 1e-12 + bound


@pytest.mark.parametrize('n', range(2, 9))
def test_average_is_the_class_oracle_on_the_blocks(n):
    # the dense class sum: equal on the blocks T_a, and what the blocks
    # leave out within the returned bound
    unitaries = element_unitaries(n, *rep_generators(n))
    inside = np.kron(np.eye(n, dtype=bool), np.ones((n, n), dtype=bool))
    rng = np.random.default_rng(700 + n)
    for _ in range(3):
        x = random_hermitian(n * n, rng)
        average, bound = expectation_avg(n, x, unitaries)
        dense = class_average(unitaries, x)
        assert frob((average - dense)[inside]) <= 1e-15 * n
        assert not average[~inside].any()
        assert frob(dense[~inside]) <= bound


@pytest.mark.parametrize('n', range(2, 9))
def test_trace_form_matches_the_einsum_loop(n):
    # the supports are read from the factor, so stray kets (|1, 0> in h_0^0,
    # |n-1, n-1> in h_(n-1)^1) and a dense 1e-6 perturbation of every vector
    # still give the defining sum, as do the dense products through the
    # whole factor
    units = fixed_units(n)
    stray = units.units.copy()
    stray[0, 0, n] += 1.0
    stray[1, n - 1, n * n - 1] += 0.5
    noise = np.random.default_rng(0).standard_normal((2,) + stray.shape)
    factors = (units, dataclasses.replace(units, units=stray),
               dataclasses.replace(units, units=units.units + 1e-6 * (noise[0] + 1j * noise[1])))
    for factor in factors:
        rng = np.random.default_rng(600 + n)
        for _ in range(3):
            x = random_hermitian(n * n, rng)
            trace = expectation_trace(n, x, factor)
            assert frob(trace - einsum_trace_form(n, x, factor)) <= 1e-12
            assert frob(trace - product_trace_form(n, x, factor)) <= 1e-12


@pytest.mark.parametrize('n', range(2, 17))
def test_real_table_has_n_permutation_classes(n):
    # piS is diagonal, so the class of piS^p piM^q is fixed by q alone; the
    # table's blocks are the n blocks T_a, in order, and the weights of each
    # class are kept on them, n^4 entries in all
    table = element_unitaries(n, *rep_generators(n))
    weights, off, cells, out = table.class_weights
    assert table.grouping[0].shape == (n, n * n)
    assert np.array_equal(weights.partition, first_factor_blocks(n))
    assert weights.blocks.shape == cells.shape == (n, n, n, n)
    assert off <= 1e-14


@st.composite
def monomial_tables(draw):
    """(n, n, d) monomial tables with integer exponents of a random order,
    up to 10^6, so the phases are generic roots of unity; with shared,
    fewer permutations than elements, so some class holds several elements
    with different phases; otherwise every permutation is distinct."""
    n, d, shared = draw(st.integers(2, 3)), draw(st.integers(4, 7)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(1, n * n - 1)) if shared else n * n
    pool = {}
    while len(pool) < count:
        perm = rng.permutation(d)
        pool[tuple(perm)] = perm
    pool = list(pool.values())
    pick = rng.integers(0, count, n * n) if shared else np.arange(n * n)
    perm = np.array([pool[k] for k in pick]).reshape(n, n, d)
    order = draw(st.integers(1, 10 ** 6))
    table = GroupAction(perm, rng.integers(0, order, (n, n, d)), order)
    return table, len(set(pick.tolist())), rng


@settings(max_examples=100, deadline=None)
@given(monomial_tables())
def test_average_by_class_matches_dense_sum(case):
    # with one member per class the table has one block, and the average is
    # the dense sum with the bound 0; otherwise it is the dense sum on the
    # table's blocks, zero elsewhere, and the part left out is within the
    # bound
    table, classes, rng = case
    n, d = table.perm.shape[0], table.perm.shape[-1]
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    dense = sum(table.dense(p, q) @ x @ table.dense(p, q).conj().T
                for p in range(n) for q in range(n)) / (n * n)
    assert len(table.grouping[0]) == classes
    average, bound = table.average(x)
    if classes == n * n:
        assert table.class_weights[0].partition.shape == (1, d)
        assert bound == 0.0
    inside = _inside_blocks(table.class_weights[0].partition, d)
    assert not average[~inside].any()
    assert frob((average - dense)[inside]) <= 1e-12 * d
    assert frob(dense[~inside]) <= bound + 1e-12 * d


def _inside_blocks(partition, d):
    """The d x d mask of the diagonal blocks of a padded partition."""
    owner = np.empty(d, dtype=np.intp)
    owner[partition[partition >= 0]] = np.nonzero(partition >= 0)[0]
    return owner[:, None] == owner[None, :]


def _assert_blocks_are_the_signatures(table):
    # the blocks, checked by a loop over the elements: each is exactly the
    # set of indices with one signature, the exponents less those of the
    # first element of the class, mod order; off is (1/E) sum_k max|W_k|
    # off the blocks, from each W_k summed densely, whose entries the
    # weights keep on the blocks and zero at the padding
    n, d = table.perm.shape[0], table.perm.shape[-1]
    perm, expo = table.perm.reshape(-1, d), table.expo.reshape(-1, d)
    label = np.unique(perm, axis=0, return_inverse=True)[1].ravel()
    heads = [next(f for f in range(n * n) if label[f] == label[e]) for e in range(n * n)]
    signature = [tuple((expo[e, i] - expo[heads[e], i]) % table.order for e in range(n * n))
                 for i in range(d)]
    weights, off, _, _ = table.class_weights
    partition = weights.partition
    assert np.array_equal(np.sort(partition[partition >= 0]), np.arange(d))
    for row in partition:
        block = row[row >= 0]
        assert (row[len(block):] == -1).all() and (np.diff(block) > 0).all()
        assert {i for i in range(d) if signature[i] == signature[block[0]]} == set(block.tolist())
    inside = _inside_blocks(partition, d)
    phase = table.phase.reshape(-1, d)
    want = np.zeros((label.max() + 1, d, d), dtype=complex)
    for e in range(n * n):
        want[label[e]] += np.outer(phase[e], phase[e].conj())
    assert np.abs(weights.dense() - want * inside).max() <= 1e-12
    assert off == pytest.approx(np.abs(want * ~inside).max(axis=(1, 2)).sum() / (n * n),
                                rel=1e-12, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(monomial_tables())
def test_class_weights_are_the_signature_blocks(case):
    _assert_blocks_are_the_signatures(case[0])


def _padded_tables():
    # element (1, 1) of the real n = 3 table turned at index 0: its block
    # T_0 splits into {0} and {1, 2}; and a table of one class on d = 4 whose
    # blocks {0, 1}, {2}, {3} leave their largest off-block weight between
    # the last two, 2 and 3 = d - 1, both padded blocks
    table = element_unitaries(3, *rep_generators(3))
    expo = table.expo.copy()
    expo[1, 1, 0] += 1
    one_class = GroupAction(np.broadcast_to(np.arange(4), (2, 2, 4)),
                            np.array([[0, 0, 0, 0], [0, 0, 1, 1],
                                      [0, 0, 2, 2], [0, 0, 3, 2]]).reshape(2, 2, 4), 4)
    return {'tampered_n3': dataclasses.replace(table, expo=expo), 'one_class': one_class}


@pytest.mark.parametrize('name', ['tampered_n3', 'one_class'])
def test_class_weights_of_a_padded_partition(name):
    table = _padded_tables()[name]
    partition = table.class_weights[0].partition
    assert (partition < 0).any()
    _assert_blocks_are_the_signatures(table)
    x = random_hermitian(table.perm.shape[-1], np.random.default_rng(3))
    average, bound = table.average(x)
    dense = class_average(table, x)
    inside = _inside_blocks(partition, len(x))
    assert not average[~inside].any()
    assert frob((average - dense)[inside]) <= 1e-14
    assert 0.0 < frob(dense[~inside]) <= bound


@pytest.mark.filterwarnings('ignore:all generators are numerically zero')
@settings(max_examples=100, deadline=None)
@given(monomial_tables())
def test_class_rows_span_the_orbit_of_a_generic_table(case):
    # the byte-string grouping is np.unique(axis=0)'s, the members of a
    # class conjugate a diagonal v to the same diagonal v[pi_k], and the
    # span of one row per class is that of all of them.  The diagonal
    # is a projection's, 0 or 1, as graph_orbit conjugates: permuted copies
    # of a generic real vector can be nearly dependent, and their span is
    # then defined only to roundoff over the smallest Gram eigenvalue.  An
    # all-zero diagonal spans the zero subspace on both sides.
    table, classes, rng = case
    d = table.perm.shape[-1]
    perms, label = table.grouping
    want_perms, want_label = np.unique(table.perm.reshape(-1, d), axis=0, return_inverse=True)
    assert np.array_equal(perms, want_perms)
    assert np.array_equal(label, want_label.ravel())
    assert len(perms) == classes
    v = rng.integers(0, 2, d).astype(complex)
    diagonals = table.orbit_diagonals(v).reshape(-1, d)
    rows = v[perms]
    assert np.array_equal(diagonals, rows[label])
    for e in range(len(label)):
        u = table.dense(*divmod(e, table.perm.shape[1]))
        assert frob(np.diag(diagonals[e]) - u @ np.diag(v) @ u.conj().T) <= 1e-12
    space = _class_span(rows, label)
    want = member_span(diagonals)
    assert space.dim == want.dim
    cmp_ = subspace_equal(space, want, 1e-12)
    assert cmp_.equal, cmp_.max_residual
    gram = np.linalg.eigvalsh(diagonals.conj() @ diagonals.T)
    assert np.abs(space.gram_spectrum - gram).max() <= 1e-12 * gram.max()


def test_replaced_table_recomputes_its_classes():
    n = 3
    table = element_unitaries(n, *rep_generators(n))
    assert len(table.grouping[0]) == n
    perm = table.perm.copy()
    perm[1, 1] = perm[1, 0]  # one element moves to the class of q = 0
    copy = dataclasses.replace(table, perm=perm)
    assert len(copy.grouping[0]) == n
    assert not np.array_equal(copy.class_weights[0].blocks, table.class_weights[0].blocks)


def test_expectation_unital():
    n = 3
    eye = np.eye(n * n, dtype=complex)
    average, bound = expectation_avg(n, eye)
    assert frob(average - eye) + bound <= 1e-12
    assert frob(expectation_trace(n, eye) - eye) <= 1e-12


def test_expectation_fixes_units():
    n = 3
    units = fixed_units(n)
    grid = dyad_grid(units.units)
    unitaries = element_unitaries(n, *rep_generators(n))
    for p in range(n):
        for q in range(n):
            x = grid[p, q]
            average, bound = expectation_avg(n, x, unitaries)
            assert frob(average - x) + bound <= 1e-11
            assert frob(expectation_trace(n, x, units) - x) <= 1e-11


def test_expectation_of_product_ket_qubits():
    # independent 16-term oracle from the closed-form generators
    pi_s = tensor_product(Z, np.eye(2, dtype=complex))
    pi_m = tensor_product(X, X)
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    acc = np.zeros((4, 4), dtype=complex)
    for p in range(2):
        for q in range(2):
            u = np.linalg.matrix_power(pi_s, p) @ np.linalg.matrix_power(pi_m, q)
            acc += u @ p00 @ u.conj().T
    oracle = acc / 4.0
    expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert frob(oracle - expected) <= 1e-14
    average, bound = expectation_avg(2, p00)
    assert frob(average - expected) + bound <= 1e-12
    assert frob(expectation_trace(2, p00) - expected) <= 1e-12


@pytest.mark.parametrize('n', [2, 3, 4])
def test_expectation_forms_agree(n):
    unitaries = element_unitaries(n, *rep_generators(n))
    units = fixed_units(n)
    rng = np.random.default_rng(100 + n)
    for _ in range(100):
        x = random_hermitian(n * n, rng)
        average, bound = expectation_avg(n, x, unitaries)
        assert frob(average - expectation_trace(n, x, units)) + bound <= 1e-10 * n * n


def _tamper_perm(table):
    perm = table.perm.copy()
    perm[1, 1, [0, 1]] = perm[1, 1, [1, 0]]
    return dataclasses.replace(table, perm=perm)


def _tamper_phase(table):
    # the phase negated: half a turn, n/2 in the exponent
    expo = table.expo.copy()
    expo[1, 1, 0] += table.order // 2
    return dataclasses.replace(table, expo=expo)


@pytest.mark.parametrize('tamper', [_tamper_perm, _tamper_phase])
def test_expectation_forms_catch_table_defects(tamper):
    # a swapped perm entry or a negated phase in one group element breaks the
    # unitary-average form, which the trace form does not read
    n = 4
    unitaries = tamper(element_unitaries(n, *rep_generators(n)))
    units = fixed_units(n)
    rng = np.random.default_rng(1000 + n)
    worst = 0.0
    for _ in range(10):
        x = random_hermitian(n * n, rng)
        average, bound = expectation_avg(n, x, unitaries)
        worst = max(worst, frob(average - expectation_trace(n, x, units)) + bound)
    assert worst >= 1e-2


def _rotate_block_phase(table):
    # element (1, 1) turned by one root of unity, +1 in the exponent, on the
    # block T_0 alone: its products phase phase* within a block, and so the
    # class weights on the blocks, keep their values, and only the
    # cancellation off them breaks
    n = table.perm.shape[0]
    expo = table.expo.copy()
    expo[1, 1, :n] += 1
    return dataclasses.replace(table, expo=expo)


def test_off_block_defect_fails_through_the_bound(monkeypatch):
    n = 3
    table = element_unitaries(n, *rep_generators(n))
    tampered = _rotate_block_phase(table)
    assert np.array_equal(tampered.class_weights[0].partition, first_factor_blocks(n))
    on_blocks = tampered.class_weights[0].blocks - table.class_weights[0].blocks
    assert np.abs(on_blocks).max() <= 1e-15
    units = fixed_units(n)
    x = random_hermitian(n * n, np.random.default_rng(5))
    average, bound = expectation_avg(n, x, tampered)
    assert frob(average - expectation_trace(n, x, units)) <= 1e-13
    assert bound >= 1e-8
    assert not verify_theorem1(n, unitaries=tampered).passed
    monkeypatch.setattr(weylgraph.report, 'element_unitaries',
                        lambda *args: _rotate_block_phase(element_unitaries(*args)))
    checks = {c.check_id: c for c in run_verification(n).checks}
    assert not checks['expectation_forms_agree'].passed
    assert checks['expectation_forms_agree'].max_residual >= 1e-8


@pytest.mark.parametrize('n, k', [(3, 1), (3, 5), (4, 1), (4, 3)])
def test_a_stack_is_averaged_as_each_of_its_matrices(n, k):
    # one gather and one scatter per stack, and one bound per sample: bit
    # for bit the calls on each matrix alone.  The table's block phase is
    # turned (_rotate_block_phase) so that every bound is nonzero and a
    # bound read from another sample shows; so are the generic table's,
    # whose two permutations are shared by several elements each (with one
    # element per class it has one block and the bound 0); the stray kets
    # of test_trace_form_matches_the_einsum_loop make supports that overlap
    d = n * n
    rng = np.random.default_rng(40 + k)
    xs = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    xs[0] = random_hermitian(d, rng)
    tampered = _rotate_block_phase(element_unitaries(n, *rep_generators(n)))
    units = fixed_units(n)
    stray = units.units.copy()
    stray[0, 0, n] += 1.0
    stray[1, n - 1, d - 1] += 0.5
    pool = np.array([rng.permutation(d) for _ in range(2)])
    generic = GroupAction(pool[np.arange(n * n) % 2].reshape(n, n, d),
                          rng.integers(0, 7, (n, n, d)), 7)
    cases = [('expectation_avg', lambda x: expectation_avg(n, x, tampered)),
             ('GroupAction.average', generic.average)]
    for name, average in cases:
        stacked, bounds = average(xs)
        assert stacked.shape == xs.shape and bounds.shape == (k,), name
        for j in range(k):
            alone, bound = average(xs[j])
            assert isinstance(bound, float) and bound > 0.0, name
            assert np.array_equal(stacked[j], alone), name
            assert bounds[j] == bound, name
    for factor in (units, dataclasses.replace(units, units=stray)):
        stacked = expectation_trace(n, xs, factor)
        assert stacked.shape == xs.shape
        for j in range(k):
            assert np.array_equal(stacked[j], expectation_trace(n, xs[j], factor))


def test_expectation_forms_reject_a_stack_of_the_wrong_shape():
    n = 3
    for bad in (np.zeros((2, 9, 8)), np.zeros((2, 2, 9, 9)), np.zeros(81),
                np.full((2, 9, 9), np.nan)):
        with pytest.raises(ValueError):
            expectation_avg(n, bad)
        with pytest.raises(ValueError):
            expectation_trace(n, bad)


@pytest.mark.parametrize('n', range(2, 9))
def test_report_bytes_do_not_depend_on_the_stack_budget(n, monkeypatch):
    # the sampled checks and theorem 1 evaluate their samples and Q_s in
    # stacks, and the census its elements: one of each per stack must give
    # the bytes of the default stacks, the same draws in the same order
    default = dumps(report_to_obj(run_verification(n)))
    monkeypatch.setattr(weylgraph.linalg, '_STACK_ENTRIES', 1)
    assert weylgraph.linalg.stack_size(n ** 4) == 1
    assert dumps(report_to_obj(run_verification(n))) == default


def test_expectation_compresses_grid_dyads():
    # E(|h_k^p><h_k^q|) = x_pq / n for every k
    n = 3
    basis = entangled_basis(n)
    units = fixed_units(n, basis)
    grid = dyad_grid(units.units)
    for k in range(n):
        for p in range(n):
            for q in range(n):
                dyad = np.outer(basis.vector(k, p), basis.vector(k, q).conj())
                out = expectation_trace(n, dyad, units)
                assert frob(out - grid[p, q] / n) <= 1e-12


def test_expectation_channel_properties():
    n = 3
    d = n * n
    unitaries = element_unitaries(n, *rep_generators(n))
    units = fixed_units(n)
    grid = dyad_grid(units.units)
    commutant = span_operators([grid[p, q] for p in range(n) for q in range(n)])
    rng = np.random.default_rng(77)
    for _ in range(5):
        x = random_hermitian(d, rng)
        ex = expectation_trace(n, x, units)
        # idempotent, trace preserving, range inside the commutant
        assert frob(expectation_trace(n, ex, units) - ex) <= 1e-11
        assert abs(np.trace(ex) - np.trace(x)) <= 1e-11
        assert commutant.residual(ex) <= 1e-10
        # invariant under every group unitary
        for p in range(n):
            for q in range(n):
                u = unitaries.dense(p, q)
                assert frob(u @ ex @ u.conj().T - ex) <= 1e-11
    # positive on a positive input
    psd = np.eye(d) + 0.5 * random_hermitian(d, rng) / d
    assert np.linalg.eigvalsh(expectation_trace(n, psd, units)).min() >= -1e-12


# -- the diagonal-block projections ------------------------------------------

def test_q_projection_literals():
    assert frob(q_projection(2, 0) - np.diag([1, 1, 0, 0])) <= 1e-15
    assert frob(q_projection(2, 1) - np.diag([0, 0, 1, 1])) <= 1e-15


def test_q_projection_closed_form():
    n = 3
    for s in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[s, s] = 1.0
        assert frob(q_projection(n, s) - tensor_product(e, np.eye(n))) <= 1e-15


def test_q_projections_orthogonal_complete():
    n = 3
    qs = [q_projection(n, s) for s in range(n)]
    assert frob(sum(qs) - np.eye(n * n)) <= 1e-14
    assert frob(qs[0] @ qs[1]) <= 1e-15


def test_q_projection_range_check():
    with pytest.raises(ValueError):
        q_projection(3, 3)
    with pytest.raises(ValueError):
        q_projection(3, -1)


# -- theorem 1 and the resolution --------------------------------------------

def test_theorem1_small():
    res = verify_theorem1(2, tol=1e-12)
    assert res.passed and res.max_residual <= 1e-12


def test_theorem1_larger_modulus():
    res = verify_theorem1(7, tol=1e-10)
    assert res.passed


def test_resolution_base_operator():
    n = 3
    res = covariant_resolution(n, 1)
    assert frob(res.base_operator - n * q_projection(n, 1)) <= 1e-15


@pytest.mark.parametrize('n', [2, 3, 4, 5])
def test_resolution_mass(n):
    res = covariant_resolution(n, 0)
    check = resolution_mass_check(n, 1e-10, res)
    assert check.passed, check.max_residual


def test_resolution_atom_spectra():
    # every atom is a rank-n projection scaled by 1/n^2... spelled out:
    # eigenvalues are n copies of 1/n and n^2 - n zeros, and each atom has
    # unit trace
    n = 3
    res = covariant_resolution(n, 0)
    want = np.array([0.0] * (n * n - n) + [1.0 / n] * n)
    for atom in map(np.diag, res.atoms.reshape(n * n, -1)):
        w = np.linalg.eigvalsh(atom)
        assert frob(w - want) <= 1e-12
        assert abs(np.trace(atom) - 1.0) <= 1e-13


def test_resolution_covariance_exhaustive():
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))
    res = covariant_resolution(n, 0, unitaries)
    check = resolution_covariance_check(n, 1e-10, res, unitaries, exhaustive=True)
    assert check.passed, check.max_residual
    assert re.fullmatch(r'all group pairs; worst at h = \(\d, \d\), g = \(\d, \d\)',
                        check.details)


def test_resolution_covariance_spot():
    # moving the atom at g by the unitary of h lands on the atom at h*g
    n = 4
    unitaries = element_unitaries(n, *rep_generators(n))
    res = covariant_resolution(n, 2, unitaries)
    u = unitaries.dense(3, 1)
    moved = u @ np.diag(res.atoms[2, 3]) @ u.conj().T
    assert frob(moved - np.diag(res.atoms[1, 0])) <= 1e-12


@pytest.mark.parametrize('n', range(2, 9))
def test_diagonal_resolution_matches_dense_atoms(n):
    # the checks on the atom diagonals against the dense atoms: eigvalsh for
    # positivity and dense conjugation for covariance
    unitaries = element_unitaries(n, *rep_generators(n))
    res = covariant_resolution(n, 0, unitaries)
    atoms = dense_atoms(n, 0, unitaries)
    for (p, q), atom in atoms.items():
        assert frob(np.diag(res.atoms[p, q]) - atom) <= 1e-15
    assert res.off_diagonal == 0.0
    mass = resolution_mass_check(n, 1e-10, res)
    assert mass.passed and dense_mass(n, atoms) <= 1e-10
    assert abs(mass.max_residual - dense_mass(n, atoms)) <= 1e-12
    exhaustive = n <= 6
    g_list = [(p, q) for p in range(n) for q in range(n)] if exhaustive else \
        [(p % n, q % n) for p, q in _COVARIANCE_SAMPLE]
    cov = resolution_covariance_check(n, 1e-10, res, unitaries, exhaustive)
    want = dense_covariance(n, atoms, unitaries, g_list)
    assert cov.passed and want <= 1e-10
    assert abs(cov.max_residual - want) <= 1e-12


def test_off_diagonal_base_entry_fails_resolution_mass(monkeypatch):
    # the atoms carry only diagonals, so a defect off the diagonal of the base
    # operator must reach the mass check through the measured off-diagonal norm
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))

    def tampered(n_, s_):
        q = q_projection(n_, s_)
        q[0, 1] = 1e-6
        return q

    monkeypatch.setattr(weylgraph.covariant, 'q_projection', tampered)
    res = covariant_resolution(n, 0, unitaries)
    assert res.off_diagonal == pytest.approx(n * 1e-6, rel=1e-12)
    check = resolution_mass_check(n, 1e-10, res)
    assert not check.passed
    assert check.max_residual >= 1e-6
    # the dense reference sees the defect too
    assert dense_mass(n, dense_atoms(n, 0, unitaries, res.base_operator)) >= 1e-7
    # covariance cannot test the off-diagonal parts the atoms do not carry,
    # so it reports their largest possible difference
    cov = resolution_covariance_check(n, 1e-10, res, unitaries, exhaustive=True)
    assert not cov.passed
    assert cov.max_residual >= 2.0 * res.off_diagonal / (n * n)


def test_resolution_mass_names_the_worst_atom():
    n = 3
    res = covariant_resolution(n, 0)
    assert res.atoms[1, 2, 0] == 0.0 and res.atoms[2, 1, 0] == 0.0
    atoms = res.atoms.copy()
    # two equally negative entries, compensated in another atom so the sum
    # stays the identity: the first in (p, q) order is named
    atoms[[2, 1], [1, 2], 0] -= 2e-3
    atoms[0, 0, 0] += 4e-3
    check = resolution_mass_check(n, 1e-10, dataclasses.replace(res, atoms=atoms))
    assert not check.passed
    assert check.max_residual == pytest.approx(2e-3, rel=1e-12)
    assert check.details.endswith('worst at the positivity of atom (p, q) = (1, 2)')
    atoms[0, 0, 1] += 1e-2  # now the sum is worse than any atom
    check = resolution_mass_check(n, 1e-10, dataclasses.replace(res, atoms=atoms))
    assert check.details.endswith('worst at the atom sum')


def test_resolution_covariance_names_the_worst_pair():
    # sampled mode at n = 7: atom (3, 3) is outside the g sample, so only the
    # pair g = (0, 1), h = (3, 2) reads both tampered atoms
    n = 7
    unitaries = element_unitaries(n, *rep_generators(n))
    res = covariant_resolution(n, 0, unitaries)
    atoms = res.atoms.copy()
    atoms[0, 1, 5] += 1e-3
    atoms[3, 3, 40] += 3e-3
    res = dataclasses.replace(res, atoms=atoms)
    check = resolution_covariance_check(n, 1e-10, res, unitaries, exhaustive=False)
    assert not check.passed
    assert check.details == 'all h against a fixed g sample; worst at h = (3, 2), g = (0, 1)'
    want = dense_covariance(n, {(p, q): np.diag(atoms[p, q]) for p in range(n)
                                for q in range(n)}, unitaries, [(0, 1)])
    assert check.max_residual == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(np.sqrt(10) * 1e-3, rel=1e-9)


def test_theorem1_names_the_worst_base_index_and_form():
    # row (a, b) of piS piM reads column (a + 1, b + 1), in the block of
    # Q_(a+1).  Two swaps in its perm, rows 0 <-> 6 and 1 <-> 3, move four
    # rows in or out of the block that Q_1 reads and two of those of Q_0
    # and Q_2, so the unitary-form average of Q_1 moves most
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))
    perm = unitaries.perm.copy()
    perm[1, 1, [0, 6, 1, 3]] = perm[1, 1, [6, 0, 3, 1]]
    res = verify_theorem1(n, tol=1e-10, unitaries=dataclasses.replace(unitaries, perm=perm))
    assert not res.passed
    assert res.details == 'both average forms, every base index s; worst at s = 1, unitary form'
    # a stray ket |1, 0> added to h_0^0 in the factor lies in the s = 1
    # block, so it raises the weights Tr(x_qp Q_s) for s = 1 alone
    factor = fixed_units(n).units.copy()
    factor[0, 0, n] += 1.0
    res = verify_theorem1(n, tol=1e-10, units=dataclasses.replace(fixed_units(n), units=factor))
    assert not res.passed
    assert res.details == 'both average forms, every base index s; worst at s = 1, trace form'


def test_average_checks_name_their_worst_draw():
    n = 3
    checks = {c.check_id: c for c in run_verification(n).checks}
    agree = checks['expectation_forms_agree']
    match = re.fullmatch(r'100 random Hermitian samples, draws 0-99 of seed 1003; '
                         r'worst at draw (\d+)', agree.details)
    assert match
    # redrawing the named seed finds the worst residual at the named draw
    unitaries = element_unitaries(n, *rep_generators(n))
    units = fixed_units(n)
    rng = np.random.default_rng(1003)
    residuals = []
    for _ in range(100):
        x = random_hermitian(n * n, rng)
        average, bound = expectation_avg(n, x, unitaries)
        residuals.append(frob(average - expectation_trace(n, x, units)) + bound)
    assert int(match.group(1)) == int(np.argmax(residuals))
    assert agree.max_residual == max(residuals)
    assert re.fullmatch(r'idempotence, unitality and trace preservation; 100 samples, '
                        r'draws 100-199 of seed 1003; worst at (draw \d+|the identity)',
                        checks['expectation_idempotent'].details)


def test_widened_projection_breaks_theorem1():
    # adding one extra rank to Q_s leaves a residual of at least 1/n, because
    # the average preserves trace
    n = 3
    d = n * n
    wide = q_projection(n, 0)
    wide[n, n] = 1.0  # the ket |1, 0>, outside the s = 0 block
    average, bound = expectation_avg(n, wide)
    assert frob(average - np.eye(d) / n) + bound >= 1.0 / n - 1e-9
