"""Tests for the dense linear-algebra toolkit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exact_oracles
from dense_oracles import complex_hermitian, dense_embedding, dense_subspace_equal
from weylgraph.linalg import (
    BlockOperators,
    DegenerateClusteringError,
    cluster_eigenpairs,
    cluster_eigenvalues,
    dft_unitary,
    frob,
    frobs,
    random_hermitian,
    span_operators,
    spectral_projections,
    stack_size,
    subspace_equal,
    tensor_product,
    unit_roots,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_unitary(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# -- tensor_product ----------------------------------------------------------

def test_tensor_identity():
    out = tensor_product(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert np.array_equal(out, np.eye(4, dtype=complex))


def test_tensor_single_entry():
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    e10 = np.zeros((2, 2), dtype=complex)
    e10[1, 0] = 1.0
    out = tensor_product(e01, e10)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = 1.0  # row 0*2+1, column 1*2+0
    assert np.array_equal(out, expected)


def test_tensor_matches_entrywise_oracle():
    out = tensor_product(X, Z)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    assert out[a * 2 + b, c * 2 + d] == X[a, c] * Z[b, d]


def test_tensor_mixed_product():
    rng = np.random.default_rng(7)
    a, c = random_unitary(2, rng), random_unitary(2, rng)
    b, d = random_unitary(3, rng), random_unitary(3, rng)
    left = tensor_product(a, b) @ tensor_product(c, d)
    right = tensor_product(a @ c, b @ d)
    assert frob(left - right) <= 1e-12 * 6


def test_tensor_rejects_nonsquare():
    with pytest.raises(ValueError):
        tensor_product(np.zeros((2, 3)), np.eye(2))


# -- dft_unitary -------------------------------------------------------------

def test_dft_hadamard():
    f = dft_unitary(2)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    assert frob(f - expected) <= 1e-15


def test_dft_unitarity():
    f = dft_unitary(5)
    assert frob(f.conj().T @ f - np.eye(5)) <= 1e-14


def test_dft_entry():
    # F[2, 3] at n = 4 is i^6 / 2 = -1/2
    f = dft_unitary(4)
    assert f[2, 3] == pytest.approx(-0.5)


def test_unit_roots_table():
    roots = unit_roots(4)
    assert roots[0] == 1.0 + 0.0j
    assert roots[1] == pytest.approx(1j)
    assert roots[2] == pytest.approx(-1.0)
    # consecutive ratios are the primitive root itself
    assert roots[3] * roots[1] == pytest.approx(1.0)


# -- spectral_projections ----------------------------------------------------

def test_spectral_identity_matrix():
    dec = spectral_projections(np.eye(4, dtype=complex))
    assert dec.ranks == (4,)
    assert dec.eigenvalues[0] == pytest.approx(1.0)
    assert frob(dec.projectors[0] - np.eye(4)) <= 1e-12


def test_spectral_diagonal_phases():
    roots = unit_roots(3)
    dec = spectral_projections(np.diag(roots))
    assert dec.ranks == (1, 1, 1)
    for k in range(3):
        assert dec.eigenvalues[k] == pytest.approx(roots[k])
        expected = np.zeros((3, 3), dtype=complex)
        expected[k, k] = 1.0
        assert frob(dec.projectors[k] - expected) <= 1e-12


def test_spectral_clock_on_pairs():
    # clock generator on the doubled space: eigenspaces are the column
    # blocks of the entangled basis, one rank-n projector per phase
    from weylgraph.weylrep import entangled_basis, rep_generators

    n = 3
    basis = entangled_basis(n)
    _, pi_m = rep_generators(n, basis)
    dec = spectral_projections(pi_m)
    assert dec.ranks == (3, 3, 3)
    roots = unit_roots(n)
    for k in range(n):
        assert dec.eigenvalues[k] == pytest.approx(roots[k], abs=1e-12)
        oracle = np.zeros((9, 9), dtype=complex)
        for j in range(n):
            v = basis.vector(k, j)
            oracle += np.outer(v, v.conj())
        assert frob(dec.projectors[k] - oracle) <= 1e-11


def test_spectral_reconstruction():
    rng = np.random.default_rng(42)
    v = random_unitary(6, rng)
    phases = np.array([1.0, 1.0, -1.0, -1.0, 1j, -1j])
    u = v @ np.diag(phases) @ v.conj().T
    dec = spectral_projections(u)
    assert len(dec.ranks) == 4
    assert sorted(dec.ranks) == [1, 1, 2, 2]
    rebuilt = sum(lam * p for lam, p in zip(dec.eigenvalues, dec.projectors))
    assert frob(rebuilt - u) <= 1e-9 * 6


def test_clusters_must_reassemble_the_unitary():
    # eigenpairs that do not belong to u: the clusters are clean but their
    # sum of lambda_c P_c is another unitary
    u = np.diag([1.0, 1j, -1.0]).astype(complex)
    swapped = np.eye(3, dtype=complex)[:, [1, 0, 2]]
    with pytest.raises(ValueError, match='reconstruct'):
        cluster_eigenpairs(np.diag(u), swapped, u)


def test_reconstruction_guard_catches_a_duplicated_column():
    # every column is a unit eigenvector of its own eigenvalue's cluster
    # only if it belongs to u: a repeated column reassembles another matrix
    u = np.diag([1.0, 1j, -1.0]).astype(complex)
    duplicated = np.eye(3, dtype=complex)[:, [0, 0, 2]]
    with pytest.raises(ValueError, match='reconstruct'):
        cluster_eigenpairs(np.diag(u), duplicated, u)


def test_spectral_rejects_nonunitary():
    with pytest.raises(ValueError):
        spectral_projections(2.0 * np.eye(3, dtype=complex))


def test_spectral_degenerate_gap():
    # two phases separated by less than the clustering gap but more than
    # the cluster diameter allowance must refuse rather than guess
    u = np.diag([1.0, np.exp(6e-10j), np.exp(1.2e-9j)]).astype(complex)
    with pytest.raises(DegenerateClusteringError):
        spectral_projections(u)


def test_cluster_with_zero_mean_has_no_representative():
    # the fourth roots of unity are one cluster at a gap wider than 2, and
    # their mean is zero
    with pytest.raises(DegenerateClusteringError, match='unimodular representative'):
        cluster_eigenvalues(unit_roots(4), tol=0.5)
    values, labels = cluster_eigenvalues(unit_roots(4)[[0, 0, 1]], tol=0.5)
    assert labels.tolist() == [0, 0, 0]
    assert abs(values[0] - np.exp(1j * np.arctan2(1, 2))) <= 1e-15


def test_cluster_labels_follow_the_angle_order():
    eigs = np.array([-1.0, 1j, 1.0 + 1e-13j, 1.0, -1j, 1.0 - 1e-13j])
    values, labels = cluster_eigenvalues(eigs)
    assert np.allclose(values, [1.0, 1j, -1.0, -1j], atol=1e-12)
    assert labels.tolist() == [2, 1, 0, 0, 3, 0]


def test_cluster_diameter_is_taken_in_bounded_chunks():
    # the identity's one cluster of d eigenvalues: its whole d x d table of
    # pair distances would be 24 d^2 transient bytes, 24 MiB at d = 1024
    eigs = np.ones((1, 1024))
    tracemalloc.start()
    try:
        values, labels = cluster_eigenvalues(eigs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.tolist() == [1.0] and not labels.any()
    assert peak < 2 * 2 ** 20, peak


@pytest.mark.parametrize('seed', range(4))
def test_cluster_diameter_chunks_change_nothing(seed, monkeypatch):
    # with a budget of 8 entries the pairs are taken a few first members at
    # a time: the same clusters come out, and the same diameter is named
    rng = np.random.default_rng(seed)
    eigs = np.exp(2j * np.pi * rng.integers(0, 5, (3, 12)) / 5
                  + 1j * rng.uniform(-2e-11, 2e-11, (3, 12)))
    # a cluster linked across angle 0 whose widest pair, (0.9, -0.5) x 1e-9,
    # is its last two members in angle order, the last chunk of pairs
    wrapped = np.exp(1j * np.array([0.0, 0.4, 0.9, -0.5]) * 1e-9)
    want = cluster_eigenvalues(eigs)
    with pytest.raises(DegenerateClusteringError, match='diameter 1.4') as refused:
        cluster_eigenvalues(wrapped)
    monkeypatch.setattr('weylgraph.linalg._STACK_ENTRIES', 8)
    got = cluster_eigenvalues(eigs)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    with pytest.raises(DegenerateClusteringError) as chunked:
        cluster_eigenvalues(wrapped)
    assert str(chunked.value) == str(refused.value)


def test_spectral_wraparound_cluster():
    # phases straddling the branch cut at angle 0 belong to one cluster
    u = np.diag([np.exp(-1e-13j), np.exp(1e-13j), 1j]).astype(complex)
    dec = spectral_projections(u)
    assert dec.ranks == (2, 1)


# -- span_operators / subspace_equal -----------------------------------------

def test_span_single_generator():
    space = span_operators([np.eye(2, dtype=complex)])
    assert space.dim == 1
    assert space.residual(3.0 * np.eye(2)) <= 1e-12


def test_span_collinear_generators():
    space = span_operators([X, 2.0 * X, -X])
    assert space.dim == 1
    assert space.residual(Z) == pytest.approx(frob(Z))


def test_span_matrix_units():
    n = 3
    units = []
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            units.append(e)
    space = span_operators(units)
    assert space.dim == 9
    assert space.dim == exact_oracles.unit_span_dim(n)


def test_span_rejects_empty():
    with pytest.raises(ValueError):
        span_operators([])


def test_span_zero_generators():
    with pytest.warns(UserWarning):
        space = span_operators([np.zeros((2, 2), dtype=complex)])
    assert space.dim == 0
    # against a space on other blocks, each unit basis element of the other
    # side is its own residual
    cmp = subspace_equal(space, span_operators([np.array([1.0, 0.0])]))
    assert not cmp.equal and cmp.max_residual == pytest.approx(1.0)
    assert subspace_equal(space, space) == (True, 0.0)


def test_span_of_diagonals_matches_the_dense_span():
    # length-d generators stand for diagonal operators: the same subspace as
    # their dense embeddings, including a dependent combination
    rng = np.random.default_rng(5)
    diagonals = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    diagonals[3] = diagonals[0] - 2.0 * diagonals[1]
    space = span_operators(diagonals)
    dense = span_operators([np.diag(v) for v in diagonals])
    assert space.dim == dense.dim == 3
    assert subspace_equal(space, dense).max_residual <= 1e-12
    flat = space.basis.reshape(space.dim, -1)
    assert frob(flat.conj() @ flat.T - np.eye(3)) <= 1e-12
    with pytest.raises(ValueError):
        span_operators([np.array([1.0, np.nan])])
    with pytest.raises(ValueError):
        span_operators([np.ones(3), np.eye(3)])


def test_diagonal_span_keeps_its_rows():
    space = span_operators([np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 2.0])])
    # a diagonal is the partition into singletons, with 1 x 1 blocks
    assert space.partition.tolist() == [[0], [1], [2]]
    assert space.basis.shape == (2, 3, 1, 1)
    dense = dense_embedding(space)
    off = np.zeros((3, 3), dtype=complex)
    off[0, 1] = 1e-6
    for x in (np.diag([1.0, 1.0, 5.0]), np.diag([1.0, 2.0, 0.0]) + off, np.array([3.0, 1.0, 0.0])):
        want = dense.residual(np.diag(x) if x.ndim == 1 else x)
        assert abs(space.residual(x) - want) <= 1e-15


@st.composite
def mixed_spaces(draw):
    """A diagonal subspace and a dense one built from combinations of its
    diagonals, with off-diagonal entries of a drawn size mixed in."""
    d = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 4))
    rows = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    diagonal = span_operators(list(rows))
    count = draw(st.integers(1, 5))
    mix = rng.standard_normal((count, len(rows))) + 1j * rng.standard_normal((count, len(rows)))
    if draw(st.booleans()):  # a diagonal generator off the span
        rows = np.vstack((rows, rng.standard_normal((1, d))))
        mix = np.hstack((mix, rng.standard_normal((count, 1))))
    off = draw(st.sampled_from([0.0, 1e-13, 1e-6, 1.0]))
    noise = rng.standard_normal((count, d, d)) * ~np.eye(d, dtype=bool)
    dense = span_operators([np.diag(c @ rows) + off * e for c, e in zip(mix, noise)])
    return diagonal, dense


@settings(max_examples=200, deadline=None)
@given(mixed_spaces())
def test_mixed_subspace_equal_matches_the_dense_embedding(spaces):
    diagonal, dense = spaces
    for v, w in ((diagonal, dense), (dense, diagonal)):
        got = subspace_equal(v, w)
        want = dense_subspace_equal(v, w, 1e-10)
        assert got.equal == want[0]
        assert abs(got.max_residual - want[1]) <= 1e-12


def block_stack(rng, d, k, sizes):
    """k random operators, block diagonal on a random partition of range(d)
    into parts of the given sizes, padded to the largest."""
    order = rng.permutation(d)
    parts = np.split(order, np.cumsum(sizes)[:-1])
    parts.sort(key=min)
    partition = np.full((len(parts), max(sizes)), -1)
    for c, part in enumerate(parts):
        partition[c, :len(part)] = np.sort(part)
    shape = (k, len(parts), max(sizes), max(sizes))
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pad = partition < 0
    blocks[:, pad] = 0.0
    blocks.swapaxes(-1, -2)[:, pad] = 0.0
    return BlockOperators(partition, blocks)


def test_block_operators_densify_with_padding():
    ops = BlockOperators(np.array([[0, 2, 3], [1, -1, -1]]),
                         np.arange(18, dtype=complex).reshape(1, 2, 3, 3))
    ops.blocks[0, 1, 1:] = ops.blocks[0, 1, :, 1:] = 0.0
    assert ops.ambient_dim == 4
    want = np.zeros((4, 4), dtype=complex)
    want[np.ix_([0, 2, 3], [0, 2, 3])] = np.arange(9).reshape(3, 3)
    want[1, 1] = 9.0
    assert np.array_equal(ops.dense()[0], want)


@st.composite
def block_spaces(draw):
    """Three subspaces of C^(d x d): one on a random partition, one on the
    same partition, on singletons, on an unrelated partition or on one
    block, and the span of both generator sets, the second scaled by a
    drawn factor, as dense matrices."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(2, 12))
    cuts = sorted(set(draw(st.lists(st.integers(1, d - 1), max_size=4))))
    sizes = np.diff([0, *cuts, d]).tolist()
    first = block_stack(rng, d, draw(st.integers(1, 4)), sizes)
    kind = draw(st.sampled_from(['same', 'singletons', 'unrelated', 'dense']))
    if kind == 'same':  # diagonal operators kept on the blocks of first
        rows = first.partition
        second = BlockOperators(rows, np.zeros((3, *first.blocks.shape[1:]), dtype=complex))
        idx = np.arange(rows.shape[1])
        second.blocks[:, :, idx, idx] = rng.standard_normal((3, *rows.shape)) * (rows >= 0)
    elif kind == 'singletons':
        second = block_stack(rng, d, 3, [1] * d)
    elif kind == 'unrelated':
        second = block_stack(rng, d, 3, sizes[::-1])
    else:
        second = block_stack(rng, d, 3, [d])
    share = draw(st.sampled_from([0.0, 1e-13, 1e-6, 1.0]))
    mixed = BlockOperators(second.partition, second.blocks * share)
    gens = np.concatenate((first.dense(), mixed.dense()))
    return span_operators(first), span_operators(second), span_operators(list(gens))


@settings(max_examples=200, deadline=None)
@given(block_spaces())
def test_block_subspace_equal_matches_the_dense_embedding(spaces):
    # spaces on different partitions compare on the coarser one, or on one
    # block when neither refines the other; the dense oracle compares the
    # d x d matrices
    for v in spaces:
        for w in spaces:
            got = subspace_equal(v, w)
            want = dense_subspace_equal(v, w, 1e-10)
            assert got.equal == want[0]
            assert abs(got.max_residual - want[1]) <= 1e-12
    x = spaces[1].operators().dense()[0] + spaces[0].operators().dense()[-1]
    assert abs(spaces[0].residual(x) - dense_embedding(spaces[0]).residual(x)) <= 1e-12


def test_span_idempotent():
    space = span_operators([X, Z, X + Z])
    assert space.partition.tolist() == [[0, 1]]  # a dense matrix is one block
    again = span_operators(list(space.operators().dense()))
    cmp = subspace_equal(space, again)
    assert cmp.equal
    assert cmp.max_residual <= 1e-12


def test_subspace_equal_scaling():
    v = span_operators([np.eye(2, dtype=complex)])
    w = span_operators([3.0 * np.eye(2, dtype=complex)])
    assert subspace_equal(v, w).equal


def test_subspace_orthogonal():
    v = span_operators([X])
    w = span_operators([Z])
    cmp = subspace_equal(v, w)
    assert not cmp.equal
    # X is unit length after normalisation, entirely outside span{Z}
    assert cmp.max_residual == pytest.approx(1.0)


def test_subspace_change_of_generators():
    v = span_operators([X + Z, X - Z])
    w = span_operators([X, Z])
    assert subspace_equal(v, w).equal


def test_subspace_dim_mismatch_not_equal():
    v = span_operators([X])
    w = span_operators([X, Z])
    assert not subspace_equal(v, w).equal


def test_subspace_ambient_mismatch_raises():
    v = span_operators([X])
    w = span_operators([np.eye(3, dtype=complex)])
    with pytest.raises(ValueError):
        subspace_equal(v, w)


def test_random_hermitian_is_hermitian():
    rng = np.random.default_rng(5)
    a = random_hermitian(4, rng)
    assert frob(a - a.conj().T) <= 1e-14


@pytest.mark.parametrize('dim', [4, 100, 576, 1024])
def test_random_hermitian_is_the_complex_sample_bit_for_bit(dim):
    # the samples of the report's seeded checks: built part by part, they
    # must be the very bits of (a + a*) / 2 from the complex draw, and a
    # stack of them those of as many draws one after another, which leave
    # the generator where they leave it
    for seed in (0, 1010):
        got = random_hermitian(dim, np.random.default_rng(seed))
        want = complex_hermitian(dim, np.random.default_rng(seed))
        assert np.array_equal(got, want)
        assert np.array_equal(got, got.conj().T)
    for count in (1, 3) if dim <= 100 else (2,):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        stack = random_hermitian(dim, rng, count)
        assert stack.shape == (count, dim, dim)
        for sample in stack:
            assert np.array_equal(sample, complex_hermitian(dim, ref))
        assert np.array_equal(random_hermitian(dim, rng), complex_hermitian(dim, ref))


@pytest.mark.parametrize('dim', [1, 4, 9, 49, 100, 121, 256])
def test_frobs_is_frob_of_each_matrix_bit_for_bit(dim):
    # the residuals of the stacked checks: the same dot products as
    # np.linalg.norm, past the ~10^4 entries where BLAS splits them too
    rng = np.random.default_rng(dim)
    for count in (1, 3):
        stack = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
        stack *= 10.0 ** rng.integers(-6, 6, (count, 1, 1))
        assert np.array_equal(frobs(stack), [frob(m) for m in stack])


def test_stack_size_fills_the_budget(monkeypatch):
    monkeypatch.setattr('weylgraph.linalg._STACK_ENTRIES', 100)
    assert [stack_size(e) for e in (1, 30, 50, 51, 100, 101)] == [100, 3, 2, 1, 1, 1]
    assert stack_size(np.array([40, 40, 20, 1])) == 3
    assert stack_size(np.array([40, 61])) == 1
    assert stack_size(np.array([200, 1])) == 1
