"""Tests for the shift/clock pair, the entangled grid, and the induced action."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import rep_element
from weylgraph.linalg import frob, tensor_product, unit_roots
from weylgraph.weylrep import (
    element_unitaries,
    entangled_basis,
    rep_generators,
    shift_clock,
    verify_representation,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# -- shift and clock ---------------------------------------------------------

def test_shift_clock_qubit_case():
    s, m = shift_clock(2)
    assert frob(s - X) <= 1e-15
    assert frob(m - Z) <= 1e-15


def test_weyl_relation_direct():
    s, m = shift_clock(3)
    omega = unit_roots(3)[1]
    assert frob(m @ s - omega * (s @ m)) <= 1e-14


@pytest.mark.parametrize('n', [4, 7])
def test_shift_clock_orders(n):
    s, m = shift_clock(n)
    eye = np.eye(n)
    assert frob(np.linalg.matrix_power(s, n) - eye) <= 1e-12
    assert frob(np.linalg.matrix_power(m, n) - eye) <= 1e-12


def test_shift_clock_rejects_small_n():
    with pytest.raises(ValueError):
        shift_clock(1)


# -- entangled basis ---------------------------------------------------------

def test_bell_grid_literals():
    basis = entangled_basis(2)
    r = 1.0 / np.sqrt(2.0)
    assert frob(basis.vector(0, 0) - np.array([r, 0, 0, r])) <= 1e-15
    assert frob(basis.vector(1, 0) - np.array([r, 0, 0, -r])) <= 1e-15
    assert frob(basis.vector(0, 1) - np.array([0, r, r, 0])) <= 1e-15
    assert frob(basis.vector(1, 1) - np.array([0, r, -r, 0])) <= 1e-15


def test_grid_column_is_shifted_diagonal():
    # h[k][j] comes from h[k][0] by shifting the second tensor factor j times
    n = 4
    basis = entangled_basis(n)
    s, _ = shift_clock(n)
    shift2 = tensor_product(np.eye(n, dtype=complex), s)
    for k in range(n):
        v = basis.vector(k, 0)
        for j in range(1, n):
            v = shift2 @ v
            assert frob(v - basis.vector(k, j)) <= 1e-13


def test_grid_matches_defining_sum():
    n = 5
    basis = entangled_basis(n)
    roots = unit_roots(n)
    for k in range(n):
        for j in range(n):
            vec = np.zeros(n * n, dtype=complex)
            for a in range(n):
                vec[a * n + (a + j) % n] = roots[(k * a) % n] / np.sqrt(n)
            assert frob(basis.vector(k, j) - vec) <= 1e-13


@pytest.mark.parametrize('n', [2, 3, 5, 8, 16])
def test_grid_orthonormal(n):
    w = entangled_basis(n).flat()
    assert frob(w.conj().T @ w - np.eye(n * n)) <= 1e-12


def test_change_of_basis_columns():
    n = 3
    basis = entangled_basis(n)
    w = basis.flat()
    for k in range(n):
        for j in range(n):
            e = np.zeros(n * n)
            e[k * n + j] = 1.0
            assert frob(w @ e - basis.vector(k, j)) <= 1e-14


def test_change_of_basis_coefficients():
    # <h_k^j'| s, s+j> = w^(-k s)/sqrt(n) on block j' = j and zero elsewhere
    n = 3
    basis = entangled_basis(n)
    w = basis.flat()
    roots = unit_roots(n)
    for s in range(n):
        for j in range(n):
            e = np.zeros(n * n, dtype=complex)
            e[s * n + (s + j) % n] = 1.0
            coeff = w.conj().T @ e
            for k in range(n):
                for jp in range(n):
                    want = roots[(-k * s) % n] / np.sqrt(n) if jp == j else 0.0
                    assert abs(coeff[k * n + jp] - want) <= 1e-13


def test_bell_expansion_of_product_ket():
    # |00> = (h[0][0] + h[1][0]) / sqrt(2) at n = 2
    basis = entangled_basis(2)
    w = basis.flat()
    e00 = np.zeros(4)
    e00[0] = 1.0
    coeff = w.conj().T @ e00
    r = 1.0 / np.sqrt(2.0)
    assert frob(coeff - np.array([r, 0, r, 0])) <= 1e-14


# -- induced action ----------------------------------------------------------

def test_rep_shifts_grid_rows():
    n = 4
    basis = entangled_basis(n)
    pi_s, pi_m = rep_generators(n, basis)
    for j in range(n):
        assert frob(pi_s @ basis.vector(n - 1, j) - basis.vector(0, j)) <= 1e-12
        assert frob(pi_m @ basis.vector(0, j) - basis.vector(0, j)) <= 1e-12
        assert frob(pi_s @ basis.vector(1, j) - basis.vector(2, j)) <= 1e-12


def test_rep_closed_form_qubits():
    pi_s, pi_m = rep_generators(2)
    assert frob(pi_s - tensor_product(Z, np.eye(2))) <= 1e-14
    assert frob(pi_m - tensor_product(X, X)) <= 1e-14


@pytest.mark.parametrize('n', [3, 5])
def test_rep_closed_form_general(n):
    # the image of the shift is clock (x) identity; the image of the clock
    # shifts both factors down by one
    s, m = shift_clock(n)
    pi_s, pi_m = rep_generators(n)
    assert frob(pi_s - tensor_product(m, np.eye(n, dtype=complex))) <= 1e-13
    assert frob(pi_m - tensor_product(s.conj().T, s.conj().T)) <= 1e-13


def test_rep_element_identity():
    n = 3
    u = element_unitaries(n, *rep_generators(n)).dense(0, 0)
    assert frob(u - np.eye(n * n)) <= 1e-13


def test_rep_element_weyl_swap():
    # M S = w S M carries over to the induced action
    n = 3
    table = element_unitaries(n, *rep_generators(n))
    lhs = table.dense(0, 1) @ table.dense(1, 0)
    rhs = unit_roots(n)[1] * table.dense(1, 1)
    assert frob(lhs - rhs) <= 1e-12


def test_composition_law():
    # the table multiplies by the Heisenberg-Weyl law: moving piM^q past
    # piS^p' costs the central phase w^(q p'), which conjugation cancels
    n = 4
    table = element_unitaries(n, *rep_generators(n))
    rng = np.random.default_rng(314)
    for _ in range(20):
        p, q, pp, qp = rng.integers(0, n, size=4)
        lhs = table.dense(p, q) @ table.dense(pp, qp)
        rhs = unit_roots(n)[q * pp % n] * table.dense((p + pp) % n, (q + qp) % n)
        assert frob(lhs - rhs) <= 1e-11 * n * n


def test_element_unitaries_table():
    for n in range(2, 11):
        d = n * n
        pi_s, pi_m = rep_generators(n)
        table = element_unitaries(n, pi_s, pi_m)
        assert table.perm.shape == table.expo.shape == table.phase.shape == (n, n, d)
        assert table.order == n
        assert table.nbytes == 16 * n ** 4
        for p in range(n):
            for q in range(n):
                want = rep_element(pi_s, pi_m, p, q)
                assert frob(table.dense(p, q) - want) <= 1e-12, (n, p, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n - 1), st.integers(0, n - 1),
    st.integers(0, 2 ** 32 - 1))))
def test_conj_matches_dense_oracle(case):
    # conjugating a diagonal by a table element is the gather of
    # orbit_diagonals; the dense product u diag(v) u* is its oracle, and it
    # has nothing off the diagonal
    n, p, q, seed = case
    d = n * n
    pi_s, pi_m = rep_generators(n)
    v = np.random.default_rng(seed).standard_normal(d)
    u = rep_element(pi_s, pi_m, p, q)
    want = u @ np.diag(v) @ u.conj().T
    got = element_unitaries(n, pi_s, pi_m).orbit_diagonals(v)[p, q]
    assert frob(np.diag(got) - want) <= 1e-12 * d


def test_element_unitaries_composes_generic_monomials():
    # piS is diagonal and piM a bare permutation, so they leave half of the
    # composition rule unexercised; random monomials with random n-th roots
    # of unity for phases use all of it
    n, d = 4, 7
    rng = np.random.default_rng(2024)
    gens = []
    for _ in range(2):
        u = np.zeros((d, d), dtype=complex)
        u[np.arange(d), rng.permutation(d)] = unit_roots(n)[rng.integers(0, n, d)]
        gens.append(u)
    table = element_unitaries(n, *gens)
    for p in range(n):
        for q in range(n):
            want = rep_element(*gens, p, q)
            assert frob(table.dense(p, q) - want) <= 1e-12


@pytest.mark.parametrize('n', range(2, 25))
def test_table_phases_stay_unimodular(n):
    # the table is integers: piS = M (x) I holds w^a in row (a, b), piM is
    # the double shift with no phase, and every phase of the table is the
    # root w^expo itself, evaluated once, so no power drifts off the circle
    d = n * n
    table = element_unitaries(n, *rep_generators(n))
    rows = np.arange(d)
    a, b = np.divmod(rows, n)
    assert np.array_equal(table.perm[1, 0], rows)
    assert np.array_equal(table.perm[0, 1], (a + 1) % n * n + (b + 1) % n)
    assert np.array_equal(table.expo[1, 0], a % n)
    assert np.array_equal(table.expo[0, 1], np.zeros(d))
    assert np.array_equal(table.phase, unit_roots(n)[table.expo])


def test_element_unitaries_rejects_a_non_unimodular_phase():
    n = 3
    for i in range(2):
        gens = [g.copy() for g in rep_generators(n)]
        row = gens[i][1]
        row[np.argmax(np.abs(row))] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match='not a monomial unitary'):
            element_unitaries(n, *gens)


@pytest.mark.parametrize('n', range(2, 17))
def test_generator_tables_are_clock_and_double_shift(n):
    # index by index, in the standard basis the dense piS = M (x) I and
    # piM = S^-1 (x) S^-1, whose row (a, b) holds its 1 in column (a+1, b+1):
    # both are monomial, which makes every orbit generator u Q_s u* diagonal
    d = n * n
    pi_s, pi_m = rep_generators(n)
    rows = np.arange(d)
    a, b = np.divmod(rows, n)
    clock, shift = np.zeros((d, d), dtype=complex), np.zeros((d, d), dtype=complex)
    clock[rows, rows] = unit_roots(n)[a]
    shift[rows, (a + 1) % n * n + (b + 1) % n] = 1.0
    assert np.abs(pi_s - clock).max() <= 1e-12
    assert np.abs(pi_m - shift).max() <= 1e-12


def test_element_unitaries_rejects_non_monomial():
    # one off-monomial entry of 1e-6 in either generator
    n = 3
    for i in range(2):
        gens = [g.copy() for g in rep_generators(n)]
        row = gens[i][0]
        row[np.argmin(np.abs(row))] = 1e-6
        with pytest.raises(ValueError):
            element_unitaries(n, *gens)


# -- the bundled check list --------------------------------------------------

@pytest.mark.parametrize('n', range(2, 7))
def test_verify_representation_passes(n):
    results = verify_representation(n, tol=1e-12)
    assert [c.check_id for c in results] == [
        'rep_unitary', 'rep_order', 'weyl_relation',
        'subspace_invariance', 'intertwiner']
    for c in results:
        assert c.passed, (c.check_id, c.max_residual)
        assert c.max_residual <= 1e-12


def test_verify_representation_catches_tampering():
    n = 3
    pi_s, _ = rep_generators(n)
    tampered = pi_s.copy()
    tampered[0, 0] *= -1.0
    results = verify_representation(n, pi_s=tampered)
    failed = [c for c in results if not c.passed]
    assert failed
    assert max(c.max_residual for c in failed) >= 1.0


def test_verify_representation_takes_both_overrides_as_lists():
    n = 3
    pi_s, pi_m = rep_generators(n)
    want = verify_representation(n, pi_s=pi_s, pi_m=pi_m)
    got = verify_representation(n, pi_s=pi_s.tolist(), pi_m=pi_m.tolist())
    assert [(c.check_id, c.passed, c.max_residual) for c in got] == \
        [(c.check_id, c.passed, c.max_residual) for c in want]


@pytest.mark.parametrize('which', [(0,), (1,), (0, 1)])
def test_verify_representation_rejects_a_nan_override(which):
    n = 3
    gens = [g.copy() for g in rep_generators(n)]
    for i in which:
        gens[i][0, 0] = np.nan
    overrides = {name: gens[i] for i, name in enumerate(('pi_s', 'pi_m')) if i in which}
    with pytest.raises(ValueError, match='finite'):
        verify_representation(n, **overrides)
