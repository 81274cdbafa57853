"""Exact-arithmetic span-dimension oracles, independent of the package under test.

Matrix entries are integer coefficient vectors over the power basis
{1, w, ..., w^(n-1)}, w = exp(2*pi*i/n), i.e. elements of Z[x]/(x^n - 1).
Overall positive scale factors (the 1/sqrt(n) of the basis vectors, the 1/n of
derived operators) are dropped throughout: scaling a generator never changes a
Gram rank.

A span dimension is the rank of the Hilbert-Schmidt Gram matrix over the field
Q(w).  Each Gram entry is expanded through the regular representation of
Q(w) = Q[x]/Phi_n(x) (the companion matrix of the n-th cyclotomic polynomial),
giving an integer block matrix whose rank over Q equals phi(n) times the rank
over Q(w).  Integer ranks come from fraction-free Bareiss elimination on
Python ints, so no floating point enters at any stage.

The census of spectral projections has a closed form in integers
(census_closed_form_errors): the projections of the element (p, q) are
those of the cyclic subgroup it generates, of order n / gcd(p, q, n).

Run as a script to print the table frozen into the test suite:

    python tests/exact_oracles.py
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the regular representation of Q(w)

def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials, coefficients ascending, den monic."""
    num = list(num)
    deg_n, deg_d = len(num) - 1, len(den) - 1
    assert den[-1] == 1
    out = [0] * (deg_n - deg_d + 1)
    for k in range(deg_n - deg_d, -1, -1):
        c = num[k + deg_d]
        out[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    assert not any(num), "inexact polynomial division"
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(cyclotomic(d)))
    return tuple(num)


def _int_eye(d: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


@lru_cache(maxsize=None)
def companion_powers(n: int) -> tuple:
    """Matrices of multiplication by w^t on the power basis of Q(w), t = 0..n-1."""
    phi = list(cyclotomic(n))
    deg = len(phi) - 1
    comp = [[0] * deg for _ in range(deg)]
    for i in range(deg - 1):
        comp[i + 1][i] = 1
    for i in range(deg):
        comp[i][deg - 1] -= phi[i]
    powers = [_int_eye(deg)]
    for _ in range(1, n):
        powers.append(_int_matmul(comp, powers[-1]))
    return tuple(powers)


def bareiss_rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [[int(x) for x in row] for row in m]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank, r, prev = 0, 0, 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def rank_over_cyclotomic(gram: np.ndarray, n: int) -> int:
    """Rank over Q(w) of a square array of coefficient vectors, shape (r, r, n)."""
    powers = companion_powers(n)
    deg = len(powers[0])
    r = gram.shape[0]
    big = [[0] * (r * deg) for _ in range(r * deg)]
    for i in range(r):
        for j in range(r):
            for t in range(n):
                ct = int(gram[i, j, t])
                if ct:
                    blk = powers[t]
                    for a in range(deg):
                        row = big[i * deg + a]
                        for b in range(deg):
                            row[j * deg + b] += ct * blk[a][b]
    rank = bareiss_rank(big)
    assert rank % deg == 0, "rank not divisible by the field degree"
    return rank // deg


# ---------------------------------------------------------------------------
# Gram matrices of coefficient-vector operators

def gram_coefficients(mats: list[np.ndarray]) -> np.ndarray:
    """HS Gram with entries as coefficient vectors; int64 path for small counts."""
    r = len(mats)
    n = mats[0].shape[-1]
    rev = (-np.arange(n)) % n
    out = np.zeros((r, r, n), dtype=np.int64)
    for i in range(r):
        ac = mats[i][:, :, rev]  # complex conjugation sends w^t to w^(n-t)
        for j in range(r):
            d = np.tensordot(ac, mats[j], axes=([0, 1], [0, 1]))
            for s in range(n):
                out[i, j, (s + np.arange(n)) % n] += d[s]
    return out


def gram_coefficients_bigint(mats: list[np.ndarray]) -> np.ndarray:
    """Same Gram, but on unbounded Python ints (for generators with large scales)."""
    r = len(mats)
    n = mats[0].shape[-1]
    out = np.empty((r, r, n), dtype=object)
    for i in range(r):
        for j in range(r):
            acc = [0] * n
            ai, aj = mats[i], mats[j]
            for a in range(ai.shape[0]):
                for b in range(ai.shape[1]):
                    u, v = ai[a, b], aj[a, b]
                    for s in range(n):
                        us = int(u[s])
                        if us:
                            for t in range(n):
                                acc[(t - s) % n] += us * int(v[t])
            out[i, j] = acc
    return out


# ---------------------------------------------------------------------------
# exact constructions from the defining sums
#
# Basis vectors scaled by sqrt(n): entries w^(m*a) at position a*n + (a+k) % n.
# The sums below accumulate n*y_ml, i.e. sum_k of scaled outer products.

def _accumulate_y(out: np.ndarray, n: int, m: int, l: int) -> None:
    """out += n * y_ml as coefficient arrays."""
    for k in range(n):
        for a in range(n):
            for c in range(n):
                out[a * n + (a + k) % n, c * n + (c + k) % n, (m * a - l * c) % n] += 1


def h_generators_exact(n: int) -> list[np.ndarray]:
    """The Hermitian family h_0 = sum_m y_mm, h_p = sum_m (y_{m+p,m} + y_{m,m+p})."""
    d = n * n
    mats = []
    for p in range(n):
        h = np.zeros((d, d, n), dtype=np.int64)
        for m in range(n):
            if p == 0:
                _accumulate_y(h, n, m, m)
            else:
                _accumulate_y(h, n, (m + p) % n, m)
                _accumulate_y(h, n, m, (m + p) % n)
        mats.append(h)
    return mats


def z_reduced_exact(n: int) -> list[np.ndarray]:
    """The reduced family z_c = sum_{m,l} w^(c(m-l)) y_ml, scaled by n."""
    d = n * n
    mats = []
    for c in range(n):
        z = np.zeros((d, d, n), dtype=np.int64)
        for m in range(n):
            for l in range(n):
                for k in range(n):
                    for a in range(n):
                        for c2 in range(n):
                            z[a * n + (a + k) % n, c2 * n + (c2 + k) % n,
                              (c * (m - l) + m * a - l * c2) % n] += 1
        mats.append(z)
    return mats


def matrix_units_exact(n: int) -> list[np.ndarray]:
    """All n^2 standard matrix units on C^n as coefficient arrays."""
    mats = []
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n, n), dtype=np.int64)
            e[a, b, 0] = 1
            mats.append(e)
    return mats


# ---------------------------------------------------------------------------
# exact conjugation orbit (small n): full cyclotomic matrix arithmetic

def _conv(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int64)
    for s in range(n):
        us = int(u[s])
        if us:
            for t in range(n):
                out[(s + t) % n] += us * int(v[t])
    return out


def matmul_cyc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    out = np.zeros((a.shape[0], b.shape[1], n), dtype=np.int64)
    for s in range(n):
        out += np.einsum('ik,kjt->ijt', a[:, :, s], np.roll(b, s, axis=2))
    return out


def conj_transpose_cyc(a: np.ndarray) -> np.ndarray:
    rev = (-np.arange(a.shape[-1])) % a.shape[-1]
    return a.transpose(1, 0, 2)[:, :, rev]


def kron_cyc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db, n), dtype=np.int64)
    for i in range(da):
        for j in range(da):
            pa = a[i, j]
            if not pa.any():
                continue
            for k in range(db):
                for l in range(db):
                    pb = b[k, l]
                    if pb.any():
                        out[i * db + k, j * db + l] = _conv(pa, pb, n)
    return out


def _cyc_eye(d: int, n: int) -> np.ndarray:
    e = np.zeros((d, d, n), dtype=np.int64)
    e[np.arange(d), np.arange(d), 0] = 1
    return e


def orbit_generators_exact(n: int, s: int = 0) -> list[np.ndarray]:
    """All n^2 conjugates U_pq Q_s U_pq^*, each with its own harmless scale."""
    d = n * n
    sh = np.zeros((n, n, n), dtype=np.int64)
    sh[(np.arange(n) + 1) % n, np.arange(n), 0] = 1
    eye = _cyc_eye(n, n)
    clock = np.zeros((n, n, n), dtype=np.int64)
    clock[np.arange(n), np.arange(n), np.arange(n) % n] = 1
    w = np.zeros((d, d, n), dtype=np.int64)
    for k in range(n):
        for j in range(n):
            for a in range(n):
                w[a * n + (a + j) % n, k * n + j, (k * a) % n] = 1
    wt = conj_transpose_cyc(w)
    pi_s = matmul_cyc(matmul_cyc(w, kron_cyc(sh, eye)), wt)      # n * pi(S)
    pi_m = matmul_cyc(matmul_cyc(w, kron_cyc(clock, eye)), wt)   # n * pi(M)
    q = np.zeros((d, d, n), dtype=np.int64)
    for k in range(n):
        idx = s * n + (s + k) % n
        q[idx, idx, 0] = 1
    gens = []
    for p in range(n):
        for qq in range(n):
            u = _cyc_eye(d, n)
            for _ in range(p):
                u = matmul_cyc(u, pi_s)
            for _ in range(qq):
                u = matmul_cyc(u, pi_m)
            gens.append(matmul_cyc(matmul_cyc(u, q), conj_transpose_cyc(u)))
    return gens


# ---------------------------------------------------------------------------
# span dimensions

def h_span_dim(n: int) -> int:
    return rank_over_cyclotomic(gram_coefficients(h_generators_exact(n)), n)


def z_span_dim(n: int) -> int:
    return rank_over_cyclotomic(gram_coefficients(z_reduced_exact(n)), n)


def unit_span_dim(n: int) -> int:
    return rank_over_cyclotomic(gram_coefficients(matrix_units_exact(n)), n)


def orbit_span_dim(n: int, s: int = 0) -> int:
    gens = orbit_generators_exact(n, s)
    return rank_over_cyclotomic(gram_coefficients_bigint(gens), n)


def orbit_z_union_dim(n: int, s: int = 0) -> int:
    """Dimension of span(orbit generators together with the reduced z family)."""
    gens = [m.astype(object) for m in orbit_generators_exact(n, s)]
    gens += [m.astype(object) for m in z_reduced_exact(n)]
    return rank_over_cyclotomic(gram_coefficients_bigint(gens), n)


# ---------------------------------------------------------------------------
# exact structural facts used by the tests

def h_symmetry_holds(n: int) -> bool:
    """Whether h_p and h_{n-p} are the same coefficient array for every p."""
    hs = h_generators_exact(n)
    return all(np.array_equal(hs[p], hs[(n - p) % n]) for p in range(1, n))


def _is_zero_in_field(vec, n: int) -> bool:
    """Whether a coefficient vector reduces to 0 modulo the n-th cyclotomic poly."""
    phi = list(cyclotomic(n))
    deg = len(phi) - 1
    rem = [int(x) for x in vec]
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem[k]
        if c:
            for i, pc in enumerate(phi):
                rem[k - deg + i] -= c * pc
    return not any(rem[:deg])


def z_matches_scaled_projection(n: int) -> bool:
    """Whether z_c equals n * Q_{(-c) mod n} in Q(w) (our arrays carry n*z_c)."""
    zs = z_reduced_exact(n)
    for c in range(n):
        s = (-c) % n
        expect = np.zeros((n * n, n * n, n), dtype=np.int64)
        for k in range(n):
            idx = s * n + (s + k) % n
            expect[idx, idx, 0] = n * n
        diff = zs[c].astype(object) - expect
        for row in diff.reshape(-1, n):
            if not _is_zero_in_field(row, n):
                return False
    return True


# ---------------------------------------------------------------------------
# the spectral census in closed form

def dedekind_psi(n: int) -> int:
    """psi(n) = n prod_{p | n} (1 + 1/p) over the primes p, in integers:
    the number of cyclic subgroups of order n of Z_n x Z_n."""
    psi, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            psi = psi // p * (p + 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        psi = psi // rest * (rest + 1)
    return psi


def census_closed_form_errors(scan) -> list[str]:
    """How a census of spectral projections (graphs.Prop1Scan) departs from
    its closed form: n psi(n) anticliques, sum_{d | n} d psi(d) distinct
    projections, and each projection, first seen on an element (p, q) of
    order ord = n / gcd(p, q, n), of rank n^2 / ord and an anticlique if
    and only if ord = n.  Empty when the census has it."""
    n = scan.n
    errors = []
    anticliques = sum(rec.is_anticlique for rec in scan.projections)
    if anticliques != n * dedekind_psi(n):
        errors.append(f'{anticliques} anticliques, not n psi(n) = {n * dedekind_psi(n)}')
    distinct = sum(d * dedekind_psi(d) for d in range(1, n + 1) if n % d == 0)
    if len(scan.projections) != distinct:
        errors.append(f'{len(scan.projections)} distinct projections, not {distinct}')
    for rec in scan.projections:
        order = n // gcd(*rec.element, n)
        if rec.rank * order != n * n or rec.is_anticlique != (order == n):
            errors.append(f'{rec.element} of order {order}: rank {rec.rank}, '
                          f'anticlique {rec.is_anticlique}')
    return errors


if __name__ == '__main__':
    print('n  dim_h  dim_z  h_symmetry  z_is_scaled_Q')
    for n in range(2, 11):
        print(f'{n}  {h_span_dim(n)}      {z_span_dim(n)}      '
              f'{h_symmetry_holds(n)}       {z_matches_scaled_projection(n)}')
    print('matrix-unit span, n=3:', unit_span_dim(3))
    for n in (2, 3):
        print(f'orbit span, n={n}, s=0:', orbit_span_dim(n, 0),
              '  union with z:', orbit_z_union_dim(n, 0))
    print('orbit span, n=3, s=1:', orbit_span_dim(3, 1))
