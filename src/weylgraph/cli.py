"""Command-line front end.

Exit codes: 0 all checks pass, 1 at least one identity check fails, 2 usage
error, including a modulus too large for memory (refused up front by an
estimate, or a MemoryError while building), 3 i/o error.  Discrepancy entries
never change the exit code; they are audit findings, not failures.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .covariant import q_projection
from .graphs import (AnticliqueReport, anticlique_projector, compressions, h_generators,
                     z_generators)
from .linalg import frob
from .report import run_verification
from .serialize import anticlique_to_obj, dumps, matrix_to_obj, report_to_obj
from .weylrep import (ClusterColumns, element_unitaries, entangled_basis, rep_generators,
                      shift_clock)

_EXPORT_CHOICES = ('S', 'M', 'piS', 'piM', 'basis', 'Q', 'P',
                   'h-generators', 'z-generators')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='weylgraph',
        description='construct the shift/clock group action on the doubled '
                    'space and verify its resolution-of-identity, operator-graph '
                    'and anticlique identities numerically')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('verify', help='run the full check suite at one modulus')
    p.add_argument('--n', type=int, required=True, help='modulus, at least 2')
    p.add_argument('--tol', type=float, default=1e-10, help='absolute tolerance')
    p.add_argument('--json', dest='json_path', metavar='PATH',
                   help='write the report here instead of stdout')
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser('scan', help='verify a whole range of moduli')
    p.add_argument('--n-min', type=int, required=True)
    p.add_argument('--n-max', type=int, required=True)
    p.add_argument('--tol', type=float, default=1e-10)
    p.add_argument('--json', dest='json_path', metavar='PATH')
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser('export', help='emit a constructed object as JSON')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--what', required=True, choices=_EXPORT_CHOICES)
    p.add_argument('--s', type=int, help='base index (required for Q)')
    p.add_argument('--k', type=int, help='code index (required for P)')
    p.add_argument('--out', metavar='PATH', help='output file (default stdout)')
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser('kl-check', help='compress one orbit graph by one code projection')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--k', type=int, required=True)
    p.add_argument('--s', type=int, required=True)
    p.add_argument('--tol', type=float, default=1e-10)
    p.add_argument('--json', dest='json_path', metavar='PATH')
    p.set_defaults(handler=_cmd_kl_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f'weylgraph: error: {exc}', file=sys.stderr)
        return 2
    except OSError as exc:
        print(f'weylgraph: i/o error: {exc}', file=sys.stderr)
        return 3
    except MemoryError:
        print('weylgraph: error: out of memory; try a smaller modulus', file=sys.stderr)
        return 2


class _UsageError(ValueError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _require_tol(tol: float) -> None:
    # span_operators keeps the Gram eigenvalues above tol times the largest,
    # so at tol >= 1 every span is empty and the span checks hold vacuously
    _require(0 < tol < 1, '--tol must be positive and finite, and below 1')


def _require_memory(n: int) -> None:
    """Refuse a modulus whose run cannot fit in physical memory: 64 MiB +
    40 n^5 bytes is at least the measured peak RSS of verify at n = 8, 10,
    ..., 24, 32 and 40 (41, 43, 48, 54, 66, 82, 104, 131, 174, 450 and 1061
    MiB).  The bound was fitted to the orbit graphs' n^2 member diagonals,
    16 n^5 bytes, which are no longer kept; it stays as a conservative
    estimate of a peak that now grows about like n^4."""
    need = 2 ** 26 + 40 * n ** 5
    have = os.sysconf('SC_PHYS_PAGES') * os.sysconf('SC_PAGE_SIZE')
    _require(need <= have,
             f'n = {n} needs about {need / 2**30:.1f} GiB (64 MiB + 40 n^5 bytes), '
             f'more than the {have / 2**30:.1f} GiB of physical memory')


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, 'w', encoding='utf-8') as fh:
            fh.write(text)


def _cmd_verify(args) -> int:
    _require(args.n >= 2, '--n must be at least 2')
    _require_tol(args.tol)
    _require_memory(args.n)
    report = run_verification(args.n, args.tol)
    _write(dumps(report_to_obj(report)) + '\n', args.json_path)
    return 0 if report.all_passed() else 1


def _cmd_scan(args) -> int:
    _require(2 <= args.n_min <= args.n_max <= 64,
             '--n-min/--n-max must satisfy 2 <= n-min <= n-max <= 64')
    _require_tol(args.tol)
    _require_memory(args.n_max)
    reports = [run_verification(n, args.tol)
               for n in range(args.n_min, args.n_max + 1)]
    _write(dumps([report_to_obj(r) for r in reports]) + '\n', args.json_path)
    return 0 if all(r.all_passed() for r in reports) else 1


def _cmd_export(args) -> int:
    n = args.n
    _require(n >= 2, '--n must be at least 2')
    what = args.what
    if what in ('S', 'M'):
        payload = matrix_to_obj(shift_clock(n)[0 if what == 'S' else 1])
    elif what in ('piS', 'piM'):
        payload = matrix_to_obj(rep_generators(n)[0 if what == 'piS' else 1])
    elif what == 'basis':
        basis = entangled_basis(n)
        payload = [matrix_to_obj(basis.vector(k, j))
                   for k in range(n) for j in range(n)]
    elif what == 'Q':
        _require(args.s is not None and 0 <= args.s < n,
                 '--s is required for Q and must lie in 0..n-1')
        payload = matrix_to_obj(q_projection(n, args.s))
    elif what == 'P':
        _require(args.k is not None and 0 <= args.k < n,
                 '--k is required for P and must lie in 0..n-1')
        payload = matrix_to_obj(anticlique_projector(n, args.k))
    elif what == 'h-generators':
        payload = [matrix_to_obj(h) for h in h_generators(n).dense()]
    else:  # z-generators
        payload = [matrix_to_obj(z) for z in z_generators(n).dense()]
    _write(dumps(payload) + '\n', args.out)
    return 0


def _cmd_kl_check(args) -> int:
    n = args.n
    _require(n >= 2, '--n must be at least 2')
    _require(0 <= args.k < n, '--k must lie in 0..n-1')
    _require(0 <= args.s < n, '--s must lie in 0..n-1')
    _require_tol(args.tol)
    _require_memory(n)
    # the orbit generators u Q_s u* are diagonal: one gather of diag Q_s per
    # element, in (p, q) order, and no span of the orbit
    diagonals = element_unitaries(n, *rep_generators(n)).orbit_diagonals(
        np.diagonal(q_projection(n, args.s)))
    # P_k = b b* for the code isometry b, so ||b* X b - lambda I||_F is the
    # dense ||P_k X P_k - lambda P_k||_F of check_knill_laflamme, taken on
    # the diagonals of the orbit generators, as long as b is an isometry:
    # its measured defect ||b* b - I||_F is added
    b = entangled_basis(n).code_isometry(args.k)
    residuals, lams = compressions(ClusterColumns.of(b), diagonals.reshape(n * n, -1))
    worst = float(residuals.max()) + frob(b.conj().T @ b - np.eye(n))
    labels = [(p, q) for p in range(n) for q in range(n)]
    lambdas = {label: complex(lam) for label, lam in zip(labels, lams[:, 0])}
    result = AnticliqueReport(n, args.k, args.s, worst <= args.tol, lambdas, worst, n)
    _write(dumps(anticlique_to_obj(result)) + '\n', args.json_path)
    return 0 if result.is_anticlique else 1


if __name__ == '__main__':
    sys.exit(main())
