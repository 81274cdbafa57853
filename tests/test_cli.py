"""Tests for the command-line front end and the JSON interchange layer."""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dense_oracles import member_diagonals
from weylgraph.cli import main
from weylgraph.covariant import q_projection
from weylgraph.graphs import anticlique_projector, check_knill_laflamme
from weylgraph.linalg import frob, tensor_product
from weylgraph.report import run_verification
from weylgraph.serialize import (CANONICAL_CHECK_ORDER, anticlique_to_obj, dumps,
                                 format_float, matrix_to_obj, obj_to_matrix)
from weylgraph.weylrep import (EntangledBasis, GroupAction, element_unitaries, entangled_basis,
                               rep_generators)

Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# -- verify ------------------------------------------------------------------

def test_verify_report_schema(tmp_path):
    out = tmp_path / 'report.json'
    assert main(['verify', '--n', '2', '--json', str(out)]) == 0
    obj = json.loads(out.read_text())
    assert list(obj) == ['n', 'tol', 'checks', 'graph', 'discrepancies',
                         'timing_ms']
    assert obj['n'] == 2
    assert obj['tol'] == 1e-10
    assert [c['id'] for c in obj['checks']] == list(CANONICAL_CHECK_ORDER)
    assert all(c['pass'] for c in obj['checks'])
    assert all(c['max_residual'] <= 1e-10 for c in obj['checks'])
    assert list(obj['graph']) == ['dim_orbit', 'dim_z_span', 'dim_h_span',
                                  'orbit_equals_z', 'orbit_equals_h']
    assert obj['discrepancies'] == []
    assert obj['timing_ms'] == 0


def test_verify_writes_stdout(capsys):
    assert main(['verify', '--n', '3']) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj['n'] == 3
    # the h-family mismatch at n = 3 is reported as a discrepancy, not a failure
    assert len(obj['discrepancies']) == 1
    assert all(c['pass'] for c in obj['checks'])


def test_verify_rejects_small_n(capsys):
    assert main(['verify', '--n', '1']) == 2
    assert 'at least 2' in capsys.readouterr().err


def test_verify_rejects_bad_tol(capsys):
    assert main(['verify', '--n', '2', '--tol', '0']) == 2


@pytest.mark.parametrize('argv, code', [
    (['verify', '--n', '3', '--tol', 'inf'], 2),
    (['scan', '--n-min', '2', '--n-max', '3', '--tol', 'inf'], 2),
    (['kl-check', '--n', '3', '--k', '0', '--s', '0', '--tol', 'inf'], 2),
    (['verify', '--n', '3', '--tol', '1e-16'], 1),
    (['verify', '--n', '3', '--tol', '1e-300'], 1),
    (['verify', '--n', '8', '--tol', '1e-16'], 1),
    (['verify', '--n', '8', '--tol', '1e-300'], 1),
    (['verify', '--n', '4', '--tol', '1'], 2),
    (['verify', '--n', '4', '--tol', '2'], 2),
    (['verify', '--n', '4', '--tol', '1e300'], 2),
    (['scan', '--n-min', '2', '--n-max', '3', '--tol', '1'], 2),
    (['kl-check', '--n', '3', '--k', '0', '--s', '0', '--tol', '1'], 2),
    (['kl-check', '--n', '3', '--k', '0', '--s', '0', '--tol', '1e-17'], 1),
    (['kl-check', '--n', '3', '--k', '0', '--s', '0', '--tol', '1e-20'], 1),
    (['kl-check', '--n', '3', '--k', '0', '--s', '0', '--tol', '1e-300'], 1),
])
def test_tol_contract(argv, code, capsys):
    # a non-finite tolerance is a usage error, and so is one of 1 or more,
    # at which every operator span is empty; a tolerance too tight for the
    # spectral clustering fails checks but still yields the full report, and
    # one below the code isometry's roundoff fails kl-check with its report
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ''
        assert '--tol must be positive and finite, and below 1' in captured.err
    elif argv[0] == 'kl-check':
        obj = json.loads(captured.out)
        assert obj['is_anticlique'] is False
        assert obj['max_residual'] > float(argv[-1])
        assert len(obj['lambda']) == 9
    else:
        obj = json.loads(captured.out)
        assert [c['id'] for c in obj['checks']] == list(CANONICAL_CHECK_ORDER)
        spectral = obj['checks'][CANONICAL_CHECK_ORDER.index('spectral_pk_match')]
        assert not spectral['pass']


def test_verify_reports_a_zero_mean_cluster(tmp_path, capsys):
    # at tol 0.5 the linking gap spans the circle, so a cluster can average
    # to zero: the census refuses it as a degenerate clustering, in the report
    out = tmp_path / 'report.json'
    assert main(['verify', '--n', '4', '--tol', '0.5', '--json', str(out)]) == 1
    assert capsys.readouterr().err == ''
    obj = json.loads(out.read_text())
    assert [c['id'] for c in obj['checks']] == list(CANONICAL_CHECK_ORDER)
    spectral = obj['checks'][CANONICAL_CHECK_ORDER.index('spectral_pk_match')]
    assert not spectral['pass']
    assert spectral['details'].startswith('spectral clustering failed: ')
    assert 'no unimodular representative' in spectral['details']


@pytest.mark.parametrize('tol', [float('inf'), float('nan'), 0.0, 1.0, 2.0, 1e300])
def test_run_verification_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        run_verification(3, tol)


def test_verify_io_error(tmp_path, capsys):
    missing = tmp_path / 'no' / 'such' / 'dir' / 'report.json'
    assert main(['verify', '--n', '2', '--json', str(missing)]) == 3
    assert 'i/o error' in capsys.readouterr().err


# -- scan ----------------------------------------------------------------------

def test_scan_emits_ascending_reports(tmp_path):
    out = tmp_path / 'scan.json'
    assert main(['scan', '--n-min', '2', '--n-max', '4',
                 '--json', str(out)]) == 0
    reports = json.loads(out.read_text())
    assert [r['n'] for r in reports] == [2, 3, 4]
    for r in reports:
        assert all(c['pass'] for c in r['checks'])
        assert r['timing_ms'] == 0


def test_scan_rejects_bad_range(capsys):
    assert main(['scan', '--n-min', '6', '--n-max', '2']) == 2
    assert main(['scan', '--n-min', '2', '--n-max', '65']) == 2
    assert main(['scan', '--n-min', '1', '--n-max', '3']) == 2


@pytest.mark.parametrize('argv', [
    ['scan', '--n-min', '2', '--n-max', '64'],
    ['verify', '--n', '64'],
    ['kl-check', '--n', '64', '--k', '0', '--s', '0'],
])
def test_refuses_modulus_past_physical_memory(argv, capsys, monkeypatch):
    # 64 MiB + 40 n^5 bytes, above the measured peak of verify, is about
    # 43 GB at n = 64: refused before anything is built
    def build(*_):
        raise AssertionError('builder called')
    monkeypatch.setattr('weylgraph.cli.run_verification', build)
    monkeypatch.setattr('weylgraph.cli.element_unitaries', build)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert 'physical memory' in captured.err


def test_scan_repeats_identically(capsys):
    assert main(['scan', '--n-min', '2', '--n-max', '3']) == 0
    first = capsys.readouterr().out
    assert main(['scan', '--n-min', '2', '--n-max', '3']) == 0
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, '-m', 'weylgraph', 'verify', '--n', '2'],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)['n'] == 2


@pytest.mark.parametrize('n', [8, 10, 12])
def test_verify_is_identical_across_blas_thread_counts(n, child_env, tmp_path):
    # BLAS splits long dot products across its threads: the Frobenius norm
    # (np.linalg.norm) of a d x d matrix past about 10^4 entries, and the
    # dense products of verify_representation.  The bytes agree through
    # n = 10; at n = 12 the last bits of residuals such as rep_unitary and
    # expectation_forms_agree move, and the verdicts, the exit code and the
    # graph block stay.  Theorem 1, idempotence and the span checks of
    # theorem 2, which work on n^2 x n^2 operators only block by block,
    # keep their bytes there too
    outputs, codes = [], []
    for threads in ('1', '2'):
        path = tmp_path / f'verify-{threads}.json'
        proc = subprocess.run(
            [sys.executable, '-m', 'weylgraph', 'verify', '--n', str(n), '--json', str(path)],
            capture_output=True, env={**child_env, 'OPENBLAS_NUM_THREADS': threads})
        codes.append(proc.returncode)
        outputs.append(path.read_bytes())
    assert codes == [0, 0]
    first, second = ([[(c['id'], c['pass']) for c in r['checks']], r['graph']]
                     for r in map(json.loads, outputs))
    assert first == second
    if n <= 10:
        assert outputs[0] == outputs[1]
    else:
        first, second = ({c['id']: c for c in r['checks']} for r in map(json.loads, outputs))
        for check in ('theorem1', 'expectation_idempotent', 'graphs_coincide',
                      'orbit_equals_z'):
            assert first[check] == second[check]


def test_the_commands_load_no_scipy(child_env):
    # scipy's wheel bundles a second OpenBLAS with its own thread pool; only
    # the Schur test oracle may load it.  numpy.ma is imported lazily by some
    # numpy functions, and its import is tens of milliseconds of start-up
    script = (
        'import contextlib, io, sys\n'
        'from weylgraph.cli import main\n'
        'with contextlib.redirect_stdout(io.StringIO()):\n'
        '    codes = [main(["verify", "--n", "4"]),\n'
        '             main(["scan", "--n-min", "2", "--n-max", "3"]),\n'
        '             main(["kl-check", "--n", "4", "--k", "1", "--s", "2"]),\n'
        '             main(["export", "--n", "4", "--what", "P", "--k", "1"])]\n'
        'print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),\n'
        '      "numpy.ma" in sys.modules)\n')
    proc = subprocess.run([sys.executable, '-c', script],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '[0, 0, 0, 0] [] False'


def test_the_commands_run_without_scipy(child_env):
    # scipy is a test dependency only: with every import of it refused, as
    # on an install without the test extra, the commands still succeed
    script = (
        'import contextlib, io, sys\n'
        'sys.modules["scipy"] = None\n'
        'from weylgraph.cli import main\n'
        'with contextlib.redirect_stdout(io.StringIO()):\n'
        '    codes = [main(["verify", "--n", "6"]),\n'
        '             main(["kl-check", "--n", "6", "--k", "1", "--s", "2"]),\n'
        '             main(["export", "--n", "5", "--what", "piS"])]\n'
        'print(codes)\n')
    proc = subprocess.run([sys.executable, '-c', script],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '[0, 0, 0]'


# -- export --------------------------------------------------------------------

def test_export_shift_literal(capsys):
    assert main(['export', '--n', '2', '--what', 'S']) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {'dim': 2, 'entries': [[0.0, 0.0], [1.0, 0.0],
                                         [1.0, 0.0], [0.0, 0.0]]}


def test_export_basis_vectors(capsys):
    assert main(['export', '--n', '2', '--what', 'basis']) == 0
    objs = json.loads(capsys.readouterr().out)
    assert len(objs) == 4
    basis = entangled_basis(2)
    # lexicographic (k, j) order
    order = [(k, j) for k in range(2) for j in range(2)]
    for obj, (k, j) in zip(objs, order):
        assert obj['dim'] == 4
        assert frob(obj_to_matrix(obj) - basis.vector(k, j)) <= 1e-15


def test_export_q_roundtrip(capsys):
    assert main(['export', '--n', '3', '--what', 'Q', '--s', '1']) == 0
    mat = obj_to_matrix(json.loads(capsys.readouterr().out))
    assert frob(mat - q_projection(3, 1)) <= 1e-15
    assert np.trace(mat).real == pytest.approx(3.0)


def test_export_p_roundtrip(capsys):
    assert main(['export', '--n', '3', '--what', 'P', '--k', '2']) == 0
    mat = obj_to_matrix(json.loads(capsys.readouterr().out))
    assert frob(mat - anticlique_projector(3, 2)) <= 1e-13


def test_export_rep_generator_closed_form(capsys):
    assert main(['export', '--n', '2', '--what', 'piS']) == 0
    mat = obj_to_matrix(json.loads(capsys.readouterr().out))
    assert frob(mat - tensor_product(Z, np.eye(2, dtype=complex))) <= 1e-13


def test_export_generator_families(capsys):
    assert main(['export', '--n', '3', '--what', 'h-generators']) == 0
    h_objs = json.loads(capsys.readouterr().out)
    assert len(h_objs) == 3
    assert frob(obj_to_matrix(h_objs[0]) - np.eye(9)) <= 1e-12

    assert main(['export', '--n', '3', '--what', 'z-generators']) == 0
    z_objs = json.loads(capsys.readouterr().out)
    assert len(z_objs) == 3
    for c, obj in enumerate(z_objs):
        want = 3.0 * q_projection(3, (-c) % 3)
        assert frob(obj_to_matrix(obj) - want) <= 1e-11


def test_export_to_file(tmp_path):
    out = tmp_path / 'm.json'
    assert main(['export', '--n', '2', '--what', 'M', '--out', str(out)]) == 0
    mat = obj_to_matrix(json.loads(out.read_text()))
    assert frob(mat - Z) <= 1e-15


def test_export_q_requires_s(capsys):
    assert main(['export', '--n', '3', '--what', 'Q']) == 2
    assert main(['export', '--n', '3', '--what', 'Q', '--s', '3']) == 2
    assert main(['export', '--n', '3', '--what', 'P']) == 2


def test_export_rejects_unknown_what(capsys):
    assert main(['export', '--n', '3', '--what', 'nonsense']) == 2


# -- kl-check --------------------------------------------------------------------

def test_kl_check_compression_scalars(tmp_path):
    out = tmp_path / 'kl.json'
    assert main(['kl-check', '--n', '4', '--k', '1', '--s', '2',
                 '--json', str(out)]) == 0
    obj = json.loads(out.read_text())
    assert (obj['n'], obj['k'], obj['s']) == (4, 1, 2)
    assert obj['is_anticlique'] is True
    assert obj['max_residual'] <= 1e-10
    assert list(obj['lambda']) == [f'{p},{q}' for p in range(4) for q in range(4)]
    for re, im in obj['lambda'].values():
        assert abs(re - 0.25) <= 1e-10
        assert abs(im) <= 1e-10


@pytest.mark.parametrize('n', range(2, 9))
def test_kl_check_matches_the_dense_check(n, tmp_path):
    # kl-check compresses the orbit diagonals by the code isometry; the dense
    # P_k X P_k of check_knill_laflamme is its oracle, for every (k, s)
    out = tmp_path / 'kl.json'
    unitaries = element_unitaries(n, *rep_generators(n))
    for s in range(n):
        labeled = [(divmod(e, n), np.diag(v)) for e, v in enumerate(member_diagonals(unitaries, s))]
        for k in range(n):
            dense = anticlique_to_obj(check_knill_laflamme(
                labeled, anticlique_projector(n, k), n=n, k=k, s=s))
            assert main(['kl-check', '--n', str(n), '--k', str(k), '--s', str(s),
                         '--json', str(out)]) == (0 if dense['is_anticlique'] else 1)
            obj = json.loads(out.read_text())
            assert [obj[key] for key in ('n', 'k', 's', 'is_anticlique')] == \
                [dense[key] for key in ('n', 'k', 's', 'is_anticlique')]
            assert list(obj['lambda']) == list(dense['lambda'])
            assert np.abs(np.array(list(obj['lambda'].values()))
                          - np.array(list(dense['lambda'].values()))).max() <= 1e-12
            assert abs(obj['max_residual'] - dense['max_residual']) <= 1e-12


def test_kl_check_adds_the_code_isometry_defect(tmp_path, monkeypatch):
    # a code isometry scaled by 1.001 still compresses every generator to a
    # scalar, so only its measured defect ||b* b - I||_F can fail the check
    code_isometry = EntangledBasis.code_isometry
    monkeypatch.setattr(EntangledBasis, 'code_isometry',
                        lambda self, k: 1.001 * code_isometry(self, k))
    out = tmp_path / 'kl.json'
    assert main(['kl-check', '--n', '4', '--k', '1', '--s', '2', '--json', str(out)]) == 1
    obj = json.loads(out.read_text())
    assert obj['is_anticlique'] is False
    assert obj['max_residual'] >= 0.99 * 0.002001 * 2


def test_kl_check_rejects_bad_indices(capsys):
    assert main(['kl-check', '--n', '3', '--k', '3', '--s', '0']) == 2
    assert main(['kl-check', '--n', '3', '--k', '0', '--s', '-1']) == 2


def test_kl_check_io_error(tmp_path, capsys):
    missing = tmp_path / 'nope' / 'kl.json'
    assert main(['kl-check', '--n', '2', '--k', '0', '--s', '0',
                 '--json', str(missing)]) == 3


def test_kl_check_holds_one_generator_at_a_time(tmp_path):
    # the n^2 generators diag(v) would take 16 n^6 bytes together; the
    # check compresses their diagonals and forms none of them
    n = 12
    tracemalloc.start()
    try:
        code = main(['kl-check', '--n', str(n), '--k', '0', '--s', '0',
                     '--json', str(tmp_path / 'kl.json')])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * n ** 6 / 8


def test_kl_check_builds_no_class_weights(tmp_path, monkeypatch):
    # kl-check gathers the orbit diagonals and compresses them: the class
    # weights of GroupAction.class_weights are for the group average, and
    # the span of the orbit is for the span audit
    def refuse(self):
        raise AssertionError('kl-check built the class weights')

    def no_span(*_):
        raise AssertionError('kl-check spanned the orbit')

    monkeypatch.setattr(GroupAction, 'class_weights', property(refuse))
    monkeypatch.setattr('weylgraph.graphs.span_operators', no_span)
    assert main(['kl-check', '--n', '5', '--k', '2', '--s', '1',
                 '--json', str(tmp_path / 'kl.json')]) == 0


@pytest.mark.parametrize('builder, argv', [
    ('rep_generators', ['export', '--n', '4', '--what', 'piS']),
    ('element_unitaries', ['kl-check', '--n', '4', '--k', '0', '--s', '0']),
])
def test_out_of_memory_is_a_usage_error(builder, argv, capsys, monkeypatch):
    # a MemoryError is exit 2 with one stderr line, never a traceback and
    # never exit 1, the code of a failed check
    def build(*_):
        raise MemoryError
    monkeypatch.setattr(f'weylgraph.cli.{builder}', build)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.count('\n') == 1
    assert 'out of memory' in captured.err


# -- serialization ------------------------------------------------------------

def test_format_float_17_digits():
    assert format_float(1.0 / 3.0) == '0.33333333333333331'
    assert format_float(0.25) == '0.25'
    with pytest.raises(ValueError):
        format_float(float('inf'))


def test_dumps_scalars_and_nesting():
    text = dumps({'a': [1, 2.5], 'b': True, 'c': None, 'd': 1 + 2j, 'e': 'x'})
    obj = json.loads(text)
    assert obj == {'a': [1, 2.5], 'b': True, 'c': None,
                   'd': [1.0, 2.0], 'e': 'x'}
    # scalar-only lists stay on one line
    assert '[1, 2.5]' in text


def test_matrix_roundtrip():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = matrix_to_obj(m)
    assert obj['dim'] == 3
    assert len(obj['entries']) == 9
    assert frob(obj_to_matrix(obj) - m) <= 1e-15


def test_vector_roundtrip():
    v = np.array([1.0, 2.0j, -1.0, 0.5])
    obj = matrix_to_obj(v)
    assert obj['dim'] == 4
    assert len(obj['entries']) == 4
    assert frob(obj_to_matrix(obj) - v) <= 1e-15


def test_length_one_vector_is_refused():
    # its object would be the one of a 1 x 1 matrix, which obj_to_matrix
    # returns; a 1 x 1 matrix itself still round-trips
    with pytest.raises(ValueError, match='length-1'):
        matrix_to_obj(np.array([2.0j]))
    obj = matrix_to_obj(np.array([[2.0j]]))
    assert obj == {'dim': 1, 'entries': [[0.0, 2.0]]}
    assert obj_to_matrix(obj).shape == (1, 1)


def test_matrix_obj_validation():
    with pytest.raises(ValueError):
        matrix_to_obj(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        obj_to_matrix({'dim': 3, 'entries': [[0.0, 0.0]] * 5})
    with pytest.raises(ValueError):
        matrix_to_obj(np.array([np.inf, 0.0]))
