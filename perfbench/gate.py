"""Output correctness gate for the benchmark's operations.

Each check takes the exit code and the text an operation wrote, and returns a
list of problems; an empty list means the output is correct.  The gate does
not look at residual digits (a structural rewrite may change them), only at
verdicts, dimensions, check ids, lambdas and exported arrays.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# copied, not imported, so that a change to the program's own constant
# cannot silently change what the gate expects
CHECK_IDS = (
    'rep_unitary', 'rep_order', 'weyl_relation', 'subspace_invariance',
    'intertwiner', 'expectation_forms_agree', 'expectation_idempotent',
    'theorem1', 'resolution_mass', 'resolution_covariance', 'kl_anticliques',
    'spectral_pk_match', 'graphs_coincide', 'orbit_equals_z',
)

# absolute tolerance for exported entries against the recorded reference
EXPORT_ATOL = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / 'reference' / 'exports.npz'


def _parse(rc: int, text: str):
    """(object, problems) for an operation's exit code and JSON text."""
    if rc != 0:
        return None, [f'exit code {rc}']
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f'output is not JSON: {exc}']


def report_problems(obj, n: int) -> list:
    """Problems in one verification report object at modulus n."""
    if not isinstance(obj, dict):
        return ['report is not an object']
    problems = []
    if obj.get('n') != n:
        problems.append(f'n is {obj.get("n")!r}, expected {n}')
    checks = obj.get('checks')
    if not isinstance(checks, list):
        return problems + ['checks missing']
    ids = tuple(c.get('id') for c in checks)
    if ids != CHECK_IDS:
        problems.append(f'check ids {ids} are not the canonical 14')
    failing = [c.get('id') for c in checks if c.get('pass') is not True]
    if failing:
        problems.append(f'checks not passing: {failing}')
    graph = obj.get('graph') or {}
    dims = (graph.get('dim_orbit'), graph.get('dim_z_span'), graph.get('dim_h_span'))
    if dims != (n, n, n // 2 + 1):
        problems.append(f'graph dims {dims}, expected {(n, n, n // 2 + 1)}')
    claims = [d.get('claim', '') for d in obj.get('discrepancies') or []]
    h_found = any(c.startswith('Theorem 2') and '{h_p}' in c for c in claims)
    if h_found != (n >= 3) or len(claims) != int(n >= 3):
        problems.append(f'discrepancies {claims} at n = {n}; expected the h-family '
                        f'entry exactly when n >= 3')
    return problems


def check_verify(rc: int, text: str, n: int) -> list:
    obj, problems = _parse(rc, text)
    return problems or report_problems(obj, n)


def check_scan(rc: int, text: str, n_min: int, n_max: int) -> list:
    obj, problems = _parse(rc, text)
    if problems:
        return problems
    if not isinstance(obj, list) or len(obj) != n_max - n_min + 1:
        return [f'expected a list of {n_max - n_min + 1} reports']
    for n, report in zip(range(n_min, n_max + 1), obj):
        problems += report_problems(report, n)
    return problems


def check_kl(rc: int, text: str, n: int, k: int, s: int, tol: float) -> list:
    obj, problems = _parse(rc, text)
    if problems:
        return problems
    if not isinstance(obj, dict):
        return ['kl-check output is not an object']
    if (obj.get('n'), obj.get('k'), obj.get('s')) != (n, k, s):
        problems.append(f'echoed (n, k, s) = {(obj.get("n"), obj.get("k"), obj.get("s"))}')
    if obj.get('is_anticlique') is not True:
        problems.append('is_anticlique is not true')
    lam = obj.get('lambda') or {}
    labels = {f'{p},{q}' for p in range(n) for q in range(n)}
    if set(lam) != labels:
        problems.append(f'{len(lam)} lambdas, expected the {n * n} labels p,q')
    bad = [key for key, (re, im) in lam.items() if abs(complex(re, im) - 1.0 / n) > tol]
    if bad:
        problems.append(f'lambdas not within {tol} of 1/n: {bad[:3]}')
    return problems


def export_array(obj) -> np.ndarray:
    """The complex array held by an export payload (a matrix object or a list)."""
    if isinstance(obj, list):
        return np.stack([export_array(o) for o in obj])
    dim = int(obj['dim'])
    pairs = np.asarray(obj['entries'], dtype=float)
    data = pairs[:, 0] + 1j * pairs[:, 1]
    return data.reshape(dim, dim) if len(data) == dim * dim else data


def check_export(rc: int, text: str, expected: np.ndarray) -> list:
    obj, problems = _parse(rc, text)
    if problems:
        return problems
    try:
        got = export_array(obj)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f'export payload malformed: {exc!r}']
    if got.shape != expected.shape:
        return [f'shape {got.shape}, expected {expected.shape}']
    err = float(np.max(np.abs(got - expected))) if got.size else 0.0
    if not err <= EXPORT_ATOL:
        return [f'max |entry - reference| = {err:.3e} > {EXPORT_ATOL}']
    return []


def export_argv(n: int, what: str, index: int) -> tuple:
    """CLI arguments of one export; index is the --s of Q or the --k of P."""
    extra = {'Q': ('--s', str(index)), 'P': ('--k', str(index))}.get(what, ())
    return ('export', '--n', str(n), '--what', what, *extra)


def reference_key(n: int, what: str) -> str:
    return f'n{n}_{what}'


def expected(reference: dict, n: int, what: str, index: int) -> np.ndarray:
    """The recorded array for one export; Q and P are stored for every index."""
    arr = reference[reference_key(n, what)]
    return arr[index] if what in ('Q', 'P') else arr


def load_reference() -> dict:
    with np.load(REFERENCE_PATH, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def self_test(good: dict) -> dict:
    """Feed seeded defects through the gate; map each to whether it was caught.

    good maps 'verify', 'kl' and 'export' to (rc, text, args) triples of real
    outputs that pass the gate; each tampered copy must fail it.
    """
    rc, text, n = good['verify']
    flipped = json.loads(text)
    flipped['checks'][len(CHECK_IDS) // 2]['pass'] = False
    wrong_dim = json.loads(text)
    wrong_dim['graph']['dim_orbit'] += 1
    rc_kl, text_kl, (kn, kk, ks, tol) = good['kl']
    lam_off = json.loads(text_kl)
    first = sorted(lam_off['lambda'])[0]
    lam_off['lambda'][first][0] += 1e-6
    rc_ex, text_ex, reference_arr = good['export']
    cases = {
        'flipped pass': check_verify(rc, json.dumps(flipped), n),
        'wrong dim_orbit': check_verify(rc, json.dumps(wrong_dim), n),
        'lambda off by 1e-6': check_kl(rc_kl, json.dumps(lam_off), kn, kk, ks, tol),
        'truncated export': check_export(rc_ex, text_ex[:len(text_ex) // 2], reference_arr),
    }
    return {name: bool(problems) for name, problems in cases.items()}
