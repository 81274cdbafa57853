"""The JSON writer against the element-at-a-time writer it replaced.

dumps formats a list of floats, and a matrix's list of [re, im] pairs, in
one pass.  oracle_dumps below renders every value by its own call, as the
writer did before; the two must give the same text, and fail on the same
inputs with the same exception type.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylgraph.cli import main
from weylgraph.report import run_verification
from weylgraph.serialize import dumps, matrix_to_obj, report_to_obj


# -- the reference writer ------------------------------------------------------

def oracle_dumps(value) -> str:
    """Deterministic JSON text, one recursive call per value."""
    out: list[str] = []
    _oracle_emit(value, out, 0)
    return ''.join(out)


def _oracle_float(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("non-finite value in output")
    return f'{x:.17g}'


def _oracle_emit(value, out: list, indent: int) -> None:
    if isinstance(value, dict):
        if not value:
            out.append('{}')
            return
        out.append('{\n')
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            out.append('  ' * (indent + 1) + json.dumps(str(key)) + ': ')
            _oracle_emit(val, out, indent + 1)
            out.append(',\n' if i + 1 < len(items) else '\n')
        out.append('  ' * indent + '}')
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append('[]')
            return
        if all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in seq):
            out.append('[' + ', '.join(_oracle_scalar(v) for v in seq) + ']')
            return
        out.append('[\n')
        for i, v in enumerate(seq):
            out.append('  ' * (indent + 1))
            _oracle_emit(v, out, indent + 1)
            out.append(',\n' if i + 1 < len(seq) else '\n')
        out.append('  ' * indent + ']')
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (complex, np.complexfloating)):
        _oracle_emit([value.real, value.imag], out, indent)
    else:
        out.append(_oracle_scalar(value))


def _oracle_scalar(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return 'true' if value else 'false'
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _oracle_float(value)
    if value is None:
        return 'null'
    raise TypeError(f'cannot serialize {type(value).__name__}')


def _outcome(write, value):
    """The text a writer gives, or the type of the exception it raises."""
    try:
        return write(value)
    except (ValueError, TypeError) as exc:
        return type(exc)


# -- generated values ----------------------------------------------------------

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.1125369292536007e-308, 1e308, -1e308, 1e-308, -1e-308,
               1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 53, -(2.0 ** 53) - 2)
EDGE_INTS = (2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 63, -(2 ** 63) - 1, 2 ** 70)
EDGE_TEXT = ('"quoted" \\ back\\slash', 'tab\tnew\nline\r\x00\x1f', 'ü ∑ ψ ⊗ 😀', '')
finite = st.floats(allow_nan=False, allow_infinity=False)
doubles = st.one_of(finite, st.sampled_from(EDGE_FLOATS))
ints = st.one_of(st.integers(min_value=-2 ** 70, max_value=2 ** 70), st.sampled_from(EDGE_INTS))
# anything a block may hold in place of one of its floats
intruders = st.one_of(
    st.booleans(), ints,
    finite.map(np.float64),
    st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))
scalars = st.one_of(
    doubles, intruders, st.none(), st.text(), st.sampled_from(EDGE_TEXT),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128))


@st.composite
def pair_blocks(draw):
    """Equal-width rows of floats, perhaps with one entry replaced."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(doubles, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, width - 1))
        rows[i][j] = draw(intruders)
    return rows


blocks = st.one_of(
    st.lists(doubles, max_size=8),
    pair_blocks(),
    st.lists(st.lists(doubles, max_size=3), max_size=4),  # ragged or empty rows
    st.lists(st.one_of(doubles, intruders), max_size=6),  # mixed
)
values = st.recursive(
    st.one_of(scalars, blocks),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(values)
def test_dumps_matches_the_oracle(value):
    assert dumps(value) == oracle_dumps(value)


@settings(max_examples=200, deadline=None)
@given(values, st.sampled_from((float('inf'), float('-inf'), float('nan'), object(), {1})),
       st.data())
def test_dumps_fails_as_the_oracle_does(value, bad, data):
    """A bad value slipped into a generated list fails both writers alike."""
    def plant(v):
        if isinstance(v, list) and v and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(v) - 1))
            if isinstance(v[i], list):
                plant(v[i])
            else:
                v[i] = bad
            return True
        return False

    planted = [value]
    plant(planted)
    assert _outcome(dumps, planted) == _outcome(oracle_dumps, planted)


@pytest.mark.parametrize('intruder', [True, False, 7, 2 ** 53 + 1, np.float64(0.1),
                                      np.int64(-3), np.bool_(True), None])
@pytest.mark.parametrize('where', [0, 5, -1])
@pytest.mark.parametrize('shape', ['flat', 'pairs'])
def test_a_block_with_one_other_scalar_is_written_as_before(shape, where, intruder):
    block = [i / 7 for i in range(11)] if shape == 'flat' else \
        [[i / 7, -i / 7] for i in range(11)]
    if shape == 'flat':
        block[where] = intruder
    else:
        block[where][where % 2] = intruder
    assert dumps({'entries': block}) == oracle_dumps({'entries': block})


@pytest.mark.parametrize('bad', [float('inf'), float('-inf'), float('nan')])
@pytest.mark.parametrize('where', [0, 5, -1])
@pytest.mark.parametrize('shape', ['flat', 'pairs'])
def test_a_block_with_a_non_finite_value_is_refused(shape, where, bad):
    block = [float(i) for i in range(11)] if shape == 'flat' else \
        [[float(i), -float(i)] for i in range(11)]
    if shape == 'flat':
        block[where] = bad
    else:
        block[where][where % 2] = bad
    for write in (dumps, oracle_dumps):
        with pytest.raises(ValueError, match='non-finite value in output'):
            write({'entries': block})


@pytest.mark.parametrize('value', [[1.0, object()], {'a': {1, 2}}, b'x',
                                   [[1.0, 2.0], [3.0, np.zeros(1)]], np.zeros(2)])
def test_an_unsupported_object_is_refused(value):
    for write in (dumps, oracle_dumps):
        with pytest.raises(TypeError, match='cannot serialize'):
            write(value)


# -- the program's own payloads ------------------------------------------------

@pytest.fixture
def payloads(monkeypatch, tmp_path):
    """Run CLI commands and collect every object they hand to dumps."""
    seen = []

    def spy(value):
        seen.append(value)
        return dumps(value)

    monkeypatch.setattr('weylgraph.cli.dumps', spy)

    def run(argv, out_flag):
        assert main([*argv, out_flag, str(tmp_path / 'out.json')]) in (0, 1)
        return seen.pop()

    return run


@pytest.mark.parametrize('n', range(2, 9))
def test_every_export_payload_matches_the_oracle(payloads, n):
    argvs = [['--what', w] for w in ('S', 'M', 'piS', 'piM', 'basis',
                                     'h-generators', 'z-generators')]
    argvs += [['--what', 'Q', '--s', str(s)] for s in range(n)]
    argvs += [['--what', 'P', '--k', str(k)] for k in range(n)]
    for argv in argvs:
        obj = payloads(['export', '--n', str(n), *argv], '--out')
        assert dumps(obj) == oracle_dumps(obj), argv


@pytest.mark.parametrize('n', range(2, 9))
def test_kl_check_payload_matches_the_oracle(payloads, n):
    obj = payloads(['kl-check', '--n', str(n), '--k', str(n - 1), '--s', str(n // 2)], '--json')
    assert dumps(obj) == oracle_dumps(obj)


def test_reports_and_a_scan_match_the_oracle(payloads):
    for n in range(2, 13):
        obj = report_to_obj(run_verification(n))
        assert dumps(obj) == oracle_dumps(obj), n
    obj = payloads(['scan', '--n-min', '2', '--n-max', '5'], '--json')
    assert dumps(obj) == oracle_dumps(obj)


def test_matrix_entries_are_the_old_python_floats():
    rng = np.random.default_rng(27)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m[0, 0] = complex(-0.0, 0.0)
    m[1, 2] = complex(5e-324, -0.0)
    for a in (m, m[:, 0], m.real):
        flat = np.asarray(a, dtype=complex).reshape(-1)
        entries = matrix_to_obj(a)['entries']
        assert entries == [[float(v.real), float(v.imag)] for v in flat]
        assert all(type(x) is float for pair in entries for x in pair)
        # -0.0 == 0.0, so the signs are compared by their text
        assert dumps(entries) == oracle_dumps([[float(v.real), float(v.imag)] for v in flat])
