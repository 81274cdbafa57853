"""The benchmark's tracer (perfbench/spans.py) wraps program functions by name
and sizes some of their results; these tests pin that contract to the
package, so a refactor that would break a traced run fails here first.  The
tracer module is read, never modified."""

import importlib
import types
from pathlib import Path

import pytest

from weylgraph.covariant import fixed_units
from weylgraph.graphs import graph_orbit, y_units
from weylgraph.weylrep import element_unitaries, rep_generators

SPANS_PATH = Path(__file__).resolve().parent.parent / 'perfbench' / 'spans.py'


@pytest.fixture(scope='module')
def spans():
    # executed from its source, so no bytecode cache is written beside it
    module = types.ModuleType('perfbench_spans')
    code = compile(SPANS_PATH.read_text(encoding='utf-8'), str(SPANS_PATH), 'exec')
    exec(code, module.__dict__)
    return module


def test_every_wrapped_name_resolves(spans):
    for mod_name, fns in spans.WRAPPED.items():
        module = importlib.import_module(f'weylgraph.{mod_name}')
        for fn_name in fns:
            assert callable(getattr(module, fn_name, None)), f'{mod_name}.{fn_name}'


def test_result_sizes_accept_real_results(spans):
    n = 3
    unitaries = element_unitaries(n, *rep_generators(n))
    results = {
        'weylrep.element_unitaries': unitaries,
        'graphs.graph_orbit': graph_orbit(n, 0, unitaries=unitaries),
        'covariant.fixed_units': fixed_units(n),
        'graphs.y_units': y_units(n),
    }
    assert set(spans.RESULT_BYTES) == set(results)
    for name, measure in spans.RESULT_BYTES.items():
        size = measure(results[name])
        assert isinstance(size, int) and size > 0, name
