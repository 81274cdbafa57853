"""Spans around the public functions of weylgraph, installed from outside.

The program has no spans of its own, so the benchmark wraps each listed
function and rebinds every module attribute of the weylgraph package that
refers to it (the modules import functions by name, so patching only the
defining module would miss most calls).  Spans are kept in memory as
(name, start, end, parent, op) and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

WRAPPED = {
    'weylrep': ('entangled_basis', 'rep_generators', 'element_unitaries',
                'verify_representation'),
    'covariant': ('fixed_units', 'q_projection', 'expectation_avg',
                  'expectation_trace', 'verify_theorem1', 'covariant_resolution',
                  'resolution_mass_check', 'resolution_covariance_check'),
    'graphs': ('y_units', 'graph_orbit', 'kl_corollary_check', 'proposition1_scan',
               'spectral_match_check', 'verify_theorem2', 'h_generators',
               'z_generators', 'anticlique_projector', 'check_knill_laflamme'),
    'linalg': ('spectral_projections', 'span_operators', 'subspace_equal',
               'random_hermitian'),
    'serialize': ('report_to_obj', 'dumps', 'matrix_to_obj', 'anticlique_to_obj'),
    'report': ('run_verification',),
    'cli': ('main',),
}

NAMES = tuple(f'{mod}.{fn}' for mod, fns in WRAPPED.items() for fn in fns)

# entry points whose self time is orchestration, not work of a wrapped layer
ENTRY_POINTS = ('cli.main', 'report.run_verification')

# computed sizes (ndarray.nbytes) of the large results; a metric is the
# largest total over the calls of one op, since an op holds them together
RESULT_BYTES = {
    'weylrep.element_unitaries': lambda r: r.nbytes,
    'graphs.graph_orbit': lambda r: sum(m.nbytes for _, m in r.provenance),
    'covariant.fixed_units': lambda r: r.units.nbytes,
    'graphs.y_units': lambda r: r.nbytes,
}


class Tracer:
    """Collects spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op index)
        self.result_bytes = {name: {} for name in RESULT_BYTES}  # name -> op -> bytes
        self.bytes_out = 0  # characters returned by serialize.dumps
        self.op = -1
        self._stack = []

    def _wrap(self, name, fn):
        measure = RESULT_BYTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if measure is not None:
                per_op = self.result_bytes[name]
                per_op[self.op] = per_op.get(self.op, 0) + measure(result)
            elif name == 'serialize.dumps':
                self.bytes_out += len(result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Rebind every weylgraph reference to a wrapped function; undo on exit."""
        modules = [m for key, m in sys.modules.items()
                   if key == 'weylgraph' or key.startswith('weylgraph.')]
        patched = []
        try:
            for mod_name, fns in WRAPPED.items():
                home = sys.modules[f'weylgraph.{mod_name}']
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(f'{mod_name}.{fn_name}', original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def totals(self):
        """Per name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
        return out

    def never_called(self) -> list:
        return [name for name, (calls, _, _) in self.totals().items() if not calls]

    def layer_metrics(self, ops: int, wall_s: float) -> dict:
        """Self time and calls per op for every wrapped name, plus byte counts
        and the share of op wall time covered by spans below the entry points."""
        metrics = {}
        covered = 0.0
        for name, (calls, _, self_s) in self.totals().items():
            metrics[f'{name}.s'] = (self_s / ops, 's/op')
            metrics[f'{name}.calls'] = (calls / ops, 'calls/op')
            if name not in ENTRY_POINTS:
                covered += self_s
        for name, per_op in self.result_bytes.items():
            metrics[f'{name}.bytes'] = (max(per_op.values(), default=0), 'B/op-computed')
        metrics['serialize.bytes_out'] = (self.bytes_out / ops, 'B/op-computed')
        metrics['trace.coverage'] = (covered / wall_s, 'ratio')
        metrics['trace.never_called'] = (len(self.never_called()), 'count')
        return metrics

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, 'w', encoding='utf-8') as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({'name': name, 'start': start, 'end': end,
                                     'parent': parent, 'op': op}) + '\n')


def span_cost(calls: int = 200_000) -> float:
    """Seconds one span adds to a call: a wrapped empty function timed
    against the bare one, on a scratch tracer."""
    def empty():
        return None

    wrapped = Tracer()._wrap('cli.main', empty)
    timings = []
    for fn in (empty, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - start)
    return max(timings[1] - timings[0], 0.0) / calls
