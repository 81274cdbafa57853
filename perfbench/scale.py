"""One-off scale trace of `verify` at several moduli, against the ROADMAP table.

    python3 perfbench/scale.py

Each modulus runs in its own interpreter, so peak RSS (ru_maxrss) is that
call's own.  The interpreter imports weylgraph, makes the warm-up call, then
makes one traced `verify --n N` call and gates its output.  The parent prints
a markdown table of peak RSS and of the inclusive and self times of every
wrapped function the call reached, next to the "Measured baseline" table of
ROADMAP.md, with a verdict per figure.

n = 16 is left out on purpose: it takes minutes and its dense orbit
provenance alone is 4.3 GB.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import spans
from run import OUT_DIR, SRC, WARMUP_ARGV, environment

# ROADMAP.md "Measured baseline (re-anchor, 2026-10-17)": (low, high) seconds
# or MB; a single figure has low == high
BASELINE = {
    4: {'total': (0.09, 0.09), 'graphs.proposition1_scan': (0.018, 0.018)},
    8: {'total': (2.7, 3.0), 'peak_rss_mb': (132, 132),
        'graphs.graph_orbit': (0.56, 0.56), 'graphs.proposition1_scan': (0.44, 0.44)},
    12: {'total': (29, 37), 'peak_rss_mb': (1000, 1000),
         'graphs.proposition1_scan': (18.3, 18.3), 'graphs.graph_orbit': (3.1, 3.1),
         'graphs.verify_theorem2': (1.4, 1.4), 'covariant.verify_theorem1': (1.4, 1.4),
         'graphs.kl_corollary_check': (1.3, 1.3)},
}
# a figure is within noise when it lies in the table's range widened by this
# share on each side; the table's own n = 12 total spans 29-37 s (+-12%)
NOISE = 0.25
MODULI = (4, 8, 12)


def one(n: int) -> dict:
    """Traced `verify --n n` in this interpreter; returns the measurements."""
    sys.path.insert(0, str(SRC))
    from weylgraph import cli
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out = Path(tmp) / 'report.json'
        cli.main([*WARMUP_ARGV, '--json', str(out)])
        tracer = spans.Tracer()
        with tracer.installed():
            tracer.op = 0
            start = time.perf_counter()
            rc = cli.main(['verify', '--n', str(n), '--json', str(out)])
            wall = time.perf_counter() - start
        problems = gate.check_verify(rc, out.read_text(encoding='utf-8'), n)
    totals = tracer.totals()
    return {
        'n': n, 'wall_s': wall, 'problems': problems,
        'total': totals['report.run_verification'][1],
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        'stages': {name: {'calls': calls, 'inclusive_s': incl, 'self_s': self_s}
                   for name, (calls, incl, self_s) in totals.items() if calls},
    }


def verdict(value: float, low: float, high: float) -> str:
    inside = low * (1 - NOISE) <= value <= high * (1 + NOISE)
    return 'within noise' if inside else ('**slower**' if value > high else '**faster**')


def main() -> int:
    env = environment(seed=None)
    print(f'Scale trace of `verify --n N`, one traced call per modulus in its own '
          f'interpreter after the warm-up call.  Inclusive time is compared with the '
          f'ROADMAP baseline, whose stages were timed alone; a verdict is "within '
          f'noise" inside the baseline range widened by {NOISE:.0%} on each side.\n')
    print(f'Environment: `{json.dumps(env)}`\n')
    print('| n | figure | ROADMAP | measured inclusive | measured self | calls | verdict |')
    print('| --- | --- | --- | --- | --- | --- | --- |')
    failed = False
    for n in MODULI:
        done = subprocess.run([sys.executable, __file__, '--one', str(n)],
                              capture_output=True, text=True, timeout=900, check=False)
        if done.returncode != 0:
            print(f'n = {n} failed:\n{done.stderr}', file=sys.stderr)
            return 1
        m = json.loads(done.stdout.splitlines()[-1])
        failed |= bool(m['problems'])
        base = BASELINE.get(n, {})
        rows = [('total', m['total'], None, None),
                ('peak_rss_mb', m['peak_rss_mb'], None, None)]
        rows += [(name, s['inclusive_s'], s['self_s'], s['calls'])
                 for name, s in m['stages'].items()]
        for name, value, self_s, calls in rows:
            unit = ' MB' if name == 'peak_rss_mb' else ' s'
            ref = base.get(name)
            ref_txt = '—' if ref is None else (
                f'{ref[0]:g}{unit}' if ref[0] == ref[1] else f'{ref[0]:g}–{ref[1]:g}{unit}')
            print(f'| {n} | {name} | {ref_txt} | {value:.4g}{unit} | '
                  f'{"" if self_s is None else f"{self_s:.4g} s"} | '
                  f'{"" if calls is None else calls} | '
                  f'{"" if ref is None else verdict(value, *ref)} |')
        if m['problems']:
            print(f'n = {n}: output fails the gate: {m["problems"]}', file=sys.stderr)
    return 1 if failed else 0


if __name__ == '__main__':
    if sys.argv[1:2] == ['--one']:
        print(json.dumps(one(int(sys.argv[2]))))
        sys.exit(0)
    sys.exit(main())
