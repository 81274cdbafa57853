"""Golden test for `weylgraph scan --n-min 2 --n-max 10 --json`.

The fixture keeps what a structural rewrite must not change: the check ids
and verdicts, the graph blocks, and the discrepancy entries with their
floating-point digits masked.  Residuals and `details` text are dropped,
since a faster representation may move their last digits.

Regenerate the fixture from a scan written by the reference code:

    python -m weylgraph scan --n-min 2 --n-max 10 --json scan.json
    python3 tests/test_golden_scan.py scan.json > tests/data/scan_2_10_masked.json
"""

import json
import re
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / 'data' / 'scan_2_10_masked.json'

_FLOAT = re.compile(r'-?\d+\.\d+e[+-]\d+')


def mask(reports) -> list:
    """The parts of a scan output that must survive a rewrite."""
    return [{'n': r['n'],
             'tol': r['tol'],
             'checks': [{'id': c['id'], 'pass': c['pass']} for c in r['checks']],
             'graph': r['graph'],
             'discrepancies': [{'claim': e['claim'],
                                'observed': _FLOAT.sub('#', e['observed'])}
                               for e in r['discrepancies']]}
            for r in reports]


def test_scan_2_to_10_matches_the_golden_fixture(tmp_path):
    from weylgraph.cli import main

    out = tmp_path / 'scan.json'
    assert main(['scan', '--n-min', '2', '--n-max', '10', '--json', str(out)]) == 0
    got = mask(json.loads(out.read_text(encoding='utf-8')))
    want = json.loads(FIXTURE.read_text(encoding='utf-8'))
    assert [r['n'] for r in got] == list(range(2, 11))
    for g, w in zip(got, want):
        assert g == w, f"n = {w['n']}"
    assert len(got) == len(want)


if __name__ == '__main__':
    with open(sys.argv[1], encoding='utf-8') as fh:
        print(json.dumps(mask(json.load(fh)), indent=1))
