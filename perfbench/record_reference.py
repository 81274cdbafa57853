"""Record the export reference arrays the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every export the queries workload can issue (n in 6, 7, 8; all nine
--what choices; Q and P at every index) through the CLI and stores the parsed
arrays in perfbench/reference/exports.npz.  Run it only at a commit whose
exports are trusted: the gate then holds later commits to these arrays within
gate.EXPORT_ATOL.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import gate
from run import EXPORT_WHATS, OUT_DIR, QUERY_MODULI, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from weylgraph import cli
    arrays = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out = Path(tmp) / 'export.json'
        for n in QUERY_MODULI:
            for what in EXPORT_WHATS:
                indices = range(n) if what in ('Q', 'P') else (0,)
                got = []
                for index in indices:
                    rc = cli.main([*gate.export_argv(n, what, index), '--out', str(out)])
                    if rc != 0:
                        raise SystemExit(f'export {n} {what} {index} exited {rc}')
                    got.append(gate.export_array(json.loads(out.read_text())))
                arrays[gate.reference_key(n, what)] = \
                    np.stack(got) if what in ('Q', 'P') else got[0]
    gate.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(gate.REFERENCE_PATH, **arrays)
    print(f'{len(arrays)} arrays written to {gate.REFERENCE_PATH}')
    return 0


if __name__ == '__main__':
    sys.exit(main())
