"""weylgraph benchmark: closed-loop workloads of in-process CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller, one operation in flight at a time: weylgraph is a batch verifier,
not a server.  Each operation is one `weylgraph.cli.main(argv)` call writing
its JSON to a file, so argument handling, exit codes and report writing are
timed.  Every output goes through the correctness gate (gate.py); a wrong
output counts as a failed operation and makes the command exit 1.

Workloads (the seed only shapes the generated argv lists):
  verify-dense  `verify --n 10`: dense O(n^6)-O(n^8) algebra, working set far
                past L2; where a structural rewrite or a memory cut shows.
  scan-small    `scan --n-min 2 --n-max 7`: matrices at most 49x49, so
                per-call Python and CLI overhead dominate; a dense-algebra
                optimisation should move it little.
  queries       kl-check and export at n in {6, 7, 8}, objects rebuilt per
                request; the write-heavy counterpart of verify-dense.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the same operations are replayed with spans installed and the last
line carries the per-layer metrics.  Earlier lines give a readable table and
the environment; spans and the full result go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy
import scipy

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
OUT_DIR = ROOT / '.perfbench'

WORKLOADS = ('verify-dense', 'scan-small', 'queries')
WARMUP_N = 4  # the warm-up call is `verify --n 4`: every module, in 0.1 s
WARMUP_ARGV = ('verify', '--n', str(WARMUP_N))
SETUP_SAMPLES = 15
TOL = 1e-10
VERIFY_N = 10
SCAN_RANGE = (2, 7)
QUERY_MODULI = (6, 7, 8)
EXPORT_WHATS = ('S', 'M', 'piS', 'piM', 'basis', 'Q', 'P',
                'h-generators', 'z-generators')


# --- operations and workloads -------------------------------------------

@dataclass(frozen=True)
class Op:
    argv: tuple      # CLI arguments without the output option
    out_flag: str    # option naming the output file
    moduli: tuple    # moduli the call works at
    check: Callable  # (rc, text) -> list of problems


def verify_op(n: int) -> Op:
    return Op(('verify', '--n', str(n)), '--json', (n,), partial(gate.check_verify, n=n))


def scan_op(n_min: int, n_max: int) -> Op:
    return Op(('scan', '--n-min', str(n_min), '--n-max', str(n_max)), '--json',
              tuple(range(n_min, n_max + 1)),
              partial(gate.check_scan, n_min=n_min, n_max=n_max))


def kl_op(n: int, k: int, s: int) -> Op:
    return Op(('kl-check', '--n', str(n), '--k', str(k), '--s', str(s)), '--json',
              (n,), partial(gate.check_kl, n=n, k=k, s=s, tol=TOL))


def export_op(n: int, what: str, index: int, reference: dict) -> Op:
    return Op(gate.export_argv(n, what, index), '--out', (n,),
              partial(gate.check_export, expected=gate.expected(reference, n, what, index)))


def make_round(workload: str, rng: random.Random, reference: dict) -> list:
    """One round of a workload's operations.

    A queries round holds every (n, what) export once and nine kl-checks per
    n, shuffled, so every round has the same mix and a run's throughput does
    not depend on which kinds the seed happened to draw.
    """
    if workload == 'verify-dense':
        return [verify_op(VERIFY_N)]
    if workload == 'scan-small':
        return [scan_op(*SCAN_RANGE)]
    ops = []
    for n in QUERY_MODULI:
        for what in EXPORT_WHATS:
            ops.append(export_op(n, what, rng.randrange(n), reference))
            ops.append(kl_op(n, rng.randrange(n), rng.randrange(n)))
    rng.shuffle(ops)
    return ops


# --- running ------------------------------------------------------------

def call(op: Op, out: Path):
    """Time one CLI call; return (seconds, exit code or None, output text)."""
    from weylgraph import cli
    argv = [*op.argv, op.out_flag, str(out)]
    gc.collect()  # a CLI user starts each call in a fresh process
    start = time.perf_counter()
    try:
        rc = cli.main(argv)  # looked up per call, so installed spans apply
    except Exception:  # a crash is a failed operation, not a dead benchmark
        elapsed = time.perf_counter() - start
        return elapsed, None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    text = out.read_text(encoding='utf-8') if out.exists() else ''
    out.unlink(missing_ok=True)
    return elapsed, rc, text


def problems_of(op: Op, rc, text: str) -> list:
    """The gate's verdict on one call; a crash or malformed output fails."""
    if rc is None:
        return [f'raised:\n{text}']
    try:
        return op.check(rc, text)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f'malformed output: {exc!r}']


def run_ops(ops, out: Path, failures: list, tracer=None) -> list:
    """Run the ops in order, gate each output; return per-op seconds."""
    times = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        elapsed, rc, text = call(op, out)
        times.append(elapsed)
        problems = problems_of(op, rc, text)
        if problems:
            failures.append((' '.join(op.argv), problems))
    return times


def run_timed(workload: str, rng: random.Random, reference: dict, seconds: float,
              out: Path, failures: list):
    """Whole rounds until the summed op time reaches the budget."""
    ops, times = [], []
    while sum(times) < seconds:
        batch = make_round(workload, rng, reference)
        times += run_ops(batch, out, failures)
        ops += batch
    return ops, times


def tail_percentile(times_ms):
    """(pct, value, beyond) for the highest usual percentile that has at least
    ten samples beyond it, or None when even the median has fewer."""
    ordered = sorted(times_ms)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(len(ordered) * pct / 100)  # nearest-rank percentile
        if rank >= 1 and len(ordered) - rank >= 10:
            return pct, ordered[rank - 1], len(ordered) - rank
    return None


def n_seen_share(ops) -> float:
    """Share of ops whose moduli were all seen earlier in the run."""
    seen, repeats = set(), 0
    for op in ops:
        repeats += set(op.moduli) <= seen
        seen.update(op.moduli)
    return repeats / len(ops)


def setup_samples(tmp: Path) -> list:
    """Seconds to import weylgraph and make the warm-up call, each sample in a
    fresh interpreter, since an import is only paid once per process."""
    samples = []
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable, str(HERE / 'probe.py'), str(SRC), *WARMUP_ARGV,
                '--json', str(tmp / f'probe{i}.json')]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              check=False)
        if done.returncode != 0:
            raise SystemExit(f'set-up probe failed ({done.returncode}):\n{done.stderr}')
        samples.append(float(done.stdout.split()[-1]))
    return samples


def gate_self_test(tmp: Path, reference: dict) -> list:
    """Make real calls, then feed seeded defects through the gate; map each
    defect to whether the gate caught it.

    The first call is the warm-up call, so it also warms this process up.
    """
    out = tmp / 'selftest.json'
    good = {}
    for key, op, args in (('verify', verify_op(WARMUP_N), WARMUP_N),
                          ('kl', kl_op(6, 2, 3), (6, 2, 3, TOL)),
                          ('export', export_op(6, 'Q', 2, reference),
                           gate.expected(reference, 6, 'Q', 2))):
        _, rc, text = call(op, out)
        problems = problems_of(op, rc, text)
        if problems:
            raise SystemExit(f'gate self-test: real {key} output fails: {problems}')
        good[key] = (rc, text, args)
    return gate.self_test(good)


def environment(seed) -> dict:
    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']

    def getconf(name):
        try:
            done = subprocess.run(['getconf', name], capture_output=True, text=True,
                                  timeout=10, check=False)
        except OSError:
            return None
        value = done.stdout.strip()
        return int(value) if value.isdigit() else None

    return {
        'python': sys.version.split()[0],
        'numpy': numpy.__version__,
        'scipy': scipy.__version__,
        'blas': {'name': blas.get('name'), 'version': blas.get('version')},
        'num_threads_env': {k: v for k, v in sorted(os.environ.items())
                            if k.endswith('_NUM_THREADS')},
        'nproc': len(os.sched_getaffinity(0)),
        'l2_bytes': getconf('LEVEL2_CACHE_SIZE'),
        'l3_bytes': getconf('LEVEL3_CACHE_SIZE'),
        'git_commit': git_commit(),
        'seed': seed,
    }


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        done = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True, choices=WORKLOADS)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / 'weylgraph' / '__init__.py').is_file():
        print(f'perfbench: no weylgraph sources under {SRC}', file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix='run-', dir=OUT_DIR))
    try:
        return bench(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench(args, tmp: Path) -> int:
    setup = setup_samples(tmp)
    reference = gate.load_reference()
    caught = gate_self_test(tmp, reference)
    missed = [name for name, ok in caught.items() if not ok]

    rng = random.Random(f'{args.workload}:{args.seed}')
    out = tmp / 'op.json'
    failures = []
    ops, times = run_timed(args.workload, rng, reference, args.seconds, out, failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = sum(times)
    times_ms = [t * 1000.0 for t in times]
    tail = tail_percentile(times_ms)
    attempted = len(ops)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed():
            traced_wall = sum(run_ops(ops, out, failures, tracer))
        attempted += len(ops)

    end_to_end = {
        'setup_s': (statistics.median(setup), 's'),
        'ops_per_s': (len(ops) / wall_s, '1/s'),
        'op_ms.p50': (statistics.median(times_ms), 'ms'),
        'peak_rss_mb': (peak_rss_mb, 'MB'),
    }
    fail_ratio = len(failures) / attempted
    correct = not failures and not missed
    env = environment(args.seed)
    result = {'workload': args.workload, 'environment': env, 'wall_s': wall_s,
              'fail_ratio': fail_ratio, 'n_seen_share': n_seen_share(ops),
              'setup_samples_s': setup, 'op_ms': times_ms,
              'op_argv': [' '.join(op.argv) for op in ops],
              'op_ms.tail': tail and {'percentile': tail[0], 'value': tail[1],
                                      'beyond': tail[2], 'samples': len(ops)},
              'gate_self_test_missed': missed}

    print(f'workload {args.workload}  seed {args.seed}  closed loop, 1 caller, '
          f'{len(ops)} ops')
    print(f'  setup_s      {end_to_end["setup_s"][0]:.4f} s  (median of {len(setup)} '
          f'fresh interpreters: import weylgraph + {" ".join(WARMUP_ARGV)})')
    print(f'  wall_s       {wall_s:.4f} s')
    for name in ('ops_per_s', 'op_ms.p50', 'peak_rss_mb'):
        value, unit = end_to_end[name]
        print(f'  {name:<12} {value:.4f} {unit}')
    if tail:
        pct, value, beyond = tail
        print(f'  op_ms.tail   {value:.4f} ms  (p{pct:g} of {len(ops)} ops, {beyond} beyond)')
    else:
        print(f'  op_ms.tail   n/a  ({len(ops)} ops: no percentile has 10 beyond it)')
    print(f'  fail_ratio   {fail_ratio:.4f}  ({len(failures)} of {attempted} ops)')
    print(f'  n_seen_share {result["n_seen_share"]:.4f}  (ops whose moduli were seen '
          f'earlier in the run)')
    print(f'gate self-test: {len(caught) - len(missed)}/{len(caught)} seeded defects caught'
          + (f'; MISSED {missed}' if missed else ''))
    for argv, problems in failures[:5]:
        print(f'FAILED {argv}: {problems}', file=sys.stderr)

    if tracer is None:
        metrics = end_to_end
    else:
        metrics = tracer.layer_metrics(len(ops), traced_wall)
        metrics['trace.overhead_s'] = (traced_wall - wall_s, 's')
        metrics['trace.overhead_share'] = ((traced_wall - wall_s) / wall_s, 'ratio')
        # traced minus untraced wall time is mostly run-to-run noise; the span
        # count times the measured cost of one span estimates the wrappers' part
        estimate = len(tracer.spans) * spans.span_cost()
        metrics['trace.overhead_est_s'] = (estimate, 's')
        metrics['input.n_seen_share'] = (result['n_seen_share'], 'ratio')
        never = tracer.never_called()
        result['never_called'] = never
        print(f'traced replay: {traced_wall:.4f} s, overhead {traced_wall - wall_s:+.4f} s '
              f'(estimated from {len(tracer.spans)} spans: {estimate:.6f} s); '
              f'spans cover {metrics["trace.coverage"][0]:.4f} of op wall time')
        print(f'never called: {", ".join(never) if never else "none"}')
        top = sorted(((v, k[:-2]) for k, (v, u) in metrics.items() if u == 's/op'),
                     reverse=True)[:6]
        print('largest self time per op: ' + ', '.join(f'{k} {v:.4f} s' for v, k in top))
        tracer.dump(OUT_DIR / f'spans-{args.workload}-seed{args.seed}.jsonl')
    result['metrics'] = {k: {'value': v, 'unit': u} for k, (v, u) in metrics.items()}
    name = f'result-{args.workload}-seed{args.seed}-trace{args.trace}.json'
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + '\n')
    print(json.dumps({'environment': env}))
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': len(failures), 'metrics': result['metrics']}))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
