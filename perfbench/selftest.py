"""Self-tests of the benchmark itself.

check_tracer() runs a small job three ways: untraced under an independent
sys.setprofile call counter, and traced.  The traced call counts must equal
the profiler's, and the traced outputs the untraced ones.  run.py runs it in
every traced run.

Run as a script it also checks, for each workload, that two traced runs with
one seed (in fresh processes with different string-hash seeds) give identical
counts, and that a second seed passes every reference check:

    python3 perfbench/selftest.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def small_jobs(tmp):
    """A few seconds of work across every layer, the CLI and the cache included."""
    from hhalg import algebra, azumaya, hochschild, resolve
    from hhalg.base import BaseRing
    from hhalg.ground import GroundRing

    import workloads as W
    from run import cli_in_process

    L2 = W.exterior(2)
    k2 = resolve.AModule.trivial(L2)
    M3, _ = W.matrix_algebras()
    E2 = algebra.endomorphism_algebra(W.free_module(BaseRing(GroundRing.prime_field(5)), [0, 1]))
    dga = dict(W.quotient_dgas())["A3_1"]

    def cli_cold_warm(command):
        d = tempfile.mkdtemp(dir=tmp)
        try:
            return [cli_in_process(W.cli_argv(command), d, tmp)[1] for _ in range(2)]
        finally:
            shutil.rmtree(d)

    return [
        lambda: W.table_canon(resolve.ext_table(L2, s_max=3)),
        lambda: W.table_canon(resolve.ext_with_coefficients(
            resolve.free_resolution(L2, k2, s_max=3, seed=1), k2)),
        lambda: W.table_canon(hochschild.hochschild_cohomology(M3, n_max=1)),
        lambda: W.report_canon(azumaya.check_weak_azumaya(E2)),
        lambda: W.report_canon(azumaya.check_generalized_azumaya(dga.dga)),
        lambda: cli_cold_warm("ext --file exterior1.def"),
        lambda: cli_cold_warm("morita --file etale.def --check roundtrip"),
    ]


def check_tracer(tmp):
    """[] when the tracer agrees with sys.setprofile and keeps outputs, else problems."""
    from tracer import ProfileCounter, Tracer, traced_calls

    jobs = small_jobs(tmp)
    plain = [job() for job in jobs]
    with ProfileCounter() as prof:
        profiled = [job() for job in jobs]
    with Tracer() as tr:
        traced = [job() for job in jobs]
    problems = []
    if not (plain == profiled == traced):
        problems.append("traced or profiled outputs differ from untraced ones")
    expected = dict(prof.calls)
    got = traced_calls(tr)
    for key in sorted(set(expected) | set(got)):
        if expected.get(key, 0) != got.get(key, 0):
            problems.append(f"calls of {key}: tracer {got.get(key, 0)}, "
                            f"setprofile {expected.get(key, 0)}")
    if not expected:
        problems.append("setprofile saw no traced calls")
    return problems


def _run(workload, seed, trace, hash_seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] not in ("s", "ratio")]
    ok = True
    for w in args.workload or names:
        # string hashing differs between the two traced runs on purpose
        runs = [_run(w, 11, 1, 1), _run(w, 11, 1, 2), _run(w, 12, 0, 3)]
        for code, result, err in runs:
            if code != 0 or not result or not result["correct"]:
                ok = False
                print(f"{w}: a run failed (exit {code})\n{err}")
        a, b = runs[0][1], runs[1][1]
        if a and b:
            diff = [n for n in counts
                    if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            if diff:
                ok = False
            print(f"{w}: {len(counts) - len(diff)}/{len(counts)} counts repeat"
                  + (f"; differ: {diff}" if diff else "")
                  + f"; second seed correct: {bool(runs[2][1] and runs[2][1]['correct'])}")
    print("selftest:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
