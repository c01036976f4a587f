"""The hhalg benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):
  ext_resolve     Ext over exterior algebras over F3 (minimal and greedy)
  hochschild_bar  Hochschild cohomology by the bar complex, over F_p and Z
  azumaya_mu      weak, classical and generalized Azumaya verdicts
  cli_corpus      the hhalg CLI as subprocesses on the bundled corpus

With --trace 0 the run sets up SETUP_REPEATS times in fresh interpreters,
then makes passes over the workload's jobs until --seconds is used up (at
least MIN_PASSES), and reports medians.  Times are rescaled to a nominal
machine speed (see speed.py).  With --trace 1 it makes one untraced and one
traced pass and reports the per-layer metrics.  Every job's output
is checked against references.json; a mismatch, an exception or an
unexpected exit code fails the job, and the run exits 1.  The last line of
stdout is the JSON result; the lines before it say the same for people.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench-tmp")

SETUP_REPEATS = 9
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150

PROBE = ("import sys, time\n"
         "t0 = time.perf_counter()\n"
         "import workloads\n"
         "workloads.IN_PROCESS[sys.argv[1]](int(sys.argv[2]))\n"
         "print(time.perf_counter() - t0)\n")


def cpu_now():
    """User plus system seconds of this process and its waited-for children."""
    return sum(r.ru_utime + r.ru_stime for r in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def child_env():
    env = dict(os.environ)
    env.pop("HHALG_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


class Checker:
    """Runs jobs, compares outputs with the references, counts failures."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0

    def fail(self, name, why):
        self.attempted += 1
        self.failed += 1
        print(f"FAIL {name}: {why}", file=sys.stderr)

    def check(self, name, output):
        if output != self.refs.get(name):
            self.fail(name, "output differs from the reference")
        else:
            self.attempted += 1

    def run(self, name, thunk):
        try:
            output = thunk()
        except Exception as e:  # a job that raises counts as failed, the run goes on
            self.fail(name, f"{type(e).__name__}: {e}")
            return
        self.check(name, output)


# ---------------------------------------------------------------------------
# set-up


def setup_times(workload, seed, tmp, speed):
    """Seconds to get inputs ready, once per fresh interpreter, rescaled."""
    env = child_env()
    out = []
    for _ in range(SETUP_REPEATS):
        if workload == "cli_corpus":
            cmd = [sys.executable, "-c", "import hhalg.cli"]
        else:
            cmd = [sys.executable, "-c", PROBE, workload, str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        wall = time.perf_counter() - t0
        setup = wall if workload == "cli_corpus" else float(proc.stdout)
        out.append(setup * speed.factor())
    return out


# ---------------------------------------------------------------------------
# passes


def in_process_pass(jobs, checker, speed):
    """Wall and CPU seconds of one pass, rescaled job by job; "raw" is unscaled."""
    out = {"wall": 0.0, "cpu": 0.0, "raw": 0.0}
    for name, thunk in jobs:
        t0, c0, p0 = time.perf_counter(), cpu_now(), speed.paused_s
        checker.run(name, thunk)
        paused = speed.paused_s - p0
        wall, cpu = time.perf_counter() - t0 - paused, cpu_now() - c0 - paused
        f = speed.factor()
        out["wall"] += wall * f
        out["cpu"] += cpu * f
        out["raw"] += wall
    return out


def cli_subprocess(argv, cache_dir, tmp):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hhalg.cli", *argv, "--cache-dir", cache_dir],
                          cwd=tmp, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, [proc.returncode, proc.stdout, proc.stderr]


def cli_in_process(argv, cache_dir, tmp):
    import hhalg.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hhalg.cli.main([*argv, "--cache-dir", cache_dir])
    return time.perf_counter() - t0, [code, out.getvalue(), err.getvalue()]


def cli_pass(commands, checker, tmp, speed, invoke, on_invocation=None):
    """Each command with an empty cache directory (cold), then again (warm).

    The child runs on while the reference ticks in this process, so the tick
    time leaves the CPU count but not the wall time.
    """
    import workloads

    out = {"wall": 0.0, "cpu": 0.0, "raw": 0.0, "cold": 0.0, "warm": 0.0, "nonzero": 0}
    for command in commands:
        cache_dir = tempfile.mkdtemp(dir=tmp)
        try:
            for phase in ("cold", "warm"):
                c0, p0 = cpu_now(), speed.paused_s
                try:
                    wall, output = invoke(workloads.cli_argv(command), cache_dir, tmp)
                except Exception as e:  # a timeout or a traceback fails the job
                    checker.fail(f"{command} ({phase})", f"{type(e).__name__}: {e}")
                    continue
                cpu = cpu_now() - c0 - (speed.paused_s - p0)
                f = speed.factor()
                out[phase] += wall * f
                out["wall"] += wall * f
                out["raw"] += wall
                out["cpu"] += cpu * f
                out["nonzero"] += output[0] != 0
                checker.check(command, output)
                if on_invocation:
                    on_invocation(phase)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return out


def make_pass(workload, seed, checker, tmp, speed, invoke=cli_subprocess):
    """A zero-argument function that runs one pass of the workload."""
    import workloads

    if workload == "cli_corpus":
        order = workloads.cli_order(seed)
        return lambda **kw: cli_pass(order, checker, tmp, speed, invoke, **kw)
    jobs = workloads.IN_PROCESS[workload](seed)
    return lambda: in_process_pass(jobs, checker, speed)


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, refs, tmp):
    checker = Checker(refs)
    speed = Speed()
    setups = setup_times(args.workload, args.seed, tmp, speed)
    one_pass = make_pass(args.workload, args.seed, checker, tmp, speed)
    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        with speed.ticking():
            passes.append(one_pass())
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - t0) + (now - p0) > args.seconds:
            break
    if args.workload == "cli_corpus":
        cold = [p["cold"] for p in passes]
        warm = [p["warm"] for p in passes]
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        # in-process, the first pass meets every job cold; later passes repeat
        cold = [passes[0]["wall"]]
        warm = [p["wall"] for p in passes[1:]]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "run_s": (statistics.median([p["wall"] for p in passes]), len(passes)),
        "cpu_s": (statistics.median([p["cpu"] for p in passes]), len(passes)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
        "cold_s": (statistics.median(cold), len(cold)),
        "warm_s": (statistics.median(warm), len(warm)),
    }
    print(f"unscaled run_s {statistics.median([p['raw'] for p in passes]):.4f} s; "
          f"a nominal second took {statistics.median([p['raw'] / p['wall'] for p in passes]):.3f} s here")
    return checker, values


def per_layer(args, refs, tmp):
    import selftest
    from tracer import LAYERS, ROOT as ROOT_LAYER, Tracer, public_callables

    checker = Checker(refs)
    speed = Speed()
    plain = make_pass(args.workload, args.seed, checker, tmp, speed, cli_in_process)()

    problems = selftest.check_tracer(tmp)
    if problems:
        checker.fail("tracer self-test", "; ".join(problems))
    else:
        checker.attempted += 1

    hits = {"cold": 0, "warm": 0}
    sampled0 = speed.sampled_s
    with Tracer() as tr:
        # set-up runs traced too, so parse_definition and realize show
        one_pass = make_pass(args.workload, args.seed, checker, tmp, speed, cli_in_process)
        if args.workload == "cli_corpus":
            seen = [0]

            def on_invocation(phase):
                hits[phase] += tr.counts["cache.hit"] - seen[0]
                seen[0] = tr.counts["cache.hit"]

            traced = one_pass(on_invocation=on_invocation)
        else:
            traced = one_pass()
    if hits["cold"]:
        checker.fail("cache isolation", "a cold invocation hit the cache")

    spans, counts = tr.spans, tr.counts
    span_keys = {key for key, *_ in public_callables()}
    aliases = {
        "base.apply_coords": ["base.HomogeneousMap.apply_coords"],
        "base.compose": ["base.HomogeneousMap.compose"],
        "base.slice_matrix": ["base.HomogeneousMap.slice_matrix"],
        "azumaya.check": ["azumaya.check_classical_azumaya",
                          "azumaya.check_generalized_azumaya",
                          "azumaya.check_weak_azumaya"],
    }
    layer_s = tr.layer_self_s()
    layer_s[ROOT_LAYER] -= speed.sampled_s - sampled0
    total = sum(layer_s.values())
    snf_calls = spans["linalg.smith_normal_form"][0]
    derived = {
        "linalg.smith_normal_form.distinct_frac":
            counts["linalg.smith_normal_form.distinct"] / snf_calls if snf_calls else 1.0,
        "cache.hit_cold": hits["cold"],
        "cache.hit_warm": hits["warm"],
        "cli.nonzero_exits": traced.get("nonzero", 0),
        "trace.overhead_s": traced["wall"] - plain["wall"],
        "trace.run_s": traced["wall"],
    }
    for layer in (*LAYERS, ROOT_LAYER):
        derived[f"layer.{layer}.self_s"] = layer_s[layer]
        derived[f"layer.{layer}.self_frac"] = layer_s[layer] / total if total else 0.0

    def value(name):
        if name in derived:
            return derived[name]
        prefix, stat = name.rsplit(".", 1)
        keys = aliases.get(prefix, [prefix])
        if stat in ("calls", "self_s") and all(k in span_keys for k in keys):
            return sum(spans[k][0 if stat == "calls" else 1] for k in keys)
        if name in tr.KNOWN_COUNTS:
            return counts[name]
        raise KeyError(f"no definition for per-layer metric {name!r}")

    values = {m["name"]: (value(m["name"]), 1) for m in args.spec["per_layer"]}
    shares = sorted(((layer_s[k] / total if total else 0.0), k) for k in layer_s)
    print("self-time shares: " + ", ".join(f"{k} {s:.1%}" for s, k in reversed(shares)
                                           if s >= 0.0005))
    return checker, values


# ---------------------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description="hhalg benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "hhalg", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: {ROOT} holds no hhalg sources (src/hhalg) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        args.spec = json.load(fh)
    if args.workload not in {w["name"] for w in args.spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)[args.workload]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    sys.path.insert(0, SRC)
    os.environ.pop("HHALG_CACHE_DIR", None)
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        checker, values = (per_layer if args.trace else end_to_end)(args, refs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_PARENT)

    metrics = args.spec["per_layer" if args.trace else "end_to_end"]
    for m in metrics:
        v, n = values[m["name"]]
        print(f"  {m['name']:<44} {v:>14.6g} {m['unit']:<6} n={n}")
    print(f"  failed_frac {checker.failed}/{checker.attempted}")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
