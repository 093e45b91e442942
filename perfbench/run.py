#!/usr/bin/env python3
"""Run one benchmark workload against the hodgepath sources of this checkout.

    python3 perfbench/run.py --workload model_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from the root of a checkout: the library is imported from `./src`
and the CLI workload reads `./fixtures`.  Each workload runs in this one
process as a closed loop with one client: an op starts only after the
previous one returned, and no threads are used.  The loop repeats whole
passes over the op list while the next pass still fits in `--seconds`.

With `--trace 0` the last line of stdout is the JSON result with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of one
traced pass, measured after one untraced pass of the same ops.  Lines before
it are human-readable metrics and one JSON line of diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
OUT_DIR = ".perfbench"
REFERENCE_SIZE = 16
REFERENCE_SHARE = 0.1
# The reference kernel's time on the nominal host; on a shared 2-core x86-64
# host with CPython 3.11 it takes 16-31 ms.
REFERENCE_NOMINAL_S = 0.025


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op that overran its deadline.

    A BaseException, so that library code catching Exception cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Outcome:
    op_id: str
    seconds: float
    result: object = None
    error: str | None = None
    digest: str | None = None
    reference_s: float = REFERENCE_NOMINAL_S

    @property
    def host_s(self):
        """The op's time on the nominal host (see `Reference`)."""
        return self.seconds * REFERENCE_NOMINAL_S / self.reference_s


def run_cli(argv, env=None):
    """hodgepath.cli.main(argv) in this process, with stdout captured."""
    cli = sys.modules["hodgepath.cli"]
    env = env or {}
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:            # argparse usage errors
                rc = e.code if isinstance(e.code, int) else 2
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return workloads.CliResult(rc, out.getvalue())


def _purge_library():
    for name in [m for m in sys.modules if m == "hodgepath" or m.startswith("hodgepath.")]:
        del sys.modules[name]


def setup(workload, seed, work):
    """Import hodgepath and generate the inputs; returns (seconds, ops)."""
    _purge_library()
    t0 = time.perf_counter()
    hp = importlib.import_module("hodgepath")
    importlib.import_module("hodgepath.cli")
    ops = workloads.generate(workload, hp, seed, work, run_cli)
    return time.perf_counter() - t0, ops


def run_op(op, tracer=None, index=0):
    if tracer is not None:
        tracer.begin_op(index)
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    t0 = time.perf_counter()
    try:
        result = op.run()
        error = None
    except DeadlineExceeded:
        result, error = None, f"missed its {op.deadline_s:g} s deadline"
    except Exception as e:                     # an op that raises has failed
        result, error = None, f"raised {type(e).__name__}: {e}"
    finally:
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome(op.op_id, seconds, result, error)


def check(op, outcome, first_digest=None):
    """Fill outcome.digest and return None, or return why the op failed.

    With no first_digest this runs the op's full oracle; otherwise the output
    must reproduce the digest of the first pass byte for byte.
    """
    if outcome.error is not None:
        return outcome.error
    try:
        outcome.digest = workloads.sha256(op.canon(outcome.result))
        if first_digest is None:
            op.verify(outcome.result)
        elif outcome.digest != first_digest:
            raise workloads.OracleError("output differs from the first pass")
    except workloads.OracleError as e:
        return f"oracle: {e}"
    except Exception as e:                     # a crashing oracle is a failure too
        return f"oracle raised {type(e).__name__}: {e}"
    finally:
        outcome.result = None
    return None


def run_pass(ops, reference, tracer=None):
    """One pass over the ops, with the reference timed between ops.

    After each op the reference runs for REFERENCE_SHARE of the op's time
    (at least once); an op's reference time is the mean of the samples
    just before and just after it.
    """
    outcomes = []
    gc.collect()
    before = [reference.sample()]
    for i, op in enumerate(ops):
        outcome = run_op(op, tracer, i)
        gc.collect()
        after = [reference.sample()]
        while sum(after) < REFERENCE_SHARE * outcome.seconds:
            after.append(reference.sample())
        outcome.reference_s = statistics.mean(before + after)
        outcomes.append(outcome)
        before = after
    return outcomes


def check_pass(ops, outcomes, first_digests, failures):
    for op, outcome in zip(ops, outcomes):
        why = check(op, outcome, first_digests.get(op.op_id))
        if why is not None:
            failures.append({"op": op.op_id, "why": why})
        elif op.op_id not in first_digests:
            first_digests[op.op_id] = outcome.digest


class Reference:
    """A fixed stdlib Fraction elimination, timed next to every op.

    The host's speed moves by tens of percent within seconds and between
    processes, while CPU time equals wall time, and ops and this kernel
    slow down together.  So every time metric is reported on the nominal
    host: raw seconds x REFERENCE_NOMINAL_S / the kernel's time around it.
    """

    def __init__(self):
        rng = random.Random(20130718)
        self.rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(REFERENCE_SIZE)] for _ in range(REFERENCE_SIZE)]
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        workloads.gauss_jordan(self.rows)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def median(self, k=3):
        """Median of k fresh samples, for the start and end of a run."""
        return statistics.median(self.sample() for _ in range(k))


def combined_digest(first_digests):
    text = "\n".join(f"{k} {v}" for k, v in sorted(first_digests.items()))
    return workloads.sha256(text)


def per_op_medians(passes, key):
    times = {}
    for outcomes in passes:
        for o in outcomes:
            times.setdefault(o.op_id, []).append(key(o))
    return {k: statistics.median(v) for k, v in times.items()}


def time_metrics(passes, key):
    """wall, median op and slowest op, with each op timed by `key`."""
    medians = per_op_medians(passes, key)
    return {"wall_s": statistics.median(sum(key(o) for o in p) for p in passes),
            "op_p50_s": statistics.median(medians.values()),
            "op_max_s": max(medians.values())}


def measure(ops, seconds, reference, failures, first_digests):
    """Closed loop of whole passes while the next pass fits in `seconds`."""
    passes = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        outcomes = run_pass(ops, reference)
        pass_s = time.perf_counter() - t_pass   # what the next pass should cost
        check_pass(ops, outcomes, first_digests, failures)
        passes.append(outcomes)
        if time.perf_counter() - t_start + pass_s > seconds:
            return passes


def measure_traced(ops, reference, failures, first_digests, trace_path):
    """One untraced pass, then one traced pass of the same ops."""
    untraced = run_pass(ops, reference)
    check_pass(ops, untraced, first_digests, failures)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run_pass(ops, reference, tr)
    finally:
        tr.uninstall()
    check_pass(ops, traced, first_digests, failures)
    wall_u = sum(o.seconds for o in untraced)
    wall_t = sum(o.seconds for o in traced)
    tr.write(trace_path)
    metrics = tracing.per_layer_metrics(tr.aggregate())
    metrics["trace.wall_s"] = (wall_t, "s")
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
    metrics["trace.spans"] = (len(tr.name), "count")
    return [untraced, traced], metrics


def run_probes(work):
    """The known-defect documents, run after measuring so they cannot skew it."""
    out = []
    for op in workloads.defect_probes(work, run_cli):
        outcome = run_op(op)
        why = check(op, outcome)
        out.append({"op": op.op_id, "ok": why is None, "why": why,
                    "seconds": round(outcome.seconds, 4)})
    return out


def run_workload(args):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hodgepath", "__init__.py")):
        sys.stderr.write(f"error: no hodgepath sources under {src}; "
                         "run from the root of a checkout\n")
        return 2
    sys.path.insert(0, src)
    os.environ.pop("HODGEPATH_CACHE", None)
    signal.signal(signal.SIGALRM, _on_alarm)
    work = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    reference = Reference()
    try:
        ref_start = reference.median()
        cpu_start = time.process_time()
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            before = reference.sample()
            seconds, ops = setup(args.workload, args.seed, work)
            after = reference.sample()
            raw_setups.append(seconds)
            setups.append(seconds * REFERENCE_NOMINAL_S * 2 / (before + after))
        failures, first_digests = [], {}
        if args.trace:
            trace_path = os.path.join(root, OUT_DIR, "traces",
                                      f"{args.workload}-seed{args.seed}.tsv.gz")
            passes, metrics = measure_traced(ops, reference, failures, first_digests,
                                             trace_path)
        else:
            passes = measure(ops, args.seconds, reference, failures, first_digests)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: (value, "s")
                       for name, value in time_metrics(passes, lambda o: o.host_s).items()}
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
            metrics["setup_s"] = (statistics.median(setups), "s")
        cpu_s = time.process_time() - cpu_start
        probes = run_probes(work) if args.workload == "cli_fixtures" else []
        ref_end = reference.median()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    raw = time_metrics(passes, lambda o: o.seconds)
    raw["setup_s"] = statistics.median(raw_setups)
    slowest = max(per_op_medians(passes, lambda o: o.seconds).items(), key=lambda kv: kv[1])
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "ops_per_pass": len(ops),
        "pass_walls_s": [round(sum(o.seconds for o in p), 4) for p in passes],
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "slowest_op": slowest[0],
        "output_digest": combined_digest(first_digests),
        "known_defects": {"attempted": len(probes),
                          "failed": sum(not p["ok"] for p in probes),
                          "probes": probes},
        "raw_seconds": raw,
        "host": {"reference_start_s": ref_start, "reference_end_s": ref_end,
                 "reference_median_s": statistics.median(reference.samples),
                 "reference_samples": len(reference.samples),
                 "process_cpu_s": cpu_s,
                 "raw_wall_per_reference": raw["wall_s"] / ref_start},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, each in a fresh process of its own, one after another."""
    rc = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            rc = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return rc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
