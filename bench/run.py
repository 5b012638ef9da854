"""Benchmark of the holostark command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One process per workload and one closed-loop client: CLI calls go through
``holostark.cli.main`` in-process, back to back, each starting when the last
one (and its output check) has finished.  Inputs are JSON path and target
files generated from the seed (see workloads.py); every answer is checked
against the package's analytic or Schrodinger oracles, and a call fails on an
unexpected exit code, a traceback or a failed check.

Untraced (``--trace 0``) the run measures for ``--seconds`` seconds and
reports the end-to-end metrics.  Traced (``--trace 1``) it measures untraced
for half the time, then repeats the workload's first ``trace_calls`` calls
with every layer wrapped (see tracing.py) and reports the per-layer metrics,
plus the tracing overhead on those same calls.  ``--smoke`` runs each input
of a tiny pool once, for the benchmark's own tests.

Host speed.  On a shared host the CPU's speed drifts, for the CLI and for
any other work alike: on a 2-vCPU Xeon VM by up to 1.6x, in phases of ten
seconds to minutes.  So the benchmark times a fixed piece of reference work
that does not touch the program (``reference_seconds``) before the first call
and after every call, and reports each time at the host speed at which that
work takes ``REFERENCE_S``: a call timed between references of r1 and r2
seconds is scaled by 2 * REFERENCE_S / (r1 + r2), and set-up by the run's
median factor.  A change to the program moves the scaled times as it moves
the raw ones; host drift cancels.  The raw wall-clock values are printed
beside them and kept in the result file.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are a report
for people, and the full result (environment, sizes, per-call samples and
spans) is written to ``.bench_out/`` under the checkout.
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import namedtuple
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported
REFERENCE_S = 0.020  # reference work's duration at the host speed reported

# end-to-end metric -> unit
END_TO_END = {
    "calls_per_s": "1/s",
    "call_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# seconds: the CLI call; iteration: call and check; scale: host-speed factor
Outcome = namedtuple("Outcome", "call seconds iteration scale ok error record")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, each pooled input once, one set-up probe")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child process timed for setup_s
    return p.parse_args(argv)


def import_program():
    """Import holostark from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import holostark
    if Path(holostark.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"holostark imported from {holostark.__file__}, "
                          f"not from {SRC}")
    return holostark


def setup_probe(workload, args):
    """Child-process body: set up as a run does, then signal readiness."""
    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.set_up(args.seed, workdir, smoke=args.smoke)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def reference_seconds():
    """Time a fixed piece of work that does not touch the program: the two
    kinds of work the CLI does, Python-level 2x2 complex products and a
    batched eigh of symmetric 4x4 matrices."""
    a = np.random.default_rng(0).normal(size=(3000, 4, 4))
    a = a + a.transpose(0, 2, 1)
    m = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    u = np.eye(2, dtype=complex)
    start = perf_counter()
    for _ in range(4000):
        u = m @ u
    np.linalg.eigh(a)
    return perf_counter() - start


def host_scale(before, after):
    """Factor taking a time measured between two reference timings to the
    host speed at which the reference work takes REFERENCE_S."""
    return 2.0 * REFERENCE_S / (before + after)


def time_setup(args, probes):
    """Wall time from spawning a fresh interpreter until it has imported the
    package, built the parser and written the inputs, for each probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:  # waits for the probe to exit
            line = proc.stdout.readline().strip()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return times


def issue(call, cli):
    """One CLI call, timed, and the check of its answer:
    (seconds, ok, error, record)."""
    buf = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(call.argv)
    except Exception:  # a traceback out of the CLI is a failed call
        traceback.print_exc()
        code = None
    seconds = perf_counter() - start
    try:
        record = json.loads(buf.getvalue())
    except ValueError:
        record = None
    try:
        ok, error = call.check(code, record)
    except Exception:  # a malformed record is a failed call
        traceback.print_exc()
        ok, error = False, None
    if not ok:
        print(f"failed: exit {code}: {' '.join(call.argv)}", file=sys.stderr)
    return seconds, bool(ok), error, record


def closed_loop(calls, cli, seconds, min_calls):
    """Issue calls back to back until ``seconds`` have passed and at least
    ``min_calls`` were made, timing the reference work between calls."""
    outcomes = []
    start = perf_counter()
    before = reference_seconds()
    while len(outcomes) < min_calls or perf_counter() - start < seconds:
        call = calls[len(outcomes) % len(calls)]
        begin = perf_counter()
        call_s, ok, error, record = issue(call, cli)
        iteration = perf_counter() - begin
        after = reference_seconds()
        outcomes.append(Outcome(call, call_s, iteration, host_scale(before, after),
                                ok, error, record))
        before = after
    return outcomes


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {var: os.environ.get(var, "unset (library default)")
               for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "commit": git_commit()}


def measure(workload, args, cli, recorder):
    """The timed run: untraced outcomes, then (with --trace 1) the first
    ``trace_calls`` inputs again under the recorder."""
    sizes = workload.smoke if args.smoke else workload.sizes
    trace_calls = sizes["trace_calls"]
    if args.smoke:
        seconds, min_calls = 0.0, (trace_calls if args.trace else sizes["pool"])
    elif args.trace:
        seconds, min_calls = args.seconds / 2, trace_calls
    else:
        seconds, min_calls = args.seconds, 1
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calls = workload.set_up(args.seed, workdir, smoke=args.smoke)
        outcomes = closed_loop(calls, cli, seconds, min_calls)
        traced = []
        if args.trace:
            with recorder.patched():
                traced = closed_loop(calls, cli, 0.0, trace_calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcomes, traced


def run(workload, args, cli):
    sizes = workload.smoke if args.smoke else workload.sizes
    setup_times = time_setup(args, 1 if args.smoke else SETUP_PROBES)
    recorder = tracing.Recorder()
    outcomes, traced = measure(workload, args, cli, recorder)

    everything = outcomes + traced
    failed = sum(1 for o in everything if not o.ok)
    accuracy = {}  # largest error of each figure among calls that passed
    for o in everything:
        if o.ok and o.error is not None:
            name = o.call.accuracy
            accuracy[name] = max(accuracy.get(name, o.error), o.error)
    # the parent idles while a set-up probe runs, which makes a reference
    # timing around it unreliable: set-up takes the run's median host speed
    host_speed = statistics.median(o.scale for o in outcomes)
    e2e = {
        "calls_per_s": len(outcomes) / sum(o.iteration * o.scale for o in outcomes),
        "call_p50_s": statistics.median(o.seconds * o.scale for o in outcomes),
        "setup_s": statistics.median(setup_times) * host_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "calls_per_s": len(outcomes) / sum(o.iteration for o in outcomes),
        "call_p50_s": statistics.median(o.seconds for o in outcomes),
        "setup_s": statistics.median(setup_times),
        "host_speed": host_speed,
    }
    if args.trace:
        # overhead on identical work: the same inputs untraced, then traced
        untraced = sum(o.seconds * o.scale for o in outcomes[:len(traced)])
        traced_s = sum(o.seconds * o.scale for o in traced)
        layers = tracing.layer_metrics(recorder.spans, [o.record for o in traced],
                                       [o.scale for o in traced])
        layers["trace.calls_per_s"] = len(traced) / traced_s
        layers["trace.untraced_calls_per_s"] = len(traced) / untraced
        layers["trace.overhead"] = traced_s / untraced - 1.0
        metrics = {k: {"value": layers[k], "unit": unit}
                   for k, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(everything), "failed": failed,
              "metrics": metrics}

    env = environment()
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "workload": workload.name, "why": workload.why, "isolates": workload.isolates,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "sizes": sizes, "environment": env,
        "end_to_end": e2e, "raw": raw, "fail_frac": failed / len(everything),
        "accuracy": accuracy, "setup_samples_s": setup_times,
        "call_samples": [(o.seconds, o.iteration, o.scale) for o in outcomes],
        "traced_call_samples": [(o.seconds, o.iteration, o.scale) for o in traced],
        "skipped_wrappers": recorder.skipped, "spans": recorder.spans,
        "result": result,
    }))

    print(f"workload {workload.name}: {workload.why}")
    print(f"isolates: {workload.isolates}")
    print(f"sizes: {json.dumps(sizes)}")
    print(f"environment: {json.dumps(env)}")
    print(f"host speed {raw['host_speed']:.3f} x reference; times below are at "
          f"reference speed, raw wall-clock values in brackets")
    print(f"calls_per_s {e2e['calls_per_s']:.4g} 1/s [{raw['calls_per_s']:.4g}] "
          f"(n={len(outcomes)})")
    print(f"call_p50_s {e2e['call_p50_s']:.4g} s [{raw['call_p50_s']:.4g}] "
          f"(n={len(outcomes)})")
    print(f"setup_s {e2e['setup_s']:.4g} s [{raw['setup_s']:.4g}] "
          f"(median of {len(setup_times)})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.4g} MB")
    print(f"fail_frac {failed / len(everything):.4g} ratio "
          f"({failed} of {len(everything)})")
    for name, unit in (("max_phase_err", "rad"), ("max_infidelity", "1")):
        if name in accuracy:
            print(f"{name} {accuracy[name]:.3e} {unit}")
    print("wait: none measured; one process, one closed-loop client, nothing queues")
    if args.trace:
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            print(f"{name} {layers[name]:.6g} {unit}")
        for layer, effect in tracing.MOVES.items():
            print(f"moves: {layer} -> {effect}")
        if recorder.skipped:
            print(f"not wrapped (missing): {', '.join(recorder.skipped)}")
    print(f"full result: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        holostark = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args)
        return 0
    return run(workload, args, holostark.cli)


if __name__ == "__main__":
    sys.exit(main())
