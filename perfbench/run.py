"""Benchmark for the gptau workbench.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

Runs one seeded workload (see workloads.py and RATIONALE.md) against the
library in ../src, checks every answer against its reference, prints each
metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, timed at reference speed (harness.py);
with --trace 1 the run measures the same operations untraced and then
traced and reports per-layer metrics (layers.py).  Inputs are written
under ../.perfbench/ and removed at exit; traced runs leave their spans
there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh interpreters

sys.path.insert(0, HERE)
from harness import REFERENCE_PROBE_S, SpeedProbe, measure, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true",
                    help="time one set-up, print it as JSON and exit")
    return ap.parse_args(argv)


def load_library():
    """Import gptau from the checkout's src/ and warm its lazy imports."""
    if not os.path.isfile(os.path.join(SRC, "gptau", "__init__.py")):
        raise FileNotFoundError("no gptau sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import gptau
    import gptau.approx
    import gptau.fileio
    import sympy

    # the min-poly split in decomposition imports sympy on first use
    t = sympy.Symbol("t")
    sympy.factor_list(sympy.Poly([1, 0, -1], t))
    sympy.factor_list(sympy.Poly([1, 0, -1], t, modulus=10007), modulus=10007)
    return gptau


def timed_setup(workload, probe):
    """Import, parse long-lived inputs and warm caches; the time is
    returned at reference speed when a probe is running."""
    t0 = time.perf_counter()
    g = load_library()
    workload.setup(g)
    t1 = time.perf_counter()
    if probe is None:
        return g, t1 - t0
    return g, (t1 - t0 - probe.probe_time(t0, t1)) * probe.scale(t0, t1)


def setup_samples(args, first):
    """Median set-up time over this process and fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-sample"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("set-up sample failed:\n" + proc.stderr)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def git_commit():
    """HEAD of the checkout, read from .git itself: running git would read
    configuration from outside the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def fingerprint(g):
    rat = type(g.QQ.one())
    return {
        "python": platform.python_version(),
        "rational_backend": "%s.%s" % (rat.__module__, rat.__qualname__),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def metric(metrics, name, value, unit, note=""):
    metrics[name] = {"value": value, "unit": unit}
    print("metric %-28s %14.6g %s%s" % (name, value, unit, "  (%s)" % note if note else ""))


def end_to_end(workload, tally, probe, setup_s, samples):
    lat = sorted(tally.latencies(probe))
    raw = tally.raw_latencies(probe)
    n = len(lat)
    p = workload.tail_percentile
    tail = percentile(lat, p)
    beyond = sum(1 for x in lat if x > tail)
    metrics = {}
    metric(metrics, "setup_s", setup_s, "s",
           "median of %s" % ", ".join("%.3f" % s for s in samples))
    metric(metrics, "ops_per_s", n / sum(lat), "1/s",
           "%d operations; %.4g/s unscaled" % (n, n / sum(raw)))
    metric(metrics, "op_p50_ms", 1000 * statistics.median(lat), "ms",
           "%.4g ms unscaled" % (1000 * statistics.median(raw)))
    metric(metrics, "op_tail_ms", 1000 * tail, "ms",
           "p%g of %d samples, %d beyond" % (p, n, beyond))
    metric(metrics, "ok_ratio", 1 - tally.failed / n, "ratio",
           "failed_ratio %.6f" % (tally.failed / n))
    metric(metrics, "certified_ratio", 1 - tally.unknown / tally.bounded, "ratio",
           "unknown_ratio %.6f of %d bounded verdicts" % (
               tally.unknown / tally.bounded, tally.bounded))
    metric(metrics, "peak_rss_mb",
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print("speed probe: median %.3f ms over %d samples (reference %.3f ms)" % (
        1000 * statistics.median(probe.durations), len(probe.durations),
        1000 * REFERENCE_PROBE_S))
    return metrics


def main(argv):
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            import layers

            g, _ = timed_setup(workload, None)
            print("fingerprint %s" % json.dumps(fingerprint(g)))
            attempted, failed, metrics, ok = layers.traced_run(
                g, workload, args.seconds, OUT)
        else:
            with SpeedProbe() as probe:
                g, setup_s = timed_setup(workload, probe)
                if args.setup_sample:
                    print(json.dumps({"setup_s": setup_s}))
                    return 0
                # set-up objects live for the whole run: keep them out of
                # the collector's scans, as a long-running service would
                gc.collect()
                gc.freeze()
                tally, _ = measure(g, workload, args.seconds)
            print("fingerprint %s" % json.dumps(fingerprint(g)))
            median_setup, samples = setup_samples(args, setup_s)
            metrics = end_to_end(workload, tally, probe, median_setup, samples)
            attempted, failed, ok = len(tally.spans), tally.failed, True
        print("inputs %s" % workload.stats.summary())
        print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except FileNotFoundError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
