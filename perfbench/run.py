"""Benchmark harness for the metalogic package.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each job starts when the previous one
has finished. The workload's fixed job list runs pass after pass until
``--seconds`` of wall time are used up (every job runs at least once). Jobs
are timed in process CPU time. Every output is checked; the last line of
standard output is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off and calibrated for the host's current speed (see calibration.py).
With ``--trace 1`` the harness runs the job list once untraced and once
traced, and reports per-layer counts and self times (see README.md). Either
way the full record, with the host, goes to ``perfbench-out/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the harness exits with status 2 and prints no result.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

sys.path.insert(0, str(HERE))

from calibration import LOCAL_MIN, NOMINAL_S, Calibrator  # noqa: E402
from tracing import Tracer, clock  # noqa: E402
from workloads import WORKLOADS, Checked, digest  # noqa: E402

SETUP_REPEATS = 21

# Samples the host's speed while a timed run is on; its handler's CPU time
# is left out of every job and set-up it interrupts.
CALIBRATOR = Calibrator()


def metric_units():
    """Metric names and units, in order, from BENCHMARK.json at the root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def host_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "commit": _commit(),
        "source_digest": digest(
            p.relative_to(ROOT).as_posix() + "\n" + p.read_text()
            for p in sorted(SRC.rglob("*.py"))),
    }


def _commit():
    """HEAD's commit when the checkout is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def import_fresh():
    """Import metalogic from this checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "metalogic" or n.startswith("metalogic.")]:
        del sys.modules[name]
    ml = importlib.import_module("metalogic")
    if Path(ml.__file__).resolve().parent != SRC / "metalogic":
        raise SystemExit(f"metalogic was imported from {ml.__file__}, not {SRC}")
    return ml


def setup(workload, seed, scale):
    """Import, generate inputs and build calculi several times; keep the last.

    Returns the state, the median raw set-up time and the mean kernel time
    sampled while setting up (None when the calibrator took no samples)."""
    mark = len(CALIBRATOR.samples)
    times = []
    for _ in range(SETUP_REPEATS):
        spent = CALIBRATOR.spent
        start = clock()
        ml = import_fresh()
        state = workload.setup(ml, seed, scale)
        times.append(clock() - start - (CALIBRATOR.spent - spent))
        # Free the previous copy's modules and inputs (they hold cycles)
        # before the next, so repeats do not raise peak_rss_mib.
        gc.collect()
    return state, statistics.median(times), CALIBRATOR.mean_since(mark)


class Tally:
    """Job outcomes of one run: CPU times per job, answers and failures."""

    def __init__(self, jobs):
        self.times = {job.name: [] for job in jobs}
        # per job run: the mean kernel time sampled around it, or None
        self.kernel = {job.name: [] for job in jobs}
        self._open = []  # runs of the current pass still without a kernel time
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.answers = {}
        self.errors = []

    def record(self, job, elapsed, checked, kernel=None):
        self.times[job.name].append(elapsed)
        self.kernel[job.name].append(kernel)
        if kernel is None:
            self._open.append((job.name, len(self.kernel[job.name]) - 1))
        self.attempted += 1
        self.answers[checked.answer] = self.answers.get(checked.answer, 0) + 1
        if checked.answer not in ("inconclusive", "error"):
            self.decided += 1
        if checked.errors:
            self.failed += 1
            self.errors.extend(f"{job.name}: {e}" for e in checked.errors[:3])

    def close_pass(self, kernel):
        """Give the pass's mean kernel time to its runs that had none."""
        if kernel is not None:
            for name, index in self._open:
                self.kernel[name][index] = kernel
        self._open = []

    def calibrated(self, run_kernel):
        """Each job's times, calibrated by the kernel time recorded for each
        run, or by ``run_kernel`` where none was."""
        return {name: [t * NOMINAL_S / (k or run_kernel)
                       for t, k in zip(ts, self.kernel[name])]
                for name, ts in self.times.items()}

    def fail_stream(self, message):
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)


def run_job(job, tracer=None):
    token = tracer.begin_job(job.name) if tracer else None
    spent = CALIBRATOR.spent
    start = clock()
    try:
        result = job.run()
        error = None
    except Exception as exc:  # a job that raises counts as failed, the run goes on
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = clock() - start - (CALIBRATOR.spent - spent)
    if tracer:
        tracer.end_job(token)
        tracer.paused += 1
    try:
        if error is not None:
            checked = Checked("error", [error], error)
        else:
            try:
                checked = job.check(result)
            except Exception as exc:  # a malformed output is a failed check
                checked = Checked("error", [f"check raised {type(exc).__name__}: {exc}"], "")
    finally:
        if tracer:
            tracer.paused -= 1
    return elapsed, checked


def run_passes(jobs, tally, seconds, expected_digest):
    """Cycle through the job list until the time is used; every job runs once.

    A job run that spans LOCAL_MIN kernel samples is calibrated by their
    mean; a shorter one by the mean of the samples taken during its pass."""
    begin = time.perf_counter()
    last = {}
    prints = []
    first_digest = None
    while True:
        pass_mark = len(CALIBRATOR.samples)
        for job in jobs:
            now = time.perf_counter()
            if len(last) == len(jobs) and now - begin + last[job.name] > seconds:
                tally.close_pass(CALIBRATOR.mean_since(pass_mark))
                return now - begin, first_digest
            mark = len(CALIBRATOR.samples)
            elapsed, checked = run_job(job)
            last[job.name] = elapsed
            tally.record(job, elapsed, checked, CALIBRATOR.mean_since(mark, LOCAL_MIN))
            prints.append(checked.fingerprint)
        tally.close_pass(CALIBRATOR.mean_since(pass_mark))
        stream = digest(prints)
        prints = []
        if first_digest is None:
            first_digest = stream
            if expected_digest is not None and stream != expected_digest:
                tally.fail_stream("the pass digest differs from the recorded one")
        elif stream != first_digest:
            tally.fail_stream("a later pass gave different output from the first")


def one_pass(jobs, tally, tracer=None):
    """Run the job list once; returns the summed job time and the pass digest."""
    prints = []
    total = 0.0
    for job in jobs:
        elapsed, checked = run_job(job, tracer)
        total += elapsed
        tally.record(job, elapsed, checked)
        prints.append(checked.fingerprint)
    return total, digest(prints)


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(tally, setup_s, run_kernel=None):
    """The end-to-end metrics. With ``run_kernel``, the run's mean kernel
    time, job times are calibrated (Tally.calibrated); without, they are raw.
    ``setup_s`` is taken as given."""
    # Each job counts once, at its median time in this run: the job list is
    # fixed, so this is the latency distribution over the list, and a noisy
    # pass or a run that fits one more pass of a long job does not shift it.
    times = tally.calibrated(run_kernel) if run_kernel else tally.times
    typical = sorted(statistics.median(ts) for ts in times.values() if ts)
    return {
        "setup_s": setup_s,
        "cpu_s": sum(typical),
        "query_p50_ms": 1000.0 * statistics.median(typical),
        "query_p90_ms": 1000.0 * quantile(typical, 0.9),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided_ratio": tally.decided / tally.attempted,
    }


def prepare(workload, state, record):
    """The job list, a fresh tally and the recorded digest, if any."""
    jobs = workload.jobs(state)
    recorded = json.loads((HERE / "digests.json").read_text())
    key = workload.digest_key(state)
    expected = recorded.get(workload.name, {}).get(key)
    record.update(digest_key=key, digest_recorded=expected is not None)
    return state["ml"], jobs, Tally(jobs), expected


def traced_metrics(ml, jobs, tally, expected_digest):
    untraced, stream = one_pass(jobs, tally)
    if expected_digest is not None and stream != expected_digest:
        tally.fail_stream("the pass digest differs from the recorded one")
    tracer = Tracer(ml)
    tracer.install()
    try:
        traced, traced_stream = one_pass(jobs, tally, tracer)
    finally:
        tracer.uninstall()
    if traced_stream != stream:
        tally.fail_stream("the traced pass gave different output from the untraced one")
    counts, ratios, self_s = tracer.layer_metrics()
    layers = dict(counts)
    layers.update(ratios)
    layers.update(self_s)
    layers["trace.cpu_s"] = traced
    layers["trace.untraced_cpu_s"] = untraced
    layers["trace.overhead_s"] = traced - untraced
    # Job time no wrapped layer claimed: harness glue around each job plus
    # package code outside the wrapped layers.
    layers["trace.unassigned_s"] = tracer.unassigned_s()
    return layers, tracer.span_records(), tracer.job_layers(), stream


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same jobs on small inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "metalogic" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'metalogic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    end_to_end_units, per_layer = metric_units()
    host = host_record()
    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "scale": args.scale,
              "seconds": args.seconds, "trace": args.trace, "host": host}
    if args.trace:
        state, _, _ = setup(workload, args.seed, args.scale)
        ml, jobs, tally, expected = prepare(workload, state, record)
        layers, spans, job_layers, stream = traced_metrics(ml, jobs, tally, expected)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in per_layer.items()}
        record["layers"] = dict(sorted(layers.items()))
        record["job_layers"] = job_layers
        record["spans"] = spans
    else:
        CALIBRATOR.start()
        try:
            state, setup_s, setup_kernel = setup(workload, args.seed, args.scale)
            ml, jobs, tally, expected = prepare(workload, state, record)
            measured, stream = run_passes(jobs, tally, args.seconds, expected)
        finally:
            CALIBRATOR.stop()
        run_kernel = CALIBRATOR.mean_since(0)
        if run_kernel is None:
            raise SystemExit("perfbench: the calibration kernel never ran")
        setup_cal = setup_s * NOMINAL_S / (setup_kernel or run_kernel)
        values = end_to_end(tally, setup_cal, run_kernel)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_to_end_units.items()}
        record["measured_s"] = measured
        record["error_ratio"] = tally.failed / tally.attempted
        record["samples"] = sum(len(ts) for ts in tally.times.values())
        record["calibration"] = {
            "nominal_s": NOMINAL_S, "kernel_samples": len(CALIBRATOR.samples),
            "kernel_mean_s": run_kernel, "setup_kernel_mean_s": setup_kernel,
            "kernel_spent_s": CALIBRATOR.spent,
            "uncalibrated": end_to_end(tally, setup_s)}
    record.update(stream_digest=stream, answers=tally.answers, errors=tally.errors[:50],
                  metrics=metrics)

    OUT.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-{args.scale}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"host: {json.dumps(host)}")
    print(f"workload {workload.name} seed {args.seed} ({args.scale}): "
          f"{tally.attempted} jobs, {tally.failed} failed, answers {tally.answers}")
    for line in tally.errors[:10]:
        print(f"  error: {line}")
    if args.trace:
        print_layer_table(record["layers"], record["job_layers"])
    for metric, entry in metrics.items():
        print(f"  {metric:45s} {entry['value']:.6g} {entry['unit']}")
    print(f"record: {OUT.relative_to(ROOT) / name}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def print_layer_table(layers, job_layers):
    total = layers["trace.cpu_s"]
    rows = sorted(((v, k[:-len(".self_s")]) for k, v in layers.items()
                   if k.endswith(".self_s")), reverse=True)
    print(f"  self time by layer (traced pass {total:.3f} s, "
          f"unassigned {layers['trace.unassigned_s']:.3f} s):")
    for value, name in rows:
        print(f"    {name:40s} {value:9.4f} s {100 * value / total:5.1f}%")
    if len(job_layers) <= 10:
        for job, by_layer in job_layers.items():
            top = ", ".join(f"{name} {value:.3f} s" for name, value in
                            [item for item in by_layer.items()
                             if not item[0].startswith("trace.")][:3])
            print(f"  {job}: {top}")


if __name__ == "__main__":
    sys.exit(main())
