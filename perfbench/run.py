"""Benchmark of the ``conductor`` package, run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs whole rounds of the workload's operations, one operation at a time,
until ``--seconds`` have passed (and at least the workload's minimum number
of rounds), checks every result, and prints one JSON object as the last
line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported at a fixed reference speed of the interpreter: a short
pure-Python reference computation runs after every call into the program
(and once a second during long in-process calls), and each call's measured
time is scaled by REFERENCE_S over the mean time of the reference runs
around and within it (see Clock).  The host's speed drifts by 20-40 %
over seconds to minutes; the scaling removes that drift, not differences
in the program.  Raw times are kept in the result file.

With ``--trace 0`` the metrics are the end-to-end ones (see README.md).
With ``--trace 1`` the public functions of the package are wrapped (see
tracer.py) and the metrics are the per-layer spans and counts, per round.
A result file with the run's metadata goes to perfbench/results/.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 5
# typical time of ``reference()`` on a 2-vCPU Xeon under Python 3.11
REFERENCE_S = 0.007
# period of the reference runs taken during a long call
TICK_S = 1.0


def reference():
    """Fixed pure-Python work: Fraction, big-integer and dict arithmetic,
    the mix the package itself spends its time on."""
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3 * i + 1)
    x, m = 3**200, 5**150
    for i in range(1500):
        x = (x * 7 + i) % m
    d = {}
    for i in range(8000):
        d[i % 97] = d.get(i % 97, 0) + i
    return acc, x, d


def timed_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # the names of workloads.BUILDERS, which is not imported before the
    # set-up is timed
    ap.add_argument("--workload", required=True,
                    choices=("finite-oracle", "iwasawa-levels", "ext-annihilation", "cli-inputs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time the import of the package and the input build, print it, exit")
    return ap.parse_args(argv)


def _import_and_build(args):
    """Import the package and build the workload's inputs; the set-up time."""
    sys.path.insert(0, SRC)
    import workloads  # imports conductor

    return workloads.build(args.workload, args.seed, ROOT, traced=bool(args.trace))


def setup_probe(args):
    start = time.perf_counter()
    _import_and_build(args)
    raw = time.perf_counter() - start
    ref = statistics.median(timed_reference() for _ in range(5))
    print(json.dumps({"raw": raw, "scaled": raw * REFERENCE_S / ref}))


def measure_setup(args):
    """Median set-up time over fresh interpreters, so the package import is
    paid each time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % out.stderr[-500:])
        sample = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(sample["raw"])
        scaled.append(sample["scaled"])
    return statistics.median(scaled), statistics.median(raw)


class Clock:
    """The ``step`` given to operations: times one call into the program and
    runs the reference computation after it.  With ``ticks``, a timer also
    runs the reference once a second while a call runs, and that time is
    taken out of the call's; it is off for calls that wait on a child (the
    reference would compete with the child for the CPU) and in the traced
    pass (it would land inside spans).  A call's scaled time is its raw time
    times REFERENCE_S over the mean of the reference times just before,
    during and just after it."""

    def __init__(self, ticks):
        self.refs = []
        self.raw = self.scaled = 0.0
        self._ticks = []  # reference times taken by the timer during calls
        self._tick_s = 0.0  # time spent in those
        self._in_call = False
        self.last_ref = timed_reference()
        self._ticking = ticks
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _tick(self, signum, frame):
        if not self._in_call:
            return
        start = time.perf_counter()
        self._ticks.append(timed_reference())
        self._tick_s += time.perf_counter() - start

    def close(self):
        if self._ticking:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __call__(self, fn, *args, **kwargs):
        n_ticks, tick_s = len(self._ticks), self._tick_s
        self._in_call = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._in_call = False
            dt = time.perf_counter() - start - (self._tick_s - tick_s)
            ref = timed_reference()
            window = [self.last_ref, ref] + self._ticks[n_ticks:]
            self.raw += dt
            self.scaled += dt * REFERENCE_S * len(window) / sum(window)
            self.refs.append(ref)
            self.last_ref = ref

    def take(self):
        """(raw, scaled) seconds since the last take."""
        out = (self.raw, self.scaled)
        self.raw = self.scaled = 0.0
        return out


def run_rounds(wl, seconds, log, ticks, quiet=contextlib.nullcontext):
    """Whole rounds until ``seconds`` have passed.  Returns per-round records
    of raw and scaled operation times, the reference times, and whether
    every check passed.  The checks run inside ``quiet()``."""
    clock = Clock(ticks)
    start = time.perf_counter()
    try:
        return _rounds(wl, seconds, log, clock, start, quiet)
    finally:
        clock.close()


def _rounds(wl, seconds, log, clock, start, quiet):
    rounds = []
    correct = True
    while True:
        raw, scaled, failed = [], [], 0
        for op in wl.ops:
            try:
                result = op.run(clock)
                ok = True
            except Exception as exc:  # a failed operation is counted, not fatal
                ok = False
                log("FAILED %s: %s: %s" % (op.name, type(exc).__name__, exc))
            dt_raw, dt_scaled = clock.take()
            raw.append(dt_raw)
            scaled.append(dt_scaled)
            if not ok:
                failed += 1
                continue
            try:
                with quiet():
                    op.check(result)
            except Exception as exc:  # CheckError, or a result of the wrong shape
                correct = False
                log("WRONG %s: %s: %s" % (op.name, type(exc).__name__, exc))
        rounds.append({"raw": raw, "times": scaled, "failed": failed})
        if len(rounds) >= wl.min_rounds and time.perf_counter() - start >= seconds:
            return rounds, clock.refs, correct


def end_to_end(rounds, setup_s, peak_kb, key="times"):
    per_round = [sum(r[key]) for r in rounds]
    all_ops = [t for r in rounds for t in r[key]]
    return {
        "wall_s": {"value": statistics.median(per_round), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_s": {"value": statistics.median(all_ops), "unit": "s"},
        "op_max_s": {"value": statistics.median(max(r[key]) for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def machine_info(seed, nproc):
    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # only this checkout's own repository, not one that happens to contain it
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": nproc,
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conductor", "__init__.py")):
        print("error: no package source at %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0

    def log(msg):
        print(msg, file=sys.stderr)

    # one CPU for this process and its children, so that the reference runs
    # on the CPU that ran the call it scales
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    setup_s, setup_raw_s = measure_setup(args)
    wl = _import_and_build(args)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    wall_start = time.perf_counter()
    try:
        ticks = not (tracer or wl.child_rss)
        quiet = tracer.pause if tracer else contextlib.nullcontext
        rounds, refs, correct = run_rounds(wl, args.seconds, log, ticks, quiet)
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - wall_start
    attempted = sum(len(r["times"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    peak_kb = wl.child_peak_kb if wl.child_rss else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    e2e = end_to_end(rounds, setup_s, peak_kb)
    speed = REFERENCE_S / statistics.median(refs)
    metrics = tracer.metrics(len(rounds), speed) if tracer else e2e

    record = machine_info(args.seed, len(cpus))
    record.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": len(rounds),
        "elapsed_s": elapsed,
        "ops": attempted,
        "failed": failed,
        "correct": correct,
        "end_to_end": e2e,
        "end_to_end_raw": end_to_end(rounds, setup_raw_s, peak_kb, key="raw"),
        "reference_s": {"nominal": REFERENCE_S, "median": REFERENCE_S / speed},
        "metrics": metrics,
        "op_times": {op.name: [r["times"][i] for r in rounds] for i, op in enumerate(wl.ops)},
        "op_times_raw": {op.name: [r["raw"][i] for r in rounds] for i, op in enumerate(wl.ops)},
    })
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if tracer is not None:
        record["spans"] = len(tracer.spans)
        with open(stem + ".spans.jsonl", "w") as fh:
            for sid, name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
