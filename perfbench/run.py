"""dmlab benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; dmlab is imported from its ``src``.
The parent starts one child at a time (one process, one thread, jobs back to
back).  One child measures; ``SETUP_PROBES`` more, half before it and half
after, only import dmlab and make the inputs, to time set-up.  With
``--trace 0`` the measuring child runs whole passes over the job list for up
to ``--seconds`` (at least one pass) and reports the end-to-end metrics.
With ``--trace 1`` it runs one pass untraced and one traced, reports the
per-layer metrics and writes the spans to ``.perfbench_out/``.  Every job's
output is checked; a wrong output or an exception counts as a failed job and
the run goes on.

A shared machine's speed drifts by up to 2x within seconds, and a process's
CPU time drifts with it.  So with ``--trace 0`` an interval timer makes the
measuring child time ``calibration_work``, a fixed pure-Python computation,
every ``CAL_EVERY_S``, in the middle of a job too.  Each stretch of a job
between two probes is divided by the mean of their times, and the probes'
own time is left out.  ``wall_cal`` is a pass in those units: the per-job
median over passes, summed over the jobs.  ``setup_s`` is likewise scaled by the calibration times taken around
the set-up, to the speed at which ``calibration_work`` takes
``CAL_REFERENCE_S``.  The raw seconds are in the detail record.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it is a detail record: the environment, the
input sizes, the machine-independent counts and a digest of every verdict.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import signal
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracer

WORKLOADS = ("census", "search_oracle", "filter_stream", "construct_verify")
SETUP_PROBES = 6
CAL_EVERY_S = 0.2  # wall time between two calibration probes
CAL_REFERENCE_S = 0.010  # calibration_work's time at the speed setup_s is given at
TIME_LIMIT_S = 170.0  # the whole run, children included

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_cal", "cal"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs each workload on small inputs, for the smoke tests")
    p.add_argument("--role", choices=("parent", "setup", "measure"), default="parent",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------

def _load(args):
    """Import dmlab from this checkout and make the inputs; timed as set-up."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dmlab
    import workloads

    if Path(dmlab.__file__).resolve().parent != SRC / "dmlab":
        raise SystemExit(f"dmlab was imported from {dmlab.__file__}, not from {SRC}")
    jobs = workloads.make_jobs(args.workload, args.seed, args.size)
    return workloads, jobs, time.perf_counter() - start


def calibration_work() -> int:
    """A fixed pure-Python computation of about 10 ms: integer arithmetic,
    dict updates, a sort and a Fraction elimination, the kinds of work dmlab
    does.  Its time is the unit of ``wall_cal``."""
    acc = 0
    table = {}
    for i in range(8000):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    rows = sorted(table.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    acc += sum(k for k, _ in rows[:50])
    n = 10
    m = [[Fraction((i * 5 + j * 3) % 7 - 3, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return acc + sum(x.denominator for row in m for x in row)


def _time_calibration() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def _setup(args):
    """Set up between calibration probes; returns the set-up time raw and
    scaled to the reference speed, with the workload module and the jobs."""
    before = [_time_calibration() for _ in range(3)]
    workloads, jobs, raw = _load(args)
    after = [_time_calibration() for _ in range(3)]
    scaled = raw * CAL_REFERENCE_S / statistics.median(before + after)
    return workloads, jobs, {"setup_s": scaled, "setup_raw_s": raw}


class Calibration:
    """Probes of ``calibration_work``, taken by an interval timer every
    ``CAL_EVERY_S`` of wall time, in the middle of a job too, so that a long
    job is measured against the machine's speed while it ran."""

    def __init__(self):
        self.probes = []  # (start, end) of each probe, in order

    def _probe(self, *_):
        # A collection of dmlab's heap inside a probe would time the heap.
        gc.disable()
        start = time.perf_counter()
        calibration_work()
        self.probes.append((start, time.perf_counter()))
        gc.enable()
        # One-shot, re-armed after the probe: probes never overlap.
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        self._probe()

    def stop(self):
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, 0)

    def times(self) -> list:
        return [end - start for start, end in self.probes]

    def measure(self, start: float, end: float) -> tuple:
        """Time in ``[start, end]`` outside the probes, raw and in calibration
        units: each stretch between two probes divided by the mean of their
        times."""
        raw = cal = 0.0
        k = max(0, bisect.bisect_right(self.probes, (start,)) - 1)
        for (s0, e0), (s1, e1) in zip(self.probes[k:], self.probes[k + 1:]):
            if e0 >= end:
                break
            part = min(end, s1) - max(start, e0)
            if part > 0:
                raw += part
                cal += part / ((e0 - s0 + e1 - s1) / 2)
        return raw, cal


def _run_pass(workloads, jobs, rec, mode):
    """Run every job once; returns its timings, signatures and failures."""
    rec.reset()
    job_span, signatures, errors = [], [], []
    for i, job in enumerate(jobs):
        rec.mode = mode
        start = time.perf_counter()
        try:
            output = rec.job_span(i, workloads.run_job, job)
        except Exception:
            output = None
            errors.append(f"job {i} raised:\n{traceback.format_exc()}")
        job_span.append((start, time.perf_counter()))
        rec.mode = tracer.OFF
        signature = None
        if output is not None:
            try:
                signature = workloads.check_job(job, output)
            except workloads.CheckFailed as exc:
                errors.append(f"job {i}: {exc}")
            except Exception:
                errors.append(f"job {i} check raised:\n{traceback.format_exc()}")
        # Free the output here, untimed, not when the next job rebinds it.
        del output
        signatures.append(signature)
    return {
        "job_span": job_span,
        "signatures": signatures,
        "errors": errors,
        "counts": dict(sorted({
            **rec.counts,
            **{f"{k}.calls": v for k, v in rec.calls.items() if k != tracer.JOB_SPAN},
        }.items())),
    }


def wall_cal(passes) -> float:
    """Each job's median over the passes of its time in calibration units,
    summed over the jobs: a pass at the machine's speed of the moment."""
    return sum(statistics.median(per_job) for per_job in zip(*(p["job_cal"] for p in passes)))


def _measure_passes(passes, cal):
    """Each job's time outside the probes (``job_s``) and, with probes, in
    calibration units (``job_cal``)."""
    for p in passes:
        spans = p.pop("job_span")
        if cal is None:
            p["job_s"] = [end - start for start, end in spans]
        else:
            measured = [cal.measure(start, end) for start, end in spans]
            p["job_s"] = [raw for raw, _ in measured]
            p["job_cal"] = [c for _, c in measured]
        p["wall_s"] = sum(p["job_s"])


def _digest(signatures):
    return hashlib.sha256(repr(signatures).encode()).hexdigest()[:16]


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _child_measure(args):
    workloads, jobs, setup = _setup(args)
    rec = tracer.Recorder()
    missing = tracer.install(rec)
    passes = []
    if args.trace:
        # No probes here: they would sit inside the spans.
        cal = None
        passes.append(_run_pass(workloads, jobs, rec, tracer.COUNT))
        passes.append(_run_pass(workloads, jobs, rec, tracer.TRACE))
    else:
        cal = Calibration()
        cal.start()
        start = time.perf_counter()
        while True:
            passes.append(_run_pass(workloads, jobs, rec, tracer.COUNT))
            spent = time.perf_counter() - start
            if spent + spent / len(passes) > args.seconds:
                break
        cal.stop()
    _measure_passes(passes, cal)
    # A job whose verdicts differ from the first pass's counts as failed.
    first = passes[0]["signatures"]
    errors = [e for p in passes for e in p["errors"]]
    failed = sum(len(p["errors"]) for p in passes)
    for k, p in enumerate(passes[1:], 1):
        for i, (a, b) in enumerate(zip(first, p["signatures"])):
            if a is not None and b is not None and a != b:
                failed += 1
                errors.append(f"job {i}: pass {k} gave {b!r}, pass 0 gave {a!r}")
    for e in errors:
        print(e, file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "inputs": workloads.describe(jobs),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "counts": passes[0]["counts"],
        "verdict_digest": _digest(first),
        "unwrapped": missing,
        "errors": errors[:5],
    }
    if args.trace:
        untraced, traced = passes[0]["wall_s"], passes[1]["wall_s"]
        metrics = tracer.layer_metrics(rec, traced, untraced)
        units = dict(tracer.PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        rec.write_spans(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
        detail["traced_counts"] = passes[1]["counts"]
    else:
        job_ms = [1e3 * s for p in passes for s in p["job_s"]]
        detail["job_ms_p50_p90"] = [statistics.median(job_ms), _percentile(job_ms, 90)]
        detail["wall_s_median_pass"] = statistics.median(p["wall_s"] for p in passes)
        detail["pass_wall_cal"] = [sum(p["job_cal"]) for p in passes]
        probe_ms = [1e3 * t for t in cal.times()]
        detail["calibration_probes"] = len(probe_ms)
        detail["calibration_ms_min_median_max"] = [
            min(probe_ms), statistics.median(probe_ms), max(probe_ms),
        ]
        metrics = {
            "wall_cal": wall_cal(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    print(json.dumps({
        **setup,
        "detail": detail,
        "attempted": sum(len(p["job_s"]) for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment():
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def _child(args, role, deadline):
    """Run one child to the end; its last stdout line, parsed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left for the {role} child")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} child printed nothing")
    return json.loads(lines[-1])


def _parent(args) -> int:
    if not (SRC / "dmlab" / "__init__.py").is_file():
        print(f"perfbench: no dmlab source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env_before = _environment()
    try:
        # Probes on both sides of the measurement sample the machine's speed
        # over the whole run, not only at its start.
        setup = [_child(args, "setup", deadline) for _ in range(SETUP_PROBES // 2)]
        result = _child(args, "measure", deadline)
        setup += [_child(args, "setup", deadline) for _ in range(SETUP_PROBES // 2)]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup.append(result)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setup), "unit": "s"}
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    detail = {**result["detail"],
              "setup_samples_s": [s["setup_s"] for s in setup],
              "setup_raw_samples_s": [s["setup_raw_s"] for s in setup],
              "environment": env_before, "loadavg_1m_after": os.getloadavg()[0]}
    print(json.dumps({"detail": detail}))
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.role == "setup":
        print(json.dumps(_setup(args)[2]))
        return 0
    if args.role == "measure":
        _child_measure(args)
        return 0
    return _parent(args)


if __name__ == "__main__":
    sys.exit(main())
