"""Seeded end-to-end benchmark of the zerolap command line.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is taken from
``src/`` (nothing needs installing). The benchmark generates the
workload's instances from ``--seed``, then drives the real CLI
(``python -m zerolap.cli``) one child process at a time: a closed loop
with one client, so on a small machine the figures measure the program,
not the scheduler. Calls go round-robin over the instances until
``--seconds`` of calls are measured, with probes between them that gauge
set-up cost and machine speed (see ``bench/README.md``). Every report is
checked by ``check.py``; a wrong exit code, a timeout or a failed check
counts as a failed call.

With ``--trace 1`` the same calls run in this process through
``zerolap.cli.main`` instead, once untraced and once with spans around the
program's public functions (``tracing.py``), and the per-layer metrics
are printed. Spans go to ``.bench/trace-<workload>-<seed>.jsonl.gz``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_CALLS = 7  # fewest timed `components` calls behind setup_s
PROBE_EVERY_S = 1.0  # seconds of workload calls between two probes
# A fixed program, independent of zerolap, timed beside the workload as a
# gauge of machine speed. It does the program's kinds of work in small:
# interpreter start, the numpy import, integer row operations on a
# list-of-lists matrix (as in the Smith normal form) and a plain loop.
REFERENCE_PROGRAM = """
import random
import numpy
rng = random.Random(1)
n = 120
a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
for step in range(1500):
    i, j = step % n, (7 * step + 3) % n
    a[i] = [x + (step % 5 - 2) * y for x, y in zip(a[i], a[j])]
s = 0
for i in range(100_000):
    s += i * i % 7
"""
REFERENCE_S = 0.2  # its median time on the 2-core host the benchmark was tuned on
CALL_TIMEOUT_S = 60.0  # one call past this is killed and counted as failed
RUN_DEADLINE_S = 150.0  # no call starts, or runs, past this point of the run

E2E_UNITS = {
    "wall_s": "s",
    "call_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "crosscheck_coverage": "ratio",
}


class Failures:
    """Attempted and failed call counts, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def fail(self, reason):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def run_cli(argv, out_path, err_path, timeout):
    """One CLI child: (exit code or None on timeout, wall seconds, max RSS in MB)."""
    return run_child([sys.executable, "-m", "zerolap.cli", *argv], out_path, err_path, timeout)


def run_child(cmd, out_path, err_path, timeout):
    """Run one child with ``src`` on its path and wait for it, killing it at ``timeout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        timed_out = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
                    timed_out = True
                    proc.kill()
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out else proc.returncode), elapsed, usage.ru_maxrss / 1024


def check_output(check, command, text, inst) -> tuple[str | None, dict | None]:
    """(failure reason or None, parsed report)."""
    try:
        report = json.loads(text)
        check.CHECKERS[command](report, inst)
    except check.CheckError as exc:
        return f"{inst.name}: {exc}", None
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"{inst.name}: malformed report ({type(exc).__name__}: {exc})", None
    return None, report


def tail(samples):
    """(value, percentile): the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies and the maximum is given.
    """
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


class Probe:
    """Calls spread over the run that gauge set-up cost and machine speed.

    A probe comes before the first workload call and then after every
    PROBE_EVERY_S of workload calls. Each runs the fixed reference program
    (its median over REFERENCE_S is the run's speed factor); every other
    one also runs a `components` call, cycling through the instances (its
    median is setup_s).
    """

    def __init__(self, wl, work, failures, deadline):
        self.wl, self.work, self.failures, self.deadline = wl, work, failures, deadline
        self.setup: list = []
        self.reference: list = []
        self.components_calls = 0
        self.since = 0.0

    def call(self):
        self.since = 0.0
        timeout = min(CALL_TIMEOUT_S, self.deadline - time.monotonic())
        out, err = self.work / "probe.json", self.work / "err.txt"
        if len(self.reference) % 2 == 0:
            inst = self.wl.instances[self.components_calls % len(self.wl.instances)]
            self.components_calls += 1
            self.failures.attempted += 1
            code, secs, _ = run_cli(["components", "--input", str(inst.path)], out, err, timeout)
            try:
                got = [c["vertices"] for c in json.loads(out.read_bytes())["components"]]
            except (ValueError, KeyError, TypeError) as exc:
                got = exc
            if code != 0 or got != [list(c) for c in inst.components]:
                self.failures.fail(f"{inst.name}: components exit {code}, report {got!r:.80}")
            elif self.components_calls > 1:  # the first call warms the byte-code cache
                self.setup.append(secs)
        code, secs, _ = run_child([sys.executable, "-c", REFERENCE_PROGRAM], out, err, timeout)
        if code != 0:
            raise RuntimeError(f"reference program failed with exit {code}")
        self.reference.append(secs)

    def after(self, secs):
        self.since += secs
        if self.since >= PROBE_EVERY_S and time.monotonic() < self.deadline:
            self.call()

    @property
    def speed(self) -> float:
        return statistics.median(self.reference) / REFERENCE_S


def e2e_run(wl, check, seconds, work, failures, deadline):
    """Round-robin calls over the instances until ``seconds`` of calls are measured.

    Every instance is called at least once. Machine speed can wander by a
    quarter within seconds on a shared host, so repetitions are spread
    across the run: wall_s sums each instance's median call time, and
    call_p50_s and the printed tail are order statistics of every call.
    """
    probe = Probe(wl, work, failures, deadline)
    probe.call()
    command = wl.command[0]
    digests: dict = {}  # instance name -> digest of its last good report
    times: dict = {inst.name: [] for inst in wl.instances}
    rss = []
    measured = 0.0
    calls = 0
    decided = reported = 0
    sample = None  # (report, instance) for the checker self-test
    while calls < len(wl.instances) or measured < seconds:
        inst = wl.instances[calls % len(wl.instances)]
        first_round = calls < len(wl.instances)
        calls += 1
        failures.attempted += 1
        timeout = min(CALL_TIMEOUT_S, deadline - time.monotonic())
        if timeout <= 0:
            failures.fail(f"{inst.name}: run deadline reached")
            break
        out = work / f"{inst.name}.out"
        code, secs, maxrss = run_cli([*wl.command, "--input", str(inst.path)], out, work / "err.txt", timeout)
        measured += secs
        rss.append(maxrss)
        probe.after(secs)
        if code != 0:
            err = (work / "err.txt").read_text(errors="replace").strip().splitlines()[-1:]
            failures.fail(f"{inst.name}: exit {'timeout' if code is None else code} {err}")
            continue
        times[inst.name].append(secs)
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digests.get(inst.name) == digest:
            continue
        reason, report = check_output(check, command, data, inst)
        if reason:
            failures.fail(reason)
            continue
        digests[inst.name] = digest
        if first_round:
            d, r = check.identity_tally(report)
            decided, reported = decided + d, reported + r
            if sample is None:
                sample = (report, inst)
    while len(probe.setup) < SETUP_CALLS and time.monotonic() < deadline:
        probe.call()
    missed = check.self_test(command, *sample) if sample else ["no report passed the checker"]
    per_call = [statistics.median(t) for t in times.values() if t]
    samples = [secs for t in times.values() for secs in t]
    tail_value, tail_pct = tail(samples) if samples else (float("nan"), 0.0)
    raw = {
        "wall_s": sum(per_call) if len(per_call) == len(times) else float("nan"),
        "call_p50_s": statistics.median(samples) if samples else float("nan"),
        "setup_s": statistics.median(probe.setup) if probe.setup else float("nan"),
    }
    metrics = {name: value / probe.speed for name, value in raw.items()}
    metrics["peak_rss_mb"] = max(rss, default=float("nan"))
    metrics["crosscheck_coverage"] = decided / reported if reported else float("nan")
    notes = [
        f"calls={calls} over {len(wl.instances)} instances, each called"
        f" {min(map(len, times.values()), default=0)} to {max(map(len, times.values()), default=0)} times",
        f"speed factor {probe.speed:.4f}: median of {len(probe.reference)} reference-program runs"
        f" over {REFERENCE_S} s; every time below is divided by it",
        "unscaled: " + ", ".join(f"{name} {value:.4f} s" for name, value in raw.items()),
        f"wall_s: sum over the {len(per_call)} instances of their median call time",
        f"call_p50_s: median of {len(samples)} calls",
        f"call tail (printed, not gated): p{tail_pct:.1f} of {len(samples)} calls is"
        f" {tail_value / probe.speed:.4f} s"
        + (" (10 beyond it)" if len(samples) > 10 else " (the maximum; 10 or fewer calls)"),
        f"setup_s: median of {len(probe.setup)} `components` calls spread over the run",
        f"crosscheck_coverage: {decided} of {reported} identities decided",
    ]
    return metrics, E2E_UNITS, missed, notes


class CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimeout()


def in_process_pass(cli, wl, tracer, deadline, failures):
    """Every call through cli.main in this process: (wall, outputs by instance)."""
    outputs = {}
    wall = 0.0
    signal.signal(signal.SIGALRM, _alarm)
    for inst in wl.instances:
        failures.attempted += 1
        timeout = min(CALL_TIMEOUT_S, deadline - time.monotonic())
        if timeout <= 0:
            failures.fail(f"{inst.name}: run deadline reached")
            continue
        out, err = io.StringIO(), io.StringIO()
        argv = [*wl.command, "--input", str(inst.path)]
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.instance = inst.name
                    span = tracer.open("cli.main")
                    try:
                        code = cli.main(argv)
                    finally:
                        tracer.close(span)
        except CallTimeout:
            code = "timeout"
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall += time.perf_counter() - start
        if code != 0:
            failures.fail(f"{inst.name}: exit {code}")
            continue
        outputs[inst.name] = out.getvalue()
    return wall, outputs


def traced_run(wl, seed, check, seconds, failures, deadline):
    import tracing
    from zerolap import cli, zk_solver

    command = wl.command[0]
    runs = []  # (untraced wall, traced wall, layer metrics)
    first_tracer = None
    sample = None  # (report, instance) for the checker self-test
    while True:
        untraced_wall, plain = in_process_pass(cli, wl, None, deadline, failures)
        tracer = tracing.Tracer()
        sampler = tracing.SnfSampler(zk_solver.smith_normal_form)
        tracer.install(json)
        try:
            with sampler:
                traced_wall, outputs = in_process_pass(cli, wl, tracer, deadline, failures)
        finally:
            tracer.uninstall()
        for inst in wl.instances:
            text = outputs.get(inst.name)
            if text is None:
                continue
            if text != plain.get(inst.name):
                failures.fail(f"{inst.name}: traced report differs from untraced report")
            elif not runs:
                reason, report = check_output(check, command, text, inst)
                if reason:
                    failures.fail(reason)
                elif sample is None:
                    sample = (report, inst)
        output_bytes = sum(len(t.encode()) for t in outputs.values())
        runs.append((untraced_wall, traced_wall, tracing.layer_metrics(tracer, output_bytes, sampler.share)))
        if first_tracer is None:
            first_tracer = tracer
        pair = untraced_wall + traced_wall
        if sum(u + t for u, t, _ in runs) + pair > seconds or time.monotonic() + pair > deadline:
            break
    (ROOT / ".bench").mkdir(exist_ok=True)
    first_tracer.write(ROOT / ".bench" / f"trace-{wl.name}-{seed}.jsonl.gz")
    metrics = {
        name: statistics.median_low(r[2][name] for r in runs) for name in runs[0][2]
    }
    untraced = statistics.median(r[0] for r in runs)
    traced = statistics.median(r[1] for r in runs)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.untraced_wall_s"] = untraced
    units = {name: _layer_unit(name) for name in metrics}
    notes = [f"traced passes={len(runs)}; spans in first pass={len(first_tracer.spans)}"]
    if first_tracer.missing:
        notes.append(f"not found, so not traced: {', '.join(first_tracer.missing)}")
    missed = check.self_test(command, *sample) if sample else ["no report passed the checker"]
    return metrics, units, missed, notes


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_yield", "per_component")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child: the CPUs of a shared host
        # slow down independently, and the reference program must see the
        # same CPU as the calls it gauges.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "zerolap" / "cli.py").is_file():
        print(f"error: no zerolap sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    work = ROOT / ".bench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    failures = Failures()
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, work)
        generated = time.monotonic() - started
        if args.trace:
            metrics, units, missed, notes = traced_run(wl, args.seed, check, args.seconds, failures, deadline)
        else:
            metrics, units, missed, notes = e2e_run(wl, check, args.seconds, work, failures, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={wl.name} seed={args.seed} instances={len(wl.instances)} generated_in={generated:.2f}s")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_ratio {failures.failed / max(failures.attempted, 1)} ({failures.failed}/{failures.attempted})")
    for reason in failures.reasons:
        print(f"failed: {reason}")
    for label in missed:
        print(f"checker self-test: corruption not rejected: {label}")
    result = {
        "correct": failures.failed == 0 and not missed,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
