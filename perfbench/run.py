"""certbound benchmark: one workload, one seed, one line of metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is run from ``src/`` as it is in the checkout.  The run writes
the workload's inputs for the seed (untimed, fingerprints printed), computes
the untimed halton baselines, and then:

* ``--trace 0``: runs the job list over and over for about S seconds.  Each
  job is a fresh ``python -m certbound.cli ... --format json --no-timing``
  process, one at a time (a closed loop with one client).  Between
  repetitions it times a fresh interpreter that imports ``certbound.cli``
  and loads the model files (``setup_s``).  Prints the end-to-end metrics,
  each time the median over repetitions and scaled by the speed probe.
* ``--trace 1``: runs the job list in-process in a fresh worker, once plain
  and once under wrappers (``perfbench/tracer.py``), as often as S seconds
  allow, and prints the per-layer metrics.

The benchmark and its children share one CPU.  Other tenants of a shared
host slow that CPU by up to 2x, for seconds or minutes at a time.  The speed
probe (``perfbench/probe.py``) shares the CPU too and times a fixed chunk of
interpreter work every 10 ms; each child's times are multiplied by the mean,
over the chunks timed while it ran, of ``PROBE_REF_S / chunk time``, which
turns them into seconds at the CPU's uncontended speed (see
``perfbench/README.md``).

Every report is checked (``perfbench/checks.py``); a job that fails a check,
exits with another code than 0 or runs past its timeout counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from checks import check_report, parse_report, rel_widths, report_evals  # noqa: E402
from workloads import WORKLOADS, Job, make_jobs  # noqa: E402

JOB_TIMEOUT_S = 60.0  # a job past this is killed and counts as failed
RUN_LIMIT_S = 150.0  # no job is started or left running past this
MEMORY_LIMIT = 2 << 30  # address-space cap of each job, in bytes
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_REP = 2
BASELINE_COUNT = 2000
PROBE_PERIOD_S = 0.01  # time between the speed probe's chunks
PROBE_REF_S = 330e-6  # a probe chunk's CPU time beside a job on an uncontended CPU
SETUP_PROBE = (
    "import sys, certbound.cli\n"
    "from certbound.model import load_model\n"
    "for path in sys.argv[1:]:\n"
    "    load_model(path)\n"
)


class SpeedProbe:
    """The speed probe (``probe.py``), a child process that shares the
    benchmark's CPU and reports the time of each of its chunks of work."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), repr(PROBE_PERIOD_S)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        self.fd = self.proc.stdout.fileno()
        os.set_blocking(self.fd, False)
        self.pending = b""

    def read(self) -> list[float]:
        """The chunk times reported since the last read."""
        try:
            data = self.pending + os.read(self.fd, 1 << 16)
        except BlockingIOError:
            return []
        if not data:
            raise RuntimeError("the speed probe has stopped")
        whole = len(data) - len(data) % 8
        self.pending = data[whole:]
        return [t for (t,) in struct.iter_unpack("d", data[:whole])]

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Proc:
    """One finished child process.  ``speed`` is the mean over the speed
    probe's chunks timed while it ran of ``PROBE_REF_S / chunk time``;
    ``probe_s`` is the CPU time those chunks took from the child's CPU."""

    code: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: str
    stderr: str
    timed_out: bool
    speed: float = 1.0
    probe_s: float = 0.0

    @property
    def scaled_wall_s(self) -> float:
        return (self.wall_s - self.probe_s) * self.speed

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.speed


class Runner:
    """Starts children one at a time, each in its own session, probes the
    CPU's speed while each runs, and kills the whole session of a child
    that runs past its timeout."""

    def __init__(self, workdir: str, deadline: float, probe: SpeedProbe):
        self.workdir = workdir
        self.deadline = deadline
        self.probe = probe
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def run(self, argv: list[str], timeout: float = JOB_TIMEOUT_S) -> Proc:
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return Proc(-1, 0.0, 0.0, 0, "", "run time limit reached before start", True)
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        chunks: list[float] = []
        timed_out = False
        self.probe.read()  # drop the chunks timed before this child
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT, start_new_session=True)
            fd = os.pidfd_open(proc.pid)  # readable once the child exits
            try:
                try:
                    resource.prlimit(proc.pid, resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
                except (OSError, ValueError):
                    pass  # the child may already be gone; the limit is only a guard
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if not timed_out and time.perf_counter() - start > timeout:
                        timed_out = True
                        _kill_session(proc.pid)
                    select.select([self.probe.fd, fd], [], [], 1.0)
                    chunks += self.probe.read()
                wall = time.perf_counter() - start
            except BaseException:
                _kill_session(proc.pid)
                proc.wait()
                raise
            finally:
                os.close(fd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        probe_s = sum(chunks)
        while not chunks:  # the child ended before the probe's first chunk
            select.select([self.probe.fd], [], [], 1.0)
            chunks += self.probe.read()
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Proc(
            proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stdout, stderr, timed_out,
            statistics.fmean(PROBE_REF_S / c for c in chunks), probe_s,
        )


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cli_argv(job: Job) -> list[str]:
    return [sys.executable, "-m", "certbound.cli", *job.argv, "--format", "json", "--no-timing"]


def job_problems(job: Job, proc: Proc, baseline: float | None) -> list[str]:
    if proc.timed_out:
        return [f"killed after the timeout ({proc.stderr.strip()[-200:]})"]
    if proc.code != 0:
        return [f"exit code {proc.code}: {proc.stderr.strip()[-300:]}"]
    return check_report(job, proc.stdout, baseline)


def halton_baselines(runner: Runner, jobs: list[Job]) -> dict[str, float]:
    """Sampled lower bound of the Lipschitz constant of each model, untimed."""
    out = {}
    for job in jobs:
        if not job.lipschitz or job.model in out:
            continue
        proc = runner.run([
            sys.executable, "-m", "certbound.cli", "baseline", "--method", "halton",
            "--count", str(BASELINE_COUNT), "--model", job.model, "--format", "json", "--no-timing",
        ])
        try:
            if proc.code == 0:
                out[job.model] = parse_report(proc.stdout)[0]["results"][0]["value"]
        except (ValueError, KeyError, IndexError):
            pass
        if job.model not in out:
            print(f"baseline failed for {job.model}: {proc.stderr.strip()[-300:]}", file=sys.stderr)
    return out


def print_inputs(jobs: list[Job]) -> None:
    seen = set()
    for job in jobs:
        label = os.path.basename(job.model) if job.model else " ".join(job.argv)
        if (label, job.fingerprint) not in seen:
            seen.add((label, job.fingerprint))
            print(f"input {label} sha256={job.fingerprint}")


def run_e2e(runner: Runner, jobs: list[Job], baselines: dict, seconds: float):
    models = sorted({job.model for job in jobs if job.model})
    setup: list[Proc] = []

    def probe_setup(count: int) -> None:
        setup.extend(runner.run([sys.executable, "-c", SETUP_PROBE, *models]) for _ in range(count))

    # Set-up probes are spread over the run, so that a burst of load on the
    # host does not fall on all of them.
    reps: list[list[Proc]] = []
    rep_times: list[float] = []
    loop_start = time.monotonic()
    probe_setup(SETUP_PROBES_FIRST)
    while True:
        start = time.monotonic()
        reps.append([runner.run(cli_argv(job)) for job in jobs])
        probe_setup(SETUP_PROBES_PER_REP)
        rep_times.append(time.monotonic() - start)
        spent = time.monotonic() - loop_start
        if spent + statistics.median(rep_times) > seconds or time.monotonic() > runner.deadline:
            break
    setup_ok = all(p.code == 0 for p in setup)
    if not setup_ok:
        print(f"set-up probe failed: {setup[-1].stderr.strip()[-300:]}", file=sys.stderr)

    attempted = failed = 0
    first_output: dict[int, str] = {}
    for k, rep in enumerate(reps):
        for i, (job, proc) in enumerate(zip(jobs, rep)):
            attempted += 1
            problems = job_problems(job, proc, baselines.get(job.model))
            if not problems and first_output.setdefault(i, proc.stdout) != proc.stdout:
                problems = ["report differs from the first repetition's"]
            if problems:
                failed += 1
                print(f"FAIL {job.name} rep {k}: {'; '.join(problems)}", file=sys.stderr)

    evals, widths = 0, []
    for i in sorted(first_output):
        reports = parse_report(first_output[i])
        evals += report_evals(reports)
        widths += rel_widths(reports)
    def median_rep(seconds) -> float:
        return statistics.median(sum(seconds(p) for p in rep) for rep in reps)

    metrics = {
        "wall_s": (median_rep(lambda p: p.scaled_wall_s), "s"),
        "cpu_s": (median_rep(lambda p: p.scaled_cpu_s), "s"),
        "setup_s": (statistics.median(p.scaled_wall_s for p in setup), "s"),
        "peak_rss_mb": (statistics.median(max(p.rss_kb for p in rep) for rep in reps) / 1024.0, "MB"),
        "evals": (evals, "count"),
        "cert_rel_width": (statistics.fmean(widths) if widths else 0.0, "share"),
        "success_share": ((attempted - failed) / attempted, "share"),
    }
    print(f"repetitions {len(reps)}, set-up probes {len(setup)}")
    print(
        f"unscaled medians: wall_s {median_rep(lambda p: p.wall_s):.4f}, cpu_s {median_rep(lambda p: p.cpu_s):.4f}, "
        f"setup_s {statistics.median(p.wall_s for p in setup):.4f}; "
        f"median probe speed {statistics.median(p.speed for rep in reps for p in rep):.3f} "
        f"(1 = a probe chunk of {PROBE_REF_S * 1e6:.0f} us)"
    )
    return setup_ok and failed == 0, attempted, failed, metrics


# Per-layer metric units; everything not listed is a count.
_SHARE_METRICS = ("expr.slab_invariant_op_share", "bnb.lower_improve_share", "trace.overhead_share")


def run_traced(runner: Runner, workload: str, jobs: list[Job], baselines: dict, seconds: float):
    spec_path = os.path.join(runner.workdir, "spec.json")
    out_path = os.path.join(runner.workdir, "trace.json")
    spans_path = os.path.join(HERE, "_work", f"spans-{workload}.tsv")
    worker = [sys.executable, os.path.join(HERE, "tracer.py"), spec_path, out_path, spans_path]
    results, times = [], []
    attempted = failed = 0
    reported_evals = None
    loop_start = time.monotonic()
    while True:
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"jobs": [[*job.argv, "--format", "json", "--no-timing"] for job in jobs],
                       "traced_first": len(results) % 2 == 1}, fh)
        start = time.monotonic()
        proc = runner.run(worker, timeout=2 * JOB_TIMEOUT_S)
        times.append(time.monotonic() - start)
        if proc.code != 0:
            attempted += 2 * len(jobs)
            failed += 2 * len(jobs)
            print(f"FAIL traced worker: exit {proc.code}: {proc.stderr.strip()[-300:]}", file=sys.stderr)
            break
        with open(out_path, encoding="utf-8") as fh:
            result = json.load(fh)
        for mode, run in result["passes"].items():
            evals = 0
            for job, code, output in zip(jobs, run["codes"], run["outputs"]):
                attempted += 1
                problems = [f"exit code {code}"] if code != 0 else check_report(job, output, baselines.get(job.model))
                if problems:
                    failed += 1
                    print(f"FAIL {job.name} ({mode} pass): {'; '.join(problems)}", file=sys.stderr)
                else:
                    evals += report_evals(parse_report(output))
            reported_evals = evals if reported_evals is None else reported_evals
            if evals != reported_evals:
                failed += 1
                print(f"FAIL reported evals differ between passes: {evals} != {reported_evals}", file=sys.stderr)
        m = result["metrics"]
        if not m["bnb.evals"] == m["intervals.refined_eval_calls"] == reported_evals:
            failed += 1
            print(
                f"FAIL self-check: bnb.evals {m['bnb.evals']}, intervals.refined_eval_calls "
                f"{m['intervals.refined_eval_calls']}, reported evals {reported_evals}",
                file=sys.stderr,
            )
        results.append(m)
        spent = time.monotonic() - loop_start
        if spent + statistics.median(times) > seconds or time.monotonic() > runner.deadline:
            break
    metrics = {}
    if results:
        for name in results[0]:
            value = statistics.median(r[name] for r in results)
            unit = "s" if name.endswith("_s") else "share" if name in _SHARE_METRICS else "count"
            metrics[name] = (value, unit)
    print(f"traced workers {len(results)}; spans of the last traced pass in {os.path.relpath(spans_path, ROOT)}")
    return failed == 0 and bool(results), max(attempted, 1), failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "certbound", "cli.py")):
        print(f"certbound sources not found under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the handlers that stop the children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The benchmark and every child share one CPU, so that the speed probe
    # measures the CPU the jobs run on and nothing of ours contends with them.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    probe = None
    try:
        probe = SpeedProbe()
        runner = Runner(workdir, deadline, probe)
        jobs = make_jobs(args.workload, args.seed, workdir)
        print_inputs(jobs)
        subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "certbound")], check=True)
        baselines = halton_baselines(runner, jobs)
        if args.trace:
            correct, attempted, failed, metrics = run_traced(runner, args.workload, jobs, baselines, args.seconds)
        else:
            correct, attempted, failed, metrics = run_e2e(runner, jobs, baselines, args.seconds)
    finally:
        if probe is not None:
            probe.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
