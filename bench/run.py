"""End-to-end and per-layer benchmark of the jetres CLI.

Run from the repository root:

    python3 bench/run.py --workload threshold-n4 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's CLI jobs run as fresh child processes, one
at a time (a closed loop with one client), repeated for ``--seconds``.  Each
job is timed from spawn to exit, its CPU time and peak RSS come from
``wait4``, and its output is checked against a recorded reference document
(with ``elapsed_seconds`` removed) and against invariants that hold without
one.  Times are reported in reference seconds: while a job runs it is
stopped every quarter second for a fixed calibration loop on the same CPU,
and its time is scaled by how much slower than nominal that loop ran (see
``calibrate``), which takes a shared host's changing speed out of the
figures.  Set-up time is the median of several jobs that do no computation.
With ``--trace 1`` the workload runs once untraced and twice under
``bench/tracer.py``, which attaches spans and counters to the package's public
functions from outside; the two traced passes must give identical counts.

The second-to-last line of standard output is a JSON report (seed, inputs,
samples, machine, load and CPU steal, findings); the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
REFERENCES = BENCH / "references"

# A run must end well inside 180 s, set-up and traced passes included.
RUN_BUDGET_S = 170.0
SETUP_SAMPLES = 24  # many: one set-up job is short and a shared host drifts
SAMPLE_INTERVAL_S = 0.25  # job time between two calibration samples
CAL_REF_S = 0.015  # calibration loop's time on the reference host; see calibrate()
TRACED_PASSES = 2


# -- workloads ---------------------------------------------------------------


def _threshold_ok(doc: dict) -> str | None:
    result = doc["result"]
    if result["certificate"] is not True:
        return "certificate is not true"
    if not all(s["positive"] for s in result["spot_checks"]):
        return "a spot check is not positive"
    return None


def _diagnostics_ok(doc: dict) -> str | None:
    return None if doc["result"]["all_passed"] is True else "all_passed is not true"


def _verified(doc: dict) -> str | None:
    return None if doc.get("verify", {}).get("match") is True else "routes not verified"


def _integral_ok(doc: dict) -> str | None:
    if doc["result"].get("degree_matched") is not True:
        return "payload degree not matched"
    return _verified(doc)


def _setup_ok(doc: dict) -> str | None:
    ok = doc["result"]["classification"] == "relatively_ample"
    return None if ok else "ample-check misclassified (3,1)"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    invariant: Callable[[dict], str | None]
    pinned: bool  # compared against a recorded reference document

    @property
    def reference(self) -> str:
        return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(self.argv)).strip("-") + ".json"


# workload -> (full job, smoke job at n = 2), for the workloads with fixed inputs
FIXED = {
    "threshold-n4": (("ggl", "-n", "4"), ("ggl", "-n", "2"), _threshold_ok),
    "diagnostics-n3": (("diagnostics", "-n", "3"), ("diagnostics", "-n", "2"), _diagnostics_ok),
    "euler-n3k2": (
        ("euler-char", "-n", "3", "-k", "2", "--a", "9,3"),
        ("euler-char", "-n", "2", "-k", "2", "--a", "6,2"),
        lambda doc: None,
    ),
}
WORKLOADS = (*FIXED, "routes")
SETUP_JOB = Job(("ample-check", "--a", "3,1"), _setup_ok, pinned=True)  # no computation


def _linear_power(rng: random.Random, variables: list[str], degree: int) -> str:
    """(c1*v1 + c2*v2 + ...)^degree with seeded nonzero coefficients, c1 > 0."""
    text = ""
    for i, var in enumerate(variables):
        c = rng.randint(1, 5) * (1 if i == 0 else rng.choice((1, -1)))
        text += f"{'-' if c < 0 else '+' if i else ''}{abs(c)}*{var}"
    return f"({text})^{degree}"


def _generic_lambdas(rng: random.Random, n: int, k: int) -> list[int]:
    """Distinct integer weights at which no fixed point's Euler class vanishes."""
    sys.path.insert(0, str(ROOT / "src"))
    from jetres.tower import enumerate_fixed_points, euler_value

    points = enumerate_fixed_points(n, k)
    while True:
        lams = rng.sample([v for v in range(-12, 13) if v], n)
        if all(euler_value(fp, lams) != 0 for fp in points):
            return lams


def _routes_jobs(seed: int, smoke: bool) -> list[Job]:
    """Expansion vs stepwise residues, then fixed points vs residues."""
    rng = random.Random(seed)
    n1, k1, n2, k2 = (2, 2, 2, 2) if smoke else (3, 3, 4, 4)
    integral = _linear_power(rng, [f"u{i}" for i in range(1, k1 + 1)] + ["h"], n1 + k1 * (n1 - 1))
    fibre = _linear_power(rng, [f"u{i}" for i in range(1, k2 + 1)], k2 * (n2 - 1))
    lams = ",".join(str(v) for v in _generic_lambdas(rng, n2, k2))
    return [
        Job(("integral", "-n", str(n1), "-k", str(k1), "--polynomial", integral, "--verify"),
            _integral_ok, pinned=False),
        Job(("fibre-integral", "-n", str(n2), "-k", str(k2), "--method", "fixed-point",
             "--polynomial", fibre, f"--lambdas={lams}", "--verify"),
            _verified, pinned=False),
    ]


def workload_jobs(workload: str, seed: int, smoke: bool) -> tuple[list[Job], bool]:
    """The workload's jobs and whether they depend on the seed."""
    if workload == "routes":
        return _routes_jobs(seed, smoke), True
    full, small, invariant = FIXED[workload]
    return [Job(small if smoke else full, invariant, pinned=True)], False


# -- calibration ---------------------------------------------------------------

_CAL_POLY = {(i, j): Fraction(i - 5, j + 3) for i in range(5) for j in range(5)}


@dataclass(frozen=True)
class Calibration:
    wall_s: float
    cpu_s: float


def calibrate() -> Calibration:
    """Time a fixed loop of sparse products with Fraction coefficients.

    It is the kind of work the jobs do (dicts of exponent tuples over the
    rationals) but uses nothing from jetres, so a change to the package does
    not move it, while a shared host that runs Python slower at the moment
    slows it as much as it slows a job on the same CPU.
    """
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(5):
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), x in _CAL_POLY.items():
            for (k, m), y in _CAL_POLY.items():
                key = (i + k, j + m)
                out[key] = out.get(key, 0) + x * y
    return Calibration(time.perf_counter() - w0, time.process_time() - c0)


def reference_seconds(seconds: float, loop_s: list[float]) -> float:
    """Seconds on a host where the calibration loop takes CAL_REF_S.

    loop_s are the loop's times taken while the job ran; their mean is the
    host's average slowness over the job, which the job's time is divided by.
    """
    return seconds * CAL_REF_S / statistics.fmean(loop_s)


# -- running one job -------------------------------------------------------


@dataclass
class Outcome:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    doc: dict | None
    error: str | None
    elapsed_s: float | None = None  # the document's elapsed_seconds
    calibration: list[Calibration] = field(default_factory=list)

    @property
    def ref_wall_s(self) -> float:
        return reference_seconds(self.wall_s, [c.wall_s for c in self.calibration])

    @property
    def ref_cpu_s(self) -> float:
        return reference_seconds(self.cpu_s, [c.cpu_s for c in self.calibration])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _die_with_parent() -> None:
    """In the child: be killed if the benchmark dies, even while stopped."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


@dataclass
class Spawned:
    wall_s: float  # without the time the child was stopped
    cpu_s: float
    rss_mb: float
    code: int | None  # None when killed at the deadline
    stdout: str
    stderr: str
    calibration: list[Calibration]


def spawn(cmd: list[str], timeout: float, sample: bool = False) -> Spawned:
    """Run cmd to completion in the repository root, with wait4's resource usage.

    With sample, the calibration loop is timed just before the child starts,
    every SAMPLE_INTERVAL_S of its run while the child is stopped with
    SIGSTOP, and just after it ends; the stopped time is left out of wall_s.
    The caller keeps itself and the child on one CPU, so the samples see the
    speed of the CPU the job runs on, through the job, not just around it.
    """
    OUT.mkdir(exist_ok=True)
    calibration = [calibrate()] if sample else []
    paused = 0.0
    killed = False
    with open(OUT / "job.stdout", "w+b") as out, open(OUT / "job.stderr", "w+b") as err:
        deadline = time.perf_counter() + max(timeout, 1.0)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env(),
                                preexec_fn=_die_with_parent)
        pidfd = os.pidfd_open(proc.pid)
        ended = None
        try:
            while ended is None:
                left = deadline - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    killed = True
                    ended = os.wait4(proc.pid, 0)
                elif select.select([pidfd], [], [], min(left, SAMPLE_INTERVAL_S) if sample
                                   else left)[0]:
                    ended = os.wait4(proc.pid, 0)
                elif sample:
                    os.kill(proc.pid, signal.SIGSTOP)
                    got = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(got[1]):  # it ended before the signal came
                        ended = got
                        continue
                    stopped = time.perf_counter()
                    calibration.append(calibrate())
                    paused += time.perf_counter() - stopped
                    os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(pidfd)
            if ended is None:  # an exception: do not leave the child running or stopped
                proc.kill()
                os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0 - paused
        if sample:  # brackets a job too short to be stopped
            calibration.append(calibrate())
        _, status, usage = ended
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = (f.read().decode("utf-8", "replace") for f in (out, err))
    return Spawned(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   None if killed else proc.returncode, stdout, stderr, calibration)


def check(job: Job, doc: dict, references: Path) -> str | None:
    """Problem with a job's result document, or None when it is correct."""
    doc = dict(doc)
    doc.pop("elapsed_seconds", None)
    try:
        problem = job.invariant(doc)
    except (KeyError, TypeError) as exc:
        problem = f"malformed document: {exc!r}"
    if problem is None and job.pinned:
        path = references / job.reference
        if not path.exists():
            problem = f"no reference {path.name}"
        elif json.loads(path.read_text(encoding="utf-8")) != doc:
            problem = f"differs from reference {path.name}"
    return problem


def _last_json(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads("\n".join(lines)) if lines and lines[0] == "{" else json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return None


def _failure(ran: Spawned) -> str:
    if ran.code is None:
        return "timed out"
    err = _last_json(ran.stderr)
    detail = err["error"].get("message") if err and "error" in err else ran.stderr[-200:].strip()
    return f"exit code {ran.code}: {detail}"


def run_job(job: Job, deadline: float, references: Path, sample: bool = False) -> Outcome:
    ran = spawn([sys.executable, "-m", "jetres.cli", *job.argv], deadline - time.monotonic(),
                sample)
    doc = _last_json(ran.stdout) if ran.code == 0 else None
    if ran.code != 0:
        error = _failure(ran)
    else:
        error = "unreadable output" if doc is None else check(job, doc, references)
    elapsed = doc.get("elapsed_seconds") if doc else None
    return Outcome(job.argv, ran.wall_s, ran.cpu_s, ran.rss_mb, doc, error, elapsed,
                   ran.calibration)


def run_traced(job: Job, deadline: float, references: Path) -> tuple[Outcome, dict | None]:
    ran = spawn([sys.executable, str(BENCH / "tracer.py"), *job.argv], deadline - time.monotonic())
    trace = _last_json(ran.stdout) if ran.code == 0 else None
    if ran.code != 0:
        error = _failure(ran)
    elif trace is None:
        error = "unreadable tracer output"
    elif trace["rc"] != 0 or trace["doc"] is None:
        error = f"job exit code {trace['rc']}"
    else:
        error = check(job, trace["doc"], references)
    doc = trace["doc"] if trace else None
    return Outcome(job.argv, ran.wall_s, ran.cpu_s, ran.rss_mb, doc, error), trace


# -- machine and noise record ------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine() -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    mem = re.search(r"^MemTotal:\s*(\d+) kB", _read("/proc/meminfo"), re.M)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1).strip() if model else None,
        "mem_total_mb": int(mem.group(1)) / 1024 if mem else None,
    }


def noise_snapshot() -> dict:
    """Load average and the aggregate CPU jiffies line of /proc/stat."""
    load = _read("/proc/loadavg").split()
    cpu = _read("/proc/stat").splitlines()[:1]
    fields = [int(x) for x in cpu[0].split()[1:]] if cpu else []
    return {"loadavg": [float(x) for x in load[:3]], "jiffies": fields}


def noise_record(before: dict, after: dict) -> dict:
    record = {"loadavg_before": before["loadavg"], "loadavg_after": after["loadavg"]}
    b, a = before["jiffies"], after["jiffies"]
    if len(a) >= 8 and len(b) >= 8:
        total = sum(a[:8]) - sum(b[:8])  # user..steal; guest time is inside user
        record["steal_share"] = (a[7] - b[7]) / total if total else 0.0
        record["steal_jiffies"] = a[7] - b[7]
    return record


# -- untraced run --------------------------------------------------------------


def measure(jobs: list[Job], seconds: float, references: Path, deadline: float):
    # The jobs inherit this CPU, so the calibration samples see the CPU they run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    warm_up = run_job(SETUP_JOB, deadline, references)  # byte-compiles the package
    calibrate()  # warm-up: the first call runs cold
    outcomes = [warm_up]
    setup: list[Outcome] = []

    def time_setup() -> None:
        # Half the set-up samples come before the passes and half after: a shared
        # host's speed drifts over seconds, and samples from both ends of the run
        # average over more of that drift than samples taken back to back.
        done = [run_job(SETUP_JOB, deadline, references, sample=True)
                for _ in range(SETUP_SAMPLES // 2)]
        outcomes.extend(done)
        setup.extend(done)

    time_setup()
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        done = [run_job(job, deadline, references, sample=True) for job in jobs]
        outcomes += done
        passes.append({
            "wall_s": sum(o.ref_wall_s for o in done),
            "cpu_s": sum(o.ref_cpu_s for o in done),
            "peak_rss_mb": max(o.rss_mb for o in done),
            "measured_wall_s": sum(o.wall_s for o in done),
            "measured_cpu_s": sum(o.cpu_s for o in done),
            "calibration_samples": sum(len(o.calibration) for o in done),
        })
        last = time.monotonic() - began
        if time.monotonic() - start + last > seconds or time.monotonic() + 2 * last > deadline:
            break
    time_setup()
    metrics = {
        name: (statistics.median(p[name] for p in passes), unit)
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
    }
    metrics["setup_s"] = (statistics.median(o.ref_wall_s for o in setup), "s")
    samples = {
        "cpu": cpu,
        "passes": passes,
        "setup_wall_s": [o.ref_wall_s for o in setup],
        "setup_measured_wall_s": [o.wall_s for o in setup],
        "calibration_wall_s": [c.wall_s for o in outcomes for c in o.calibration],
    }
    return metrics, outcomes, samples, []


# -- traced run ----------------------------------------------------------------

BUILDERS = ("residue.hypersurface_integrand", "residue.fibre_residue_integrand",
            "residue.demailly_integrand")


def layer_metrics(traces: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and the exact counts of one traced pass over the jobs."""
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    size: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    hot: Counter = Counter()
    table_use: Counter = Counter()
    top = wall = 0.0
    for trace in traces:
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, parent, start, end, n) in enumerate(spans):
            dur[name] += end - start
            self_s[name] += end - start - covered[i]
            calls[name] += 1
            if n is not None:
                size[name] += n
            if parent < 0:
                top += end - start
        wall += trace["wall_s"]
        hot.update(trace["counters"])
        table_use.update(trace["table_use"])
    counts = {
        "exactalg.mul_terms_calls": hot["mul_terms_calls"],
        "exactalg.fraction_ops": hot["fraction_ops"],
        "exactalg.payload_terms": size["ggl.intersection_payload"],
        "residue.numerator_terms": sum(size[b] for b in BUILDERS),
        "residue.result_terms": size["residue.residue_expand"],
        "tower.fixed_points": size["tower.enumerate_fixed_points"],
        "ggl.table_entries": size["ggl.expansion_diagnostics"],
    }
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics.update({
        "exactalg.mul_terms_self_s": (hot["mul_terms_self_s"], "s"),
        "exactalg.fraction_self_s": (hot["fraction_self_s"], "s"),
        "exactalg.payload_s": (dur["ggl.intersection_payload"], "s"),
        "exactalg.substitute_s": (dur["exactalg.MultiPoly.substitute"], "s"),
        "exactalg.divide_exact_s": (dur["exactalg.MultiPoly.divide_exact"], "s"),
        "residue.build_s": (sum(dur[b] for b in BUILDERS), "s"),
        "residue.expand_s": (dur["residue.residue_expand"], "s"),
        "residue.stepwise_s": (dur["residue.residue_stepwise"], "s"),
        "tower.enumerate_s": (dur["tower.enumerate_fixed_points"], "s"),
        "localization.fixed_point_sum_s": (dur["localization.fibre_integral_fixed_points"], "s"),
        "ggl.tables_s": (dur["ggl.expansion_diagnostics"], "s"),
        "ggl.table_use_ratio": (
            table_use["paired"] / table_use["entries"] if table_use["entries"] else 0.0, "ratio"),
        "ggl.assemble_s": (dur["ggl.assemble_intersection_from_tables"], "s"),
        "ggl.estimates_self_s": (self_s["ggl.estimate_checks"], "s"),
        "ggl.euler_self_s": (self_s["ggl.euler_characteristic"], "s"),
        "ggl.certificate_s": (dur["ggl.fujiwara_certificate"] + dur["exactalg.DPoly.__call__"], "s"),
        "polyparse.parse_s": (dur["polyparse.parse_poly"], "s"),
        "trace.coverage": (top / wall if wall else 0.0, "ratio"),
        "trace.wall_s": (wall, "s"),
    })
    exact = dict(counts, **{f"calls.{k}": v for k, v in sorted(calls.items())})
    return metrics, exact


def measure_traced(jobs: list[Job], references: Path, deadline: float, spans_path: Path):
    outcomes = [run_job(job, deadline, references) for job in jobs]
    cli_overhead = sum(o.wall_s - (o.elapsed_s or 0.0) for o in outcomes)
    untraced = sum(o.elapsed_s or 0.0 for o in outcomes)
    passes = []
    for _ in range(TRACED_PASSES):
        results = [run_traced(job, deadline, references) for job in jobs]
        outcomes += [o for o, _ in results]
        traces = [t for _, t in results if t is not None]
        if len(traces) == len(jobs):
            passes.append((layer_metrics(traces), traces))
    findings = []
    if not passes:
        return {}, outcomes, {}, ["no traced pass completed"]
    first, first_exact = passes[0][0]
    for (_, exact), _ in passes[1:]:
        for key in sorted(set(exact) | set(first_exact)):
            if exact.get(key) != first_exact.get(key):
                findings.append(f"count {key} differs between traced runs: "
                                f"{first_exact.get(key)} vs {exact.get(key)}")
    metrics = {}
    for name, (value, unit) in first.items():
        values = [m[name][0] for (m, _), _ in passes]
        metrics[name] = (value if unit == "count" else statistics.mean(values), unit)
    traced_wall = metrics.pop("trace.wall_s")[0]
    metrics["cli.overhead_s"] = (cli_overhead, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    metrics["trace.count_mismatches"] = (len(findings), "count")
    OUT.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps([traces for _, traces in passes]), encoding="utf-8")
    samples = {"traced_wall_s": traced_wall, "untraced_elapsed_s": untraced,
               "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, outcomes, samples, findings


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="n = 2 analogues of the workload's jobs (finishes in seconds)")
    ap.add_argument("--references", type=Path, default=REFERENCES,
                    help="directory of recorded result documents")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jetres" / "cli.py").is_file():
        print(f"error: no jetres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    jobs, seed_used = workload_jobs(args.workload, args.seed, args.smoke)
    host = machine()  # before an untraced run keeps itself to one CPU
    before = noise_snapshot()
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        metrics, outcomes, samples, findings = measure_traced(
            jobs, args.references, deadline, spans_path)
    else:
        metrics, outcomes, samples, findings = measure(
            jobs, args.seconds, args.references, deadline)
    after = noise_snapshot()

    failed = [o for o in outcomes if o.error]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": seed_used,
        "smoke": args.smoke,
        "trace": args.trace,
        "jobs": [list(job.argv) for job in jobs],
        "error_rate": len(failed) / len(outcomes),
        "errors": [{"argv": list(o.argv), "error": o.error} for o in failed],
        "findings": findings,
        "samples": samples,
        "machine": host,
        "noise": noise_record(before, after),
    }
    print(json.dumps(report))
    if not metrics:
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
