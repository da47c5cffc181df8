"""End-to-end benchmark of the `cohh` CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload kw2-f3 --seed 1 --seconds 40 --trace 0

Run from anywhere; the repository root is the parent of this directory, and
the program is run from its `src/` tree.  With `--trace 0`, each pass spawns
one fresh `python -m cohh.cli ...` process per invocation of the workload,
one at a time (a closed loop with one client), reaps it with `wait4`, and
checks its report.  After each pass, a few fresh `cohh --help` processes
measure set-up time.  Passes repeat while another one fits in `--seconds`.
With `--trace 1`, one untraced pass is followed by an in-process replay of
the same inputs through each layer's public functions (see replay.py); the
replay must reproduce the CLI's tables and counts.

Times are reported at a fixed nominal host speed.  On a shared host the CPU
runs tens of percent slower or faster from one second, and one minute, to the
next, for reasons outside the program.  The benchmark therefore pins itself
and its children to one CPU, where a thread of its own times a small fixed
pure-Python job every SAMPLE_PERIOD_S, also while a CLI process runs (it
takes about 2% of that CPU).  Each process's wall and CPU time is scaled by
the job's nominal CPU time over its mean CPU time around and during that
process.  The raw times and every sample are kept in the run record.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced.  `attempted` and
`failed` count the workload's invocations (and, traced, their replays); the
`--help` probes are checked too, and a failing one makes the run incorrect,
but they are counted apart.  A run record with the machine facts, every
sample and the spans goes to `.perfbench/runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, check_summary, make_invocations

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
SETUP_PER_PASS = 3          # fresh `--help` processes after each untraced pass
TRACE_SETUP_SAMPLES = 5
INVOCATION_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 165.0      # every process of a run ends by then
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
SAMPLE_PERIOD_S = 0.2       # between two timings of the reference job
REFERENCE_NOMINAL_S = 0.005  # CPU time of one reference job at the nominal host speed
WINDOW_S = 0.5              # reach, before and after a process, of the samples that scale it


@dataclass
class Spawned:
    code: int
    start: float
    wall: float
    cpu: float
    maxrss_kb: int
    timed_out: bool
    stdout: str


@dataclass
class PassResult:
    processes: list = field(default_factory=list)   # Spawned, of each invocation run
    peak_kb: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    summaries: list = field(default_factory=list)


@dataclass
class SetupSamples:
    processes: list = field(default_factory=list)   # Spawned, of each `--help` kept
    failures: list = field(default_factory=list)


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def remaining(self) -> float:
        return self.end - time.perf_counter()


# -- host speed -----------------------------------------------------------------


def reference_job() -> int:
    """A fixed pure-Python job of the program's kind: mod-3 row reduction and dict updates."""
    p, n = 3, 26
    rng = random.Random(0)
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    counts: dict = {}
    for i in range(20000):
        counts[(i * 31) % 977] = counts.get((i * 31) % 977, 0) + i
    return rank + len(counts)


class HostSpeed:
    """Pins this process, and so its children, to one CPU and samples that CPU's speed.

    While open, a thread times the reference job's CPU time every
    SAMPLE_PERIOD_S.  A process is scaled by the nominal time over the mean of
    the samples taken from WINDOW_S before it starts to WINDOW_S after it ends,
    which gives its time at the nominal speed."""

    def __init__(self):
        self.samples: list = []         # (midpoint, CPU time of one job)
        self._affinity = os.sched_getaffinity(0)
        self.cpu = min(self._affinity)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        os.sched_setaffinity(0, {self.cpu})
        reference_job()                 # warm-up
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start, cpu = time.perf_counter(), time.thread_time()
            reference_job()
            cpu = time.thread_time() - cpu
            self.samples.append(((start + time.perf_counter()) / 2, cpu))

    def factor(self, start: float, end: float) -> float:
        """Scale factor for a process that ran from start to end."""
        near = [cpu for t, cpu in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:    # the sampler was held up; take the sample nearest in time
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return REFERENCE_NOMINAL_S / statistics.fmean(near)

    def scaled(self, processes: list) -> tuple:
        """Summed wall and CPU time of processes, at the nominal speed."""
        wall = cpu = 0.0
        for p in processes:
            factor = self.factor(p.start, p.start + p.wall)
            wall += p.wall * factor
            cpu += p.cpu * factor
        return wall, cpu


# -- CLI processes --------------------------------------------------------------


def spawn(args: list, env: dict, out_path: Path, timeout: float) -> Spawned:
    """Run `python -m cohh.cli *args` to completion; time it from spawn to reap."""
    argv = [sys.executable, "-m", "cohh.cli", *args]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out_path.with_suffix(".err")), flags, 0o644),
    ]
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(pid, signal.SIGKILL)

    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)   # exited, not yet reaped
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
    finally:
        timer.cancel()
        _, status, usage = os.wait4(pid, 0)
    timer.join()
    return Spawned(
        code=os.waitstatus_to_exitcode(status),
        start=start,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        timed_out=state["timed_out"],
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_pass(workload, invocations, env, out_dir: Path, deadline: Deadline) -> PassResult:
    """One untraced pass: every invocation in order, each checked after it ends."""
    res = PassResult()
    for i, inv in enumerate(invocations):
        res.attempted += 1
        budget = min(INVOCATION_TIMEOUT_S, deadline.remaining())
        summary, problems = None, []
        if budget <= 0:
            problems.append(f"{inv.label}: not started, run deadline reached")
        else:
            got = spawn(inv.args, env, out_dir / f"{i}-{inv.label}.out", budget)
            res.processes.append(got)
            res.peak_kb = max(res.peak_kb, got.maxrss_kb)
            if got.timed_out:
                problems.append(f"{inv.label}: killed after {budget:.1f} s")
            elif got.code != 0:
                problems.append(f"{inv.label}: exit code {got.code}")
            else:
                try:
                    summary = inv.summarize(got.stdout)
                    problems = check_summary(workload, inv, summary)
                except Exception:   # an unreadable report is a failed invocation
                    problems = [f"{inv.label}: report unreadable\n{traceback.format_exc()}"]
        res.failed += bool(problems)
        res.failures.extend(problems)
        res.summaries.append(summary)
    return res


def measure_setup(env, out_dir: Path, samples: int, deadline: Deadline,
                  into: SetupSamples, keep: bool = True) -> None:
    """Time `samples` fresh `cohh --help` processes; keep their times unless a warm-up."""
    for _ in range(samples):
        budget = min(INVOCATION_TIMEOUT_S, deadline.remaining())
        if budget <= 0:
            return
        got = spawn(["--help"], env, out_dir / "help.out", budget)
        if got.code != 0 or not got.stdout.startswith("usage:"):
            into.failures.append(f"--help: exit code {got.code}, timed out {got.timed_out}")
        elif keep:
            into.processes.append(got)


# -- traced replay --------------------------------------------------------------


class ReplayTimeout(Exception):
    pass


def traced_replay(invocations, deadline: Deadline):
    """Replay every invocation in-process under a tracer; returns (tracer, summaries, failures)."""
    sys.path.insert(0, str(ROOT / "src"))
    from replay import Tracer, replay_invocation

    def on_alarm(signum, frame):
        raise ReplayTimeout("replay passed the run deadline")

    tr = Tracer()
    summaries, failures = [], []
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        for inv in invocations:
            remaining = deadline.remaining()
            if remaining <= 0:
                failures.append(f"replay {inv.label}: not started, run deadline reached")
                summaries.append(None)
                continue
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                summaries.append(replay_invocation(tr, inv))
            except Exception:   # a failing layer call is a failed invocation
                failures.append(f"replay {inv.label}:\n{traceback.format_exc()}")
                summaries.append(None)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return tr, summaries, failures


def layer_metrics(tr, untraced_wall: float, setup: float, n_invocations: int) -> dict:
    """Per-layer values: span self times, counts, and the ratios built on them."""
    out = {f"{name}.s": v for name, v in tr.self_time_by_name().items()}
    out.update(tr.counts)
    if tr.counts.get("cohomology.cohh_table.pivot_bound"):
        out["cohomology.cohh_table.rank_ratio"] = (
            tr.counts["cohomology.cohh_table.rank_total"]
            / tr.counts["cohomology.cohh_table.pivot_bound"]
        )
    if tr.counts.get("collapse.analyze.pairs"):
        out["collapse.analyze.hit_ratio"] = (
            tr.counts["collapse.analyze.candidates"] / tr.counts["collapse.analyze.pairs"]
        )
    traced = sum(s.end - s.start for s in tr.roots())
    untraced = untraced_wall - n_invocations * setup
    if untraced > 0:
        out["trace.overhead_ratio"] = traced / untraced
    return out


# -- run record -----------------------------------------------------------------


def tail_percentile(samples: list):
    """Highest listed percentile (nearest rank) with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1]}
    return None


def timing_stats(samples: list) -> dict:
    return {
        "median": statistics.median(samples) if samples else None,
        "samples": len(samples),
        "tail": tail_percentile(samples),
        "values": samples,
    }


def source_commit():
    """The checkout's commit, read from .git without running git; None if absent."""
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
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": source_commit(),
        "src_sha256": source_digest(),
    }


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cohh" / "cli.py").is_file():
        print(f"no cohh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = Deadline(RUN_DEADLINE_S)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = STATE_DIR / "work" / tag
    invocations = make_invocations(args.workload, args.seed, out_dir)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    setup = SetupSamples()
    passes = []
    with HostSpeed() as host:
        measure_setup(env, out_dir, 1, deadline, setup, keep=False)
        started = time.perf_counter()
        while deadline.remaining() > 0:
            passes.append(run_pass(args.workload, invocations, env, out_dir, deadline))
            measure_setup(env, out_dir, TRACE_SETUP_SAMPLES if args.trace else SETUP_PER_PASS,
                          deadline, setup)
            elapsed = time.perf_counter() - started
            if args.trace or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    if args.trace:      # after the sampler has stopped
        tr, replayed, replay_failures = traced_replay(invocations, deadline)
    scaled = [host.scaled(p.processes) for p in passes]
    raw_walls = [sum(x.wall for x in p.processes) for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [problem for p in passes for problem in p.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": dict(machine_facts(), pinned_cpu=host.cpu),
        "loop": "closed, one client, one CLI process at a time",
        "passes": len(passes),
        "nominal_speed": {"reference_job_cpu_s": REFERENCE_NOMINAL_S,
                          "samples_time_cpu_s": host.samples},
        "setup_s": timing_stats([host.scaled([x])[0] for x in setup.processes]),
        "wall_s": timing_stats([wall for wall, _ in scaled]),
        "cpu_s": timing_stats([cpu for _, cpu in scaled]),
        "peak_rss_mb": timing_stats([p.peak_kb / 1024 for p in passes]),
        "raw": {
            "setup_s": timing_stats([x.wall for x in setup.processes]),
            "wall_s": timing_stats(raw_walls),
            "cpu_s": timing_stats([sum(x.cpu for x in p.processes) for p in passes]),
        },
        "setup_failures": setup.failures,
    }

    if args.trace:
        attempted += len(invocations)
        cli = passes[0].summaries if passes else [None] * len(invocations)
        for inv, got, want in zip(invocations, replayed, cli):
            if got is None:         # the replay failed, and that is counted already
                continue
            if want is None:        # the CLI failed, and that is counted already
                problems = check_summary(args.workload, inv, got)
                if problems:
                    replay_failures.append("replay " + "; ".join(problems))
            elif got != want:
                replay_failures.append(f"replay {inv.label}: {got} differs from the CLI's {want}")
        failed += len(replay_failures)
        failures += replay_failures
        values = layer_metrics(tr, raw_walls[0] if passes else 0.0,
                               record["raw"]["setup_s"]["median"] or 0.0, len(invocations))
        record["spans"] = tr.to_json()
        record["layer_values"] = values
        wanted = spec["per_layer"]
    else:
        values = {name: record[name]["median"]
                  for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0, "unit": m["unit"]}
               for m in wanted}

    correct = failed == 0 and not setup.failures
    record.update(attempted=attempted, failed=failed, correct=correct,
                  error_rate=failed / attempted, failures=failures)
    record_dir = STATE_DIR / "runs"
    record_dir.mkdir(parents=True, exist_ok=True)
    record_path = record_dir / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in failures + setup.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# record: {record_path.relative_to(ROOT)}")
    print(f"# error_rate: {failed}/{attempted}; setup probes failed: {len(setup.failures)}; "
          f"passes: {len(passes)}; nproc: {record['machine']['nproc']}; "
          f"python: {record['machine']['python']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
