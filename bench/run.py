"""qbattery benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py --workload run_bundled|run_dense|claims|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Every call goes through `qbattery.cli.main` in this process, one call at a
time (a closed loop with one client), on configs generated from --seed.  Each
artifact is checked after its call, outside the timed region; a failed check
or a non-zero exit counts as a failed operation.  Timings are scaled to a
fixed host speed by the reference kernel in speed.py, which samples the
host's speed every 0.25 s while the calls run.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
runs a fixed call set once untraced and once traced, repeated for --seconds,
and prints the per-layer metrics.  The last line of stdout is one JSON
object; the lines before it are the same numbers for people, plus the
workload-specific detail.  Results, machine facts and (traced) spans are
written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# A fresh set-up process runs before any call that starts this long after the
# last set-up, and at least SETUP_MIN run per workload.
SETUP_EVERY_S = 1.0
SETUP_MIN = 15


@dataclass
class Call:
    """One CLI invocation and the check its artifact must pass."""

    mode: str
    config: str          # config file stem
    check: Callable[[bytes], list[str]]
    seed: int = 0
    role: str = "ops"    # "ops" counts for throughput, "query" for latency

    def argv(self, workdir: Path) -> list[str]:
        return [self.mode, "--config", str(workdir / f"{self.config}.json"),
                "--out", str(workdir / f"{self.config}.{self.mode}.out"),
                "--seed", str(self.seed)]


@dataclass
class Plan:
    """What a workload runs.

    One pass of the timed loop is `calls`: each ops call once, each followed
    by QUERY_REPEATS rounds of the query calls.  `traced` is the fixed call
    set of a traced pass, and `peak` the call whose resident-set growth is
    measured.
    """

    calls: list[Call]
    traced: list[Call]
    peak: Call
@dataclass
class Record:
    call: Call
    start: float
    end: float
    wall: float          # end - start, less reference samples taken inside
    ops: int
    data: bytes
    scaled: float = 0.0  # wall time at the reference host speed


@dataclass
class Runner:
    workdir: Path
    workload: str
    seed: int
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    passed: dict[tuple[str, str], bytes] = field(default_factory=dict)
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    def invoke(self, call: Call) -> Record:
        """Time one call, less the reference samples taken inside it, then
        check its artifact untimed.  An artifact byte-identical to one of the
        same call that passed is not checked again."""
        from qbattery import cli

        self.attempted += 1
        argv = call.argv(self.workdir)
        err = io.StringIO()
        spent = self.probe.spent
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        end = time.perf_counter()
        wall = end - start - (self.probe.spent - spent)
        label = f"{call.mode} {call.config}"
        if code != 0:
            self.failures.append(f"{label}: exit {code}: {err.getvalue().strip()[-300:]}")
            return Record(call, start, end, wall, 0, b"")
        data = Path(argv[4]).read_bytes()
        key = (call.mode, call.config)
        try:
            problems = [] if self.passed.get(key) == data else call.check(data)
            ops = _ops(call, data)
        except Exception:
            problems, ops = [traceback.format_exc(limit=3)], 0
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            ops = 0
        else:
            self.passed.setdefault(key, data)
        return Record(call, start, end, wall, ops, data)


def _ops(call: Call, data: bytes) -> int:
    from checks import instances, rows

    if call.mode == "run":
        return rows(data)
    if call.mode == "check":
        return instances(data)
    return 1


def build_plan(workload: str, seed: int, workdir: Path) -> Plan:
    import checks
    import workloads

    check_for = {
        "run": lambda cfg: checks.RunCheck(cfg.text),
        "audit": lambda cfg: checks.AuditCheck(cfg.name),
        "sweep": lambda cfg: checks.SweepCheck(cfg.text),
        "check": lambda cfg: checks.CheckCheck(seed, workloads.CHECK_TRIALS),
    }
    ops, queries = [], []
    for cfg in workloads.configs(workload, seed):
        (workdir / f"{cfg.name}.json").write_text(cfg.text, encoding="utf-8")
        for mode in cfg.modes:
            call = Call(mode, cfg.name, check_for[mode](cfg), seed, cfg.role)
            (ops if cfg.role == "ops" else queries).append(call)
    rounds = queries * workloads.QUERY_REPEATS[workload]
    calls = [c for op in ops for c in [op] + rounds]
    if workload == "claims":
        return Plan(calls, ops + queries, ops[0])
    peak = next((c for c in ops if c.config == "qutrit_ladder"), ops[0])
    return Plan(calls, ops, peak)


def timed_loop(runner: Runner, plan: Plan, seconds: float):
    """Passes over `plan.calls`, with a fresh set-up process every
    SETUP_EVERY_S, until a first pass is done and `seconds` of wall time have
    passed, while the reference kernel samples the host speed.  Returns the
    call records and the set-up records, all scaled to the reference host
    speed."""
    records: list[Record] = []
    setups: list[Record] = []
    gc.collect()
    begin = time.perf_counter()
    with pinned(), runner.probe:
        for call in itertools.cycle(plan.calls):
            if len(records) >= len(plan.calls) and time.perf_counter() - begin >= seconds:
                break
            if not setups or time.perf_counter() - setups[-1].start >= SETUP_EVERY_S:
                setups.append(run_setup(runner))
            if not records or records[-1].call.role != call.role:
                # bracket each run of short calls closely, not 0.25 s apart
                runner.probe.sample()
            records.append(runner.invoke(call))
        while len(setups) < SETUP_MIN:
            setups.append(run_setup(runner))
    for r in records + setups:
        r.scaled = r.wall * runner.probe.scale(r.start, r.end)
    return records, setups


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (q in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100.0 >= 10:
            return f"p{q}", percentile(values, q)
    return "p50", percentile(values, 50)


def run_setup(runner: Runner) -> Record:
    """Wall time of a fresh process that imports qbattery and generates and
    parses the workload's configs."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
            "workloads.setup(sys.argv[3], int(sys.argv[4]))")
    argv = [sys.executable, "-c", code, str(SRC), str(BENCH), runner.workload, str(runner.seed)]
    runner.attempted += 1
    with runner.probe.paused():
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, timeout=120,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        end = time.perf_counter()
    if proc.returncode != 0:
        runner.failures.append(f"set-up: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return Record(Call("setup", runner.workload, lambda data: []), start, end, end - start,
                  0, b"")


def measure_peak(runner: Runner, call: Call) -> float:
    """Growth of the peak resident set size (VmHWM) over one call in a fresh
    process, in MiB.  tracemalloc would slow the d = 32 eigensolver 16-fold,
    and ru_maxrss keeps the forking parent's peak across exec."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from qbattery import cli\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
            "before = hwm(); code = cli.main(sys.argv[2:])\n"
            "print(json.dumps([code, hwm() - before]))")
    argv = call.argv(runner.workdir)
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)] + argv, cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    runner.attempted += 1
    label = f"{call.mode} {call.config} (memory pass)"
    code, grown_kib = json.loads(proc.stdout.strip().splitlines()[-1]) \
        if proc.returncode == 0 else (None, 0)
    problems = [f"exit {code}: {proc.stderr.strip()[-300:]}"] if code != 0 \
        else call.check(Path(argv[4]).read_bytes())
    if problems:
        runner.failures.append(f"{label}: " + "; ".join(problems))
    return grown_kib / 1024.0


@contextlib.contextmanager
def pinned():
    """Keep this thread, and the set-up processes it starts, on one CPU, so
    that the reference timings see the same core as the calls they scale.
    The two vCPUs of a shared VM change speed independently.  Other threads,
    such as OpenBLAS workers, keep their affinity."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def end_to_end(runner: Runner, plan: Plan, seconds: float):
    """Each timing is scaled to the reference host speed (speed.py).  The
    throughput is one pass's ops over the sum of each ops call's median time;
    the latency is the mean over query calls of each one's median time."""
    peak = measure_peak(runner, plan.peak)
    records, setups = timed_loop(runner, plan, seconds)
    groups: dict[tuple[str, str], list[Record]] = {}
    for r in records:
        groups.setdefault((r.call.mode, r.call.config), []).append(r)
    ops_groups = [g for g in groups.values() if g[0].call.role == "ops"]
    query_groups = [g for g in groups.values() if g[0].call.role == "query"]

    def median(rs: list[Record], attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in rs)

    def figures(attr: str) -> dict[str, float]:
        return {
            "ops_per_s": sum(max(r.ops for r in g) for g in ops_groups)
            / sum(median(g, attr) for g in ops_groups),
            "call_ms.p50": 1e3 * statistics.fmean(median(g, attr) for g in query_groups),
            "setup_s": median(setups, attr),
        }

    metrics = dict(figures("scaled"), peak_mem_mb=peak)
    op = "run_rows_per_s" if runner.workload.startswith("run") else "check_instances_per_s"
    detail = {op: (metrics["ops_per_s"], "1/s", sum(len(g) for g in ops_groups))}
    by_mode: dict[str, list[float]] = {}
    for g in query_groups:
        by_mode.setdefault(g[0].call.mode, []).extend(r.scaled * 1e3 for r in g)
    for mode, values in by_mode.items():
        detail[f"{mode}_ms.p50"] = (statistics.median(values), "ms", len(values))
        tail, value = tail_percentile(values)
        detail[f"{mode}_ms.{tail}"] = (value, "ms", len(values))
    counts = {"ops_per_s": sum(len(g) for g in ops_groups),
              "call_ms.p50": sum(len(g) for g in query_groups), "setup_s": len(setups)}
    units = {"ops_per_s": "1/s", "call_ms.p50": "ms", "setup_s": "s"}
    for name, value in figures("wall").items():
        detail[f"unscaled.{name}"] = (value, units[name], counts[name])
    detail["host_speed"] = (runner.probe.host_speed(), "ratio", len(runner.probe.walls))
    t0 = runner.probe.starts[0]
    samples = {
        "columns": ["mode", "config", "start_s", "end_s", "wall_s", "scaled_s", "ops"],
        "calls": [[r.call.mode, r.call.config, r.start - t0, r.end - t0, r.wall, r.scaled, r.ops]
                  for r in sorted(records + setups, key=lambda r: r.start)],
        "reference": [[s - t0, w] for s, w in zip(runner.probe.starts, runner.probe.walls)],
    }
    return metrics, detail, samples


def per_layer(workload: str, seconds: float, runner: Runner, plan: Plan):
    """Pairs of untraced and traced passes over `plan.traced`; per-pass counts."""
    from tracer import Tracer

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    passes = 0
    reference: list[bytes] = []
    while passes == 0 or untraced_s + traced_s < seconds:
        gc.collect()
        plain = [runner.invoke(call) for call in plan.traced]
        untraced_s += sum(r.wall for r in plain)
        gc.collect()
        with tracer:
            traced = [runner.invoke(call) for call in plan.traced]
        traced_s += sum(r.wall for r in traced)
        if not reference:
            reference = [r.data for r in plain]
        for r, ref in zip(traced + plain, reference + reference):
            if r.data != ref:
                runner.failures.append(f"{r.call.mode} {r.call.config}: artifact changed "
                                       f"between untraced and traced calls")
        passes += 1
    ops = sum(r.ops for r in plain)
    spans = tracer.summary()
    tracer.write(OUT / f"{workload}-spans.csv.gz")
    metrics = {"trace.overhead_frac": traced_s / untraced_s - 1.0}
    for name, entry in spans.items():
        metrics[f"{name}.calls_per_op"] = entry["calls"] / (ops * passes) if ops else 0.0
        metrics[f"{name}.self_frac"] = entry["self_s"] / traced_s
    detail = {
        "trace.passes": (passes, "count", passes),
        "trace.ops": (ops, "count", passes),
        "trace.wall_s": (traced_s / passes, "s", passes),
    }
    return metrics, detail, {}


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    for lib in ("blas", "lapack"):
        facts[lib] = f"{deps.get(lib, {}).get('name')} {deps.get(lib, {}).get('version')}"
    facts["blas_threads"] = _blas_threads(np)
    return facts


def _blas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be found."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, declared: dict):
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{workload}-") as tmp:
        runner = Runner(Path(tmp), workload, seed)
        plan = build_plan(workload, seed, runner.workdir)
        if trace:
            metrics, detail, samples = per_layer(workload, seconds, runner, plan)
        else:
            metrics, detail, samples = end_to_end(runner, plan, seconds)
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise RuntimeError(f"{workload}: no measurement for declared metrics {missing}")
    chosen = {name: {"value": float(metrics[name]), "unit": unit}
              for name, unit in declared.items()}
    failed = len(runner.failures)
    detail["ops_failed_frac"] = (failed / runner.attempted, "fraction", runner.attempted)
    machine = machine_facts()
    print(f"{workload:<12} machine {json.dumps(machine)}")
    for name, entry in chosen.items():
        print(f"{workload:<12} {name:<42} {entry['value']:>14.6g} {entry['unit']}")
    for name, (value, unit, n) in detail.items():
        print(f"{workload:<12} {name:<42} {value:>14.6g} {unit}  (n={n})")
    for problem in runner.failures[:20]:
        print(f"{workload:<12} FAILED {problem}")
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": chosen}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  detail={k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in detail.items()},
                  failures=runner.failures, machine=machine,
                  samples=samples)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("run_bundled", "run_dense", "claims", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest = ROOT / "BENCHMARK.json"
    for needed in (SRC / "qbattery" / "__init__.py", ROOT / "tests" / "oracles.py", manifest):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a source checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    spec = json.loads(manifest.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" \
        else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), declared)
               for w in workloads}
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
