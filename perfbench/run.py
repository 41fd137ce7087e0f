"""lpplfit benchmark: closed-loop trace fits through the public API and the CLI.

Run from the root of an lpplfit checkout; the package is imported from
./src, nothing is installed:

    python3 perfbench/run.py --workload suite-1k --seed 20260823 --seconds 30 --trace 0

One client fits one trace at a time, each fit starting when the previous one
has finished. The workload seed picks the traces from the workload's pool;
the run length sets how many are fitted (``--seconds`` divided by the
workload's nominal cost per trace), so for a given seed and length the work
and every count repeat exactly, unless the run runs out of time (see
DEADLINE_FACTOR). ``--trace 1`` fits half as many traces, each first untraced
and then traced, and adds the layer micro-benchmarks. Human-readable lines
come first; the last line of standard output is the JSON result.

The cost of one trace fit varies tenfold between traces, so totals over a
run's traces depend on the seed. The end-to-end work and quality figures are
therefore divided by what the reference commit did on the same traces
(reference.json, written by ``--write-reference``).

The speed of the shared machine moves by up to 2x within minutes. So for a
calibrated workload the worker times a fixed block of plain NumPy and Python
work (the calibration, micro.calibration_s) before the first fit and after
every fit, and a fit's time enters the end-to-end figures as machine seconds:
its seconds times CALIBRATION_REF_S over the mean of the calibrations just
before and after it. Other workloads count plain seconds.

The fits run in a worker process, which streams one JSON line per fit. Fit
cost is heavy-tailed: one n = 1000 trace of a probe ran for more than four
minutes. So a fit still running after the workload's unit timeout is
abandoned: the worker is killed, the trace is reported and counted as failed,
and a new worker goes on with the next one.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tracer import Tracer, overlap_seconds, self_times

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 5
# A run starts no new trace once this many times --seconds have gone by; a
# cut run prints how many of its planned traces it fitted. With the unit
# timeouts it bounds a run, which must end within 180 s.
DEADLINE_FACTOR = 1.5
# A fit still running this long after the run started is abandoned, so that a
# run with its set-up and micro-benchmarks ends within 180 s.
RUN_LIMIT_S = 140.0
# A worker has this long to import the package and build its inputs.
STARTUP_TIMEOUT_S = 120.0
# --write-reference fits the pool this many times, and waits this long for one trace fit.
REFERENCE_PASSES = 3
REFERENCE_TIMEOUT_S = 600.0
# The calibration, in seconds, that makes a machine second a second: a round
# figure near the 14-25 ms that calibrations read on the 2-CPU Xeon VM the
# benchmark was defined on. It only sets the scale of the figures.
CALIBRATION_REF_S = 0.025


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import lpplfit from ./src of the checkout, and nowhere else."""
    if not (SRC / "lpplfit" / "__init__.py").is_file():
        fail(f"no src/lpplfit under {ROOT}; run from the root of an lpplfit checkout")
    sys.path.insert(0, str(SRC))
    import lpplfit

    if Path(lpplfit.__file__).resolve().parent != (SRC / "lpplfit").resolve():
        fail(f"imported lpplfit from {lpplfit.__file__}, not from {SRC}")


def metric_tables() -> Tuple[Dict[str, Tuple[str, str]], Dict[str, Tuple[str, str]]]:
    """(end_to_end, per_layer) from BENCHMARK.json: metric name -> (unit, better)."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: (m["unit"], m["better"]) for m in doc[key]}
                 for key in ("end_to_end", "per_layer"))


def load_reference(workload: str) -> Dict[str, dict]:
    """Pool trace label -> what the reference commit did on it."""
    doc = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    if workload not in doc:
        fail(f"{REFERENCE.name} has no entry for {workload}; run with --write-reference")
    return doc[workload]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=20260823,
                   help="workload seed; the default reproduces the frozen suite")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="run length; sets the number of trace fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="fit every trace of the workload's pool and record it in reference.json")
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    p.add_argument("--worker", choices=("plain", "paired"), default=None, help=argparse.SUPPRESS)
    p.add_argument("--indices", default="", help=argparse.SUPPRESS)
    p.add_argument("--budget", type=float, default=math.inf, help=argparse.SUPPRESS)
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def unit_count(workload, seconds: float, trace: int) -> int:
    units = min(len(workload.pool()), max(1, int(seconds // workload.nominal_unit_s)))
    return max(1, units // 2) if trace else units


def setup_probe(args) -> None:
    """Child-process mode: time the import and the input build, print the seconds."""
    t0 = time.perf_counter()
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.setup_probe)
    workdir.mkdir(parents=True)
    workload.inputs(args.seed, unit_count(workload, args.seconds, args.trace), workdir)
    print(repr(time.perf_counter() - t0))


def measure_setup(args) -> List[float]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter so the import is paid again."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = OUT_DIR / f"setup-{os.getpid()}-{i}"
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--setup-probe", str(workdir)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            fail(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg_start": loadavg()}


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """(percentile, value, samples beyond it) for the highest percentile with 10 samples beyond.

    The value is the 11th largest sample, so exactly 10 lie beyond it; with
    fewer than 11 samples there is no such percentile and None is returned.
    """
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11], 10


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def worker(args) -> None:
    """Worker-process mode: fit the traces at --indices, one JSON line per event.

    In a paired pass each trace is fitted untraced and then at once traced,
    so the two fits of a pair see nearly the same machine: its speed drifts
    by 10% and more within a minute.
    """
    import_package()
    import micro
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    indices = [int(i) for i in args.indices.split(",")]
    inputs = workload.inputs(args.seed, max(indices) + 1, Path(args.workdir))
    kinds = ("plain", "traced") if args.worker == "paired" else ("plain",)
    tracer = Tracer()

    def calibrate():
        if workload.calibrated:
            emit({"calibration": micro.calibration_s()})

    calibrate()
    t0 = time.perf_counter()
    for i in indices:
        if time.perf_counter() - t0 > args.budget:
            break
        for kind in kinds:
            emit({"start": i, "label": inputs[i].label, "kind": kind})
            first_span = len(tracer.spans)
            t1 = time.perf_counter()
            if kind == "plain":
                outcome = workload.run(inputs[i])
            else:
                with tracer.installed(), tracer.trace("bench.trace"):
                    outcome = workload.run(inputs[i], tracer.span)
            message = {"outcome": dataclasses.asdict(outcome), "index": i, "kind": kind,
                       "run_s": time.perf_counter() - t1}
            if kind == "traced":
                message["layers"] = layer_sums(tracer.spans[first_span:])
            emit(message)
            calibrate()
    if tracer.spans:
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}-{os.getpid()}.jsonl.gz"
        tracer.write(spans_path)
        print(f"trace: spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)


@dataclasses.dataclass
class Fit:
    index: int
    outcome: object  # workloads.Outcome
    run_s: float  # the fit plus its checks
    layers: Optional[dict] = None  # layer sums, for a traced fit
    calibration: float = math.nan  # mean of the calibrations before and after the fit, s


@dataclasses.dataclass
class Pass:
    fits: Dict[str, List[Fit]] = dataclasses.field(
        default_factory=lambda: {"plain": [], "traced": []})
    abandoned: List[Tuple[str, float, float]] = dataclasses.field(
        default_factory=list)  # (label, seconds run, calibration before it)

    @property
    def outcomes(self) -> list:
        return [f.outcome for kind in ("plain", "traced") for f in self.fits[kind]]


def run_pass(args, mode: str, units: int, budget: float, workdir: Path,
             timeout: float, limit: float = math.inf) -> Pass:
    """Fit traces 0..units-1 in worker processes, abandoning any fit past `timeout` seconds.

    A traced fit is allowed half as long again as an untraced one. No trace
    starts after `budget` seconds, and a fit still running after `limit`
    seconds is abandoned too.
    """
    result = Pass()
    start = time.perf_counter()
    todo = list(range(units))
    while todo and time.perf_counter() < start + budget:
        stuck = _run_worker(args, mode, todo, start + budget - time.perf_counter(), workdir,
                            timeout, start + limit, result)
        if stuck is None:
            break
        index, label, seconds, calibration = stuck
        result.abandoned.append((label, seconds, calibration))
        print(f"{mode}: ABANDONED {label}: still fitting after {seconds:.1f} s")
        todo = todo[todo.index(index) + 1:]
    done = len(result.fits["plain"])
    if done < units:
        print(f"{mode}: fitted {done} of {units} planned traces")
    return result


def _run_worker(args, mode: str, todo: List[int], budget: float, workdir: Path,
                unit_timeout: float, end: float,
                result: Pass) -> Optional[Tuple[int, str, float, float]]:
    """One worker over `todo`; returns (index, label, seconds run, calibration) of a fit it was killed on.

    A fit is killed after its timeout, or at the time `end`, whichever comes first.
    """
    from workloads import Outcome

    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--worker", mode, "--indices", ",".join(map(str, todo)), "--budget", repr(budget),
         "--workdir", str(workdir)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines: queue.Queue = queue.Queue()

    def read():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    current = None  # (index, label, timeout, start time) of the fit in progress
    calibration = CALIBRATION_REF_S  # the latest calibration, s; kept if the workload has none
    finished = None  # the fit that waits for the calibration after it
    try:
        while True:
            wait = (STARTUP_TIMEOUT_S if current is None
                    else min(current[3] + current[2], end) - time.perf_counter())
            try:
                line = lines.get(timeout=max(0.0, wait))
            except queue.Empty:
                if current is None:
                    fail(f"{mode} worker sent nothing for {STARTUP_TIMEOUT_S:.0f} s")
                return current[0], current[1], time.perf_counter() - current[3], calibration
            if line is None:
                break
            message = json.loads(line)
            if "calibration" in message:
                calibration = message["calibration"]
                if finished is not None:
                    finished.calibration = (finished.calibration + calibration) / 2
                    finished = None
            elif "start" in message:
                timeout = unit_timeout * (1.5 if message["kind"] == "traced" else 1.0)
                current = (message["start"], message["label"], timeout, time.perf_counter())
            else:
                finished = Fit(message["index"], Outcome(**message["outcome"]), message["run_s"],
                               message.get("layers"), calibration)
                result.fits[message["kind"]].append(finished)
                current = None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join(timeout=10)
        proc.stdout.close()
    if proc.returncode != 0:
        fail(f"{mode} worker exited with {proc.returncode}")
    return None


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    return math.exp(statistics.fmean(map(math.log, values))) if values else math.nan


def machine_s(seconds: float, calibration: float) -> float:
    """`seconds` timed when the calibration read `calibration`, in machine seconds."""
    return seconds * CALIBRATION_REF_S / calibration


def summarize(p: Pass, reference: Dict[str, dict]) -> Dict[str, float]:
    """Run totals of the untraced fits; the end-to-end ones divided by the reference's.

    An abandoned trace adds its timeout to the fit time and its reference fit
    time to the divisor, so a trace that starts to hang shows as slower.
    """
    from workloads import EXPECTED_VERDICT

    fits = p.fits["plain"]
    outcomes = [f.outcome for f in fits]
    for o in outcomes:
        if o.label not in reference:
            fail(f"{REFERENCE.name} has no entry for trace {o.label}; run with --write-reference")
    refs = [reference[o.label] for o in outcomes]
    walls = [o.wall_s for o in outcomes]
    fit_s = sum(walls) + sum(seconds for _, seconds, _ in p.abandoned)
    fit_machine_s = (sum(machine_s(f.outcome.wall_s, f.calibration) for f in fits)
                     + sum(machine_s(seconds, cal) for _, seconds, cal in p.abandoned))
    ref_iterations = sum(r["iterations"] for r in refs)
    ref_fit_s = sum(r["fit_s"] for r in refs) + sum(reference[label]["fit_s"]
                                                     for label, _, _ in p.abandoned)
    iterations = sum(o.iterations for o in outcomes)
    matches = sum(o.sha256 == r["sha256"] for o, r in zip(outcomes, refs))
    print(f"reports identical to the reference: {matches} of {len(outcomes)}")
    print(f"fit time {fit_s:.3f} s, {fit_machine_s:.3f} machine s; calibration median "
          f"{statistics.median(f.calibration for f in fits) * 1e3:.3f} ms "
          f"(CALIBRATION_REF_S {CALIBRATION_REF_S * 1e3:g} ms)")
    return {
        "fit_time_vs_ref": fit_machine_s / ref_fit_s,
        "lm_iterations_vs_ref": iterations / max(ref_iterations, 1),
        "best_error_vs_ref": geomean(o.best_average_error / r["best_average_error"]
                                     for o, r in zip(outcomes, refs)),
        "verdict_agree_ref": statistics.fmean(o.verdict == r["verdict"]
                                              for o, r in zip(outcomes, refs)),
        "traces_per_s": len(outcomes) / fit_s,
        "trace_fit_s.p50": statistics.median(walls),
        "lm_iterations": iterations,
        "best_error.geomean": geomean(o.best_average_error for o in outcomes),
        "verdict_match": statistics.fmean(o.verdict == EXPECTED_VERDICT[o.preset] for o in outcomes),
        "fit_us_per_lm_iteration": sum(walls) / max(iterations, 1) * 1e6,
        "traces_abandoned": len(p.abandoned),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_sums(spans) -> Dict[str, float]:
    """Additive per-layer counts and times over `spans`; layer_metrics turns them into ratios."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    names = {}
    for s in spans:
        by_name[s.name].append(s)
        names[s.id] = s.name

    def self_s(name):
        return sum(selfs[s.id] for s in by_name[name])

    def total_s(name):
        return sum(s.end - s.start for s in by_name[name])

    def info_count(name, key, value):
        return sum(bool(s.info) and s.info[key] == value for s in by_name[name])

    lm = by_name["solver.lm_fit"]
    return {
        "model.evaluate_batch.calls": len(by_name["model.evaluate_batch"]),
        "model.evaluate_batch.self_s": self_s("model.evaluate_batch"),
        "model.evaluate_batch.domain_errors": sum(
            s.error == "LpplDomainError" for s in by_name["model.evaluate_batch"]),
        "solver.lm_fit.calls": len(lm),
        "solver.lm_fit.self_s": self_s("solver.lm_fit"),
        "solver.iterations": sum(s.info["iterations"] for s in lm if s.info),
        "solver.accepted_steps": sum(s.info["accepted"] for s in lm if s.info),
        "solver.restarts": sum(s.info["restarts"] for s in lm if s.info),
        "linear.interleave_fit.calls": len(by_name["linear.interleave_fit"]),
        "linear.interleave_fit.self_s": self_s("linear.interleave_fit"),
        "linear.rounds": sum(names.get(s.parent) == "linear.interleave_fit" for s in lm),
        "linear.round_capped": info_count("linear.interleave_fit", "termination", "iteration-cap"),
        "linear.solve_linear_subsystem.calls": len(by_name["linear.solve_linear_subsystem"]),
        "linear.solve_linear_subsystem.self_s": self_s("linear.solve_linear_subsystem"),
        "linear.solve_linear_subsystem.ok": info_count("linear.solve_linear_subsystem", "status", "ok"),
        "driver.build_seed_set.self_s": self_s("driver.build_seed_set"),
        "seeds.triple_to_seed.calls": len(by_name["seeds.triple_to_seed"]),
        "seeds.triple_to_seed.ok": sum(s.error is None for s in by_name["seeds.triple_to_seed"]),
        "driver.fit_command.self_s": self_s("driver.fit_command"),
        "weights.build_weights.s": total_s("weights.build_weights"),
        "ingest.load_csv.s": total_s("ingest.load_csv"),
        "driver.report_to_json.s": total_s("driver.report_to_json"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.spans": len(spans),
        "trace.self_sum_s": sum(selfs.values()),
        "trace.root_s": sum(s.end - s.start for s in spans if s.parent is None),
        "trace.overlap_s": overlap_seconds(spans),
    }


def layer_metrics(sums: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from layer sums added up over traces."""
    out = {k: v for k, v in sums.items() if not k.startswith("trace.") and not k.endswith(
        (".round_capped", ".ok"))}
    out["solver.self_us_per_iter"] = _ratio(sums["solver.lm_fit.self_s"] * 1e6,
                                            sums["solver.iterations"])
    out["solver.accept_ratio"] = _ratio(sums["solver.accepted_steps"], sums["solver.iterations"])
    out["linear.round_cap_share"] = _ratio(sums["linear.round_capped"],
                                           sums["linear.interleave_fit.calls"])
    out["linear.solve_linear_subsystem.ok_ratio"] = _ratio(
        sums["linear.solve_linear_subsystem.ok"], sums["linear.solve_linear_subsystem.calls"])
    out["seeds.triple_to_seed.accept_ratio"] = _ratio(sums["seeds.triple_to_seed.ok"],
                                                      sums["seeds.triple_to_seed.calls"])
    return out


def show(name: str, value, unit: str, better: str) -> None:
    print(f"metric {name} = {value!r} {unit} ({better} is better)")


def show_units(label: str, outcomes) -> None:
    for o in outcomes:
        print(f"{label} {o.label}: fit {o.wall_s:.3f} s, {o.iterations} LM iterations, "
              f"{o.tasks} tasks, best E/dof {o.best_average_error:.6g}, verdict {o.verdict}, "
              f"report sha256 {o.sha256}")
        for problem in o.failed_checks:
            print(f"{label} CHECK FAILED {problem}")
    digest = hashlib.sha256("".join(o.sha256 for o in outcomes).encode()).hexdigest()
    print(f"{label} reports sha256 (all units, in order) {digest}")


def check_trace(f: Fit, twin: Fit) -> None:
    """Checks on one traced fit: same report as its untraced twin, and self times that add up.

    The self times of a fit's spans must sum to its root span plus the time
    that sibling spans ran side by side, and the root span must cover the
    traced wall time, less the install and removal of the wrappers.
    """
    o, layers = f.outcome, f.layers
    o.checks += 3
    if twin.outcome.sha256 != o.sha256:
        o.failed_checks.append(f"{o.label}: traced report differs from untraced")
    expected = layers["trace.root_s"] + layers["trace.overlap_s"]
    if abs(layers["trace.self_sum_s"] - expected) > 1e-6 * expected + 1e-9:
        o.failed_checks.append(f"{o.label}: span self times sum to {layers['trace.self_sum_s']!r} s, "
                               f"not root + overlap = {expected!r} s")
    if not 0 <= f.run_s - layers["trace.root_s"] <= 0.02 * f.run_s + 0.005:
        o.failed_checks.append(f"{o.label}: root spans cover {layers['trace.root_s']!r} s "
                               f"of a traced wall time of {f.run_s!r} s")


def trace_metrics(run: Pass) -> Dict[str, float]:
    """Per-layer metrics from the traced fits, checked against their untraced twins."""
    traced = run.fits["traced"]
    untraced = {f.index: f for f in run.fits["plain"]}
    sums: Dict[str, float] = defaultdict(int)
    for f in traced:
        check_trace(f, untraced[f.index])
        for key, value in f.layers.items():
            sums[key] += value
    show_units("traced", [f.outcome for f in traced])
    metrics = layer_metrics({key: sums[key] for key in layer_sums([])})
    metrics["driver.tasks"] = sum(f.outcome.tasks for f in traced)
    metrics["seeds.best_from_triple_share"] = _ratio(
        sum(f.outcome.best_from_triple for f in traced), len(traced))
    metrics["trace_overhead"] = _ratio(
        sum(f.run_s for f in traced), sum(untraced[f.index].run_s for f in traced)) - 1.0
    print(f"trace: {sums['trace.spans']:.0f} spans over {len(traced)} traced fits; self times "
          f"sum to {sums['trace.self_sum_s']:.6f} s = root spans {sums['trace.root_s']:.6f} s + "
          f"parallel overlap {sums['trace.overlap_s']:.6f} s; traced wall "
          f"{sum(f.run_s for f in traced):.6f} s")
    return metrics


def write_reference(args, workload) -> None:
    """Fit the workload's whole pool REFERENCE_PASSES times and store the results in reference.json.

    The passes must agree on everything but time; the stored fit time of a
    trace is the median of its passes, in machine seconds.
    """
    units = len(workload.pool())
    OUT_DIR.mkdir(exist_ok=True)
    passes = []
    for k in range(REFERENCE_PASSES):
        workdir = OUT_DIR / f"work-{os.getpid()}-{k}"
        workdir.mkdir()
        try:
            run = run_pass(args, "plain", units, math.inf, workdir, REFERENCE_TIMEOUT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        outcomes = [f.outcome for f in run.fits["plain"]]
        show_units(f"reference pass {k + 1}:", outcomes)
        if run.abandoned or len(outcomes) != units or any(o.failed for o in outcomes):
            fail("the reference run abandoned or failed a fit; reference.json not written")
        passes.append(run.fits["plain"])
    for fits in passes[1:]:
        if [(f.outcome.label, f.outcome.sha256) for f in fits] != [
                (f.outcome.label, f.outcome.sha256) for f in passes[0]]:
            fail("reference passes disagree on a report; reference.json not written")
    doc = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    entries = {}
    for same_trace in zip(*passes):
        o = same_trace[0].outcome
        entries[o.label] = {"iterations": o.iterations, "tasks": o.tasks,
                            "best_average_error": o.best_average_error,
                            "verdict": o.verdict, "sha256": o.sha256,
                            "fit_s": statistics.median(machine_s(f.outcome.wall_s, f.calibration)
                                                       for f in same_trace)}
    doc[workload.name] = entries
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"reference: {units} traces of {workload.name} written to {REFERENCE.name}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.worker:
        worker(args)
        return 0
    import_package()
    import micro
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        write_reference(args, workload)
        return 0
    end_to_end, per_layer = metric_tables()
    reference = load_reference(workload.name)
    units = unit_count(workload, args.seconds, args.trace)
    started = time.perf_counter()
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print(f"workload {workload.name}: seed {args.seed}, {units} trace fits planned"
          f"{', each untraced and then traced' if args.trace else ''}; closed loop, one client")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setups = measure_setup(args)
        run = run_pass(args, "paired" if args.trace else "plain", units,
                       DEADLINE_FACTOR * args.seconds, workdir, workload.unit_timeout_s,
                       RUN_LIMIT_S - (time.perf_counter() - started))
        plain = [f.outcome for f in run.fits["plain"]]
        if not plain:
            fail("no trace fit finished in time")
        show_units("untraced", plain)
        metrics = {"setup_s": statistics.median(setups), **summarize(run, reference)}
        tail = tail_percentile([o.wall_s for o in plain])
        print(f"setup: import + inputs {', '.join(f'{t:.4f}' for t in setups)} s")
        print(f"trace_fit_s.p50 over {len(plain)} trace fits")
        print("trace_fit_s.tail " + (
            f"p{tail[0]:.1f} = {tail[1]!r} s ({tail[2]} of {len(plain)} samples beyond)"
            if tail else f"not reported: {len(plain)} trace fits, fewer than 11"))
        if args.trace:
            metrics.update(trace_metrics(run))
            micro_metrics, micro_lines = micro.run()
            metrics.update(micro_metrics)
            for line in micro_lines:
                print(line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = run.outcomes
    attempted = sum(o.attempted for o in outcomes) + len(run.abandoned)
    failed = sum(o.failed for o in outcomes) + len(run.abandoned)
    metrics["failed_share"] = failed / attempted
    metrics["ok_share"] = 1.0 - metrics["failed_share"]
    # Peak over the child processes, the fit workers among them.
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for name, (unit, better) in {**end_to_end, **per_layer}.items():
        if name in metrics:
            show(name, metrics[name], unit, better)
    print(f"machine loadavg_end {loadavg()}")
    table = per_layer if args.trace else end_to_end
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, (unit, _) in table.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
