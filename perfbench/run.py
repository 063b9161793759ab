"""cyclecap benchmark: run one workload at one seed and report its metrics.

    python3 perfbench/run.py --workload exact|sample|cli --seed N --seconds S --trace 0|1

BENCHMARK.json lists exact, sample and cli. A fourth workload, diverging, runs
the two diverging-regime models whose sampler tables exceed double range; the
sampler fails their moment check (NOTES.md, "Known failure"), so it runs by
the same command but is not listed.

Run from the root of a source tree; the package is imported from ./src. The
run repeats the workload's fixed job list for about S seconds (at least once,
twice for `sample` and `cli`), checks the outputs outside the timed region, and prints one
line per metric followed, as the last line, by a JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, taken from
traced passes that alternate with untraced ones. A result file with the
machine record goes to perfbench/results/, and with --trace 1 a span file too.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
# A run stops starting passes once it could not finish the next one by then.
RUN_BUDGET_S = 120


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# machine record


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = sorted(
            {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
        )
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    import cyclecap

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cyclecap": cyclecap.__version__,
        "rng": cyclecap.RNG_ID,
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up and passes


def _import_times(stderr: str) -> Dict[str, float]:
    """Import seconds from -X importtime output: cyclecap cumulative, scipy summed.

    scipy loads scipy.stats through its lazy module __getattr__, which leaves
    no importtime line of its own, so the scipy figure is the self time summed
    over every scipy module that the import loaded.
    """
    out = {"cyclecap": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "cyclecap":
            out["cyclecap"] = int(parts[1]) * 1e-6
        elif name == "scipy" or name.startswith("scipy."):
            out["scipy"] += int(parts[0]) * 1e-6
    return out


def setup_samples(warmup, trace: bool) -> List[dict]:
    """Fresh interpreters: import cyclecap, then one DP at the widest cap if any."""
    code = "import cyclecap as cc"
    if warmup:
        n, alpha, theta = warmup
        code += f"; cc.partition_function(cc.ConstraintModel(n={n}, alpha={alpha}, theta={theta}))"
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", code]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}: {proc.stderr[-2000:]}")
        samples.append({"seconds": elapsed, "imports": _import_times(proc.stderr)})
    return samples


def run_pass(jobs, tracer=None) -> dict:
    """Run every job once; outputs are kept for checking after the run."""
    rec = {"times": {}, "timings": {}, "errors": {}, "outputs": {}}
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        start = time.perf_counter()
        try:
            out = job.run()
        except Exception:
            out = None
            rec["errors"][job.name] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        rec["times"][job.name] = time.perf_counter() - start
        rec["timings"][job.name] = dict(job.timings)
        rec["outputs"][job.name] = out
    rec["wall_s"] = time.perf_counter() - t0
    rec["narrow_s"] = sum(rec["times"][j.name] for j in jobs if j.narrow)
    rec["wide_s"] = sum(rec["times"][j.name] for j in jobs if not j.narrow)
    # Outputs of earlier passes stay in memory until they are checked, so the
    # peak is read after each pass and the first pass's figure is reported.
    rec["maxrss_kib"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    return rec


def _more(started: float, window_start: float, seconds: float, done: int, min_passes: int) -> bool:
    """Whether to start another pass: it must be expected to end at most half a
    pass after the window, and within the run's budget."""
    now = time.perf_counter()
    per_pass = (now - window_start) / done
    if now - started + per_pass > RUN_BUDGET_S:
        return False
    return done < min_passes or now - window_start + per_pass / 2 <= seconds


def measure(make_jobs, seconds: float, min_passes: int, started: float) -> List[dict]:
    """Passes of make_jobs(pass index) until the window of `seconds` is used."""
    passes: List[dict] = []
    window = time.perf_counter()
    while not passes or _more(started, window, seconds, len(passes), min_passes):
        passes.append(run_pass(make_jobs(len(passes))))
    return passes


def measure_traced(make_jobs, seconds: float, started: float):
    """Alternate untraced and traced passes; returns both lists and the spans."""
    from layers import Tracer

    untraced: List[dict] = []
    traced: List[dict] = []
    spans = []
    window = time.perf_counter()
    while not untraced or _more(started, window, seconds, len(untraced), 1):
        untraced.append(run_pass(make_jobs(2 * len(untraced))))
        jobs = make_jobs(2 * len(untraced) - 1)
        with Tracer() as tracer:
            traced.append(run_pass(jobs, tracer))
        spans.append(tracer.spans)
    return untraced, traced, spans


def account(workload, groups: List[List[dict]], seed: int):
    """Problems per job, with attempted and failed counts over every pass.

    A job that raised or failed its output check in any pass counts as failed
    in every pass; a check outside the job list fails once.
    """
    problems: Dict[str, List[str]] = {}
    attempted = failed = 0
    for i, passes in enumerate(groups):
        names = jobs_of(passes)
        found = workload.check([p["outputs"] for p in passes], seed)
        for name in names:
            raised = [p["errors"][name] for p in passes if name in p["errors"]]
            if raised:
                found.setdefault(name, []).append(raised[0])
        attempted += len(names) * len(passes) + workload.extra_checks
        failed += sum(len(passes) if name in names else 1 for name in found)
        tag = f"group {i} " if len(groups) > 1 else ""
        problems.update({tag + name: messages for name, messages in found.items()})
    return problems, attempted, failed


def jobs_of(passes: List[dict]) -> List[str]:
    return list(passes[0]["times"])


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup: List[dict], passes: List[dict], child_rss: bool) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(s["seconds"] for s in setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": passes[0]["maxrss_kib"]["children" if child_rss else "self"] / 1024.0,
        "narrow_s": statistics.median(p["narrow_s"] for p in passes),
        "wide_s": statistics.median(p["wide_s"] for p in passes),
    }


def _median_time(passes: List[dict], job: str) -> float:
    return statistics.median(p["times"][job] for p in passes) if passes else 0.0


def per_layer(setup, sub_passes, untraced, traced, spans, cli_labels) -> Dict[str, float]:
    """Per-layer metrics; `sub_passes` holds the cli workload's subprocess passes."""
    import cyclecap as cc
    from layers import layer_metrics

    regimes: Dict[tuple, str] = {}

    def regime_of(model: tuple) -> str:
        if model not in regimes:
            n, alpha, theta = model
            report = cc.regime_report(cc.ConstraintModel(n=n, alpha=alpha, theta=theta))
            regimes[model] = report.classification.lower()
        return regimes[model]

    queries = len(jobs_of(traced))
    per_pass = [layer_metrics(s, queries, regime_of) for s in spans]
    m = {key: statistics.median(d[key] for d in per_pass) for key in per_pass[0]}
    m["import.cyclecap_s"] = statistics.median(s["imports"]["cyclecap"] for s in setup)
    m["import.scipy_s"] = statistics.median(s["imports"]["scipy"] for s in setup)
    m["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    for label in cli_labels:
        m[f"cli.cmd_s.{label}"] = _median_time(sub_passes, label)
        if label != "sample_w2":
            m[f"cli.compute_s.{label}"] = _median_time(untraced, label) if sub_passes else 0.0
    w1, w2 = m["cli.cmd_s.sample"], m["cli.cmd_s.sample_w2"]
    m["cli.pool_speedup"] = w1 / w2 if w2 else 0.0
    return m


# ---------------------------------------------------------------------------
# entry point


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("exact", "sample", "cli", "diverging"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _use_source_tree() -> Optional[str]:
    """Import cyclecap from ./src only; returns a reason when that is impossible."""
    if not (SRC / "cyclecap" / "__init__.py").is_file():
        return f"no package source at {SRC / 'cyclecap'}; run from the root of a cyclecap source tree"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ.pop("CYCLECAP_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import cyclecap

    if Path(cyclecap.__file__).resolve().parent != (SRC / "cyclecap").resolve():
        return f"cyclecap was imported from {cyclecap.__file__}, not from {SRC}"
    return None


def _spec(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    reason = _use_source_tree()
    if reason:
        print(f"error: {reason}", file=sys.stderr)
        return 2

    import cyclecap as cc
    from workloads import CLI_LABELS, WIDEST, WORKLOADS

    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    setup = setup_samples(wl.warmup, trace)
    if wl.warmup or trace:
        # BLAS starts its threads on the first long dot product; pay that here, not in a job.
        n, alpha, theta = WIDEST
        cc.partition_function(cc.ConstraintModel(n=n, alpha=alpha, theta=theta))

    def make_jobs(pass_index: int):
        return wl.jobs(args.seed, pass_index)

    if not trace:
        passes = measure(make_jobs, args.seconds, wl.min_passes, started)
        groups = [passes]
        metrics = end_to_end(setup, passes, child_rss=wl.inprocess_jobs is not None)
        units = _spec("end_to_end")
        extras = wl.extras(passes)
    else:
        sub_passes = measure(make_jobs, 0, wl.min_passes, started) if wl.inprocess_jobs else []

        def in_process(pass_index: int):
            return (wl.inprocess_jobs or wl.jobs)(args.seed, pass_index)

        passes, traced, spans = measure_traced(in_process, args.seconds, started)
        groups = [g for g in (sub_passes, passes + traced) if g]
        metrics = per_layer(setup, sub_passes, passes, traced, spans, CLI_LABELS)
        units = _spec("per_layer")
        extras = {}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    problems, attempted, failed = account(wl, groups, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(args.seed),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_job_s": [p["times"] for p in passes],
        "setup_samples_s": [s["seconds"] for s in setup],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    if trace:
        rows = [
            {"name": s.name, "job": s.job, "parent": s.parent, "start": s.start, "end": s.end, "info": s.info}
            for s in spans[-1]
        ]
        (RESULTS / f"spans-{stem}.json").write_text(json.dumps(rows, default=str) + "\n")

    _report(record, problems)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


def _report(record: dict, problems: Dict[str, List[str]]) -> None:
    wall = quartiles(record["pass_wall_s"])
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(
        f"passes {wall['n']}: wall median {wall['median']:.4f} s, "
        f"quartiles {wall['q1']:.4f} .. {wall['q3']:.4f} s; set-up samples "
        + ", ".join(f"{s:.3f}" for s in record["setup_samples_s"])
        + " s"
    )
    for section in ("metrics", "extras"):
        for name, m in record[section].items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    share = record["failed"] / record["attempted"]
    print(f"  {'ops_failed_share':34s} {share:.6g} ratio ({record['failed']} of {record['attempted']})")
    for name, messages in problems.items():
        for message in messages:
            print(f"  FAILED {name}: {message}")


if __name__ == "__main__":
    sys.exit(main())
