"""The benchmark's workloads: job lists, output checks and extra metrics.

Every workload is a closed loop with one client: jobs run one after another
in a single process (`cli` starts one subprocess per job and waits for it).
The in-process workloads shift theta by THETA_STEP in each pass, so the work
stays the same while no pass can reuse a table computed by an earlier one.
Outputs are checked outside the timed region. See NOTES.md for why each
workload and model was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import cyclecap as cc
import cyclecap.cli
import oracle
from layers import is_narrow

Model = Tuple[int, int, float]  # (n, alpha, theta)
Problems = Dict[str, List[str]]
Outputs = Dict[str, object]  # job name -> output of one pass

# The widest cap the in-process workloads touch; set-up runs one DP there.
WIDEST: Model = (100_000, 17_782, 1.0)
PROB_TOL = 1e-10
ORACLE_TOL = 1e-12
Z_MAX = 5.0
THETA_STEP = 2.0**-20
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class Job:
    name: str
    model: Model
    run: Callable[[], object]
    # sub-timings the last run recorded (sample: the time of its draws)
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def narrow(self) -> bool:
        return is_narrow(self.model[0], self.model[1])


@dataclass
class Workload:
    jobs: Callable[[int, int], List[Job]]  # (seed, pass index) -> the pass's jobs
    check: Callable[[List[Outputs], int], Problems]  # (outputs of every pass, seed)
    # figures printed after the metrics: name -> (value, unit), from the passes
    extras: Callable[[List[dict]], Dict[str, Tuple[float, str]]] = lambda passes: {}
    warmup: Optional[Model] = None
    # cli only: the same commands run in-process, for the traced run
    inprocess_jobs: Optional[Callable[[int, int], List[Job]]] = None
    min_passes: int = 1
    # checks made outside the job list, counted as attempted operations
    extra_checks: int = 0


def _constraint_model(model: Model) -> cc.ConstraintModel:
    n, alpha, theta = model
    return cc.ConstraintModel(n=n, alpha=alpha, theta=theta)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _theta(pass_index: int) -> float:
    return 1.0 + pass_index * THETA_STEP


# ---------------------------------------------------------------------------
# exact: in-process exact queries

EXACT_NARROW = [(10_000, 10), (100_000, 100), (100_000, 1072), (1_000_000, 1000)]
EXACT_WIDE = [(10_000, 2511), (100_000, 17_782)]
# One DP table at (10^6, 1000) costs about as much as all queries at
# (10^5, 100); only partition_function runs there, to keep a pass near 10 s.
EXACT_PARTITION_ONLY = {(1_000_000, 1000)}


def _tag(model: Model) -> str:
    return f"n={model[0]},alpha={model[1]}"


def exact_jobs(seed: int, pass_index: int) -> List[Job]:
    rng = random.Random(seed)
    prefix = [rng.randint(0, 3) for _ in range(3)]
    jobs = []
    for n, alpha in EXACT_NARROW + EXACT_WIDE:
        model = (n, alpha, _theta(pass_index))
        m = _constraint_model(model)
        tag = _tag(model)
        jobs.append(Job(f"{tag}:partition_function", model, lambda m=m: cc.partition_function(m).logval))
        if (n, alpha) in EXACT_PARTITION_ONLY:
            continue
        for k in (1, alpha // 2, alpha):
            jobs.append(
                Job(
                    f"{tag}:expected_cycle_count:m={k}",
                    model,
                    lambda m=m, k=k: cc.expected_cycle_count(m, k),
                )
            )
        jobs += [
            Job(
                f"{tag}:cycle_count_distribution",
                model,
                lambda m=m: cc.cycle_count_distribution(m, m.alpha),
            ),
            Job(f"{tag}:longest_cycle_cdf", model, lambda m=m: cc.longest_cycle_cdf(m, m.alpha - 1)),
            Job(f"{tag}:exact_tv_distance", model, lambda m=m: cc.exact_tv_distance(m, min(19, m.alpha)).tv),
            Job(
                f"{tag}:joint_cycle_count_logpmf",
                model,
                lambda m=m: cc.joint_cycle_count_logpmf(m, prefix).logval,
            ),
        ]
    return jobs


ORACLE_KINDS = ("narrow", "wide", "any")


def oracle_models(seed: int) -> List[Tuple[int, int, int]]:
    """Three integer-theta models with n in the hundreds: narrow, wide, any cap."""
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for kind in ORACLE_KINDS:
        n = rng.randint(100, 300)
        edge = int(math.sqrt(n * math.log(n)))
        lo, hi = {"narrow": (2, edge), "wide": (edge + 1, n - 1), "any": (2, n - 1)}[kind]
        out.append((n, rng.randint(lo, hi), rng.randint(1, 3)))
    return out


def oracle_problems(n: int, alpha: int, theta: int) -> List[str]:
    """Package values against the integer recurrence, 1e-12 relative.

    log Z is compared as Z: |log Z - log Z_oracle| <= 1e-12 * max(1, |log Z|),
    because a relative error of log Z means nothing where log Z is near 0.
    """
    m = cc.ConstraintModel(n=n, alpha=alpha, theta=float(theta))
    log_z, want = cc.partition_function(m).logval, oracle.log_partition(n, alpha, theta)
    found = []
    if not abs(log_z - want) <= ORACLE_TOL * max(1.0, abs(want)):
        found.append(f"log Z: package {log_z!r}, oracle {want!r}")
    pairs = []
    for k in sorted({1, alpha // 2, alpha}):
        pairs.append(
            (f"E[C_{k}]", cc.expected_cycle_count(m, k), oracle.expected_cycle_count(n, alpha, theta, k))
        )
    pairs.append(
        (
            f"P[longest <= {alpha - 1}]",
            cc.longest_cycle_cdf(m, alpha - 1),
            oracle.longest_cycle_cdf(n, alpha, theta, alpha - 1),
        )
    )
    return found + [
        f"{what}: package {got!r}, oracle {want!r}"
        for what, got, want in pairs
        if not (math.isfinite(got) and _rel(got, want) <= ORACLE_TOL)
    ]


def exact_check(passes: List[Outputs], seed: int) -> Problems:
    problems: Problems = {}

    def need(name: str, ok: bool, message: str) -> None:
        if not ok and message not in problems.get(name, []):
            problems.setdefault(name, []).append(message)

    for outputs in passes:
        _exact_pass_check(outputs, need)
    for n, alpha, theta in oracle_models(seed):
        found = oracle_problems(n, alpha, theta)
        if found:
            problems[f"oracle:n={n},alpha={alpha},theta={theta}"] = found
    return problems


def _exact_pass_check(outputs: Outputs, need: Callable[[str, bool, str], None]) -> None:
    for name, value in outputs.items():
        if value is None:
            continue
        query = name.split(":")[1]
        if query == "cycle_count_distribution":
            p = np.exp(value)
            mean = float(np.dot(np.arange(len(p)), p))
            total = float(np.sum(p))
            need(name, abs(total - 1.0) <= PROB_TOL, f"P[C_alpha = .] sums to {total!r}")
            alpha = int(name.split(":")[0].split("alpha=")[1])
            expected = outputs.get(f"{name.split(':')[0]}:expected_cycle_count:m={alpha}")
            if expected is not None:
                need(
                    name,
                    _rel(mean, expected) <= PROB_TOL,
                    f"mean {mean!r} of the law != expected_cycle_count {expected!r}",
                )
        elif query in ("longest_cycle_cdf", "exact_tv_distance"):
            need(name, 0.0 <= value <= 1.0, f"value {value!r} outside [0, 1]")
        elif query == "joint_cycle_count_logpmf":
            need(name, value <= 0.0 and not math.isnan(value), f"log probability {value!r}")
        else:
            need(name, math.isfinite(value), f"value {value!r} is not finite")


# ---------------------------------------------------------------------------
# sample: exact draws, then the regime's battery on them

# (label, model, draws). The "clt" model (2000, 12) is in the diverging regime;
# its job runs the CLT battery and the diverging battery on the same draws.
SAMPLE_MODELS = [
    ("critical", (100_000, 1072, 1.0), 1000),
    ("vanishing", (100_000, 17_782, 1.0), 1000),
    ("clt", (2000, 12, 1.0), 1000),
]
# The larger diverging models, whose tilted tables span more than double range.
# The sampler fails their moment check there (ROADMAP P0), so they form the
# `diverging` workload of their own, which BENCHMARK.json does not list; see
# NOTES.md, "Known failure".
DIVERGING_MODELS = [
    ("diverging", (10_000, 10, 1.0), 200),
    ("diverging", (100_000, 100, 1.0), 200),
]
REGIME_OF_LABEL = {"diverging": "diverging", "clt": "diverging", "critical": "critical", "vanishing": "vanishing"}
PROCESS_GRID = (0.5, 1.0, 1.5, 2.0)
DIVERGING_K = 5


def _battery(label: str, m: cc.ConstraintModel, draws: list):
    if label == "diverging":
        return cc.check_longest_diverging(draws, m, DIVERGING_K)
    if label == "critical":
        return [cc.check_longest_critical(draws, m, k, 60) for k in (1, 2)]
    if label == "vanishing":
        return (
            cc.poisson_process_battery(draws, m, PROCESS_GRID),
            cc.tightness_moment_estimate(draws, m, 0.0, 1.0, 2.0),
        )
    return (
        cc.clt_battery(m, [10, 12], len(draws), samples=draws),
        cc.check_longest_diverging(draws, m, DIVERGING_K),
    )


def _sample_job(label: str, model: Model, count: int, seed: int, timings: dict) -> Callable[[], dict]:
    m = _constraint_model(model)

    def run() -> dict:
        t0 = time.perf_counter()
        draws = cc.sample_lengths(m, count, seed)
        timings["draw_s"] = time.perf_counter() - t0
        return {"draws": draws, "battery": _battery(label, m, draws)}

    return run


def _sample_name(label: str, model: Model) -> str:
    return f"{label}:{_tag(model)}"


def _sample_jobs(models) -> Callable[[int, int], List[Job]]:
    def jobs(seed: int, pass_index: int) -> List[Job]:
        out = []
        for label, (n, alpha, _), count in models:
            model = (n, alpha, _theta(pass_index))
            timings: Dict[str, float] = {}
            run = _sample_job(label, model, count, seed, timings)
            out.append(Job(_sample_name(label, model), model, run, timings))
        return out

    return jobs


def moment_z_scores(model: Model, draws: list) -> Dict[int, float]:
    """(sampled mean - exact mean) / standard error of C_m, m = 1, alpha//2, alpha."""
    m = _constraint_model(model)
    out = {}
    for k in sorted({1, max(1, m.alpha // 2), m.alpha}):
        p = np.exp(cc.cycle_count_distribution(m, k))
        support = np.arange(len(p))
        mean = float(np.dot(support, p))
        var = float(np.dot(support * support, p)) - mean * mean
        sampled = float(np.mean([np.count_nonzero(lengths == k) for lengths in draws]))
        out[k] = (sampled - mean) / math.sqrt(var / len(draws))
    return out


def _battery_problems(label: str, result) -> List[str]:
    if label == "diverging":
        values = [result]
    elif label == "critical":
        values = [t.tv for t in result]
    elif label == "vanishing":
        values = [result[0].failed_fraction]
        if not (math.isfinite(result[1].value) and result[1].value >= 0):
            return [f"tightness estimate {result[1].value!r}"]
    else:
        values = [e.ks_stat for e in result[0].entries] + [result[1]]
    return [f"battery value {v!r} outside [0, 1]" for v in values if not 0.0 <= v <= 1.0]


def _sample_check(models) -> Callable[[List[Outputs], int], Problems]:
    def check(passes: List[Outputs], seed: int) -> Problems:
        """Every pass: valid cycle types and sane battery values. First pass
        (theta = 1): sampled means of C_m against the exact law."""
        problems: Problems = {}
        for p, outputs in enumerate(passes):
            for label, model, count in models:
                name = _sample_name(label, model)
                out = outputs.get(name)
                if out is None:
                    continue
                found = []
                n, alpha, _ = model
                draws = out["draws"]
                bad = sum(
                    1 for lengths in draws if lengths.sum() != n or lengths.max() > alpha or lengths.min() < 1
                )
                if len(draws) != count or bad:
                    found.append(f"{len(draws)} draws, {bad} not a cycle type of n={n} with cap {alpha}")
                if p == 0:
                    for k, z in moment_z_scores(model, draws).items():
                        if not abs(z) <= Z_MAX:
                            found.append(f"sampled mean of C_{k} is off the exact law by z = {z:+.1f}")
                found += _battery_problems(label, out["battery"])
                for message in found:
                    if message not in problems.get(name, []):
                        problems.setdefault(name, []).append(message)
        return problems

    return check


def _sample_extras(models) -> Callable[[List[dict]], Dict[str, Tuple[float, str]]]:
    def extras(passes: List[dict]) -> Dict[str, Tuple[float, str]]:
        out = {}
        for regime in sorted({REGIME_OF_LABEL[label] for label, _, _ in models}):
            rows = [
                (_sample_name(label, model), count)
                for label, model, count in models
                if REGIME_OF_LABEL[label] == regime
            ]
            draws = sum(count for _, count in rows)
            # a job that raised before its draws finished leaves no draw time
            rates = [
                draws / sum(p["timings"][name]["draw_s"] for name, _ in rows)
                for p in passes
                if all("draw_s" in p["timings"][name] for name, _ in rows)
            ]
            out[f"draws_per_s.{regime}"] = (statistics.median(rates) if rates else math.nan, "1/s")
        return out

    return extras


def _sample_workload(models) -> Workload:
    # Two passes at least keep a slow first pass from standing alone as the
    # run's median.
    return Workload(
        jobs=_sample_jobs(models),
        check=_sample_check(models),
        extras=_sample_extras(models),
        warmup=WIDEST,
        min_passes=2,
    )


# ---------------------------------------------------------------------------
# cli: README commands, one fresh interpreter each


def _cli_commands(seed: int) -> List[Tuple[str, List[str]]]:
    sample = f"sample --n 1000 --alpha 100 --count 50 --seed {seed} --emit longest"
    clt = "clt --n 2000 --alpha 12 --m-list 10,12 --s-grid 0,0.1"
    commands = [
        ("saddle", "saddle --n 100000 --beta 0.85"),
        ("partition", "partition --n 5 --alpha 3"),
        ("sample", sample),
        ("sample_w2", f"{sample} --workers 2"),
        ("tvd", "tvd --n 65536 --alpha 2352 --b 19"),
        ("oracle", "oracle --n 6 --alpha 3 --theta 2"),
        ("spcheck", "spcheck --n 10000 --alpha 251"),
        ("clt.h", clt),
        # The README's 3000 samples cost 5-7 s, a quarter of a pass, in one command.
        ("clt", f"{clt} --samples 1000 --seed {seed}"),
        ("limits.diverging", f"limits --n 10000 --alpha 10 --check diverging --samples 50 --seed {seed}"),
        (
            "limits.critical",
            f"limits --n 100000 --alpha 1072 --check critical --samples 100 --seed {seed} --d-max 60",
        ),
        (
            "limits.process",
            f"limits --n 100000 --beta 0.85 --check process --samples 100 --seed {seed}"
            " --grid 0.5,1,1.5,2 --subbatches 2",
        ),
    ]
    return [(label, command.split()) for label, command in commands]


CLI_LABELS = [label for label, _ in _cli_commands(0)]


def _argv_model(argv: List[str]) -> Model:
    flags = dict(zip(argv[1::2], argv[2::2]))
    n, theta = int(flags["--n"]), float(flags.get("--theta", 1.0))
    if "--beta" in flags:
        return (n, cc.ConstraintModel.from_exponent(n, float(flags["--beta"]), theta).alpha, theta)
    return (n, int(flags["--alpha"]), theta)


def _subprocess(argv: List[str]) -> Callable[[], tuple]:
    def run() -> tuple:
        proc = subprocess.run(
            [sys.executable, "-m", "cyclecap", *argv],
            capture_output=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr[-2000:]

    return run


def _inprocess(argv: List[str]) -> Callable[[], tuple]:
    def run() -> tuple:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cc.cli.run(argv)
        return code, buffer.getvalue().encode(), b""

    return run


def cli_jobs(seed: int, pass_index: int) -> List[Job]:
    return [Job(label, _argv_model(argv), _subprocess(argv)) for label, argv in _cli_commands(seed)]


def cli_inprocess_jobs(seed: int, pass_index: int) -> List[Job]:
    # The pool variant would fork workers from the benchmark process.
    return [
        Job(label, _argv_model(argv), _inprocess(argv))
        for label, argv in _cli_commands(seed)
        if "--workers" not in argv
    ]


def _artifact_problems(label: str, argv: List[str], stdout: bytes) -> List[str]:
    sampling = label.startswith(("sample", "limits")) or "--samples" in argv
    text = stdout.decode()
    if argv[0] in ("sample", "oracle"):
        lines = text.splitlines()
        head = [ln for ln in lines if ln.startswith("# ")]
        found = []
        if not head or head[0] != f"# cyclecap {cc.__version__}":
            found.append("CSV header lacks the version line")
        config = [ln[len("# config: "):] for ln in head if ln.startswith("# config: ")]
        if len(config) != 1 or not isinstance(json.loads(config[0]), dict):
            found.append("CSV header lacks the config line")
        if sampling and f"# rng: {cc.RNG_ID}" not in head:
            found.append("CSV header lacks the rng id")
        if len(lines) - len(head) < 2:
            found.append("CSV artifact has no result rows")
        return found
    artifact = json.loads(text)
    found = [f"artifact lacks {key!r}" for key in ("version", "config", "result") if key not in artifact]
    if artifact.get("version") != cc.__version__:
        found.append(f"artifact version {artifact.get('version')!r}")
    if sampling and artifact.get("rng") != cc.RNG_ID:
        found.append(f"artifact rng {artifact.get('rng')!r}, expected {cc.RNG_ID!r}")
    return found


def cli_check(passes: List[Outputs], seed: int) -> Problems:
    """Exit code 0, a well-formed artifact, the same bytes in every pass and
    the same bytes from --workers 2 as from --workers 1."""
    problems: Problems = {}
    argvs = dict(_cli_commands(seed))
    first = passes[0]
    for label in first:
        runs = [outputs[label] for outputs in passes if outputs.get(label) is not None]
        found = []
        for code, stdout, stderr in runs:
            if code != 0:
                found.append(f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}")
                break
            try:
                found += _artifact_problems(label, argvs[label], stdout)
            except (ValueError, UnicodeDecodeError) as e:
                found.append(f"artifact does not parse: {e}")
            if found:
                break
        if len({stdout for _, stdout, _ in runs}) > 1:
            found.append("output differs between repeated runs")
        if found:
            problems[label] = found
    for outputs in passes:
        w1, w2 = outputs.get("sample"), outputs.get("sample_w2")
        if "sample_w2" in outputs and w1 is not None and w2 is not None and w1[1] != w2[1]:
            problems.setdefault("sample_w2", []).append("output differs from --workers 1")
            break
    return problems


def cli_extras(passes: List[dict]) -> Dict[str, Tuple[float, str]]:
    times = [t for p in passes for t in p["times"].values()]
    return {"cmd_p50_s": (statistics.median(times), "s"), "cmd_samples": (len(times), "count")}


WORKLOADS: Dict[str, Workload] = {
    "exact": Workload(jobs=exact_jobs, check=exact_check, warmup=WIDEST, extra_checks=len(ORACLE_KINDS)),
    "sample": _sample_workload(SAMPLE_MODELS),
    # Two passes at least: each command's output must repeat byte for byte.
    "cli": Workload(
        jobs=cli_jobs,
        check=cli_check,
        extras=cli_extras,
        inprocess_jobs=cli_inprocess_jobs,
        min_passes=2,
    ),
    # Not in BENCHMARK.json: its moment check fails (ROADMAP P0).
    "diverging": _sample_workload(DIVERGING_MODELS),
}
