"""Benchmark of the gibbsfactor CLI: end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload sweep-fs4 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25     # summary table
    python3 bench/run.py --self-test                              # smoke sizes

A run times set-up in several fresh processes, then starts one fresh worker
process (bench/worker.py) that runs the workload's command script in a closed
loop with a single client for --seconds.  Every command's exit code and
output is checked against the numpy-only oracle in bench/oracle.py.

The shared host's speed drifts by up to twofold, so every timed interval
(each set-up, each command) is bracketed by calibration blocks and rescaled to
a fixed reference speed (bench/calibrate.py).  setup_s is the median rescaled
set-up time; run_ref_s sums each command's median rescaled time over the
script.  The raw wall times are printed beside them in the summary lines.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of the traced run with --trace 1.  Traced runs also write
spans, counters and a self-time table to .bench_out/<workload>-seed<seed>/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS thread: a single closed-loop client, steadier timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("sweep-fs4", "certify-narrow", "wide-fibers", "divergent-ng6")
SETUP_SAMPLES = 9
TYPICAL_SETUP_S = 0.3
WORKER_GRACE_S = 120.0

# printed values may differ from the oracle by their radius plus this much
# roundoff: the oracle's own forward-product error, 12-digit printing, and
# floating-point error the package's radii do not yet include
ROUNDOFF_ABS = 1e-11
ROUNDOFF_REL = 1e-11
CLUSTER_TOL = 1e-7
TAU_REL = 1e-9
INVARIANCE_MAX = 1e-12

END_TO_END = {
    "setup_s": "s",
    "run_ref_s": "s",
    "peak_rss_mb": "MB",
    "certified_frac": "ratio",
    "success_rate": "ratio",
}

COUNT_LAYERS = {
    "models.load_model": ("calls", "s"),
    "markov.stationary_distribution": ("s",),
    "projection.FactorSystem": ("s",),
    "tmc.enumerate_words": ("calls", "words", "s"),
    "tmc.enumerate_periodic": ("points", "s"),
    "projection.check_h2": ("s",),
    "projection.check_topological_markov": ("s",),
    "projection.log_nu_cylinder": ("calls", "s"),
    "projection.FactorSystem.word_product": ("calls", "s"),
    "projective.contraction_coefficient": ("calls", "s", "max_k", "bytes_computed"),
    "projective.apply_normalized": ("calls", "s"),
    "projective.projective_distance": ("calls", "s"),
    "potential.uniform_constants": ("calls", "s", "window_s", "d_const_s"),
    "potential.evaluate.certified": ("calls", "s", "terms"),
    "potential.evaluate.adaptive": ("calls", "s", "terms"),
    "potential.evaluate.diverged": ("calls", "s", "terms"),
    "potential.periodic_potential": ("calls", "s", "eigendata", "fallback", "iterations"),
    "potential.perron_data": ("calls", "s"),
    "potential.PointSpec": ("calls",),
    "potential.PointSpec.shifted": ("calls", "s"),
    "potential.canonical_extension": ("calls", "s"),
    "potential.tail_completions": ("calls", "s"),
    "potential.markov_approx": ("calls",),
    "potential.holder_variation": ("s",),
    "gibbs.bgi_sweep": ("s",),
    "gibbs.invariance_suite": ("s",),
    "cli.check": ("s", "self_s"),
    "cli.potential": ("s", "self_s"),
    "cli.periodic": ("s", "self_s"),
    "cli.holder": ("s", "self_s"),
    "cli.gibbs": ("s", "self_s"),
}
# per-layer counts taken on a parent -> child edge: (parent, child name prefix)
EDGE_METRICS = {
    "potential.uniform_constants.blocks_tested": (
        "potential.uniform_constants", "projection.FactorSystem.word_product"),
    "potential.uniform_constants.blocks_positive": (
        "potential.uniform_constants", "projective.contraction_coefficient"),
    "gibbs.bgi_sweep.lookups": ("gibbs.bgi_sweep", "potential.PointSpec.shifted"),
    "gibbs.bgi_sweep.evaluations": ("gibbs.bgi_sweep", "potential.evaluate"),
}

# layers whose self time should dominate each workload's traced run
PREDICTIONS = {
    "sweep-fs4": ("potential.evaluate.certified",),
    "certify-narrow": ("projective.apply_normalized",),
    "wide-fibers": ("projective.contraction_coefficient",),
    "divergent-ng6": (
        "potential.evaluate.adaptive",
        "potential.evaluate.diverged",
        "potential.periodic_potential",
    ),
}


def per_layer_names() -> list[str]:
    names = [f"{layer}.{m}" for layer, ms in COUNT_LAYERS.items() for m in ms]
    names += list(EDGE_METRICS)
    return names + ["proc.cpu_s", "proc.blas_threads", "trace.overhead_s"]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


# -- output checks ----------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _point_symbols(om: oracle.OracleModel, text: str) -> tuple[tuple, tuple]:
    """CLI point syntax PRE/PERIOD (single-character labels) -> symbol tuples."""
    pre, per = text.split("/", 1) if "/" in text else ("", text)
    return tuple(om.index(c) for c in pre), tuple(om.index(c) for c in per)


def _printed_point(om: oracle.OracleModel, text: str) -> tuple[tuple, tuple]:
    """Printed point 'pre(per)*' -> symbol tuples."""
    m = re.fullmatch(r"(.*)\((.+)\)\*", text)
    _require(m is not None, f"unreadable point {text!r}")
    return tuple(om.index(c) for c in m.group(1)), tuple(om.index(c) for c in m.group(2))


class Checker:
    """Semantic checks of one workload's command outputs against the oracle.

    check() returns (certified evaluations, evaluations) printed by the
    command and raises CheckFailed on any wrong exit code, verdict or value.
    With corrupt=True the first oracle value used is moved by 1e-3, which
    the self-test uses to show that a wrong value is caught.
    """

    def __init__(self, model_path: str, corrupt: bool = False):
        self.om = oracle.OracleModel.load(model_path)
        self.h1, self.h2 = self.om.h1_h2()
        self.certified_model = self.h1 and self.h2
        self.corrupt = corrupt
        self._limits: dict[tuple, dict] = {}

    def limits(self, points: list[tuple[tuple, tuple]]) -> list[dict]:
        todo = [p for p in points if p not in self._limits]
        for p, lim in zip(todo, oracle.point_limits(self.om, todo)):
            if self.corrupt and lim["kind"] == "value":
                lim = dict(lim, value=lim["value"] + 1e-3)
                self.corrupt = False
            self._limits[p] = lim
        return [self._limits[p] for p in points]

    def check(self, argv: list[str], code: int, text: str) -> tuple[int, int]:
        return getattr(self, f"_check_{argv[0]}")(argv, code, text)

    def _value(self, lim: dict, value: float, radius: float, what: str) -> None:
        if lim["kind"] == "diverged":
            raise CheckFailed(f"{what}: value printed where the oracle diverges")
        if lim["kind"] == "unresolved":
            _require(math.isinf(radius), f"{what}: finite radius the oracle cannot confirm")
            return
        allowed = radius + lim["error"] + ROUNDOFF_ABS + ROUNDOFF_REL * abs(lim["value"])
        _require(
            abs(value - lim["value"]) <= allowed,
            f"{what}: value {value!r} is {abs(value - lim['value']):.3g} from the oracle's "
            f"{lim['value']!r}, more than radius {radius:.3g} plus roundoff",
        )

    def _clusters(self, lim: dict, clusters: list[float], what: str) -> None:
        _require(lim["kind"] == "diverged", f"{what}: divergence printed, oracle has {lim['kind']}")
        want = lim["clusters"]
        _require(
            len(clusters) == len(want)
            and all(abs(a - b) <= CLUSTER_TOL for a, b in zip(sorted(clusters), want)),
            f"{what}: clusters {clusters} differ from the oracle's {want}",
        )

    def _check_check(self, argv, code, text):
        _require(code == (0 if self.certified_model else 1), f"check exit code {code}")
        _require(f"fiber rows (H1): {'pass' if self.h1 else 'FAIL'}" in text, "H1 verdict")
        _require(f"cycle positivity (H2): {'pass' if self.h2 else 'FAIL'}" in text, "H2 verdict")
        if self.certified_model and self.om.full_support():
            m = re.search(r"certification: window (\d+), tau (\S+),", text)
            _require(m is not None, "certification line missing")
            _require(int(m.group(1)) == self.om.nb + 1, f"window {m.group(1)}")
            tau = oracle.full_shift_tau(self.om)
            _require(abs(float(m.group(2)) - tau) <= TAU_REL * tau, f"tau {m.group(2)} vs {tau!r}")
        elif not self.certified_model:
            _require("certification: unavailable" in text, "constants reported without H1/H2")
        return 0, 0

    def _check_potential(self, argv, code, text):
        point = _point_symbols(self.om, argv[argv.index("--point") + 1])
        (lim,) = self.limits([point])
        if lim["kind"] == "diverged":
            _require(code == 1, f"potential exit code {code} on a divergent point")
            m = re.search(r"subsequence clusters: (.*)", text)
            _require(m is not None, "no subsequence clusters printed")
            self._clusters(lim, [float(x) for x in m.group(1).split(", ")], "potential")
            return 0, 1
        _require(code == 0, f"potential exit code {code}")
        value = re.search(r"^value: (\S+)$", text, re.M)
        radius = re.search(r"^error radius: (\S+)$", text, re.M)
        mode = re.search(r"^mode: .*\((certified|uncertified)\)$", text, re.M)
        _require(value and radius and mode, "value, radius or mode line missing")
        self._value(lim, float(value.group(1)), float(radius.group(1)), "potential")
        return int(mode.group(1) == "certified"), 1

    def _check_periodic(self, argv, code, text):
        lines = text.splitlines()
        max_period = int(argv[argv.index("--max-period") + 1])
        expected = [((), p) for p in oracle.periodic_points(self.om, max_period)]
        printed = {}
        for line in lines:
            name, _, rest = line.partition(": ")
            printed[_printed_point(self.om, name)] = rest
        _require(set(printed) == set(expected) and len(lines) == len(expected),
                 f"periodic printed {len(lines)} points, oracle has {len(expected)}")
        lims = self.limits(expected)
        any_diverged = any(lim["kind"] == "diverged" for lim in lims)
        _require(code == int(any_diverged), f"periodic exit code {code}")
        certified = 0
        for point, lim in zip(expected, lims):
            rest = printed[point]
            what = f"periodic {point[1]}"
            m = re.fullmatch(r"diverged; clusters (.*)", rest)
            if m:
                self._clusters(lim, [float(x) for x in m.group(1).split(", ")], what)
                continue
            m = re.match(r"value (\S+), radius (\S+), \w+ (certified|uncertified)", rest)
            _require(m is not None, f"{what}: unreadable line {rest!r}")
            self._value(lim, float(m.group(1)), float(m.group(2)), what)
            certified += m.group(3) == "certified"
        return certified, len(expected)

    def _check_holder(self, argv, code, text):
        lines = text.splitlines()
        n_max = int(argv[argv.index("--n-max") + 1])
        _require(code == 0, f"holder exit code {code}")
        rows = [ln for ln in lines if re.fullmatch(r"\d+,[^,]+,[^,]+", ln)]
        _require(len(rows) == n_max + 1, f"holder printed {len(rows)} rows")
        _require("bound satisfied: yes" in lines, "holder bound not satisfied")
        return 0, 0

    def _check_gibbs(self, argv, code, text):
        lines = text.splitlines()
        n_max = int(argv[argv.index("--n-max") + 1])
        _require(code == 0, f"gibbs exit code {code}")
        rows = [ln.split(",") for ln in lines if re.fullmatch(r"\d+(,[^,]+){5}", ln)]
        _require(len(rows) == n_max + 1, f"gibbs printed {len(rows)} rows")
        verdict = "pass" if self.certified_model else "uncertified"
        for n, row in enumerate(rows):
            _require(int(row[0]) == n, f"gibbs row {row[0]} out of order")
            _require(int(row[1]) == self.om.word_count(n + 1), f"gibbs cylinder count at n={n}")
            _require(math.isfinite(float(row[2])), f"gibbs K_emp at n={n}")
            _require(row[5] == verdict, f"gibbs verdict {row[5]!r} at n={n}, expected {verdict!r}")
        if "--invariance" in argv:
            m = re.search(r"^invariance residuals .*: (\S+)$", text, re.M)
            _require(m is not None and float(m.group(1)) <= INVARIANCE_MAX, "invariance residual")
        return 0, 0


# -- running ---------------------------------------------------------------


def _spawn(args: list[str], work: str) -> tuple[subprocess.Popen, float, object]:
    """Start a worker; return it, its set-up time and its stderr file."""
    log = open(os.path.join(work, f"worker-{len(os.listdir(work))}.log"), "w+", encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        log.seek(0)
        raise RuntimeError(f"worker failed during set-up:\n{log.read()[-3000:]}")
    return proc, setup, log


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def script_ref_s(iterations: list[dict]) -> float:
    """Each command's median time at the reference speed, summed over the script.

    A command's time is rescaled by the calibration blocks on either side of
    it (calibrate.rescale).
    """
    per_command = zip(*(
        [calibrate.rescale(c[2], it["blocks"][j], it["blocks"][j + 1])
         for j, c in enumerate(it["commands"])]
        for it in iterations
    ))
    return sum(statistics.median(times) for times in per_command)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, corrupt: bool = False, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload in fresh processes; return the checked result record."""
    tag = f"{workload}-seed{seed}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out", tag)
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    try:
        # set-up times, each bracketed by calibration blocks (the first sized
        # for a typical set-up)
        setups = []
        blocks = [calibrate.summary(calibrate.block(TYPICAL_SETUP_S))]
        for i in range(setup_samples):
            proc, setup, log = _spawn(common + ["--dir", os.path.join(work, f"setup{i}"), "--setup-only"], work)
            proc.wait()
            log.close()
            blocks.append(calibrate.summary(calibrate.block(setup)))
            setups.append(setup)
        setups_ref = [calibrate.rescale(t, blocks[i], blocks[i + 1]) for i, t in enumerate(setups)]
        run_dir = os.path.join(work, "run")
        extra = ["--spans", os.path.join(out_dir, "spans.tsv")] if trace else []
        proc, _, log = _spawn(
            common + ["--dir", run_dir, "--seconds", str(seconds), "--trace", str(int(trace))] + extra,
            work,
        )
        try:
            proc.communicate(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        log.seek(0)
        log_text = log.read()
        log.close()
        results_path = os.path.join(run_dir, "results.json")
        if proc.returncode != 0 or not os.path.exists(results_path):
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{log_text[-3000:]}")
        with open(results_path, encoding="utf-8") as fh:
            results = json.load(fh)
        checker = Checker(results["manifest"]["model"], corrupt=corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    script = results["manifest"]["script"]
    verdicts: dict[tuple, tuple] = {}
    attempted = failed = certified = evaluations = 0
    failures: list[str] = []
    for it in results["iterations"]:
        for argv, (code, out_id, _elapsed, error) in zip(script, it["commands"]):
            attempted += 1
            key = (tuple(argv), code, out_id, error)
            if key not in verdicts:
                try:
                    if error:
                        raise CheckFailed(error.strip().splitlines()[-1])
                    verdicts[key] = (None, checker.check(argv, code, results["outputs"][out_id]))
                except (CheckFailed, ValueError, IndexError) as exc:
                    verdicts[key] = (f"{' '.join(argv[:1] + argv[2:])}: {exc}", (0, 0))
            problem, (cert, evals) = verdicts[key]
            certified += cert
            evaluations += evals
            if problem:
                failed += 1
                if problem not in failures:
                    failures.append(problem)

    untraced = [it for it in results["iterations"] if not it["traced"]]
    walls = [it["wall"] for it in untraced]
    command_s = [[c[2] for c in it["commands"]] for it in untraced]
    run_ref_s = script_ref_s(untraced)
    env = dict(results["env"], seed=seed, commit=_commit())
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "env": env,
        "run_s_samples": walls,
        "run_s_median": statistics.median(walls),
        "setup_s_samples": setups,
        "setup_s_median": statistics.median(setups),
        "calibration_fastest_unit_s": calibrate.fastest([b for it in untraced for b in it["blocks"]]),
        "command_s": command_s,
        "calibration_blocks": [it["blocks"] for it in untraced],
        "samples": {
            "setup_s": len(setups),
            "run_ref_s": len(walls),
            "peak_rss_mb": 1,
            "certified_frac": evaluations,
            "success_rate": attempted,
        },
        "metrics": {
            "setup_s": statistics.median(setups_ref),
            "run_ref_s": run_ref_s,
            "peak_rss_mb": env["peak_rss_kb"] / 1024.0,
            "certified_frac": certified / evaluations if evaluations else 1.0,
            "success_rate": 1.0 - failed / attempted,
        },
    }
    if trace:
        record["layers"] = _layer_report(workload, results, run_ref_s, out_dir)
    return record


def _layer_report(workload: str, results: dict, untraced_s: float, out_dir: str) -> dict:
    """Per-layer medians over traced script runs; writes counters and self times."""
    traced = [it for it in results["iterations"] if it["traced"]]

    def median_of(fn) -> float:
        return statistics.median(fn(it) for it in traced)

    metrics = {}
    for layer, names in COUNT_LAYERS.items():
        for m in names:
            key = f"{layer}.{m}"
            metrics[key] = median_of(lambda it, k=key: it["counters"].get(k, 0.0))
    for key, (parent, child) in EDGE_METRICS.items():
        metrics[key] = median_of(
            lambda it, p=parent, c=child: sum(
                n for e, n in it["edges"].items()
                if e.split(">")[0] == p and e.split(">")[1].startswith(c)
            )
        )
    untraced_cpu = [it["cpu"] for it in results["iterations"] if not it["traced"]]
    traced_s = script_ref_s(traced)
    metrics["proc.cpu_s"] = min(untraced_cpu)
    metrics["proc.blas_threads"] = results["env"]["blas_threads"]
    metrics["trace.overhead_s"] = traced_s - untraced_s

    layers = sorted({k[: -len(".self_s")] for it in traced for k in it["counters"] if k.endswith(".self_s")})
    self_time = {
        layer: median_of(lambda it, k=layer: it["counters"].get(k + ".self_s", 0.0))
        for layer in layers
    }
    covered = sum(self_time.values())
    predicted = PREDICTIONS[workload]
    predicted_s = sum(self_time.get(name, 0.0) for name in predicted)
    rival = max((s for name, s in self_time.items() if name not in predicted), default=0.0)
    prediction = {
        "layers": list(predicted),
        "self_s": predicted_s,
        "share_of_traced": predicted_s / covered if covered else 0.0,
        "largest_other_self_s": rival,
        "met": predicted_s > rival,
    }
    counts = [k for k in metrics if per_layer_unit(k) != "s" and not k.startswith("proc.")]
    ratios = {
        "gibbs.bgi_sweep.hit_ratio": 1.0 - metrics["gibbs.bgi_sweep.evaluations"]
        / max(metrics["gibbs.bgi_sweep.lookups"], 1.0),
        "potential.uniform_constants.positive_ratio": metrics["potential.uniform_constants.blocks_positive"]
        / max(metrics["potential.uniform_constants.blocks_tested"], 1.0),
    }
    with open(os.path.join(out_dir, "counters.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"metrics": metrics, "ratios": ratios, "edges": traced[0]["edges"], "self_s": self_time,
             "prediction": prediction, "traced_runs": len(traced),
             "counts_repeat": all(
                 it["counters"].get(k, 0.0) == traced[0]["counters"].get(k, 0.0)
                 for it in traced for k in counts
             ),
             "traced_run_s": traced_s, "untraced_run_s": untraced_s},
            fh, indent=1, sort_keys=True,
        )
    table = [f"self time per layer, median of {len(traced)} traced script run(s), {workload}",
             f"{'layer':48} {'self_s':>10} {'share':>7}"]
    for layer, s in sorted(self_time.items(), key=lambda kv: -kv[1]):
        table.append(f"{layer:48} {s:10.4f} {s / covered if covered else 0:7.1%}")
    table += [f"{name}: {value:.4f}" for name, value in ratios.items()]
    table.append(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s "
                 f"(run_ref_s traced {traced_s:.4f} s, untraced {untraced_s:.4f} s)")
    table.append(f"prediction ({' + '.join(predicted)} dominates): "
                 f"{'met' if prediction['met'] else 'NOT MET'}, {prediction['share_of_traced']:.1%} "
                 f"of traced self time, largest other layer {rival:.4f} s")
    with open(os.path.join(out_dir, "self_time.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(table) + "\n")
    return {"metrics": metrics, "table": table, "prediction": prediction}


def _summary_lines(record: dict) -> list[str]:
    m = record["metrics"]
    s = record["samples"]
    rows = [(name, m[name], END_TO_END[name], s[name]) for name in END_TO_END]
    n_run = s["run_ref_s"]
    rows[1:1] = [("setup_s raw", record["setup_s_median"], "s", s["setup_s"])]
    rows[3:3] = [("run_s median", record["run_s_median"], "s", n_run),
                 ("run_s max", max(record["run_s_samples"]), "s", n_run)]
    rows.insert(7, ("error_rate", record["failed"] / record["attempted"], "ratio", record["attempted"]))
    out = [f"# {record['workload']} seed {record['seed']}"]
    out += [f"#   {name:16} {value:12.6g} {unit:6} n={n}" for name, value, unit, n in rows]
    out += [f"#   failure: {f}" for f in record["failures"][:10]]
    return out


def _result_line(record: dict, trace: bool) -> str:
    if trace:
        metrics = {n: {"value": record["layers"]["metrics"][n], "unit": per_layer_unit(n)}
                   for n in per_layer_names()}
    else:
        metrics = {n: {"value": record["metrics"][n], "unit": u} for n, u in END_TO_END.items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def self_test() -> int:
    """Smoke-size run of every workload: metric names complete, a bad value caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    if want_e2e != set(END_TO_END):
        problems.append(f"end-to-end names differ: {sorted(want_e2e ^ set(END_TO_END))}")
    if want_layer != set(per_layer_names()):
        problems.append(f"per-layer names differ: {sorted(want_layer ^ set(per_layer_names()))}")
    for workload in WORKLOADS:
        plain = run_workload(workload, 1, 0.0, False, smoke=True, setup_samples=1)
        traced = run_workload(workload, 1, 0.0, True, smoke=True, setup_samples=1)
        bad = run_workload(workload, 1, 0.0, False, smoke=True, corrupt=True, setup_samples=1)
        for rec, kind in ((plain, False), (traced, True)):
            emitted = set(json.loads(_result_line(rec, kind))["metrics"])
            missing = (want_layer if kind else want_e2e) - emitted
            if missing:
                problems.append(f"{workload}: metrics not emitted: {sorted(missing)}")
            if not rec["correct"]:
                problems.append(f"{workload}: smoke run failed: {rec['failures']}")
        if bad["failed"] < 1 or bad["correct"]:
            problems.append(f"{workload}: corrupted oracle value was not counted as a failure")
        print(f"self-test {workload}: {plain['attempted']} commands, corrupted run failed "
              f"{bad['failed']}/{bad['attempted']}")
    for p in problems:
        print(f"self-test problem: {p}")
    print("self-test:", "pass" if not problems else "FAIL")
    return 0 if not problems else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="smoke-size check of the benchmark")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gibbsfactor", "cli.py")):
        print(f"no gibbsfactor sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        out_dir = os.path.join(ROOT, ".bench_out", f"{name}-seed{args.seed}")
        with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print("\n".join(_summary_lines(record)))
        if args.trace:
            print("\n".join("# " + ln for ln in record["layers"]["table"]))
        env = record["env"]
        print(f"# env: seed {args.seed}, commit {env['commit']}, python {env['python']}, "
              f"numpy {env['numpy']}, blas {env['blas']}, blas threads {env['blas_threads']}, "
              f"nproc {env['nproc']}")
    if args.workload != "all":
        print(_result_line(record, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
