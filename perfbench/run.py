"""Benchmark for the statebandits studies.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's study as fresh ``statebandits`` CLI
processes, one after another, until ``--seconds`` have passed, checks every
run's outputs and prints the end-to-end metrics (medians over the runs).
``--trace 1`` runs the study once through the CLI, then replays it in this
process with and without spans around each layer call, checks that the
replays reproduce the CLI outputs, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it are
for people. The full record (machine, per-run figures, output digests and,
with ``--trace 1``, the spans) goes to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    workers: int
    units: int  # env-runs for the sweeps, run-steps for regret, seeds for triage
    ops: int  # operations per run: environments for the sweeps, else the run itself


NPROC = os.cpu_count() or 1

WORKLOADS = {
    "sr-sweep": Workload(
        "sr-compare", {"num_envs": 200, "runs_per_env": 1000},
        workers=min(2, NPROC), units=200 * 1000, ops=200),
    "tightness-wide": Workload(
        "tightness", {"num_envs": 2000, "runs_per_env": 100},
        workers=1, units=2000 * 100, ops=2000),
    "regret-long": Workload(
        "regret", {"K": 5, "S": 4, "mu": "0.9, 0.8, 0.7, 0.5, 0.3",
                   "checkpoints": "100, 1000, 10000, 30000", "runs": 1000},
        workers=1, units=1000 * 30000, ops=1),
    "triage-ucb": Workload(
        "triage", {"policy": "ucb", "num_seeds": 100, "n": 242, "n_severe": 42,
                   "k": "200, 100, 50", "total_budget": 553},
        workers=1, units=100, ops=1),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "units_per_s": "units/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "env.build_s": "s", "env.count": "count", "env.steps": "count", "env.build_us_per_step": "us",
    "montecarlo.uniform_s": "s", "montecarlo.sr_s": "s", "montecarlo.binomial_calls": "count",
    "montecarlo.draws": "count", "montecarlo.ns_per_draw": "ns", "montecarlo.regret_s": "s",
    "montecarlo.regret_us_per_step": "us", "montecarlo.regret_variates_mb": "MB",
    "bounds.eval_s": "s", "bounds.calls": "count",
    "pool.wall_s": "s", "pool.serial_s": "s", "pool.efficiency": "ratio",
    "pool.env_cost_p50_s": "s", "pool.env_cost_p95_s": "s", "pool.env_cost_max_s": "s",
    "triage.synth_s": "s", "triage.pipeline_s": "s", "triage.pipeline_p90_s": "s",
    "triage.pulls": "count", "triage.us_per_pull": "us", "triage.baseline_s": "s",
    "triage.metrics_s": "s",
    "cli.write_s": "s", "cli.bytes_out": "bytes", "cli.other_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts computed from the inputs; every replay in a run must give the same.
EXACT_COUNTS = ("env.count", "env.steps", "montecarlo.binomial_calls", "montecarlo.draws",
                "montecarlo.regret_variates_mb", "triage.pulls", "cli.bytes_out")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# CLI seeds per benchmark run; runs beyond these repeat them in turn.
DISTINCT_INPUTS = 3


def cli_seed(seed: int, i: int) -> int:
    """The CLI master seed of the i-th run of a benchmark run."""
    return seed * 1000 + i


# ---------------------------------------------------------------------------
# one CLI run in a fresh process


def write_config(wl: Workload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in wl.config.items():
            fh.write(f"{key} = {value}\n")


def spawn_study(wl: Workload, seed: int, run_dir: str, config_path: str) -> dict:
    """Run the study as a child process; time it and read its rusage via wait4."""
    os.makedirs(run_dir)
    marks_path = os.path.join(run_dir, "marks.json")
    out_dir = os.path.join(run_dir, "out")
    argv = [sys.executable, os.path.join(HERE, "child.py"), marks_path, "--",
            wl.command, "--config", config_path, "--seed", str(seed),
            "--out", out_dir, "--workers", str(wl.workers)]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(os.path.join(run_dir, "stdout.txt"), "wb") as so, \
            open(os.path.join(run_dir, "stderr.txt"), "wb") as se:
        t_spawn = now()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = {
        "cli_seed": seed, "returncode": proc.returncode, "wall_s": t_exit - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "out_dir": out_dir,
    }
    try:
        with open(marks_path, encoding="utf-8") as fh:
            marks = json.load(fh)
        run["setup_s"] = marks["study_start"] - t_spawn
        run["study_s"] = marks["study_end"] - marks["study_start"]
        run["units_per_s"] = wl.units / run["study_s"]
    except (OSError, KeyError, ValueError):
        run["setup_s"] = run["study_s"] = run["units_per_s"] = None
    run["sha256"], run["bytes"] = digest_dir(out_dir)
    return run


def digest_dir(path: str) -> tuple[dict, int]:
    shas, total = {}, 0
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                data = fh.read()
            shas[name] = hashlib.sha256(data).hexdigest()
            total += len(data)
    return shas, total


# ---------------------------------------------------------------------------
# correctness gates; each returns (structural_ok, statistical_ok, failed_rows, detail)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rate(rows, est: str, se, bound: str) -> float:
    held = sum(float(r[est]) <= min(float(r[bound]), 1.0) + 3.0 * se(r) for r in rows)
    return held / len(rows) if rows else 0.0


def gate_tightness(wl: Workload, out: str):
    rows = _read_csv(os.path.join(out, "tightness.csv"))
    summary = _read_json(os.path.join(out, "tightness_summary.json"))
    rates = {
        "thm2.1": _rate(rows, "e", lambda r: float(r["e_se"]), "b21"),
        "thm2.2": _rate(rows, "e_hat", lambda r: float(r["e_hat_se"]), "b22"),
        "thm3.1": _rate(rows, "r", lambda r: float(r["r_se"]), "b31"),
        "thm3.2": _rate(rows, "r_hat", lambda r: float(r["r_hat_se"]), "b32"),
    }
    structural = len(rows) == wl.config["num_envs"] and not summary["failures"]
    statistical = all(v >= 0.99 for v in rates.values())
    detail = f"{len(rows)} rows; validity " + ", ".join(f"{k} {v:.4f}" for k, v in rates.items())
    return structural, statistical, len(summary["failures"]), detail


def gate_sr_compare(wl: Workload, out: str):
    rows = _read_csv(os.path.join(out, "sr_compare.csv"))
    summary = _read_json(os.path.join(out, "sr_compare_summary.json"))
    runs = wl.config["runs_per_env"]

    def se(col):
        return lambda r: (float(r[col]) * (1.0 - float(r[col])) / runs) ** 0.5

    rates = {kind: _rate(rows, f"e_hat_{kind}", se(f"e_hat_{kind}"), f"b41_{kind}")
             for kind in ("uniform", "reference")}
    structural = len(rows) == wl.config["num_envs"] and not summary["failures"]
    statistical = (all(v >= 0.99 for v in rates.values())
                   and summary["direction"] == "uniform_leq_reference")
    detail = (f"{len(rows)} rows; b41 validity " + ", ".join(f"{k} {v:.4f}" for k, v in rates.items())
              + f"; direction {summary['direction']}")
    return structural, statistical, len(summary["failures"]), detail


def gate_regret(wl: Workload, out: str):
    rows = _read_csv(os.path.join(out, "regret.csv"))
    expected = [int(c) for c in wl.config["checkpoints"].split(",")]
    structural = [int(r["checkpoint"]) for r in rows] == expected
    statistical = all(float(r["regret"]) <= float(r["thm1_bound"]) + 3.0 * float(r["regret_se"])
                      for r in rows)
    detail = "; ".join(f"n={r['checkpoint']}: {float(r['regret']):.2f} <= {float(r['thm1_bound']):.2f}"
                       for r in rows)
    return structural, statistical, 0, detail


def gate_triage(wl: Workload, out: str):
    from statebandits import BASELINES, default_stages

    rows = _read_csv(os.path.join(out, "triage.csv"))
    approaches = [r["approach"] for r in rows]
    stages = default_stages(wl.config["n"], tuple(int(k) for k in wl.config["k"].split(",")),
                            wl.config["total_budget"])
    budget = sum(st.budget_milli for st in stages) / 1000.0
    spend = next((r["budget"] for r in rows if r["approach"] == "MAB"), "")
    structural = (approaches == ["MAB", "MAB*"] + list(BASELINES)
                  and spend != "" and float(spend.split("±")[0]) <= budget)
    detail = f"{len(rows)} approach rows; MAB spend {spend} of ${budget:.3f}"
    return structural, True, 0, detail


GATES = {
    "tightness": gate_tightness,
    "sr-compare": gate_sr_compare,
    "regret": gate_regret,
    "triage": gate_triage,
}


def check_run(wl: Workload, run: dict) -> None:
    """Gate one CLI run; count failed operations as the workload defines them."""
    try:
        structural, statistical, failures, detail = GATES[wl.command](wl, run["out_dir"])
    except (OSError, KeyError, ValueError) as exc:
        structural, statistical, failures, detail = False, False, 0, f"unreadable outputs: {exc!r}"
    structural = structural and run["returncode"] == 0 and run["setup_s"] is not None
    run["gate"] = {"structural": structural, "statistical": statistical, "detail": detail}
    run["failed"] = wl.ops if not (structural and statistical) else failures


# ---------------------------------------------------------------------------
# machine record


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "statebandits")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def machine(seed: int) -> dict:
    return {
        "nproc": NPROC, "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "git_commit": _git_commit(), "src_sha256": _src_digest(), "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# the two modes


def _continue(t0: float, seconds: float, last: float) -> bool:
    """Start another step only if it should end less than half a step late."""
    return now() - t0 + last / 2.0 < seconds


def measure(wl: Workload, seed: int, seconds: float, work: str, config_path: str):
    """Untraced mode: fresh CLI runs until ``seconds`` pass.

    The runs cycle over ``DISTINCT_INPUTS`` CLI seeds, so which inputs a
    benchmark run checks, and how many operations it attempts and fails, do
    not depend on how many runs fit in the time. Every repeat must reproduce
    the output files of the first run on the same inputs byte for byte.
    """
    runs = []
    t0 = now()
    while len(runs) < DISTINCT_INPUTS or _continue(t0, seconds, runs[-1]["wall_s"]):
        i = len(runs)
        run = spawn_study(wl, cli_seed(seed, i % DISTINCT_INPUTS),
                          os.path.join(work, f"run{i}"), config_path)
        check_run(wl, run)
        run["repeat"] = i >= DISTINCT_INPUTS
        if run["repeat"] and run["sha256"] != runs[i % DISTINCT_INPUTS]["sha256"]:
            run["gate"]["structural"] = False
            run["gate"]["detail"] += "; outputs differ from the first run on the same inputs"
        shutil.rmtree(os.path.dirname(run.pop("out_dir")))
        runs.append(run)
    correct = all(r["gate"]["structural"] for r in runs)
    metrics = {}
    for name in END_TO_END_UNITS:
        values = [r[name] for r in runs if r[name] is not None]
        # 0 only when no child reached its study, in which case ``correct`` is false
        metrics[name] = statistics.median(values) if values else 0.0
    return correct, runs, metrics, len(runs), None


def _values_match(text: str, values) -> bool:
    """Does a CLI triage cell ('mean' or 'mean±2sd') agree with the raw values?"""
    vals = [v for v in values if v is not None]
    if not vals:
        return text == ""
    mean = statistics.fmean(vals)
    spread = 2.0 * statistics.stdev(vals) if len(vals) > 1 else 0.0
    parts = text.split("±")

    def close(txt: str, value: float) -> bool:
        decimals = len(txt.split(".")[1]) if "." in txt else 0
        return abs(float(txt) - value) <= 0.5 * 10.0 ** -decimals + 1e-9

    return close(parts[0], mean) and close(parts[1] if len(parts) == 2 else "0", spread)


def compare_replay(wl: Workload, rep, cli_run: dict, cli_out: str) -> list[str]:
    """Mismatches between a replay and the CLI run's outputs (empty if none)."""
    errors = []
    if wl.command in ("tightness", "sr-compare"):
        for name, sha in rep.results.items():
            if cli_run["sha256"].get(name) != sha:
                errors.append(f"{name} differs from the CLI output")
    elif wl.command == "regret":
        rows = [(int(r["checkpoint"]), float(r["regret"]), float(r["regret_se"]),
                 float(r["thm1_bound"])) for r in _read_csv(os.path.join(cli_out, "regret.csv"))]
        if rows != rep.results["rows"]:
            errors.append("regret rows differ from the CLI output")
    else:
        from replay import TRIAGE_FIELDS

        cli_rows = {r["approach"]: r for r in _read_csv(os.path.join(cli_out, "triage.csv"))}
        for approach, fields in rep.results["values"].items():
            for name in TRIAGE_FIELDS:
                cell = cli_rows.get(approach, {}).get(name)
                if cell is None or not _values_match(cell, fields[name]):
                    errors.append(f"triage {approach}.{name}: CLI {cell!r} disagrees")
        if rep.counts["triage.overspent_stages"]:
            errors.append(f"{rep.counts['triage.overspent_stages']} pipeline stages overspent")
    return errors


def trace(wl: Workload, seed: int, seconds: float, work: str, config_path: str):
    """Traced mode: one CLI run, then untraced/traced replay pairs until ``seconds`` pass."""
    import replay

    t0 = now()
    s0 = cli_seed(seed, 0)
    cli_run = spawn_study(wl, s0, os.path.join(work, "cli"), config_path)
    check_run(wl, cli_run)
    cli_out = cli_run.pop("out_dir")
    errors = [] if cli_run["gate"]["structural"] else ["CLI run failed its gate"]
    pool_wall = None
    if wl.workers > 1:
        pool_dir = os.path.join(work, "pool")
        os.makedirs(pool_dir)
        pool = replay.pool_sr_compare(config_path, s0, pool_dir, wl.workers)
        if pool["sha256"] != cli_run["sha256"].get("sr_compare.csv"):
            errors.append("in-process pool rows differ from the CLI output")
        pool_wall = pool["wall_s"]
    pairs, spans = [], []
    while not pairs or _continue(t0, seconds, pairs[-1][0].wall_s + pairs[-1][1].wall_s):
        reps = [None, None]
        # alternate which replay of a pair runs first, so warm-up favours neither
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            rep_dir = os.path.join(work, f"replay{len(pairs)}-{int(traced)}")
            os.makedirs(rep_dir)
            rep = replay.REPLAYS[wl.command](config_path, s0, rep_dir, replay.Tracer(traced))
            try:
                errors += compare_replay(wl, rep, cli_run, cli_out)
            except (OSError, KeyError, ValueError) as exc:
                errors.append(f"CLI outputs unreadable: {exc!r}")
            reps[traced] = rep
        pairs.append(reps)
        spans.append(reps[1].tracer.spans)
    counts = [rep.counts for pair in pairs for rep in pair]
    for name in EXACT_COUNTS:
        if len({c.get(name) for c in counts}) != 1:
            errors.append(f"{name} did not repeat exactly: {sorted({c.get(name) for c in counts})}")
    per_pair = [replay.layer_metrics(traced, untraced.wall_s, pool_wall, wl.workers)
                for untraced, traced in pairs]
    metrics = {name: statistics.median([m[name] for m in per_pair]) for name in PER_LAYER_UNITS}
    cli_run["replay_errors"] = errors
    if errors:
        cli_run["failed"] = wl.ops
    cli_run["replays"] = [{"untraced_wall_s": u.wall_s, "traced_wall_s": t.wall_s}
                          for u, t in pairs]
    return not errors, [cli_run], metrics, len(pairs), spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "statebandits", "cli.py")):
        print(f"error: no statebandits sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        config_path = os.path.join(work, "study.cfg")
        write_config(wl, config_path)
        mode = trace if args.trace else measure
        correct, runs, metrics, samples, spans = mode(wl, args.seed, args.seconds, work, config_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # operations are counted once per distinct input; repeats only add timings
    checked = [r for r in runs if not r.get("repeat")]
    attempted = wl.ops * len(checked)
    failed = sum(r["failed"] for r in checked)
    record = {"workload": args.workload, "trace": args.trace, "machine": machine(args.seed),
              "config": wl.config, "workers": wl.workers, "runs": runs, "metrics": metrics,
              "correct": correct, "attempted": attempted, "failed": failed}
    os.makedirs(OUT, exist_ok=True)
    record_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({**record, "spans": spans}, fh)
    print(f"# {args.workload} seed {args.seed}: {len(runs)} CLI run(s), workers {wl.workers}, "
          f"record {os.path.relpath(record_path, ROOT)}")
    for r in runs:
        print(f"#   cli seed {r['cli_seed']}{' (repeat)' if r.get('repeat') else ''}: "
              f"wall {r['wall_s']:.3f} s, gate "
              f"{'ok' if r['failed'] == 0 and r['gate']['structural'] else 'FAILED'}: "
              f"{r['gate']['detail']}")
        for err in r.get("replay_errors", []):
            print(f"#   replay mismatch: {err}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"# {name:<30} {value:>14.6g} {units[name]:<8} median of {samples}")
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
