"""Traced in-process replay of the four benchmark studies.

Each replay calls the same public ``statebandits`` functions that the CLI
subcommand calls, in the same order, and wraps every call in a span named
after its layer (``env.*``, ``montecarlo.*``, ``bounds.*``, ``triage.*``,
``cli.write``). Spans are kept in memory and written out once, by the
caller, when the benchmark ends. Nothing inside the package is changed.

A replay returns a ``Replay`` holding its wall time, the spans, the counts
that are computed from the inputs (they must repeat exactly) and the result
values the caller compares with the CLI run's output files.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import statistics
import time
from dataclasses import dataclass

from statebandits import (
    BOUNDED_UNIT,
    EnvironmentSpec,
    SweepConfig,
    default_stages,
    dollars,
    estimate_bai,
    estimate_pseudoregret,
    gaps,
    instantiate,
    make_state_sequence,
    metrics,
    random_env,
    run_baseline,
    run_pipeline,
    sr_compare,
    sr_schedule,
    state_counts,
    substream,
    synth_population,
    thm2_bounds,
    thm3_bounds,
    thm4_bounds,
    write_sr_csv,
    write_sweep_csv,
)
from statebandits.cli import (
    REGRET_SCHEMA,
    SR_SCHEMA,
    TIGHTNESS_SCHEMA,
    TRIAGE_SCHEMA,
    load_config,
    resolve_config,
)
from statebandits.montecarlo import SRRecord, SweepRecord


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, now(), 0.0, t.open[-1] if t.open else -1])
        t.open.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = now()
        t.open.pop()


_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder. Each span is [name, start, end, parent]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def total(self, prefix: str) -> float:
        return sum(e - s for name, s, e, _ in self.spans if name.startswith(prefix))

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e, _ in self.spans if n == name]


@dataclass
class Replay:
    wall_s: float
    tracer: Tracer
    counts: dict
    results: dict


def _rotation_calls(visits, arms: int) -> int:
    """Binomial calls of one rotation over ``arms`` arms: one per (rank, state)
    cell that gets a pull, i.e. min(V, arms) cells for V visits to a state."""
    return sum(min(int(v), arms) for v in visits)


def _uniform_calls(spec) -> int:
    return _rotation_calls(state_counts(spec.state_sequence, spec.S, spec.horizon), spec.K)


def _sr_calls(spec, kind: str) -> int:
    schedule = sr_schedule(kind, spec.K, spec.horizon)
    calls, t_prev = 0, 0
    for k, t_k in enumerate(schedule.t_k, start=1):
        visits = state_counts(spec.state_sequence[t_prev:t_k], spec.S)
        calls += _rotation_calls(visits, spec.K + 1 - k)
        t_prev = t_k
    return calls


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _resolve(schema, command: str, config_path: str) -> dict:
    raw, _ = load_config(config_path, command)
    return resolve_config(schema, raw)


def _sweep_config(cfg: dict, seed: int) -> SweepConfig:
    keys = ("num_envs", "runs_per_env", "horizon", "k_min", "k_max", "s_min", "s_max",
            "sigma2_min", "sigma2_max", "reward_family", "state_mode")
    return SweepConfig(master_seed=seed, **{k: cfg[k] for k in keys})


def _env_counts(specs) -> dict:
    return {"env.count": len(specs), "env.steps": sum(s.horizon for s in specs)}


def replay_tightness(config_path: str, seed: int, out_dir: str, tracer: Tracer) -> Replay:
    config = _sweep_config(_resolve(TIGHTNESS_SCHEMA, "tightness", config_path), seed)
    span = tracer.span
    records, specs = [], []
    t0 = now()
    with span("study"):
        for i in range(config.num_envs):
            with span("task"):
                with span("env.random_env"):
                    spec = random_env(config, i)
                with span("env.instantiate"):
                    env = instantiate(spec)
                n = spec.horizon
                with span("montecarlo.uniform"):
                    est = estimate_bai(env, "uniform_eba", config.runs_per_env, n)
                with span("bounds.thm2"):
                    b21, b22 = thm2_bounds(env, n, BOUNDED_UNIT)
                with span("bounds.thm3"):
                    b31, b32 = thm3_bounds(env, n)
                with span("env.gaps"):
                    g = gaps(env)
                with span("env.state_counts"):
                    visits = state_counts(spec.state_sequence, spec.S, n)
                records.append(SweepRecord(
                    env_index=i, K=spec.K, S=spec.S, n=n,
                    min_state_visits=int(visits.min()),
                    delta_sigma_min=float(g.delta_sigma.min()),
                    e_hat=est.e_hat, e_hat_se=est.e_hat_se, e=est.e, e_se=est.e_se,
                    r=est.r, r_se=est.r_se, r_hat=est.r_hat, r_hat_se=est.r_hat_se,
                    b21=b21.raw_value, b22=b22.raw_value, b31=b31.raw_value, b32=b32.raw_value,
                ))
                specs.append(spec)
        path = os.path.join(out_dir, "tightness.csv")
        with span("cli.write"):
            write_sweep_csv(records, path)
    wall = now() - t0
    calls = sum(_uniform_calls(s) for s in specs)
    counts = {
        **_env_counts(specs),
        "montecarlo.binomial_calls": calls,
        "montecarlo.draws": calls * config.runs_per_env,
        "bounds.calls": 2 * len(specs),
        "cli.bytes_out": os.path.getsize(path),
    }
    return Replay(wall, tracer, counts, {"tightness.csv": _sha256(path)})


def replay_sr_compare(config_path: str, seed: int, out_dir: str, tracer: Tracer) -> Replay:
    """Serial replay of the schedule comparison, one env at a time."""
    config = _sweep_config(_resolve(SR_SCHEMA, "sr-compare", config_path), seed)
    span = tracer.span
    records, specs = [], []
    t0 = now()
    with span("study"):
        for i in range(config.num_envs):
            with span("task"):
                with span("env.random_env"):
                    spec = random_env(config, i)
                with span("env.instantiate"):
                    env = instantiate(spec)
                n = spec.horizon
                vals = {}
                for kind in ("uniform", "reference"):
                    with span("montecarlo.sr"):
                        est = estimate_bai(env, f"sr_{kind}", config.runs_per_env, n)
                    with span("bounds.thm4"):
                        b42, b41 = thm4_bounds(env, sr_schedule(kind, spec.K, n))
                    vals[kind] = (est, b41.raw_value, b42.raw_value)
                est_u, b41_u, b42_u = vals["uniform"]
                est_r, b41_r, b42_r = vals["reference"]
                records.append(SRRecord(
                    env_index=i, K=spec.K, S=spec.S, n=n,
                    e_hat_uniform=est_u.e_hat, e_hat_reference=est_r.e_hat,
                    b41_uniform=b41_u, b41_reference=b41_r,
                    e_hat_se_uniform=est_u.e_hat_se, e_hat_se_reference=est_r.e_hat_se,
                    e_uniform=est_u.e, e_reference=est_r.e,
                    e_se_uniform=est_u.e_se, e_se_reference=est_r.e_se,
                    b42_uniform=b42_u, b42_reference=b42_r,
                ))
                specs.append(spec)
        path = os.path.join(out_dir, "sr_compare.csv")
        with span("cli.write"):
            write_sr_csv(records, path)
    wall = now() - t0
    calls = sum(_sr_calls(s, "uniform") + _sr_calls(s, "reference") for s in specs)
    counts = {
        **_env_counts(specs),
        "montecarlo.binomial_calls": calls,
        "montecarlo.draws": calls * config.runs_per_env,
        "bounds.calls": 2 * len(specs),
        "cli.bytes_out": os.path.getsize(path),
    }
    return Replay(wall, tracer, counts, {"sr_compare.csv": _sha256(path)})


def pool_sr_compare(config_path: str, seed: int, out_dir: str, workers: int) -> dict:
    """Time one untraced ``sr_compare`` through the environment process pool."""
    config = _sweep_config(_resolve(SR_SCHEMA, "sr-compare", config_path), seed)
    t0 = now()
    records, _, _ = sr_compare(config, workers=workers)
    wall = now() - t0
    path = os.path.join(out_dir, "sr_compare.csv")
    write_sr_csv(records, path)
    return {"wall_s": wall, "sha256": _sha256(path)}


def replay_regret(config_path: str, seed: int, out_dir: str, tracer: Tracer) -> Replay:
    cfg = _resolve(REGRET_SCHEMA, "regret", config_path)
    checkpoints = tuple(sorted(cfg["checkpoints"]))
    span = tracer.span
    t0 = now()
    with span("study"):
        with span("env.make_state_sequence"):
            seq = make_state_sequence(cfg["S"], checkpoints[-1], mode=cfg["state_mode"], seed=seed)
        with span("env.spec"):
            spec = EnvironmentSpec(
                K=cfg["K"], S=cfg["S"], mu=cfg["mu"], sigma2=cfg["sigma2"],
                state_sequence=seq, seed=cfg["env_seed"], reward_family=cfg["reward_family"],
            )
        with span("env.instantiate"):
            env = instantiate(spec)
        with span("montecarlo.regret"):
            curve = estimate_pseudoregret(env, cfg["alpha"], checkpoints, cfg["runs"])
    wall = now() - t0
    counts = {
        **_env_counts([spec]),
        "montecarlo.regret_steps": checkpoints[-1],
        "montecarlo.regret_variates_mb": cfg["runs"] * checkpoints[-1] * 8 / 1e6,
    }
    rows = [(int(c), float(m), float(s), float(b))
            for c, m, s, b in zip(curve.checkpoints, curve.mean, curve.se, curve.bound)]
    return Replay(wall, tracer, counts, {"rows": rows})


TRIAGE_FIELDS = ("budget", "evaluated", "pop_sensitivity", "cohort_sensitivity",
                  "precision", "specificity", "tp", "fp", "fn", "tn")


def replay_triage(config_path: str, seed: int, out_dir: str, tracer: Tracer) -> Replay:
    cfg = _resolve(TRIAGE_SCHEMA, "triage", config_path)
    span = tracer.span
    approaches = ["MAB", "MAB*"] + list(cfg["baselines"])
    values = {a: {f: [] for f in TRIAGE_FIELDS} for a in approaches}
    pulls, overspent = 0, 0
    t0 = now()
    with span("study"):
        stages = default_stages(cfg["n"], tuple(cfg["k"]), cfg["total_budget"], cfg["scheme"] or None)
        for s in range(cfg["num_seeds"]):
            run_seed = int(substream(seed, s, "triage-seed").integers(0, 2**62))
            with span("triage.synth"):
                pop = synth_population(cfg["n"], cfg["n_severe"], tuple(cfg["stage_noise"]),
                                       seed=run_seed)
            with span("triage.pipeline"):
                result = run_pipeline(pop, stages, policy=cfg["policy"], seed=run_seed,
                                      encoding=cfg["encoding"])
            pulls += sum(o.pulls for o in result.stages)
            overspent += sum(o.spend_milli > st.budget_milli for o, st in zip(result.stages, stages))
            for approach in approaches:
                if approach in ("MAB", "MAB*"):
                    res, mode = result, "mab" if approach == "MAB" else "mab_star"
                else:
                    with span("triage.baseline"):
                        res = run_baseline(approach, pop, seed=run_seed)
                    mode = "mab"
                with span("triage.metrics"):
                    m = metrics(res, pop, mode)
                row = values[approach]
                for name, v in zip(TRIAGE_FIELDS, (
                        dollars(res.spend_milli), len(res.evaluated), m.pop_sensitivity,
                        m.cohort_sensitivity, m.cohort_precision, m.cohort_specificity,
                        m.cohort.tp, m.cohort.fp, m.cohort.fn, m.cohort.tn)):
                    row[name].append(v)
    wall = now() - t0
    counts = {"triage.pulls": pulls, "triage.overspent_stages": overspent}
    return Replay(wall, tracer, counts, {"values": values})


REPLAYS = {
    "tightness": replay_tightness,
    "sr-compare": replay_sr_compare,
    "regret": replay_regret,
    "triage": replay_triage,
}


def _quantile(values, q: int, n: int) -> float:
    """The q-th of n quantiles (statistics.quantiles), or the value itself."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=n)[q - 1]


def layer_metrics(rep: Replay, untraced_wall: float, pool_wall: float | None,
                  workers: int) -> dict:
    """Per-layer figures of one traced replay, keyed by metric name.

    The pool figures are 0 unless ``pool_wall``, the wall time of one
    ``sr_compare`` through the process pool, is given; the serial per-env
    costs then come from the replay's ``task`` spans.
    """
    t, c = rep.tracer, rep.counts
    env_s = t.total("env.")
    mc_uniform, mc_sr, mc_regret = (t.total("montecarlo.uniform"), t.total("montecarlo.sr"),
                                    t.total("montecarlo.regret"))
    draws = c.get("montecarlo.draws", 0)
    steps = c.get("env.steps", 0)
    regret_steps = c.get("montecarlo.regret_steps", 0)
    pipelines = t.durations("triage.pipeline")
    pipeline_s = sum(pipelines)
    tasks = t.durations("task") if pool_wall else []
    layer_s = sum(t.total(p) for p in ("env.", "montecarlo.", "bounds.", "triage.", "cli.write"))
    study = t.durations("study")
    return {
        "env.build_s": env_s,
        "env.count": c.get("env.count", 0),
        "env.steps": steps,
        "env.build_us_per_step": env_s / steps * 1e6 if steps else 0.0,
        "montecarlo.uniform_s": mc_uniform,
        "montecarlo.sr_s": mc_sr,
        "montecarlo.binomial_calls": c.get("montecarlo.binomial_calls", 0),
        "montecarlo.draws": draws,
        "montecarlo.ns_per_draw": (mc_uniform + mc_sr) / draws * 1e9 if draws else 0.0,
        "montecarlo.regret_s": mc_regret,
        "montecarlo.regret_us_per_step": mc_regret / regret_steps * 1e6 if regret_steps else 0.0,
        "montecarlo.regret_variates_mb": c.get("montecarlo.regret_variates_mb", 0.0),
        "bounds.eval_s": t.total("bounds."),
        "bounds.calls": c.get("bounds.calls", 0),
        "pool.wall_s": pool_wall or 0.0,
        "pool.serial_s": sum(tasks),
        "pool.efficiency": sum(tasks) / (workers * pool_wall) if pool_wall else 0.0,
        "pool.env_cost_p50_s": statistics.median(tasks) if tasks else 0.0,
        "pool.env_cost_p95_s": _quantile(tasks, 19, 20),
        "pool.env_cost_max_s": max(tasks, default=0.0),
        "triage.synth_s": t.total("triage.synth"),
        "triage.pipeline_s": pipeline_s,
        "triage.pipeline_p90_s": _quantile(pipelines, 9, 10),
        "triage.pulls": c.get("triage.pulls", 0),
        "triage.us_per_pull": pipeline_s / c["triage.pulls"] * 1e6 if c.get("triage.pulls") else 0.0,
        "triage.baseline_s": t.total("triage.baseline"),
        "triage.metrics_s": t.total("triage.metrics"),
        "cli.write_s": t.total("cli.write"),
        "cli.bytes_out": c.get("cli.bytes_out", 0),
        "cli.other_s": (study[0] - layer_s) if study else 0.0,
        "trace.overhead_frac": rep.wall_s / untraced_wall - 1.0,
    }
