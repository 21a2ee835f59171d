"""Command-line interface.

Subcommands: ``tightness`` (randomized-environment bound-tightness study),
``sr-compare`` (paired elimination-schedule comparison), ``regret``
(pseudo-regret curve with bound), ``triage`` (screening pipeline vs
baselines), ``verify`` (fast invariant suites). Every run writes its outputs
plus a ``manifest.json`` holding the resolved config, seed and versions;
re-running from a manifest reproduces the outputs byte for byte, as does any
worker count.

Exit codes: 0 success, 2 configuration/validation problem, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import thm2_bounds
from .divergence import BOUNDED_UNIT, PsiFamily, psi, psi_star, psi_star_inv
from .env import EnvironmentSpec, Environment, gaps, instantiate, make_state_sequence, state_counts
from .errors import (
    ConfigurationError,
    ParseError,
    ReferentialError,
    ScheduleError,
    ValidationError,
)
from .montecarlo import (
    SR_HEADER,
    TIGHTNESS_HEADER,
    SweepConfig,
    estimate_bai,
    estimate_pseudoregret,
    record_rows,
    sr_compare,
    tightness_sweep,
    write_table,
)
from .rng import substream
from .strategies import sr_schedule, successive_rejects
from .triage import (
    BASELINES,
    COHORT_BASELINES,
    STAGE_COSTS_MILLI,
    SUB_COHORT,
    default_stages,
    dollars,
    load_evaluations,
    metrics,
    run_baseline,
    run_pipeline,
    synth_population,
)

_CONFIG_ERRORS = (
    ConfigurationError,
    ValidationError,
    ParseError,
    ReferentialError,
    ScheduleError,
    FileNotFoundError,
)


# ---------------------------------------------------------------------------
# config schema plumbing


@dataclass(frozen=True)
class Field:
    name: str
    parse: callable
    default: object
    provenance: str  # "protocol" (mirrors the reference experimental protocol) or "tool"
    help: str


def _int(text):
    return int(str(text))


def _float(text):
    return float(str(text))


def _str(text):
    return str(text)


def _opt_int(text):
    s = str(text).strip()
    return None if s in ("", "none", "None") else int(s)


def _list(item):
    """Parser of a list key: ``item`` parses each entry of a JSON list or comma-separated text."""
    def parse(value):
        if not isinstance(value, (list, tuple)):
            value = [x.strip() for x in str(value).split(",") if x.strip()]
        return tuple(item(x) for x in value)
    return parse


def resolve_config(schema: list[Field], raw: dict) -> dict:
    by_name = {f.name: f for f in schema}
    out = {f.name: f.default for f in schema}
    for key, value in raw.items():
        if key not in by_name:
            raise ConfigurationError(f"unknown config key {key!r}; known: {sorted(by_name)}")
        try:
            out[key] = by_name[key].parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad value for {key!r}: {exc}") from None
    return out


def load_config(path: str, command: str) -> tuple[dict, int | None]:
    """Read a key=value config file or a manifest JSON; returns (raw, seed)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if "config" in obj:
            if obj.get("command") not in (None, command):
                raise ConfigurationError(
                    f"manifest is for command {obj.get('command')!r}, not {command!r}"
                )
            return dict(obj["config"]), obj.get("seed")
        return dict(obj), None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise ParseError(f"expected key = value, got {body!r}", line=lineno)
        key, _, value = body.partition("=")
        raw[key.strip()] = value.strip()
    return raw, None


def _schema_help(schema: list[Field]) -> str:
    lines = []
    for f in schema:
        tag = "protocol default" if f.provenance == "protocol" else "tool default"
        lines.append(f"  {f.name} = {f.default!r}  ({tag}) {f.help}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# output helpers


def _write_summary(out_dir: str, name: str, payload: dict) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, command: str, seed: int, config: dict, **derived) -> None:
    """``config`` must re-run the study; ``derived`` values sit beside it."""
    _write_summary(out_dir, "manifest.json", {
        "command": command,
        "seed": seed,
        "config": config,
        "versions": {
            "statebandits": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
        },
        **derived,
    })


def _write_rows(args, stem: str, header, rows) -> None:
    write_table(header, rows, os.path.join(args.out, f"{stem}.{args.format}"), args.format)


def _sweep_outputs(args, command: str, seed: int, cfg: dict, header, records, failures,
                   summary: dict, message: str) -> int:
    """Write a sweep's table, summary and manifest; 1 when every environment failed."""
    for idx, error in failures:
        print(f"env {idx} failed: {error}", file=sys.stderr)
    stem = command.replace("-", "_")
    _write_rows(args, stem, header, record_rows(records, header))
    _write_summary(args.out, f"{stem}_summary.json",
                   {**summary, "failures": [{"env_index": i, "error": m} for i, m in failures]})
    _write_manifest(args.out, command, seed, cfg)
    print(message)
    if failures and not records:
        print(f"runtime failure: every environment failed ({len(failures)})", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# tightness


_SWEEP_FIELDS = [
    Field("num_envs", _int, 200, "protocol", "number of randomized environments"),
    Field("runs_per_env", _int, 100, "protocol", "Monte Carlo runs per environment"),
    Field("horizon", _opt_int, None, "protocol", "steps per run; empty means 50*K*S"),
    Field("k_min", _int, 3, "protocol", "smallest arm count"),
    Field("k_max", _int, 10, "protocol", "largest arm count"),
    Field("s_min", _int, 1, "protocol", "smallest state count"),
    Field("s_max", _int, 10, "protocol", "largest state count"),
    Field("sigma2_min", _float, 0.0, "protocol", "lower edge of the prior variance draw"),
    Field("sigma2_max", _float, 0.3, "protocol", "upper edge of the prior variance draw"),
    Field("reward_family", _str, "bernoulli", "protocol", "bernoulli (the only family sweeps accept)"),
    Field("state_mode", _str, "iid_uniform", "tool", "state sequence generator"),
]

TIGHTNESS_SCHEMA = _SWEEP_FIELDS
SR_SCHEMA = [
    Field("num_envs", _int, 1000, "protocol", "number of randomized environments"),
] + _SWEEP_FIELDS[1:]


def _violation_rates(records) -> dict:
    checks = {
        "thm2.1": lambda r: r.e > min(r.b21, 1.0) + 3.0 * r.e_se,
        "thm2.2": lambda r: r.e_hat > min(r.b22, 1.0) + 3.0 * r.e_hat_se,
        "thm3.1": lambda r: r.r > min(r.b31, 1.0) + 3.0 * r.r_se,
        "thm3.2": lambda r: r.r_hat > min(r.b32, 1.0) + 3.0 * r.r_hat_se,
    }
    if not records:
        return {name: 0.0 for name in checks}
    return {name: sum(bool(fn(r)) for r in records) / len(records) for name, fn in checks.items()}


def cmd_tightness(args, cfg: dict, seed: int) -> int:
    records, failures = tightness_sweep(SweepConfig(master_seed=seed, **cfg), workers=args.workers)
    rates = _violation_rates(records)
    return _sweep_outputs(
        args, "tightness", seed, cfg, TIGHTNESS_HEADER, records, failures,
        {"rows": len(records), "violation_rate": rates},
        f"tightness: {len(records)} environments, worst violation rate {max(rates.values()):.4f}")


# ---------------------------------------------------------------------------
# sr-compare


def cmd_sr_compare(args, cfg: dict, seed: int) -> int:
    records, summary, failures = sr_compare(SweepConfig(master_seed=seed, **cfg), workers=args.workers)
    return _sweep_outputs(
        args, "sr-compare", seed, cfg, SR_HEADER, records, failures, summary,
        "sr-compare: mean empiric error uniform "
        f"{summary['mean_e_hat_uniform']:.4f} vs reference {summary['mean_e_hat_reference']:.4f} "
        f"(sign test p={summary['sign_test']['p_value']:.4g}, {summary['direction']})")


# ---------------------------------------------------------------------------
# regret


REGRET_SCHEMA = [
    Field("K", _int, 3, "tool", "number of arms"),
    Field("S", _int, 2, "tool", "number of states"),
    Field("mu", _list(_float), (0.8, 0.6, 0.4), "tool", "per-arm global utilities"),
    Field("sigma2", _float, 0.05, "tool", "local-mean prior variance"),
    Field("m", _list(_float), (), "tool",
          "explicit per-(arm,state) local means, row-major; empty draws them from mu"),
    Field("env_seed", _int, 0, "tool", "environment instantiation seed"),
    Field("reward_family", _str, "bernoulli", "protocol", "bernoulli or truncated_gaussian"),
    Field("state_mode", _str, "iid_uniform", "tool", "state sequence generator"),
    Field("alpha", _float, 3.0, "tool", "optimism exploration rate, must exceed 2"),
    Field("checkpoints", _list(_int), (100, 1000, 10000), "protocol", "horizons to report"),
    Field("runs", _int, 1000, "protocol", "Monte Carlo runs"),
]


def cmd_regret(args, cfg: dict, seed: int) -> int:
    checkpoints = tuple(sorted(cfg["checkpoints"]))
    if not checkpoints:
        raise ConfigurationError("checkpoints must list at least one horizon")
    if cfg["K"] != len(cfg["mu"]):
        raise ConfigurationError(f"mu has {len(cfg['mu'])} entries for K={cfg['K']}")
    seq = make_state_sequence(cfg["S"], checkpoints[-1], mode=cfg["state_mode"], seed=seed)
    spec = EnvironmentSpec(
        K=cfg["K"], S=cfg["S"], mu=cfg["mu"], sigma2=cfg["sigma2"],
        state_sequence=seq, seed=cfg["env_seed"], reward_family=cfg["reward_family"],
    )
    if cfg["m"]:
        if len(cfg["m"]) != cfg["K"] * cfg["S"]:
            raise ConfigurationError(f"m needs K*S={cfg['K'] * cfg['S']} entries, got {len(cfg['m'])}")
        if cfg["sigma2"] != next(f.default for f in REGRET_SCHEMA if f.name == "sigma2"):
            raise ConfigurationError("sigma2 shapes local means drawn from mu only; an explicit m cannot honour it")
        env = Environment(spec=spec, m=np.array(cfg["m"]).reshape(cfg["K"], cfg["S"]))
    else:
        env = instantiate(spec)
    curve = estimate_pseudoregret(env, cfg["alpha"], checkpoints, cfg["runs"])
    rows = list(zip(curve.checkpoints, curve.mean, curve.se, curve.bound))
    _write_rows(args, "regret", ["checkpoint", "regret", "regret_se", "thm1_bound"], rows)
    _write_manifest(args.out, "regret", seed, cfg)
    tail = rows[-1]
    print(f"regret: n={tail[0]} empirical {tail[1]:.3f} (se {tail[2]:.3f}) bound {tail[3]:.3f}")
    return 0


# ---------------------------------------------------------------------------
# triage


TRIAGE_SCHEMA = [
    Field("n", _int, 242, "protocol", "population size"),
    Field("n_severe", _int, 42, "protocol", "number of truly at-risk individuals"),
    Field("stage_noise", _list(_float), (0.45, 0.30, 0.10), "tool",
          "per-stage error probabilities, strictly decreasing"),
    Field("k", _list(_int), (200, 100, 50), "protocol", "cohort sizes after each stage"),
    Field("total_budget", _int, 553, "protocol", "named total budget in dollars"),
    Field("scheme", _str, "", "protocol", "budget split for $1,300/$2,200: more3, more2 or equal"),
    Field("policy", _str, "round_robin", "tool", "within-stage allocation: round_robin or ucb"),
    Field("encoding", _str, "linear", "protocol", "label encoding: linear, binary or exponential"),
    Field("num_seeds", _int, 100, "tool", "independent repetitions"),
    Field("baselines", _list(_str), BASELINES, "protocol",
          f"reference approaches to run; {', '.join(COHORT_BASELINES)} evaluate a random "
          f"{SUB_COHORT}-person cohort and need n >= {SUB_COHORT}"),
    Field("human_csv", _str, "", "tool", "recorded human evaluations for replay (optional)"),
    Field("machine_pred", _str, "", "tool", "machine prediction vectors for replay (optional)"),
]


def _mean_spread(values) -> tuple[float, float] | None:
    """Mean and 2*SD across seeds of the values that are not None."""
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return float(np.mean(vals)), 2 * sd


def _cell(values, decimals=4):
    """Render mean with a +-2*SD spread when it varies across seeds."""
    stats = _mean_spread(values)
    if stats is None:
        return ""
    mean, spread = stats
    if spread == 0.0:
        return str(int(mean)) if mean == int(mean) else f"{mean:.{decimals}f}"
    return f"{mean:.{decimals}f}±{spread:.{decimals}f}"


def _money_cell(values):
    """Dollar amounts are exact multiples of 0.001; keep the mill digit."""
    stats = _mean_spread(values)
    if stats is None:
        return ""
    mean, spread = stats
    text = f"{mean:.2f}" if round(mean, 2) == round(mean, 3) else f"{mean:.3f}"
    return text if spread == 0.0 else f"{text}±{spread:.3f}"


def _count_cell(values):
    return _cell(values, decimals=2)


TRIAGE_COLUMNS = [("budget", _money_cell), ("evaluated", _count_cell)] + [
    (name, _cell) for name in ("pop_sensitivity", "cohort_sensitivity", "precision", "specificity")
] + [(name, _count_cell) for name in ("tp", "fp", "fn", "tn")]


def _triage_values(res, pop, mode: str) -> tuple:
    """One seed's values of an approach, in TRIAGE_COLUMNS order."""
    m = metrics(res, pop, mode)
    return (dollars(res.spend_milli), len(res.evaluated), m.pop_sensitivity,
            m.cohort_sensitivity, m.cohort_precision, m.cohort_specificity,
            m.cohort.tp, m.cohort.fp, m.cohort.fn, m.cohort.tn)


def cmd_triage(args, cfg: dict, seed: int) -> int:
    k = tuple(cfg["k"])
    if len(k) != 3:
        raise ConfigurationError(f"k needs exactly 3 entries, got {k}")
    if cfg["num_seeds"] < 1:
        raise ConfigurationError(f"num_seeds must be >= 1, got {cfg['num_seeds']}")
    if cfg["total_budget"] == 553 and cfg["scheme"]:
        raise ConfigurationError(
            f"total_budget = 553 has a single split; scheme {cfg['scheme']!r} applies only to 1300 and 2200")
    stages = default_stages(cfg["n"], k, cfg["total_budget"], cfg["scheme"] or None)
    replay = bool(cfg["human_csv"] or cfg["machine_pred"])
    if replay and not (cfg["human_csv"] and cfg["machine_pred"]):
        raise ConfigurationError("replay needs both human_csv and machine_pred")
    synth_only = [f.name for f in TRIAGE_SCHEMA
                  if f.name in ("n_severe", "stage_noise") and cfg[f.name] != f.default]
    if replay and synth_only:
        raise ConfigurationError(f"replay mode cannot honour {synth_only}: they shape synthetic populations only")
    noise = tuple(cfg["stage_noise"])
    if len(noise) != 3:
        raise ConfigurationError(f"stage_noise needs exactly 3 entries, got {noise}")
    unknown = [b for b in cfg["baselines"] if b not in BASELINES]
    if unknown:
        raise ConfigurationError(f"baselines: unknown {unknown}; known: {list(BASELINES)}")
    too_big = [b for b in cfg["baselines"] if b in COHORT_BASELINES and cfg["n"] < SUB_COHORT]
    if too_big:
        raise ConfigurationError(
            f"baselines {too_big} evaluate a {SUB_COHORT}-person cohort, more than n = {cfg['n']}")
    if replay:
        pop = load_evaluations(cfg["human_csv"], cfg["machine_pred"])
        if len(pop.individuals) != cfg["n"]:
            raise ConfigurationError(
                f"n = {cfg['n']} but the replay roster has {len(pop.individuals)} individuals")

    approaches = ["MAB", "MAB*"] + list(cfg["baselines"])
    values: dict[str, list[tuple]] = {a: [] for a in approaches}
    for s in range(cfg["num_seeds"]):
        run_seed = int(substream(seed, s, "triage-seed").integers(0, 2**62))
        if not replay:
            pop = synth_population(cfg["n"], cfg["n_severe"], noise, seed=run_seed)
        result = run_pipeline(pop, stages, policy=cfg["policy"], seed=run_seed,
                              encoding=cfg["encoding"])
        values["MAB"].append(_triage_values(result, pop, "mab"))
        values["MAB*"].append(_triage_values(result, pop, "mab_star"))
        for name in cfg["baselines"]:
            values[name].append(_triage_values(run_baseline(name, pop, seed=run_seed), pop, "mab"))
    header = ["approach"] + [name for name, _ in TRIAGE_COLUMNS]
    table = [[a] + [fmt(col) for (_, fmt), col in zip(TRIAGE_COLUMNS, zip(*values[a]))]
             for a in approaches]
    _write_rows(args, "triage", header, table)
    _write_manifest(args.out, "triage", seed, cfg,
                    stage_budgets_dollars=[dollars(st.budget_milli) for st in stages])
    print(f"triage: {len(approaches)} approaches x {cfg['num_seeds']} seeds; "
          f"pipeline population sensitivity {table[0][header.index('pop_sensitivity')]}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _suite_transforms() -> tuple[bool, str]:
    grid = np.linspace(0.0, 1.0, 101)
    for family in (BOUNDED_UNIT, PsiFamily.gaussian(0.2)):
        rt = psi_star_inv(family, psi_star(family, grid))
        if np.max(np.abs(rt - grid)) > 1e-12:
            return False, f"round trip off for {family.kind}"
        lams = np.linspace(0.0, 8.0, 33)
        for eps in grid[::10]:
            vals = lams * eps - psi(family, lams)
            if np.any(vals > psi_star(family, eps) + 1e-9):
                return False, f"conjugate not an upper envelope for {family.kind}"
        star = psi_star(family, grid)
        if np.any(np.diff(star) < -1e-15):
            return False, f"conjugate not monotone for {family.kind}"
    return True, "round trip, envelope and monotonicity hold"


def _suite_environment() -> tuple[bool, str]:
    spec = EnvironmentSpec(K=4, S=3, mu=(0.2, 0.5, 0.7, 0.9), sigma2=0.05,
                           state_sequence=make_state_sequence(3, 120, "round_robin"), seed=11)
    a, b = instantiate(spec), instantiate(spec)
    if not np.array_equal(a.m, b.m):
        return False, "instantiation not deterministic"
    bumped = EnvironmentSpec(K=4, S=3, mu=tuple(min(u + 0.05, 1.0) for u in spec.mu),
                             sigma2=0.05, state_sequence=spec.state_sequence, seed=11)
    if np.any(instantiate(bumped).m < a.m - 1e-15):
        return False, "clamp monotonicity violated"
    g = gaps(a)
    if np.any(np.abs(g.delta_m.min(axis=0)) > 1e-15) or np.any(g.delta_sigma < 0) or np.any(g.delta_mu < 0):
        return False, "gap conventions violated"
    return True, "determinism, clamp monotonicity and gap conventions hold"


def _suite_allocation() -> tuple[bool, str]:
    spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                           state_sequence=make_state_sequence(2, 90, "iid_uniform", seed=5), seed=3)
    env = instantiate(spec)
    schedule = sr_schedule("uniform", 3, 90)
    res = successive_rejects(env, schedule, substream(1, "verify"))
    if len(res.steps) != 90:
        return False, "SR pull count mismatch"
    per_phase = np.zeros((2, 3, 2), dtype=int)
    for _, s, arm, _, phase in res.steps:
        per_phase[phase - 1, arm, s] += 1
    # the evenly-allocated count of a phase is the fewest pulls any active arm got
    fewest = [per_phase[k][[a for a in range(3) if a not in res.rejected[:k]]].min(axis=0)
              for k in range(2)]
    if not np.array_equal(res.n_table, np.cumsum(fewest, axis=0).T):
        return False, "SR count table mismatch"
    if np.any(per_phase.sum(axis=(0, 1)) != state_counts(spec.state_sequence, 2, 90)):
        return False, "per-state pulls do not add up"
    return True, "SR trace agrees with the closed-form counters"


def _suite_bounds() -> tuple[bool, str]:
    spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                           state_sequence=make_state_sequence(2, 600, "round_robin"), seed=7)
    env = instantiate(spec)
    prev = None
    for n in (100, 200, 400, 600):
        e_b, eh_b = thm2_bounds(env, n, BOUNDED_UNIT)
        for rep in (e_b, eh_b):
            if not 0.0 <= rep.clamped_value <= 1.0 or rep.raw_value < rep.clamped_value - 1e-15:
                return False, "clamping broken"
        if prev is not None and eh_b.raw_value > prev + 1e-12:
            return False, "bound not shrinking with horizon"
        prev = eh_b.raw_value
    return True, "clamping and horizon monotonicity hold"


def _suite_estimators() -> tuple[bool, str]:
    spec = EnvironmentSpec(K=2, S=2, mu=(0.9, 0.1), sigma2=0.01,
                           state_sequence=make_state_sequence(2, 80, "round_robin"), seed=2)
    env = Environment(spec=spec, m=np.array([[0.9, 0.9], [0.1, 0.1]]))
    a = estimate_bai(env, "uniform_eba", 200)
    b = estimate_bai(env, "uniform_eba", 200)
    if a != b:
        return False, "estimator not reproducible"
    if not 0.0 <= a.e_hat <= 1.0 or a.e_hat > 0.05:
        return False, "estimator implausible on an easy instance"
    return True, "reproducibility and sanity hold"


def _suite_triage() -> tuple[bool, str]:
    pop = synth_population(242, 42, seed=4)
    four = run_baseline("4Experts", pop)
    if four.spend_milli != 968 * STAGE_COSTS_MILLI[2]:
        return False, "full-consensus cost accounting off"
    stages = default_stages(242)
    result = run_pipeline(pop, stages, seed=4)
    for st, outcome in zip(stages, result.stages):
        if outcome.spend_milli > st.budget_milli:
            return False, "stage overspent its budget"
        if len(outcome.survivors) != st.cohort_out:
            return False, "cohort size not exact"
    m = metrics(four, pop)
    if (m.pop_sensitivity, m.pop_precision, m.pop_specificity) != (1.0, 1.0, 1.0):
        return False, "consensus baseline not perfect"
    return True, "budgets, cohort sizes and consensus metrics hold"


VERIFY_SUITES = [
    ("transforms", _suite_transforms),
    ("environment", _suite_environment),
    ("allocation", _suite_allocation),
    ("bounds", _suite_bounds),
    ("estimators", _suite_estimators),
    ("triage", _suite_triage),
]


def cmd_verify(args, cfg: dict, seed: int) -> int:
    results = []
    for name, fn in VERIFY_SUITES:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - a crash is a failed suite
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"suite": name, "passed": bool(ok), "detail": detail})
        print(f"{name:<12} {'PASS' if ok else 'FAIL'}  {detail}")
    _write_summary(args.out, "verify.json", {"suites": results})
    _write_manifest(args.out, "verify", seed, cfg)
    return 0 if all(r["passed"] for r in results) else 1


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "tightness": (cmd_tightness, TIGHTNESS_SCHEMA),
    "sr-compare": (cmd_sr_compare, SR_SCHEMA),
    "regret": (cmd_regret, REGRET_SCHEMA),
    "triage": (cmd_triage, TRIAGE_SCHEMA),
    "verify": (cmd_verify, []),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statebandits",
        description="Simulation, bound verification and budgeted screening studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, schema) in COMMANDS.items():
        p = sub.add_parser(
            name,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            description=f"Config keys for {name}:\n{_schema_help(schema)}" if schema else None,
        )
        p.add_argument("--config", help="key = value config file, or a manifest JSON to re-run")
        p.add_argument("--seed", type=int, default=None, help="master seed (tool default 0)")
        p.add_argument("--out", default=".", help="output directory (tool default .)")
        p.add_argument("--workers", type=int, default=1,
                       help="environment-level parallelism for the sweep commands (tool default 1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="tabular output format (tool default csv)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, schema = COMMANDS[args.command]
    try:
        raw, manifest_seed = ({}, None)
        if args.config:
            raw, manifest_seed = load_config(args.config, args.command)
        cfg = resolve_config(schema, raw)
        seed = args.seed if args.seed is not None else (manifest_seed if manifest_seed is not None else 0)
        if args.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        os.makedirs(args.out, exist_ok=True)
        return handler(args, cfg, seed)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failure envelope
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
