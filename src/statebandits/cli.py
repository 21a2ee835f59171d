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
from .env import (
    EnvironmentSpec, Environment, _check_distinct, gaps, instantiate, make_state_sequence, state_counts,
)
from .errors import ConfigurationError, ParseError, ReferentialError, ValidationError, _check_integer, _read_text
from .montecarlo import (
    SR_HEADER,
    TIGHTNESS_HEADER,
    SweepConfig,
    _check_checkpoints,
    estimate_bai,
    estimate_pseudoregret,
    record_rows,
    sr_compare,
    tightness_sweep,
    write_table,
)
from .rng import substream
from .strategies import phase_visits, rotation_counts, sr_counts, sr_schedule, successive_rejects
from .triage import (
    BASELINES,
    COHORT_BASELINES,
    STAGE_COSTS_MILLI,
    SUB_COHORT,
    SeedBatch,
    default_stages,
    dollars,
    load_evaluations,
    metrics,
    metrics_batch,
    run_baseline,
    run_baseline_batch,
    run_pipeline,
    run_pipeline_batch,
    synth_population,
)

_CONFIG_ERRORS = (ConfigurationError, ValidationError, ParseError, ReferentialError, FileNotFoundError)


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
    text = _read_text(path, "config")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg} (column {exc.colno})", line=exc.lineno) from None
        if "config" in obj:
            if obj.get("command") not in (None, command):
                raise ConfigurationError(
                    f"manifest is for command {obj.get('command')!r}, not {command!r}"
                )
            if not isinstance(obj["config"], dict):
                raise ConfigurationError(f"manifest config is a {type(obj['config']).__name__}, not an object")
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


# ---------------------------------------------------------------------------
# sweeps


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
    Field("reward_family", str, "bernoulli", "protocol", "bernoulli (the only family sweeps accept)"),
    Field("state_mode", str, "iid_uniform", "tool", "state sequence generator"),
]

TIGHTNESS_SCHEMA = _SWEEP_FIELDS
SR_SCHEMA = [
    Field("num_envs", _int, 1000, "protocol", "number of randomized environments"),
] + _SWEEP_FIELDS[1:]

# each sweep's study, table header and one-line report of its summary
SWEEPS = {
    "tightness": (tightness_sweep, TIGHTNESS_HEADER, lambda s: (
        f"tightness: {s['rows']} environments, worst violation rate {max(s['violation_rate'].values()):.4f}")),
    "sr-compare": (sr_compare, SR_HEADER, lambda s: (
        f"sr-compare: mean empiric error uniform {s['mean_e_hat_uniform']:.4f} vs reference "
        f"{s['mean_e_hat_reference']:.4f} (sign test p={s['sign_test']['p_value']:.4g}, {s['direction']})")),
}


def cmd_sweep(args, cfg: dict, seed: int) -> int:
    """Run a sweep; write its table, summary and manifest; 1 when every environment failed."""
    study, header, report = SWEEPS[args.command]
    records, summary, failures = study(SweepConfig(master_seed=seed, **cfg), workers=args.workers)
    for idx, error in failures:
        print(f"env {idx} failed: {error}", file=sys.stderr)
    stem = args.command.replace("-", "_")
    _write_rows(args, stem, header, record_rows(records, header))
    _write_summary(args.out, f"{stem}_summary.json",
                   {**summary, "failures": [{"env_index": i, "error": m} for i, m in failures]})
    _write_manifest(args.out, args.command, seed, cfg)
    print(report(summary))
    if failures and not records:
        print(f"runtime failure: every environment failed ({len(failures)})", file=sys.stderr)
        return 1
    return 0


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
    Field("reward_family", str, "bernoulli", "protocol", "bernoulli or truncated_gaussian"),
    Field("state_mode", str, "iid_uniform", "tool", "state sequence generator"),
    Field("alpha", _float, 3.0, "tool", "optimism exploration rate, finite and above 2"),
    Field("checkpoints", _list(_int), (100, 1000, 10000), "protocol", "horizons to report"),
    Field("runs", _int, 1000, "protocol", "Monte Carlo runs"),
]


def cmd_regret(args, cfg: dict, seed: int) -> int:
    checkpoints = _check_checkpoints(cfg["checkpoints"])  # the last one sizes the state sequence
    mu = cfg["mu"]
    if cfg["m"]:
        if len(cfg["m"]) != cfg["K"] * cfg["S"]:
            raise ConfigurationError(f"m needs K*S={cfg['K'] * cfg['S']} entries, got {len(cfg['m'])}")
        ignored = [f.name for f in REGRET_SCHEMA if f.name in ("mu", "sigma2") and cfg[f.name] != f.default]
        if ignored:
            raise ConfigurationError(f"{ignored} shape local means drawn from mu only; an explicit m cannot honour them")
        m = np.array(cfg["m"]).reshape(cfg["K"], cfg["S"])
        # clipped, nan as 0, so that an m outside [0, 1] is reported as m, by Environment
        mu = tuple(np.clip(np.nan_to_num(m), 0.0, 1.0).mean(axis=1))
    seq = make_state_sequence(cfg["S"], checkpoints[-1], mode=cfg["state_mode"], seed=seed)
    spec = EnvironmentSpec(
        K=cfg["K"], S=cfg["S"], mu=mu, sigma2=cfg["sigma2"],
        state_sequence=seq, seed=cfg["env_seed"], reward_family=cfg["reward_family"],
    )
    env = Environment(spec=spec, m=m) if cfg["m"] else instantiate(spec)
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
    Field("scheme", str, "", "protocol", "budget split for $1,300/$2,200: more3, more2 or equal"),
    Field("policy", str, "round_robin", "tool", "within-stage allocation: round_robin or ucb"),
    Field("encoding", str, "linear", "protocol", "label encoding: linear, binary or exponential"),
    Field("num_seeds", _int, 100, "tool", "independent repetitions"),
    Field("baselines", _list(str), BASELINES, "protocol",
          f"reference approaches to run; {', '.join(COHORT_BASELINES)} evaluate a random "
          f"{SUB_COHORT}-person cohort and need n >= {SUB_COHORT}"),
    Field("human_csv", str, "", "tool", "recorded human evaluations for replay (optional)"),
    Field("machine_pred", str, "", "tool", "machine prediction vectors for replay (optional)"),
]


def _cell(values, decimals: int | None) -> str:
    """One triage cell over seeds, ``None`` values dropped: the value when
    every seed has the same one (a whole number as an integer), else
    ``mean±2*SD``. ``decimals`` None is the dollar rule: amounts are exact
    multiples of 0.001, print in cents or, when the mean has a mill digit, in
    mills, and their spread prints in mills."""
    vals = [v for v in values if v is not None]
    if not vals:
        return ""
    constant = min(vals) == max(vals)
    mean = vals[0] if constant else float(np.mean(vals))
    if decimals is None:
        decimals, text = 3, f"{mean:.2f}" if round(mean, 2) == round(mean, 3) else f"{mean:.3f}"
    else:
        text = str(int(mean)) if constant and mean == int(mean) else f"{mean:.{decimals}f}"
    return text if constant else f"{text}±{2 * float(np.std(vals, ddof=1)):.{decimals}f}"


# each column with the decimals _cell prints it to
TRIAGE_COLUMNS = [("budget", None), ("evaluated", 2)] + [
    (name, 4) for name in ("pop_sensitivity", "cohort_sensitivity", "precision", "specificity")
] + [(name, 2) for name in ("tp", "fp", "fn", "tn")]


SEEDS_PER_BATCH = 50
"""Seeds whose populations, pipelines and baselines triage runs as one batch.
It bounds the ``(seeds, n)`` tables a batch holds, and the ``(seeds, pulls)``
uniforms and ``(seeds, 4, pulls)`` labels of its costliest stage; a larger
batch pays less per ``ucb`` pull."""


def _triage_values(res, batch: SeedBatch, mode: str) -> list[tuple]:
    """Each seed's values of an approach, in TRIAGE_COLUMNS order."""
    spend = dollars(res.spend_milli)
    return [(spend, evaluated, m.pop_sensitivity, m.cohort_sensitivity, m.cohort_precision,
             m.cohort_specificity, m.cohort.tp, m.cohort.fp, m.cohort.fn, m.cohort.tn)
            for evaluated, m in zip(res.evaluated.sum(axis=1).tolist(), metrics_batch(res, batch, mode))]


def cmd_triage(args, cfg: dict, seed: int) -> int:
    _check_integer(cfg["num_seeds"], "num_seeds", low=1)
    _check_distinct(cfg["baselines"], "baselines")  # a repeated name would pool its runs into one row
    stages = default_stages(cfg["n"], tuple(cfg["k"]), cfg["total_budget"], cfg["scheme"])
    replay = bool(cfg["human_csv"] or cfg["machine_pred"])
    if replay and not (cfg["human_csv"] and cfg["machine_pred"]):
        raise ConfigurationError("replay needs both human_csv and machine_pred")
    synth_only = [f.name for f in TRIAGE_SCHEMA
                  if f.name in ("n_severe", "stage_noise") and cfg[f.name] != f.default]
    if replay and synth_only:
        raise ConfigurationError(f"replay mode cannot honour {synth_only}: they shape synthetic populations only")
    if replay:
        pop = load_evaluations(cfg["human_csv"], cfg["machine_pred"])
        if len(pop.ids) != cfg["n"]:
            raise ConfigurationError(
                f"n = {cfg['n']} but the replay roster has {len(pop.ids)} individuals")

    approaches = ["MAB", "MAB*"] + list(cfg["baselines"])
    values: dict[str, list[tuple]] = {a: [] for a in approaches}
    for first in range(0, cfg["num_seeds"], SEEDS_PER_BATCH):
        run_seeds = [int(substream(seed, s, "triage-seed").integers(0, 2**62))
                     for s in range(first, min(first + SEEDS_PER_BATCH, cfg["num_seeds"]))]
        pops = [pop] * len(run_seeds) if replay else [
            synth_population(cfg["n"], cfg["n_severe"], tuple(cfg["stage_noise"]), seed=s) for s in run_seeds]
        # one study's synthetic populations share ids and a confusion table, so the first is the roster
        batch = SeedBatch(pops[0], run_seeds, np.stack([p.true_risk for p in pops]))
        result = run_pipeline_batch(batch, stages, policy=cfg["policy"], encoding=cfg["encoding"])
        values["MAB"] += _triage_values(result, batch, "mab")
        values["MAB*"] += _triage_values(result, batch, "mab_star")
        for name in cfg["baselines"]:
            values[name] += _triage_values(run_baseline_batch(name, batch), batch, "mab")
    header = ["approach"] + [name for name, _ in TRIAGE_COLUMNS]
    table = [[a] + [_cell(col, decimals) for (_, decimals), col in zip(TRIAGE_COLUMNS, zip(*values[a]))]
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
    for family in (BOUNDED_UNIT, PsiFamily(0.2)):
        rt = psi_star_inv(family, psi_star(family, grid))
        if np.max(np.abs(rt - grid)) > 1e-12:
            return False, f"round trip off for sigma2={family.sigma2}"
        lams = np.linspace(0.0, 8.0, 33)
        for eps in grid[::10]:
            vals = lams * eps - psi(family, lams)
            if np.any(vals > psi_star(family, eps) + 1e-9):
                return False, f"conjugate not an upper envelope for sigma2={family.sigma2}"
        star = psi_star(family, grid)
        if np.any(np.diff(star) < -1e-15):
            return False, f"conjugate not monotone for sigma2={family.sigma2}"
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
    # each arm is pulled up to the phase that rejects it, so the run must name each arm once
    if sorted([res.winner, *res.rejected]) != [0, 1, 2]:
        return False, "SR pull count mismatch"
    pulls, fewest = 0, []
    for k, visits in enumerate(phase_visits(spec.state_sequence, schedule.t_k, 2)):
        # phase k+1 rotates each state's visits over the arms not yet rejected
        active = [a for a in range(3) if a not in res.rejected[:k]]
        table = rotation_counts(visits, len(active))
        pulls += table.sum(axis=0)
        # the evenly-allocated count of a phase is the fewest pulls any active arm got
        fewest.append(table.min(axis=0))
    if not np.array_equal(sr_counts(spec.state_sequence, schedule, 3, 2), np.cumsum(fewest, axis=0).T):
        return False, "SR count table mismatch"
    if np.any(pulls != state_counts(spec.state_sequence, 2, 90)):
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
    "tightness": (cmd_sweep, TIGHTNESS_SCHEMA),
    "sr-compare": (cmd_sweep, SR_SCHEMA),
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
        _check_integer(seed, "seed")  # a manifest's may be a string, float or bool; checked before --out is made
        _check_integer(args.workers, "workers", low=1)
        try:
            os.makedirs(args.out, exist_ok=True)
        except (FileExistsError, NotADirectoryError):  # a file where --out or one of its parents should be
            raise ConfigurationError(f"--out {args.out!r} is not a directory") from None
        return handler(args, cfg, seed)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failure envelope
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
