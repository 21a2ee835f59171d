"""Tiered budgeted screening pipeline.

A population of individuals with hidden 4-level risk labels is screened in
three stages (automated, non-expert, expert). Stage i spends an integer
milli-dollar budget on evaluations, each observation is encoded to [0, 1]
and folded into a gain-weighted risk estimate, and the top-k_i individuals
by estimate survive to the next stage. The final cohort is compared against
the true at-risk set (label Severe) at population level (everyone not
flagged counts as a negative) and cohort level (only evaluated individuals
count). All money is accounted in integer milli-dollars.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ParseError, ReferentialError, ValidationError, _check_integer, _read_text, _warn
from .rng import substream, substream_integers, substream_random
from .strategies import _optimism_pick, cell_means

__all__ = [
    "RiskLabel",
    "parse_label",
    "ENCODINGS",
    "STAGE_COSTS_MILLI",
    "STAGE_GAINS",
    "Population",
    "SeedBatch",
    "synth_population",
    "load_evaluations",
    "StageSpec",
    "allocation_budgets",
    "default_stages",
    "StageOutcome",
    "PipelineResult",
    "run_pipeline",
    "run_pipeline_batch",
    "BaselineResult",
    "run_baseline",
    "run_baseline_batch",
    "BASELINES",
    "Counts",
    "Metrics",
    "metrics",
    "metrics_batch",
    "dollars",
]


class RiskLabel(IntEnum):
    NO = 0
    LOW = 1
    MODERATE = 2
    SEVERE = 3


_LABEL_NAMES = {"no": RiskLabel.NO, "low": RiskLabel.LOW,
                "moderate": RiskLabel.MODERATE, "severe": RiskLabel.SEVERE}

ENCODINGS = {
    "linear": (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0),
    "binary": (0.0, 0.0, 0.0, 1.0),
    "exponential": (0.0, 1.0 / 7.0, 3.0 / 7.0, 1.0),
}

# Per-stage unit cost in milli-dollars ($0.001, $0.09, $5.35) and the
# gain weights that make later stages dominate the risk estimate.
STAGE_COSTS_MILLI = (1, 90, 5350)
STAGE_GAINS = (1.0, 10.0, 100.0)


def parse_label(text: str) -> RiskLabel:
    try:
        return _LABEL_NAMES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown risk label {text!r}") from None


def _check_labels(labels: np.ndarray, field: str, what: str) -> None:
    bad = labels[(labels < RiskLabel.NO) | (labels > RiskLabel.SEVERE)]
    if bad.size:
        raise ValidationError(f"{what} labels must lie in 0..3, got {int(bad[0])}", field=field)


def _encoding(scheme: str) -> tuple[float, ...]:
    try:
        return ENCODINGS[scheme]
    except KeyError:
        raise ConfigurationError(f"unknown encoding scheme {scheme!r}") from None


@dataclass(frozen=True, eq=False)
class Population:
    """Everyone screened, as arrays in ascending id order: row r is person
    ``ids[r]`` with hidden label ``true_risk[r]``. A synthetic population
    draws evaluations from ``confusion[stage - 1][true][observed]``. A replay
    one (``confusion`` None) needs ``recorded = (flat, start, size)``: row r's
    stage-s labels in file order are ``size[s - 1, r]`` entries of ``flat``
    from ``start[s - 1, r]``, and ``machine_probs[r]`` is its automated
    probability vector.
    """

    ids: np.ndarray
    true_risk: np.ndarray
    confusion: np.ndarray | None = None
    recorded: tuple | None = None
    machine_probs: np.ndarray | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.int64))
        except OverflowError:
            raise ValidationError("need int64 ids", field="ids") from None
        object.__setattr__(self, "true_risk", np.asarray(self.true_risk, dtype=np.int64))
        if np.any(self.ids[1:] <= self.ids[:-1]) or self.true_risk.shape != self.ids.shape:  # no np.diff: it wraps
            raise ValidationError("need ascending ids, no duplicates, one true label each", field="ids")
        _check_labels(self.true_risk, "true_risk", "true")
        if self.confusion is not None:
            object.__setattr__(self, "confusion", np.asarray(self.confusion, dtype=float))
            if self.confusion.shape != (3, 4, 4):
                raise ValidationError("need 3 stages x 4 true x 4 observed labels", field="confusion")
            return
        if self.recorded is None or self.machine_probs is None:
            raise ValidationError("need a confusion table (synthetic), or recorded labels and machine "
                                  "probabilities (replay)", field="confusion")
        flat, start, size = (np.asarray(a, dtype=np.int64) for a in self.recorded)
        object.__setattr__(self, "recorded", (flat, start, size))
        object.__setattr__(self, "machine_probs", np.asarray(self.machine_probs, dtype=float))
        n = len(self.ids)
        if start.shape != (3, n) or size.shape != (3, n):
            raise ValidationError(f"need (3, {n}) tables of label starts and counts, got {start.shape} "
                                  f"and {size.shape}", field="recorded")
        if np.any(start < 0) or np.any(size < 0) or np.any(start + size > len(flat)):
            raise ValidationError(f"need label starts and counts >= 0 that end within the {len(flat)} "
                                  "recorded labels", field="recorded")
        if self.machine_probs.shape != (n, 4):
            raise ValidationError(f"need a ({n}, 4) table, got {self.machine_probs.shape}", field="machine_probs")
        _check_labels(flat, "recorded", "recorded")

    def __eq__(self, other):
        if not isinstance(other, Population):
            return NotImplemented
        return all(map(np.array_equal, *([p.ids, p.true_risk, p.confusion, p.machine_probs,
                                          *(p.recorded or [None] * 3)] for p in (self, other))))

    @property
    def kind(self) -> str:
        return "replay" if self.confusion is None else "synthetic"


class SeedBatch:
    """One roster ``pop`` run under many seeds as one batch: row b of every
    ``(seeds, n)`` table is the roster under ``seeds[b]``, whose hidden labels
    are ``true_risk[b]``. Rater labels are derived for everyone in one pass
    the first time a baseline reads them, and the baselines' random cohort is
    drawn once per seed; both are kept while the batch lives, so every
    baseline of a batch reads the same ones.
    """

    def __init__(self, pop: Population, seeds, true_risk):
        self.pop, self.seeds = pop, [_check_integer(seed, "seed") for seed in seeds]
        self.true_risk = np.asarray(true_risk, dtype=np.int64)
        shape = (len(self.seeds), len(pop.ids))
        if not self.seeds or self.true_risk.shape != shape:
            raise ValidationError(f"need at least one seed and a {shape} table of true labels, "
                                  f"got {self.true_risk.shape}", field="true_risk")
        _check_labels(self.true_risk, "true_risk", "true")
        self.everyone = np.tile(np.arange(shape[1]), (shape[0], 1))  # each seed's rows, in id order
        self._kept: dict = {}

    def recorded(self, stage: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A replay roster's ``(start, size)`` of the stage labels of rows
        ``rows`` (seeds, k); each of them needs at least one label."""
        _, start, size = self.pop.recorded
        size = size[stage - 1, rows]
        if not size.all():
            raise ValidationError(f"individual {self.pop.ids[rows[size == 0][0]]} has no recorded "
                                  f"stage-{stage} labels", field="recorded")
        return start[stage - 1, rows], size

    def rater_labels(self, rows: np.ndarray, stage: int, tag: str) -> np.ndarray:
        """One evaluation each of roster rows ``rows`` (seeds, k) by a randomly
        assigned rater (used by baselines): what ``substream(seed, id, tag)``
        picks with ``.random()`` through the confusion row (synthetic) or
        ``.integers(0, m)`` from the m recorded labels (replay)."""
        pop = self.pop
        if pop.kind == "replay":
            self.recorded(stage, rows)
        if (stage, tag) not in self._kept:
            seeds = np.array(self.seeds, dtype=np.int64)[:, None]  # broadcast over the ids
            if pop.kind == "synthetic":
                labels = _confusion_labels(pop.confusion[stage - 1, self.true_risk],
                                           substream_random(seeds, pop.ids, tag))
            else:  # people without stage labels get none; recorded() keeps them unread
                flat, start, size = pop.recorded
                start, size = start[stage - 1], size[stage - 1]
                picks = substream_integers(seeds, pop.ids, tag, sizes=np.maximum(size, 1))
                labels = np.full(picks.shape, -1)
                labels[:, size > 0] = flat[(start + picks)[:, size > 0]]
            self._kept[stage, tag] = labels
        return np.take_along_axis(self._kept[stage, tag], rows, axis=1)

    def cohort(self) -> np.ndarray:
        """Each seed's random SUB_COHORT-person cohort, as ascending rows."""
        if "cohort" not in self._kept:
            self._kept["cohort"] = np.stack([
                np.sort(substream(seed, "cohort").choice(len(self.pop.ids), size=SUB_COHORT, replace=False))
                for seed in self.seeds])
        return self._kept["cohort"]


def _confusion_labels(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The synthetic label rule: the label each uniform ``u`` picks from its
    confusion row is the number of the row's cumulative sums at or below
    ``u``, capped at SEVERE. ``np.cumsum`` adds in label order, so this is the
    first label whose cumulative sum exceeds ``u``, or SEVERE if none does."""
    cumulative, severe = np.cumsum(rows, axis=-1), np.int8(RiskLabel.SEVERE)  # int8 keeps stage tables small
    return np.minimum(sum((cumulative[..., label] <= u for label in RiskLabel), np.int8(0)), severe)


def synth_population(
    n: int,
    n_severe: int,
    stage_noise: tuple[float, float, float] = (0.45, 0.30, 0.10),
    seed: int = 0,
) -> Population:
    """Generate a population with exactly ``n_severe`` Severe individuals.

    The remainder splits 50/30/20 across No/Low/Moderate (largest-remainder
    rounding); the label order is shuffled by seed. ``stage_noise`` gives the
    per-stage error probability, spread evenly over the three wrong labels,
    and must be strictly decreasing so later stages are strictly more
    accurate. With noise (0.45, 0.30, 0.10) a single full-coverage expert
    pass has expected sensitivity 0.9.
    """
    for value, name in ((n, "n"), (n_severe, "n_severe"), (seed, "seed")):
        _check_integer(value, name)
    if not 0 < n_severe < n:
        raise ValidationError("need 0 < n_severe < n", field="n_severe")
    if len(stage_noise) != 3 or not 1 > stage_noise[0] > stage_noise[1] > stage_noise[2] >= 0:
        raise ValidationError(f"need 3 entries, strictly decreasing in [0, 1), got {tuple(stage_noise)}",
                              field="stage_noise")
    rest = n - n_severe
    weights = (0.5, 0.3, 0.2)
    base = [int(math.floor(w * rest)) for w in weights]
    remainders = sorted(range(3), key=lambda i: (weights[i] * rest) - base[i], reverse=True)
    for i in range(rest - sum(base)):
        base[remainders[i % 3]] += 1
    labels = np.repeat(np.arange(4), base + [n_severe])
    substream(seed, "population").shuffle(labels)
    err = np.array(stage_noise, dtype=float)[:, None, None]
    return Population(np.arange(n), labels, np.where(np.eye(4, dtype=bool), 1.0 - err, err / 3.0))


def _records(path, kind: str, header: list[str], parse):
    """Yield (line number, ``parse(fields)``) for each non-blank row of a CSV
    file whose first row must be ``header``; malformed rows raise ParseError."""
    reader = csv.reader(io.StringIO(_read_text(path, f"{kind} file")))
    found = next(reader, None)
    if found != header:
        raise ParseError(f"bad {kind} header {found}", line=1)
    for lineno, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(rec)}", line=lineno)
        try:
            value = parse(rec)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        yield lineno, value


def load_evaluations(human_path, machine_path) -> Population:
    """Build a replay population from recorded evaluations.

    ``machine_path`` rows are ``id,p_no,p_low,p_mod,p_sev`` (finite,
    non-negative probabilities summing to 1 within 1e-6) and define the
    roster. ``human_path`` rows are ``id,rater_id,stage,label``; when
    present, its id set must equal the roster. True risk is the modal
    recorded expert label (ties toward less severe), falling back to the
    machine argmax for individuals without expert records.
    """
    probs: dict[int, tuple[float, ...]] = {}
    machine = _records(machine_path, "machine", ["id", "p_no", "p_low", "p_mod", "p_sev"],
                       lambda rec: (_check_integer(int(rec[0]), "id"), tuple(float(x) for x in rec[1:])))
    for lineno, (ind_id, vec) in machine:
        if ind_id in probs:
            raise ParseError(f"duplicate id {ind_id}", line=lineno)
        # a NaN fails p >= 0 and an infinity the sum
        if not all(p >= 0 for p in vec) or abs(sum(vec) - 1.0) > 1e-6:
            raise ParseError(f"probabilities for id {ind_id} must be finite, non-negative and sum to 1",
                             line=lineno)
        probs[ind_id] = vec
    recorded: dict[int, dict[int, list[RiskLabel]]] = {}
    human = _records(human_path, "human", ["id", "rater_id", "stage", "label"],
                     lambda rec: (int(rec[0]), int(rec[2]), parse_label(rec[3])))
    for lineno, (ind_id, stage, label) in human:
        if stage not in (1, 2, 3):
            raise ParseError(f"stage must be 1, 2 or 3, got {stage}", line=lineno)
        recorded.setdefault(ind_id, {}).setdefault(stage, []).append(label)
    if recorded and set(recorded) != set(probs):
        only_human = sorted(set(recorded) - set(probs))
        only_machine = sorted(set(probs) - set(recorded))
        raise ReferentialError(
            f"id sets differ: only in human file {only_human}, only in machine file {only_machine}"
        )
    return _replay_population(probs, recorded)


def _replay_population(probs: dict, recorded: dict) -> Population:
    """The replay population of ``{id: machine probabilities}`` and ``{id: {stage:
    labels in file order}}``, with true risk as ``load_evaluations`` defines it."""
    ids = sorted(probs)
    lists = [recorded.get(i, {}).get(stage, ()) for stage in (1, 2, 3) for i in ids]
    size = np.array([len(labels) for labels in lists], dtype=np.int64).reshape(3, len(ids))
    flat = np.array([lab for labels in lists for lab in labels], dtype=np.int64)
    start = np.cumsum(size).reshape(3, -1) - size
    machine = np.array([probs[i] for i in ids], dtype=float).reshape(-1, 4)
    expert = np.zeros((len(ids), 4), dtype=np.int64)
    np.add.at(expert, (np.repeat(np.arange(len(ids)), size[2]), flat[size[:2].sum():]), 1)
    true = np.where(size[2] > 0, np.argmax(expert, axis=1), np.argmax(machine, axis=1))
    return Population(ids, true, recorded=(flat, start, size), machine_probs=machine)


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: which of the three it is, its budget and its
    survivor count. The index fixes the unit cost and the gain weight."""

    index: int
    budget_milli: int
    cohort_out: int

    def __post_init__(self):
        for name in ("index", "budget_milli", "cohort_out"):
            _check_integer(getattr(self, name), name)
        if self.index not in (1, 2, 3):
            raise ValidationError(f"must be 1, 2 or 3, got {self.index!r}", field="index")
        if self.budget_milli < 0:
            raise ValidationError("must be non-negative", field="budget_milli")
        if self.cohort_out < 1:
            raise ValidationError("must be >= 1", field="cohort_out")

    @property
    def cost_milli(self) -> int:
        return STAGE_COSTS_MILLI[self.index - 1]

    @property
    def gain(self) -> float:
        return STAGE_GAINS[self.index - 1]


# (T2, T3) milli-dollar splits for the named total budgets; stage 1 is
# budgeted separately at one pull per individual.
_ALLOCATION_TABLE = {
    (553, None): (18_000, 535_000),
    (1300, "more3"): (200_000, 1_100_000),
    (1300, "more2"): (765_000, 535_000),
    (1300, "equal"): (620_000, 680_000),
    (2200, "more3"): (300_000, 1_900_000),
    (2200, "more2"): (1_500_000, 700_000),
    (2200, "equal"): (1_100_000, 1_100_000),
}


def _norm_scheme(scheme: str | None) -> str | None:
    """A scheme name in table form; ``None`` and ``""`` both mean no scheme."""
    return (scheme or "").strip().lower().replace(" ", "") or None


def allocation_budgets(total_dollars: int, scheme: str | None = None) -> tuple[int, int]:
    """(T2, T3) in milli-dollars for a named total budget.

    $553 admits a single split (one pull per stage-2 entrant, one per
    stage-3 entrant) and takes no scheme; $1,300 and $2,200 require a scheme
    of more3, more2 or equal.
    """
    _check_integer(total_dollars, "total_dollars")
    try:
        return _ALLOCATION_TABLE[total_dollars, _norm_scheme(scheme)]
    except KeyError:
        raise ConfigurationError(
            f"no budget split for total ${total_dollars} scheme {scheme!r}"
        ) from None


def default_stages(
    n: int,
    k: tuple[int, int, int] = (200, 100, 50),
    total_dollars: int = 553,
    scheme: str | None = None,
) -> list[StageSpec]:
    """The three protocol stages with a named budget split."""
    _check_integer(n, "n")
    for size in k:
        _check_integer(size, "k")
    if len(k) != 3 or not n > k[0] >= k[1] >= k[2] >= 1:
        raise ValidationError(f"need 3 sizes with n > k1 >= k2 >= k3 >= 1, got n={n}, k={k}",
                              field="cohort_out")
    t2, t3 = allocation_budgets(total_dollars, scheme)
    budgets = (n * STAGE_COSTS_MILLI[0], t2, t3)
    return [StageSpec(index=i + 1, budget_milli=budgets[i], cohort_out=k[i]) for i in range(3)]


class StageOutcome(NamedTuple):
    """One stage of a pipeline run. A single run holds its survivors' ids in
    id order and ``{id: estimate}``; a batch holds their population rows and
    estimates as ``(seeds, cohort_out)`` arrays."""

    index: int
    pulls: int
    spend_milli: int
    survivors: tuple | np.ndarray
    u_hat: dict | np.ndarray


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of a pipeline run; positives depend on the evaluation mode.

    ``mab`` counts every final-cohort member as flagged; ``mab_star`` only
    those whose expert evaluations included a Severe observation. A single
    run's sets are frozensets of ids; a batch's are ``(seeds, n)`` masks of
    population rows.
    """

    final_cohort: frozenset | np.ndarray
    evaluated: frozenset | np.ndarray
    expert_severe: frozenset | np.ndarray
    stages: tuple[StageOutcome, ...]
    spend_milli: int

    def positives(self, mode: str = "mab"):
        if mode == "mab":
            return self.final_cohort
        if mode == "mab_star":
            return self.final_cohort & self.expert_severe
        raise ConfigurationError(f"unknown mode {mode!r}")


UCB_ALPHA = 3.0
"""Exploration rate of the ``ucb`` policy's optimism bonus."""


def run_pipeline(
    pop: Population,
    stages: list[StageSpec],
    policy: str = "round_robin",
    seed: int = 0,
    encoding: str = "linear",
) -> PipelineResult:
    """Run the staged screen and return the final cohort with accounting.

    Each stage spends its budget on pulls until it cannot fund another. The
    first pass pulls every survivor once in id order. After it,
    ``round_robin`` keeps cycling the survivors in id order, and ``ucb``
    pulls the survivor maximizing its current estimate plus the regret
    engine's optimism bonus sqrt(UCB_ALPHA * log t / (2 count)) (``t`` and
    ``count`` are the within-stage pull numbers), ties toward the lower id.
    Replay individuals cycle their recorded labels for the stage in file
    order, from the first in every stage. Cohort cuts keep the top
    ``cohort_out`` by gain-weighted encoded mean, ties toward the lower id.
    This is ``run_pipeline_batch`` with one seed.
    """
    res = run_pipeline_batch(SeedBatch(pop, [seed], pop.true_risk[None]), stages, policy, encoding)
    outcomes = []
    for o in res.stages:
        survivors = tuple(pop.ids[o.survivors[0]].tolist())
        outcomes.append(o._replace(survivors=survivors, u_hat=dict(zip(survivors, o.u_hat[0].tolist()))))
    id_sets = (_id_set(pop, mask) for mask in (res.final_cohort, res.evaluated, res.expert_severe))
    return PipelineResult(*id_sets, tuple(outcomes), res.spend_milli)


def _id_set(pop: Population, mask: np.ndarray) -> frozenset:
    """The ids of a batch of one's ``(1, n)`` row mask."""
    return frozenset(pop.ids[mask[0]].tolist())


def run_pipeline_batch(
    batch: SeedBatch,
    stages: list[StageSpec],
    policy: str = "round_robin",
    encoding: str = "linear",
) -> PipelineResult:
    """``run_pipeline`` for every seed of a batch at once. The seeds' runs keep
    ``(seeds, survivors)`` tables and step in lockstep: every seed funds the
    same pulls, each draws its stage uniforms from its own ``substream(seed,
    "pipeline")`` in the calls a single run makes, and each ``ucb`` pull after
    the first pass is one optimism pick over all seeds."""
    if policy not in ("round_robin", "ucb"):
        raise ConfigurationError(f"unknown policy {policy!r}")
    values = np.array(_encoding(encoding))
    if not stages:
        raise ValidationError("need at least one stage", field="stages")
    stages = sorted(stages, key=lambda st: st.index)
    indices = [st.index for st in stages]
    if len(set(indices)) != len(indices):
        raise ValidationError(f"stage indices must be distinct, got {indices}", field="index")
    seeds, n = batch.true_risk.shape
    prev = n
    for st in stages:
        if st.cohort_out > prev:
            raise ValidationError(
                f"stage {st.index} keeps {st.cohort_out} of {prev}; cohorts must not grow",
                field="cohort_out",
            )
        prev = st.cohort_out
    b = np.arange(seeds)[:, None]
    severe_label = int(RiskLabel.SEVERE)  # numpy probes an IntEnum's type through EnumType.__getattr__
    rngs = [substream(seed, "pipeline") for seed in batch.seeds]
    rows = batch.everyone  # the survivors' population rows, in id order
    w_enc, w_sum = np.zeros((2, seeds, n))  # per-survivor gain-weighted sums
    evaluated, expert_severe = np.zeros((2, seeds, n), dtype=bool)
    outcomes = []
    for st in stages:
        m, gain = rows.shape[1], st.gain
        max_pulls = st.budget_milli // st.cost_milli
        if max_pulls == 0:
            _warn(f"stage {st.index}: budget funds no pulls; stage skipped", __name__)
        elif max_pulls < m:
            _warn(f"stage {st.index}: budget funds {max_pulls} pulls for {m} survivors", __name__)
        reached = min(m, max_pulls)  # every pull is of one of the first `reached` survivors
        label = _stage_rule(batch, st.index, rows[:, :reached], rngs, max_pulls)
        # per survivor: its pulls in this stage (floats, as the optimism pick divides by them;
        # also the replay cursors) and whether one of them saw Severe
        counts, severe = np.zeros((seeds, m)), np.zeros((seeds, m), dtype=bool)
        # round_robin cycles the survivors in id order all stage, ucb for its first pass;
        # one pass of pulls j = lo, lo + 1, ... reads survivors 0, 1, ... at once
        first = max_pulls if policy == "round_robin" else reached
        for lo in range(0, first, m):
            width = min(m, first - lo)
            labels = label(b * reached + np.arange(width), np.arange(lo, lo + width), counts[:, :width])
            w_enc[:, :width] += gain * values[labels]
            w_sum[:, :width] += gain
            counts[:, :width] += 1
            severe[:, :width] |= labels == severe_label
        # past the first pass reached == m, and a pull's flat position in these C-order tables is seed * m + k
        score, bonus = np.empty((2, seeds, m))
        offsets = np.arange(seeds) * m
        pulls_of, enc_of, sum_of, severe_of = (a.reshape(-1) for a in (counts, w_enc, w_sum, severe))
        for j in range(first, max_pulls):
            f = offsets + _optimism_pick(counts, w_enc, j, UCB_ALPHA * math.log(j + 1), score, bonus, w_sum)
            c = pulls_of[f]
            lab = label(f, j, c)
            pulls_of[f] = c + 1
            enc_of[f] += gain * values[lab]
            sum_of[f] += gain
            severe_of[f] |= lab == severe_label
        evaluated[b, rows[:, :reached]] = True
        if st.index == 3:
            expert_severe[b, rows] = severe
        u_hat = cell_means(w_sum, w_enc)
        keep = np.sort(np.argsort(-u_hat, axis=1, kind="stable")[:, :st.cohort_out], axis=1)
        rows, w_enc, w_sum, u_hat = (np.take_along_axis(a, keep, axis=1) for a in (rows, w_enc, w_sum, u_hat))
        outcomes.append(StageOutcome(st.index, max_pulls, max_pulls * st.cost_milli, rows, u_hat))
    final = np.zeros_like(evaluated)
    final[b, rows] = True
    return PipelineResult(final, evaluated, expert_severe, tuple(outcomes),
                          sum(o.spend_milli for o in outcomes))


def _stage_rule(batch: SeedBatch, stage: int, rows: np.ndarray, rngs: list, pulls: int) -> Callable:
    """The labels of a stage's pulls ``j``, the ``c``-th (a whole float) of the
    survivor at flat position ``f`` of ``rows`` (seeds, k), as ``label(f, j, c)``.
    A synthetic stage draws one uniform per pull in one call per seed and reads
    a table of the label each picks for each seed and true label; a replay
    stage reads the survivor's recorded labels."""
    b, pop = np.arange(len(rows))[:, None], batch.pop
    if pop.kind == "replay":
        flat = pop.recorded[0]
        start, size = (a.reshape(-1) for a in batch.recorded(stage, rows))
        return lambda f, j, c: flat[start[f] + c.astype(np.int64) % size[f]]
    u = np.stack([rng.random(pulls) for rng in rngs])
    table = _confusion_labels(pop.confusion[stage - 1, :, None], u[:, None]).reshape(len(rows) * 4, pulls)
    row = (b * 4 + batch.true_risk[b, rows]).reshape(-1)  # the table row of a survivor's seed and true label
    return lambda f, j, c: table[row[f], j]


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of a reference screening approach; positives are fixed. A
    single run's sets are frozensets of ids; a batch's are ``(seeds, n)``
    masks of population rows."""

    name: str
    evaluated: frozenset | np.ndarray
    _positives: frozenset | np.ndarray
    spend_milli: int
    n_evaluations: int

    def positives(self, mode: str = "mab"):
        return self._positives


def _nlp_labels(batch: SeedBatch, rows: np.ndarray) -> np.ndarray:
    """The automated stage's predictions: the machine argmax (replay) or one
    stage-1 evaluation each (synthetic)."""
    if batch.pop.kind == "replay":
        return np.argmax(batch.pop.machine_probs[rows], axis=-1)
    return batch.rater_labels(rows, 1, "nlp")


@dataclass(frozen=True)
class _Rater:
    per_person: int  # evaluations per person rated
    cost_milli: int  # per evaluation
    labels: Callable[[SeedBatch, np.ndarray], np.ndarray]  # of population rows (seeds, k)


_CONSENSUS = _Rater(4, STAGE_COSTS_MILLI[2], lambda batch, rows: np.take_along_axis(batch.true_risk, rows, 1))
_EXPERT = _Rater(1, STAGE_COSTS_MILLI[2], lambda batch, rows: batch.rater_labels(rows, 3, "expert"))
_NLP = _Rater(1, STAGE_COSTS_MILLI[0], _nlp_labels)
_FLAG_ALL = _Rater(0, 0, lambda batch, rows: np.full(rows.shape, RiskLabel.SEVERE))

# baseline: (who the rater sees, rater); the top view ranks everyone by one
# NLP pass first, so it evaluates everyone
_BASELINE_TABLE = {
    "4Experts": ("everyone", _CONSENSUS),
    "1Expert": ("everyone", _EXPERT),
    "4Experts-Sub": ("cohort", _CONSENSUS),
    "1Expert-Sub": ("cohort", _EXPERT),
    "NLP-Full": ("everyone", _NLP),
    "NLP-Sub": ("cohort", _NLP),
    "NLP-Top-k": ("top", _FLAG_ALL),
    "NLP-Top-100+1Expert-Sub": ("top", _EXPERT),
}
BASELINES = tuple(_BASELINE_TABLE)
SUB_COHORT = 100
"""Size of the random cohort the COHORT_BASELINES evaluate."""
TOP_K = 100
"""Size of the NLP-ranked list the top baselines keep."""
COHORT_BASELINES = tuple(name for name, (view, _) in _BASELINE_TABLE.items() if view == "cohort")


def _nlp_ranked(batch: SeedBatch) -> np.ndarray:
    """Each seed's population rows with the likeliest Severe by NLP first, ties
    toward the lower id."""
    pop, rows = batch.pop, batch.everyone
    scores = pop.machine_probs[rows, RiskLabel.SEVERE] if pop.kind == "replay" else _nlp_labels(batch, rows)
    return np.argsort(-scores, axis=1, kind="stable")


def run_baseline(name: str, pop: Population, seed: int = 0) -> BaselineResult:
    """Run a reference approach and return its flagged set with accounting.

    The COHORT_BASELINES rate a random cohort of SUB_COHORT people; the top
    baselines rate the TOP_K people the NLP pass ranks first. This is
    ``run_baseline_batch`` with one seed.
    """
    res = run_baseline_batch(name, SeedBatch(pop, [seed], pop.true_risk[None]))
    return BaselineResult(name, _id_set(pop, res.evaluated), _id_set(pop, res.positives()), res.spend_milli,
                          res.n_evaluations)


def run_baseline_batch(name: str, batch: SeedBatch) -> BaselineResult:
    """``run_baseline`` for every seed of a batch at once; the baselines of one
    batch share its rater labels and cohorts."""
    if name not in _BASELINE_TABLE:
        raise ConfigurationError(f"unknown baseline {name!r}; known: {BASELINES}")
    view, rater = _BASELINE_TABLE[name]
    seeds, n = batch.true_risk.shape
    evaluations = []  # (rater, people it rates)
    if view == "everyone":
        seen = batch.everyone
    elif view == "cohort":
        if SUB_COHORT > n:
            raise ConfigurationError(f"baseline {name!r} evaluates a {SUB_COHORT}-person cohort, "
                                     f"more than n = {n}")
        seen = batch.cohort()
    else:
        evaluations.append((_NLP, n))
        seen = _nlp_ranked(batch)[:, :TOP_K]
    evaluations.append((rater, seen.shape[1]))
    b = np.arange(seeds)[:, None]
    evaluated, positives = np.zeros((2, seeds, n), dtype=bool)
    evaluated[b, seen] = True
    positives[b, seen] = rater.labels(batch, seen) == RiskLabel.SEVERE
    return BaselineResult(
        name,
        evaluated if view == "cohort" else np.ones_like(evaluated),
        positives,
        sum(count * r.per_person * r.cost_milli for r, count in evaluations),
        sum(count * r.per_person for r, count in evaluations),
    )


@dataclass(frozen=True)
class Counts:
    tp: int
    fp: int
    fn: int
    tn: int


def _rate(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


@dataclass(frozen=True)
class Metrics:
    """Confusion counts and rates at population and cohort level.

    Rates are None, not 0, when their denominator is empty.
    """

    population: Counts
    cohort: Counts
    pop_sensitivity: float | None
    pop_precision: float | None
    pop_specificity: float | None
    cohort_sensitivity: float | None
    cohort_precision: float | None
    cohort_specificity: float | None


def metrics(result, pop: Population, mode: str = "mab") -> Metrics:
    """Score a result against the true Severe set.

    Population counts run over everyone (unevaluated individuals are
    negatives by definition); cohort counts restrict to the evaluated set.
    The counting is ``metrics_batch``'s, on one seed's masks.
    """
    evaluated, positives = (np.isin(pop.ids, list(ids)) for ids in (result.evaluated, result.positives(mode)))
    return _metrics(evaluated[None], positives[None], pop.true_risk[None] == RiskLabel.SEVERE)[0]


def metrics_batch(result, batch: SeedBatch, mode: str = "mab") -> list[Metrics]:
    """``metrics`` of a batch's ``PipelineResult`` or ``BaselineResult`` for each seed."""
    return _metrics(result.evaluated, result.positives(mode), batch.true_risk == RiskLabel.SEVERE)


def _metrics(evaluated: np.ndarray, positives: np.ndarray, severe: np.ndarray) -> list[Metrics]:
    """Each row's Metrics, counted from ``(seeds, n)`` masks."""

    def count(universe) -> list[Counts]:
        flagged = universe & positives
        tp = (flagged & severe).sum(axis=1)
        fp = flagged.sum(axis=1) - tp
        fn = (universe & severe).sum(axis=1) - tp
        tn = universe.sum(axis=1) - tp - fp - fn
        return [Counts(*c) for c in zip(tp.tolist(), fp.tolist(), fn.tolist(), tn.tolist())]

    return [Metrics(
        population=p,
        cohort=c,
        pop_sensitivity=_rate(p.tp, p.tp + p.fn),
        pop_precision=_rate(p.tp, p.tp + p.fp),
        pop_specificity=_rate(p.tn, p.tn + p.fp),
        cohort_sensitivity=_rate(c.tp, c.tp + c.fn),
        cohort_precision=_rate(c.tp, c.tp + c.fp),
        cohort_specificity=_rate(c.tn, c.tn + c.fp),
    ) for p, c in zip(count(np.ones_like(severe)), count(evaluated))]


def dollars(milli: int) -> float:
    """Milli-dollar to dollar conversion (exact for cents)."""
    return milli / 1000.0
