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
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .divergence import BOUNDED_UNIT, _psi_star_inv
from .errors import ConfigurationError, ParseError, ReferentialError, ValidationError
from .rng import substream, substream_raw

__all__ = [
    "RiskLabel",
    "ENCODINGS",
    "STAGE_COSTS_MILLI",
    "STAGE_GAINS",
    "Individual",
    "Population",
    "synth_population",
    "load_evaluations",
    "StageSpec",
    "allocation_budgets",
    "default_stages",
    "PipelineResult",
    "run_pipeline",
    "BaselineResult",
    "run_baseline",
    "BASELINES",
    "Counts",
    "Metrics",
    "metrics",
    "dollars",
]


class RiskLabel(IntEnum):
    NO = 0
    LOW = 1
    MODERATE = 2
    SEVERE = 3


_LABELS = tuple(RiskLabel)

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


def _encoding(scheme: str) -> tuple[float, ...]:
    try:
        return ENCODINGS[scheme]
    except KeyError:
        raise ConfigurationError(f"unknown encoding scheme {scheme!r}") from None


@dataclass(frozen=True)
class Individual:
    """One screened individual; replay individuals carry recorded labels per
    stage plus the machine probability vector."""

    id: int
    true_risk: RiskLabel
    recorded: dict | None = None
    machine_probs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Population:
    """An ordered collection of individuals. A synthetic one samples
    ``confusion[stage - 1][true][observed]`` probabilities; a replay one
    (``confusion`` None) replays recorded labels. Rater labels drawn for the
    baselines are kept on the population (see ``rater_labels``)."""

    individuals: tuple[Individual, ...]
    confusion: tuple[tuple[tuple[float, ...], ...], ...] | None = None
    _rater_labels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [ind.id for ind in self.individuals]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate individual ids", field="individuals")
        if self.confusion is not None and np.shape(self.confusion) != (3, 4, 4):
            raise ValidationError("need 3 stages x 4 true x 4 observed labels", field="confusion")

    @property
    def kind(self) -> str:
        return "replay" if self.confusion is None else "synthetic"

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(ind.id for ind in self.individuals)

    def _choices(self, ind: Individual, stage: int) -> tuple:
        """The confusion row (synthetic) or the recorded labels (replay)."""
        if self.confusion is not None:
            return self.confusion[stage - 1][ind.true_risk]
        labels = ind.recorded.get(stage, ())
        if not labels:
            raise ValidationError(f"individual {ind.id} has no recorded stage-{stage} labels",
                                  field="recorded")
        return labels

    def pull_label(self, ind: Individual, stage: int, pull_index: int,
                   rng: np.random.Generator) -> RiskLabel:
        """One evaluation: sample the confusion row (synthetic) or replay the
        recorded labels cyclically in file order (replay)."""
        choices = self._choices(ind, stage)
        if self.confusion is not None:
            return _row_label(choices, rng.random())
        return choices[pull_index % len(choices)]

    def rater_labels(self, inds, stage: int, seed: int, tag: str) -> list[RiskLabel]:
        """One evaluation each by a randomly assigned rater (used by baselines):
        what ``substream(seed, ind.id, tag)`` picks with ``.random()`` from the
        confusion row (synthetic) or ``.integers(0, m)`` from the m recorded
        labels (replay). Labels not yet kept are derived in one pass and kept,
        so the baselines of one seed derive each label once however many read it."""
        kept = self._rater_labels.setdefault((seed, stage, tag), {})
        new = [ind for ind in inds if ind.id not in kept]
        if new:
            choices = [self._choices(ind, stage) for ind in new]
            ids = [ind.id for ind in new]
            if self.confusion is not None:
                raw = substream_raw((seed,), ids, (tag,))[:, 0]
                us = ((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()
                labels = map(_row_label, choices, us)
            else:
                picks = _integers((seed,), ids, (tag,), [len(c) for c in choices])
                labels = (c[k] for c, k in zip(choices, picks))
            kept.update(zip(ids, labels))
        return [kept[ind.id] for ind in inds]


def _row_label(row: tuple, u: float) -> RiskLabel:
    """The label a uniform variate ``u`` picks from a confusion row."""
    acc = 0.0
    for lab, p in zip(_LABELS, row):
        acc += p
        if u < acc:
            return lab
    return RiskLabel.SEVERE


def _integers(prefix: tuple, ids, suffix: tuple, sizes) -> list[int]:
    """``substream(*prefix, i, *suffix).integers(0, m)`` for each id ``i`` and
    size ``m`` (m < 2**32), by numpy's Lemire rule: the stream's 32-bit words
    (low half of each raw output, then the high half) are scaled by m, and the
    first ``w`` with ``(w * m) mod 2**32 >= (2**32 - m) % m`` gives
    ``(w * m) >> 32``. Rows whose words are all rejected derive more outputs."""
    ids, m = list(ids), np.array(sizes, dtype=np.uint64)
    low, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    threshold = (np.uint64(2**32) - m) % m
    out = np.full(len(ids), -1, dtype=np.int64)
    todo, draws = np.arange(len(ids)), 1
    while todo.size:
        raw = substream_raw(prefix, [ids[i] for i in todo], suffix, draws)
        for word in np.stack([raw & low, raw >> shift], axis=2).reshape(len(todo), -1).T:
            scaled = word * m[todo]
            accept = (out[todo] < 0) & ((scaled & low) >= threshold[todo])
            out[todo[accept]] = (scaled[accept] >> shift).astype(np.int64)
        todo, draws = todo[out[todo] < 0], 2 * draws
    return out.tolist()


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
    if not 0 < n_severe < n:
        raise ValidationError("need 0 < n_severe < n", field="n_severe")
    e1, e2, e3 = stage_noise
    if not (1 > e1 > e2 > e3 >= 0):
        raise ValidationError("stage noise must be strictly decreasing in [0, 1)",
                              field="stage_noise")
    rest = n - n_severe
    weights = (0.5, 0.3, 0.2)
    base = [int(math.floor(w * rest)) for w in weights]
    remainders = sorted(range(3), key=lambda i: (weights[i] * rest) - base[i], reverse=True)
    for i in range(rest - sum(base)):
        base[remainders[i % 3]] += 1
    labels = ([RiskLabel.NO] * base[0] + [RiskLabel.LOW] * base[1]
              + [RiskLabel.MODERATE] * base[2] + [RiskLabel.SEVERE] * n_severe)
    rng = substream(seed, "population")
    rng.shuffle(labels)

    confusion = tuple(tuple(tuple((1.0 - err) if lab == true else err / 3.0 for lab in RiskLabel)
                            for true in RiskLabel) for err in (e1, e2, e3))
    return Population(tuple(Individual(id=i, true_risk=labels[i]) for i in range(n)), confusion)


def _modal_label(labels) -> RiskLabel:
    counts = {lab: 0 for lab in RiskLabel}
    for lab in labels:
        counts[lab] += 1
    # ties resolve toward the less severe label
    return max(RiskLabel, key=lambda lab: (counts[lab], -int(lab)))


def _records(path, kind: str, header: list[str], parse):
    """Yield (line number, ``parse(fields)``) for each non-blank row of a CSV
    file whose first row must be ``header``; malformed rows raise ParseError."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
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

    ``machine_path`` rows are ``id,p_no,p_low,p_mod,p_sev`` (probabilities
    summing to 1 within 1e-6) and define the roster. ``human_path`` rows are
    ``id,rater_id,stage,label``; when present, its id set must equal the
    roster. True risk is the modal recorded expert label (ties toward less
    severe), falling back to the machine argmax for individuals without
    expert records.
    """
    probs: dict[int, tuple[float, ...]] = {}
    machine = _records(machine_path, "machine", ["id", "p_no", "p_low", "p_mod", "p_sev"],
                       lambda rec: (int(rec[0]), tuple(float(x) for x in rec[1:])))
    for lineno, (ind_id, vec) in machine:
        if ind_id in probs:
            raise ParseError(f"duplicate id {ind_id}", line=lineno)
        if any(p < 0 for p in vec) or abs(sum(vec) - 1.0) > 1e-6:
            raise ParseError(f"probabilities for id {ind_id} do not sum to 1", line=lineno)
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
    individuals = []
    for ind_id in sorted(probs):
        recs = {stage: tuple(labels) for stage, labels in recorded.get(ind_id, {}).items()}
        expert = recs.get(3, ())
        true = _modal_label(expert) if expert else RiskLabel(int(np.argmax(probs[ind_id])))
        individuals.append(Individual(id=ind_id, true_risk=true, recorded=recs,
                                      machine_probs=probs[ind_id]))
    return Population(individuals=tuple(individuals))


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: unit cost, gain weight, budget, survivor count."""

    index: int
    cost_milli: int
    gain: float
    budget_milli: int
    cohort_out: int

    def __post_init__(self):
        if self.index < 1:
            raise ValidationError("must be >= 1", field="index")
        if self.cost_milli <= 0:
            raise ValidationError("must be positive", field="cost_milli")
        if self.gain <= 0:
            raise ValidationError("must be positive", field="gain")
        if self.budget_milli < 0:
            raise ValidationError("must be non-negative", field="budget_milli")
        if self.cohort_out < 1:
            raise ValidationError("must be >= 1", field="cohort_out")


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
    if scheme is None:
        return None
    return scheme.strip().lower().replace(" ", "")


def allocation_budgets(total_dollars: int, scheme: str | None = None) -> tuple[int, int]:
    """(T2, T3) in milli-dollars for a named total budget.

    $553 admits a single split (one pull per stage-2 entrant, one per
    stage-3 entrant); $1,300 and $2,200 require a scheme of more3, more2 or
    equal.
    """
    total = int(total_dollars)
    key = (total, None) if total == 553 else (total, _norm_scheme(scheme))
    try:
        return _ALLOCATION_TABLE[key]
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
    """Three stages with protocol costs/gains and a named budget split."""
    k1, k2, k3 = k
    if not n > k1 >= k2 >= k3 >= 1:
        raise ValidationError(f"need n > k1 >= k2 >= k3 >= 1, got n={n}, k={k}",
                              field="cohort_out")
    t2, t3 = allocation_budgets(total_dollars, scheme)
    budgets = (n * STAGE_COSTS_MILLI[0], t2, t3)
    return [
        StageSpec(index=i + 1, cost_milli=STAGE_COSTS_MILLI[i], gain=STAGE_GAINS[i],
                  budget_milli=budgets[i], cohort_out=(k1, k2, k3)[i])
        for i in range(3)
    ]


@dataclass(frozen=True)
class StageOutcome:
    index: int
    pulls: int
    spend_milli: int
    survivors: tuple[int, ...]
    u_hat: dict


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one pipeline run; positives depend on the evaluation mode.

    ``mab`` counts every final-cohort member as flagged; ``mab_star`` only
    those whose expert evaluations included a Severe observation.
    """

    final_cohort: tuple[int, ...]
    evaluated: frozenset
    expert_severe: frozenset
    stages: tuple[StageOutcome, ...]
    spend_milli: int

    def positives(self, mode: str = "mab") -> frozenset:
        if mode == "mab":
            return frozenset(self.final_cohort)
        if mode == "mab_star":
            return frozenset(self.final_cohort) & self.expert_severe
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
    pulls the survivor maximizing its current estimate plus the bounded-unit
    optimism bonus at ``UCB_ALPHA * log t / count`` (``t`` and ``count`` are
    the within-stage pull numbers), ties toward the lower id. Replay
    individuals cycle their recorded labels for the stage in file order, from
    the first in every stage. Cohort cuts keep the top ``cohort_out`` by
    gain-weighted encoded mean, ties toward the lower id.
    """
    if policy not in ("round_robin", "ucb"):
        raise ConfigurationError(f"unknown policy {policy!r}")
    values = _encoding(encoding)
    if not stages:
        raise ValidationError("need at least one stage", field="stages")
    stages = sorted(stages, key=lambda st: st.index)
    indices = [st.index for st in stages]
    if len(set(indices)) != len(indices):
        raise ValidationError(f"stage indices must be distinct, got {indices}", field="index")
    prev = len(pop.individuals)
    for st in stages:
        if st.cohort_out > prev:
            raise ValidationError(
                f"stage {st.index} keeps {st.cohort_out} of {prev}; cohorts must not grow",
                field="cohort_out",
            )
        prev = st.cohort_out
    rng = substream(seed, "pipeline")
    # per-survivor weighted sums as arrays, by position in id order
    alive = sorted(pop.individuals, key=lambda ind: ind.id)
    w_enc, w_sum = np.zeros((2, len(alive)))
    evaluated: set[int] = set()
    expert_severe: set[int] = set()
    outcomes: list[StageOutcome] = []
    for st in stages:
        m = len(alive)
        max_pulls = st.budget_milli // st.cost_milli
        if max_pulls == 0:
            warnings.warn(f"stage {st.index}: budget funds no pulls; stage skipped", stacklevel=2)
        elif max_pulls < m:
            warnings.warn(f"stage {st.index}: budget funds {max_pulls} pulls for {m} survivors",
                          stacklevel=2)
        first = min(m, max_pulls)  # the first pass, in one batch
        pulls = [(k, pop.pull_label(alive[k], st.index, 0, rng)) for k in range(first)]
        counts = np.zeros(m, dtype=np.int64)  # within-stage pulls, also the replay cursors
        counts[:first] = 1
        w_enc[:first] += st.gain * np.array([values[label] for _, label in pulls])
        w_sum[:first] += st.gain
        for j in range(first, max_pulls):
            if policy == "round_robin":
                k = j % m
            else:
                bonus = _psi_star_inv(BOUNDED_UNIT, UCB_ALPHA * math.log(j + 1) / counts)
                k = int(np.argmax(w_enc / w_sum + bonus))
            label = pop.pull_label(alive[k], st.index, int(counts[k]), rng)
            pulls.append((k, label))
            counts[k] += 1
            w_enc[k] += st.gain * values[label]
            w_sum[k] += st.gain
        evaluated.update(alive[k].id for k, _ in pulls)
        if st.index == 3:
            expert_severe.update(alive[k].id for k, label in pulls if label == RiskLabel.SEVERE)
        u_hat = np.divide(w_enc, w_sum, out=np.zeros(m), where=w_sum > 0)
        keep = np.sort(np.lexsort((np.arange(m), -u_hat))[: st.cohort_out])
        alive, w_enc, w_sum = [alive[k] for k in keep], w_enc[keep], w_sum[keep]
        outcomes.append(StageOutcome(
            index=st.index, pulls=max_pulls, spend_milli=max_pulls * st.cost_milli,
            survivors=tuple(ind.id for ind in alive),
            u_hat={ind.id: u for ind, u in zip(alive, u_hat[keep].tolist())},
        ))
    return PipelineResult(
        final_cohort=outcomes[-1].survivors,
        evaluated=frozenset(evaluated),
        expert_severe=frozenset(expert_severe),
        stages=tuple(outcomes),
        spend_milli=sum(o.spend_milli for o in outcomes),
    )


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of a reference screening approach; positives are fixed."""

    name: str
    evaluated: frozenset
    _positives: frozenset
    spend_milli: int
    n_evaluations: int

    def positives(self, mode: str = "mab") -> frozenset:
        return self._positives


def _nlp_labels(pop: Population, inds: list[Individual], seed: int) -> list[RiskLabel]:
    """The automated stage's predictions: the machine argmax (replay) or one
    stage-1 evaluation each (synthetic)."""
    if pop.kind == "replay":
        return [RiskLabel(int(np.argmax(ind.machine_probs))) for ind in inds]
    return pop.rater_labels(inds, 1, seed, "nlp")


@dataclass(frozen=True)
class _Rater:
    per_person: int  # evaluations per person rated
    cost_milli: int  # per evaluation
    labels: Callable[[Population, list[Individual], int], list[RiskLabel]]


_CONSENSUS = _Rater(4, STAGE_COSTS_MILLI[2],
                    lambda pop, inds, seed: [ind.true_risk for ind in inds])
_EXPERT = _Rater(1, STAGE_COSTS_MILLI[2],
                 lambda pop, inds, seed: pop.rater_labels(inds, 3, seed, "expert"))
_NLP = _Rater(1, STAGE_COSTS_MILLI[0], _nlp_labels)
_FLAG_ALL = _Rater(0, 0, lambda pop, inds, seed: [RiskLabel.SEVERE] * len(inds))

# baseline: (who the rater sees, rater); the top views rank everyone by one
# NLP pass first, so they evaluate everyone
_BASELINE_TABLE = {
    "4Experts": ("everyone", _CONSENSUS),
    "1Expert": ("everyone", _EXPERT),
    "4Experts-Sub": ("cohort", _CONSENSUS),
    "1Expert-Sub": ("cohort", _EXPERT),
    "NLP-Full": ("everyone", _NLP),
    "NLP-Sub": ("cohort", _NLP),
    "NLP-Top-k": ("top-k", _FLAG_ALL),
    "NLP-Top-100+1Expert-Sub": ("top-100", _EXPERT),
}
BASELINES = tuple(_BASELINE_TABLE)
SUB_COHORT = 100
"""Default size of the random cohort the COHORT_BASELINES evaluate."""
COHORT_BASELINES = tuple(name for name, (view, _) in _BASELINE_TABLE.items() if view == "cohort")


def _nlp_ranked(pop: Population, inds: list[Individual], seed: int) -> list[Individual]:
    """``inds`` with the likeliest Severe by NLP first, ties toward the lower id."""
    if pop.kind == "replay":
        scores = [ind.machine_probs[int(RiskLabel.SEVERE)] for ind in inds]
    else:
        scores = _nlp_labels(pop, inds, seed)
    return [ind for _, ind in sorted(zip(scores, inds), key=lambda p: (-p[0], p[1].id))]


def run_baseline(name: str, pop: Population, params: dict | None = None,
                 seed: int = 0) -> BaselineResult:
    """Run a reference approach and return its flagged set with accounting.

    ``params`` keys: ``cohort_size`` (default SUB_COHORT) for the
    COHORT_BASELINES and ``k`` (default 100) for NLP-Top-k.
    """
    params = dict(params or {})
    cohort_size = int(params.pop("cohort_size", SUB_COHORT))
    top_k = int(params.pop("k", 100))
    if params:
        raise ConfigurationError(f"unknown baseline params {sorted(params)}")
    if name not in _BASELINE_TABLE:
        raise ConfigurationError(f"unknown baseline {name!r}; known: {BASELINES}")
    view, rater = _BASELINE_TABLE[name]
    everyone = list(pop.individuals)
    evaluations = []  # (rater, people it rates)
    if view == "everyone":
        seen = everyone
    elif view == "cohort":
        if not 0 < cohort_size <= len(everyone):
            raise ConfigurationError(f"cohort_size {cohort_size} outside [1, {len(everyone)}]")
        picks = substream(seed, "cohort").choice(len(everyone), size=cohort_size, replace=False)
        seen = [everyone[i] for i in sorted(int(p) for p in picks)]
    else:
        evaluations.append((_NLP, len(everyone)))
        seen = _nlp_ranked(pop, everyone, seed)[: top_k if view == "top-k" else 100]
    evaluations.append((rater, len(seen)))
    labels = rater.labels(pop, seen, seed)
    return BaselineResult(
        name,
        frozenset(ind.id for ind in (seen if view == "cohort" else everyone)),
        frozenset(ind.id for ind, lab in zip(seen, labels) if lab == RiskLabel.SEVERE),
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
    """
    positives = result.positives(mode)
    severe = {ind.id for ind in pop.individuals if ind.true_risk == RiskLabel.SEVERE}

    def count(universe) -> Counts:
        tp = len(universe & severe & positives)
        fp = len((universe & positives) - severe)
        fn = len((universe & severe) - positives)
        tn = len(universe) - tp - fp - fn
        return Counts(tp=tp, fp=fp, fn=fn, tn=tn)

    pop_counts = count(set(pop.ids))
    coh_counts = count(set(result.evaluated))
    return Metrics(
        population=pop_counts,
        cohort=coh_counts,
        pop_sensitivity=_rate(pop_counts.tp, pop_counts.tp + pop_counts.fn),
        pop_precision=_rate(pop_counts.tp, pop_counts.tp + pop_counts.fp),
        pop_specificity=_rate(pop_counts.tn, pop_counts.tn + pop_counts.fp),
        cohort_sensitivity=_rate(coh_counts.tp, coh_counts.tp + coh_counts.fn),
        cohort_precision=_rate(coh_counts.tp, coh_counts.tp + coh_counts.fp),
        cohort_specificity=_rate(coh_counts.tn, coh_counts.tn + coh_counts.fp),
    )


def dollars(milli: int) -> float:
    """Milli-dollar to dollar conversion (exact for cents)."""
    return milli / 1000.0
