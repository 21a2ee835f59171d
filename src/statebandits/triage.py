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
from .rng import substream, substream_integers, substream_random
from .strategies import cell_means

__all__ = [
    "RiskLabel",
    "ENCODINGS",
    "STAGE_COSTS_MILLI",
    "STAGE_GAINS",
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


@dataclass(frozen=True, eq=False)
class Population:
    """Everyone screened, as arrays in ascending id order: row r is person
    ``ids[r]`` with hidden label ``true_risk[r]``. A synthetic population
    draws evaluations from ``confusion[stage - 1][true][observed]``. A replay
    one (``confusion`` None) has ``recorded = (flat, start, size)``: row r's
    stage-s labels in file order are ``size[s - 1, r]`` entries of ``flat``
    from ``start[s - 1, r]``, and ``machine_probs[r]`` is its automated
    probability vector. Baseline rater labels are kept (see ``rater_labels``).
    """

    ids: np.ndarray
    true_risk: np.ndarray
    confusion: np.ndarray | None = None
    recorded: tuple | None = None
    machine_probs: np.ndarray | None = None
    _rater_labels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.int64))
        object.__setattr__(self, "true_risk", np.asarray(self.true_risk, dtype=np.int64))
        if np.any(np.diff(self.ids) <= 0) or self.true_risk.shape != self.ids.shape:
            raise ValidationError("need ascending ids, no duplicates, one true label each", field="ids")
        if self.confusion is not None:
            object.__setattr__(self, "confusion", np.asarray(self.confusion, dtype=float))
            if self.confusion.shape != (3, 4, 4):
                raise ValidationError("need 3 stages x 4 true x 4 observed labels", field="confusion")

    def __eq__(self, other):
        if not isinstance(other, Population):
            return NotImplemented
        return all(map(np.array_equal, *([p.ids, p.true_risk, p.confusion, p.machine_probs,
                                          *(p.recorded or [None] * 3)] for p in (self, other))))

    @property
    def kind(self) -> str:
        return "replay" if self.confusion is None else "synthetic"

    def _replayed(self, stage: int, rows: np.ndarray) -> Callable:
        """The replay label rule: ``label(k, i)`` is the ``i``-th recorded stage
        label of population row ``rows[k]``, cyclically in file order."""
        flat, start, size = self.recorded
        start, size = start[stage - 1, rows], size[stage - 1, rows]
        if not size.all():
            raise ValidationError(f"individual {self.ids[rows[size == 0][0]]} has no recorded "
                                  f"stage-{stage} labels", field="recorded")
        return lambda k, i: flat[start[k] + i % size[k]]

    def rater_labels(self, rows: np.ndarray, stage: int, seed: int, tag: str) -> np.ndarray:
        """One evaluation each of population rows ``rows`` by a randomly
        assigned rater (used by baselines): what ``substream(seed, id, tag)``
        picks with ``.random()`` through the confusion row (synthetic) or
        ``.integers(0, m)`` from the m recorded labels (replay). Labels not
        yet kept are derived in one pass and kept, so the baselines of one
        seed derive each label once however many read it; only the latest
        seed's labels are kept."""
        if any(key[0] != seed for key in self._rater_labels):
            self._rater_labels.clear()
        kept = self._rater_labels.setdefault((seed, stage, tag), np.full(len(self.ids), -1))
        new = rows[kept[rows] < 0]
        if new.size:
            ids = self.ids[new]
            if self.confusion is not None:
                u = np.array(substream_random((seed,), ids, (tag,)))
                kept[new] = _confusion_labels(self.confusion[stage - 1][self.true_risk[new]], u)
            else:
                label = self._replayed(stage, new)
                picks = substream_integers((seed,), ids, (tag,), self.recorded[2][stage - 1, new])
                kept[new] = label(slice(None), np.array(picks))
        return kept[rows]


def _confusion_labels(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The synthetic label rule: the label each uniform ``u`` picks from its
    confusion row is the number of the row's cumulative sums at or below
    ``u``, capped at SEVERE. ``np.cumsum`` adds in label order, so this is the
    first label whose cumulative sum exceeds ``u``, or SEVERE if none does."""
    return np.minimum((np.cumsum(rows, axis=-1) <= u[..., None]).sum(axis=-1), RiskLabel.SEVERE)


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

    ``machine_path`` rows are ``id,p_no,p_low,p_mod,p_sev`` (finite,
    non-negative probabilities summing to 1 within 1e-6) and define the
    roster. ``human_path`` rows are ``id,rater_id,stage,label``; when
    present, its id set must equal the roster. True risk is the modal
    recorded expert label (ties toward less severe), falling back to the
    machine argmax for individuals without expert records.
    """
    probs: dict[int, tuple[float, ...]] = {}
    machine = _records(machine_path, "machine", ["id", "p_no", "p_low", "p_mod", "p_sev"],
                       lambda rec: (int(rec[0]), tuple(float(x) for x in rec[1:])))
    for lineno, (ind_id, vec) in machine:
        if ind_id in probs:
            raise ParseError(f"duplicate id {ind_id}", line=lineno)
        if not -2**63 <= ind_id < 2**63:
            raise ParseError(f"id {ind_id} does not fit in 64 bits", line=lineno)
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
    try:
        return _ALLOCATION_TABLE[int(total_dollars), _norm_scheme(scheme)]
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
    if len(k) != 3 or not n > k[0] >= k[1] >= k[2] >= 1:
        raise ValidationError(f"need 3 sizes with n > k1 >= k2 >= k3 >= 1, got n={n}, k={k}",
                              field="cohort_out")
    t2, t3 = allocation_budgets(total_dollars, scheme)
    budgets = (n * STAGE_COSTS_MILLI[0], t2, t3)
    return [StageSpec(index=i + 1, budget_milli=budgets[i], cohort_out=k[i]) for i in range(3)]


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
    values = np.array(_encoding(encoding))
    if not stages:
        raise ValidationError("need at least one stage", field="stages")
    stages = sorted(stages, key=lambda st: st.index)
    indices = [st.index for st in stages]
    if len(set(indices)) != len(indices):
        raise ValidationError(f"stage indices must be distinct, got {indices}", field="index")
    prev = len(pop.ids)
    for st in stages:
        if st.cohort_out > prev:
            raise ValidationError(
                f"stage {st.index} keeps {st.cohort_out} of {prev}; cohorts must not grow",
                field="cohort_out",
            )
        prev = st.cohort_out
    rng = substream(seed, "pipeline")
    rows = np.arange(len(pop.ids))  # the survivors' population rows, in id order
    w_enc, w_sum = np.zeros((2, len(rows)))  # per-survivor gain-weighted sums
    evaluated, expert_severe = np.zeros((2, len(rows)), dtype=bool)
    outcomes: list[StageOutcome] = []
    for st in stages:
        m, gain = len(rows), st.gain  # the ucb loop reads the gain twice per pull
        max_pulls = st.budget_milli // st.cost_milli
        if max_pulls == 0:
            warnings.warn(f"stage {st.index}: budget funds no pulls; stage skipped", stacklevel=2)
        elif max_pulls < m:
            warnings.warn(f"stage {st.index}: budget funds {max_pulls} pulls for {m} survivors",
                          stacklevel=2)
        label = _stage_rule(pop, st.index, rows[:max_pulls], rng, max_pulls)
        # round_robin pulls the whole stage in one batch, ucb its first pass
        batch = max_pulls if policy == "round_robin" else min(m, max_pulls)
        ks = np.arange(max_pulls) % m  # survivor of each pull; ucb fills in those past the batch
        labels = np.empty(max_pulls, dtype=np.int64)
        labels[:batch] = label(ks[:batch], np.arange(batch), np.arange(batch) // m)
        np.add.at(w_enc, ks[:batch], gain * values[labels[:batch]])
        np.add.at(w_sum, ks[:batch], gain)
        counts = np.bincount(ks[:batch], minlength=m)  # within-stage pulls, also the replay cursors
        for j in range(batch, max_pulls):
            bonus = _psi_star_inv(BOUNDED_UNIT, UCB_ALPHA * math.log(j + 1) / counts)
            k = ks[j] = int((w_enc / w_sum + bonus).argmax())
            labels[j] = label(k, j, counts[k])
            counts[k] += 1
            w_enc[k] += gain * values[labels[j]]
            w_sum[k] += gain
        evaluated[rows[ks]] = True
        if st.index == 3:
            expert_severe[rows[ks[labels == RiskLabel.SEVERE]]] = True
        u_hat = cell_means(w_sum, w_enc, 0.0)
        keep = np.sort(np.lexsort((np.arange(m), -u_hat))[: st.cohort_out])
        rows, w_enc, w_sum = rows[keep], w_enc[keep], w_sum[keep]
        survivors = tuple(pop.ids[rows].tolist())
        outcomes.append(StageOutcome(
            index=st.index, pulls=max_pulls, spend_milli=max_pulls * st.cost_milli,
            survivors=survivors, u_hat=dict(zip(survivors, u_hat[keep].tolist())),
        ))
    return PipelineResult(
        final_cohort=outcomes[-1].survivors,
        evaluated=frozenset(pop.ids[evaluated].tolist()),
        expert_severe=frozenset(pop.ids[expert_severe].tolist()),
        stages=tuple(outcomes),
        spend_milli=sum(o.spend_milli for o in outcomes),
    )


def _stage_rule(pop: Population, stage: int, rows: np.ndarray, rng: np.random.Generator,
                pulls: int) -> Callable:
    """The label of a stage's pull ``j``, the ``c``-th of survivor ``k`` (population
    row ``rows[k]``), as ``label(k, j, c)``. A synthetic stage draws one uniform per
    pull in one call and reads a ``(4, pulls)`` table of the label each picks for
    each true label; a replay stage reads the survivor's recorded labels."""
    if pop.kind == "replay":
        replayed = pop._replayed(stage, rows)
        return lambda k, j, c: replayed(k, c)
    table = _confusion_labels(pop.confusion[stage - 1][:, None], rng.random(pulls))
    true = pop.true_risk[rows]
    return lambda k, j, c: table[true[k], j]


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


def _nlp_labels(pop: Population, rows: np.ndarray, seed: int) -> np.ndarray:
    """The automated stage's predictions: the machine argmax (replay) or one
    stage-1 evaluation each (synthetic)."""
    if pop.kind == "replay":
        return np.argmax(pop.machine_probs[rows], axis=1)
    return pop.rater_labels(rows, 1, seed, "nlp")


@dataclass(frozen=True)
class _Rater:
    per_person: int  # evaluations per person rated
    cost_milli: int  # per evaluation
    labels: Callable[[Population, np.ndarray, int], np.ndarray]  # of population rows


_CONSENSUS = _Rater(4, STAGE_COSTS_MILLI[2], lambda pop, rows, seed: pop.true_risk[rows])
_EXPERT = _Rater(1, STAGE_COSTS_MILLI[2],
                 lambda pop, rows, seed: pop.rater_labels(rows, 3, seed, "expert"))
_NLP = _Rater(1, STAGE_COSTS_MILLI[0], _nlp_labels)
_FLAG_ALL = _Rater(0, 0, lambda pop, rows, seed: np.full(len(rows), RiskLabel.SEVERE))

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


def _nlp_ranked(pop: Population, rows: np.ndarray, seed: int) -> np.ndarray:
    """Population rows ``rows`` (ascending) with the likeliest Severe by NLP
    first, ties toward the lower id."""
    replay = pop.kind == "replay"
    scores = pop.machine_probs[rows, RiskLabel.SEVERE] if replay else _nlp_labels(pop, rows, seed)
    return rows[np.argsort(-scores, kind="stable")]


def run_baseline(name: str, pop: Population, seed: int = 0) -> BaselineResult:
    """Run a reference approach and return its flagged set with accounting.

    The COHORT_BASELINES rate a random cohort of SUB_COHORT people; the top
    baselines rate the TOP_K people the NLP pass ranks first.
    """
    if name not in _BASELINE_TABLE:
        raise ConfigurationError(f"unknown baseline {name!r}; known: {BASELINES}")
    view, rater = _BASELINE_TABLE[name]
    everyone = np.arange(len(pop.ids))
    evaluations = []  # (rater, people it rates)
    if view == "everyone":
        seen = everyone
    elif view == "cohort":
        if SUB_COHORT > len(everyone):
            raise ConfigurationError(f"baseline {name!r} evaluates a {SUB_COHORT}-person cohort, "
                                     f"more than n = {len(everyone)}")
        seen = np.sort(substream(seed, "cohort").choice(len(everyone), size=SUB_COHORT, replace=False))
    else:
        evaluations.append((_NLP, len(everyone)))
        seen = _nlp_ranked(pop, everyone, seed)[:TOP_K]
    evaluations.append((rater, len(seen)))
    labels = rater.labels(pop, seen, seed)
    return BaselineResult(
        name,
        frozenset(pop.ids[seen if view == "cohort" else everyone].tolist()),
        frozenset(pop.ids[seen[labels == RiskLabel.SEVERE]].tolist()),
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
    severe = set(pop.ids[pop.true_risk == RiskLabel.SEVERE].tolist())

    def count(universe) -> Counts:
        tp = len(universe & severe & positives)
        fp = len((universe & positives) - severe)
        fn = len((universe & severe) - positives)
        tn = len(universe) - tp - fp - fn
        return Counts(tp=tp, fp=fp, fn=fn, tn=tn)

    pop_counts = count(set(pop.ids.tolist()))
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
