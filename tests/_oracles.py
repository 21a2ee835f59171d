"""Independent oracle implementations the tests pin the library against.

Everything here is deliberately written in a different shape from the
library (scalar loops, dicts, generic numeric routines) so that agreement
between the two is informative rather than circular.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate
from scipy.stats import binom


def sign_test_tails(n: int) -> list[float]:
    """P(Binomial(n, 1/2) >= k) for k = 0..n: each upper tail summed term by
    term from ``math.comb`` as an exact Fraction, then rounded once."""
    tails, total = [], 0
    for k in range(n, -1, -1):
        total += math.comb(n, k)
        tails.append(float(Fraction(total, 2**n)))
    return tails[::-1]


def numeric_sup_conjugate(psi_fn, eps: float, lam_hi: float = 64.0) -> float:
    """sup over lam >= 0 of lam*eps - psi(lam), by grid search plus
    golden-section refinement around the best grid point."""
    lams = np.linspace(0.0, lam_hi, 4097)
    vals = lams * eps - psi_fn(lams)
    i = int(np.argmax(vals))
    a = float(lams[max(i - 1, 0)])
    b = float(lams[min(i + 1, len(lams) - 1)])

    def f(lam):
        return lam * eps - psi_fn(lam)

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(120):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return f((a + b) / 2.0)


def bisect_increasing(fn, target: float, hi: float = 1.0) -> float:
    """Solve fn(x) = target for x >= 0, fn increasing from fn(0) <= target."""
    lo = 0.0
    while fn(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("no bracket found")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def quad_normal_cdf(x: float) -> float:
    """Standard normal CDF by adaptive quadrature."""
    if x <= -40.0:
        return 0.0
    if x >= 40.0:
        return 1.0
    val, _ = integrate.quad(
        lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi), -40.0, x, limit=400
    )
    return val


def sr_transcript(env, boundaries, rng):
    """Step-by-step successive elimination, re-implemented from scratch.

    ``boundaries`` are the phase-end times; consumes one uniform variate per
    step via ``rng.random()``. Returns (winner, steps, rejected) with steps
    as (t, state, arm, reward, phase) tuples.
    """
    spec = env.spec
    active = list(range(spec.K))
    phase = 1
    visits: dict = {}
    counts: dict = {}
    sums: dict = {}
    steps = []
    rejected = []
    ends = set(boundaries)
    for t in range(1, boundaries[-1] + 1):
        s = spec.state_sequence[t - 1]
        v = visits.get((phase, s), 0) + 1
        visits[(phase, s)] = v
        arm = active[v % len(active)]
        reward = 1.0 if rng.random() < env.m[arm, s] else 0.0
        counts[(arm, s)] = counts.get((arm, s), 0) + 1
        sums[(arm, s)] = sums.get((arm, s), 0.0) + reward
        steps.append((t, s, arm, reward, phase))
        if t in ends:
            scores = {}
            for a in active:
                tot = 0.0
                for st in range(spec.S):
                    c = counts.get((a, st), 0)
                    tot += (sums.get((a, st), 0.0) / c) if c else 0.0
                scores[a] = tot
            drop = min(active, key=lambda a: (scores[a], a))
            rejected.append(drop)
            active = [a for a in active if a != drop]
            phase += 1
    return active[0], steps, rejected


def _rotation_counts(state_sequence, n: int, K: int, S: int) -> np.ndarray:
    """Per-(arm, state) pull counts of the uniform rotation, replayed step
    by step (the library computes these in closed form)."""
    counts = np.zeros((K, S), dtype=int)
    seen: dict = {}
    for t in range(n):
        s = state_sequence[t]
        v = seen.get(s, 0) + 1
        seen[s] = v
        counts[v % K, s] += 1
    return counts


def sr_table_from_steps(steps, rejected, K: int, S: int) -> np.ndarray:
    """Evenly-allocated count table of a successive-elimination trace: per
    phase and state, the fewest pulls any active arm got, summed over the
    phases so far (the library computes it in closed form)."""
    table = np.zeros((S, K - 1), dtype=int)
    running = [0] * S
    for k in range(1, K):
        active = [a for a in range(K) if a not in rejected[: k - 1]]
        pulls = {(a, s): 0 for a in active for s in range(S)}
        for _, s, arm, _, phase in steps:
            if phase == k:
                pulls[(arm, s)] += 1
        for s in range(S):
            running[s] += min(pulls[(a, s)] for a in active)
            table[s, k - 1] = running[s]
    return table


def state_ucb_run(env, n: int, alpha: float, bonus, rng) -> list[int]:
    """Per-state optimism-index play with dict statistics keyed by (arm, state).

    ``bonus(x)`` is the inverted conjugate applied to alpha*ln(t)/count. One
    variate per step comes from ``rng`` as a scalar draw: ``random()`` for
    bernoulli rewards, ``standard_normal()`` (clipped to [0, 1] around the
    local mean) for truncated_gaussian. Returns the chosen arms.
    """
    spec = env.spec
    counts: dict = {}
    totals: dict = {}
    choices = []
    for t in range(1, n + 1):
        s = spec.state_sequence[t - 1]
        arm = next((i for i in range(spec.K) if counts.get((i, s), 0) == 0), None)
        if arm is None:
            best_val = -math.inf
            for i in range(spec.K):
                c = counts[(i, s)]
                val = totals[(i, s)] / c + bonus(alpha * math.log(t) / c)
                if val > best_val:
                    best_val, arm = val, i
        mean = float(env.m[arm, s])
        if spec.reward_family == "bernoulli":
            reward = 1.0 if rng.random() < mean else 0.0
        else:
            reward = min(max(mean + math.sqrt(spec.reward_sigma2) * rng.standard_normal(), 0.0), 1.0)
        counts[(arm, s)] = counts.get((arm, s), 0) + 1
        totals[(arm, s)] = totals.get((arm, s), 0.0) + reward
        choices.append(arm)
    return choices


def _pulled_counts(env, n: int) -> np.ndarray:
    """Uniform rotation's (K, S) pull counts over the first n steps; each arm needs a pull."""
    spec = env.spec
    counts = _rotation_counts(spec.state_sequence, n, spec.K, spec.S)
    if any(counts[a].sum() == 0 for a in range(spec.K)):
        raise ValueError("an arm is never pulled; no recommendation exists")
    return counts


def _score_law(counts: np.ndarray, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and probabilities of one arm's score, the mean of k/count
    over its pulled states, by enumerating its own success counts; ``pmf[s, k]``
    is the probability of k successes in state s."""
    states = np.flatnonzero(counts)
    succ = np.indices(counts[states] + 1).reshape(len(states), -1).T  # every success count, the last fastest
    weight = np.prod([pmf[s][succ[:, c]] for c, s in enumerate(states)], axis=0)
    means = np.full((len(succ), len(counts)), np.nan)
    means[:, states] = succ / counts[states]
    values, which = np.unique(np.nanmean(means, axis=1), return_inverse=True)
    return values, np.bincount(which, weights=weight)


def _pick_pmf(laws, dense: bool) -> np.ndarray:
    """The argmax law of independent scores, ties toward the lowest index: arm j
    is picked with probability sum over x of p_j(x) * prod_{i<j} P(S_i < x) *
    prod_{i>j} P(S_i <= x). P(S_i < x) is read from the cumulative sums over
    the sorted values of S_i; ``dense`` compares every value with every x
    instead, which is quadratic in the support, so only a cross-check on small
    environments."""
    cdfs = [np.concatenate(([0.0], np.cumsum(probs))) for _, probs in laws]
    pick_pmf = np.zeros(len(laws))
    for j, (x, p) in enumerate(laws):
        for i, (values, probs) in enumerate(laws):
            if i == j:
                continue
            if dense:
                p = p * (((values < x[:, None]) if i < j else (values <= x[:, None])) @ probs)
            else:
                p = p * cdfs[i][np.searchsorted(values, x, side="left" if i < j else "right")]
        pick_pmf[j] = p.sum()
    return pick_pmf


def exact_uniform_eba(env, n: int, dense: bool = False) -> dict:
    """Exact law of the uniform-rotation recommendation. The arms' scores are
    independent, so each arm's score law is enumerated on its own and the pick
    law is their argmax law (``_pick_pmf``).

    Returns pick_pmf plus exact e, e_hat, r, r_hat under the usual
    best-by-utility and best-by-state-average targets.
    """
    counts = _pulled_counts(env, n)
    pmf = binom.pmf(np.arange(counts.max() + 1), counts[:, :, None], env.m[:, :, None])
    pick_pmf = _pick_pmf([_score_law(counts[a], pmf[a]) for a in range(env.spec.K)], dense)
    mu = np.asarray(env.spec.mu)
    row = env.m.mean(axis=1)
    j_star = int(np.argmax(mu))
    j_hat = int(np.argmax(row))
    return {
        "pick_pmf": pick_pmf,
        "e": float(1.0 - pick_pmf[j_star]),
        "e_hat": float(1.0 - pick_pmf[j_hat]),
        "r": float(np.sum(pick_pmf * (mu[j_star] - mu))),
        "r_hat": float(np.sum(pick_pmf * (row[j_hat] - row))),
    }


def _joint_uniform_eba_pick(env, n: int) -> np.ndarray:
    """``exact_uniform_eba``'s pick_pmf by enumerating the joint success counts
    of every cell; exponential in the cells, so only a cross-check on small
    environments."""
    spec = env.spec
    K, S = spec.K, spec.S
    counts = _pulled_counts(env, n)
    cells = [(a, s) for a in range(K) for s in range(S) if counts[a, s] > 0]
    pmf_tables = [
        [binom.pmf(k, counts[a, s], env.m[a, s]) for k in range(counts[a, s] + 1)]
        for (a, s) in cells
    ]
    pick_pmf = np.zeros(K)
    for succ in itertools.product(*(range(counts[a, s] + 1) for (a, s) in cells)):
        w = 1.0
        means = np.full((K, S), np.nan)
        for idx, ((a, s), k) in enumerate(zip(cells, succ)):
            w *= pmf_tables[idx][k]
            means[a, s] = k / counts[a, s]
        if w == 0.0:
            continue
        scores = np.nanmean(means, axis=1)
        pick_pmf[int(np.argmax(scores))] += w
    return pick_pmf


def exact_sr(env, boundaries) -> np.ndarray:
    """Exact winner law of successive elimination, by recursing over phases
    and enumerating each phase's per-cell success counts."""
    spec = env.spec
    K, S = spec.K, spec.S
    phase_visits = []
    prev = 0
    for tk in boundaries:
        seg = spec.state_sequence[prev:tk]
        phase_visits.append([sum(1 for x in seg if x == s) for s in range(S)])
        prev = tk
    pmf = np.zeros(K)

    def recurse(phase_idx, active, counts, sums, weight):
        if len(active) == 1:
            pmf[active[0]] += weight
            return
        A = len(active)
        cell = []
        for s in range(S):
            q, rem = divmod(phase_visits[phase_idx][s], A)
            for rank, arm in enumerate(active):
                pulls = q + (1 if 1 <= rank <= rem else 0)
                if pulls:
                    cell.append((arm, s, pulls))
        for succ in itertools.product(*(range(c + 1) for (_, _, c) in cell)):
            w = weight
            c2 = dict(counts)
            s2 = dict(sums)
            for (arm, s, c), k in zip(cell, succ):
                w *= float(binom.pmf(k, c, env.m[arm, s]))
                c2[(arm, s)] = c2.get((arm, s), 0) + c
                s2[(arm, s)] = s2.get((arm, s), 0) + k
            if w == 0.0:
                continue
            scores = {}
            for arm in active:
                tot = 0.0
                for s in range(S):
                    c = c2.get((arm, s), 0)
                    tot += (s2[(arm, s)] / c) if c else 0.0
                scores[arm] = tot
            drop = min(active, key=lambda a: (scores[a], a))
            recurse(phase_idx + 1, [a for a in active if a != drop], c2, s2, w)

    recurse(0, list(range(K)), {}, {}, 1.0)
    return pmf


def _sum_score_law(counts: np.ndarray, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and probabilities of one arm's elimination score, its
    sum of per-state means k/count (0 in an unpulled state), by enumerating
    its own success counts; ``pmf[s, k]`` is the probability of k successes in
    state s. Each score adds its states as numpy adds a contiguous row, the
    order the sampler's state sum follows."""
    succ = np.indices(counts + 1).reshape(len(counts), -1).T  # every success count, the last fastest
    weight = np.prod([pmf[s][succ[:, s]] for s in range(len(counts))], axis=0)
    values, which = np.unique(np.add.reduce(succ / np.maximum(counts, 1), axis=1), return_inverse=True)
    return values, np.bincount(which, weights=weight)


def exact_sr_two_arms(env, n: int) -> dict:
    """Exact law of two-arm successive elimination over the first n steps,
    factored by arm. With K = 2 elimination is one phase of the uniform
    rotation, so the arms' scores are independent; arm 0 is dropped on a
    tie, so arm 1 survives when S_1 >= S_0.

    Returns the winner law as pick_pmf, plus exact e and e_hat under the
    best-by-utility and best-by-state-average targets.
    """
    if env.spec.K != 2:
        raise ValueError("the factored law needs two arms")
    counts = _rotation_counts(env.spec.state_sequence, n, 2, env.spec.S)
    pmf = binom.pmf(np.arange(counts.max() + 1), counts[:, :, None], env.m[:, :, None])
    (v0, p0), (v1, p1) = (_sum_score_law(counts[a], pmf[a]) for a in range(2))
    at = np.searchsorted(v1, v0, side="left")  # how many of arm 1's values lie below each of arm 0's
    below = np.concatenate(([0.0], np.cumsum(p1)))[at]  # P(S_1 < v)
    at_or_above = np.concatenate((np.cumsum(p1[::-1])[::-1], [0.0]))[at]  # P(S_1 >= v)
    pick_pmf = np.array([p0 @ below, p0 @ at_or_above])
    j_star, j_hat = int(np.argmax(env.spec.mu)), int(np.argmax(env.m.mean(axis=1)))
    # with two arms, missing the target is picking the other arm
    return {"pick_pmf": pick_pmf, "e": float(pick_pmf[1 - j_star]), "e_hat": float(pick_pmf[1 - j_hat])}


def binomial_cell_means_per_cell(counts, m, runs, rng):
    """Per-run cell means of a fixed pull table, with one binomial call per
    pulled (arm, state) cell in row-major order; NaN where a cell has no
    pulls (the library draws all cells in one call)."""
    K, S = counts.shape
    means = np.full((runs, K, S), np.nan)
    for a in range(K):
        for s in range(S):
            if counts[a, s]:
                means[:, a, s] = rng.binomial(counts[a, s], m[a, s], size=runs) / counts[a, s]
    return means


def sr_sample_per_cell(env, boundaries, runs, rng):
    """Per-run winner and (runs, K-1) rejected arms of successive elimination,
    with one binomial call per (phase, state, rotation rank) cell on
    arm-indexed (runs, K, S) tables.

    Cells go state by state, ranks ascending within a state, and each call
    draws that cell's reward sum for every run. At a boundary each run drops
    its active arm with the lowest sum of per-state means (unpulled cells 0,
    ties to the lowest arm). The library draws a whole phase in one call on
    tables indexed by active position.
    """
    spec = env.spec
    K, S = spec.K, spec.S
    active = np.tile(np.arange(K), (runs, 1))
    counts = np.zeros((runs, K, S), dtype=np.int64)
    sums = np.zeros((runs, K, S))
    rows = np.arange(runs)
    rejected = []
    prev = 0
    for tk in boundaries:
        A = active.shape[1]
        visits = np.bincount(spec.state_sequence[prev:tk], minlength=S)
        prev = tk
        for s in range(S):
            q, rem = divmod(int(visits[s]), A)
            for rank in range(A):
                pulls = q + (1 if 1 <= rank <= rem else 0)
                if pulls:
                    arms = active[:, rank]
                    counts[rows, arms, s] += pulls
                    sums[rows, arms, s] += rng.binomial(pulls, env.m[arms, s])
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(counts > 0, sums / counts, 0.0).sum(axis=2)
        drop = np.argmin(np.take_along_axis(scores, active, axis=1), axis=1)
        rejected.append(active[rows, drop])
        active = active[np.arange(A) != drop[:, None]].reshape(runs, A - 1)
    return active[:, 0], np.stack(rejected, axis=1)


def classical_ucb_run(m_vec, n: int, alpha: float, variates) -> list[int]:
    """Plain single-context optimism-index strategy on a pre-drawn uniform
    stream; bonus sqrt(x/2) matches the bounded-support exploration rate."""
    K = len(m_vec)
    counts = [0] * K
    totals = [0.0] * K
    choices = []
    for t in range(1, n + 1):
        arm = None
        for i in range(K):
            if counts[i] == 0:
                arm = i
                break
        if arm is None:
            best_val = -math.inf
            for i in range(K):
                val = totals[i] / counts[i] + math.sqrt(alpha * math.log(t) / counts[i] / 2.0)
                if val > best_val:
                    best_val = val
                    arm = i
        reward = 1.0 if variates[t - 1] < m_vec[arm] else 0.0
        counts[arm] += 1
        totals[arm] += reward
        choices.append(arm)
    return choices


def classical_ucb_regret_bound(m_vec, alpha: float, n: int) -> float:
    """Single-context pseudo-regret bound: sum over suboptimal arms of
    gap * (alpha ln n / (2 (gap/2)^2) + alpha / (alpha - 2))."""
    best = max(m_vec)
    total = 0.0
    for m in m_vec:
        gap = best - m
        if gap > 0:
            total += gap * (alpha * math.log(n) / (2.0 * (gap / 2.0) ** 2) + alpha / (alpha - 2.0))
    return total


TRIAGE_ENCODINGS = {
    "linear": lambda level: level / 3,
    "binary": lambda level: float(level == 3),
    "exponential": lambda level: (2 ** level - 1) / 7,
}


def confusion_walk(row, u: float) -> int:
    """The label a uniform ``u`` picks from a confusion row: walk the row
    adding probabilities and stop at the first label whose running sum exceeds
    ``u``; a row that never does gives 3 (Severe)."""
    acc = 0.0
    for level, p in enumerate(row):
        acc += p
        if u < acc:
            return level
    return 3


def triage_pipeline(pop, stages, policy: str, encoding: str, rng) -> dict:
    """The staged screen re-implemented from its stated rules, with dicts
    keyed by individual id.

    A stage makes floor(budget / cost) pulls. A survivor nobody has pulled in
    this stage goes first, lowest id first. Otherwise ``round_robin`` takes
    the next survivor of the id-order cycle and ``ucb`` the one with the
    largest estimate + sqrt(3 ln t / count / 2), lowest id on ties. A
    synthetic pull takes one ``rng.random()`` through ``confusion_walk`` of
    the stage's confusion row; a replay pull reads the stage's recorded labels
    cyclically, from the first in every stage. The estimate is the gain-weighted mean of the
    encoded labels over all stages so far (0 before any pull); each cut keeps
    the ``cohort_out`` largest estimates, lowest id on ties.
    """
    value = TRIAGE_ENCODINGS[encoding]
    by_id = {i: r for r, i in enumerate(pop.ids.tolist())}  # population row of each id
    weighted = {i: 0.0 for i in by_id}
    weight = {i: 0.0 for i in by_id}
    alive = sorted(by_id)
    evaluated, expert_severe, log = set(), set(), []

    def estimate(i):
        return weighted[i] / weight[i] if weight[i] > 0 else 0.0

    for st in sorted(stages, key=lambda s: s.index):
        pulls = st.budget_milli // st.cost_milli
        count = {i: 0 for i in alive}
        for t in range(1, pulls + 1):
            fresh = [i for i in alive if count[i] == 0]
            if fresh:
                target = fresh[0]
            elif policy == "round_robin":
                target = alive[(t - 1) % len(alive)]
            else:
                target, best = None, -math.inf
                for i in alive:
                    score = estimate(i) + math.sqrt(3.0 * math.log(t) / count[i] / 2.0)
                    if score > best:
                        target, best = i, score
            row = by_id[target]
            if pop.kind == "synthetic":
                level = confusion_walk(pop.confusion[st.index - 1][pop.true_risk[row]].tolist(),
                                       rng.random())
            else:
                flat, start, size = pop.recorded
                labels = flat[start[st.index - 1, row]:][:size[st.index - 1, row]].tolist()
                level = labels[count[target] % len(labels)]
            count[target] += 1
            weighted[target] += st.gain * value(level)
            weight[target] += st.gain
            evaluated.add(target)
            if st.index == 3 and level == 3:
                expert_severe.add(target)
        alive = sorted(sorted(alive, key=lambda i: (-estimate(i), i))[: st.cohort_out])
        log.append((st.index, pulls, pulls * st.cost_milli, tuple(alive),
                    {i: estimate(i) for i in alive}))
    return {"final_cohort": tuple(alive), "evaluated": evaluated,
            "expert_severe": expert_severe, "stages": log}


# baseline: (who is rated, rater); rater: (evaluations per person, milli-dollars each)
BASELINE_RULES = {
    "4Experts": ("everyone", "consensus"),
    "1Expert": ("everyone", "expert"),
    "4Experts-Sub": ("cohort", "consensus"),
    "1Expert-Sub": ("cohort", "expert"),
    "NLP-Full": ("everyone", "nlp"),
    "NLP-Sub": ("cohort", "nlp"),
    "NLP-Top-k": ("top", "flag"),
    "NLP-Top-100+1Expert-Sub": ("top", "expert"),
}
RATERS = {"consensus": (4, 5350), "expert": (1, 5350), "nlp": (1, 1), "flag": (0, 0)}


def triage_baseline(name: str, pop, seed: int, substream) -> dict:
    """A reference approach re-implemented from its stated rules, with dicts
    keyed by individual id.

    ``everyone`` rates all n people. ``cohort`` rates the 100 population rows
    that ``substream(seed, "cohort").choice(n, 100, replace=False)`` picks.
    ``top`` first makes one NLP pass over everyone, ranks people by NLP score
    (the machine P(Severe) for a replay, the NLP label for a synthetic
    population), highest first and lowest id on ties, and rates the first 100.
    The consensus rates with the true label, four evaluations each. The
    expert and the synthetic NLP each take one draw of ``substream(seed, id,
    tag)`` per person: ``.random()`` through ``confusion_walk`` of the stage's
    confusion row (synthetic) or ``.integers(0, m)`` among the m recorded
    stage labels in file order (replay); the expert reads stage 3 with tag
    "expert", the NLP stage 1 with tag "nlp". A replay NLP label is the
    machine argmax, lowest label on ties. Flag-all labels everyone Severe and
    costs nothing. The positives are the rated people labelled Severe; the
    evaluated set is the cohort, or everyone for the other views.
    """
    view, rater = BASELINE_RULES[name]
    ids = pop.ids.tolist()
    row = {i: r for r, i in enumerate(ids)}
    true = dict(zip(ids, pop.true_risk.tolist()))
    replay = pop.kind == "replay"

    def label(who, i):
        if who == "consensus":
            return true[i]
        if who == "flag":
            return 3
        if who == "nlp" and replay:
            probs = pop.machine_probs[row[i]].tolist()
            return probs.index(max(probs))
        stage, tag = (3, "expert") if who == "expert" else (1, "nlp")
        stream = substream(seed, i, tag)
        if replay:
            flat, start, size = pop.recorded
            recorded = flat[start[stage - 1, row[i]]:][:size[stage - 1, row[i]]].tolist()
            return recorded[int(stream.integers(0, len(recorded)))]
        return confusion_walk(pop.confusion[stage - 1][true[i]].tolist(), stream.random())

    passes = []  # (rater, people it rates)
    if view == "everyone":
        seen = ids
    elif view == "cohort":
        seen = [ids[r] for r in sorted(substream(seed, "cohort").choice(len(ids), size=100, replace=False))]
    else:
        passes.append(("nlp", len(ids)))
        score = {i: pop.machine_probs[row[i]][3] if replay else label("nlp", i) for i in ids}
        seen = sorted(ids, key=lambda i: (-score[i], i))[:100]
    passes.append((rater, len(seen)))
    return {
        "evaluated": set(seen if view == "cohort" else ids),
        "positives": {i for i in seen if label(rater, i) == 3},
        "spend_milli": sum(RATERS[r][0] * RATERS[r][1] * people for r, people in passes),
        "n_evaluations": sum(RATERS[r][0] * people for r, people in passes),
    }
