"""Exact and Monte Carlo estimation of sentence and game-outcome probabilities.

mu_n(phi) is the fraction of the 2**C(n,2) labeled n-vertex graphs satisfying
phi, which equals the G(n, 1/2) measure.  exact_mu sums over weighted
representatives instead of every labelled graph: cell refinement fixes the
vertices before the last four, and each representative is one uint64 lane of
the logic module's array evaluator, which holds the 64 graphs on those four.
Monte Carlo trials derive per-trial seeds from the master seed with a fixed
integer mix, so runs are reproducible and independent of the parallelism
degree.  A sentence row and a game row take one path, `_estimate`: trials are
cut into byte-bounded batches in trial order, and each batch goes to the
evaluator or the game solver in one call.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb
from operator import mul
from typing import Union

import numpy as np

from .games import DEFAULT_MAX_STATES, ArenaBudgetError, Variant, Winner, check_budget, game_values, variant_id
from .graphs import GraphError, PFamily, gnp_sample
from .logic import Formula, LogicError, check_sentence, evaluate_batch, evaluate_lanes, extension_axiom, to_text

__all__ = [
    "EstimateReport",
    "Regime",
    "EaBoundCheck",
    "ExperimentError",
    "exact_mu",
    "estimate_mu",
    "estimate_win",
    "verify_ea_bound",
    "classify_regime",
    "sweep",
    "sweep_to_csv",
    "wilson_interval",
    "derive_trial_seed",
    "CSV_COLUMNS",
    "Z_95",
    "Z_999",
]

# Two-sided normal quantiles for the Wilson score interval.
Z_95 = 1.959963984540054
Z_999 = 3.2905267314918945

# Trial-seed mix: splitmix64 finalizer over master + (i+1) * golden-ratio step.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class ExperimentError(ValueError):
    pass


def derive_trial_seed(master_seed: int, i: int) -> int:
    """Fixed 64-bit mix; trial i's seed never depends on scheduling order."""
    z = (master_seed + (i + 1) * _GOLDEN) & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def wilson_interval(successes: int, samples: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval; well-behaved near 0 and 1 unlike the Wald form."""
    if samples <= 0:
        raise ExperimentError("need at least one sample")
    phat = successes / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples * samples))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == samples else min(1.0, center + half)
    return (lo, hi)


PSpec = Union[float, PFamily]
SweepTarget = Union[Formula, tuple[Variant, Winner]]


def _p_at(p_spec: PSpec, n: int) -> float:
    if isinstance(p_spec, PFamily):
        return p_spec.p(n)
    return float(p_spec)


def _p_label(p_spec: PSpec) -> str:
    if isinstance(p_spec, PFamily):
        return p_spec.describe()
    return f"{float(p_spec):.6g}"


@dataclass
class EstimateReport:
    """One Monte Carlo estimate with its provenance and a 95% Wilson interval."""

    target_id: str
    n: int
    p_spec: PSpec
    samples: int
    successes: int
    estimate: Fraction
    ci_low: float
    ci_high: float
    master_seed: int
    wall_ms: float
    error: str = ""

    def to_json_dict(self) -> dict:
        return {
            "target_id": self.target_id,
            "n": self.n,
            "p_or_family": _p_label(self.p_spec),
            "samples": self.samples,
            "successes": self.successes,
            "estimate": float(f"{float(self.estimate):.6g}") if self.samples else None,
            "ci_low": float(f"{self.ci_low:.6g}") if self.samples else None,
            "ci_high": float(f"{self.ci_high:.6g}") if self.samples else None,
            "master_seed": self.master_seed,
            "wall_ms": round(self.wall_ms, 3),
            "error": self.error,
        }

    def to_csv_row(self) -> list[str]:
        if self.error:
            return [self.target_id, str(self.n), _p_label(self.p_spec), str(self.samples),
                    "", "", "", "", str(self.master_seed), f"{self.wall_ms:.3f}", self.error]
        return [
            self.target_id,
            str(self.n),
            _p_label(self.p_spec),
            str(self.samples),
            str(self.successes),
            f"{float(self.estimate):.6g}",
            f"{self.ci_low:.6g}",
            f"{self.ci_high:.6g}",
            str(self.master_seed),
            f"{self.wall_ms:.3f}",
            "",
        ]


CSV_COLUMNS = [
    "target_id", "n", "p_or_family", "samples", "successes",
    "estimate", "ci_low", "ci_high", "master_seed", "wall_ms", "error",
]


# ---------------------------------------------------------------------------
# Exact mu over weighted representatives.  A sentence over {E, =} cannot tell
# isomorphic graphs apart, so labelled graphs are grouped by cell refinement
# as in orderly generation (Read 1978; McKay 1998), without canonical
# labelling.  Vertices 0..k-1, k = max(0, n - 4), are fixed in turn.  The
# unfixed vertices lie in contiguous cells of equal adjacency to the fixed
# ones, and vertex i is the first member of the first cell.  Vertex i's
# neighbours in a cell C are C's first j members, which stand for C(|C|, j)
# labelled choices, and C splits in two.  The last min(n, 4) vertices' pairs
# then take every value in one uint64 lane: mask b is bit b, and bit e of
# mask b is pair e, so that pair's lane is _LOW_EDGE_BITS[e].

_EXACT_MU_MAX_N = 8
# Representative lanes times bytes per lane beyond this are refused.
_EXACT_MU_MAX_BYTES = 1 << 30
_LANE_VERTICES = 4
_LOW_EDGE_BITS = [sum(1 << b for b in range(64) if b >> e & 1) for e in range(6)]


@lru_cache(maxsize=None)
def _representatives(n: int) -> tuple[list[int], np.ndarray]:
    """Weights of the representatives at n, and a bool (pairs, representatives)
    array: row p says whether the p-th pair (u, v), u < v, with u among the
    fixed vertices, is an edge.  The weights are Python ints; each counts the
    labelled graphs that one mask of its lane stands for, so they sum to
    2**C(n,2) over the 2**C(min(n,4),2) masks of a lane."""
    k = max(0, n - _LANE_VERTICES)
    weights: list[int] = []
    rows: list[list[bool]] = []

    def grow(i: int, cells: list[int], weight: int, row: list[bool]) -> None:
        if i == k:
            weights.append(weight)
            rows.append(row)
            return
        rest = cells[1:] if cells[0] == 1 else [cells[0] - 1, *cells[1:]]  # vertices i+1..n-1
        for js in product(*(range(size + 1) for size in rest)):
            w, bits, split = weight, [], []
            for size, j in zip(rest, js):
                w *= comb(size, j)
                bits += [True] * j + [False] * (size - j)
                split += [c for c in (j, size - j) if c]
            grow(i + 1, split, w, row + bits)

    grow(0, [n], 1, [])
    return weights, np.array(rows, bool).reshape(len(rows), -1).T


def exact_mu(f: Formula, n: int) -> Fraction:
    """Exact mu_n(f): satisfying labelled graphs over 2**C(n,2), summed over
    weighted representatives, one uint64 lane each.

    A call whose representative lanes times bytes per lane exceed a fixed
    bound is refused before any lane is built."""
    if n < 1:
        raise ExperimentError(f"need n >= 1, got {n}")
    if n > _EXACT_MU_MAX_N:
        raise ExperimentError(f"exact_mu is capped at n={_EXACT_MU_MAX_N}, got n={n}")
    lane_bytes = check_sentence(f, n, np.uint64)
    weights, fixed = _representatives(n)
    if len(weights) * lane_bytes > _EXACT_MU_MAX_BYTES:
        raise ExperimentError(f"exact_mu at n={n} needs {len(weights)} lanes of {lane_bytes} bytes, "
                              f"over the {_EXACT_MU_MAX_BYTES}-byte bound")
    m = min(n, _LANE_VERTICES)
    edge = np.zeros((n, n, len(weights)), np.uint64)
    u, v = (a[: len(fixed)] for a in np.triu_indices(n, 1))
    edge[u, v] = edge[v, u] = -fixed.astype(np.uint64)
    for e, (u, v) in enumerate(combinations(range(n - m, n), 2)):
        edge[u, v] = edge[v, u] = _LOW_EDGE_BITS[e]
    lanes = evaluate_lanes(f, n, len(weights), np.uint64, lambda a, b: edge[:, :, a:b])
    lanes &= np.uint64((1 << (1 << comb(m, 2))) - 1)
    counts = np.unpackbits(lanes.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
    return Fraction(sum(map(mul, weights, counts.tolist())), 1 << comb(n, 2))


@dataclass
class EaBoundCheck:
    exact: Fraction
    bound: Fraction
    holds: bool


def verify_ea_bound(m: int, n: int, k: int) -> EaBoundCheck:
    """Compare exact mu_k(not EA_{m,n}) against k**n * (1 - 2**-n)**(k-n)."""
    if not (0 <= m <= n <= 3):
        raise ExperimentError(f"need m <= n <= 3, got m={m}, n={n}")
    if not (n < k <= _EXACT_MU_MAX_N):
        raise ExperimentError(f"need n < k <= {_EXACT_MU_MAX_N}, got k={k}")
    exact = 1 - exact_mu(extension_axiom(m, n), k)
    bound = Fraction(k**n) * Fraction((2**n - 1) ** (k - n), (2**n) ** (k - n))
    return EaBoundCheck(exact=exact, bound=bound, holds=exact <= bound)


# ---------------------------------------------------------------------------
# Monte Carlo estimation.


# A batch holds at most this many bytes of n x n adjacency (and at least one
# graph), so memory does not grow with --samples.
_SAMPLE_BYTES = 1 << 18


def _target_id(target: SweepTarget) -> str:
    if isinstance(target, tuple):
        return f"win[{variant_id(target[0])}]={target[1].value}"
    return f"mu[{to_text(target)}]"


def _count(args) -> int:
    """Successes among trials a..b-1, sampled in trial order and evaluated or
    solved as one batch."""
    target, n, p, master_seed, max_states, a, b = args
    gs = [gnp_sample(n, p, derive_trial_seed(master_seed, i)) for i in range(a, b)]
    if isinstance(target, tuple):
        v, who = target
        return sum(w is who for w in game_values(gs, v, max_states))
    return sum(evaluate_batch(target, gs))


def _pool(jobs: int) -> ProcessPoolExecutor | nullcontext:
    """A process pool for jobs > 1, entered as the pool; else a context that
    enters as None.  With the fork start method the pool forks every worker
    it is given at once, so it is capped at the core count."""
    if jobs <= 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))


def _estimate(target: SweepTarget, n: int, p_spec: PSpec, samples: int, master_seed: int, jobs: int,
              max_states: int, pool: ProcessPoolExecutor | None) -> EstimateReport:
    """The Monte Carlo row behind estimate_mu, estimate_win and sweep.

    Arguments, the worst-case arena size and the sentence's width are
    checked before any sampling starts.  A trial's graph depends on its
    index alone, so the count does not depend on how the batches are cut or
    shared among processes.  The batches go to `pool`, or run in this
    process when it is None.
    """
    if n < 1:
        raise ExperimentError(f"need n >= 1, got {n}")
    if samples < 1:
        raise ExperimentError(f"need samples >= 1, got {samples}")
    if isinstance(target, tuple):
        check_budget(n, target[0], max_states)
    else:
        check_sentence(target, n)
    t0 = time.perf_counter()
    p = _p_at(p_spec, n)
    step = max(1, min(-(-samples // max(1, jobs * 4)), _SAMPLE_BYTES // (n * n)))
    batches = [(target, n, p, master_seed, max_states, a, min(a + step, samples)) for a in range(0, samples, step)]
    successes = sum((pool.map if pool else map)(_count, batches))
    lo, hi = wilson_interval(successes, samples)
    return EstimateReport(
        target_id=_target_id(target),
        n=n,
        p_spec=p_spec,
        samples=samples,
        successes=successes,
        estimate=Fraction(successes, samples),
        ci_low=lo,
        ci_high=hi,
        master_seed=master_seed,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )


def estimate_mu(f: Formula, n: int, p_spec: PSpec, samples: int, master_seed: int, jobs: int = 1) -> EstimateReport:
    """Monte Carlo estimate of the G(n,p) probability that f holds."""
    with _pool(jobs) as pool:
        return _estimate(f, n, p_spec, samples, master_seed, jobs, DEFAULT_MAX_STATES, pool)


def estimate_win(
    v: Variant,
    who: Winner,
    n: int,
    p_spec: PSpec,
    samples: int,
    master_seed: int,
    jobs: int = 1,
    max_states: int = DEFAULT_MAX_STATES,
) -> EstimateReport:
    """Monte Carlo frequency of `who` winning variant v on G(n, p) samples.

    The worst-case arena size is prechecked so a budget violation aborts
    before any sampling starts.
    """
    with _pool(jobs) as pool:
        return _estimate((v, who), n, p_spec, samples, master_seed, jobs, max_states, pool)


# ---------------------------------------------------------------------------
# Varying-p regime classification.


@dataclass(frozen=True)
class Regime:
    """Zero-one-law regime tag; a function of (alpha, beta) only."""

    tag: str  # R1 | R2 | R3 | R4 | outside
    k: int | None = None

    def describe(self) -> str:
        return f"R2(k={self.k})" if self.tag == "R2" else self.tag


def classify_regime(fam: PFamily) -> Regime:
    """Classify p(N) = c N^-alpha (log N)^beta; boundaries map to `outside`.

    R1: alpha > 2.  R2(k): 1 + 1/k < alpha < 1 + 1/(k-1) for an integer
    k >= 2 (interval orientation corrected; the printed condition is empty).
    R3: alpha = 1, beta < 0.  R4: alpha = 1, 0 < beta < 1.
    """
    a, b = fam.alpha, fam.beta
    if a > 2:
        return Regime("R1")
    if 1 < a < 2:
        j = 1.0 / (a - 1.0)
        if j == int(j):
            return Regime("outside")  # boundary alpha = 1 + 1/k
        k = int(math.floor(j)) + 1
        if k >= 2 and 1 + 1 / k < a < 1 + 1 / (k - 1):
            return Regime("R2", k)
        return Regime("outside")
    if a == 1:
        if b < 0:
            return Regime("R3")
        if 0 < b < 1:
            return Regime("R4")
        return Regime("outside")
    return Regime("outside")


# ---------------------------------------------------------------------------
# Sweeps.

def sweep(
    target: SweepTarget,
    n_list: list[int],
    p_spec: PSpec,
    samples: int,
    master_seed: int,
    jobs: int = 1,
    max_states: int = DEFAULT_MAX_STATES,
) -> list[EstimateReport]:
    """One report per n, in n order; a row refused for its size (state budget,
    sentence width) or its arguments records the error in-row.  With
    jobs > 1 every row shares one process pool."""
    rows: list[EstimateReport] = []
    with _pool(jobs) as pool:
        for n in n_list:
            t0 = time.perf_counter()
            try:
                rows.append(_estimate(target, n, p_spec, samples, master_seed, jobs, max_states, pool))
            except (ArenaBudgetError, ExperimentError, GraphError, LogicError) as exc:
                rows.append(
                    EstimateReport(
                        target_id=_target_id(target), n=n, p_spec=p_spec, samples=samples, successes=0,
                        estimate=Fraction(0), ci_low=0.0, ci_high=0.0,
                        master_seed=master_seed, wall_ms=(time.perf_counter() - t0) * 1000.0,
                        error=str(exc),
                    )
                )
    return rows


def sweep_to_csv(rows: list[EstimateReport], config: dict | None = None) -> str:
    """CSV text; floats at 6 significant digits, config embedded as a comment."""
    import csv
    import io

    buf = io.StringIO()
    if config is not None:
        buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow(r.to_csv_row())
    return buf.getvalue()
