"""Evaluation: CI index (exact bridge and Monte Carlo over `sample_pairs`'
latent draws), loss/accuracy, and feature-distribution divergence probes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffkit as dk
from . import objectives as ob
from .cld_core import CldFamily, Dataset, DomainSpec, sample_dataset
from .errors import InvalidDistribution, ShapeMismatch, TooFewDomains, TooFewExamples
from .diffkit import Model, forward
from .oracle import (PredictorTable, exact_accuracy, exact_loss, fuse, jsd2,
                     predictor_table)
from .pairgen import _draw_pairs

__all__ = [
    "CiEstimate",
    "EvalResult",
    "FeatureDivergences",
    "ci_index_mc",
    "evaluate",
    "evaluate_exact",
    "feature_divergences",
    "jsd_base2",
    "model_features",
    "tabulate",
]


def _check_dist(name: str, v: np.ndarray) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidDistribution(f"{name} must be a vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistribution(f"{name} has a non-finite entry")
    if np.any(arr < 0):
        raise InvalidDistribution(f"{name} has a negative entry")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise InvalidDistribution(f"{name} sums to {arr.sum()!r}, not 1")
    return arr


def jsd_base2(p, q) -> float:
    """Jensen-Shannon divergence with base-2 logarithm; symmetric, in [0, 1].

    Validates p and q, then applies `oracle.jsd2`, so jsd_base2(p, q) and
    jsd_base2(q, p) are bitwise equal.
    """
    pa = _check_dist("p", p)
    qa = _check_dist("q", q)
    if pa.shape != qa.shape:
        raise InvalidDistribution(
            f"p and q have different lengths {pa.shape[0]} vs {qa.shape[0]}"
        )
    return float(jsd2(pa, qa))


def tabulate(model: Model, family: CldFamily) -> PredictorTable:
    """Evaluate the model on every observation index; exact conditional table."""
    xs = np.arange(family.spaces.n_obs)
    _, _, probs, _ = forward(model, xs)
    return predictor_table(probs.val)


def _run_tables(model: Model, family: CldFamily) -> list[PredictorTable]:
    """`tabulate` of each run of a stack (`diffkit.stack_runs`) from one
    forward; one table for a model with no run axis."""
    _, _, probs, _ = forward(model, np.arange(family.spaces.n_obs))
    return [predictor_table(rows)
            for rows in (probs.val if model.runs else [probs.val])]


@dataclass(frozen=True)
class CiEstimate:
    """Causal-invariance index, 1 - mean JSD over swap pairs: a Monte Carlo
    estimate with its standard error, or the closed form, which n_pairs = 0
    and stderr 0 mark."""

    value: float
    stderr: float
    n_pairs: int
    style: str


def ci_index_mc(model: Model, family: CldFamily, domain: DomainSpec,
                n_pairs: int, reps: int = 1, style: str = "marginal",
                seed: int = 0) -> CiEstimate:
    """Estimate the CI index over n_pairs latent swap pairs (x^c, x^n, x~^n)
    drawn as `pairgen.sample_pairs` draws them for style and seed.

    Both sides' fused rows are read exactly from `oracle.fuse`, so only the
    pair draw is left to chance and the estimate is unbiased for
    `oracle.exact_ci_index`; reps, which must be >= 1, does not change it.
    """
    if reps < 1:
        raise ShapeMismatch("reps must be >= 1")
    return _ci_index_table(tabulate(model, family), family, domain, n_pairs,
                           style, seed)


def _ci_index_table(table: PredictorTable, family: CldFamily,
                    domain: DomainSpec, n_pairs: int, style: str,
                    seed: int) -> CiEstimate:
    """ci_index_mc of the model whose tabulated predictor is table."""
    if n_pairs < 1:
        raise ShapeMismatch("n_pairs must be >= 1")
    *_, c, xn, xn_t = _draw_pairs(family, domain, n_pairs, style, seed)
    fused = fuse(family, table).p_yhat_given_cn
    jsds = jsd2(fused[c, xn], fused[c, xn_t])
    value = float(1.0 - jsds.mean())
    stderr = float(jsds.std(ddof=1) / np.sqrt(n_pairs)) if n_pairs > 1 else 0.0
    return CiEstimate(value=value, stderr=stderr, n_pairs=n_pairs, style=style)


@dataclass(frozen=True)
class EvalResult:
    """Loss in nats plus argmax accuracy on one domain; n = 0 marks the
    closed-form variant."""

    domain_id: str
    loss: float
    accuracy: float
    n: int


def evaluate(model: Model, family: CldFamily, domain: DomainSpec,
             n: int, seed: int = 0) -> EvalResult:
    """Sampled loss/accuracy; converges to the exact values at O(1/sqrt(n))."""
    if n < 1:
        raise ShapeMismatch("n must be >= 1")
    return _evaluate_table(tabulate(model, family), family, domain, n, seed)


def evaluate_exact(model: Model, family: CldFamily,
                   domain: DomainSpec) -> EvalResult:
    return _evaluate_table(tabulate(model, family), family, domain)


def _evaluate_table(table: PredictorTable, family: CldFamily,
                    domain: DomainSpec, n: int = 0, seed: int = 0) -> EvalResult:
    """evaluate on n samples, or evaluate_exact for n = 0, of the model
    whose tabulated predictor is table."""
    if n == 0:
        return EvalResult(domain_id=domain.domain_id,
                          loss=exact_loss(family, domain, table),
                          accuracy=exact_accuracy(family, domain, table), n=0)
    data = sample_dataset(family, domain, n, seed)
    rows = table.p_yhat_given_x
    picked = rows[data.x, data.y]
    loss = float(-np.log(picked).mean())
    acc = float((rows[data.x].argmax(axis=1) == data.y).mean())
    return EvalResult(domain_id=domain.domain_id, loss=loss, accuracy=acc, n=n)


def model_features(model: Model, xs: np.ndarray) -> np.ndarray:
    """Last-hidden-layer features as a plain array (no graph)."""
    h, _, _, _ = forward(model, xs)
    return h.val


@dataclass(frozen=True)
class FeatureDivergences:
    """Empirical feature-distribution distances, averaged over domain pairs.

    MMD values are raw unbiased estimates and may be slightly negative when
    the distributions coincide.  per_class maps a class index to its
    (mmd, coral) pair; normalized holds the class-prior-normalized pooled
    marginal's (mmd, coral).
    """

    mmd: float
    coral: float
    bandwidth: float
    per_class: dict[int, tuple[float, float]] | None = None
    normalized: tuple[float, float] | None = None


def feature_divergences(model: Model, datasets: list[Dataset],
                        per_class: bool = False) -> FeatureDivergences:
    """MMD and CORAL distances between per-domain feature clouds.

    With per_class=True, also computes the distances restricted to each
    class and for the pooled marginal reweighted so every class present in
    a domain contributes equally (each example weighted 1 / (K_d * n_dy)).
    Both distances are the training penalties' cores (`objectives._mmd`,
    `objectives._coral`) on one forward's features, a row per (x, y) cell
    of the data, whose counts per dataset give the rows' values; each
    weighting masks and normalizes that count table.  The kernel bandwidth
    is `objectives.median_bandwidth` over the cell rows with the counts of
    all domains, reused for every domain pair and the conditional probes.
    """
    if len(datasets) < 2:
        raise TooFewDomains("feature_divergences needs >= 2 domains")
    for ds in datasets:
        if len(ds) < 2:
            raise TooFewExamples(f"domain {ds.domain_id!r} has {len(ds)} examples")
    n_x, n_cls = 1 + np.max([(np.max(ds.x), np.max(ds.y)) for ds in datasets], axis=0)
    counts = np.stack([np.bincount(np.asarray(ds.x) * n_cls + ds.y,
                                   minlength=n_x * n_cls) for ds in datasets])
    cells = np.flatnonzero(counts.sum(axis=0))
    counts, labels = counts[:, cells], cells % n_cls
    feats = dk.constant(model_features(model, np.arange(n_x))[cells // n_cls])
    bw = float(ob.median_bandwidth(ob.sq_dists(feats, feats),
                                   counts.sum(axis=0)).val)

    def divergences(m: np.ndarray, w=None) -> tuple[float, float]:
        """(raw MMD, CORAL) with counts m [D, cells] and row weights w, by
        default each domain's share of its counts."""
        w = m / m.sum(axis=1, keepdims=True) if w is None else w
        return ob._mmd(feats, w, m, bw).raw, float(ob._coral(feats, w, m).val)

    mmd, coral = divergences(counts)
    if not per_class:
        return FeatureDivergences(mmd=mmd, coral=coral, bandwidth=bw)

    by_class: dict[int, tuple[float, float]] = {}
    for y in np.unique(labels):
        m = np.where(labels == y, counts, 0)
        for ds, total in zip(datasets, m.sum(axis=1)):
            if total < 2:
                raise TooFewExamples(f"class {y} has {total} examples in "
                                     f"domain {ds.domain_id!r}")
        by_class[int(y)] = divergences(m)

    per_label = counts @ (labels[:, None] == np.arange(n_cls))  # [D, C]
    present = np.count_nonzero(per_label, axis=1)[:, None]
    normalized = divergences(counts, np.divide(
        counts, present * per_label[:, labels], out=np.zeros(counts.shape),
        where=counts > 0))
    return FeatureDivergences(mmd=mmd, coral=coral, bandwidth=bw,
                              per_class=by_class, normalized=normalized)
