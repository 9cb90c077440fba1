"""Exact enumeration oracle for discrete causal-latent families.

Everything here is computed by summation over the finite latent and observed
spaces: cross-entropy losses, Bayes and causal-faithful optima, fused
conditionals, the causal-invariance index, and an executable suite of the
framework's theorems and propositions.  No estimation, no tolerance juggling
beyond float arithmetic: every claim of the suite is computed in closed form
and judged against the suite's one `tol`.

Log conventions: losses are in nats; the invariance index uses base-2
Jensen-Shannon divergence.  The two bases coexist deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cld_core import (CldFamily, DomainSpec, LatentSpaces, joint_cnxy,
                       label_law, make_domain, partner_law)
from .errors import NotStochastic, TooFewDomains
from .rng import substream

CLAIM_IDS = ("P1", "P2", "T1", "T2", "T3", "P4", "P5", "P6", "P7", "P8", "T5")

PASS, FAIL, NOT_APPLICABLE = "PASS", "FAIL", "NOT-APPLICABLE"


@dataclass(frozen=True)
class PredictorTable:
    """An exact conditional table x -> distribution over predicted classes."""

    p_yhat_given_x: np.ndarray  # [n_obs, n_classes]


@dataclass(frozen=True)
class FusedTable:
    """Predictor pushed through the generation channel: [C, N, n_classes]."""

    p_yhat_given_cn: np.ndarray


def predictor_table(rows, tol: float = 1e-12) -> PredictorTable:
    arr = np.asarray(rows, dtype=np.float64)
    sums = arr.sum(axis=1)
    bad = ~(np.abs(sums - 1.0) <= tol)  # a non-finite entry makes its sum bad
    if np.any(bad) or np.any(arr < 0):
        i = int(np.argmax(bad)) if np.any(bad) else int(np.argwhere(arr < 0)[0][0])
        raise NotStochastic("p_yhat_given_x", i, float(sums[i]))
    out = arr.copy()
    out.setflags(write=False)
    return PredictorTable(out)


def random_predictor(spaces: LatentSpaces, rng: np.random.Generator,
                     floor: float = 0.01) -> PredictorTable:
    raw = floor + rng.random((spaces.n_obs, spaces.n_classes))
    return predictor_table(raw / raw.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Reachability and contrastive structure
# ---------------------------------------------------------------------------

def contrastive_components(family: CldFamily):
    """Partition observations into contrastive-equivalence components.

    Two observations land in one component when a chain of shared core
    values forces any causal-invariant predictor to treat them identically.
    Returns (comp, n_components) where comp[x] is the component id, numbered
    by each component's lowest observation, or -1 for observations no latent
    pair can generate.
    """
    reach = (family.p_x_given_cn > 0.0).any(axis=1)  # [C, X]
    linked = reach.T @ reach  # [X, X]: x and x' share a generating core value
    while True:  # transitive closure by squaring
        closed = linked @ linked
        if np.array_equal(closed, linked):
            break
        linked = closed
    hit = linked.any(axis=1)
    comp = np.full(family.spaces.n_obs, -1, dtype=np.int64)
    lowest, comp[hit] = np.unique(linked[hit].argmax(axis=1), return_inverse=True)
    return comp, lowest.size


def recoverable_core_map(family: CldFamily, support=True):
    """Map x -> generating core value when that value is unique, else None.

    `support` is a boolean latent-pair mask that broadcasts to [C, N]; only
    the pairs it marks count as generators (a source's core support is
    `(core_marginal > 0)[:, None]`, its joint support `p_cn > 0`).
    """
    s = family.spaces
    pairs = np.broadcast_to(support, (s.n_core, s.n_noncore))
    reach = ((family.p_x_given_cn > 0.0) & pairs[:, :, None]).any(axis=1)  # [C, X]
    if np.any(reach.sum(axis=0) > 1):
        return None
    return np.where(reach.any(axis=0), reach.argmax(axis=0), -1)


# ---------------------------------------------------------------------------
# Losses and optimal predictors
# ---------------------------------------------------------------------------

def domain_p_xy(family: CldFamily, domain: DomainSpec) -> np.ndarray:
    """Exact joint P^d(x, y) as an [n_obs, n_classes] array."""
    return joint_cnxy(family, domain).sum(axis=(0, 1))


def exact_loss(family: CldFamily, domain: DomainSpec,
               predictor: PredictorTable) -> float:
    """Exact expected cross-entropy E[-log predictor(y | x)] in nats.

    0 * log 0 counts as 0; probability 0 on any reachable (x, y) gives +inf.
    """
    p_xy = domain_p_xy(family, domain)
    pred = predictor.p_yhat_given_x
    mask = p_xy > 0.0
    if np.any(pred[mask] == 0.0):
        return float("inf")
    return float(-(p_xy[mask] * np.log(pred[mask])).sum())


def exact_accuracy(family: CldFamily, domain: DomainSpec,
                   predictor: PredictorTable) -> float:
    """Exact 0-1 accuracy of the argmax rule (ties broken by lowest class)."""
    p_xy = domain_p_xy(family, domain)
    picks = predictor.p_yhat_given_x.argmax(axis=1)
    return float(p_xy[np.arange(p_xy.shape[0]), picks].sum())


def bayes_predictor(family: CldFamily, domain: DomainSpec):
    """Exact P^d(Y | x) rowwise; unreachable rows are uniform and flagged.

    Returns (PredictorTable, unreachable) where unreachable is a boolean
    mask over observations the domain can never generate.
    """
    p_xy = domain_p_xy(family, domain)
    p_x = p_xy.sum(axis=1)
    n_obs, n_classes = p_xy.shape
    rows = np.full((n_obs, n_classes), 1.0 / n_classes)
    reach = p_x > 0.0
    rows[reach] = p_xy[reach] / p_x[reach, None]
    return predictor_table(rows), ~reach


class CausalFaithful(NamedTuple):
    table: PredictorTable
    degenerate: bool


def optimal_causal_faithful(family: CldFamily, source: DomainSpec) -> CausalFaithful:
    """The in-distribution-optimal predictor among causal-faithful tables.

    When the family is deterministic and every observation generated from
    the source's core support pins down a unique core value, this is the
    lift of the source's label law P^s(Y | x^c).  Otherwise no table can
    factor through the core pointwise, and the contract falls back to the
    best constant predictor (the source label marginal) with the degeneracy
    flag set.
    """
    s = family.spaces
    owner = (recoverable_core_map(family, (source.core_marginal() > 0.0)[:, None])
             if family.deterministic else None)
    if owner is None:
        marginal = domain_p_xy(family, source).sum(axis=0)
        marginal = marginal / marginal.sum()
        rows = np.tile(marginal, (s.n_obs, 1))
        return CausalFaithful(predictor_table(rows), True)
    rows = np.full((s.n_obs, s.n_classes), 1.0 / s.n_classes)
    lifted = owner >= 0
    rows[lifted] = label_law(family, source)[owner[lifted]]
    return CausalFaithful(predictor_table(rows), False)


def fuse(family: CldFamily, predictor: PredictorTable) -> FusedTable:
    """Push the predictor through the generation channel (mixing over x)."""
    fused = np.einsum("cnx,xy->cny", family.p_x_given_cn,
                      predictor.p_yhat_given_x)
    fused.setflags(write=False)
    return FusedTable(fused)


class InvarianceResult(NamedTuple):
    invariant: bool
    deviation: float
    witness: tuple | None  # (x^c, x^n, x~^n) of the first worst violation


def is_causal_invariant(family: CldFamily, predictor: PredictorTable,
                        tol: float = 1e-9) -> InvarianceResult:
    """Check the per-example invariance condition on the predictor table.

    For every core value and every pair of non-core values, any two
    observations those latent pairs can generate must receive the same
    predicted distribution (within `tol` total variation).  Observations no
    latent pair can generate are exempt.
    """
    pred = predictor.p_yhat_given_x
    tv = 0.5 * np.abs(pred[:, None, :] - pred[None, :, :]).sum(axis=2)
    supp = family.p_x_given_cn > 0.0  # [C, N, X]
    # dev[c, n, m]: the largest TV between an x of (c, n) and an x' of (c, m);
    # TVs are >= 0, so zeroing the unmarked entries leaves each max unchanged.
    dev = np.zeros(supp.shape[:2] + supp.shape[1:2])  # [C, N, N]
    for c, sc in enumerate(supp):  # sc[n, x]: (c, n) can generate x
        near = (sc[:, :, None] * tv).max(axis=1)  # [N, X]: max over x of (c, n)
        dev[c] = (sc[None, :, :] * near[:, None, :]).max(axis=2)
    worst = float(dev.max())
    if worst <= tol:
        return InvarianceResult(True, worst, None)
    return InvarianceResult(False, worst, tuple(
        int(i) for i in np.unravel_index(dev.argmax(), dev.shape)))


def jsd2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Base-2 Jensen-Shannon divergence along the last axis, clipped to [0, 1].

    The one JSD kernel of the package; inputs are not validated.  Both halves
    use the same midpoint, so jsd2(p, q) and jsd2(q, p) are bitwise equal.
    """
    m = (p + q) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tp = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p / m, 1.0)), 0.0)
        tq = np.where(q > 0.0, q * np.log2(np.where(q > 0.0, q / m, 1.0)), 0.0)
    return np.clip(0.5 * tp.sum(axis=-1) + 0.5 * tq.sum(axis=-1), 0.0, 1.0)


def exact_ci_index(family: CldFamily, domain: DomainSpec,
                   predictor: PredictorTable, style: str = "marginal") -> float:
    """Exact causal-invariance index of the predictor in the domain.

    1 minus the expected base-2 JSD between fused conditionals at the
    domain's latent pairs and at non-core values resampled from the
    partner law of `style` (`cld_core.partner_law`): the domain marginal,
    or uniform.  `metrics.ci_index_mc` with the same style is an unbiased
    Monte Carlo estimate of it: it reads these fused rows at sampled pairs.
    """
    fused = fuse(family, predictor).p_yhat_given_cn  # [C, N, Y]
    p_n = partner_law(domain, style)
    jsd = jsd2(fused[:, :, None, :], fused[:, None, :, :])  # [C, N, N]
    return float(1.0 - np.einsum("cn,m,cnm->", domain.p_cn, p_n, jsd))


def support_condition(family: CldFamily, source: DomainSpec,
                      target: DomainSpec) -> dict:
    """Check the two support-containment conditions for generalization."""
    s_core = source.core_marginal() > 0.0
    t_core = target.core_marginal() > 0.0
    cond3 = bool(np.all(s_core[t_core]))
    s_joint = source.p_cn > 0.0
    t_joint = target.p_cn > 0.0
    cond3prime = bool(np.all(s_joint[t_joint]))
    assert not cond3prime or cond3, "joint containment must imply core containment"
    return {"cond3": cond3, "cond3prime": cond3prime}


# ---------------------------------------------------------------------------
# Theorem suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimResult:
    id: str
    status: str
    deviation: float | None
    witness: object = None

    def to_dict(self) -> dict:
        return {"id": self.id, "status": self.status,
                "deviation": self.deviation, "witness": self.witness}


@dataclass(frozen=True)
class TheoremReport:
    claims: tuple[ClaimResult, ...]

    def __post_init__(self):
        assert tuple(c.id for c in self.claims) == CLAIM_IDS

    @property
    def all_pass(self) -> bool:
        return all(c.status != FAIL for c in self.claims)

    def claim(self, cid: str) -> ClaimResult:
        return next(c for c in self.claims if c.id == cid)

    def to_dict(self) -> dict:
        return {"claims": [c.to_dict() for c in self.claims]}


def _component_constant_predictor(family, comp, n_comp, rng) -> PredictorTable:
    """A random predictor constant on each contrastive component."""
    s = family.spaces
    raw = 0.05 + rng.random((max(n_comp, 1), s.n_classes))
    raw /= raw.sum(axis=1, keepdims=True)
    rows = np.full((s.n_obs, s.n_classes), 1.0 / s.n_classes)
    lifted = comp >= 0
    rows[lifted] = raw[comp[lifted]]
    return predictor_table(rows)


def _pairwise_max(values: list[float]) -> float:
    return float(max(values) - min(values)) if len(values) >= 2 else 0.0


def verify_theorems(family: CldFamily, domains: list[DomainSpec],
                    tol: float = 1e-9, seed: int = 0,
                    n_random: int = 12) -> TheoremReport:
    """Run every claim in the fixed suite by exact enumeration.

    Convention: domains[0] is the source; domains[1] (when present) is the
    target for the claims that need one.  Claims whose structural
    preconditions fail are reported NOT-APPLICABLE, never FAIL.
    """
    if not domains:
        raise TooFewDomains("verify_theorems needs at least a source domain")
    rng = substream(seed, "verify")
    s = family.spaces
    comp, n_comp = contrastive_components(family)
    source = domains[0]
    target = domains[1] if len(domains) > 1 else None
    cld2 = [d for d in domains if d.variant == "CLD2"]
    cld3 = [d for d in domains if d.variant == "CLD3"]
    ci_preds = [_component_constant_predictor(family, comp, n_comp, rng)
                for _ in range(n_random)]
    results: dict[str, ClaimResult] = {}

    def record(cid, deviation, witness=None):
        status = PASS if deviation <= tol else FAIL
        results[cid] = ClaimResult(cid, status, float(deviation),
                                   witness if status == FAIL else None)

    def not_applicable(cid, why):
        results[cid] = ClaimResult(cid, NOT_APPLICABLE, None, why)

    fused = [fuse(family, pred).p_yhat_given_cn for pred in ci_preds]

    # P1: invariant predictor => fused rows constant across non-core values.
    dev = 0.0
    wit = None
    for k, f in enumerate(fused):
        tv = 0.5 * np.abs(f[:, :, None, :] - f[:, None, :, :]).sum(axis=3)
        d = float(tv.max())
        if d > dev:
            dev, wit = d, ("predictor", k) + tuple(
                int(i) for i in np.unravel_index(tv.argmax(), tv.shape))
    record("P1", dev, wit)

    # P2: invariance <=> factoring through the core, via a uniform
    # full-support reference domain (the fused rows' mean over non-core).
    dev = 0.0
    wit = None
    for k, (pred, f) in enumerate(zip(ci_preds, fused)):
        d, pair = _worst_gap(family, pred.p_yhat_given_x, f.mean(axis=1))
        if d > dev:
            dev, wit = d, ("predictor", k, "core", pair[0])
    owner_all = recoverable_core_map(family)
    if owner_all is not None:
        # converse direction: any table factoring through the core is invariant
        for k in range(3):
            raw = 0.05 + rng.random((s.n_core, s.n_classes))
            raw /= raw.sum(axis=1, keepdims=True)
            rows = np.full((s.n_obs, s.n_classes), 1.0 / s.n_classes)
            rows[owner_all >= 0] = raw[owner_all[owner_all >= 0]]
            inv = is_causal_invariant(family, predictor_table(rows), tol)
            if inv.deviation > dev:
                dev, wit = inv.deviation, ("lifted", k, inv.witness)
    record("P2", dev, wit)

    # T1: a causal-faithful predictor's loss depends only on the core
    # marginal.  Compare two synthetic domains sharing a core marginal but
    # with different non-core conditionals.
    p_c = 0.05 + rng.random(s.n_core)
    p_c /= p_c.sum()
    doms = []
    for _ in range(2):
        p_n_c = 0.02 + rng.random((s.n_core, s.n_noncore))
        p_n_c /= p_n_c.sum(axis=1, keepdims=True)
        doms.append(make_domain(family, "CLD", domain_id="t1",
                                p_cn=p_c[:, None] * p_n_c, tol=1e-9))
    dev = 0.0
    for pred in ci_preds[:6]:
        losses = [exact_loss(family, d, pred) for d in doms]
        dev = max(dev, _pairwise_max(losses))
    record("T1", dev)

    # T2 / T3: the causal-faithful loss minimizer.
    if source.variant == "CLD3":
        not_applicable("T2", "anti-causal source: no invariant label mechanism")
        not_applicable("T3", "anti-causal source: no invariant label mechanism")
    else:
        ocf = optimal_causal_faithful(family, source)
        pred = ocf.table.p_yhat_given_x
        if ocf.degenerate:
            marginal = domain_p_xy(family, source).sum(axis=0)
            marginal /= marginal.sum()
            dev = float(np.abs(pred - marginal).max())
            record("T2", dev, "constant branch differs from source marginal")
        else:
            dev, wit = _worst_gap(family, pred, family.p_y_given_c,
                                  (source.core_marginal() > 0.0)[:, None])
            loss_ocf = exact_loss(family, source, ocf.table)
            best_rand = min(
                exact_loss(family, source,
                           _component_constant_predictor(family, comp, n_comp, rng))
                for _ in range(20))
            dev = max(dev, max(0.0, loss_ocf - best_rand))
            record("T2", dev, wit)
        if target is None:
            not_applicable("T3", "needs a target domain")
        else:
            cond = support_condition(family, source, target)
            if not cond["cond3"]:
                not_applicable("T3", "target core support not contained in source")
            else:
                loss_t = exact_loss(family, target, ocf.table)
                if ocf.degenerate:
                    ref = optimal_causal_faithful(family, target).table
                    ref_loss = exact_loss(family, target, ref)
                else:
                    ref_loss = exact_loss(family, target,
                                          bayes_predictor(family, target)[0])
                record("T3", max(0.0, loss_t - ref_loss))

    # P4: invariant predictor => equal losses across shared-core domains.
    if len(cld2) < 2:
        not_applicable("P4", "fewer than two CLD2 domains")
    else:
        dev = 0.0
        wit = None
        for k, pred in enumerate(ci_preds[:6]):
            losses = [exact_loss(family, d, pred) for d in cld2]
            d = _pairwise_max(losses)
            if d > dev:
                dev, wit = d, ("predictor", k, "losses", losses)
        record("P4", dev, wit)

    # P5: gradients of the two domain losses agree on an explicitly
    # causal-faithful logit chart.  The chart loss -sum p(x, y) log
    # softmax(L_g(x))_y has gradient m_g softmax(L_g) - Q_g in L_g, where Q_g
    # sums p(x, .) over the chart group g and m_g = sum_y Q_g.
    if len(cld2) < 2:
        not_applicable("P5", "fewer than two CLD2 domains")
    else:
        owner = recoverable_core_map(family)
        chart_groups = owner if owner is not None else comp
        n_groups = int(chart_groups.max()) + 1
        qs = [_group_sum(domain_p_xy(family, d), chart_groups, n_groups)
              for d in cld2[:2]]
        dev = 0.0
        for _ in range(2):
            logits = 0.5 * rng.standard_normal((n_groups, s.n_classes))
            grads = [_chart_grad(logits, q) for q in qs]
            dev = max(dev, float(np.abs(grads[0] - grads[1]).max()))
        record("P5", dev)

    # P6: invariant feature table => equal feature marginals across CLD2.
    if len(cld2) < 2:
        not_applicable("P6", "fewer than two CLD2 domains")
    else:
        dev = 0.0
        for _ in range(6):
            n_feat = int(rng.integers(1, n_comp + 1))
            g = rng.integers(0, n_feat, size=max(n_comp, 1))
            feat = np.where(comp >= 0, g[comp], -1)
            dists = [_group_sum(domain_p_xy(family, d).sum(axis=1), feat, n_feat)
                     for d in cld2]
            for i in range(1, len(dists)):
                dev = max(dev, float(np.abs(dists[i] - dists[0]).max()))
        record("P6", dev)

    # P7: anti-causal domains: equal class-conditional fused feature
    # distributions, hence equal prior-normalized marginals.
    if len(cld3) < 2:
        not_applicable("P7", "fewer than two CLD3 domains")
    else:
        dev = 0.0
        for _ in range(6):
            n_feat = int(rng.integers(1, n_comp + 1))
            g = rng.integers(0, n_feat, size=max(n_comp, 1))
            feat = np.where(comp >= 0, g[comp], -1)
            onehot = _group_sum(np.eye(s.n_obs), feat, n_feat).T  # [X, n_feat]
            # chain form: defined for every class, no Bayes division
            per_domain = [np.einsum("yc,cn,cnx,xv->yv", d.p_c_given_y,
                                    d.p_n_given_c, family.p_x_given_cn, onehot)
                          for d in cld3]
            for i in range(1, len(per_domain)):
                dev = max(dev, float(np.abs(per_domain[i] - per_domain[0]).max()))
                bar_a = per_domain[0].mean(axis=0)
                bar_b = per_domain[i].mean(axis=0)
                dev = max(dev, float(np.abs(bar_a - bar_b).max()))
        record("P7", dev)

    # P8: deterministic shared-core family: every domain's optimal head
    # weights over a fixed causal-faithful feature table coincide.  A
    # component's optimal free logits against its label law q are log q, and
    # zero-mean logits fix the shift gauge.
    if not family.deterministic:
        not_applicable("P8", "family is not deterministic")
    elif len(cld2) < 2:
        not_applicable("P8", "fewer than two CLD2 domains")
    else:
        qs = [_group_sum(domain_p_xy(family, d), comp, n_comp) for d in cld2]
        active = np.ones(n_comp, dtype=bool)
        for q in qs:
            active &= q.sum(axis=1) > 0.0
        cond_rows = [q[active] / np.maximum(q[active].sum(axis=1, keepdims=True),
                                            1e-300) for q in qs]
        if any(np.any(r == 0.0) for r in cond_rows):
            not_applicable("P8", "a head optimum is unbounded (zero class mass)")
        else:
            weights = [np.log(r) - np.log(r).mean(axis=1, keepdims=True)
                       for r in cond_rows]
            dev = 0.0
            for i in range(1, len(weights)):
                dev = max(dev, float(np.abs(weights[i] - weights[0]).max()))
            record("P8", dev)

    # T5: the unconstrained source optimum already matches the core label
    # law pointwise, provided each generated observation identifies its core
    # value; then joint support containment gives target optimality.
    if source.variant == "CLD3":
        not_applicable("T5", "anti-causal source: no invariant label mechanism")
    elif target is None:
        not_applicable("T5", "needs a target domain")
    else:
        cond = support_condition(family, source, target)
        if not cond["cond3prime"]:
            not_applicable("T5", "joint support containment fails")
        elif recoverable_core_map(family, source.p_cn > 0.0) is None:
            not_applicable("T5", "an observation is generated by several core values")
        else:
            bayes_s, _ = bayes_predictor(family, source)
            dev, wit = _worst_gap(family, bayes_s.p_yhat_given_x,
                                  family.p_y_given_c, source.p_cn > 0.0)
            loss_t = exact_loss(family, target, bayes_s)
            ref = exact_loss(family, target, bayes_predictor(family, target)[0])
            dev = max(dev, max(0.0, loss_t - ref))
            record("T5", dev, wit)

    return TheoremReport(tuple(results[cid] for cid in CLAIM_IDS))


def _worst_gap(family: CldFamily, pred: np.ndarray, rows: np.ndarray,
               pairs=True):
    """Largest |pred[x] - rows[c]| over the x that marked latent pairs generate.

    `pairs` is a boolean latent-pair mask, [C, N], [C, 1] or a scalar.
    Returns the deviation and the first (c, n) pair attaining it, or None
    when it is 0.
    """
    marked = (family.p_x_given_cn > 0.0) & np.asarray(pairs)[..., None]
    gap = np.abs(pred[None, :, :] - rows[:, None, :]).max(axis=2)  # [C, X]
    dev = (marked * gap[:, None, :]).max(axis=2)  # [C, N]; gaps are >= 0
    worst = float(dev.max())
    if worst == 0.0:
        return worst, None
    return worst, tuple(int(i) for i in np.unravel_index(dev.argmax(), dev.shape))


def _group_sum(values: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of `values` into `n` groups by id; id -1 is dropped."""
    out = np.zeros((n,) + values.shape[1:])
    keep = groups >= 0
    np.add.at(out, groups[keep], values[keep])
    return out


def _chart_grad(logits: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Gradient in the chart logits of -sum_g sum_y q[g, y] log softmax(L_g)_y."""
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return q.sum(axis=1, keepdims=True) * (z / z.sum(axis=1, keepdims=True)) - q
