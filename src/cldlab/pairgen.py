"""Contrastive pair generation from synthetic domains.

A pair is two observations drawn from the same core value with independently
drawn non-core values; the optional label is drawn from the domain's label
law at that core value.  Pure-set composition mirrors the protocol of
holding out a small set of "content" values and completing each one several
times with fresh non-core draws.

Every pair term reads pairs as one dense weight table W[x, x~, y]
(`pair_table`); `pair_law` is that table for the exact law of
`sample_pairs`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .cld_core import CldFamily, DomainSpec, label_law, partner_law
from .errors import EmptyPureSet, ShapeMismatch
from .rng import categorical_rows, substream


@dataclass(frozen=True)
class ContrastivePair:
    x: int
    x_tilde: int
    label: int | None
    xc: int
    xn: int
    xn_tilde: int


@dataclass(frozen=True)
class PairGroup:
    """reps observations sharing one core value; label shared if present."""

    xs: tuple[int, ...]
    label: int | None
    xc: int
    xns: tuple[int, ...]

    def pairs(self, ordered: bool = False) -> list[ContrastivePair]:
        """The member pairs i < j, or with ordered every i != j."""
        k = range(len(self.xs))
        return [ContrastivePair(self.xs[i], self.xs[j], self.label, self.xc,
                                self.xns[i], self.xns[j])
                for i in k for j in k if j > i or (ordered and j != i)]


def sample_pairs(family: CldFamily, domain: DomainSpec, n: int,
                 style: str = "marginal", seed: int = 0) -> list[ContrastivePair]:
    """Draw n labeled contrastive pairs; five uniforms per pair, prefix-stable.

    style "uniform" redraws the partner's non-core value uniformly; style
    "marginal" (default) redraws it from the domain's non-core marginal.
    """
    draws = _draw_pairs(family, domain, n, style, seed)
    return list(map(ContrastivePair, *(a.tolist() for a in draws)))


def _draw_pairs(family: CldFamily, domain: DomainSpec, n: int, style: str,
                seed: int) -> tuple[np.ndarray, ...]:
    """`sample_pairs`' draws as index arrays (x, x~, y, x^c, x^n, x~^n)."""
    if n < 1:
        raise ShapeMismatch("n must be >= 1")
    if style not in ("uniform", "marginal"):
        raise ShapeMismatch(f"unknown pair style {style!r}")
    s = family.spaces
    rng = substream(seed, "pairs")
    u = rng.random((n, 5))
    flat = domain.p_cn.reshape(1, -1)
    cn = categorical_rows(flat, np.zeros(n, dtype=np.int64), u[:, 0])
    c, xn = cn // s.n_noncore, cn % s.n_noncore
    channel = family.p_x_given_cn.reshape(s.n_core * s.n_noncore, s.n_obs)
    x = categorical_rows(channel, cn, u[:, 1])
    if style == "uniform":
        xn_t = np.minimum(np.floor(u[:, 2] * s.n_noncore).astype(np.int64),
                          s.n_noncore - 1)
    else:
        marg = domain.noncore_marginal().reshape(1, -1)
        xn_t = categorical_rows(marg, np.zeros(n, dtype=np.int64), u[:, 2])
    x_t = categorical_rows(channel, c * s.n_noncore + xn_t, u[:, 3])
    y = categorical_rows(label_law(family, domain), c, u[:, 4])
    return x, x_t, y, c, xn, xn_t


def compose_pure_groups(family: CldFamily, pure, domain: DomainSpec,
                        reps: int, seed: int = 0) -> list[PairGroup]:
    """Complete each pure core value reps times with fresh non-core draws."""
    pure = list(pure)
    if not pure:
        raise EmptyPureSet("pure set is empty")
    if reps < 2:
        raise ShapeMismatch("reps must be >= 2")
    s = family.spaces
    rng = substream(seed, "pairs")
    marg = domain.noncore_marginal().reshape(1, -1)
    channel = family.p_x_given_cn.reshape(s.n_core * s.n_noncore, s.n_obs)
    labels = label_law(family, domain)
    groups = []
    for c in pure:
        c = int(c)
        u = rng.random((reps, 2))
        xns = categorical_rows(marg, np.zeros(reps, dtype=np.int64), u[:, 0])
        xs = categorical_rows(channel, c * s.n_noncore + xns, u[:, 1])
        y = categorical_rows(labels, np.array([c]), rng.random(1))[0]
        groups.append(PairGroup(tuple(xs.tolist()), int(y), c, tuple(xns.tolist())))
    return groups


def compose_pure(family: CldFamily, pure, domain: DomainSpec, reps: int,
                 seed: int = 0) -> list[ContrastivePair]:
    """All unordered pairs from each completed pure group; reps=2 gives one each."""
    return [p for g in compose_pure_groups(family, pure, domain, reps, seed)
            for p in g.pairs()]


def pair_table(items, n_obs: int, n_classes: int, weights=None) -> np.ndarray:
    """Pairs or groups as one [n_obs, n_obs, n_classes] weight table W[x, x~, y].

    weights give each item's probability (uniform by default).  A pair adds
    its weight at (x, x~, y), spread evenly over the labels if it has none;
    a group spreads its weight evenly over its k(k-1) ordered member pairs.
    """
    items = list(items)
    if not items:
        raise ShapeMismatch("no pairs given")
    # uniform weights add counts, divided once: a sample's cells hold count / n
    n_items = len(items)
    w = np.ones(n_items) if weights is None else np.asarray(weights, dtype=np.float64)
    if isinstance(items[0], PairGroup):
        members = [g.pairs(ordered=True) for g in items]
        sizes = np.array([len(m) for m in members])
        if sizes.min() == 0:
            raise ShapeMismatch("group needs at least 2 members")
        w, items = np.repeat(w / sizes, sizes), [p for m in members for p in m]
    x, xt = (np.array([getattr(p, a) for p in items], dtype=np.int64)
             for a in ("x", "x_tilde"))
    y = np.array([-1 if p.label is None else p.label for p in items], dtype=np.int64)
    if min(x.min(), xt.min(), y.min() + 1) < 0 or max(x.max(), xt.max()) >= n_obs \
            or y.max() >= n_classes:
        raise ShapeMismatch("pair observation or label out of range")
    table = np.zeros((n_obs, n_obs, n_classes))
    known = y >= 0
    np.add.at(table, (x[known], xt[known], y[known]), w[known])
    np.add.at(table, (x[~known], xt[~known]), w[~known, None] / n_classes)
    return table / n_items if weights is None else table


def pair_law(family: CldFamily, domain: DomainSpec,
             style: str = "marginal") -> np.ndarray:
    """The exact law of `sample_pairs`' draws as a pair table W[x, x~, y]:
    the core and first non-core value from P^d(x^c, x^n), the partner's
    non-core value from the domain's non-core marginal ("marginal") or
    uniformly ("uniform"), both observations through P*(x | x^c, x^n), and
    the label from the domain's label law at the core value."""
    px = family.p_x_given_cn
    return np.einsum("cn,m,cnx,cmz,cy->xzy", domain.p_cn,
                     partner_law(domain, style), px, px,
                     label_law(family, domain))


def write_pairs_jsonl(pairs: list[ContrastivePair], path: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(asdict(p)) + "\n" for p in pairs)
    os.replace(tmp, path)


def read_pairs_jsonl(path: str) -> list[ContrastivePair]:
    with open(path, "r", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    return [ContrastivePair(*(d[f.name] for f in fields(ContrastivePair)))
            for d in docs]
