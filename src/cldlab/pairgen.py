"""Contrastive pair generation from synthetic domains.

A pair is two observations drawn from the same core value with independently
drawn non-core values; the optional label is drawn from the family's label
mechanism at that core value.  Pure-set composition mirrors the protocol of
holding out a small set of "content" values and completing each one several
times with fresh non-core draws.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .cld_core import CldFamily, DomainSpec
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

    def pairs(self) -> list[ContrastivePair]:
        out = []
        for i in range(len(self.xs)):
            for j in range(i + 1, len(self.xs)):
                out.append(ContrastivePair(self.xs[i], self.xs[j], self.label,
                                           self.xc, self.xns[i], self.xns[j]))
        return out


def sample_pairs(family: CldFamily, domain: DomainSpec, n: int,
                 style: str = "marginal", seed: int = 0) -> list[ContrastivePair]:
    """Draw n labeled contrastive pairs; five uniforms per pair, prefix-stable.

    style "uniform" redraws the partner's non-core value uniformly; style
    "marginal" (default) redraws it from the domain's non-core marginal.
    """
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
        xn_t = np.floor(u[:, 2] * s.n_noncore).astype(np.int64)
        xn_t = np.minimum(xn_t, s.n_noncore - 1)
    else:
        marg = domain.noncore_marginal().reshape(1, -1)
        xn_t = categorical_rows(marg, np.zeros(n, dtype=np.int64), u[:, 2])
    x_t = categorical_rows(channel, c * s.n_noncore + xn_t, u[:, 3])
    y = categorical_rows(family.p_y_given_c, c, u[:, 4])
    return [ContrastivePair(int(x[i]), int(x_t[i]), int(y[i]), int(c[i]),
                            int(xn[i]), int(xn_t[i])) for i in range(n)]


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
    groups = []
    for c in pure:
        c = int(c)
        u = rng.random((reps, 2))
        xns = categorical_rows(marg, np.zeros(reps, dtype=np.int64), u[:, 0])
        xs = categorical_rows(channel, c * s.n_noncore + xns, u[:, 1])
        y = categorical_rows(family.p_y_given_c, np.array([c]), rng.random(1))[0]
        groups.append(PairGroup(tuple(int(v) for v in xs), int(y), c,
                                tuple(int(v) for v in xns)))
    return groups


def compose_pure(family: CldFamily, pure, domain: DomainSpec, reps: int,
                 seed: int = 0) -> list[ContrastivePair]:
    """All unordered pairs from each completed pure group; reps=2 gives one each."""
    out: list[ContrastivePair] = []
    for g in compose_pure_groups(family, pure, domain, reps, seed):
        out.extend(g.pairs())
    return out


def write_pairs_jsonl(pairs: list[ContrastivePair], path: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps({"x": p.x, "x_tilde": p.x_tilde,
                                 "label": p.label, "xc": p.xc,
                                 "xn": p.xn, "xn_tilde": p.xn_tilde}) + "\n")
    os.replace(tmp, path)


def read_pairs_jsonl(path: str) -> list[ContrastivePair]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            d = json.loads(line)
            out.append(ContrastivePair(d["x"], d["x_tilde"], d["label"],
                                       d["xc"], d["xn"], d["xn_tilde"]))
    return out
