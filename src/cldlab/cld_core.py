"""Discrete causal-latent families and their domains.

A family fixes the invariant generation mechanisms: a stochastic table
P*(X | X^c, X^n) taking latent (core, non-core) pairs to observations, and a
label table P*(Y | X^c).  A domain supplies the part that shifts: the latent
joint P^d(X^c, X^n), or for the anti-causal variant a label prior plus shared
P*(X^c | Y) and per-domain P^d(X^n | X^c).  Everything is enumerable, so the
oracle can verify claims about these objects exactly.

Variants:
  CLD   - plain latent joint, nothing shared across domains.
  CLD1  - like CLD but the domain id is considered observed at training time.
  CLD2  - domains share the core marginal P(X^c).
  CLD3  - anti-causal: Y -> X^c -> X^n -> X with shared P*(X^c|Y).

Sharing constraints are cross-domain properties; a single DomainSpec cannot
check them, so `check_family_coherence` does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MixedVariants, NotStochastic, ShapeMismatch, UnknownFixture
from .rng import categorical_rows, substream

USER_TOL = 1e-9  # row-sum tolerance for user-supplied tables
INTERNAL_TOL = 1e-12  # tolerance for internally constructed tables

VARIANTS = ("CLD", "CLD1", "CLD2", "CLD3")


def _freeze(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _check_rows(name: str, table: np.ndarray, tol: float) -> None:
    out_of_range = ~np.isfinite(table) | (table < 0.0) | (table > 1.0)
    if np.any(out_of_range):
        bad = int(np.argwhere(out_of_range)[0][0])
        raise NotStochastic(name, bad, float(table.reshape(table.shape[0], -1)[bad].sum()))
    sums = table.sum(axis=-1)
    flat = sums.reshape(-1)
    off = np.abs(flat - 1.0) > tol
    if np.any(off):
        i = int(np.argmax(off))
        raise NotStochastic(name, i, float(flat[i]))


@dataclass(frozen=True)
class LatentSpaces:
    """Cardinalities of the latent and observed spaces."""

    n_core: int
    n_noncore: int
    n_obs: int
    n_classes: int

    def __post_init__(self):
        for name in ("n_core", "n_noncore", "n_obs"):
            if getattr(self, name) < 1:
                raise ShapeMismatch(f"{name} must be >= 1")
        if self.n_classes < 2:
            raise ShapeMismatch("n_classes must be >= 2")


@dataclass(frozen=True)
class CldFamily:
    """Invariant mechanisms shared by every domain of the family."""

    spaces: LatentSpaces
    p_x_given_cn: np.ndarray  # [n_core, n_noncore, n_obs]
    p_y_given_c: np.ndarray  # [n_core, n_classes]

    @property
    def deterministic(self) -> bool:
        """True iff every generation row is a point mass (an exact f*)."""
        return bool(np.all(self.p_x_given_cn.max(axis=-1) == 1.0))


@dataclass(frozen=True)
class DomainSpec:
    """One domain: the latent joint, or its CLD3 factorization."""

    variant: str
    domain_id: str
    p_cn: np.ndarray  # [n_core, n_noncore]; derived for CLD3
    p_y: np.ndarray | None = None  # [n_classes], CLD3 only
    p_c_given_y: np.ndarray | None = None  # [n_classes, n_core], CLD3 only
    p_n_given_c: np.ndarray | None = None  # [n_core, n_noncore], CLD3 only

    def core_marginal(self) -> np.ndarray:
        return self.p_cn.sum(axis=1)

    def noncore_marginal(self) -> np.ndarray:
        return self.p_cn.sum(axis=0)


@dataclass(frozen=True)
class Dataset:
    """Sampled records; provenance carries the hidden latents for test use."""

    domain_id: str
    x: np.ndarray  # [n] observation indices
    y: np.ndarray  # [n] class indices
    xc: np.ndarray | None = None  # provenance, present iff synthetically sampled
    xn: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.x.shape[0])


def _shaped(name: str, value, shape: tuple) -> np.ndarray:
    """value as a float array of the given shape; ShapeMismatch if it is not."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ShapeMismatch(f"{name} shape {arr.shape}, expected {shape}")
    return arr


def build_family(spaces: LatentSpaces, p_x_given_cn, p_y_given_c,
                 tol: float = USER_TOL) -> CldFamily:
    """Validate and freeze the two mechanism tables into a family."""
    px = _shaped("p_x_given_cn", p_x_given_cn,
                 (spaces.n_core, spaces.n_noncore, spaces.n_obs))
    py = _shaped("p_y_given_c", p_y_given_c, (spaces.n_core, spaces.n_classes))
    _check_rows("p_x_given_cn", px, tol)
    _check_rows("p_y_given_c", py, tol)
    return CldFamily(spaces, _freeze(px), _freeze(py))


def make_domain(family: CldFamily, variant: str, *, domain_id: str = "d",
                p_cn=None, p_y=None, p_c_given_y=None, p_n_given_c=None,
                tol: float = USER_TOL) -> DomainSpec:
    """Validate one domain's tables against the family's spaces.

    Cross-domain sharing constraints (CLD2/CLD3) are checked separately by
    `check_family_coherence`.
    """
    s = family.spaces
    if variant not in VARIANTS:
        raise ShapeMismatch(f"unknown variant {variant!r}")
    if variant == "CLD3":
        if p_y is None or p_c_given_y is None or p_n_given_c is None:
            raise ShapeMismatch("CLD3 needs p_y, p_c_given_y and p_n_given_c")
        py = _shaped("p_y", p_y, (s.n_classes,))
        pcy = _shaped("p_c_given_y", p_c_given_y, (s.n_classes, s.n_core))
        pnc = _shaped("p_n_given_c", p_n_given_c, (s.n_core, s.n_noncore))
        _check_rows("p_y", py[None, :], tol)
        _check_rows("p_c_given_y", pcy, tol)
        _check_rows("p_n_given_c", pnc, tol)
        # derived latent joint, marginalizing the label out of the chain
        p_c = py @ pcy  # [n_core]
        joint = p_c[:, None] * pnc
        return DomainSpec(variant, domain_id, _freeze(joint), _freeze(py),
                          _freeze(pcy), _freeze(pnc))
    if p_cn is None:
        raise ShapeMismatch(f"{variant} needs p_cn")
    pcn = _shaped("p_cn", p_cn, (s.n_core, s.n_noncore))
    _check_rows("p_cn", pcn.reshape(1, -1), tol)  # whole table sums to 1
    return DomainSpec(variant, domain_id, _freeze(pcn))


def check_family_coherence(domains: list[DomainSpec], variant: str) -> dict:
    """Check the cross-domain sharing constraint of `variant`.

    Returns {"variant", "pass", "max_deviation", "pairs": [...]} with one
    entry per domain pair.  CLD and CLD1 carry no shared-marginal constraint
    and always pass.
    """
    if len(domains) < 2:
        raise MixedVariants("need at least 2 domains")
    if any(d.variant != variant for d in domains):
        raise MixedVariants(
            f"expected all domains to be {variant}, got "
            f"{sorted({d.variant for d in domains})}"
        )
    pairs = []
    worst = 0.0
    for i in range(len(domains)):
        for j in range(i + 1, len(domains)):
            a, b = domains[i], domains[j]
            if variant == "CLD2":
                dev = float(np.abs(a.core_marginal() - b.core_marginal()).max())
            elif variant == "CLD3":
                dev = float(np.abs(a.p_c_given_y - b.p_c_given_y).max())
            else:
                dev = 0.0
            ok = dev <= INTERNAL_TOL
            pairs.append({"domains": (a.domain_id, b.domain_id),
                          "pass": ok, "deviation": dev})
            worst = max(worst, dev)
    return {"variant": variant, "pass": all(p["pass"] for p in pairs),
            "max_deviation": worst, "pairs": pairs}


def sample_dataset(family: CldFamily, domain: DomainSpec, n: int, seed: int) -> Dataset:
    """Draw n records through the generative chain, with provenance.

    Four uniforms are budgeted per record regardless of variant, so the
    record-to-randomness mapping is stable and smaller draws are prefixes of
    larger ones under the same seed.
    """
    if n < 1:
        raise ShapeMismatch("n must be >= 1")
    s = family.spaces
    rng = substream(seed, "data")
    u = rng.random((n, 4))
    first = np.zeros(n, dtype=np.int64)
    channel = family.p_x_given_cn.reshape(s.n_core * s.n_noncore, s.n_obs)
    if domain.variant == "CLD3":
        y = categorical_rows(domain.p_y[None, :], first, u[:, 0])
        c = categorical_rows(domain.p_c_given_y, y, u[:, 1])
        xn = categorical_rows(domain.p_n_given_c, c, u[:, 2])
        x = categorical_rows(channel, c * s.n_noncore + xn, u[:, 3])
    else:
        cn = categorical_rows(domain.p_cn.reshape(1, -1), first, u[:, 0])
        c, xn = cn // s.n_noncore, cn % s.n_noncore
        x = categorical_rows(channel, cn, u[:, 1])
        y = categorical_rows(family.p_y_given_c, c, u[:, 2])
    return Dataset(domain.domain_id, x, y, c, xn)


def label_law(family: CldFamily, domain: DomainSpec) -> np.ndarray:
    """P^d(y | x^c) as a [n_core, n_classes] table: the family's label
    mechanism, or for CLD3 (the label is the chain's root) the domain's Bayes
    inversion of p_y and P*(x^c | y), uniform where P^d(x^c) is 0."""
    if domain.variant != "CLD3":
        return family.p_y_given_c
    p_cy = (domain.p_y[:, None] * domain.p_c_given_y).T  # [C, Y]
    p_c = p_cy.sum(axis=1, keepdims=True)
    return np.divide(p_cy, p_c, out=np.full(p_cy.shape, 1.0 / p_cy.shape[1]),
                     where=p_c > 0.0)


def partner_law(domain: DomainSpec, style: str = "marginal") -> np.ndarray:
    """The law of a swap partner's non-core value, [n_noncore]: the domain's
    non-core marginal ("marginal") or uniform ("uniform")."""
    if style == "marginal":
        return domain.noncore_marginal()
    if style == "uniform":
        n = domain.p_cn.shape[1]
        return np.full(n, 1.0 / n)
    raise ShapeMismatch(f"unknown pair style {style!r}")


def joint_cnxy(family: CldFamily, domain: DomainSpec) -> np.ndarray:
    """The full joint P^d(x^c, x^n, x, y) as a [C, N, X, Y] array.

    For causal variants y is generated from x^c; for CLD3 the label is the
    root of the chain, so the (c, y) coupling comes from Bayes-inverting the
    shared P*(X^c | Y) against the domain prior.
    """
    px = family.p_x_given_cn
    if domain.variant == "CLD3":
        # P(y, c) = p_y[y] * p_c_given_y[y, c]
        p_yc = domain.p_y[:, None] * domain.p_c_given_y  # [Y, C]
        p_cny = p_yc.T[:, None, :] * domain.p_n_given_c[:, :, None]  # [C, N, Y]
        return p_cny[:, :, None, :] * px[:, :, :, None]
    base = domain.p_cn[:, :, None, None] * px[:, :, :, None]
    return base * family.p_y_given_c[:, None, None, :]


def canonical_fixture(name: str):
    """Build a canonical (family, source, target) triple.

    CANON-D: two binary latents rendered as the bit pair x = (A, B) with
    A = x^c and B = x^n exactly; labels follow the core with strength 0.75;
    source couples B to A at 0.95, target at 0.05, both with a uniform core
    marginal (a CLD2 pair).  CANON-N is identical except A flips with
    probability 0.25, so no observation pins down the core value.
    """
    if name not in ("CANON-D", "CANON-N"):
        raise UnknownFixture(name)
    spaces = LatentSpaces(n_core=2, n_noncore=2, n_obs=4, n_classes=2)
    px = np.zeros((2, 2, 4))
    for c in range(2):
        for n in range(2):
            if name == "CANON-D":
                px[c, n, 2 * c + n] = 1.0
            else:
                px[c, n, 2 * c + n] = 0.75
                px[c, n, 2 * (1 - c) + n] = 0.25
    py = np.array([[0.75, 0.25], [0.25, 0.75]])
    family = build_family(spaces, px, py, tol=INTERNAL_TOL)

    def coupled(corr):
        return np.array([[0.5 * corr, 0.5 * (1 - corr)],
                         [0.5 * (1 - corr), 0.5 * corr]])

    source = make_domain(family, "CLD2", domain_id="source",
                         p_cn=coupled(0.95), tol=INTERNAL_TOL)
    target = make_domain(family, "CLD2", domain_id="target",
                         p_cn=coupled(0.05), tol=INTERNAL_TOL)
    return family, source, target


def random_family(seed: int, *, variant: str = "CLD2", n_domains: int = 2,
                  max_core: int = 4, max_noncore: int = 4,
                  max_classes: int = 3):
    """Draw a random full-support family plus domains for stress testing.

    The generation map is a random bijection from latent pairs to
    observations, so the core value is always recoverable and none of the
    oracle's claims degenerate.  All probability entries are floored away
    from zero, which keeps every support containment condition true.
    Returns (family, domains).
    """
    rng = substream(seed, "family")
    n_core = int(rng.integers(2, max_core + 1))
    n_noncore = int(rng.integers(2, max_noncore + 1))
    n_classes = int(rng.integers(2, max_classes + 1))
    n_obs = n_core * n_noncore
    spaces = LatentSpaces(n_core, n_noncore, n_obs, n_classes)
    perm = rng.permutation(n_obs)
    px = np.zeros((n_core, n_noncore, n_obs))
    # latent pair (c, n), flat index i = c * n_noncore + n, generates perm[i]
    px.reshape(-1, n_obs)[np.arange(n_obs), perm] = 1.0
    py = 0.05 + rng.random((n_core, n_classes))
    py /= py.sum(axis=1, keepdims=True)
    family = build_family(spaces, px, py, tol=INTERNAL_TOL)
    domains = []
    if variant == "CLD3":
        p_y = 0.05 + rng.random(n_classes)
        p_y0 = p_y / p_y.sum()
        pcy = 0.05 + rng.random((n_classes, n_core))
        pcy /= pcy.sum(axis=1, keepdims=True)  # shared across domains
        for i in range(n_domains):
            p_yi = 0.05 + rng.random(n_classes)
            p_yi /= p_yi.sum()
            pnc = 0.02 + rng.random((n_core, n_noncore))
            pnc /= pnc.sum(axis=1, keepdims=True)
            domains.append(make_domain(
                family, "CLD3", domain_id=f"d{i}",
                p_y=p_y0 if i == 0 else p_yi, p_c_given_y=pcy,
                p_n_given_c=pnc, tol=INTERNAL_TOL))
        return family, domains
    p_c = 0.05 + rng.random(n_core)
    p_c /= p_c.sum()  # shared when variant is CLD2
    for i in range(n_domains):
        if variant != "CLD2":
            p_c = 0.05 + rng.random(n_core)
            p_c /= p_c.sum()
        pnc = 0.02 + rng.random((n_core, n_noncore))
        pnc /= pnc.sum(axis=1, keepdims=True)
        domains.append(make_domain(family, variant, domain_id=f"d{i}",
                                   p_cn=p_c[:, None] * pnc, tol=INTERNAL_TOL))
    return family, domains


def bit_coords(n_obs: int) -> np.ndarray:
    """Embed observation indices as their binary digit vectors.

    With n_obs = 4 this is exactly the (A, B) coordinate plane of the
    canonical fixtures: index 2A + B maps to the vector (A, B).
    """
    width = max(1, int(np.ceil(np.log2(max(n_obs, 2)))))
    shifts = np.arange(width - 1, -1, -1)  # most significant bit first
    return ((np.arange(n_obs)[:, None] >> shifts) & 1).astype(np.float64)


# ---------------------------------------------------------------------------
# JSON document interface
# ---------------------------------------------------------------------------

def _cardinality(spaces: dict, name: str) -> int:
    """spaces[name] as an int: an integral number reads as one (3.0 as 3);
    a fraction, a boolean or a string is refused."""
    v = spaces[name]
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not float(v).is_integer()):
        raise ShapeMismatch(f"spaces.{name} must be an integer, got {v!r}")
    return int(v)


def family_from_dict(doc: dict):
    """Parse {"spaces", "p_x_given_cn", "p_y_given_c", "domains": [...]}."""
    sp = doc["spaces"]
    spaces = LatentSpaces(*(_cardinality(sp, name) for name in
                            ("n_core", "n_noncore", "n_obs", "n_classes")))
    family = build_family(spaces, doc["p_x_given_cn"], doc["p_y_given_c"])
    domains = []
    for i, d in enumerate(doc.get("domains", [])):
        variant = d.get("variant", "CLD")
        did = d.get("domain_id", f"d{i}")
        if variant == "CLD3":
            dom = make_domain(family, variant, domain_id=did, p_y=d["p_y"],
                              p_c_given_y=d["p_c_given_y"],
                              p_n_given_c=d["p_n_given_c"])
        else:
            dom = make_domain(family, variant, domain_id=did, p_cn=d["p_cn"])
        domains.append(dom)
    return family, domains


def family_to_dict(family: CldFamily, domains: list[DomainSpec]) -> dict:
    s = family.spaces
    doc = {
        "spaces": {"n_core": s.n_core, "n_noncore": s.n_noncore,
                   "n_obs": s.n_obs, "n_classes": s.n_classes},
        "p_x_given_cn": family.p_x_given_cn.tolist(),
        "p_y_given_c": family.p_y_given_c.tolist(),
        "domains": [],
    }
    for d in domains:
        entry = {"variant": d.variant, "domain_id": d.domain_id}
        if d.variant == "CLD3":
            entry["p_y"] = d.p_y.tolist()
            entry["p_c_given_y"] = d.p_c_given_y.tolist()
            entry["p_n_given_c"] = d.p_n_given_c.tolist()
        else:
            entry["p_cn"] = d.p_cn.tolist()
        doc["domains"].append(entry)
    return doc


def load_family_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))
