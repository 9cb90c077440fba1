"""Named, splittable random streams.

All randomness in the package flows from one integer base seed through named
substreams (``data``, ``init``, ``pairs``, ``mixup``, ``eval``, ...).  Each
substream is an independent counter-based Philox generator, so re-seeding one
component never perturbs another, and drawing a block of n variates yields a
prefix of the block drawn for any larger n.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(base_seed: int, name: str) -> np.random.Generator:
    """Return the named Philox substream of ``base_seed``.

    The stream key mixes the base seed with a hash of the name, so distinct
    names give statistically independent streams and the mapping is stable
    across processes and platforms.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    tag = int.from_bytes(digest[:8], "little")
    seq = np.random.SeedSequence(entropy=(int(base_seed) & ((1 << 63) - 1), tag))
    return np.random.Generator(np.random.Philox(seq))


def derive_seed(base_seed: int, label: str) -> int:
    """Deterministically derive an integer seed for a labeled purpose.

    Used by the harness to give each (purpose, domain) its own seed, e.g.
    ``derive_seed(seed, "data:source")``, without coupling draw order across
    components.
    """
    digest = hashlib.sha256(f"{int(base_seed)}\x1f{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & ((1 << 62) - 1)


def categorical_rows(row_pmfs: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized per-record categorical draw.

    ``row_pmfs`` is a [rows, k] table, ``rows`` selects one pmf per record and
    ``u`` supplies one uniform variate per record.  Inverse-CDF keeps the
    record-to-draw mapping independent of every other record.
    """
    cdf = np.cumsum(row_pmfs, axis=1)
    cdf[:, -1] = 1.0
    picked = cdf[rows]
    return (picked > u[:, None]).argmax(axis=1).astype(np.int64)
