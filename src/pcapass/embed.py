"""Node embedding recurrences.

Three embedders share one hop loop:

* pcapass: aggregate the neighborhood, concatenate with the previous state
  (a skip connection that doubles the width), then fit-and-apply PCA to pull
  the width back to at most d. The concatenation is never built: `pca_fit`
  and `pca_transform` take its two halves (`right`), sum its Gram matrix
  and project it one chunk of rows at a time, and the new state is written
  into the aggregate's buffer. Memory per node stays O(d) no matter how
  many hops run: a hop holds about 2 n x d float64 arrays, the previous
  state and the aggregate, so it peaks inside `aggregate`.
* message_passing: plain repeated aggregation, the baseline most exposed to
  over-smoothing.
* skip_connections: average the aggregated state with the previous one,
  keeping the input width.

Each hop's aggregation builds its operator's weights, 8 bytes per CSR
entry, one row block of about half a million entries at a time (see
`aggregate`). At f = d = 16 and 21 CSR entries per node, each of the three
methods peaks at about 3.4-3.7 n x f float64 arrays on a graph of one block,
and at about 2.3-2.5 such arrays on a graph of many blocks, 2.5-2.7 when two
threads hold two blocks' weights.

Every hop lends OpenBLAS's threads to the aggregate's row blocks: OpenBLAS
runs on 1 thread during the hop, since its idle threads spin-wait on the
cores the blocks need, and gets its count back before the hop's state is
yielded. `aggregate` runs its blocks on that count, at most one thread per
usable core and per block, so a graph of one block, or a pool worker of
`analysis` capped at 1 OpenBLAS thread, runs them on the calling thread. A
pcapass hop's fit and projection run on the calling thread. The bytes are
the same at any thread count.

Embeddings are stored as CSV, written and read by `fileio`'s table writer
and table reader.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from . import parallel
from .aggregate import Aggregator, aggregate
from .fileio import _format_rows, _read_table
from .graph import CsrGraph
from .pca import PcaModel, pca_fit, pca_transform
from .schema import check_settings, setting


class Method(Enum):
    PCAPASS = "pcapass"
    MESSAGE_PASSING = "message_passing"
    SKIP_CONNECTIONS = "skip_connections"


@dataclass(frozen=True)
class EmbedConfig:
    """Embedding settings. Each field's help text is its `help` metadata; the
    CLI's config keys of the same names are derived from these fields."""

    method: Method = setting(Method.PCAPASS, "embedder")
    aggregator: Aggregator = setting(Aggregator.MEAN, "neighborhood aggregation")
    k: int = setting(8, "number of aggregation hops", low=0)
    d: int = setting(16, "embedding dimension (pcapass only)", low=1)

    def __post_init__(self):
        check_settings(self)


@dataclass
class EmbedResult:
    embeddings: np.ndarray
    per_hop_models: list[PcaModel] = field(default_factory=list)


@contextmanager
def _block_threads() -> Iterator[int]:
    """The threads one hop offers `aggregate`'s row blocks: OpenBLAS's thread
    count, at most one per usable core. OpenBLAS runs on 1 thread meanwhile,
    so that its idle threads do not spin on the cores the blocks run on; the
    caller's count is restored on exit."""
    blas = parallel._blas_threads()
    parallel._set_blas_threads(1)
    try:
        yield min(blas, parallel._usable_cores())
    finally:
        parallel._set_blas_threads(blas)


def hop_states(
    g: CsrGraph, X, cfg: EmbedConfig
) -> Iterator[tuple[np.ndarray, Optional[PcaModel]]]:
    """Yield (state, pca_model) after each hop 1..k; model is None except
    for the pcapass method. The initial state is the raw input features.
    Each hop's work runs under `_block_threads`, so OpenBLAS has the
    caller's thread count at each yield."""
    h = np.ascontiguousarray(X, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != g.n_nodes:
        raise ValueError(
            f"feature matrix must have {g.n_nodes} rows, got shape {h.shape}"
        )
    warned = False
    for _ in range(cfg.k):
        with _block_threads() as threads:
            model = None
            if cfg.method is Method.PCAPASS:
                # the hop owns the aggregate `A` and never writes to `h`
                A = aggregate(g, h, cfg.aggregator, threads)
                model = pca_fit(A, cfg.d, right=h)
                if model.n_components < cfg.d and not warned:
                    warnings.warn(
                        f"requested dimension {cfg.d} capped at {model.n_components} "
                        f"(concatenated width {model.n_features}, {g.n_nodes} nodes)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    warned = True
                # the new state is written into A's rows when it is as wide
                out = A if model.n_components == A.shape[1] else None
                h = pca_transform(model, A, right=h, out=out)
                del A, out  # not held through the next hop's aggregate
            elif cfg.method is Method.SKIP_CONNECTIONS:
                h = (aggregate(g, h, cfg.aggregator, threads) + h) / 2.0
            else:
                h = aggregate(g, h, cfg.aggregator, threads)
        yield h, model


def embed(g: CsrGraph, X, cfg: EmbedConfig) -> EmbedResult:
    """Run the configured embedder for cfg.k hops."""
    h = None
    models: list[PcaModel] = []
    for h, model in hop_states(g, X, cfg):
        if model is not None:
            models.append(model)
    if h is None:  # no hop ran: the result is a copy of the input
        h = np.array(X, dtype=np.float64, copy=True)
    return EmbedResult(embeddings=h, per_hop_models=models)


def embeddings_to_csv(H: np.ndarray) -> str:
    return _format_rows("", *np.asarray(H, dtype=np.float64).T)


def embeddings_from_csv(path) -> np.ndarray:
    """The embeddings CSV at `path`, as `embeddings_to_csv` writes it, read by
    `fileio._read_table`. A bad token, a row whose width differs from the
    first or a non-finite value raises DataError naming the file and line."""

    def check(H):
        finite = np.isfinite(H).all(axis=1)
        return None if finite.all() else (int(np.argmin(finite)), "non-finite value")

    return _read_table(path, np.float64, check=check)
