"""Node embedding recurrences.

Three embedders share one hop loop:

* pcapass: aggregate the neighborhood, concatenate with the previous state
  (a skip connection that doubles the width), then fit-and-apply PCA to pull
  the width back to at most d. Memory per node stays O(d) no matter how many
  hops run: a hop peaks at about 6 n x d float64 arrays, namely the previous
  state, the 2d-wide concatenation, the centered copy `pca_transform` makes
  of it, and the new state.
* message_passing: plain repeated aggregation, the baseline most exposed to
  over-smoothing.
* skip_connections: average the aggregated state with the previous one,
  keeping the input width.

Each hop's aggregation builds its operator's weights, 8 bytes per CSR
entry, one row block of about half a million entries at a time (see
`aggregate`). At f = 16 and 21 CSR entries per node, message_passing and
skip_connections peak at about 3.5-3.7 n x f float64 arrays on a graph of
one block, and at about 2.3-2.5 such arrays on a graph of many blocks.

Embeddings are stored as CSV, written and read by `fileio`'s table writer
and table reader.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

import numpy as np

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


def hop_states(
    g: CsrGraph, X, cfg: EmbedConfig
) -> Iterator[tuple[np.ndarray, Optional[PcaModel]]]:
    """Yield (state, pca_model) after each hop 1..k; model is None except
    for the pcapass method. The initial state is the raw input features."""
    h = np.ascontiguousarray(X, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != g.n_nodes:
        raise ValueError(
            f"feature matrix must have {g.n_nodes} rows, got shape {h.shape}"
        )
    warned = False
    for _ in range(cfg.k):
        if cfg.method is Method.PCAPASS:
            combined = np.hstack((aggregate(g, h, cfg.aggregator), h))
            model = pca_fit(combined, cfg.d)
            if model.n_components < cfg.d and not warned:
                warnings.warn(
                    f"requested dimension {cfg.d} capped at {model.n_components} "
                    f"(concatenated width {combined.shape[1]}, {g.n_nodes} nodes)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                warned = True
            h = pca_transform(model, combined)
            yield h, model
        elif cfg.method is Method.SKIP_CONNECTIONS:
            h = (aggregate(g, h, cfg.aggregator) + h) / 2.0
            yield h, None
        else:
            h = aggregate(g, h, cfg.aggregator)
            yield h, None


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
