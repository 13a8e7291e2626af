"""Node embedding recurrences.

Three embedders share one hop loop:

* pcapass: aggregate the neighborhood, concatenate with the previous state
  (a skip connection that doubles the width), then fit-and-apply PCA to pull
  the width back to at most d. Memory per node stays O(d) no matter how many
  hops run.
* message_passing: plain repeated aggregation, the baseline most exposed to
  over-smoothing.
* skip_connections: average the aggregated state with the previous one,
  keeping the input width.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .aggregate import Aggregator, aggregate
from .graph import CsrGraph
from .pca import PcaModel, pca_fit, pca_transform

EMBED_MAGIC = b"PCAE"


class Method(Enum):
    PCAPASS = "pcapass"
    MESSAGE_PASSING = "message_passing"
    SKIP_CONNECTIONS = "skip_connections"


@dataclass(frozen=True)
class EmbedConfig:
    k: int
    d: int
    aggregator: Aggregator = Aggregator.MEAN
    method: Method = Method.PCAPASS

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"hop count must be >= 0, got {self.k}")
        if self.d < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {self.d}")


@dataclass
class EmbedResult:
    embeddings: np.ndarray
    per_hop_models: list[PcaModel] = field(default_factory=list)
    hops_run: int = 0


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
            agg = aggregate(g, h, cfg.aggregator)
            combined = np.hstack((agg, h))
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
    h = np.array(X, dtype=np.float64, copy=True)
    models: list[PcaModel] = []
    hops = 0
    for h, model in hop_states(g, X, cfg):
        hops += 1
        if model is not None:
            models.append(model)
    return EmbedResult(embeddings=h, per_hop_models=models, hops_run=hops)


def embeddings_to_csv(H: np.ndarray) -> str:
    lines = [",".join(f"{x:.9g}" for x in row) for row in np.asarray(H)]
    return "\n".join(lines) + "\n"


def embeddings_from_csv(text: str) -> np.ndarray:
    """Parse `embeddings_to_csv` output. A bad token, a non-finite value or a
    row whose width differs from the first raises ValueError naming the line."""
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {number}: non-finite value")
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {number}: {len(row)} values, expected {len(rows[0])}")
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def embeddings_to_binary(H: np.ndarray) -> bytes:
    H = np.ascontiguousarray(H)
    header = EMBED_MAGIC + struct.pack("<QQ", H.shape[0], H.shape[1])
    return header + H.astype("<f4").tobytes()


def embeddings_from_binary(buf: bytes) -> np.ndarray:
    """Decode `embeddings_to_binary` output; malformed input raises ValueError."""
    if buf[:4] != EMBED_MAGIC:
        raise ValueError("bad magic: not a serialized embedding matrix")
    if len(buf) < 20:
        raise ValueError(f"truncated embedding header: {len(buf)} of 20 bytes")
    n, d = struct.unpack_from("<QQ", buf, 4)
    if len(buf) != 20 + 4 * n * d:  # Python integers, so a huge header cannot overflow
        raise ValueError(f"{n} x {d} embedding needs {20 + 4 * n * d} bytes, got {len(buf)}")
    data = np.frombuffer(buf, dtype="<f4", count=n * d, offset=20)
    return data.reshape(n, d).astype(np.float64)
