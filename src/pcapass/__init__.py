"""Graph node embeddings via neighborhood aggregation, concatenation skip
connections and per-hop PCA, with a from-scratch GBDT classifier and the
over-smoothing / generalization analyses built on top."""

from .aggregate import Aggregator, aggregate
from .analysis import (
    HpoRecord,
    SearchSpace,
    SweepConfig,
    SweepResult,
    hpo_summary,
    normalize_scores,
    oversmoothing_sweep,
    random_search,
)
from .datasets import (
    Dataset,
    SbmParams,
    generate_sbm,
    load_dataset,
    load_labels_and_splits,
    save_dataset,
)
from .embed import EmbedConfig, EmbedResult, Method, embed, hop_states
from .errors import ConfigError, DataError
from .gbdt import (
    GbdtModel,
    GbdtParams,
    Tree,
    gbdt_from_bytes,
    gbdt_predict,
    gbdt_predict_proba,
    gbdt_to_bytes,
    gbdt_train,
)
from .graph import CsrGraph, EdgeList, load_edge_list, prepare
from .metrics import (
    accuracy,
    cross_entropy,
    kmeans,
    pearson_correlation,
    standardize,
    v_measure,
)
from .pca import PcaModel, explained_variance_ratio, pca_fit, pca_transform

__version__ = "0.1.0"

__all__ = [
    "Aggregator",
    "ConfigError",
    "CsrGraph",
    "DataError",
    "Dataset",
    "EdgeList",
    "EmbedConfig",
    "EmbedResult",
    "GbdtModel",
    "GbdtParams",
    "HpoRecord",
    "Method",
    "PcaModel",
    "SbmParams",
    "SearchSpace",
    "SweepConfig",
    "SweepResult",
    "Tree",
    "accuracy",
    "aggregate",
    "cross_entropy",
    "embed",
    "explained_variance_ratio",
    "gbdt_from_bytes",
    "gbdt_predict",
    "gbdt_predict_proba",
    "gbdt_to_bytes",
    "gbdt_train",
    "generate_sbm",
    "hop_states",
    "hpo_summary",
    "kmeans",
    "load_dataset",
    "load_edge_list",
    "load_labels_and_splits",
    "normalize_scores",
    "oversmoothing_sweep",
    "pca_fit",
    "pca_transform",
    "pearson_correlation",
    "prepare",
    "random_search",
    "save_dataset",
    "standardize",
    "v_measure",
]
