"""Per-layer metrics computed from the spans of a traced run.

Layers are the pcapass modules. Times are summed over the traced operations
and divided by their number, so every value is per operation. A layer that
does no work on a workload reads 0. The SpMM flop and byte figures are
computed from the operand shapes, not measured.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, covered, self_times

# name -> (unit, which direction is better), in the order they are reported
METRICS = {
    "graph.prepare_s": ("s", "lower"),
    "graph.load_edge_list_s": ("s", "lower"),
    "graph.nnz": ("count", "lower"),
    "aggregate.spmm_s": ("s", "lower"),
    "aggregate.calls": ("count", "lower"),
    "aggregate.computed_gflop": ("GFLOP", "lower"),
    "aggregate.computed_gbyte": ("GB", "lower"),
    "pca.fit_s": ("s", "lower"),
    "pca.fit_calls": ("count", "lower"),
    "pca.fit_rows_per_s": ("1/s", "higher"),
    "pca.transform_s": ("s", "lower"),
    "embed.self_s": ("s", "lower"),
    "embed.hops": ("count", "lower"),
    "embed.csv_write_s": ("s", "lower"),
    "embed.csv_read_s": ("s", "lower"),
    "datasets.generate_sbm_s": ("s", "lower"),
    "datasets.save_s": ("s", "lower"),
    "datasets.load_self_s": ("s", "lower"),
    "datasets.load_calls": ("count", "lower"),
    "fileio.write_s": ("s", "lower"),
    "fileio.bytes_written": ("bytes", "lower"),
    "gbdt.train_s": ("s", "lower"),
    "gbdt.grow_self_s": ("s", "lower"),
    "gbdt.tree_predict_s": ("s", "lower"),
    "gbdt.tree_predict_calls": ("count", "lower"),
    "gbdt.rounds": ("count", "lower"),
    "gbdt.trees": ("count", "lower"),
    "gbdt.tree_nodes": ("count", "lower"),
    "gbdt.useful_round_ratio": ("ratio", "higher"),
    "gbdt.predict_s": ("s", "lower"),
    "gbdt.serialize_s": ("s", "lower"),
    "metrics.kmeans_s": ("s", "lower"),
    "metrics.kmeans_calls": ("count", "lower"),
    "metrics.v_measure_s": ("s", "lower"),
    "metrics.standardize_s": ("s", "lower"),
    "analysis.sweep_s": ("s", "lower"),
    "analysis.hpo_s": ("s", "lower"),
    "analysis.worker_cpu_s": ("s", "lower"),
    "analysis.gil_wait_s": ("s", "lower"),
    "analysis.parallelism": ("ratio", "higher"),
    "cli.gen_s": ("s", "lower"),
    "cli.embed_s": ("s", "lower"),
    "cli.train_s": ("s", "lower"),
    "cli.eval_s": ("s", "lower"),
    "cli.sweep_s": ("s", "lower"),
    "cli.hpo_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def spmm_model(nnz: int, n: int, f: int) -> tuple[int, int]:
    """(flop, bytes) of one CSR (n x n, nnz entries) times dense (n x f).

    One multiply and one add per entry and column. Bytes assume each operand
    moves once: float64 values and int64 column ids per entry, int64 row
    pointers, the dense input read and the output written.
    """
    flop = 2 * nnz * f
    nbytes = 16 * nnz + 8 * (n + 1) + 2 * 8 * n * f
    return flop, nbytes


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _probe_prepare(counts, args, kwargs, result):
    counts["nnz"] = result.n_entries


def _probe_aggregate(counts, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    counts["flop"], counts["bytes"] = spmm_model(g.n_entries, g.n_nodes, result.shape[1])


def _probe_pca_fit(counts, args, kwargs, result):
    counts["rows"] = len(_arg(args, kwargs, 0, "X"))


def _probe_hop(counts, args, kwargs, item):
    counts["hops"] = 1


def _probe_write(counts, args, kwargs, result):
    counts["bytes"] = len(_arg(args, kwargs, 1, "data"))


def _probe_train(counts, args, kwargs, model):
    counts["rounds"] = len(model.rounds)
    counts["useful_rounds"] = model.best_round + 1
    counts["trees"] = sum(len(r) for r in model.rounds)
    counts["tree_nodes"] = sum(t.n_nodes for r in model.rounds for t in r)


PROBES = {
    "graph.prepare": _probe_prepare,
    "aggregate.aggregate": _probe_aggregate,
    "pca.pca_fit": _probe_pca_fit,
    "embed.hop_states": _probe_hop,
    "fileio.write_bytes_atomic": _probe_write,
    "gbdt.gbdt_train": _probe_train,
}


class _Spans:
    def __init__(self, spans: list[Span]):
        self.by_id = {s.id: s for s in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
        self.selfs = self_times(spans)

    def _named(self, names):
        return [s for n in names for s in self.by_name.get(n, ())]

    def wall(self, *names) -> float:
        """Wall time of the named spans, not counting one nested in another."""
        names = set(names)
        total = 0.0
        for s in self._named(names):
            p = s.parent
            while p is not None and self.by_id[p].name not in names:
                p = self.by_id[p].parent
            if p is None:
                total += s.wall
        return total

    def self_time(self, *names) -> float:
        return sum(self.selfs[s.id] for s in self._named(names))

    def calls(self, name) -> int:
        return len(self.by_name.get(name, ()))

    def count(self, name, key):
        return sum(s.counts.get(key, 0) for s in self.by_name.get(name, ()))

    def layer_wall(self, layer) -> float:
        return self.wall(*(n for n in self.by_name if n.split(".", 1)[0] == layer))


def per_layer(spans: list[Span], ops: int, main_thread: int) -> dict[str, float]:
    """Per-operation layer metrics over `ops` traced operations.

    Spans of pool threads are the root spans on threads other than
    `main_thread`. Their CPU time is the workers' CPU; wall minus CPU is the
    time they held no core, which in a GIL-bound pool is mostly waiting for
    the lock.
    """
    t = _Spans(spans)
    workers = [s for s in spans if s.thread != main_thread and s.parent is None]
    worker_cpu = sum(s.cpu for s in workers)
    pool_wall = covered([(s.start, s.end) for s in workers], float("-inf"), float("inf"))
    fit_s = t.wall("pca.pca_fit")
    rounds = t.count("gbdt.gbdt_train", "rounds")
    nnz = [s.counts["nnz"] for s in t.by_name.get("graph.prepare", ())]
    totals = {
        "graph.prepare_s": t.wall("graph.prepare"),
        "graph.load_edge_list_s": t.wall("graph.load_edge_list"),
        "aggregate.spmm_s": t.wall("aggregate.aggregate", "aggregate.aggregate_k"),
        "aggregate.calls": t.calls("aggregate.aggregate"),
        "aggregate.computed_gflop": t.count("aggregate.aggregate", "flop") / 1e9,
        "aggregate.computed_gbyte": t.count("aggregate.aggregate", "bytes") / 1e9,
        "pca.fit_s": fit_s,
        "pca.fit_calls": t.calls("pca.pca_fit"),
        "pca.transform_s": t.wall("pca.pca_transform"),
        "embed.self_s": t.self_time(
            "embed.embed", "embed.hop_states", "embed.pcapass_embed", "embed.skip_embed"
        ),
        "embed.hops": t.count("embed.hop_states", "hops"),
        "embed.csv_write_s": t.wall("embed.embeddings_to_csv"),
        "embed.csv_read_s": t.wall("embed.embeddings_from_csv"),
        "datasets.generate_sbm_s": t.wall("datasets.generate_sbm"),
        "datasets.save_s": t.wall("datasets.save_dataset"),
        "datasets.load_self_s": t.self_time("datasets.load_dataset"),
        "datasets.load_calls": t.calls("datasets.load_dataset"),
        "fileio.write_s": t.layer_wall("fileio"),
        "fileio.bytes_written": t.count("fileio.write_bytes_atomic", "bytes"),
        "gbdt.train_s": t.wall("gbdt.gbdt_train"),
        "gbdt.grow_self_s": t.self_time("gbdt.gbdt_train"),
        "gbdt.tree_predict_s": t.wall("gbdt.Tree.predict"),
        "gbdt.tree_predict_calls": t.calls("gbdt.Tree.predict"),
        "gbdt.rounds": rounds,
        "gbdt.trees": t.count("gbdt.gbdt_train", "trees"),
        "gbdt.tree_nodes": t.count("gbdt.gbdt_train", "tree_nodes"),
        "gbdt.predict_s": t.wall("gbdt.gbdt_predict", "gbdt.gbdt_predict_proba"),
        "gbdt.serialize_s": t.wall(
            "gbdt.gbdt_to_bytes", "gbdt.gbdt_from_bytes", "gbdt.gbdt_dump_text"
        ),
        "metrics.kmeans_s": t.wall("metrics.kmeans"),
        "metrics.kmeans_calls": t.calls("metrics.kmeans"),
        "metrics.v_measure_s": t.wall("metrics.v_measure"),
        "metrics.standardize_s": t.wall("metrics.standardize"),
        "analysis.sweep_s": t.wall("analysis.oversmoothing_sweep"),
        "analysis.hpo_s": t.wall("analysis.random_search"),
        "analysis.worker_cpu_s": worker_cpu,
        "analysis.gil_wait_s": sum(s.wall - s.cpu for s in workers),
    }
    for cmd in ("gen", "embed", "train", "eval", "sweep", "hpo"):
        totals[f"cli.{cmd}_s"] = t.wall(f"cli.{cmd}")
    out = {name: value / ops for name, value in totals.items()}
    # sizes and ratios are not per-operation sums
    out["graph.nnz"] = max(nnz, default=0)
    out["pca.fit_rows_per_s"] = t.count("pca.pca_fit", "rows") / fit_s if fit_s else 0.0
    out["gbdt.useful_round_ratio"] = (
        t.count("gbdt.gbdt_train", "useful_rounds") / rounds if rounds else 0.0
    )
    out["analysis.parallelism"] = worker_cpu / pool_wall if pool_wall else 0.0
    return out
