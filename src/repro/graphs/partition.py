"""Graph partitioning into disk blocks (paper §6.2, §7.5).

GraSorw's default is a *sequential partition*: vertices in id order are
packed into blocks until each block's CSR slice reaches the configured
block size. We reproduce that, plus a METIS substitute (``metis_lite``):
Spark label-propagation communities packed into equal-byte blocks and then
relabeled contiguously — the paper uses METIS only to raise block density /
lower edge-cut, and LPA-packing achieves the same qualitative effect
(documented substitution in DESIGN.md §4).

A :class:`Partition` is always a set of contiguous vertex-id ranges; custom
partitions are expressed as a vertex relabeling (permutation) followed by a
sequential-range partition, which is equivalent to the paper's block file.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.generators import degrees, to_directed

VALUE_BYTES = 4  # the paper stores each CSR index/value in 4 bytes (Fig. 5)


@dataclass(frozen=True)
class Partition:
    """Contiguous-range vertex partition: block b = [starts[b], starts[b+1])."""

    block_starts: np.ndarray  # int64, length n_blocks+1; starts[0]=0, starts[-1]=n

    @property
    def n_blocks(self) -> int:
        return len(self.block_starts) - 1

    @property
    def n_vertices(self) -> int:
        return int(self.block_starts[-1])

    def block_of(self, v) -> np.ndarray:
        """Block id of each vertex id in ``v`` (array or scalar)."""
        return np.searchsorted(self.block_starts, np.asarray(v), side="right") - 1

    def block_slice(self, b: int) -> tuple[int, int]:
        return int(self.block_starts[b]), int(self.block_starts[b + 1])

    def vertices_in_block(self, b: int) -> int:
        lo, hi = self.block_slice(b)
        return hi - lo


def vertex_bytes(deg: np.ndarray, value_bytes: int = VALUE_BYTES) -> np.ndarray:
    """Disk bytes of one vertex's CSR share: one index entry + its neighbors."""
    return value_bytes * (1 + deg.astype(np.int64))


def degree_array(edges: DataFrame, n: int) -> np.ndarray:
    """Per-vertex degree as a dense numpy array (Spark aggregation)."""
    pdf = degrees(edges, n).toPandas().sort_values("v")
    out = np.zeros(n, dtype=np.int64)
    out[pdf["v"].to_numpy()] = pdf["deg"].to_numpy()
    return out


def sequential_partition(
    deg: np.ndarray,
    *,
    n_blocks: int | None = None,
    block_bytes: int | None = None,
    value_bytes: int = VALUE_BYTES,
) -> Partition:
    """Pack vertices in id order into blocks (paper's default partition).

    ``deg`` is the per-vertex degree array (``np.diff(csr.indptr)`` of a
    built CSR, or :func:`degree_array` of an edge DataFrame); the split is
    plain numpy, so it starts no Spark job. Exactly one of ``n_blocks``
    (equal-byte quantile split into exactly that many blocks) or
    ``block_bytes`` (greedy fill to the size cap, block count emerges) must
    be given. A quantile split puts several cuts on the same vertex when one
    vertex holds more than a block's share of the bytes (a hub); it then
    cannot give ``n_blocks`` non-empty blocks and raises ``ValueError``
    rather than return fewer.
    """
    if (n_blocks is None) == (block_bytes is None):
        raise ValueError("give exactly one of n_blocks / block_bytes")
    n = len(deg)
    vb = vertex_bytes(deg, value_bytes)
    cum = np.cumsum(vb)
    total = int(cum[-1])
    if n_blocks is not None:
        targets = total * np.arange(1, n_blocks) / n_blocks
        cuts = np.searchsorted(cum, targets, side="left") + 1
        starts = np.unique(np.concatenate([[0], cuts, [n]])).astype(np.int64)
        if len(starts) - 1 != n_blocks:
            raise ValueError(
                f"sequential_partition: requested {n_blocks} blocks, but the equal-byte "
                f"split of {n} vertices gives only {len(starts) - 1} non-empty blocks"
            )
    else:
        cumx = cum - vb  # exclusive prefix
        bid = cumx // block_bytes
        _, first = np.unique(bid, return_index=True)
        starts = np.concatenate([first, [n]]).astype(np.int64)
    return Partition(block_starts=starts)


def block_map_df(spark: SparkSession, part: Partition) -> DataFrame:
    """Vertex→block mapping as a DataFrame (for joins and oracle checks)."""
    v = np.arange(part.n_vertices, dtype=np.int64)
    return spark.createDataFrame(
        pd.DataFrame({"v": v, "block": part.block_of(v).astype(np.int64)})
    )


def edge_cut(edges: DataFrame, part: Partition) -> float:
    """Fraction of undirected edges whose endpoints land in different blocks."""
    bm = F.broadcast(block_map_df(edges.sparkSession, part))
    row = (
        edges.join(bm.withColumnRenamed("v", "src").withColumnRenamed("block", "bs"), "src")
        .join(bm.withColumnRenamed("v", "dst").withColumnRenamed("block", "bd"), "dst")
        .agg(F.avg((F.col("bs") != F.col("bd")).cast("double")).alias("cut"))
        .collect()[0]
    )
    return float(row["cut"])


def lpa_labels(edges: DataFrame, n: int, iters: int = 8) -> DataFrame:
    """Label propagation community detection (Spark DataFrame iterations).

    Labels start as the vertex ids. Each round, every vertex adopts the most
    frequent label among its neighbours' labels of the previous round, ties
    going to the smallest label; a vertex with no neighbours keeps its own.
    A round is one broadcast join that sends each arc's source label to its
    destination and one ``groupBy(v)`` whose ``mode(label, deterministic)``
    picks the winner (deterministic: the lowest label on a tie). A vertex
    hears a message iff it has an arc, so the rounds carry the labels of
    the non-isolated vertices only; one broadcast left join at the end
    gives the isolated ones their own id back. Returns (v, label).
    """
    spark = edges.sparkSession
    allv = spark.range(n).select(F.col("id").alias("v"))
    labels = allv.select("v", F.col("v").alias("label"))
    directed = to_directed(edges).localCheckpoint()
    for _ in range(iters):
        labels = (
            directed.join(F.broadcast(labels.withColumnRenamed("v", "src")), "src")
            .groupBy(F.col("dst").alias("v"))
            .agg(F.mode("label", True).alias("label"))
            .localCheckpoint()
        )
    return allv.join(F.broadcast(labels), "v", "left").select(
        "v", F.coalesce("label", "v").alias("label")
    )


def metis_lite_partition(
    edges: DataFrame,
    n: int,
    n_blocks: int,
    *,
    iters: int = 8,
    value_bytes: int = VALUE_BYTES,
) -> tuple[np.ndarray, Partition]:
    """METIS stand-in: LPA communities packed into ``n_blocks`` equal-byte bins.

    Returns ``(perm, partition)`` where ``perm[old_id] = new_id`` relabels
    vertices so each block is a contiguous new-id range (equivalent to the
    paper's custom block file; see DESIGN.md §4). Oversized communities are
    split at the bin capacity so blocks stay byte-balanced, mirroring the
    paper's "biggest block ≤ 1.03× the smallest" constraint approximately.
    """
    deg = degree_array(edges, n)
    vb = vertex_bytes(deg, value_bytes)
    labels_pdf = lpa_labels(edges, n, iters).toPandas().sort_values("v")
    lab = np.zeros(n, dtype=np.int64)
    lab[labels_pdf["v"].to_numpy()] = labels_pdf["label"].to_numpy()

    capacity = vb.sum() / n_blocks
    # Chunk each community into capacity-sized pieces (vertex-id order).
    order = np.lexsort((np.arange(n), lab))  # stable: by label, then id
    lab_sorted = lab[order]
    vb_sorted = vb[order]
    chunks: list[np.ndarray] = []
    start = 0
    for end in np.flatnonzero(np.diff(lab_sorted)).tolist() + [n - 1]:
        members = order[start : end + 1]
        cum = np.cumsum(vb_sorted[start : end + 1])
        piece = (cum - vb_sorted[start : end + 1]) // max(1, int(capacity))
        for pid in np.unique(piece):
            chunks.append(members[piece == pid])
        start = end + 1
    # Pack chunks into bins in ascending min-vertex-id order with a byte
    # capacity per bin. Keeping nearby communities in nearby bins preserves
    # whatever locality the original ordering had (important for web-like
    # graphs whose sequential layout is already community-correlated),
    # while the capacity keeps bins byte-balanced like METIS's size
    # constraint.
    chunk_bytes = np.array([vb[c].sum() for c in chunks], dtype=np.int64)
    order_chunks = np.argsort([int(c.min()) for c in chunks], kind="stable")
    bins: list[list[np.ndarray]] = [[] for _ in range(n_blocks)]
    loads = np.zeros(n_blocks, dtype=np.int64)
    b = 0
    for ci in order_chunks:
        if loads[b] > 0 and loads[b] + chunk_bytes[ci] > capacity and b < n_blocks - 1:
            b += 1
        bins[b].append(chunks[ci])
        loads[b] += chunk_bytes[ci]
    # Contiguous relabeling: bin order, then chunk order, then old id.
    perm = np.empty(n, dtype=np.int64)
    starts = [0]
    nxt = 0
    for b in range(n_blocks):
        for c in bins[b]:
            sv = np.sort(c)
            perm[sv] = np.arange(nxt, nxt + len(sv))
            nxt += len(sv)
        starts.append(nxt)
    return perm, Partition(block_starts=np.array(starts, dtype=np.int64))


def relabel_edges(edges: DataFrame, perm: np.ndarray) -> DataFrame:
    """Apply a vertex relabeling to a canonical edge list (stays canonical).

    The n-row relabeling table is broadcast to both joins."""
    spark = edges.sparkSession
    pm = F.broadcast(spark.createDataFrame(
        pd.DataFrame({"old": np.arange(len(perm), dtype=np.int64), "new": perm})
    ))
    out = (
        edges.join(pm.withColumnRenamed("old", "src").withColumnRenamed("new", "ns"), "src")
        .join(pm.withColumnRenamed("old", "dst").withColumnRenamed("new", "nd"), "dst")
        .select(
            F.least("ns", "nd").alias("src"), F.greatest("ns", "nd").alias("dst")
        )
    )
    return out
