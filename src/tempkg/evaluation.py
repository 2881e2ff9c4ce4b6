"""Filtered ranking, MRR/Hits aggregation, and frequency-binned breakdowns.

Ranking uses the filtered protocol: candidates completing another known true
fact at the same time step are removed before the true answer's rank is
computed. Ties are resolved pessimistically, so a constant scorer cannot
inflate the metrics. Every test fact contributes two queries, one per
direction.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .data import TkgDataset, TrueTripleIndex
from .heterogeneity import PATTERN_KINDS, TpfTable

# (pattern kind, query direction) pairs studied in the two effect groups:
# the replication group pairs each query direction with frequencies that
# include the answer entity, the reference group with those that do not.
REPLICATION_PAIRINGS = (("s", "subject"), ("sr", "subject"), ("o", "object"),
                        ("ro", "object"), ("so", "subject"), ("so", "object"),
                        ("sro", "subject"), ("sro", "object"))
REFERENCE_PAIRINGS = (("s", "object"), ("sr", "object"),
                      ("o", "subject"), ("ro", "subject"))


@dataclass(frozen=True)
class QueryResult:
    direction: str            # 'object' for (s, r, ?, t); 'subject' for (?, r, o, t)
    subject: int
    relation: int
    object: int
    time: int
    rank: int                 # 1-based rank of the true answer after filtering
    tpf: dict[str, int] | None = None


@dataclass
class RankingReport:
    entity_count: int
    results: list[QueryResult] = field(default_factory=list)

    @property
    def mrr(self) -> float:
        return float(np.mean([1.0 / r.rank for r in self.results]))

    def hits(self, k: int) -> float:
        return float(np.mean([r.rank <= k for r in self.results]))

    def summary(self) -> dict[str, float]:
        return {"MRR": self.mrr, "Hits@1": self.hits(1), "Hits@3": self.hits(3),
                "Hits@10": self.hits(10), "queries": float(len(self.results))}

    def check_invariants(self) -> None:
        """Raise AssertionError on a degenerate report, also under ``python -O``."""
        if not self.results:
            raise AssertionError("empty report")
        if not all(1 <= r.rank <= self.entity_count for r in self.results):
            raise AssertionError(f"a rank lies outside [1, {self.entity_count}]")
        if not 1.0 / self.entity_count <= self.mrr <= 1.0:
            raise AssertionError(f"MRR {self.mrr} outside [1/{self.entity_count}, 1]")
        if not self.hits(1) <= self.hits(3) <= self.hits(10) <= 1.0:
            raise AssertionError("Hits@1 <= Hits@3 <= Hits@10 <= 1 does not hold")


def rank_query(scores: np.ndarray, true_entity: int, filtered: np.ndarray) -> int:
    """Pessimistic filtered rank of the true entity within a score vector.

    ``filtered`` holds candidate ids to drop; the true answer itself is never
    dropped. Every kept candidate whose score is not below the answer's counts
    against it, so ties and non-finite rivals rank ahead; a non-finite answer
    score ranks behind every kept candidate.
    """
    keep = np.ones(len(scores), dtype=bool)
    if len(filtered):
        keep[filtered] = False
    keep[true_entity] = False
    answer = scores[true_entity]
    if not np.isfinite(answer):
        return 1 + int(np.count_nonzero(keep))
    return 1 + int(np.count_nonzero(~(scores[keep] < answer)))


def rank_snapshots(entity_count: int, snapshots, snapshot_scorer,
                   filter_index: TrueTripleIndex, tpf: TpfTable | None = None,
                   ) -> RankingReport:
    """Rank both query directions of every fact in ``snapshots``, an iterable
    of (t, triples) pairs; ``tpf`` attaches pattern frequencies to each result."""
    report = RankingReport(entity_count)
    for t, triples in snapshots:
        obj_scores, sub_scores = snapshot_scorer(t, triples)
        counts = tpf.frequencies(triples, t).tolist() if tpf is not None else None
        for i, (s, r, o) in enumerate(triples.tolist()):
            freqs = dict(zip(PATTERN_KINDS, counts[i])) if counts is not None else None
            report.results.append(QueryResult(
                "object", s, r, o, t,
                rank_query(obj_scores[i], o, filter_index.objects_for(s, r, t)),
                freqs))
            report.results.append(QueryResult(
                "subject", s, r, o, t,
                rank_query(sub_scores[i], s, filter_index.subjects_for(r, o, t)),
                freqs))
    return report


def evaluate(dataset: TkgDataset, split: str, snapshot_scorer,
             filter_index: TrueTripleIndex, tpf: TpfTable | None = None,
             ) -> RankingReport:
    """Rank both query directions of every fact in a split.

    ``snapshot_scorer(t, triples)`` must return (object_scores, subject_scores)
    arrays of shape (len(triples), entity_count): row i scores every candidate
    completion of triples[i] in the respective direction.
    """
    report = rank_snapshots(dataset.entity_count,
                            [(snap.time, snap.triples)
                             for snap in dataset.splits[split] if len(snap)],
                            snapshot_scorer, filter_index, tpf)
    report.check_invariants()
    return report


# --- frequency-binned breakdown ------------------------------------------------

def frequency_bin(freq: int) -> int:
    """Unit-width bin index in log10(1 + f)."""
    return int(math.floor(math.log10(1.0 + freq)))


def tpf_binned_analysis(results: list[QueryResult], hits_k: int = 10) -> list[dict]:
    """Per-bin Hits@k for every studied (pattern kind, direction) pairing.

    Returns one record per occupied or declared bin with its query count;
    empty bins up to the observed maximum are emitted with a null metric.
    """
    rows = []
    for group, pairings in (("replication", REPLICATION_PAIRINGS),
                            ("reference", REFERENCE_PAIRINGS)):
        for kind, direction in pairings:
            selected = [r for r in results if r.direction == direction
                        and r.tpf is not None]
            if not selected:
                continue
            bins: dict[int, list[int]] = {}
            for r in selected:
                bins.setdefault(frequency_bin(r.tpf[kind]), []).append(r.rank)
            for b in range(0, max(bins) + 1):
                ranks = bins.get(b, [])
                rows.append({
                    "pattern_kind": kind,
                    "direction": direction,
                    "group": group,
                    "bin_lo": b,
                    "bin_hi": b + 1,
                    "count": len(ranks),
                    f"hits{hits_k}": (float(np.mean([rk <= hits_k for rk in ranks]))
                                      if ranks else None),
                })
    return rows


# --- report emission -------------------------------------------------------------

def atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_summary_csv(report: RankingReport, path) -> None:
    lines = ["metric,value"]
    for metric, value in report.summary().items():
        lines.append(f"{metric},{value:.6f}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_results_jsonl(report: RankingReport, path) -> None:
    lines = []
    for r in report.results:
        record = {"direction": r.direction, "subject": r.subject,
                  "relation": r.relation, "object": r.object, "time": r.time,
                  "rank": r.rank}
        if r.tpf is not None:
            record["tpf"] = r.tpf
        lines.append(json.dumps(record, sort_keys=True))
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def read_results_jsonl(path) -> list[QueryResult]:
    results = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            results.append(QueryResult(rec["direction"], rec["subject"],
                                       rec["relation"], rec["object"], rec["time"],
                                       rec["rank"], rec.get("tpf")))
    return results


def write_bins_csv(rows: list[dict], path, hits_k: int = 10) -> None:
    header = ["pattern_kind", "direction", "bin_lo", "bin_hi", "count", f"hits{hits_k}"]
    out = [",".join(header)]
    for row in rows:
        metric = row[f"hits{hits_k}"]
        out.append(",".join([
            str(row["pattern_kind"]), str(row["direction"]),
            str(row["bin_lo"]), str(row["bin_hi"]), str(row["count"]),
            "" if metric is None else f"{metric:.6f}",
        ]))
    atomic_write(path, "\n".join(out) + "\n")
