"""Filtered ranking, MRR/Hits aggregation, and frequency-binned breakdowns.

Ranking uses the filtered protocol: candidates completing another known true
fact at the same time step are removed before the true answer's rank is
computed. Ties are resolved pessimistically, so a constant scorer cannot
inflate the metrics. Every test fact contributes two queries, one per
direction.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write
from .data import TkgDataset, TrueTripleIndex
from .heterogeneity import PATTERN_KINDS, TpfTable

log = logging.getLogger("tempkg")

# (pattern kind, query direction) pairs studied in the two effect groups:
# the replication group pairs each query direction with frequencies that
# include the answer entity, the reference group with those that do not.
REPLICATION_PAIRINGS = (("s", "subject"), ("sr", "subject"), ("o", "object"),
                        ("ro", "object"), ("so", "subject"), ("so", "object"),
                        ("sro", "subject"), ("sro", "object"))
REFERENCE_PAIRINGS = (("s", "object"), ("sr", "object"),
                      ("o", "subject"), ("ro", "subject"))

# Columns of a query record; 'object' queries ask (s, r, ?, t), 'subject'
# queries (?, r, o, t), and rank is the answer's 1-based filtered rank.
RESULT_FIELDS = (("direction", "U7"), ("subject", np.int64), ("relation", np.int64),
                 ("object", np.int64), ("time", np.int64), ("rank", np.int64))


def query_records(direction, quads, rank, tpf=None) -> np.recarray:
    """One row per query: its direction, the fact's (s, r, o, t) from the
    (q, 4) ``quads``, its rank and, when given, the (q, 7) pattern
    frequencies ``tpf`` in PATTERN_KINDS order."""
    columns = [direction, *np.reshape(quads, (-1, 4)).T, rank]
    if tpf is None:
        return np.rec.fromarrays(columns, dtype=list(RESULT_FIELDS))
    return np.rec.fromarrays(columns + [np.reshape(tpf, (-1, len(PATTERN_KINDS)))],
                             dtype=[*RESULT_FIELDS, ("tpf", np.int64, (len(PATTERN_KINDS),))])


@dataclass
class RankingReport:
    entity_count: int
    results: np.recarray = field(default_factory=lambda: query_records([], [], []))

    @property
    def mrr(self) -> float:
        return float(np.mean(1.0 / self.results.rank))

    def hits(self, k: int) -> float:
        return float(np.mean(self.results.rank <= k))

    def summary(self) -> dict[str, float]:
        return {"MRR": self.mrr, "Hits@1": self.hits(1), "Hits@3": self.hits(3),
                "Hits@10": self.hits(10), "queries": float(len(self.results))}

    def check_invariants(self) -> None:
        """Raise AssertionError on a degenerate report, also under ``python -O``."""
        if not len(self.results):
            raise AssertionError("empty report")
        ranks = self.results.rank
        if not np.all((1 <= ranks) & (ranks <= self.entity_count)):
            raise AssertionError(f"a rank lies outside [1, {self.entity_count}]")
        if not 1.0 / self.entity_count <= self.mrr <= 1.0:
            raise AssertionError(f"MRR {self.mrr} outside [1/{self.entity_count}, 1]")
        hits1, hits3, hits10 = (self.hits(k) for k in (1, 3, 10))
        if not hits1 <= hits3 <= hits10 <= 1.0:
            raise AssertionError("Hits@1 <= Hits@3 <= Hits@10 <= 1 does not hold")


def rank_query(scores: np.ndarray, true_entity: int, filtered: np.ndarray) -> int:
    """``filtered_ranks`` on one score row: the rank of ``true_entity``, with
    ``filtered`` the candidate ids to drop, repeats allowed."""
    ids = np.unique(np.asarray(filtered, dtype=np.int64))
    return int(filtered_ranks(np.reshape(scores, (1, -1)), np.array([true_entity]),
                              np.zeros(len(ids), dtype=np.int64), ids)[0])


def filtered_ranks(scores: np.ndarray, answers: np.ndarray, rows: np.ndarray,
                   ids: np.ndarray) -> np.ndarray:
    """Pessimistic filtered rank of each row's true entity in a (q, E) score
    matrix of any real dtype, such as TedModel's tie-free integer scores.

    ``answers`` holds each row's true entity and (rows, ids) its filtered
    candidate ids, distinct within a row. A rank is 1 + #{j : not score_j <
    answer}, less the answer itself and the filtered ids other than the answer
    that pass the same test, so ties and non-finite rivals rank ahead; a
    non-finite answer ranks behind every kept candidate.
    """
    q, entity_count = scores.shape
    answer = scores[np.arange(q), answers]
    drop = ids != answers[rows]
    rows, ids = rows[drop], ids[drop]
    not_below = ~(scores[rows, ids] < answer[rows])
    rivals = (entity_count - 1 - np.add.reduce(scores < answer[:, None], axis=1, dtype=np.int32)
              - np.bincount(rows[not_below], minlength=q))
    kept = entity_count - 1 - np.bincount(rows, minlength=q)
    return 1 + np.where(np.isfinite(answer), rivals, kept)


def rank_snapshots(entity_count: int, quads: np.ndarray, snapshot_scorer,
                   filter_index: TrueTripleIndex, tpf: TpfTable | None = None,
                   ) -> RankingReport:
    """Rank both query directions of every fact in ``quads``, a time-sorted
    (n, 4) array of (s, r, o, t), a whole step and direction at a time.

    Rows 2i and 2i + 1 of the report are fact i's object and subject queries;
    ``tpf`` attaches each fact's pattern frequencies. Score rows may be of any
    real dtype (TedModel returns tie-free integers). One warning per call
    counts the queries whose answer score is not finite.
    """
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    if np.any(np.diff(quads[:, 3]) < 0):
        raise ValueError("rank_snapshots needs facts sorted by time step")
    steps, starts = np.unique(quads[:, 3], return_index=True)
    ranks = np.empty((len(quads), 2), dtype=np.int64)
    nonfinite = 0
    for t, lo, hi in zip(steps.tolist(), starts.tolist(), [*starts[1:].tolist(), len(quads)]):
        triples = quads[lo:hi, :3]
        for col, (direction, answer_col, scores) in enumerate(
                zip(("object", "subject"), (2, 0), snapshot_scorer(t, triples))):
            answers = triples[:, answer_col]
            ranks[lo:hi, col] = filtered_ranks(scores, answers,
                                               *filter_index.filter_sets(direction, triples, t))
            nonfinite += np.count_nonzero(~np.isfinite(scores[np.arange(hi - lo), answers]))
    if nonfinite:
        log.warning("%d of %d queries have a non-finite answer score; each ranks behind "
                    "every kept candidate", nonfinite, ranks.size)
    freqs = None if tpf is None else tpf.frequencies(quads[:, :3], quads[:, 3]).repeat(2, axis=0)
    return RankingReport(entity_count, query_records(
        np.tile(["object", "subject"], len(quads)), np.repeat(quads, 2, axis=0),
        ranks.ravel(), freqs))


def evaluate(dataset: TkgDataset, split: str, snapshot_scorer,
             filter_index: TrueTripleIndex, tpf: TpfTable | None = None,
             ) -> RankingReport:
    """Rank both query directions of every fact in a split.

    ``snapshot_scorer(t, triples)`` must return (object_scores, subject_scores)
    arrays of shape (len(triples), entity_count) of any real dtype: row i
    scores every candidate completion of triples[i] in the respective
    direction. TedModel's scorer returns tie-free integers, neural scorers
    float64.
    """
    report = rank_snapshots(dataset.entity_count, dataset.quads[split],
                            snapshot_scorer, filter_index, tpf)
    report.check_invariants()
    return report


# --- frequency-binned breakdown ------------------------------------------------

# A frequency f falls in bin floor(log10(1 + f)): the number of these
# thresholds 10**k - 1 it reaches, in exact integer comparisons.
BIN_THRESHOLDS = 10 ** np.arange(1, 19, dtype=np.int64) - 1
# the Hits@k each bin reports
BIN_HITS_K = 10


def tpf_binned_analysis(results: np.recarray) -> list[dict]:
    """Per-bin Hits@BIN_HITS_K for every studied (pattern kind, direction)
    pairing.

    Returns one record per occupied or declared bin with its query count;
    empty bins up to the observed maximum are emitted with a null metric.
    Results without pattern frequencies give no records.
    """
    rows = []
    if "tpf" not in results.dtype.names:
        return rows
    bins = np.searchsorted(BIN_THRESHOLDS, results.tpf, side="right")
    hit = results.rank <= BIN_HITS_K
    for group, pairings in (("replication", REPLICATION_PAIRINGS),
                            ("reference", REFERENCE_PAIRINGS)):
        for kind, direction in pairings:
            selected = results.direction == direction
            b = bins[selected, PATTERN_KINDS.index(kind)]
            counts = np.bincount(b)
            hits = np.bincount(b[hit[selected]], minlength=len(counts))
            rows += [{"pattern_kind": kind, "direction": direction, "group": group,
                      "bin_lo": lo, "bin_hi": lo + 1, "count": count,
                      f"hits{BIN_HITS_K}": n_hit / count if count else None}
                     for lo, (count, n_hit) in enumerate(zip(counts.tolist(), hits.tolist()))]
    return rows


# --- report emission -------------------------------------------------------------

def write_summary_csv(report: RankingReport, path) -> None:
    lines = ["metric,value"]
    for metric, value in report.summary().items():
        lines.append(f"{metric},{value:.6f}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_results_jsonl(report: RankingReport, path) -> None:
    names = report.results.dtype.names
    columns = [report.results[name].tolist() for name in names]
    if "tpf" in names:
        columns[-1] = [dict(zip(PATTERN_KINDS, counts)) for counts in columns[-1]]
    lines = [json.dumps(dict(zip(names, row)), sort_keys=True) for row in zip(*columns)]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def _result_line(line: str, where: str) -> dict:
    """One results line as a dict; a malformed one raises ValueError naming ``where``."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        rec = None
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: not a JSON object")
    missing = [name for name, _ in RESULT_FIELDS if name not in rec]
    if missing:
        raise ValueError(f"{where}: missing field(s) {', '.join(missing)}")
    if rec["direction"] not in ("object", "subject"):
        raise ValueError(f"{where}: direction {rec['direction']!r} is neither "
                         "'object' nor 'subject'")
    if not all(type(rec[name]) is int for name, _ in RESULT_FIELDS[1:]) or rec["rank"] < 1:
        raise ValueError(f"{where}: subject, relation, object, time and rank must be "
                         "integers, and rank at least 1")
    if "tpf" in rec and not (isinstance(rec["tpf"], dict) and all(
            type(rec["tpf"].get(kind)) is int for kind in PATTERN_KINDS)):
        raise ValueError(f"{where}: 'tpf' needs an integer count for each pattern kind "
                         f"{', '.join(PATTERN_KINDS)}")
    return rec


def read_results_jsonl(path) -> np.recarray:
    """The query records of a results file; every line carries pattern
    frequencies ('tpf') or none does. A malformed line raises ValueError
    naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        records = [_result_line(line, f"{path}:{lineno}")
                   for lineno, line in enumerate(fh, 1) if line.strip()]
    tpf = [[rec["tpf"][kind] for kind in PATTERN_KINDS] for rec in records if "tpf" in rec]
    if 0 < len(tpf) < len(records):
        raise ValueError(f"{path}: {len(tpf)} of {len(records)} results carry pattern "
                         "frequencies ('tpf'); they must be on every line or on none")
    return query_records([rec["direction"] for rec in records],
                         [[rec["subject"], rec["relation"], rec["object"], rec["time"]]
                          for rec in records],
                         [rec["rank"] for rec in records], tpf or None)


def write_bins_csv(rows: list[dict], path) -> None:
    header = ["pattern_kind", "direction", "bin_lo", "bin_hi", "count", f"hits{BIN_HITS_K}"]
    out = [",".join(header)]
    for row in rows:
        metric = row[header[-1]]
        out.append(",".join([str(row[key]) for key in header[:-1]]
                            + ["" if metric is None else f"{metric:.6f}"]))
    atomic_write(path, "\n".join(out) + "\n")
