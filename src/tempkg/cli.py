"""Command-line driver: train, eval, ted, synth, stats, analyze.

Every command exits 0 on success; any failure prints one machine-parsable
line ``error: <kind>: <detail>`` on stderr and exits nonzero. Log verbosity
comes from the TEMPKG_LOG environment variable (debug/info/warning).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import evaluation as ev
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_config
from .data import SPLIT_NAMES, cross_split_repeats, load_dataset, write_dataset
from .model import TempModel, param_shapes
from .synth import generate_synthetic
from .ted import TedConfig, TedModel
from .train import filter_index_for, tpf_table, train

log = logging.getLogger("tempkg")


def _setup_logging() -> None:
    level = os.environ.get("TEMPKG_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tempkg",
                                     description="temporal knowledge-graph completion")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--checkpoint", default=None, help="checkpoint path")

    common(sub.add_parser("train", help="train a model variant"))
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(p_eval)
    p_eval.add_argument("--split", default="test", choices=("train", "valid", "test"))
    common(sub.add_parser("ted", help="decay-rule baseline sigma sweep"))
    common(sub.add_parser("synth", help="generate a synthetic dataset"))
    common(sub.add_parser("stats", help="dataset statistics report"))
    p_an = sub.add_parser("analyze", help="frequency-binned breakdown of results")
    common(p_an)
    p_an.add_argument("--results", required=True, help="results.jsonl from eval")
    return parser


def _load_run(args) -> RunConfig:
    overrides = {}
    if args.seed is not None:
        overrides["train.seed"] = str(args.seed)
    return load_config(args.config, overrides)


def _dataset_of(config: RunConfig):
    if not config.dataset.path:
        raise ConfigError("dataset.path is not set")
    return load_dataset(config.dataset.path, config.dataset.format,
                        config.dataset.time_granularity)


def cmd_train(args) -> int:
    config = _load_run(args)
    dataset = _dataset_of(config)
    params, logbook = train(config, dataset, args.out)
    if args.checkpoint:
        save_checkpoint(args.checkpoint, params)
    best = logbook.best_epoch
    print(f"trained {config.model.variant}: best epoch {best}, "
          f"val MRR {max((r.val_mrr for r in logbook.records), default=0.0):.4f}")
    return 0


def cmd_eval(args) -> int:
    config = _load_run(args)
    dataset = _dataset_of(config)
    ckpt_path = args.checkpoint or os.path.join(args.out, "best.ckpt")
    params = load_checkpoint(ckpt_path)
    expected = param_shapes(config.model, dataset.entity_count,
                            dataset.relation_count, dataset.step_count)
    found = {name: arr.shape for name, arr in params.items()}
    if found != expected:
        bad = sorted(n for n in found.keys() | expected.keys() if found.get(n) != expected.get(n))
        raise ConfigError("checkpoint does not match the configured model; mismatched tensors "
                          "(checkpoint vs config shape): "
                          + ", ".join(f"{n} {found.get(n)} vs {expected.get(n)}" for n in bad[:6]))
    model = TempModel(config.model, dataset, params)
    tpf = tpf_table(config, dataset)
    filter_index = filter_index_for(config, dataset)
    report = ev.evaluate(dataset, args.split, model.snapshot_scorer(tpf),
                         filter_index, tpf)
    os.makedirs(args.out, exist_ok=True)
    ev.write_summary_csv(report, os.path.join(args.out, f"summary_{args.split}.csv"))
    ev.write_results_jsonl(report, os.path.join(args.out, f"results_{args.split}.jsonl"))
    ev.write_bins_csv(ev.tpf_binned_analysis(report.results),
                      os.path.join(args.out, f"bins_{args.split}.csv"))
    for metric, value in report.summary().items():
        print(f"{metric},{value:.6f}")
    return 0


def cmd_ted(args) -> int:
    config = _load_run(args)
    dataset = _dataset_of(config)
    split = config.ted.split
    model = TedModel(dataset)
    filter_index = filter_index_for(config, dataset)
    os.makedirs(args.out, exist_ok=True)
    lines = ["sigma,MRR,Hits1,Hits3,Hits10"]
    for sigma in config.ted.sigma_list():
        ted_config = TedConfig(sigma, config.ted.blend)
        report = ev.evaluate(dataset, split, model.snapshot_scorer(ted_config),
                             filter_index)
        lines.append(f"{sigma},{report.mrr:.6f},{report.hits(1):.6f},"
                     f"{report.hits(3):.6f},{report.hits(10):.6f}")
        print(lines[-1])
    ev.atomic_write(os.path.join(args.out, f"ted_{split}.csv"),
                    "\n".join(lines) + "\n")
    return 0


def cmd_synth(args) -> int:
    config = _load_run(args)
    seed = config.train.seed
    dataset = generate_synthetic(config.synth, seed)
    os.makedirs(args.out, exist_ok=True)
    write_dataset(dataset, args.out)
    sizes = dataset.split_sizes()
    print(f"synthetic dataset: {dataset.entity_count} entities, "
          f"{dataset.relation_count} relations, {dataset.step_count} steps, "
          f"splits {sizes['train']}/{sizes['valid']}/{sizes['test']}")
    return 0


def cmd_stats(args) -> int:
    config = _load_run(args)
    dataset = _dataset_of(config)
    sizes = dataset.split_sizes()
    os.makedirs(args.out, exist_ok=True)

    summary = ["metric,value",
               f"entities,{dataset.entity_count}",
               f"relations,{dataset.relation_count}",
               f"steps,{dataset.step_count}",
               f"train,{sizes['train']}",
               f"valid,{sizes['valid']}",
               f"test,{sizes['test']}",
               f"total,{sum(sizes.values())}",
               f"cross_split_repeats,{cross_split_repeats(dataset)}"]
    ev.atomic_write(os.path.join(args.out, "stats.csv"), "\n".join(summary) + "\n")

    # per-step activity over the union of splits, with a trailing-15 lookback;
    # row t + 1 of ``active`` marks the entities active at step t
    active = np.zeros((dataset.step_count + 1, dataset.entity_count), dtype=np.int64)
    for split in SPLIT_NAMES:
        s, _, o, t = dataset.quadruples(split).T
        active[t + 1, s] = active[t + 1, o] = 1
    before = np.cumsum(active, axis=0)  # before[t, e]: steps < t at which e was active
    lines = ["step,active_entities,active_with_recent_history,avg_occurrences_last15"]
    for t in range(dataset.step_count):
        occurrences = (before[t] - before[max(0, t - 15)])[active[t + 1] == 1]
        avg_occ = float(np.mean(occurrences)) if len(occurrences) else 0.0
        lines.append(f"{t},{len(occurrences)},{np.count_nonzero(occurrences)},{avg_occ:.4f}")
    ev.atomic_write(os.path.join(args.out, "activity.csv"), "\n".join(lines) + "\n")

    for line in summary:
        print(line)
    return 0


def cmd_analyze(args) -> int:
    _load_run(args)  # validates the config even though only results are used
    results = ev.read_results_jsonl(args.results)
    rows = ev.tpf_binned_analysis(results)
    os.makedirs(args.out, exist_ok=True)
    ev.write_bins_csv(rows, os.path.join(args.out, "bins.csv"))
    print(f"analyzed {len(results)} query results into {len(rows)} bins")
    return 0


_COMMANDS = {"train": cmd_train, "eval": cmd_eval, "ted": cmd_ted,
             "synth": cmd_synth, "stats": cmd_stats, "analyze": cmd_analyze}


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as err:  # single-line, machine-parsable failure report
        detail = " ".join(str(err).split()) or err.__class__.__name__
        print(f"error: {err.__class__.__name__}: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
