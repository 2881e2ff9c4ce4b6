"""Command-line driver: train, eval, ted, synth, stats, analyze.

Every command exits 0 on success; any failure prints one machine-parsable
line ``error: <kind>: <detail>`` on stderr and exits nonzero. Log verbosity
comes from the TEMPKG_LOG environment variable: debug, info, warning (the
default) or error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import evaluation as ev
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_config
from .data import GroupedCodes, cross_split_repeats, load_dataset, write_dataset
from .model import TempModel, param_shapes
from .synth import generate_synthetic
from .ted import TedConfig, TedModel
from .train import filter_index_for, tpf_table, train

log = logging.getLogger("tempkg")


class UsageError(Exception):
    pass


_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING,
               "error": logging.ERROR}


def _setup_logging() -> None:
    name = (os.environ.get("TEMPKG_LOG") or "warning").lower()
    if name not in _LOG_LEVELS:
        raise UsageError(f"TEMPKG_LOG must be one of {', '.join(_LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(level=_LOG_LEVELS[name],
                        format="%(levelname)s %(name)s: %(message)s")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an exception, so ``main`` prints it on one line;
    subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tempkg", description="temporal knowledge-graph completion")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, seed=False, checkpoint=False):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=".", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the run seed")
        if checkpoint:
            p.add_argument("--checkpoint", default=None, help="checkpoint path")
        return p

    command("train", "train a model variant", seed=True, checkpoint=True)
    p_eval = command("eval", "evaluate a checkpoint on a split", checkpoint=True)
    p_eval.add_argument("--split", default="test", choices=("train", "valid", "test"))
    command("ted", "decay-rule baseline sigma sweep")
    command("synth", "generate a synthetic dataset", seed=True)
    command("stats", "dataset statistics report")
    p_an = command("analyze", "frequency-binned breakdown of results")
    p_an.add_argument("--results", required=True, help="results.jsonl from eval")
    return parser


def _load_run(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
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
        # the configured names first, the checkpoint's extra ones last: only six are shown
        bad = (sorted(n for n in expected if found.get(n) != expected[n])
               + sorted(found.keys() - expected.keys()))
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
    atomic_write(os.path.join(args.out, f"ted_{split}.csv"), "\n".join(lines) + "\n")
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
    atomic_write(os.path.join(args.out, "stats.csv"), "\n".join(summary) + "\n")

    # per-step activity over the union of splits: each step's distinct active
    # entities, in entity order, count their active steps in [t - 15, t)
    s, _, o, when = np.vstack(list(dataset.quads.values())).T
    steps, entities = dataset.step_count, dataset.entity_count
    pairs = GroupedCodes((np.tile(when, 2), np.concatenate([s, o])), (steps, entities))
    step, entity = np.divmod(pairs.codes, entities)
    history = GroupedCodes((entity, step), (entities, steps), unique=False)  # already distinct
    recent = history.count((entity,), np.maximum(step - 16, -1), step - 1)
    cuts = np.searchsorted(step, np.arange(steps + 1)).tolist()
    lines = ["step,active_entities,active_with_recent_history,avg_occurrences_last15"]
    for t, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        occurrences = recent[lo:hi]
        avg_occ = float(np.mean(occurrences)) if len(occurrences) else 0.0
        lines.append(f"{t},{len(occurrences)},{np.count_nonzero(occurrences)},{avg_occ:.4f}")
    atomic_write(os.path.join(args.out, "activity.csv"), "\n".join(lines) + "\n")

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
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except Exception as err:  # single-line, machine-parsable failure report
        detail = " ".join(str(err).split()) or err.__class__.__name__
        print(f"error: {err.__class__.__name__}: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
