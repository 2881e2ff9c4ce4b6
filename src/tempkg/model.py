"""Model variants: parameter initialization, window encoding, query scoring.

Three variants share one parameter space and one scoring path:

    srgcn     per-snapshot structural embeddings only (window of one step)
    temp-gru  structural encoding integrated by a decay-weighted recurrence
    temp-sa   structural encoding integrated by masked self-attention

Imputation and frequency gating are independent switches. A window of zero
makes the temporal variants collapse onto the structural baseline exactly,
which the tests exploit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import heterogeneity as het
from . import rgcn, temporal
from .autodiff import Tape, Tensor, constant
from .data import TkgDataset

VARIANTS = ("srgcn", "temp-gru", "temp-sa")


@dataclass
class ModelConfig:
    variant: str = "temp-gru"
    decoder: str = "complex"
    dim: int = 128
    layers: int = 2
    heads: int = 8
    window: int = 15
    bidirectional: bool = False
    gating: bool = False
    imputation: bool = False
    positional: bool = False
    loss: str = "cross_entropy"
    freq_transform: str = "log1p"
    dropout_current: float = 0.5
    dropout_reference: float = 0.2

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown model variant {self.variant!r}")
        if self.decoder not in dec.DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.loss not in dec.LOSS_MODES:
            raise ValueError(f"unknown loss mode {self.loss!r}")
        if self.freq_transform not in het.FREQ_TRANSFORMS:
            raise ValueError(f"unknown frequency transform {self.freq_transform!r}")
        if self.dim < 1:
            raise ValueError("embedding dim must be positive")
        if self.decoder == "complex" and self.dim % 2:
            raise ValueError("the complex decoder needs an even embedding dim")
        if self.variant == "temp-sa" and self.heads < 1:
            raise ValueError("head count must be positive")
        if self.variant == "temp-sa" and self.dim % self.heads:
            raise ValueError("embedding dim must be divisible by the head count")
        if self.window < 0:
            raise ValueError("window must be nonnegative")
        if self.layers < 0:
            raise ValueError("layer count must be nonnegative")
        for rate in (self.dropout_current, self.dropout_reference):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"dropout rate {rate} outside [0, 1]")

    @property
    def temporal_active(self) -> bool:
        return self.variant != "srgcn" and self.window > 0


def substream(seed: int, *tags) -> np.random.Generator:
    """The generator of one named substream of ``seed``: each tag tuple,
    mixed in by the crc32 of its strings, draws independently."""
    return np.random.default_rng([seed] + [zlib.crc32(str(t).encode()) for t in tags])


def _xavier(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``out``, contiguous, filled in place with the draws of ``rng.uniform(-limit, limit)``."""
    limit = np.sqrt(6.0 / (out.shape[0] + out.shape[-1]))
    rng.random(out=out)
    out *= 2 * limit
    out -= limit
    return out


def param_shapes(config: ModelConfig, entity_count: int, relation_count: int,
                 step_count: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter the configured model has."""
    shapes: dict[str, tuple[int, ...]] = {
        "entity.base": (entity_count, config.dim),
        "relation.embed": (relation_count, config.dim),
    }
    for l in range(config.layers):
        shapes[f"rgcn.l{l}.self"] = (config.dim, config.dim)
        shapes[f"rgcn.l{l}.rel"] = (2 * relation_count, config.dim, config.dim)
    if config.variant == "temp-gru":
        prefixes = ["gru.f"] + (["gru.b"] if config.bidirectional else [])
        for prefix in prefixes:
            for nm in ("wz", "uz", "wr", "ur", "wh", "uh"):
                shapes[f"{prefix}.{nm}"] = (config.dim, config.dim)
            for nm in ("bz", "br", "bh"):
                shapes[f"{prefix}.{nm}"] = (config.dim,)
    if config.variant == "temp-sa":
        for nm in ("wq", "wk", "wv"):
            shapes[f"sa.{nm}"] = (config.dim, config.heads, config.dim // config.heads)
    if config.gating:
        for g in het.GATE_NAMES:
            shapes[f"gate.{g}.w1"] = (3, 64)
            shapes[f"gate.{g}.b1"] = (64,)
            shapes[f"gate.{g}.w2"] = (64, 1)
            shapes[f"gate.{g}.b2"] = (1,)
    if config.positional:
        shapes["pos.embed"] = (step_count, config.dim)
    for prefix, used in (("decay.z", config.variant != "srgcn"), ("decay.x", config.imputation)):
        if used:
            shapes[f"{prefix}.lam"] = shapes[f"{prefix}.b"] = (1, 1)
    return shapes


def init_params(config: ModelConfig, entity_count: int, relation_count: int,
                step_count: int, seed: int) -> dict[str, np.ndarray]:
    """Named parameter arrays; each is seeded independently by its name, so
    adding or removing optional parts never perturbs shared initializations."""
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config, entity_count, relation_count,
                                    step_count).items():
        if name.startswith("decay."):
            params[name] = np.full(shape, 0.1 if name.endswith(".lam") else 0.0)
        elif name.endswith((".bz", ".br", ".bh", ".b1", ".b2")):
            params[name] = np.zeros(shape)
        elif name.endswith(".rel"):   # block k drawn as a (d, d) parameter named {name}{k}
            params[name] = np.empty(shape)
            for k, block in enumerate(params[name]):
                _xavier(block, substream(seed, f"{name}{k}"))
        elif name.startswith("sa."):  # head k, [:, k], drawn as a (d, d / heads) sa.h{k}.w*
            params[name] = np.empty(shape)
            for k in range(shape[1]):  # the block is strided: draw it contiguous, copy it in
                params[name][:, k] = _xavier(np.empty((shape[0], shape[2])),
                                             substream(seed, f"sa.h{k}.{name[3:]}"))
        else:
            params[name] = _xavier(np.empty(shape), substream(seed, name))
    return params


@dataclass
class WindowContext:
    """Everything scoring needs about one target step."""
    time: int
    x: Tensor                  # structural (imputed when enabled) at the target
    z: Tensor                  # temporal embeddings; equals x when no encoder runs


@dataclass
class StepRecord:
    """What a window reads of one step; the eval cache keeps it across targets."""
    x: Tensor                           # raw structural embedding
    kv: tuple[Tensor, Tensor] | None = None   # temp-sa keys and values of x, once read


class TempModel:
    def __init__(self, config: ModelConfig, dataset: TkgDataset,
                 params: dict[str, np.ndarray]):
        self.config = config
        self.dataset = dataset
        self.params = params

    # --- context construction -------------------------------------------------

    def window_positions(self, t: int) -> tuple[list[int], int]:
        """Time steps of the context window and the target's index within it:
        ``window`` steps back, or half of that each way when bidirectional,
        clipped to the dataset's steps; the target alone when no temporal
        encoder runs."""
        cfg = self.config
        back = cfg.window if cfg.temporal_active else 0
        back, ahead = (back // 2, back // 2) if cfg.bidirectional else (back, 0)
        lo, hi = max(0, t - back), min(self.dataset.step_count - 1, t + ahead)
        return list(range(lo, hi + 1)), t - lo

    def window_facts(self, t: int, rng: np.random.Generator | None = None,
                     ) -> tuple[np.ndarray, int]:
        """The window's training facts as one (n, 4) array of (s, r, o, i),
        ``i`` the step's index in the window, in step order, optionally
        thinned by edge dropout; and the target's index."""
        steps, target_pos = self.window_positions(t)
        quads = self.dataset.quads["train"]
        lo, hi = np.searchsorted(quads[:, 3], [steps[0], steps[-1] + 1])
        facts = quads[lo:hi] - np.array([0, 0, 0, steps[0]])
        if rng is not None:
            facts = rgcn.temporal_edge_dropout(
                facts, target_pos, self.config.dropout_current,
                self.config.dropout_reference, rng)
        return facts, target_pos

    def encode_context(self, leaves: dict[str, Tensor], t: int,
                       rng: np.random.Generator | None = None,
                       cache: dict[int, StepRecord] | None = None) -> WindowContext:
        """Context of target step ``t`` from its window's facts, thinned by
        edge dropout drawn from ``rng`` when one is given. The window's steps
        missing from ``cache`` (all, without one) are encoded in one call, and
        steps outside it are evicted. A cache serves one fixed set of
        parameters and no ``rng``; products are row-stable, so no record
        depends on the steps encoded beside it."""
        if rng is not None and cache is not None:
            raise ValueError("a step cache holds undropped steps; pass rng or cache, not both")
        cfg, ds = self.config, self.dataset
        cache = {} if cache is None else cache
        steps, _ = self.window_positions(t)
        facts, target_pos = self.window_facts(t, rng)
        held = np.zeros((len(steps), ds.entity_count), dtype=bool)
        held[facts[:, 3:], facts[:, [0, 2]]] = True
        for step in [s for s in cache if s not in steps]:
            del cache[step]
        missing = [pos for pos, step in enumerate(steps) if step not in cache]
        if missing:   # the missing steps' facts, their step index renumbered 0..k-1
            part = facts[np.isin(facts[:, 3], missing)]
            part[:, 3] = np.searchsorted(missing, part[:, 3])
            xs = rgcn.encode_snapshot(part, leaves, snapshots=len(missing),
                                      entity_count=ds.entity_count,
                                      relation_count=ds.relation_count, layers=cfg.layers)
            cache.update((steps[pos], StepRecord(x)) for pos, x in zip(missing, xs))
        records = [cache[step] for step in steps]
        x_steps = [rec.x for rec in records]

        x_target = x_steps[target_pos]
        if cfg.imputation:
            # x_steps is this call's own list; the records keep the raw target
            x_target = self._impute_target(leaves, x_steps, held, target_pos)
            x_steps[target_pos] = x_target

        if not cfg.temporal_active:
            z = x_target
        elif cfg.variant == "temp-gru":
            z = temporal.encode_gru(x_steps, held, target_pos, leaves,
                                    bidirectional=cfg.bidirectional)
        else:
            z = temporal.encode_sa(x_target,
                                   self._keys_values(leaves, records, x_target, target_pos),
                                   held, target_pos, leaves)
        if cfg.positional and cfg.temporal_active:
            z = temporal.add_positional(z, leaves["pos.embed"], t)
        return WindowContext(t, x_target, z)

    def _keys_values(self, leaves, records: list[StepRecord], x_target: Tensor,
                     target_pos: int) -> list[tuple[Tensor, Tensor]]:
        """Each window step's attention keys and values. A step's pair from its
        raw embedding is projected the first time it is read and kept in its
        record; with imputation the target's pair comes from the imputed rows
        on every call. One ``keys_values`` call projects all that are missing,
        so the steps' gradients sum in one (d, d) matrix before each leaf."""
        if self.config.imputation:   # a record of its own; the raw target's stays as it is
            records = records[:target_pos] + [StepRecord(x_target)] + records[target_pos + 1:]
        fresh = [rec for rec in records if rec.kv is None]
        for rec, kv in zip(fresh, temporal.keys_values([rec.x for rec in fresh],
                                                       leaves["sa.wk"], leaves["sa.wv"])):
            rec.kv = kv
        return [rec.kv for rec in records]

    def _impute_target(self, leaves, x_steps, held: np.ndarray, target_pos: int) -> Tensor:
        """Replace stale rows of the target step with decayed blends of each
        inactive entity's nearest active representation inside the window:
        the past side, and with a bidirectional window the future side too.
        Each side's rows are picked from the steps' own embeddings; an entity
        with no active step on a side picks its target row, at weight 0."""
        sides = []
        for positions in temporal.window_sides(len(x_steps), target_pos,
                                               self.config.bidirectional):
            last = temporal.last_active(held, positions)[-1]
            picked = np.array(positions + [target_pos])[last]
            rows = ad.gather_rows_from(x_steps, picked, np.arange(len(picked)))
            sides.append((rows, len(positions) - last, last >= 0))
        return het.impute_window(x_steps[target_pos], sides, ~held[target_pos],
                                 leaves["decay.x.lam"], leaves["decay.x.b"])

    # --- scoring ----------------------------------------------------------------

    def _gate_alphas(self, leaves, freqs: np.ndarray, direction: str):
        """(fixed, candidate) gate columns of one direction from the (m, 7)
        pattern counts: [f_s, f_r, f_sr] feed the object-query gates os/oo,
        [f_o, f_r, f_ro] the subject-query gates so/ss."""
        if direction == "object":
            kinds, gates = ("s", "r", "sr"), ("os", "oo")
        else:
            kinds, gates = ("o", "r", "ro"), ("so", "ss")
        rows = freqs[:, [het.PATTERN_KINDS.index(kind) for kind in kinds]]
        rows = het.transform_frequencies(rows, self.config.freq_transform)
        return tuple(het.gate_alpha(rows, leaves, gate) for gate in gates)

    def _direction_scores(self, leaves, ctx: WindowContext, triples: np.ndarray,
                          tpf: het.TpfTable | None, cand_ids=(None, None)):
        """A generator of the object and then the subject scores of each query
        of ``triples`` against its row of that direction's ``cand_ids`` entry,
        or every entity where it is None. A gated model, which the call checks
        has ``tpf``, blends the fixed rows and the candidates as
        alpha * ctx.x + (1 - alpha) * ctx.z; an ungated one reads ctx.z only."""
        gating = self.config.gating
        if gating and tpf is None:
            raise ValueError("a gated model scores from pattern frequencies; "
                             "pass its TpfTable")

        def scores():
            r_emb = ad.gather_rows(leaves["relation.embed"], triples[:, 1])
            freqs = tpf.frequencies(triples, ctx.time) if gating else None
            for direction, ids in zip(("object", "subject"), cand_ids):
                fixed_idx = triples[:, 0] if direction == "object" else triples[:, 2]
                if gating:
                    fixed_alpha, cand_alpha = self._gate_alphas(leaves, freqs, direction)
                    fixed = het.blend(fixed_alpha, ad.gather_rows(ctx.x, fixed_idx),
                                      ad.gather_rows(ctx.z, fixed_idx))
                    table, blend = ctx.x, (cand_alpha, ctx.z)
                else:
                    fixed, table, blend = ad.gather_rows(ctx.z, fixed_idx), ctx.z, None
                yield dec.score_rows(fixed, r_emb, table, ids, self.config.decoder,
                                     direction, blend)

        return scores()

    def snapshot_loss(self, leaves: dict[str, Tensor], ctx: WindowContext,
                      triples: np.ndarray, negatives: tuple[np.ndarray, np.ndarray],
                      tpf: het.TpfTable | None) -> Tensor:
        """Object-direction plus subject-direction loss for one snapshot batch.

        ``negatives`` holds (m, k) corruption ids for the object and subject
        slots. Each direction scores one (m, 1 + k) candidate matrix, the
        answer in column 0. A gated model needs ``tpf``.
        """
        cand_ids = [np.concatenate([true_idx[:, None], negs], axis=1)
                    for true_idx, negs in ((triples[:, 2], negatives[0]),
                                           (triples[:, 0], negatives[1]))]
        # lazily: each direction's loss joins the tape before the next scores,
        # the node order the backward sums follow
        return ad.add(*(dec.query_loss(scores, mode=self.config.loss)
                        for scores in self._direction_scores(leaves, ctx, triples, tpf,
                                                             cand_ids)))

    # --- evaluation -----------------------------------------------------------

    def eval_context(self, t: int, cache: dict[int, StepRecord],
                     leaves: dict[str, Tensor]) -> WindowContext:
        """Off-tape context for inference; training snapshots only, no dropout.
        ``cache`` is passed to ``encode_context``; ``leaves`` are the
        parameters as constants."""
        return self.encode_context(leaves, t, cache=cache)

    def snapshot_scorer(self, tpf: het.TpfTable | None = None):
        """Adapter for evaluation.evaluate: scores every entity per query.

        The scorer encodes each snapshot once over its lifetime: it keeps one
        ``StepRecord`` per step of the current window, holding the structural
        embedding and, for temp-sa, the keys and values projected from it.
        So build a new scorer after the parameters change. Each query
        direction is scored as one (q, E) matrix by the training scorer, on
        constants, with every entity as each query's candidates. A gated
        model needs ``tpf``.
        """
        cache: dict[int, StepRecord] = {}
        leaves = {name: constant(arr) for name, arr in self.params.items()}
        self._direction_scores(leaves, None, None, tpf)  # a gated model without tpf raises

        def scorer(t: int, triples: np.ndarray):
            ctx = self.eval_context(t, cache, leaves)
            return tuple(scores.data for scores in self._direction_scores(leaves, ctx,
                                                                          triples, tpf))

        return scorer


def leaves_on_tape(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: tape.leaf(arr) for name, arr in params.items()}


def grads_by_name(tape: Tape, leaves: dict[str, Tensor], loss: Tensor,
                  params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Backward pass keyed by parameter name; unreached leaves get zeros."""
    raw = tape.backward(loss)
    return {name: raw[leaf.node_id] if leaf.node_id in raw else np.zeros(params[name].shape)
            for name, leaf in leaves.items()}
