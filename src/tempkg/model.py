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
    loss_mode: str = "cross_entropy"
    freq_transform: str = "log1p"
    dropout_current: float = 0.5
    dropout_reference: float = 0.2

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown model variant {self.variant!r}")
        if self.decoder not in dec.DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.loss_mode not in dec.LOSS_MODES:
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")
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


def _xavier(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in = shape[0]
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def param_shapes(config: ModelConfig, entity_count: int, relation_count: int,
                 step_count: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter the configured model has."""
    shapes: dict[str, tuple[int, ...]] = {
        "entity.base": (entity_count, config.dim),
        "relation.embed": (relation_count, config.dim),
    }
    for l in range(config.layers):
        shapes[f"rgcn.l{l}.self"] = (config.dim, config.dim)
        for r in range(2 * relation_count):
            shapes[f"rgcn.l{l}.rel{r}"] = (config.dim, config.dim)
    if config.variant == "temp-gru":
        prefixes = ["gru.f"] + (["gru.b"] if config.bidirectional else [])
        for prefix in prefixes:
            for nm in ("wz", "uz", "wr", "ur", "wh", "uh"):
                shapes[f"{prefix}.{nm}"] = (config.dim, config.dim)
            for nm in ("bz", "br", "bh"):
                shapes[f"{prefix}.{nm}"] = (config.dim,)
    if config.variant == "temp-sa":
        dh = config.dim // config.heads
        for k in range(config.heads):
            for nm in ("wq", "wk", "wv"):
                shapes[f"sa.h{k}.{nm}"] = (config.dim, dh)
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
        else:
            params[name] = _xavier(shape, substream(seed, name))
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
        """Time steps of the context window and the target's index within it."""
        cfg = self.config
        if not cfg.temporal_active:
            return [t], 0
        if cfg.bidirectional:
            half = cfg.window // 2
            lo = max(0, t - half)
            hi = min(self.dataset.step_count - 1, t + half)
            steps = list(range(lo, hi + 1))
            return steps, steps.index(t)
        lo = max(0, t - cfg.window)
        steps = list(range(lo, t + 1))
        return steps, len(steps) - 1

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
        edge dropout drawn from ``rng`` when one is given.

        Without ``cache`` the whole window is encoded in one call. ``cache``
        maps a step to its ``StepRecord`` and is only valid, without ``rng``,
        for windows built from one fixed set of parameters: steps already in
        it are not encoded again, each new one is encoded in a call of its
        own, so a record never depends on which steps were cached, and steps
        outside this window are evicted, so it holds at most one window.
        """
        if rng is not None and cache is not None:
            raise ValueError("a step cache holds undropped steps; pass rng or cache, not both")
        cfg, ds = self.config, self.dataset
        steps, _ = self.window_positions(t)
        facts, target_pos = self.window_facts(t, rng)
        index = facts[:, 3]
        held = np.zeros((len(steps), ds.entity_count), dtype=bool)
        held[index[:, None], facts[:, [0, 2]]] = True

        def encode(part: np.ndarray, snapshots: int) -> list[Tensor]:
            return rgcn.encode_snapshot(part, leaves, snapshots=snapshots,
                                        entity_count=ds.entity_count,
                                        relation_count=ds.relation_count,
                                        layers=cfg.layers)

        if cache is None:
            records = [StepRecord(x) for x in encode(facts, len(steps))]
        else:
            for step in [s for s in cache if s not in steps]:
                del cache[step]
            bounds = np.searchsorted(index, np.arange(len(steps) + 1))
            for pos, step in enumerate(steps):
                if step not in cache:
                    own = facts[bounds[pos]:bounds[pos + 1]].copy()
                    own[:, 3] = 0
                    cache[step] = StepRecord(encode(own, 1)[0])
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
                                   held, target_pos, leaves, heads=cfg.heads)
        if cfg.positional and cfg.temporal_active:
            z = temporal.add_positional(z, leaves["pos.embed"], t)
        return WindowContext(t, x_target, z)

    def _keys_values(self, leaves, records: list[StepRecord], x_target: Tensor,
                     target_pos: int) -> list[tuple[Tensor, Tensor]]:
        """Each window step's attention keys and values. A step's pair from its
        raw embedding is projected the first time it is read and kept in its
        record; with imputation the target's pair comes from the imputed rows
        on every call."""
        heads = self.config.heads
        wk, wv = (temporal.head_weights(leaves, nm, heads) for nm in ("wk", "wv"))
        pairs = []
        for pos, rec in enumerate(records):
            if pos == target_pos and self.config.imputation:
                pairs.append(temporal.keys_values(x_target, wk, wv, heads))
                continue
            if rec.kv is None:
                rec.kv = temporal.keys_values(rec.x, wk, wv, heads)
            pairs.append(rec.kv)
        return pairs

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
        return ad.add(*(dec.query_loss(scores, mode=self.config.loss_mode)
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
                  params: dict[str, np.ndarray],
                  running: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Backward pass keyed by parameter name; unreached leaves get zeros.

    ``running`` carries gradients from tape to tape, by name: the pass starts
    each leaf from its entry, and every leaf it reaches is written back to
    it. It only ever holds reached leaves, never a zero fill.
    """
    running = {} if running is None else running
    raw = tape.backward(loss, {leaves[name].node_id: g for name, g in running.items()})
    running.update((name, raw[leaf.node_id]) for name, leaf in leaves.items()
                   if leaf.node_id in raw)
    return {name: running[name] if name in running else np.zeros(params[name].shape)
            for name in leaves}
