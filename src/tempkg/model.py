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
        for rate in (self.dropout_current, self.dropout_reference):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"dropout rate {rate} outside [0, 1]")

    @property
    def temporal_active(self) -> bool:
        return self.variant != "srgcn" and self.window > 0


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


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
            params[name] = _xavier(shape, _rng_for(seed, name))
    return params


@dataclass
class WindowContext:
    """Everything scoring needs about one target step."""
    time: int
    x: Tensor                  # structural (imputed when enabled) at the target
    z: Tensor                  # temporal embeddings; equals x when no encoder runs
    relation: Tensor           # relation embedding table


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

    def window_triples(self, t: int, rng: np.random.Generator | None = None,
                       ) -> tuple[list[np.ndarray], int]:
        """Training snapshots of the window, optionally with edge dropout."""
        steps, target_pos = self.window_positions(t)
        window = [self.dataset.splits["train"][step].triples for step in steps]
        if rng is not None:
            window = rgcn.temporal_edge_dropout(
                window, target_pos, self.config.dropout_current,
                self.config.dropout_reference, rng)
        return window, target_pos

    def encode_context(self, leaves: dict[str, Tensor], t: int,
                       window: list[np.ndarray], target_pos: int,
                       cache: dict[int, Tensor] | None = None) -> WindowContext:
        """Context of target step ``t`` from its window's snapshots.

        ``cache`` maps a step to its structural embedding and is only valid
        for undropped windows built from one fixed set of parameters: steps
        already in it are not encoded again, new ones are added, and steps
        outside this window are evicted, so it holds at most one window.
        Without one, a fresh dict encodes each step of this window once.
        """
        cfg = self.config
        e = self.dataset.entity_count
        active = []
        for triples in window:
            row = np.zeros(e, dtype=bool)
            if len(triples):
                row[np.unique(triples[:, [0, 2]])] = True
            active.append(row)

        def encode(triples):
            return rgcn.encode_snapshot(triples, leaves, entity_count=e,
                                        relation_count=self.dataset.relation_count,
                                        layers=cfg.layers)

        cache = {} if cache is None else cache
        steps, _ = self.window_positions(t)
        for step in [s for s in cache if s not in steps]:
            del cache[step]
        x_steps = []
        for step, triples in zip(steps, window, strict=True):
            if step not in cache:
                cache[step] = encode(triples)
            x_steps.append(cache[step])

        x_target = x_steps[target_pos]
        if cfg.imputation:
            # x_steps is this call's own list; the cache keeps the raw target
            x_target = self._impute_target(leaves, x_steps, active, target_pos)
            x_steps[target_pos] = x_target

        if not cfg.temporal_active:
            z = x_target
        elif cfg.variant == "temp-gru":
            z = temporal.encode_gru(x_steps, active, target_pos, leaves,
                                    bidirectional=cfg.bidirectional)
        else:
            z = temporal.encode_sa(x_steps, active, target_pos, leaves,
                                   heads=cfg.heads)
        if cfg.positional and cfg.temporal_active:
            z = temporal.add_positional(z, leaves["pos.embed"], t)
        return WindowContext(t, x_target, z, leaves["relation.embed"])

    def _impute_target(self, leaves, x_steps, active, target_pos) -> Tensor:
        """Replace stale rows of the target step with decayed blends of each
        inactive entity's nearest active representation inside the window:
        the past side, and with a bidirectional window the future side too."""
        e = self.dataset.entity_count
        held = np.stack(active)
        sentinel = np.ones((1, e), dtype=bool)
        stacked = ad.concat(x_steps)
        side_rows = [held[:target_pos][::-1]]
        if self.config.bidirectional:
            side_rows.append(held[target_pos + 1:])
        sides = []
        for sign, rows in zip((-1, 1), side_rows):
            # argmax finds the nearest active row; the sentinel row marks "none"
            nearest = np.argmax(np.concatenate([rows, sentinel]), axis=0)
            has = nearest < len(rows)
            pos = np.where(has, target_pos + sign * (nearest + 1), target_pos)
            sides.append((ad.gather_rows(stacked, pos * e + np.arange(e)), nearest + 1, has))
        return het.impute_window(x_steps[target_pos], sides, ~active[target_pos],
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

    def _direction_scores(self, leaves, ctx: WindowContext, freqs, triples: np.ndarray,
                          r_emb: Tensor, direction: str, cand_ids: np.ndarray) -> Tensor:
        """Scores of each query of ``triples`` against its row of ``cand_ids``.

        Given the snapshot's pattern counts ``freqs`` the fixed rows and the
        candidates are the gated blends alpha * ctx.x + (1 - alpha) * ctx.z;
        without them they are ctx.z rows, and ctx.x is not read.
        """
        fixed_idx = triples[:, 0] if direction == "object" else triples[:, 2]
        if freqs is not None:
            fixed_alpha, cand_alpha = self._gate_alphas(leaves, freqs, direction)
            fixed = het.blend(fixed_alpha, ad.gather_rows(ctx.x, fixed_idx),
                              ad.gather_rows(ctx.z, fixed_idx))
            table, blend = ctx.x, (cand_alpha, ctx.z)
        else:
            fixed, table, blend = ad.gather_rows(ctx.z, fixed_idx), ctx.z, None
        return dec.score_rows(fixed, r_emb, table, cand_ids, self.config.decoder,
                              direction, blend)

    def snapshot_loss(self, leaves: dict[str, Tensor], ctx: WindowContext,
                      triples: np.ndarray, negatives: tuple[np.ndarray, np.ndarray],
                      tpf: het.TpfTable | None) -> Tensor:
        """Object-direction plus subject-direction loss for one snapshot batch.

        ``negatives`` holds (m, k) corruption ids for the object and subject
        slots. Each direction scores one (m, 1 + k) candidate matrix, the
        answer in column 0.
        """
        r_emb = ad.gather_rows(ctx.relation, triples[:, 1])
        gated = self.config.gating and tpf is not None
        freqs = tpf.frequencies(triples, ctx.time) if gated else None
        total = None
        for direction, true_idx, negs in (("object", triples[:, 2], negatives[0]),
                                          ("subject", triples[:, 0], negatives[1])):
            cand_ids = np.concatenate([true_idx[:, None], negs], axis=1)
            scores = self._direction_scores(leaves, ctx, freqs, triples, r_emb,
                                            direction, cand_ids)
            loss = dec.query_loss(scores, mode=self.config.loss_mode)
            total = loss if total is None else ad.add(total, loss)
        return total

    # --- evaluation -----------------------------------------------------------

    def eval_context(self, t: int, cache: dict[int, Tensor] | None = None,
                     ) -> WindowContext:
        """Off-tape context for inference; training snapshots only, no dropout.
        ``cache`` is passed to ``encode_context``."""
        leaves = {name: constant(arr) for name, arr in self.params.items()}
        window, target_pos = self.window_triples(t, rng=None)
        return self.encode_context(leaves, t, window, target_pos, cache)

    def snapshot_scorer(self, tpf: het.TpfTable | None = None):
        """Adapter for evaluation.evaluate: scores every entity per query.

        The scorer encodes each snapshot once over its lifetime: it keeps the
        structural embeddings of the current window, so build a new scorer
        after the parameters change. Each query direction is scored as one
        (q, E) matrix by the training scorer, on constants, with every entity
        as each query's candidates.
        """
        cache: dict[int, Tensor] = {}
        leaves = {name: constant(arr) for name, arr in self.params.items()}
        every = np.arange(self.dataset.entity_count)
        gated = self.config.gating and tpf is not None

        def scorer(t: int, triples: np.ndarray):
            ctx = self.eval_context(t, cache)
            r_emb = ad.gather_rows(ctx.relation, triples[:, 1])
            cand_ids = np.broadcast_to(every, (len(triples), len(every)))
            freqs = tpf.frequencies(triples, t) if gated else None
            return tuple(self._direction_scores(leaves, ctx, freqs, triples, r_emb,
                                                direction, cand_ids).data
                         for direction in ("object", "subject"))

        return scorer


def leaves_on_tape(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: tape.leaf(arr) for name, arr in params.items()}


def grads_by_name(tape: Tape, leaves: dict[str, Tensor], loss: Tensor,
                  params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Backward pass keyed by parameter name; unreached leaves get zeros."""
    raw = tape.backward(loss)
    return {name: raw.get(leaf.node_id, np.zeros_like(params[name]))
            for name, leaf in leaves.items()}
