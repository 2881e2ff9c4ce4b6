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
        if self.variant == "temp-sa" and self.dim % self.heads:
            raise ValueError("embedding dim must be divisible by the head count")
        if self.window < 0:
            raise ValueError("window must be nonnegative")

    @property
    def temporal_active(self) -> bool:
        return self.variant != "srgcn" and self.window > 0


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _xavier(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in = shape[0] if len(shape) > 1 else shape[0]
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: ModelConfig, entity_count: int, relation_count: int,
                step_count: int, seed: int) -> dict[str, np.ndarray]:
    """Named parameter arrays; each is seeded independently by its name, so
    adding or removing optional parts never perturbs shared initializations."""
    shapes: dict[str, tuple] = {
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

    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name.endswith((".bz", ".br", ".bh", ".b1", ".b2")):
            params[name] = np.zeros(shape)
        else:
            params[name] = _xavier(shape, _rng_for(seed, name))
    if config.variant in ("temp-gru", "temp-sa"):
        params["decay.z.lam"] = np.array([[0.1]])
        params["decay.z.b"] = np.array([[0.0]])
    if config.imputation:
        params["decay.x.lam"] = np.array([[0.1]])
        params["decay.x.b"] = np.array([[0.0]])
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
        inactive entity's nearest active representation inside the window."""
        e = self.dataset.entity_count
        lam, b = leaves["decay.x.lam"], leaves["decay.x.b"]
        inactive = ~active[target_pos]

        def nearest(positions):
            seen = np.full(e, -1, dtype=np.int64)
            for pos in positions:
                seen[active[pos]] = pos
            return seen

        last = nearest(range(target_pos))
        x_t = x_steps[target_pos]
        stale_past = self._select_rows(x_steps, last, e)
        if not self.config.bidirectional:
            return het.impute_window(x_t, stale_past, target_pos - last,
                                     last >= 0, inactive, lam, b)
        nxt = nearest(range(len(x_steps) - 1, target_pos, -1))
        stale_future = self._select_rows(x_steps, nxt, e)
        return het.impute_window_bidirectional(
            x_t, stale_past, stale_future, target_pos - last, nxt - target_pos,
            last >= 0, nxt >= 0, inactive, lam, b)

    def _select_rows(self, x_steps, position_of: np.ndarray, e: int) -> Tensor:
        """Per-entity row selection across steps via constant (e, 1) 0/1 masks."""
        out = constant(np.zeros((e, self.config.dim)))
        for pos in np.unique(position_of[position_of >= 0]).tolist():
            mask = (position_of == pos).astype(np.float64)[:, None]
            out = ad.add(out, ad.mul(x_steps[pos], constant(mask)))
        return out

    # --- scoring ----------------------------------------------------------------

    def _gate_alphas(self, leaves, tpf, direction, triples, t):
        cfg = self.config
        if direction == "object":
            rows = np.stack([tpf.subject_side(s, r, t) for s, r, _ in triples.tolist()])
            gates = ("os", "oo")
        else:
            rows = np.stack([tpf.object_side(o, r, t) for _, r, o in triples.tolist()])
            gates = ("so", "ss")
        rows = het.transform_frequencies(rows, cfg.freq_transform)
        fixed_alpha = het.gate_alpha(rows, leaves, gates[0])
        cand_alpha = het.gate_alpha(rows, leaves, gates[1])
        return fixed_alpha, cand_alpha

    def _blended_rows(self, alpha_col, ctx: WindowContext, ids: np.ndarray) -> Tensor:
        """Rows ``ids`` of the gated blend of ctx.x and ctx.z; without a gate
        the ctx.z rows alone, and ctx.x is not gathered."""
        if alpha_col is None:
            return ad.gather_rows(ctx.z, ids)
        return het.blend(alpha_col, ad.gather_rows(ctx.x, ids), ad.gather_rows(ctx.z, ids))

    def snapshot_loss(self, leaves: dict[str, Tensor], ctx: WindowContext,
                      triples: np.ndarray, negatives: tuple[np.ndarray, np.ndarray],
                      tpf: het.TpfTable | None) -> Tensor:
        """Object-direction plus subject-direction loss for one snapshot batch.

        ``negatives`` holds (m, k) corruption ids for the object and subject
        slots. Each direction scores one (m, 1 + k) candidate matrix, the
        answer in column 0, in one decoder call; a query's fixed row, relation
        row and candidate gate are repeated for each of its candidates.
        """
        cfg = self.config
        subjects, rels, objects = (triples[:, 0], triples[:, 1], triples[:, 2])
        m, width = len(triples), 1 + negatives[0].shape[1]
        per_cand = np.repeat(np.arange(m), width)
        r_emb = ad.gather_rows(ctx.relation, rels[per_cand])
        total = None
        for direction, fixed_idx, true_idx, negs in (
                ("object", subjects, objects, negatives[0]),
                ("subject", objects, subjects, negatives[1])):
            if cfg.gating and tpf is not None:
                fixed_alpha, cand_alpha = self._gate_alphas(leaves, tpf, direction,
                                                            triples, ctx.time)
                cand_alpha = ad.gather_rows(cand_alpha, per_cand)
            else:
                fixed_alpha = cand_alpha = None
            fixed = self._blended_rows(fixed_alpha, ctx, fixed_idx)
            cand_ids = np.concatenate([true_idx[:, None], negs], axis=1).ravel()
            cands = self._blended_rows(cand_alpha, ctx, cand_ids)
            scores = self._direction_scores(direction, ad.gather_rows(fixed, per_cand),
                                            r_emb, cands)
            loss = dec.query_loss(ad.reshape(scores, (m, width)), mode=cfg.loss_mode)
            total = loss if total is None else ad.add(total, loss)
        return total

    def _direction_scores(self, direction, fixed, r_emb, cand) -> Tensor:
        if direction == "object":
            return dec.score_rows(fixed, r_emb, cand, self.config.decoder)
        return dec.score_rows(cand, r_emb, fixed, self.config.decoder)

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
        (q, E) matrix by ``decoder.candidate_scores``.
        """
        cache: dict[int, Tensor] = {}

        def scorer(t: int, triples: np.ndarray):
            ctx = self.eval_context(t, cache)
            leaves = {name: constant(arr) for name, arr in self.params.items()}
            x, z, decoder = ctx.x.data, ctx.z.data, self.config.decoder
            r = ctx.relation.data[triples[:, 1]]
            out = []
            for direction, ids in (("object", triples[:, 0]), ("subject", triples[:, 2])):
                if self.config.gating and tpf is not None:
                    fixed_alpha, cand_alpha = (a.data for a in self._gate_alphas(
                        leaves, tpf, direction, triples, t))
                    fixed = fixed_alpha * x[ids] + (1.0 - fixed_alpha) * z[ids]
                    out.append(dec.candidate_scores(fixed, r, x, decoder, direction,
                                                    blend=(cand_alpha, z)))
                else:
                    out.append(dec.candidate_scores(z[ids], r, z, decoder, direction))
            return out[0], out[1]

        return scorer


def leaves_on_tape(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: tape.leaf(arr) for name, arr in params.items()}


def grads_by_name(tape: Tape, leaves: dict[str, Tensor], loss: Tensor,
                  params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Backward pass keyed by parameter name; unreached leaves get zeros."""
    raw = tape.backward(loss)
    return {name: raw.get(leaf.node_id, np.zeros_like(params[name]))
            for name, leaf in leaves.items()}
