"""Pointwise fine-tuning of the cross-encoder from triples.

Each triple becomes two classification examples (positive/negative
passage for the same query). Optimization is Adam with bias correction
and decoupled weight decay, linear warmup then linear decay to zero,
and global gradient-norm clipping. Input perturbation is applied per
example with a key derived from (epoch, example index) so shuffles are
reproducible but re-drawn every epoch.

`optimize` is the one optimization loop, a generator that stops at each
eval step. `train` scores each stop with its eval hook; the experiment
runner writes each stop's parameters to a snapshot and scores the
snapshots afterwards. Both keep the checkpoint `TrainLog.record_eval`
keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import perturb
from .corpus import Triple
from .tokenizer import Vocab
from .tokenizer import encode_pair  # noqa: F401  (perfbench/spans.py traces it at this name)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # no config sets these
WEIGHT_DECAY = 0.001    # decoupled, on the parameters with >= 2 dimensions
GRAD_CLIP_NORM = 1.0    # on the global norm, before Adam


class DivergenceError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 16
    lr_peak: float = 3e-4
    warmup_steps: int = 100
    total_steps: int = 2000
    epoch_size: int = 200            # optimizer steps between held-out evals
    seed: int = 13
    train_perturb: perturb.PerturbMode = perturb.NATURAL

    def validate(self):
        if self.total_steps < 0 or self.warmup_steps < 0:
            raise ValueError("total_steps and warmup_steps must be >= 0")
        if self.epoch_size < 1:
            raise ValueError("epoch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")
        if self.batch_size < 2 or self.batch_size % 2:
            raise ValueError("batch_size must be even and >= 2 (balanced pos/neg)")
        if not (math.isfinite(self.lr_peak) and self.lr_peak > 0):
            raise ValueError(f"lr_peak must be finite and > 0, got {self.lr_peak}")


@dataclass
class TrainLog:
    # (step, loss, lr, grad norm before clipping)
    steps: list[tuple[int, float, float, float]] = field(default_factory=list)
    evals: list[tuple[int, float]] = field(default_factory=list)         # (step, metric)
    best_step: int = -1
    best_metric: float = float("-inf")

    def record_eval(self, step: int, metric: float) -> bool:
        """Log the metric of the eval at `step`; True when its checkpoint
        is the one to keep so far, the first with the highest metric."""
        metric = float(metric)
        self.evals.append((step, metric))
        if metric > self.best_metric:
            self.best_step, self.best_metric = step, metric
            return True
        return False


def write_train_log(log: TrainLog, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("step\tloss\tlr\tgrad_norm\n")
        for step, loss, lr, gnorm in log.steps:
            f.write(f"{step}\t{loss:.6f}\t{lr:.8f}\t{gnorm:.6f}\n")


def write_eval_log(log: TrainLog, path):
    """One row per held-out eval; `kept` marks the checkpoint train() returned."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("step\tmetric\tkept\n")
        for step, metric in log.evals:
            f.write(f"{step}\t{metric:.6f}\t{int(step == log.best_step)}\n")


def lr_at(step: int, cfg: TrainConfig) -> float:
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr_peak * step / cfg.warmup_steps
    if cfg.total_steps == cfg.warmup_steps:
        return cfg.lr_peak
    return cfg.lr_peak * (cfg.total_steps - step) / (cfg.total_steps - cfg.warmup_steps)


def _flat_layout(params: dict[str, np.ndarray]):
    """Where each parameter sits in one flat buffer, matrices first.

    Returns {name: (start, stop, shape)} in the dict's own order, and the
    length of the leading part that holds the parameters with >= 2
    dimensions, the ones weight decay applies to.
    """
    slots, start = {}, 0
    for name in sorted(params, key=lambda n: params[n].ndim < 2):
        slots[name] = (start, start + params[name].size, params[name].shape)
        start += params[name].size
    n_decay = sum(p.size for p in params.values() if p.ndim >= 2)
    return {name: slots[name] for name in params}, n_decay


def _views(buf: np.ndarray, layout) -> dict[str, np.ndarray]:
    return {name: buf[start:stop].reshape(shape) for name, (start, stop, shape) in layout.items()}


def from_flat(mdl: M.Model, buf: np.ndarray) -> M.Model:
    """A model of `mdl`'s config whose parameters are views into `buf`, a
    flat buffer laid out as `optimize` lays out the parameters of `mdl`."""
    layout, _ = _flat_layout(mdl.params)
    return M.Model(mdl.config, _views(buf, layout))


def train(mdl: M.Model, triples: list[Triple], cfg: TrainConfig, vocab: Vocab,
          eval_hook=None):
    """Run the optimization loop (`optimize`); returns (best model, TrainLog).

    `eval_hook(model) -> float` is called every `epoch_size` steps and at
    the end; the checkpoint `TrainLog.record_eval` keeps, the first with
    the highest metric, is returned. Without a hook the final parameters
    are returned. A triple is encoded the first time a batch draws it.
    The model passed in is not changed.
    """
    log = TrainLog()
    best = None
    for step, model, params in optimize(mdl, triples, cfg, vocab, log):
        if eval_hook is not None and log.record_eval(step, eval_hook(model)):
            best = params.copy()
    return (model if best is None else from_flat(model, best)), log


def optimize(mdl: M.Model, triples: list[Triple], cfg: TrainConfig, vocab: Vocab,
             log: TrainLog):
    """The optimization loop, a generator that stops at each eval step.

    Every `epoch_size` steps and after the last (or at once, for a run
    of no steps) it yields (step, model, params): the model in training,
    whose parameters are views into `params`, the one flat buffer that
    holds them all (see `from_flat`). Both change when the loop resumes.
    Each step's row is appended to `log.steps`. Training works on a copy
    of `mdl` whose parameters, gradients and Adam moments each live in
    one flat buffer, with the per-name dicts as views into it; a triple
    is encoded the first time a batch draws it, through a `PairMemo` of
    the loop's own.
    """
    cfg.validate()
    if not triples:
        raise ValueError("empty triple stream")
    max_len = mdl.config.max_len
    # natural encodings, made on a pair's first draw; perturbed per step
    # by perturb.apply_many, not kept by the memo: epoch:idx keys never repeat
    encode = perturb.PairMemo(vocab, max_len).encode

    order_rng = np.random.default_rng(cfg.seed)

    layout, n_decay = _flat_layout(mdl.params)
    params = np.empty(sum(p.size for p in mdl.params.values()), dtype=mdl.dtype)
    views = _views(params, layout)
    for name, view in views.items():
        view[...] = mdl.params[name]
    mdl = M.Model(mdl.config, views)
    grads = np.zeros_like(params)
    grad_views = _views(grads, layout)
    adam_m, adam_v = np.zeros_like(params), np.zeros_like(params)
    update, scratch = np.empty_like(params), np.empty_like(params)
    squares = list(_views(scratch, layout).values())

    epoch = 0
    order = order_rng.permutation(len(triples))
    cursor = 0
    per_step = cfg.batch_size // 2
    if cfg.total_steps == 0:
        yield 0, mdl, params

    for step in range(cfg.total_steps):
        batch_pairs, batch_labels, keys = [], [], []
        for _ in range(per_step):
            if cursor >= len(order):
                epoch += 1
                order = order_rng.permutation(len(triples))
                cursor = 0
            idx = int(order[cursor])
            cursor += 1
            q, pos, neg = triples[idx]
            for side, pair, label in (("pos", encode(q, pos), 1), ("neg", encode(q, neg), 0)):
                batch_pairs.append(pair)
                batch_labels.append(label)
                keys.append(f"{epoch}:{idx}|{side}")
        batch_pairs = perturb.apply_many(batch_pairs, cfg.train_perturb, keys)

        # a diverging run overflows here first; the DivergenceError below
        # reports it in one line instead of numpy warning per operation
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss, _ = M.loss_and_grads(mdl, batch_pairs, batch_labels, grads=grad_views)
            # each parameter's squares are summed on their own and the sums
            # added in parameter order: one sum over the buffer rounds differently
            np.multiply(grads, grads, out=scratch)
            gnorm = float(np.sqrt(sum(float(sq.sum()) for sq in squares)))
        if not (np.isfinite(loss) and np.isfinite(gnorm)):
            raise DivergenceError(
                f"non-finite loss {loss} or grad norm {gnorm} at step {step} "
                f"(lr={lr_at(step, cfg):.2e})"
            )
        if gnorm > GRAD_CLIP_NORM:
            # a float64 factor, so a float32 model's gradients scale in
            # float64 and round once
            grads *= np.float64(GRAD_CLIP_NORM / gnorm)

        lr = lr_at(step, cfg)
        t = step + 1
        adam_m *= ADAM_BETA1
        np.multiply(grads, 1 - ADAM_BETA1, out=scratch)
        adam_m += scratch
        adam_v *= ADAM_BETA2
        np.multiply(grads, 1 - ADAM_BETA2, out=scratch)
        scratch *= grads
        adam_v += scratch
        np.divide(adam_v, 1.0 - ADAM_BETA2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(adam_m, 1.0 - ADAM_BETA1 ** t, out=update)
        update /= scratch
        update[:n_decay] += WEIGHT_DECAY * params[:n_decay]
        update *= lr
        params -= update

        log.steps.append((step, loss, lr, gnorm))
        if (step + 1) % cfg.epoch_size == 0 or step + 1 == cfg.total_steps:
            yield step + 1, mdl, params


def grad_check(mdl: M.Model, example, eps: float = 1e-5, n_coords: int = 200,
               seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples roughly n_coords coordinates spread over every named
    parameter, on a float64 copy of the weights (the one float64 model
    the lab makes), and leaves `mdl` untouched. The relative denominator
    is floored at 1e-6: below that the central difference is dominated
    by round-off (~1e-11 absolute at eps=1e-5), so tiny gradients are
    compared absolutely.
    """
    pairs, labels = example
    mdl = M.Model(mdl.config, {name: p.astype(np.float64) for name, p in mdl.params.items()})
    _, grads = M.loss_and_grads(mdl, pairs, labels)
    rng = np.random.default_rng(seed)
    per_param = max(1, -(-n_coords // len(mdl.params)))
    max_rel = 0.0
    for name, p in mdl.params.items():
        flat = p.reshape(-1)
        coords = rng.choice(flat.size, size=min(per_param, flat.size), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            lp = M.loss_and_grads(mdl, pairs, labels)[0]
            flat[c] = orig - eps
            lm = M.loss_and_grads(mdl, pairs, labels)[0]
            flat[c] = orig
            numeric = (lp - lm) / (2 * eps)
            analytic = grads[name].reshape(-1)[c]
            denom = max(abs(analytic), abs(numeric), 1e-6)
            max_rel = max(max_rel, abs(analytic - numeric) / denom)
    return max_rel
