"""Linear-kernel Centered Kernel Alignment between hidden representations.

`cka_linear` is the feature-space formulation: after centering the
columns of X (n x d1) and Y (n x d2),

    CKA(X, Y) = ||Y^T X||_F^2 / (||X^T X||_F * ||Y^T Y||_F)

which is invariant to orthogonal transformations and isotropic scaling
of either argument. `capture` runs one model under one perturbation
over a dataset batch-wise and keeps every layer's hidden states;
`score` computes CKA per layer between two captures and averages over
batches. `compare` does both for two (model, perturbation) conditions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import perturb


class DegenerateInputError(ValueError):
    """All columns of a representation have zero variance."""


@dataclass
class CkaReport:
    per_layer: list[float] = field(default_factory=list)
    per_batch: list[list[float]] = field(default_factory=list)  # [batch][layer]
    n_batches: int = 0
    n_skipped: int = 0
    selector: str = "cls_only"
    condition_a: str = ""
    condition_b: str = ""


def cka_linear(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("inputs must be 2-D with matching sample counts")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    denom = np.linalg.norm(xc.T @ xc) * np.linalg.norm(yc.T @ yc)
    if denom == 0.0:
        raise DegenerateInputError("zero-variance representation")
    return float(np.linalg.norm(yc.T @ xc) ** 2 / denom)


def _rows(acts, pairs, selector):
    """Representation rows per layer: CLS states or all non-pad tokens."""
    if selector == "cls_only":
        return [a[:, 0, :] for a in acts]
    rows_per_layer = []
    for a in acts:
        rows = [a[i, :p.n_total, :] for i, p in enumerate(pairs)]
        rows_per_layer.append(np.concatenate(rows, axis=0))
    return rows_per_layer


@dataclass
class Capture:
    """Every layer's hidden states of one (model, perturbation) over a
    dataset: per batch, its offset, perturbed pairs and L+1 activations."""
    condition: str
    batches: list[tuple[int, list, list[np.ndarray]]]


def capture(mdl: M.Model, mode: perturb.PerturbMode, dataset,
            batch_size: int = 64) -> Capture:
    """One capture forward per batch of `dataset` (natural TokenizedPair)
    under `mode`; each example's index is its perturbation key. A last
    batch of fewer than 2 examples is left out: CKA needs 2 rows."""
    if not dataset:
        raise ValueError("empty dataset")
    batches = []
    for start in range(0, len(dataset), batch_size):
        batch = dataset[start:start + batch_size]
        if len(batch) < 2:
            break
        pairs = [perturb.apply(p, mode, str(start + i)) for i, p in enumerate(batch)]
        batches.append((start, pairs, M.forward(mdl, pairs, capture=True).activations))
    return Capture(perturb.format_mode(mode), batches)


def score(a: Capture, b: Capture, selector: str = "cls_only") -> CkaReport:
    """Batch-averaged per-layer CKA between two captures of one dataset."""
    if selector not in ("cls_only", "all_tokens"):
        raise ValueError(f"unknown selector {selector!r}")
    if [start for start, _, _ in a.batches] != [start for start, _, _ in b.batches]:
        raise ValueError("captures cover different batches")

    report = CkaReport(selector=selector, condition_a=a.condition, condition_b=b.condition)
    n_layers = None
    for (start, pairs_a, acts_a), (_, pairs_b, acts_b) in zip(a.batches, b.batches):
        rows_a = _rows(acts_a, pairs_a, selector)
        rows_b = _rows(acts_b, pairs_b, selector)
        if len(rows_a) != len(rows_b):
            raise ValueError("models capture different layer counts")
        try:
            values = [cka_linear(xa, xb) for xa, xb in zip(rows_a, rows_b)]
        except DegenerateInputError:
            warnings.warn(f"skipping degenerate batch at offset {start}")
            report.n_skipped += 1
            continue
        report.per_batch.append(values)
        report.n_batches += 1
        n_layers = len(values)

    if report.n_batches == 0:
        raise ValueError("no usable batches")
    report.per_layer = [
        sum(b[l] for b in report.per_batch) / report.n_batches for l in range(n_layers)
    ]
    return report


def compare(model_a: M.Model, perturb_a: perturb.PerturbMode,
            model_b: M.Model, perturb_b: perturb.PerturbMode,
            dataset, selector: str = "cls_only", batch_size: int = 64) -> CkaReport:
    """Batch-averaged per-layer CKA between two (model, perturbation) conditions.

    `dataset` is a list of natural TokenizedPair; each example's index is
    its perturbation key. Both models must share tokenizer and max_len.
    """
    if model_a.config.max_len != model_b.config.max_len:
        raise ValueError("models disagree on max_len")
    return score(capture(model_a, perturb_a, dataset, batch_size),
                 capture(model_b, perturb_b, dataset, batch_size), selector)


def write_report_csv(report: CkaReport, path):
    """CSV: `layer,cka_mean,n_batches` (layer 0 = post-embedding)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("layer,cka_mean,n_batches\n")
        for layer, value in enumerate(report.per_layer):
            f.write(f"{layer},{value:.6f},{report.n_batches}\n")
