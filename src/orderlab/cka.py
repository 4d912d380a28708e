"""Linear-kernel Centered Kernel Alignment between hidden representations.

`cka_linear` is the feature-space formulation: after centering the
columns of X (n x d1) and Y (n x d2),

    CKA(X, Y) = ||Y^T X||_F^2 / (||X^T X||_F * ||Y^T Y||_F)

which is invariant to orthogonal transformations and isotropic scaling
of either argument. `capture` runs one model over perturbed examples
batch-wise and keeps every layer's hidden states; `score` computes CKA
per layer between two captures and averages over batches; a layer with
no variance in a batch scores NaN there. `compare` perturbs a dataset
and does both for two (model, perturbation) conditions: the tests'
reference for the runner's and `orderlab cka`'s `experiment.cka_capture`.
"""

from __future__ import annotations

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


def _cka_or_nan(x: np.ndarray, y: np.ndarray) -> float:
    try:
        return cka_linear(x, y)
    except DegenerateInputError:
        return float("nan")


def _rows(acts, pairs, selector):
    """Representation rows per layer: CLS states or all non-pad tokens."""
    if selector == "cls_only":
        return [a[:, 0, :] for a in acts]
    rows_per_layer = []
    for a in acts:
        rows = [a[i, :len(p.ids), :] for i, p in enumerate(pairs)]
        rows_per_layer.append(np.concatenate(rows, axis=0))
    return rows_per_layer


Capture = list[tuple[int, list, list[np.ndarray]]]


def capture(mdl: M.Model, examples, batch_size: int = 64) -> Capture:
    """Every layer's hidden states of one (model, perturbation) over
    `examples` (TokenizedPair, each as perturbed), from one capture
    forward per batch: per batch, its offset, perturbed pairs and L+1
    activations. A last batch of fewer than 2 examples is left out: CKA
    needs 2 rows."""
    if not examples:
        raise ValueError("empty dataset")
    batches = []
    for start in range(0, len(examples), batch_size):
        batch = examples[start:start + batch_size]
        if len(batch) < 2:
            break
        batches.append((start, batch, M.forward(mdl, batch, capture=True).activations))
    return batches


def score(a: Capture, b: Capture, selector: str = "cls_only") -> CkaReport:
    """Batch-averaged per-layer CKA between two captures of one dataset.

    A layer whose rows have zero variance in a batch, on either side,
    scores NaN for that batch, and so its average is NaN; the batch's
    other layers count as usual. Under `cls_only` layer 0 is the [CLS]
    embedding, the same for every example: in float32 its centred rows
    are exactly 0, in float64 rounding noise.
    """
    if selector not in ("cls_only", "all_tokens"):
        raise ValueError(f"unknown selector {selector!r}")
    if [start for start, _, _ in a] != [start for start, _, _ in b]:
        raise ValueError("captures cover different batches")

    report = CkaReport()
    for (_, pairs_a, acts_a), (_, pairs_b, acts_b) in zip(a, b):
        rows_a = _rows(acts_a, pairs_a, selector)
        rows_b = _rows(acts_b, pairs_b, selector)
        if len(rows_a) != len(rows_b):
            raise ValueError("models capture different layer counts")
        values = [_cka_or_nan(xa, xb) for xa, xb in zip(rows_a, rows_b)]
        report.per_batch.append(values)
        report.n_batches += 1

    if report.n_batches == 0:
        raise ValueError("no usable batches")
    report.per_layer = [sum(layer) / report.n_batches for layer in zip(*report.per_batch)]
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
    a, b = ([perturb.apply(p, mode, str(i)) for i, p in enumerate(dataset)]
            for mode in (perturb_a, perturb_b))
    return score(capture(model_a, a, batch_size), capture(model_b, b, batch_size), selector)


def write_report_csv(report: CkaReport, path):
    """CSV: `layer,cka_mean,n_batches` (layer 0 = post-embedding)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("layer,cka_mean,n_batches\n")
        for layer, value in enumerate(report.per_layer):
            f.write(f"{layer},{value:.6f},{report.n_batches}\n")
