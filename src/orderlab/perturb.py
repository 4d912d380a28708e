"""Order-destroying input manipulations.

Perturbations operate on token ids after encoding, only within the
query and passage spans, so the [CLS] and [SEP] ids, and the spans and
segments read from them, stay put. Shuffling is a seeded Fisher-Yates
keyed per example so runs are reproducible across machines and epochs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # tokenizer imports this module, for PairMemo.perturbed
    from .tokenizer import TokenizedPair


@dataclass(frozen=True)
class PerturbMode:
    kind: str  # natural | sort_desc | shuffle
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("natural", "sort_desc", "shuffle"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")


NATURAL = PerturbMode("natural")
SORT_DESC = PerturbMode("sort_desc")


def shuffle_mode(seed: int) -> PerturbMode:
    return PerturbMode("shuffle", seed)


def parse_mode(text: str) -> PerturbMode:
    """Parse the CLI grammar `natural | sort | shuffle | shuffle:<seed>`."""
    if text == "natural":
        return NATURAL
    if text == "sort":
        return SORT_DESC
    if text == "shuffle":
        return shuffle_mode(0)
    if text.startswith("shuffle:"):
        return shuffle_mode(int(text[len("shuffle:"):]))
    raise ValueError(f"unknown perturbation mode {text!r}")


def format_mode(mode: PerturbMode) -> str:
    if mode.kind == "natural":
        return "natural"
    if mode.kind == "sort_desc":
        return "sort"
    return f"shuffle:{mode.seed}"


def derive_seed(seed: int, key: str) -> int:
    """64-bit stream seed from the global seed and a per-example key."""
    digest = hashlib.sha256(f"{seed}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def fisher_yates(values: list[int], rng: np.random.Generator) -> list[int]:
    """Swap position i (from the end down) with a draw j in [0, i].

    All draws come from one `integers` call with one bound per step,
    which yields the stream of one scalar call per step.
    """
    out = list(values)
    n = len(out)
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        out[i], out[j] = out[j], out[i]
    return out


def _perturb_span(ids: list[int], span: tuple[int, int], mode: PerturbMode,
                  example_key: str, side: str):
    start, end = span
    if end < start:
        return
    chunk = ids[start:end + 1]
    if mode.kind == "sort_desc":
        chunk = sorted(chunk, reverse=True)
    elif mode.kind == "shuffle":
        rng = np.random.default_rng(derive_seed(mode.seed, f"{example_key}|{side}"))
        chunk = fisher_yates(chunk, rng)
    ids[start:end + 1] = chunk


def apply(pair: TokenizedPair, mode: PerturbMode, example_key: str = "") -> TokenizedPair:
    """Perturb query and passage spans independently; pure function.

    The result is a new pair with its own `ids`: pairs are read-only
    once made.
    """
    if mode.kind == "natural":
        return pair
    ids = list(pair.ids)
    _perturb_span(ids, pair.query_span, mode, example_key, "q")
    _perturb_span(ids, pair.passage_span, mode, example_key, "p")
    return replace(pair, ids=ids)
