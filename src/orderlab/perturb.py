"""Order-destroying input manipulations.

Perturbations operate on token ids after encoding, only within the
query and passage spans, so the [CLS] and [SEP] ids, and the spans and
segments read from them, stay put. Shuffling is a seeded Fisher-Yates
keyed per example so runs are reproducible across machines and epochs:
each span's stream is `numpy.random.default_rng(derive_seed(...))`.

`apply_many` perturbs a batch of pairs in one call, and every caller
goes through it. For a shuffle it evaluates numpy's stream of each span
as arrays over the whole batch: the SeedSequence hash, PCG64's raw
outputs in closed form, and Lemire's bounded draws. A span whose draws
need Lemire's rejection step (about one in 10^7) is shuffled by
`fisher_yates` with its own generator. `apply` is the one-example form.
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
    which yields the stream of one scalar call per step. This is the
    reference `apply_many` reproduces, and its path for rejected spans.
    """
    out = list(values)
    n = len(out)
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        out[i], out[j] = out[j], out[i]
    return out


# numpy's SeedSequence: 32-bit hash constants, pool of 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_M32 = 0xFFFFFFFF
_M64, _M128 = (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of the first n hashmix calls: the
    hash constant runs init, init*mult, ... whatever the data."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts[:-1], np.uint32), np.array(consts[1:], np.uint32)


# pool fill: 4 calls; mixing: 3 calls per source word; output: 8 words
_POOL_XOR, _POOL_MUL = _hash_constants(_INIT_A, _MULT_A, 4 + 4 * 3)
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> np.uint32(16))


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` of each uint64
    seed, one row per seed.

    A seed's entropy is its two little-endian 32-bit words; numpy's one
    word for a seed below 2^32 hashes as these two, the second 0.
    """
    entropy = np.zeros((len(seeds), 4), np.uint32)
    entropy[:, :2] = seeds.astype("<u8").view("<u4").reshape(-1, 2)
    pool = _hashmix(entropy, _POOL_XOR[:4], _POOL_MUL[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_MULT_L * pool[:, dst] - _MIX_MULT_R * _hashmix(
            pool[:, src:src + 1], _POOL_XOR[calls], _POOL_MUL[calls])
        pool[:, dst] = mixed ^ (mixed >> np.uint32(16))
    state = _hashmix(np.tile(pool, 2), _STATE_XOR, _STATE_MUL)
    return np.ascontiguousarray(state, "<u4").view("<u8").astype(np.uint64, copy=False)


# row t: PCG64's state after seeding and t steps is
# A_t * initstate + C_t * inc (mod 2^128), with A_t = M^(t+1) and
# C_t = 1 + M + ... + M^(t+1); columns A_t high, A_t low, C_t high, C_t low
_JUMPS = np.zeros((0, 4), np.uint64)


def _jumps(t_max: int) -> np.ndarray:
    """The jump table through row t_max, grown (and kept) on demand."""
    global _JUMPS
    if len(_JUMPS) <= t_max:
        rows, a, c = [], _PCG_MULT, _PCG_MULT + 1
        for _ in range(max(2 * t_max, 64)):
            rows.append((a >> 64, a & _M64, c >> 64, c & _M64))
            a, c = a * _PCG_MULT & _M128, (c * _PCG_MULT + 1) & _M128
        _JUMPS = np.array(rows, np.uint64)
    return _JUMPS


def _mul_wide(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products a*b of uint64 arrays, as (high, low) words."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of `counts[s]` items, each item's run s and index in its run."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)


def _pcg64_raw(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first `counts[s]` raw outputs of `PCG64` seeded from seed-word
    row s (see `_seed_words`), row after row."""
    run, index = _ragged(counts)
    a_hi, a_lo, c_hi, c_lo = _jumps(int(counts.max(initial=0)))[index + 1].T
    x_hi, x_lo = words[run, 0], words[run, 1]
    inc_hi = ((words[:, 2] << 1) | (words[:, 3] >> 63))[run]
    inc_lo = ((words[:, 3] << 1) | 1)[run]
    hi, lo = _mul_wide(a_lo, x_lo)
    c_hi_lo, c_lo_lo = _mul_wide(c_lo, inc_lo)
    lo += c_lo_lo
    hi += c_hi_lo + (lo < c_lo_lo) + a_hi * x_lo + a_lo * x_hi + c_hi * inc_lo + c_lo * inc_hi
    xored, rot = hi ^ lo, hi >> 58  # XSL-RR output
    return (xored >> rot) | (xored << ((64 - rot) & 63))


def _shuffle(chunks: list[list[int]], seeds: list[int]) -> list[list[int]]:
    """`fisher_yates(chunk, default_rng(seed))` of each chunk, with the
    draws of every chunk made at once.

    Each draw j in [0, i] is Lemire's multiply of the next 32-bit half of
    the stream, low half first, by i + 1. A chunk with any draw in the
    rejection zone goes to `fisher_yates`, since numpy draws again there.
    """
    lengths = np.array([len(c) for c in chunks], np.int64)
    n_draws = np.maximum(lengths - 1, 0)
    n_raw = (n_draws + 1) // 2
    raw = _pcg64_raw(_seed_words(np.array(seeds, np.uint64)), n_raw)
    halves = np.stack([raw & _M32, raw >> 32], axis=1).ravel()
    run, k = _ragged(n_draws)
    bound = (lengths[run] - k).astype(np.uint64)  # i + 1
    m = halves[2 * (np.cumsum(n_raw) - n_raw)[run] + k] * bound
    rejected = (m & _M32) < np.uint64(1 << 32) % bound
    bad = set(run[rejected].tolist())
    draws = (m >> 32).tolist()
    out, pos = [], 0
    for s, (chunk, seed) in enumerate(zip(chunks, seeds)):
        n = len(chunk)
        if s in bad:
            chunk = fisher_yates(chunk, np.random.default_rng(seed))
        else:
            chunk = list(chunk)
            for i, j in zip(range(n - 1, 0, -1), draws[pos:pos + n - 1]):
                chunk[i], chunk[j] = chunk[j], chunk[i]
        out.append(chunk)
        pos += max(n - 1, 0)
    return out


def apply_many(pairs: list[TokenizedPair], mode: PerturbMode,
               example_keys: list[str]) -> list[TokenizedPair]:
    """Perturb the query and passage spans of each pair independently;
    pure function.

    With key = `example_keys[i]`, pair i's query span shuffles under
    `derive_seed(mode.seed, f"{key}|q")` and its passage span under
    `f"{key}|p"`, so a pair's result does not depend on the rest of the
    batch. Natural pairs come back as they are; any other result is a
    new pair with its own `ids`: pairs are read-only once made.
    """
    if len(pairs) != len(example_keys):
        raise ValueError(f"{len(pairs)} pairs but {len(example_keys)} example keys")
    if mode.kind == "natural" or not pairs:
        return list(pairs)
    rows = [list(pair.ids) for pair in pairs]
    spans = [(row, span, f"{key}|{side}")
             for pair, row, key in zip(pairs, rows, example_keys)
             for side, span in (("q", pair.query_span), ("p", pair.passage_span))]
    chunks = [row[start:end + 1] for row, (start, end), _ in spans]
    if mode.kind == "sort_desc":
        chunks = [sorted(chunk, reverse=True) for chunk in chunks]
    else:
        chunks = _shuffle(chunks, [derive_seed(mode.seed, key) for *_, key in spans])
    for (row, (start, end), _), chunk in zip(spans, chunks):
        row[start:end + 1] = chunk
    return [replace(pair, ids=row) for pair, row in zip(pairs, rows)]


def apply(pair: TokenizedPair, mode: PerturbMode, example_key: str = "") -> TokenizedPair:
    """`apply_many` of one pair."""
    return apply_many([pair], mode, [example_key])[0]
