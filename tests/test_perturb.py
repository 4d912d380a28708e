import hashlib
from collections import Counter

import numpy as np
import pytest

from orderlab import perturb
from orderlab.perturb import (NATURAL, SORT_DESC, PerturbMode, apply,
                              parse_mode, format_mode, shuffle_mode)
from orderlab.tokenizer import CLS_ID, SEP_ID, TokenizedPair


def make_pair(q_ids, p_ids):
    return TokenizedPair([CLS_ID, *q_ids, SEP_ID, *p_ids, SEP_ID])


def random_pair(rng):
    nq = int(rng.integers(1, 9))
    np_ = int(rng.integers(0, 30))
    lo, hi = 4, 500
    return make_pair(rng.integers(lo, hi, nq).tolist(), rng.integers(lo, hi, np_).tolist())


class TestModeGrammar:
    def test_parse(self):
        assert parse_mode("natural") == NATURAL
        assert parse_mode("sort") == SORT_DESC
        assert parse_mode("shuffle:7") == PerturbMode("shuffle", 7)
        assert parse_mode("shuffle") == PerturbMode("shuffle", 0)

    def test_round_trip(self):
        for text in ("natural", "sort", "shuffle:0", "shuffle:42"):
            assert format_mode(parse_mode(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_mode("sorted")
        with pytest.raises(ValueError):
            parse_mode("shuffle:abc")
        with pytest.raises(ValueError):
            parse_mode("shufflefoo")
        with pytest.raises(ValueError):
            PerturbMode("reverse")


class TestSort:
    def test_descending_within_each_span(self):
        pair = make_pair([7, 5, 9], [4, 8])
        out = apply(pair, SORT_DESC)
        assert out.ids == [CLS_ID, 9, 7, 5, SEP_ID, 8, 4, SEP_ID]
        assert out.sep_positions == pair.sep_positions
        assert out.query_span == pair.query_span

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pair = random_pair(rng)
            once = apply(pair, SORT_DESC)
            assert apply(once, SORT_DESC).ids == once.ids

    def test_input_order_independent(self):
        a = make_pair([7, 5, 9], [4, 8])
        b = make_pair([9, 7, 5], [8, 4])
        assert apply(a, SORT_DESC).ids == apply(b, SORT_DESC).ids


class TestShuffle:
    def test_deterministic_per_key(self):
        rng = np.random.default_rng(2)
        pair = random_pair(rng)
        mode = shuffle_mode(11)
        assert apply(pair, mode, "k1").ids == apply(pair, mode, "k1").ids

    def test_distinct_keys_differ(self):
        pair = make_pair(list(range(10, 30)), list(range(30, 60)))
        mode = shuffle_mode(11)
        outs = {tuple(apply(pair, mode, f"k{i}").ids) for i in range(20)}
        assert len(outs) == 20

    def test_distinct_seeds_differ(self):
        pair = make_pair(list(range(10, 30)), list(range(30, 60)))
        outs = {tuple(apply(pair, shuffle_mode(s), "k").ids) for s in range(20)}
        assert len(outs) == 20

    def test_matches_hand_run_fisher_yates(self):
        # independent re-derivation: sha256 of "<seed>|<key>|<side>", first
        # 8 bytes little-endian, seeding numpy's default generator
        pair = make_pair([5, 6, 7], [])
        out = apply(pair, shuffle_mode(42), "q1:d1")
        digest = hashlib.sha256(b"42|q1:d1|q").digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        expect = [5, 6, 7]
        for i in (2, 1):
            j = int(rng.integers(0, i + 1))
            expect[i], expect[j] = expect[j], expect[i]
        assert out.span_ids(out.query_span) == expect

    def test_query_and_passage_streams_independent(self):
        pair = make_pair([10, 11, 12, 13], [10, 11, 12, 13])
        out = apply(pair, shuffle_mode(0), "k")
        # same values, but the two spans draw from different streams, so
        # over many keys they disagree at least once
        diffs = 0
        for i in range(50):
            o = apply(pair, shuffle_mode(0), f"k{i}")
            if o.span_ids(o.query_span) != o.span_ids(o.passage_span):
                diffs += 1
        assert diffs > 0


class TestInvariants:
    @pytest.mark.parametrize("mode", [SORT_DESC, shuffle_mode(3)])
    def test_structure_preserved(self, mode):
        rng = np.random.default_rng(4)
        for i in range(500):
            pair = random_pair(rng)
            out = apply(pair, mode, str(i))
            assert Counter(out.ids) == Counter(pair.ids)
            assert out.ids[0] == CLS_ID
            assert [j for j, t in enumerate(out.ids) if t == SEP_ID] == list(pair.sep_positions)
            assert out.sep_positions == pair.sep_positions
            assert out.query_span == pair.query_span
            assert out.passage_span == pair.passage_span
            # span contents are permutations of the originals
            assert Counter(out.span_ids(out.query_span)) == Counter(pair.span_ids(pair.query_span))
            assert Counter(out.span_ids(out.passage_span)) == Counter(pair.span_ids(pair.passage_span))

    def test_natural_is_identity(self):
        pair = make_pair([7, 5], [9])
        assert apply(pair, NATURAL, "k").ids == pair.ids

    def test_pure_function(self):
        pair = make_pair([7, 5, 9], [4, 8])
        before = list(pair.ids)
        apply(pair, SORT_DESC)
        apply(pair, shuffle_mode(1), "k")
        assert pair.ids == before

    def test_empty_passage_span(self):
        pair = make_pair([7, 5], [])
        out = apply(pair, SORT_DESC)
        assert out.ids == [CLS_ID, 7, 5, SEP_ID, SEP_ID]


def per_step_fisher_yates(values, rng):
    """The shuffle as one scalar draw per step: the reference stream."""
    out = list(values)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        out[i], out[j] = out[j], out[i]
    return out


class TestFisherYates:
    def test_matches_per_step_draws(self):
        # one generator per seed runs through every length in turn, so the
        # number of draws each call takes must match too
        for seed in range(1000):
            fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in range(71):
                values = list(range(100, 100 + n))
                assert perturb.fisher_yates(values, fast) == \
                    per_step_fisher_yates(values, ref), (seed, n)


def reference(chunk, mode_seed, key):
    """The shuffle of one span as `apply` has always made it."""
    return perturb.fisher_yates(chunk, np.random.default_rng(perturb.derive_seed(mode_seed, key)))


def spans_of(pair):
    return pair.span_ids(pair.query_span), pair.span_ids(pair.passage_span)


# the seed words' edge cases: one 32-bit entropy word or two, all-ones
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestApplyMany:
    @pytest.mark.parametrize("mode_seed", [0, 13, 2**63 + 5, 2**64 - 1])
    def test_matches_per_span_reference(self, mode_seed):
        # 2,500 pairs per mode seed in batches of mixed lengths, spans of
        # 0 to 509 tokens (the CLI's max_len of 512 less its 3 specials)
        rng = np.random.default_rng(mode_seed % 1000)
        mode = shuffle_mode(mode_seed)
        lengths = [(0, 509), (509, 0), (1, 1), (2, 0)]
        lengths += [(int(rng.integers(0, 30)), int(rng.integers(0, 510 if i % 4 == 0 else 60)))
                    for i in range(2500 - len(lengths))]
        pairs = [make_pair(rng.integers(4, 500, nq).tolist(), rng.integers(4, 500, np_).tolist())
                 for nq, np_ in lengths]
        keys = [f"{i}:d{i % 17}" for i in range(len(pairs))]
        start = 0
        for size in (1, 2, 7, 490, *[500] * 4):
            batch, batch_keys = pairs[start:start + size], keys[start:start + size]
            for pair, key, out in zip(batch, batch_keys, perturb.apply_many(batch, mode, batch_keys)):
                q, p = spans_of(pair)
                assert spans_of(out) == (reference(q, mode_seed, f"{key}|q"),
                                         reference(p, mode_seed, f"{key}|p")), key
                assert out.sep_positions == pair.sep_positions
            start += size
        assert start == len(pairs)

    def test_sort_and_natural(self):
        rng = np.random.default_rng(6)
        pairs = [random_pair(rng) for _ in range(200)]
        keys = [str(i) for i in range(200)]
        assert perturb.apply_many(pairs, NATURAL, keys) == pairs
        assert [p.ids for p in perturb.apply_many(pairs, SORT_DESC, keys)] == [
            [pair.ids[0], *sorted(q, reverse=True), SEP_ID, *sorted(p, reverse=True), SEP_ID]
            for pair in pairs for q, p in [spans_of(pair)]]

    def test_empty_batch(self):
        for mode in (NATURAL, SORT_DESC, shuffle_mode(3)):
            assert perturb.apply_many([], mode, []) == []

    def test_keys_must_match_pairs(self):
        with pytest.raises(ValueError):
            perturb.apply_many([make_pair([5], [6])], shuffle_mode(1), [])

    def test_result_does_not_depend_on_batch(self):
        rng = np.random.default_rng(8)
        pairs = [random_pair(rng) for _ in range(30)]
        keys = [f"k{i}" for i in range(30)]
        batch = perturb.apply_many(pairs, shuffle_mode(2), keys)
        assert [p.ids for p in batch] == [apply(p, shuffle_mode(2), k).ids
                                          for p, k in zip(pairs, keys)]

    def test_reference_only_for_rejected_spans(self, monkeypatch):
        # no span of this batch needs Lemire's rejection step
        monkeypatch.setattr(perturb, "fisher_yates", None)
        rng = np.random.default_rng(9)
        pairs = [random_pair(rng) for _ in range(300)]
        perturb.apply_many(pairs, shuffle_mode(13), [str(i) for i in range(300)])

    def test_rejected_span_takes_the_reference(self, monkeypatch):
        # found by search: the 61-token passage of key r4705460 under
        # shuffle:0 has a draw in Lemire's rejection zone, where numpy
        # draws again, so the batch arithmetic alone would go wrong
        pair = make_pair([5, 6, 7], list(range(100, 161)))
        seed = perturb.derive_seed(0, "r4705460|p")
        passage = pair.span_ids(pair.passage_span)
        taken = []
        fisher_yates = perturb.fisher_yates

        def counted(values, rng):
            taken.append(list(values))
            return fisher_yates(values, rng)

        monkeypatch.setattr(perturb, "fisher_yates", counted)
        out = apply(pair, shuffle_mode(0), "r4705460")
        monkeypatch.undo()
        assert taken == [passage]
        assert out.span_ids(out.passage_span) == reference(passage, 0, "r4705460|p")
        assert out.span_ids(out.query_span) == reference([5, 6, 7], 0, "r4705460|q")
        # Lemire's multiply without the rejection step gives another order
        raw = perturb._pcg64_raw(perturb._seed_words(np.array([seed], np.uint64)),
                                 np.array([30])).tolist()
        halves = [h for r in raw for h in (r & 0xFFFFFFFF, r >> 32)]
        naive = list(passage)
        for i, half in zip(range(60, 0, -1), halves):
            j = half * (i + 1) >> 32
            naive[i], naive[j] = naive[j], naive[i]
        assert naive != out.span_ids(out.passage_span)


class TestNumpyStreams:
    """The batch helpers against numpy itself, so a change in numpy's
    seeding or generator shows here."""

    def test_seed_words(self):
        rng = np.random.default_rng(10)
        seeds = EDGE_SEEDS + [int(s) for s in rng.integers(0, 2**64 - 1, 2000, dtype=np.uint64,
                                                            endpoint=True)]
        got = perturb._seed_words(np.array(seeds, np.uint64))
        want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
        assert got.dtype == np.uint64
        assert got.tolist() == np.array(want).tolist()

    def test_pcg64_raw_outputs(self):
        rng = np.random.default_rng(11)
        seeds = EDGE_SEEDS + [int(s) for s in rng.integers(0, 2**63, 300, dtype=np.uint64)]
        counts = np.array([0, 1, 300] + [int(c) for c in rng.integers(0, 40, len(seeds) - 3)])
        got = perturb._pcg64_raw(perturb._seed_words(np.array(seeds, np.uint64)), counts)
        want = [np.random.PCG64(s).random_raw(int(c)) for s, c in zip(seeds, counts)]
        assert got.tolist() == np.concatenate(want).tolist()

    def test_draws_are_low_half_first(self):
        # integers(0, arange(n, 1, -1)) draws 32-bit halves, low half first
        seed = 12345
        raw = np.random.PCG64(seed).random_raw(3).tolist()
        halves = [h for r in raw for h in (r & 0xFFFFFFFF, r >> 32)]
        got = np.random.default_rng(seed).integers(0, np.arange(7, 1, -1)).tolist()
        assert got == [h * (i + 1) >> 32 for i, h in zip(range(6, 0, -1), halves)]
