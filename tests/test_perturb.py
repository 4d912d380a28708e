import hashlib
from collections import Counter

import numpy as np
import pytest

from orderlab import perturb
from orderlab.perturb import (NATURAL, SORT_DESC, PerturbMode, apply,
                              parse_mode, format_mode, shuffle_mode)
from orderlab.tokenizer import CLS_ID, SEP_ID, TokenizedPair


def make_pair(q_ids, p_ids):
    ids = [CLS_ID] + list(q_ids) + [SEP_ID] + list(p_ids) + [SEP_ID]
    first_sep = 1 + len(q_ids)
    segments = [0] * (first_sep + 1) + [1] * (len(p_ids) + 1)
    return TokenizedPair(
        ids=ids,
        segments=segments,
        query_span=(1, first_sep - 1),
        passage_span=(first_sep + 1, len(ids) - 2),
        sep_positions=(first_sep, len(ids) - 1),
    )


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
            PerturbMode("reverse")


class TestSort:
    def test_descending_within_each_span(self):
        pair = make_pair([7, 5, 9], [4, 8])
        out = apply(pair, SORT_DESC)
        assert out.ids == [CLS_ID, 9, 7, 5, SEP_ID, 8, 4, SEP_ID]
        assert out.segments == pair.segments
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
            assert out.ids[out.sep_positions[0]] == SEP_ID
            assert out.ids[out.sep_positions[1]] == SEP_ID
            assert out.segments == pair.segments
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
