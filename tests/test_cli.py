import hashlib
import importlib.util
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from orderlab import bm25, cka, cli, corpus, experiment, metrics, perturb, tokenizer
from orderlab import model as M
from orderlab import train as T

GEN = ["generate", "--vocab-size", "300", "--n-docs", "300", "--n-queries", "20",
       "--seed", "3"]


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert run_cli(*GEN, "--out", str(d)) == 0
    return d


class TestGenerate:
    def test_writes_all_artifacts(self, data_dir):
        for name in ("collection.tsv", "queries.tsv", "qrels.txt",
                     "triples.tsv", "vocab.txt"):
            assert (data_dir / name).exists()

    def test_same_seed_byte_identical(self, data_dir, tmp_path):
        assert run_cli(*GEN, "--out", str(tmp_path)) == 0
        for name in ("collection.tsv", "queries.tsv", "qrels.txt", "triples.tsv"):
            assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes()


class TestRetrieveEvaluate:
    def test_index_exit_zero(self, data_dir, capsys):
        assert run_cli("index", "--collection", str(data_dir / "collection.tsv")) == 0
        out = capsys.readouterr().out
        assert out.startswith("docs\t300")

    def test_retrieve_then_evaluate(self, data_dir, tmp_path, capsys):
        run_path = tmp_path / "bm25.run"
        assert run_cli("retrieve", "--collection", str(data_dir / "collection.tsv"),
                       "--queries", str(data_dir / "queries.tsv"),
                       "--out", str(run_path), "--k", "20") == 0
        run = corpus.load_run(run_path)
        assert len(run.entries) == 20
        report = tmp_path / "report.tsv"
        assert run_cli("evaluate", "--run", str(run_path),
                       "--qrels", str(data_dir / "qrels.txt"),
                       "--out", str(report)) == 0
        lines = report.read_text().splitlines()
        means = {l.split("\t")[0]: float(l.split("\t")[2])
                 for l in lines if l.split("\t")[1] == "all"}
        # planted relevant docs share rare query terms, so BM25 beats chance
        assert means["ndcg@10"] > 0.3


class TestTrainRerank:
    def test_train_rerank_round_trip(self, data_dir, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli("train", "--triples", str(data_dir / "triples.tsv"),
                       "--vocab", str(data_dir / "vocab.txt"),
                       "--out", str(ckpt), "--steps", "30", "--warmup", "5",
                       "--epoch-size", "16") == 0
        assert ckpt.exists()
        run_path = tmp_path / "bm25.run"
        assert run_cli("retrieve", "--collection", str(data_dir / "collection.tsv"),
                       "--queries", str(data_dir / "queries.tsv"),
                       "--out", str(run_path), "--k", "10") == 0
        rerank_path = tmp_path / "rerank.run"
        assert run_cli("rerank", "--run", str(run_path),
                       "--checkpoint", str(ckpt),
                       "--vocab", str(data_dir / "vocab.txt"),
                       "--queries", str(data_dir / "queries.tsv"),
                       "--collection", str(data_dir / "collection.tsv"),
                       "--out", str(rerank_path), "--k", "3") == 0
        before = corpus.load_run(run_path)
        after = corpus.load_run(rerank_path)
        for qid, entries in before.entries.items():
            # candidate set preserved; tail below the block keeps its order
            assert {e.doc_id for e in after.entries[qid]} == {e.doc_id for e in entries}
            assert [e.doc_id for e in after.entries[qid][3:]] == \
                   [e.doc_id for e in entries[3:]]


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("model") / "model.ckpt"
    assert run_cli("train", "--triples", str(data_dir / "triples.tsv"),
                   "--vocab", str(data_dir / "vocab.txt"), "--out", str(ckpt),
                   "--steps", "10", "--warmup", "2", "--epoch-size", "10") == 0
    return ckpt


def rerank_cli(data_dir, checkpoint, run_path, out, k="3"):
    return run_cli("rerank", "--run", str(run_path), "--checkpoint", str(checkpoint),
                   "--vocab", str(data_dir / "vocab.txt"),
                   "--queries", str(data_dir / "queries.tsv"),
                   "--collection", str(data_dir / "collection.tsv"),
                   "--out", str(out), "--k", k)


class TestRerankData:
    @pytest.mark.parametrize("line,missing", [
        ("q9999 Q0 d000001 1 1.000000 bm25\n", "query q9999"),
        ("q0000 Q0 d000001 1 2.000000 bm25\nq0000 Q0 d999999 2 1.000000 bm25\n",
         "doc d999999"),
    ])
    def test_id_missing_from_inputs_is_a_data_error(self, data_dir, checkpoint, tmp_path,
                                                    capsys, line, missing):
        run_path = tmp_path / "bad.run"
        run_path.write_text(line)
        assert rerank_cli(data_dir, checkpoint, run_path, tmp_path / "out.run") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and missing in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", ["-1", "0"])
    def test_k_below_one_is_a_data_error(self, data_dir, checkpoint, tmp_path, capsys, k):
        # a negative k would slice from the end of each query's list
        run_path = tmp_path / "one.run"
        run_path.write_text("q0000 Q0 d000001 1 1.000000 bm25\n")
        out = tmp_path / "out.run"
        assert rerank_cli(data_dir, checkpoint, run_path, out, k=k) == 2
        assert capsys.readouterr().err == f"error: k must be >= 1, got {k}\n"
        assert not out.exists()

    def test_truncated_checkpoint_is_a_data_error(self, data_dir, checkpoint, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(checkpoint.read_bytes()[:16])
        run_path = tmp_path / "one.run"
        run_path.write_text("q0000 Q0 d000001 1 1.000000 bm25\n")
        assert rerank_cli(data_dir, cut, run_path, tmp_path / "out.run") == 2
        assert "truncated checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("version, edit_header, message", [
        # a checkpoint written while ModelConfig held the three removed fields
        (1, lambda h: {**h, "n_segments": 2, "dropout_rate": 0.0, "init_scale": 0.02},
         "unsupported checkpoint version 1"),
        # one written while it held numeric_precision
        (2, lambda h: {**h, "numeric_precision": 32}, "unsupported checkpoint version 2"),
        (3, lambda h: {**h, "dropout_rate": 0.0}, "checkpoint config is not a ModelConfig"),
        (3, lambda h: list(h.values()), "checkpoint config is not a ModelConfig"),
        (3, lambda h: {**h, "hidden": str(h["hidden"])}, "hidden must be a positive integer"),
        # isinstance(True, int) holds, but a JSON true is no size
        (3, lambda h: {**h, "n_layers": True, "n_heads": True},
         "n_layers must be a positive integer"),
    ], ids=["version_1", "version_2", "unknown_header_key", "list_header", "string_size",
            "bool_size"])
    def test_bad_checkpoint_header_is_a_data_error(self, data_dir, checkpoint, tmp_path,
                                                   capsys, version, edit_header, message):
        data = checkpoint.read_bytes()
        start = len(M._MAGIC) + 4
        (cfg_len,) = struct.unpack("<Q", data[start:start + 8])
        header = json.loads(data[start + 8:start + 8 + cfg_len])
        blob = json.dumps(edit_header(header)).encode("utf-8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(M._MAGIC + struct.pack("<IQ", version, len(blob)) + blob
                        + data[start + 8 + cfg_len:])
        run_path = tmp_path / "one.run"
        run_path.write_text("q0000 Q0 d000001 1 1.000000 bm25\n")
        assert rerank_cli(data_dir, bad, run_path, tmp_path / "out.run") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("edit_array, message", [
        (lambda dtype, dims: (b"f3", dims), "has dtype b'f3', not f4"),
        (lambda dtype, dims: (b"f8", dims), "has dtype b'f8', not f4"),
        (lambda dtype, dims: (dtype, struct.pack("<Q", 2 ** 58) + dims[8:]), "data needs"),
    ], ids=["bad_dtype", "f8_dtype", "oversized_array"])
    def test_bad_checkpoint_array_is_a_data_error(self, data_dir, checkpoint, tmp_path,
                                                  capsys, edit_array, message):
        # the first parameter's record: name length, name, dtype code, rank, dims
        data = checkpoint.read_bytes()
        start = len(M._MAGIC) + 4
        (cfg_len,) = struct.unpack("<Q", data[start:start + 8])
        name_at = start + 8 + cfg_len + 4
        (name_len,) = struct.unpack("<H", data[name_at:name_at + 2])
        dtype_at = name_at + 2 + name_len
        ndim = data[dtype_at + 2]
        dims_at = dtype_at + 3
        dtype, dims = edit_array(data[dtype_at:dtype_at + 2], data[dims_at:dims_at + 8 * ndim])
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[:dtype_at] + dtype + data[dtype_at + 2:dims_at] + dims
                        + data[dims_at + 8 * ndim:])
        run_path = tmp_path / "one.run"
        run_path.write_text("q0000 Q0 d000001 1 1.000000 bm25\n")
        assert rerank_cli(data_dir, bad, run_path, tmp_path / "out.run") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_memo_gives_the_same_run(self, data_dir, checkpoint):
        coll = corpus.load_collection(data_dir / "collection.tsv")
        queries = corpus.load_queries(data_dir / "queries.tsv")
        vocab = tokenizer.load_vocab(data_dir / "vocab.txt")
        mdl = M.load(checkpoint)
        run = bm25.retrieve_run(bm25.build_index(coll), queries, 10)
        warm = perturb.PairMemo(vocab, mdl.config.max_len)
        for mode in (perturb.shuffle_mode(13), perturb.NATURAL, perturb.SORT_DESC,
                     perturb.shuffle_mode(14)):
            plain = experiment.rerank_run(run, mdl, vocab, queries, coll, 10, mode)
            fresh = perturb.PairMemo(vocab, mdl.config.max_len)
            assert experiment.rerank_run(run, mdl, vocab, queries, coll, 10, mode,
                                         memo=fresh) == plain
            # the run's memo: its second call in a mode reuses the first's pairs
            for _ in range(2):
                assert experiment.rerank_run(run, mdl, vocab, queries, coll, 10, mode,
                                             memo=warm) == plain
        # each pair was encoded once, by the first call: the memo holds one per entry
        assert len(warm._pairs) == sum(len(v) for v in run.entries.values())

    def test_one_forward_per_query_block(self, data_dir, checkpoint, monkeypatch):
        # a query's rerank_k = 100 block is scored in one forward, in any mode
        coll = corpus.load_collection(data_dir / "collection.tsv")
        queries = corpus.load_queries(data_dir / "queries.tsv")
        vocab = tokenizer.load_vocab(data_dir / "vocab.txt")
        mdl = M.load(checkpoint)
        qid = min(queries.entries)
        run = corpus.Run({qid: [corpus.RunEntry(doc_id, 100.0 - rank, rank, "bm25")
                                for rank, doc_id in enumerate(sorted(coll.entries)[:100], 1)]})
        forward = M.forward
        batches = []
        monkeypatch.setattr(M, "forward", lambda mdl, batch: batches.append(len(batch))
                            or forward(mdl, batch))
        for mode in (perturb.NATURAL, perturb.SORT_DESC, perturb.shuffle_mode(13)):
            batches.clear()
            out = experiment.rerank_run(run, mdl, vocab, queries, coll, 100, mode)
            assert batches == [100]
            assert len(out.entries[qid]) == 100

    def test_memo_for_another_max_len_is_refused(self, data_dir, checkpoint):
        vocab = tokenizer.load_vocab(data_dir / "vocab.txt")
        mdl = M.load(checkpoint)
        memo = perturb.PairMemo(vocab, mdl.config.max_len + 1)
        with pytest.raises(ValueError, match="memo"):
            experiment.rerank_run(corpus.Run(), mdl, vocab, corpus.QuerySet(),
                                  corpus.Collection(), 10, memo=memo)


def cka_cli(data_dir, checkpoint, run_path, *extra):
    return run_cli("cka", "--checkpoint-a", str(checkpoint), "--checkpoint-b", str(checkpoint),
                   "--vocab", str(data_dir / "vocab.txt"),
                   "--queries", str(data_dir / "queries.tsv"),
                   "--collection", str(data_dir / "collection.tsv"),
                   "--run", str(run_path), *extra)


class TestCkaData:
    def test_round_trip(self, data_dir, checkpoint, tmp_path, capsys):
        run_path = tmp_path / "bm25.run"
        assert run_cli("retrieve", "--collection", str(data_dir / "collection.tsv"),
                       "--queries", str(data_dir / "queries.tsv"),
                       "--out", str(run_path), "--k", "5") == 0
        capsys.readouterr()
        assert cka_cli(data_dir, checkpoint, run_path) == 0
        # a model compared with itself on the same input
        assert capsys.readouterr().out.splitlines()[-1].endswith("\t1.000000")

    @pytest.mark.parametrize("line,missing", [
        ("q9999 Q0 d000001 1 1.000000 bm25\n", "query q9999"),
        ("q0000 Q0 d000001 1 2.000000 bm25\nq0000 Q0 d999999 2 1.000000 bm25\n",
         "doc d999999"),
    ])
    def test_id_missing_from_inputs_is_a_data_error(self, data_dir, checkpoint, tmp_path,
                                                    capsys, line, missing):
        # the same one-line error as `orderlab rerank` gives
        run_path = tmp_path / "bad.run"
        run_path.write_text(line)
        assert cka_cli(data_dir, checkpoint, run_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and missing in err
        assert "Traceback" not in err
        assert rerank_cli(data_dir, checkpoint, run_path, tmp_path / "out.run") == 2
        assert capsys.readouterr().err == err

    def test_depth_below_one_is_a_data_error(self, data_dir, checkpoint, tmp_path, capsys):
        # a negative depth would slice from the end of each query's list
        run_path = tmp_path / "one.run"
        run_path.write_text("q0000 Q0 d000001 1 1.000000 bm25\n")
        assert cka_cli(data_dir, checkpoint, run_path, "--depth", "-1") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: depth must be >= 1, got -1\n" and captured.out == ""


class TestTrainDevHook:
    def test_dev_triples_encoded_once(self, data_dir, tmp_path, monkeypatch):
        triples = corpus.load_triples(data_dir / "triples.tsv")
        calls = []
        encode = tokenizer.encode_pair
        counted = lambda *a, **kw: calls.append(1) or encode(*a, **kw)  # noqa: E731
        # training and the dev hook each encode through a PairMemo of their own
        monkeypatch.setattr(tokenizer, "encode_pair", counted)
        # evals at steps 10, 20, 30 and 40 on the training triples as dev set
        assert run_cli("train", "--triples", str(data_dir / "triples.tsv"),
                       "--dev-triples", str(data_dir / "triples.tsv"),
                       "--vocab", str(data_dir / "vocab.txt"), "--out", str(tmp_path / "m.ckpt"),
                       "--steps", "40", "--warmup", "2",
                       "--epoch-size", "10", "--perturb", "shuffle:3") == 0
        # training encodes each distinct pair once, and so do the evals
        distinct = {(q, doc) for q, pos, neg in triples for doc in (pos, neg)}
        assert len(calls) == 2 * len(distinct)

    @pytest.mark.parametrize("mode", [perturb.NATURAL, perturb.shuffle_mode(3),
                                      perturb.SORT_DESC])
    def test_hook_gives_per_call_accuracy(self, data_dir, checkpoint, monkeypatch, mode):
        triples = corpus.load_triples(data_dir / "triples.tsv")
        vocab = tokenizer.load_vocab(data_dir / "vocab.txt")
        trained = M.load(checkpoint)
        # reference: each side of triple i encoded and perturbed under key
        # acc:i|side; the hook counts the triples whose positive scores above
        # its negative, a tie as half, and held_out_accuracy the examples
        # on their label's side of 0.5
        pairs, labels = [], []
        for i, (q, pos, neg) in enumerate(triples):
            for side, text, label in (("pos", pos, 1), ("neg", neg, 0)):
                pair = tokenizer.encode_pair(q, text, vocab, trained.config.max_len)
                pairs.append(perturb.apply(pair, mode, f"acc:{i}|{side}"))
                labels.append(label)

        forward = M.forward
        scored = []
        monkeypatch.setattr(M, "forward", lambda mdl, batch: scored.extend(batch)
                            or forward(mdl, batch))
        hook = experiment.held_out_hook(triples, vocab, trained.config.max_len, mode)
        for mdl in (trained, M.init(trained.config, 1)):
            step = experiment.SCORE_BATCH_SIZE
            probs = np.concatenate([forward(mdl, pairs[s:s + step]).relevance_prob
                                    for s in range(0, len(pairs), step)])
            want = sum(1.0 if p > n else 0.5 if p == n else 0.0
                       for p, n in zip(probs[0::2], probs[1::2])) / len(triples)
            scored.clear()
            assert hook(mdl) == want
            assert [p.ids for p in scored] == [p.ids for p in pairs]
            assert hook(mdl) == want  # the pairs made once serve every call
            accuracy = sum(int((p >= 0.5) == bool(y)) for p, y in zip(probs, labels)) / len(pairs)
            assert experiment.held_out_accuracy(mdl, triples, vocab, mode) == accuracy
        # a scorer that picks out exactly the positive examples is right on each
        positives = {tuple(p.ids) for p, y in zip(pairs, labels) if y}
        monkeypatch.setattr(M, "forward", lambda mdl, batch: M.ForwardOutput(
            logits=None, relevance_prob=[float(tuple(p.ids) in positives) for p in batch]))
        assert hook(trained) == 1.0

    def test_empty_dev_triples_is_a_data_error(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        ckpt = tmp_path / "m.ckpt"
        assert run_cli("train", "--triples", str(data_dir / "triples.tsv"),
                       "--dev-triples", str(empty), "--vocab", str(data_dir / "vocab.txt"),
                       "--out", str(ckpt), "--steps", "20", "--warmup", "2",
                       "--epoch-size", "10") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no held-out triples to score\n" and captured.out == ""
        assert not ckpt.exists()
        vocab = tokenizer.load_vocab(data_dir / "vocab.txt")
        with pytest.raises(ValueError, match="no held-out triples"):
            experiment.held_out_accuracy(M.init(M.ModelConfig(vocab_size=len(vocab)), 0), [],
                                         vocab)

    def test_hook_ranks_below_the_threshold(self, data_dir, monkeypatch):
        # every positive at 0.3 and every negative at 0.2: each triple is
        # ranked right, though every probability is under 0.5
        triples = corpus.load_triples(data_dir / "triples.tsv")
        vocab = tokenizer.load_vocab(data_dir / "vocab.txt")
        max_len = M.ModelConfig().max_len
        positives = {tuple(tokenizer.encode_pair(q, pos, vocab, max_len).ids)
                     for q, pos, _ in triples}
        monkeypatch.setattr(M, "forward", lambda mdl, batch: M.ForwardOutput(
            logits=None, relevance_prob=[0.3 if tuple(p.ids) in positives else 0.2
                                         for p in batch]))
        hook = experiment.held_out_hook(triples, vocab, max_len)
        assert hook(None) == 1.0
        # a scorer that gives every example one probability ties every triple
        monkeypatch.setattr(M, "forward", lambda mdl, batch: M.ForwardOutput(
            logits=None, relevance_prob=[0.478] * len(batch)))
        assert hook(None) == 0.5


class TestPerturbText:
    def test_sort_descending_token_ids(self, data_dir, capsys):
        assert run_cli("perturb-text", "--vocab", str(data_dir / "vocab.txt"),
                       "--mode", "sort", "w0003 w0001 w0002") == 0
        out = capsys.readouterr().out.strip()
        assert out == "query: w0003 w0002 w0001"

    @pytest.mark.parametrize("lines", ["", "[PAD]\n[UNK]\n"], ids=["empty", "two_lines"])
    def test_short_vocab_file_is_a_data_error(self, tmp_path, capsys, lines):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(lines)
        assert run_cli("perturb-text", "--vocab", str(vocab), "a b") == 2
        err = capsys.readouterr().err
        assert err == "error: vocabulary does not start with [PAD] [UNK] [CLS] [SEP]\n"

    @pytest.mark.parametrize("mode", ["shuffle:x", "shuffle:1.5"])
    def test_non_integer_shuffle_seed_is_an_unknown_mode(self, data_dir, capsys, mode):
        assert run_cli("perturb-text", "--vocab", str(data_dir / "vocab.txt"),
                       "--mode", mode, "w0001 w0002") == 2
        assert capsys.readouterr().err == f"error: unknown perturbation mode {mode!r}\n"


class TestKeepFreedMemory:
    def test_no_libc_sets_nothing(self, monkeypatch):
        def no_libc(name):
            raise OSError(f"{name}: cannot open shared object file")
        monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
        assert cli.keep_freed_memory() is False

    @pytest.mark.parametrize("libc", [SimpleNamespace(mallopt=lambda param, value: 0),
                                      SimpleNamespace()])
    def test_refused_or_missing_mallopt_sets_nothing(self, monkeypatch, libc):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        assert cli.keep_freed_memory() is False

    def test_sets_both_thresholds_to_1_gib(self, monkeypatch):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        assert cli.keep_freed_memory() is True
        assert calls == [(-3, 1 << 30), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.parametrize("argv, code", [(["no-such-command"], 1), (["index"], 1),
                                            (["index", "--collection"], 2)])
    def test_main_sets_it_once_per_invocation(self, monkeypatch, tmp_path, argv, code):
        calls = []
        monkeypatch.setattr(cli, "keep_freed_memory", lambda: calls.append(1))
        if argv[-1] == "--collection":
            argv = [*argv, str(tmp_path / "missing.tsv")]
        assert cli.main(argv) == code
        assert calls == [1]


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli("generate") == 1
        assert run_cli("no-such-command") == 1

    def test_train_has_no_preset_option(self, data_dir, tmp_path):
        assert run_cli("train", "--triples", str(data_dir / "triples.tsv"),
                       "--vocab", str(data_dir / "vocab.txt"),
                       "--out", str(tmp_path / "m.ckpt"), "--preset", "paper") == 1

    def test_no_flag_for_the_constant_settings(self, data_dir, tmp_path):
        # weight decay and the Zipf exponent are module constants
        assert run_cli("train", "--triples", str(data_dir / "triples.tsv"),
                       "--vocab", str(data_dir / "vocab.txt"),
                       "--out", str(tmp_path / "m.ckpt"), "--weight-decay", "0.1") == 1
        assert run_cli(*GEN, "--out", str(tmp_path / "out"), "--zipf", "1.2") == 1
        assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "out").exists()

    def test_data_error_missing_file(self, tmp_path, capsys):
        assert run_cli("index", "--collection", str(tmp_path / "nope.tsv")) == 2
        # a directory where a file belongs is a data error in one line too
        capsys.readouterr()
        assert run_cli("evaluate", "--run", str(tmp_path), "--qrels", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_data_error_malformed_run(self, data_dir, tmp_path):
        bad = tmp_path / "bad.run"
        bad.write_text("q1 Q0 d1 1 notanumber tag\n")
        assert run_cli("evaluate", "--run", str(bad),
                       "--qrels", str(data_dir / "qrels.txt")) == 2

    @pytest.mark.parametrize("flags", [("--epoch-size", "0"),
                                       ("--steps", "-3", "--warmup", "-5"),
                                       ("--warmup", "-1"), ("--batch-size", "17"),
                                       ("--lr", "-0.001"), ("--lr", "nan"),
                                       ("--seed", "-1")],
                             # each case keeps the id it had beside the two deleted
                             # --weight-decay cases, flags6 and flags7
                             ids=[f"flags{i}" for i in (0, 1, 2, 3, 4, 5, 8)])
    def test_bad_schedule_is_a_data_error(self, data_dir, tmp_path, capsys, flags):
        assert run_cli("train", "--triples", str(data_dir / "triples.tsv"),
                       "--vocab", str(data_dir / "vocab.txt"),
                       "--out", str(tmp_path / "m.ckpt"), *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--rule", "bigram_order", "--query-len", "1", "1"), "queries of >= 2 terms"),
        (("--rule", "bigram_order", "--query-len", "1", "2"), "queries of >= 2 terms"),
        (("--seed", "-1"), "[synthetic] seed must be >= 0, got -1"),
    ], ids=["bigram_query_len_1_1", "bigram_query_len_1_2", "negative_seed"])
    def test_infeasible_generate_spec_is_a_data_error(self, tmp_path, capsys, flags, message):
        assert run_cli(*GEN, "--out", str(tmp_path / "out"), *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_experiment_bigram_one_term_queries_is_a_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("query_len_min = 6", "query_len_min = 1\n"
                                      "relevance_rule = bigram_order"))
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "queries of >= 2 terms" in err
        assert not (tmp_path / "out").exists()

    def test_experiment_epoch_size_zero_is_a_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("epoch_size = 20", "epoch_size = 0"))
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err == "error: epoch_size must be >= 1\n"

    @pytest.mark.parametrize("key, line", [
        ("dev_queries", "dev_queries = 4"),
        ("test_queries", "test_queries = 6"),
        ("rerank_k", "rerank_k = 20"),
    ])
    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_experiment_split_or_depth_below_one_is_a_data_error(self, tmp_path, capsys,
                                                                 key, line, value):
        # a negative split size would put test queries in the training split
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace(line, f"{key} = {value}"))
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {key} must be >= 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (("[train]\n", "[train]\nlr_peak = nan\n"), "lr_peak must be finite and > 0, got nan"),
        # below the length encode_pair needs
        (("[train]\n", "[model]\nmax_len = 4\n\n[train]\n"), "max_len must be >= 8"),
        (("[experiment]\n", "[experiment]\nseed = -1\n"),
         "[experiment] seed must be >= 0, got -1"),
        (("seed = 5", "seed = -1"), "[synthetic] seed must be >= 0, got -1"),
    ], ids=["nan_lr", "max_len_4", "negative_experiment_seed", "negative_synthetic_seed"])
    def test_experiment_refused_before_anything_is_written(self, tmp_path, capsys, edit,
                                                           message):
        # refused before config.txt is written, so it blocks no corrected rerun
        cfg, out = tmp_path / "config.ini", tmp_path / "out"
        cfg.write_text(CONFIG.replace(*edit))
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "config.txt").exists()

    def test_experiment_odd_batch_size_is_a_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("batch_size = 8", "batch_size = 17"))
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err == "error: batch_size must be even and >= 2 (balanced pos/neg)\n"

    @pytest.mark.parametrize("break_config, message", [
        (lambda text: text[text.index("vocab_size"):], "no section headers"),
        (lambda text: text + "\n[model]\nn_layers = 1\nn_layers = 2\n", "already exists"),
        (lambda text: text.replace("[synthetic]\n", "[synthetic]\nrelevance_rule = over%lap\n"),
         "'%' must be followed"),
        (lambda text: text.replace("[train]\n", "[model]\nn_layer = 4\n\n[train]\n"),
         "unknown key n_layer in [model]"),
        (lambda text: text.replace("[train]\n", "[modle]\nn_layers = 4\n\n[train]\n"),
         "unknown section [modle]"),
        (lambda text: text.replace("[train]\n", "[model]\nvocab_size = 50\n\n[train]\n"),
         "[model] vocab_size is set by the run"),
        (lambda text: text[:text.index("[train]")] + OLD_TRAIN_SECTION
         + text[text.index("[experiment]"):], "unknown key weight_decay in [train]"),
        (lambda text: text.replace("[train]\n", OLD_MODEL_SECTION + "[train]\n"),
         "unknown key n_segments in [model]"),
        (lambda text: text.replace("[train]\n", "[model]\nnumeric_precision = 32\n\n[train]\n"),
         "unknown key numeric_precision in [model]"),
        (lambda text: text.replace("learned/natural/sort", "learned/shuffled/natural"),
         "unknown perturbation mode 'shuffled'"),
        (lambda text: text.replace("learned/natural/sort", "learned/shuffle:x/natural"),
         "unknown perturbation mode 'shuffle:x'"),
        # each as a config.txt written while it was a config field holds it
        (lambda text: text.replace("[train]\n", "[train]\nweight_decay = 0.001\n"),
         "unknown key weight_decay in [train]"),
        (lambda text: text.replace("[train]\n", "[train]\ngrad_clip_norm = 1.0\n"),
         "unknown key grad_clip_norm in [train]"),
        (lambda text: text.replace("[synthetic]\n", "[synthetic]\nzipf_exponent = 1.1\n"),
         "unknown key zipf_exponent in [synthetic]"),
    ], ids=["no_section_header", "duplicate_key", "stray_percent", "misspelt_key",
            "misspelt_section", "derived_key", "old_config_txt", "old_model_section",
            "old_precision_key", "misspelt_mode", "non_integer_shuffle_seed",
            "old_weight_decay", "old_grad_clip_norm", "old_zipf_exponent"])
    def test_malformed_config_is_a_data_error(self, tmp_path, capsys, break_config, message):
        cfg = tmp_path / "config.ini"
        cfg.write_text(break_config(CONFIG))
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_misspelt_position_mode_refused_before_anything_is_written(self, tmp_path, capsys):
        # refused while the config is read, so no config.txt blocks the corrected rerun
        cfg, out = tmp_path / "config.ini", tmp_path / "out"
        cfg.write_text(CONFIG.replace("none/natural/natural", "nnone/natural/natural"))
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and err.count("\n") == 1
        assert "unknown position_mode 'nnone'" in err
        assert not (out / "config.txt").exists()
        cfg.write_text(CONFIG)
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "config.txt").read_text() == experiment.resolved_config(
            experiment.spec_from_config(cfg))

    def test_numeric_failure_divergence(self, data_dir, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("train", "--triples", str(data_dir / "triples.tsv"),
                           "--vocab", str(data_dir / "vocab.txt"),
                           "--out", str(tmp_path / "m.ckpt"),
                           "--steps", "60", "--warmup", "1", "--lr", "1e5")
        assert code == 3
        # one line, and no numpy warning before it
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


CONFIG = """\
[synthetic]
vocab_size = 80
n_docs = 200
n_queries = 20
doc_len_min = 10
doc_len_max = 16
query_len_min = 6
query_len_max = 6
seed = 5

[train]
total_steps = 40
warmup_steps = 5
epoch_size = 20
batch_size = 8

[experiment]
rerank_k = 20
dev_queries = 4
test_queries = 6
conditions = learned/natural/natural, learned/natural/sort, none/natural/natural
"""


# the [train] section of a config.txt written before `shuffle_fixed` was removed
OLD_TRAIN_SECTION = """\
[train]
batch_size = 16
lr_peak = 0.0003
warmup_steps = 100
total_steps = 2000
epoch_size = 200
weight_decay = 0.001
grad_clip_norm = 1.0
shuffle_fixed = False

"""


# the [model] section of a config.txt written while dropout_rate,
# n_segments and init_scale were ModelConfig fields
OLD_MODEL_SECTION = """\
[model]
n_layers = 2
n_heads = 2
hidden = 32
ff_dim = 64
max_len = 64
n_segments = 2
dropout_rate = 0.0
numeric_precision = 64
init_scale = 0.02

"""


def _moved(value):
    """A value of the same type as `value` and unequal to it."""
    if isinstance(value, tuple):
        return tuple(v + 1 for v in value)
    if isinstance(value, list):
        return [experiment.parse_condition("none/sort/shuffle:7")]
    return value + ("_x" if isinstance(value, str) else 1)


class TestConfigSchema:
    def test_default_spec_round_trips(self, tmp_path):
        spec = experiment.ExperimentSpec()
        (tmp_path / "config.txt").write_text(experiment.resolved_config(spec))
        assert experiment.spec_from_config(tmp_path / "config.txt") == spec

    def test_every_written_field_round_trips(self, tmp_path):
        # every field config.txt holds, moved off its default: a field
        # the writer or the reader drops reads back as its default
        derived = {"model": {"vocab_size", "position_mode"}, "train": {"seed", "train_perturb"}}
        default = experiment.ExperimentSpec()
        parts = {name: replace(obj, **{f.name: _moved(getattr(obj, f.name)) for f in fields(obj)
                                       if f.name not in derived.get(name, ())})
                 for name, obj in (("synthetic", default.synthetic), ("model", default.model),
                                   ("train", default.train))}
        spec = replace(default, **parts, **{f.name: _moved(getattr(default, f.name))
                                            for f in fields(default) if f.name not in parts})
        (tmp_path / "config.txt").write_text(experiment.resolved_config(spec))
        text = (tmp_path / "config.txt").read_text()
        model_section = text[text.index("[model]"):text.index("[train]")]
        for constant in ("init_scale", "n_segments", "dropout_rate"):
            assert f"\n{constant} = " not in model_section
        assert "vocab_size" not in model_section and "shuffle_fixed" not in text
        assert experiment.spec_from_config(tmp_path / "config.txt") == spec

    def test_run_config_reads_back_to_its_spec(self, exp):
        cfg, out = exp
        spec = experiment.spec_from_config(cfg)
        assert experiment.spec_from_config(out / "config.txt") == spec
        assert spec != experiment.ExperimentSpec()

    def test_generate_defaults_are_the_spec_defaults(self):
        args = cli.build_parser().parse_args(["generate", "--out", "x"])
        assert cli._from_flags(corpus.SyntheticSpec(), args) == corpus.SyntheticSpec()

    def test_retrieve_and_rerank_defaults_are_the_run_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["retrieve", "--collection", "c", "--queries", "q",
                                  "--out", "o"])
        assert cli._from_flags(bm25.Bm25Params(), args) == bm25.Bm25Params()
        assert args.k == experiment.ExperimentSpec().rerank_k
        args = parser.parse_args(["rerank", "--run", "r", "--checkpoint", "c", "--vocab", "v",
                                  "--queries", "q", "--collection", "c", "--out", "o"])
        assert args.k == experiment.ExperimentSpec().rerank_k

    def test_train_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["train", "--triples", "t", "--vocab", "v",
                                              "--out", "o"])
        assert cli._from_flags(M.ModelConfig(), args) == M.ModelConfig()
        assert cli._from_flags(T.TrainConfig(), args,
                               train_perturb=perturb.parse_mode(args.perturb)) == T.TrainConfig()


def test_benchmark_trace_sites_resolve():
    # perfbench/spans.py patches each (module, name) of TARGETS by getattr;
    # a name the program drops would break its traced runs
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for span, (sites, _) in spans.TARGETS.items():
        for module, name in sites:
            assert callable(getattr(module, name, None)), f"{span}: {module.__name__}.{name}"


@pytest.mark.parametrize("argv", [
    pytest.param(["bench_e2e.py", "--parent", "TREE"], id="bench_e2e.py-worker0"),
    pytest.param(["bench_step.py", "--parent", "TREE", "--worker", "TREE"],
                 id="bench_step.py-worker1")])
def test_bench_worker_refuses_a_tree_without_orderlab(tmp_path, argv):
    # with this checkout's src/ on PYTHONPATH, a tree with no src/orderlab
    # must stop the script, not let it time or digest this checkout:
    # bench_e2e.py refuses it before it spawns any run process,
    # bench_step.py in the worker it starts for the tree
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    script, *args = [str(tmp_path) if arg == "TREE" else arg for arg in argv]
    done = subprocess.run(
        [sys.executable, os.path.join("scripts", script), *args],
        cwd=root, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True,
        timeout=60)
    assert done.returncode != 0
    assert str(tmp_path) in done.stderr


def test_cli_imports_only_numpy_and_the_standard_library():
    # numpy is orderlab's one runtime dependency. An isolated interpreter
    # has no PYTHONPATH, user site or working directory on its path; the
    # packages that `import orderlab.cli` adds to those numpy loaded must
    # be orderlab and the standard library's (multiprocessing aliases
    # __main__ as __mp_main__)
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
            "tops = lambda: {name.partition('.')[0] for name in sys.modules}; "
            "before = tops(); import orderlab.cli; print(orderlab.cli.__file__); "
            "print(*sorted(tops() - before - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True,
                         text=True, check=True)
    cli_file, added = out.stdout.splitlines()
    assert os.path.realpath(cli_file) == os.path.join(src, "orderlab", "cli.py")
    assert set(added.split()) <= {"orderlab", "__mp_main__"}


def _array_dtype_codes(data: bytes) -> list[bytes]:
    """The dtype code of each array record of checkpoint bytes `data`."""
    at = len(M._MAGIC) + 4
    (cfg_len,) = struct.unpack_from("<Q", data, at)
    at += 8 + cfg_len
    (n_params,) = struct.unpack_from("<I", data, at)
    at += 4
    codes = []
    for _ in range(n_params):
        (name_len,) = struct.unpack_from("<H", data, at)
        at += 2 + name_len
        code, ndim = data[at:at + 2], data[at + 2]
        shape = struct.unpack_from(f"<{ndim}Q", data, at + 3)
        at += 3 + 8 * ndim + math.prod(shape) * int(code[1:])
        codes.append(code)
    assert at == len(data)
    return codes


@pytest.fixture(scope="module")
def exp(tmp_path_factory):
    root = tmp_path_factory.mktemp("exp")
    cfg = root / "config.ini"
    cfg.write_text(CONFIG)
    out = root / "out"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
    return cfg, out


class TestExperimentCommand:
    def test_summary_rows_and_columns(self, exp):
        _, out = exp
        lines = (out / "summary.tsv").read_text().splitlines()
        assert lines[0] == "position_mode\ttrain_perturb\teval_perturb\tndcg@10\tmap\trecall@100\tmrr@10"
        assert len(lines) == 4
        assert lines[1].startswith("learned\tnatural\tnatural\t")

    def test_default_precision_is_float32(self, exp, tmp_path):
        # no config key sets a precision; each checkpoint holds f4 arrays,
        # and loading it and saving it again gives the same bytes
        _, out = exp
        text = (out / "config.txt").read_text()
        model_keys = text[text.index("[model]\n"):text.index("[train]")].splitlines()[1:]
        assert [line.split(" = ")[0] for line in model_keys if line] == [
            "n_layers", "n_heads", "hidden", "ff_dim", "max_len"]
        assert "precision" not in text
        ckpts = sorted((out / "models").glob("*.ckpt"))
        assert len(ckpts) == 2
        for ckpt in ckpts:
            mdl = M.load(ckpt)
            assert set(_array_dtype_codes(ckpt.read_bytes())) == {b"f4"}
            assert {p.dtype for p in mdl.params.values()} == {np.dtype(np.float32)}
            M.save(mdl, tmp_path / "again.ckpt")
            assert (tmp_path / "again.ckpt").read_bytes() == ckpt.read_bytes()

    def test_rerun_same_seed_byte_identical(self, exp, tmp_path):
        cfg, out = exp
        out2 = tmp_path / "again"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out2)) == 0
        for name in ("summary.tsv", "data/triples.tsv", "models/learned_natural_evals.tsv"):
            assert (out2 / name).read_bytes() == (out / name).read_bytes()

    def test_resume_skips_completed_conditions(self, exp):
        cfg, out = exp
        baseline = (out / "summary.tsv").read_bytes()
        ckpts = sorted(p.stat().st_mtime_ns for p in (out / "models").glob("*.ckpt"))
        target = "learned_natural_sort"
        (out / "metrics" / f"{target}.tsv").unlink()
        (out / "runs" / f"{target}.run").unlink()
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
        # checkpoints untouched, deleted condition recomputed, summary unchanged
        assert sorted(p.stat().st_mtime_ns
                      for p in (out / "models").glob("*.ckpt")) == ckpts
        assert (out / "metrics" / f"{target}.tsv").exists()
        assert (out / "summary.tsv").read_bytes() == baseline

    def test_resume_returns_the_first_runs_reports(self, exp, tmp_path):
        # a skipped condition's report is evaluated from its run file, so
        # it keeps the per-query values a fresh run returns
        cfg, _ = exp
        spec = experiment.spec_from_config(cfg)
        out = tmp_path / "out"
        first = experiment.run_experiment(spec, out, log=lambda *a: None)
        messages = []
        again = experiment.run_experiment(spec, out, log=messages.append)
        assert sum("already computed" in m for m in messages) == len(spec.conditions)
        assert all(report.per_query["ndcg@10"] for report in first.values())
        assert again == first

    def test_garbled_run_file_on_resume_is_a_data_error(self, exp, tmp_path, capsys):
        cfg, clean = exp
        out = tmp_path / "out"
        shutil.copytree(clean, out)
        garbled = out / "runs" / "learned_natural_sort.run"
        garbled.write_text("not a run line\n")
        capsys.readouterr()
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(garbled) in err

    def test_other_config_refused_and_same_config_resumes(self, exp, tmp_path, capsys):
        # a run directory holds one config's models and conditions: a run
        # under another config would reuse them as its own
        cfg, clean = exp
        out = tmp_path / "out"
        shutil.copytree(clean, out)

        def state():
            return {p.relative_to(out): (p.read_bytes(), p.stat().st_mtime_ns)
                    for p in out.rglob("*") if p.is_file()}

        before = state()
        other = tmp_path / "other.ini"
        other.write_text(CONFIG.replace("total_steps = 40", "total_steps = 60\nlr_peak = 0.001"))
        capsys.readouterr()
        assert run_cli("experiment", "--config", str(other), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "config" in err
        assert state() == before
        # the same config resumes: every model and condition is reused
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
        logged = capsys.readouterr().out
        assert "loading cached model" in logged and "training model" not in logged
        after = state()
        assert {p: v[0] for p, v in after.items()} == {p: v[0] for p, v in before.items()}
        assert all(after[p][1] == before[p][1] for p in after if p.suffix == ".ckpt")

    def test_resolved_config_written(self, exp):
        _, out = exp
        text = (out / "config.txt").read_text()
        assert "[synthetic]" in text and "conditions =" in text

    def test_cka_artifacts_present(self, exp):
        _, out = exp
        assert (out / "cka" / "cls_similarity.tsv").exists()
        # only trained model pairs get a layerwise CSV; no sort-trained
        # model exists in this condition list
        assert (out / "cka" / "layers_nopos.csv").exists()

    def test_cka_command_reports_the_run_quantity(self, exp, capsys):
        # `orderlab cka` on the run's natural model against the shuffle
        # stream the run compares it on prints the run's recorded [CLS] CKA
        _, out = exp
        ckpt = str(out / "models" / "learned_natural.ckpt")
        argv = ["cka", "--checkpoint-a", ckpt, "--checkpoint-b", ckpt,
                "--vocab", str(out / "data" / "vocab.txt"),
                "--queries", str(out / "data" / "queries.tsv"),
                "--collection", str(out / "data" / "collection.tsv"),
                "--run", str(out / "runs" / "bm25_test.run"), "--mode-b", "shuffle:13",
                "--depth", str(experiment.CKA_DOCS_PER_QUERY)]
        capsys.readouterr()
        assert run_cli(*argv) == 0
        last = capsys.readouterr().out.splitlines()[-1].split("\t")
        rows = [line.split("\t") for line in
                (out / "cka" / "cls_similarity.tsv").read_text().splitlines()[1:]]
        assert [r[3] for r in rows if r[:3] == ["learned", "natural", "shuffle"]] == [last[1]]
        # the batch size is the run's, not an option
        assert run_cli(*argv, "--batch-size", "8") == 1

    def test_cka_command_writes_the_run_layer_file(self, exp, tmp_path, monkeypatch, capsys):
        # `orderlab cka --selector all_tokens` on the run's natural and
        # no-position models writes the bytes of the run's layers_nopos.csv
        _, out = exp
        monkeypatch.chdir(out)
        assert run_cli("cka", "--checkpoint-a", "models/learned_natural.ckpt",
                       "--checkpoint-b", "models/none_natural.ckpt",
                       "--vocab", "data/vocab.txt", "--queries", "data/queries.tsv",
                       "--collection", "data/collection.tsv", "--run", "runs/bm25_test.run",
                       "--selector", "all_tokens", "--out", str(tmp_path / "layers.csv")) == 0
        assert ((tmp_path / "layers.csv").read_bytes()
                == (out / "cka" / "layers_nopos.csv").read_bytes())

    def test_cls_similarity_uses_the_trained_shuffle_stream(self, tmp_path):
        # with an experiment seed other than the shuffle seed, the
        # shuffle-trained model is still compared on shuffle:13
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("rerank_k = 20", "seed = 5\nrerank_k = 20")
                       .replace("total_steps = 40", "total_steps = 10")
                       .replace("learned/natural/natural, learned/natural/sort, none/natural/natural",
                                "learned/shuffle:13/shuffle:13"))
        spec = experiment.spec_from_config(cfg)
        out = tmp_path / "out"
        experiment.run_experiment(spec, out, log=lambda *a: None)
        coll, queries, _ = _load_data(out)
        vocab = tokenizer.load_vocab(out / "data" / "vocab.txt")
        mdl = M.load(out / "models" / "learned_shuffle13.ckpt")
        test_run = corpus.load_run(out / "runs" / "bm25_test.run")
        pairs = [tokenizer.encode_pair(queries.entries[q], coll.entries[e.doc_id],
                                       vocab, mdl.config.max_len)
                 for q in sorted(test_run.entries)
                 for e in test_run.entries[q][: experiment.CKA_DOCS_PER_QUERY]]

        def cls_cka(seed):
            rep = cka.compare(mdl, perturb.NATURAL, mdl, perturb.shuffle_mode(seed), pairs,
                              selector="cls_only", batch_size=cka.BATCH_SIZE)
            return f"{rep.per_layer[-1]:.6f}"

        rows = [line.split("\t") for line in
                (out / "cka" / "cls_similarity.tsv").read_text().splitlines()[1:]]
        recorded = [r[3] for r in rows if r[1] == "shuffle:13" and r[2] == "shuffle"]
        assert cls_cka(13) != cls_cka(5)
        assert recorded == [cls_cka(13)]

    def test_cls_only_scoring_gives_the_full_pass_run(self, tmp_path, monkeypatch):
        # every output byte is the same when every score runs the full encoder
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("total_steps = 40", "total_steps = 30")
                       .replace("epoch_size = 20", "epoch_size = 10")
                       .replace("learned/natural/natural, learned/natural/sort, none/natural/natural",
                                "learned/natural/natural, learned/shuffle:13/shuffle:13, "
                                "learned/shuffle:13/natural, none/natural/sort"))
        spec = experiment.spec_from_config(cfg)
        experiment.run_experiment(spec, tmp_path / "pruned", log=lambda *a: None)
        full_pass = M.forward
        monkeypatch.setattr(M, "forward", lambda mdl, pairs, capture=False, **kw:
                            full_pass(mdl, pairs, capture=True, **kw))
        experiment.run_experiment(spec, tmp_path / "full", log=lambda *a: None)
        pruned, full = _files(tmp_path / "pruned"), _files(tmp_path / "full")
        assert len(pruned) > 20
        assert pruned == full

    def test_train_logs_record_grad_norm(self, exp):
        _, out = exp
        for name in ("learned_natural", "none_natural"):
            lines = (out / "models" / f"{name}_log.tsv").read_text().splitlines()
            assert lines[0] == "step\tloss\tlr\tgrad_norm"
            assert len(lines) == 41
            norms = [float(line.split("\t")[3]) for line in lines[1:]]
            assert all(np.isfinite(n) and n > 0 for n in norms)

    def test_eval_log_marks_kept_checkpoint(self, exp):
        _, out = exp
        lines = (out / "models" / "learned_natural_evals.tsv").read_text().splitlines()
        assert lines[0] == "step\tmetric\tkept"
        rows = [line.split("\t") for line in lines[1:]]
        # epoch_size 20 over 40 steps: evals at 20 and 40, one of them kept
        assert [int(r[0]) for r in rows] == [20, 40]
        kept = [r for r in rows if r[2] == "1"]
        assert len(kept) == 1
        assert float(kept[0][1]) == max(float(r[1]) for r in rows)


class TestEvalExamplesPerturbedOnce:
    def test_each_dev_and_condition_example_perturbed_once(self, tmp_path, monkeypatch):
        # the 8 default conditions, two dev evals per model: sort/sort and
        # nat/sort share their test examples, the sort model's dev evals
        # their dev examples, and so on for shuffle
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("total_steps = 40", "total_steps = 10")
                       .replace("epoch_size = 20", "epoch_size = 5")
                       .replace("conditions = learned/natural/natural, learned/natural/sort, "
                                "none/natural/natural\n", ""))
        spec = experiment.spec_from_config(cfg)
        assert len(spec.conditions) == 8
        calls = {}
        apply_many = perturb.apply_many

        def counted(pairs, mode, example_keys):
            # each (pair, mode, key) of a batch counts; re-rank keys are
            # qid:doc_id, training's carry "|", CKA's are indexes
            for pair, example_key in zip(pairs, example_keys):
                if ":" in example_key and "|" not in example_key:
                    key = (tuple(pair.ids), mode, example_key)
                    calls[key] = calls.get(key, 0) + 1
            return apply_many(pairs, mode, example_keys)

        monkeypatch.setattr(perturb, "apply_many", counted)
        out = tmp_path / "out"
        experiment.run_experiment(spec, out, log=lambda *a: None)
        monkeypatch.undo()

        dev_run = corpus.load_run(out / "runs" / "bm25_dev.run")
        test_run = corpus.load_run(out / "runs" / "bm25_test.run")

        def keys(run, k):
            return {f"{q}:{e.doc_id}" for q, entries in run.entries.items() for e in entries[:k]}

        want = set()
        for c in spec.conditions:
            for mode, examples in ((c.train_perturb, keys(dev_run, experiment.DEV_RERANK_K)),
                                   (c.eval_perturb, keys(test_run, spec.rerank_k))):
                if mode.kind != "natural":
                    want |= {(mode, key) for key in examples}
        assert {(mode, key) for _, mode, key in calls} == want
        assert set(calls.values()) == {1}


class TestExperimentCka:
    def test_each_model_and_perturbation_captured_once(self, tmp_path, monkeypatch):
        # 4 models x {natural, shuffle, sort}: a model's natural capture
        # serves its two [CLS] comparisons and the layerwise reports, and
        # the files are those of one compare() per comparison
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("total_steps = 40", "total_steps = 10")
                       .replace("learned/natural/natural, learned/natural/sort, none/natural/natural",
                                "learned/natural/natural, learned/sort/sort, "
                                "learned/shuffle:13/shuffle:13, none/natural/natural"))
        spec = experiment.spec_from_config(cfg)
        monkeypatch.setattr(cka, "BATCH_SIZE", 8)
        captured = []
        forward = M.forward
        cka_perturbs = []
        apply_many = perturb.apply_many

        def counting_forward(mdl, pairs, capture=False, **kw):
            if capture:
                captured.append(len(pairs))
            return forward(mdl, pairs, capture=capture, **kw)

        def counting_apply_many(pairs, mode, example_keys):
            # each (mode, key) of a batch counts; CKA keys are indexes
            cka_perturbs.extend((perturb.format_mode(mode), key)
                                for key in example_keys if key.isdigit())
            return apply_many(pairs, mode, example_keys)

        monkeypatch.setattr(M, "forward", counting_forward)
        monkeypatch.setattr(perturb, "apply_many", counting_apply_many)
        out = tmp_path / "out"
        experiment.run_experiment(spec, out, log=lambda *a: None)
        monkeypatch.undo()

        coll, queries, _ = _load_data(out)
        vocab = tokenizer.load_vocab(out / "data" / "vocab.txt")
        test_run = corpus.load_run(out / "runs" / "bm25_test.run")
        keys = [("learned", "natural"), ("learned", "shuffle:13"), ("learned", "sort"),
                ("none", "natural")]
        models = {k: M.load(out / "models" / f"{k[0]}_{k[1].replace(':', '')}.ckpt")
                  for k in keys}
        pairs = [tokenizer.encode_pair(queries.entries[q], coll.entries[e.doc_id],
                                       vocab, spec.model.max_len)
                 for q in sorted(test_run.entries)
                 for e in test_run.entries[q][: experiment.CKA_DOCS_PER_QUERY]]
        batches = [len(pairs[s:s + 8]) for s in range(0, len(pairs), 8)]
        assert len(batches) > 2 and min(batches) >= 2
        assert captured == batches * 12
        # each example perturbed once per mode, not once per (model, mode)
        assert sorted(cka_perturbs) == sorted((mode, str(i)) for i in range(len(pairs))
                                              for mode in ("shuffle:13", "sort"))

        def compare(a, mode_a, b, mode_b, selector):
            return cka.compare(a, mode_a, b, mode_b, pairs, selector=selector, batch_size=8)

        lines = ["position_mode\ttrain_perturb\tcomparison\tcka"]
        for pos_mode, tp in keys:
            mdl = models[pos_mode, tp]
            for name, mode in (("shuffle", perturb.shuffle_mode(13)), ("sort", perturb.SORT_DESC)):
                rep = compare(mdl, perturb.NATURAL, mdl, mode, "cls_only")
                lines.append(f"{pos_mode}\t{tp}\t{name}\t{rep.per_layer[-1]:.6f}")
        assert (out / "cka" / "cls_similarity.tsv").read_text().splitlines() == lines
        for other, name in ((("learned", "sort"), "sort"), (("none", "natural"), "nopos")):
            rep = compare(models["learned", "natural"], perturb.NATURAL, models[other],
                          perturb.NATURAL, "all_tokens")
            cka.write_report_csv(rep, tmp_path / "ref.csv")
            assert ((out / "cka" / f"layers_{name}.csv").read_bytes()
                    == (tmp_path / "ref.csv").read_bytes())

    def test_float32_experiment_writes_every_cls_row(self, tmp_path):
        # the [CLS] embedding layer has no variance in float32; it scores
        # NaN, and the last layer's CKA is still written for every model
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("total_steps = 40", "total_steps = 10")
                       .replace("learned/natural/natural, learned/natural/sort, none/natural/natural",
                                "learned/natural/natural, learned/sort/sort, "
                                "learned/shuffle:13/shuffle:13, none/natural/natural"))
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
        rows = [line.split("\t") for line in
                (out / "cka" / "cls_similarity.tsv").read_text().splitlines()]
        assert rows[0] == ["position_mode", "train_perturb", "comparison", "cka"]
        assert len(rows) == 9
        assert all(np.isfinite(float(r[3])) for r in rows[1:])
        assert not list(out.rglob("*.tmp"))


def _write_partly_then_raise(error):
    def write(obj, path):
        with open(path, "wb") as f:
            f.write(b"partial")
        raise error
    return write


class TestInterruptedRuns:
    """Checkpoints and condition files are written whole or not at all,
    and a condition fails alone only on a data or write error."""

    TARGET = "learned_natural_sort"

    def test_interrupted_writes_leave_nothing_and_rerun_completes(self, exp, tmp_path,
                                                                   monkeypatch):
        cfg, clean = exp
        spec = experiment.spec_from_config(cfg)
        out = tmp_path / "out"
        with monkeypatch.context() as m:
            m.setattr(M, "save", _write_partly_then_raise(RuntimeError("killed")))
            with pytest.raises(RuntimeError, match="killed"):
                experiment.run_experiment(spec, out, log=lambda *a: None)
        # the logs come first: the checkpoint marks a complete model
        assert (out / "models" / "learned_natural_evals.tsv").exists()
        assert not list((out / "models").glob("*.ckpt"))
        assert not list(out.rglob("*.tmp"))

        write_run = experiment.write_run

        def failing_write_run(run, path):
            if self.TARGET in str(path):
                _write_partly_then_raise(OSError("disk full"))(run, path)
            write_run(run, path)

        messages = []
        with monkeypatch.context() as m:
            m.setattr(experiment, "write_run", failing_write_run)
            results = experiment.run_experiment(spec, out, log=messages.append)
        assert results[self.TARGET] is None
        assert f"[experiment] condition {self.TARGET} failed: OSError: disk full" in messages
        assert not (out / "runs" / f"{self.TARGET}.run").exists()
        assert not (out / "metrics" / f"{self.TARGET}.tsv").exists()
        assert not list(out.rglob("*.tmp"))

        experiment.run_experiment(spec, out, log=lambda *a: None)
        assert _files(out) == _files(clean)

    @pytest.mark.parametrize("error, caught", [
        (corpus.ValidationError("query q1 of the run is not in the queries"), True),
        (OSError("disk full"), True),
        (TypeError("a bug"), False),
        (KeyError("d000001"), False),
    ], ids=["ValidationError", "OSError", "TypeError", "KeyError"])
    def test_condition_loop_catches_data_errors_only(self, exp, tmp_path, monkeypatch,
                                                      error, caught):
        cfg, clean = exp
        out = tmp_path / "out"
        shutil.copytree(clean, out)
        (out / "metrics" / f"{self.TARGET}.tsv").unlink()
        (out / "runs" / f"{self.TARGET}.run").unlink()
        rerank_run = experiment.rerank_run

        def failing_rerank_run(*args, tag="rerank", **kw):
            if tag == self.TARGET:
                raise error
            return rerank_run(*args, tag=tag, **kw)

        monkeypatch.setattr(experiment, "rerank_run", failing_rerank_run)
        spec = experiment.spec_from_config(cfg)
        messages = []
        if not caught:
            with pytest.raises(type(error)):
                experiment.run_experiment(spec, out, log=messages.append)
            return
        results = experiment.run_experiment(spec, out, log=messages.append)
        assert results[self.TARGET] is None
        assert (f"[experiment] condition {self.TARGET} failed: {type(error).__name__}: {error}"
                in messages)
        rows = [line.split("\t") for line in (out / "summary.tsv").read_text().splitlines()]
        assert ["learned", "natural", "sort", "failed", "failed", "failed", "failed"] in rows


class TestTrainingWorkers:
    """Each model trains in a forked child, on any number of cores, as
    many at a time as there are cores; the dev evals that pick each
    checkpoint run in the calling process."""

    @pytest.fixture
    def snapshot_root(self, tmp_path, monkeypatch):
        # the temporary directory of the run's snapshots is made here
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    def test_worker_count_changes_no_byte(self, tmp_path, monkeypatch, snapshot_root):
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG)
        spec = experiment.spec_from_config(cfg)
        fork, forks = os.fork, []

        def counted_fork():
            # the children alive once this one starts
            forks.append(len(multiprocessing.active_children()) + 1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        files = {}
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            forks.clear()
            out = tmp_path / f"cores_{len(cores)}"
            experiment.run_experiment(spec, out, log=lambda *a: None)
            files[len(cores)] = _files(out)
            # CONFIG's two models: each trains in a child of its own, one at
            # a time on one core and side by side on two
            assert len(forks) == 2
            assert max(forks) == len(cores)
            assert not multiprocessing.active_children()
            assert not list(snapshot_root.iterdir())
        assert len(files[1]) > 20
        assert files[1] == files[2]
        assert not [p for p in files[1] if p.suffix == ".params"]

    def test_diverging_model_in_a_worker_is_a_numeric_failure(self, tmp_path, monkeypatch,
                                                              capfd, snapshot_root):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("[train]\n", "[train]\nlr_peak = 1e5\n"))
        out = tmp_path / "out"
        capfd.readouterr()
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 3
        err = capfd.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert not multiprocessing.active_children()
        assert not list(snapshot_root.iterdir())
        assert not list(out.rglob("*.ckpt")) and not list(out.rglob("*.params"))

    @pytest.mark.parametrize("cores", [{0}, {0, 1}], ids=["one_core", "two_cores"])
    def test_failed_model_keeps_the_ones_before_it(self, exp, tmp_path, monkeypatch,
                                                   snapshot_root, cores):
        # the second model fails: the first is saved with the bytes a clean
        # run gives it, the second is not, and a rerun completes the run
        cfg, clean = exp
        spec = experiment.spec_from_config(cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        optimize = T.optimize

        def second_diverges(mdl, *args):
            if mdl.config.position_mode == "none":
                raise T.DivergenceError("planted")
            return optimize(mdl, *args)

        out = tmp_path / "out"
        with monkeypatch.context() as m:
            m.setattr(T, "optimize", second_diverges)
            with pytest.raises(T.DivergenceError, match="planted"):
                experiment.run_experiment(spec, out, log=lambda *a: None)
        assert [p.name for p in (out / "models").glob("*.ckpt")] == ["learned_natural.ckpt"]
        for name in ("learned_natural.ckpt", "learned_natural_log.tsv",
                     "learned_natural_evals.tsv"):
            assert (out / "models" / name).read_bytes() == (clean / "models" / name).read_bytes()
        assert not multiprocessing.active_children()
        assert not list(snapshot_root.iterdir())
        experiment.run_experiment(spec, out, log=lambda *a: None)
        assert _files(out) == _files(clean)

    def test_child_that_dies_is_an_error(self, exp, tmp_path, monkeypatch, snapshot_root):
        cfg, _ = exp
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(T, "optimize", lambda *args: os._exit(7))
        with pytest.raises(RuntimeError, match="model 1 of 2 exited with code 7"):
            experiment.run_experiment(experiment.spec_from_config(cfg), tmp_path / "out",
                                      log=lambda *a: None)
        assert not multiprocessing.active_children()
        assert not list(snapshot_root.iterdir())

    def test_interrupt_ends_every_child(self, exp, tmp_path, monkeypatch, snapshot_root):
        cfg, _ = exp
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        started = []

        def interrupted(connection):
            # Ctrl-C while the run waits for its first model
            started.extend(multiprocessing.active_children())
            raise KeyboardInterrupt

        monkeypatch.setattr(multiprocessing.connection.Connection, "recv", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            experiment.run_experiment(experiment.spec_from_config(cfg), out,
                                      log=lambda *a: None)
        # both were stopped mid-training, not waited for
        assert [child.exitcode for child in started] == [-signal.SIGTERM] * 2
        assert not multiprocessing.active_children()
        assert not list(snapshot_root.iterdir())
        assert not list(out.rglob("*.ckpt"))

    def test_runner_keeps_the_first_of_tied_dev_evals(self, tmp_path, monkeypatch):
        # dev evals at 20 and 30 tie on the best metric: the run keeps the
        # earlier, the checkpoint train() keeps under the same metrics
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("epoch_size = 20", "epoch_size = 10")
                       .replace("learned/natural/natural, learned/natural/sort, "
                                "none/natural/natural", "learned/natural/natural"))
        spec = experiment.spec_from_config(cfg)
        canned = [0.5, 0.9, 0.9, 0.1]
        evaluate, dev_evals = metrics.evaluate, []

        def canned_evaluate(run, grades, *args, **kw):
            report = evaluate(run, grades, *args, **kw)
            if any(e.tag == "dev" for entries in run.entries.values() for e in entries):
                report.mean["ndcg@10"] = canned[len(dev_evals)]
                dev_evals.append(run)
            return report

        monkeypatch.setattr(metrics, "evaluate", canned_evaluate)
        out = tmp_path / "out"
        experiment.run_experiment(spec, out, log=lambda *a: None)
        assert len(dev_evals) == 4
        rows = [line.split("\t") for line in
                (out / "models" / "learned_natural_evals.tsv").read_text().splitlines()[1:]]
        assert [(int(step), float(metric), kept) for step, metric, kept in rows] == [
            (10, 0.5, "0"), (20, 0.9, "1"), (30, 0.9, "0"), (40, 0.1, "0")]

        vocab = tokenizer.load_vocab(out / "data" / "vocab.txt")
        model_cfg = replace(spec.model, vocab_size=len(vocab))
        hook = iter(canned)
        mdl, log = T.train(M.init(model_cfg, spec.seed),
                           corpus.load_triples(out / "data" / "triples.tsv"),
                           replace(spec.train, seed=spec.seed), vocab,
                           eval_hook=lambda m: next(hook))
        assert log.best_step == 20
        M.save(mdl, tmp_path / "train.ckpt")
        assert ((tmp_path / "train.ckpt").read_bytes()
                == (out / "models" / "learned_natural.ckpt").read_bytes())


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _qid_of(queries):
    # a triple's query is the lowest id with its text, as in the runner
    qid_of = {}
    for qid in sorted(queries.entries):
        qid_of.setdefault(queries.entries[qid], qid)
    return qid_of


def _doc_ids(collection):
    # a triple holds passage text: every doc id with that text
    ids = {}
    for doc_id, text in collection.entries.items():
        ids.setdefault(text, []).append(doc_id)
    return ids


def _load_data(out):
    data = out / "data"
    return (corpus.load_collection(data / "collection.tsv"),
            corpus.load_queries(data / "queries.tsv"),
            corpus.load_qrels(data / "qrels.txt"))


# sha256 of the BM25 runs and the mined triples of the benchmark's matrix
# spec (perfbench/workloads.matrix_spec(1)), recorded when `retrieve`
# computed each doc's length norm at every posting it visited and mining
# read the training queries' validated `retrieve_run`
FIRST_STAGE_GOLDEN = {
    "all.run": "b3b582ff6be63271d647929cf56a947736aac9fb08006f00e9532601c6ac2362",
    "all_k1_2.0_b_0.3.run": "3ff5ac9bcd7c8d7b398300005c98bf95e8ea9a557600f0ab27c0453bffdbaaef",
    "bm25_test.run": "a9a7d99bbd00d3edcf4435f8606b36ae0e123ad9f2ff3be5502336cd07e65190",
    "bm25_dev.run": "7c1db4e60227e603a7d103b6df862420ff5c6e9a6c667784dc19fe0c09060994",
    "triples.tsv": "35d2150912496ecdfc6802e735bf22cda8747064b0ff70f1c3d66265a4aa577b",
}


def test_first_stage_and_mining_match_golden_digests(tmp_path):
    # the run's files as run_experiment writes them, and every query's
    # top-k under the default and under other params
    spec = experiment.ExperimentSpec(
        synthetic=corpus.SyntheticSpec(n_docs=2000, n_queries=200, seed=1),
        dev_queries=2, test_queries=2)
    coll, queries, qrels, triples = corpus.generate_synthetic(spec.synthetic)
    train_ids, dev_ids, test_ids = experiment._split_queries(
        queries, spec.dev_queries, spec.test_queries)
    index = bm25.build_index(coll)
    runs = {
        "all.run": bm25.retrieve_run(index, queries, spec.rerank_k),
        "all_k1_2.0_b_0.3.run": bm25.retrieve_run(
            bm25.build_index(coll, bm25.Bm25Params(2.0, 0.3)), queries, spec.rerank_k),
        "bm25_test.run": bm25.retrieve_run(index, experiment._subset(queries, test_ids),
                                           spec.rerank_k),
        "bm25_dev.run": bm25.retrieve_run(index, experiment._subset(queries, dev_ids),
                                          experiment.DEV_RERANK_K),
    }
    for name, run in runs.items():
        corpus.write_run(run, tmp_path / name)
    ranked = {q: [d for d, _ in bm25.retrieve(index, queries.entries[q], spec.rerank_k)]
              for q in train_ids}
    corpus.write_triples(experiment.mine_triples(triples, queries, coll, qrels.by_query(),
                                                 ranked, spec.seed), tmp_path / "triples.tsv")
    assert ({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
            == FIRST_STAGE_GOLDEN)


class TestMinedTriples:
    """The experiment trains on negatives mined from each training query's
    own BM25 top-k, and writes exactly those triples to data/triples.tsv."""

    def test_negatives_are_grade_zero_from_own_top_k(self, exp):
        cfg, out = exp
        spec = experiment.spec_from_config(cfg)
        coll, queries, qrels = _load_data(out)
        index = bm25.build_index(coll)
        qid_of = _qid_of(queries)
        doc_ids = _doc_ids(coll)
        triples = corpus.load_triples(out / "data" / "triples.tsv")
        assert triples
        for query, pos, neg in triples:
            qid = qid_of[query]
            top_k = [d for d, _ in bm25.retrieve(index, query, spec.rerank_k)]
            assert any(coll.entries[d] == neg and qrels.grades.get((qid, d), 0) == 0 for d in top_k)
            assert all(qrels.grades.get((qid, d), 0) == 0 for d in doc_ids[neg])
            assert all(qrels.grades.get((qid, d), 0) >= 2 for d in doc_ids[pos])

    def test_only_training_queries_contribute(self, exp):
        cfg, out = exp
        spec = experiment.spec_from_config(cfg)
        _, queries, _ = _load_data(out)
        train_ids, dev_ids, test_ids = experiment._split_queries(
            queries, spec.dev_queries, spec.test_queries)
        assert dev_ids and test_ids
        qid_of = _qid_of(queries)
        contributed = {qid_of[q] for q, _, _ in
                       corpus.load_triples(out / "data" / "triples.tsv")}
        assert contributed and contributed <= set(train_ids)

    def test_query_without_grade_zero_candidates(self, exp):
        cfg, out = exp
        spec = experiment.spec_from_config(cfg)
        coll, queries, qrels = _load_data(out)
        triples = corpus.generate_synthetic(spec.synthetic)[3]
        train_ids, _, _ = experiment._split_queries(
            queries, spec.dev_queries, spec.test_queries)
        index = bm25.build_index(coll)
        ranked = {q: [d for d, _ in bm25.retrieve(index, queries.entries[q], spec.rerank_k)]
                  for q in train_ids}
        starved, short = train_ids[0], train_ids[1]
        # one query keeps only judged-relevant candidates, another keeps a
        # single grade-0 candidate, fewer than its triples need
        ranked[starved] = [d for d in ranked[starved] if qrels.grades.get((starved, d), 0) > 0]
        assert ranked[starved]
        zero = [d for d in ranked[short] if qrels.grades.get((short, d), 0) == 0]
        ranked[short] = zero[:1]
        mined = experiment.mine_triples(triples, queries, coll, qrels.by_query(), ranked,
                                        spec.seed)
        by_query = {}
        for q, _, neg in mined:
            by_query.setdefault(q, []).append(neg)
        assert queries.entries[starved] not in by_query
        assert set(by_query[queries.entries[short]]) == {coll.entries[zero[0]]}
        qid_of, doc_ids = _qid_of(queries), _doc_ids(coll)
        for q, _, neg in mined:
            assert all(qrels.grades.get((qid_of[q], d), 0) == 0 for d in doc_ids[neg])

    def test_no_grade_zero_candidates_anywhere_is_a_data_error(self, tmp_path):
        # at depth 1 every training query's only candidate is relevant
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("rerank_k = 20", "rerank_k = 1"))
        with pytest.raises(experiment.ExperimentError, match="grade-0"):
            experiment.run_experiment(experiment.spec_from_config(cfg), tmp_path / "direct",
                                      log=lambda *a: None)
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2

    def test_bigram_rule_keeps_generator_triples(self, tmp_path):
        # the bigram_order generator's negatives match their positives'
        # marker counts; the runner trains on them as they are
        cfg = tmp_path / "config.ini"
        cfg.write_text(CONFIG.replace("seed = 5", "seed = 5\nrelevance_rule = bigram_order")
                       .replace("total_steps = 40", "total_steps = 10")
                       .replace(", learned/natural/sort, none/natural/natural", ""))
        spec = experiment.spec_from_config(cfg)
        assert spec.synthetic.relevance_rule == "bigram_order"
        out = tmp_path / "out"
        experiment.run_experiment(spec, out, log=lambda *a: None)
        _, queries, _ = _load_data(out)
        train_ids, _, _ = experiment._split_queries(
            queries, spec.dev_queries, spec.test_queries)
        qid_of = _qid_of(queries)
        expected = [t for t in corpus.generate_synthetic(spec.synthetic)[3]
                    if qid_of[t[0]] in set(train_ids)]
        assert expected
        assert corpus.load_triples(out / "data" / "triples.tsv") == expected
