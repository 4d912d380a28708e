"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from dataclasses import fields, replace

from . import bm25, cka, corpus, experiment, metrics, perturb, tokenizer
from . import model as M
from . import train as T


def _add_fields(p, defaults, flags: dict[str, str], **choices):
    """A flag per field of `defaults` ({flag: field name}), stored under
    the field's name, typed and defaulted by the field's default; a
    `*_len_range` takes MIN MAX. `choices` names a field's allowed values."""
    for flag, name in flags.items():
        value = getattr(defaults, name)
        if isinstance(value, tuple):
            p.add_argument(flag, dest=name, type=int, nargs=2, default=value,
                           metavar=("MIN", "MAX"))
        else:
            p.add_argument(flag, dest=name, type=type(value), default=value,
                           choices=choices.get(name))


def _from_flags(defaults, args, **derived):
    """`defaults` with each field that has a flag read from `args`, and `derived`."""
    given = {f.name: getattr(args, f.name) for f in fields(defaults) if hasattr(args, f.name)}
    return replace(defaults, **{k: tuple(v) if isinstance(v, list) else v
                                for k, v in given.items()}, **derived)


def _add_generate(p):
    """generate a synthetic corpus"""
    p.add_argument("--out", required=True, help="output directory")
    _add_fields(p, corpus.SyntheticSpec(), {
        "--vocab-size": "vocab_size", "--n-docs": "n_docs", "--n-queries": "n_queries",
        "--doc-len": "doc_len_range", "--query-len": "query_len_range",
        "--rule": "relevance_rule", "--seed": "seed",
    }, relevance_rule=corpus.RELEVANCE_RULES)


def _cmd_generate(args):
    collection, queries, qrels, triples, _ = experiment.write_data(
        _from_flags(corpus.SyntheticSpec(), args), args.out)
    corpus.write_triples(triples, os.path.join(args.out, "triples.tsv"))
    print(f"wrote {len(collection)} docs, {len(queries)} queries, "
          f"{len(qrels.grades)} judgments, {len(triples)} triples to {args.out}")


def _add_index(p):
    """build a BM25 index and print statistics"""
    p.add_argument("--collection", required=True)


def _cmd_index(args):
    coll = corpus.load_collection(args.collection)
    index = bm25.build_index(coll)
    print(f"docs\t{index.n_docs}")
    print(f"terms\t{len(index.postings)}")
    print(f"avgdl\t{index.avgdl:.4f}")


def _add_retrieve(p):
    """BM25 retrieval to a TREC run file"""
    p.add_argument("--collection", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=experiment.ExperimentSpec().rerank_k)
    _add_fields(p, bm25.Bm25Params(), {"--k1": "k1", "--b": "b"})
    p.add_argument("--tag", default="bm25")


def _cmd_retrieve(args):
    coll = corpus.load_collection(args.collection)
    queries = corpus.load_queries(args.queries)
    index = bm25.build_index(coll, _from_flags(bm25.Bm25Params(), args))
    run = bm25.retrieve_run(index, queries, args.k, args.tag)
    corpus.write_run(run, args.out)
    print(f"wrote run for {len(run.entries)} queries to {args.out}")


def _add_train(p):
    """fine-tune a cross-encoder from triples"""
    p.add_argument("--triples", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--dev-triples", help="held-out triples; the checkpoint kept is the one "
                   "that scores the most positives above their negatives")
    p.add_argument("--log", help="training log TSV path")
    p.add_argument("--perturb", default=perturb.format_mode(T.TrainConfig().train_perturb),
                   help="natural | sort | shuffle:<seed>")
    _add_fields(p, M.ModelConfig(), {
        "--position-mode": "position_mode", "--layers": "n_layers", "--heads": "n_heads",
        "--hidden": "hidden", "--ff-dim": "ff_dim", "--max-len": "max_len",
    }, position_mode=M.POSITION_MODES)
    _add_fields(p, T.TrainConfig(), {
        "--batch-size": "batch_size", "--lr": "lr_peak", "--warmup": "warmup_steps",
        "--steps": "total_steps", "--epoch-size": "epoch_size", "--seed": "seed",
    })


def _cmd_train(args):
    triples = corpus.load_triples(args.triples)
    vocab = tokenizer.load_vocab(args.vocab)
    cfg = _from_flags(M.ModelConfig(), args, vocab_size=len(vocab))
    tcfg = _from_flags(T.TrainConfig(), args, train_perturb=perturb.parse_mode(args.perturb))
    tcfg.validate()  # before `init` draws from the seed
    mdl = M.init(cfg, args.seed)
    hook = None
    if args.dev_triples:
        hook = experiment.held_out_hook(corpus.load_triples(args.dev_triples), vocab,
                                        cfg.max_len, tcfg.train_perturb)
    mdl, log = T.train(mdl, triples, tcfg, vocab, eval_hook=hook)
    M.save(mdl, args.out)
    if args.log:
        T.write_train_log(log, args.log)
    final_loss = log.steps[-1][1] if log.steps else float("nan")
    print(f"trained {tcfg.total_steps} steps, final loss {final_loss:.4f}, "
          f"best metric {log.best_metric if log.evals else 'n/a'}")


def _add_rerank(p):
    """re-score the top-k of a run with a checkpoint"""
    p.add_argument("--run", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--collection", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=experiment.ExperimentSpec().rerank_k)
    p.add_argument("--mode", default="natural", help="natural | sort | shuffle:<seed>")
    p.add_argument("--tag", default="rerank")


def _cmd_rerank(args):
    run = corpus.load_run(args.run)
    mdl = M.load(args.checkpoint)
    vocab = tokenizer.load_vocab(args.vocab)
    queries = corpus.load_queries(args.queries)
    coll = corpus.load_collection(args.collection)
    out = experiment.rerank_run(run, mdl, vocab, queries, coll, args.k,
                                perturb.parse_mode(args.mode), args.tag)
    corpus.write_run(out, args.out)
    print(f"reranked top-{args.k} for {len(out.entries)} queries -> {args.out}")


def _add_evaluate(p):
    """score a run against qrels"""
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", help="write report TSV here instead of stdout")
    p.add_argument("--per-query", action="store_true")


def _cmd_evaluate(args):
    run = corpus.load_run(args.run)
    qrels = corpus.load_qrels(args.qrels)
    report = metrics.evaluate(run, qrels)
    if args.out:
        metrics.write_report(report, args.out, per_query=args.per_query)
    else:
        for metric, value in report.mean.items():
            print(f"{metric}\tall\t{value:.4f}")


def _add_perturb_text(p):
    """tokenize, perturb, and decode text"""
    p.add_argument("--vocab", required=True)
    p.add_argument("--mode", default="sort", help="natural | sort | shuffle:<seed>")
    p.add_argument("--key", default="", help="example key for seeded shuffling")
    p.add_argument("query")
    p.add_argument("passage", nargs="?", default=None)


def _cmd_perturb_text(args):
    vocab = tokenizer.load_vocab(args.vocab)
    mode = perturb.parse_mode(args.mode)
    passage = args.passage if args.passage is not None else args.query
    pair = tokenizer.encode_pair(args.query, passage, vocab, max_len=512)
    out = perturb.apply(pair, mode, args.key)
    q_tokens = tokenizer.decode_ids(out.span_ids(out.query_span), vocab)
    p_tokens = tokenizer.decode_ids(out.span_ids(out.passage_span), vocab)
    print("query:", " ".join(q_tokens))
    if args.passage is not None:
        print("passage:", " ".join(p_tokens))


def _add_cka(p):
    """CKA similarity between two (model, perturb) conditions"""
    p.add_argument("--checkpoint-a", required=True)
    p.add_argument("--checkpoint-b", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--collection", required=True)
    p.add_argument("--run", required=True, help="run supplying the (query, passage) pairs")
    p.add_argument("--depth", type=int, default=experiment.CKA_DOCS_PER_QUERY,
                   help="passages per query")
    p.add_argument("--mode-a", default="natural")
    p.add_argument("--mode-b", default="natural")
    p.add_argument("--selector", choices=("cls_only", "all_tokens"), default="cls_only")
    p.add_argument("--out", help="CSV output path")


def _cmd_cka(args):
    model_a = M.load(args.checkpoint_a)
    model_b = M.load(args.checkpoint_b)
    vocab = tokenizer.load_vocab(args.vocab)
    queries = corpus.load_queries(args.queries)
    coll = corpus.load_collection(args.collection)
    texts = experiment.cka_pairs(corpus.load_run(args.run), queries, coll, args.depth)
    if model_a.config.max_len != model_b.config.max_len:
        raise ValueError("models disagree on max_len")
    memo = perturb.PairMemo(vocab, model_a.config.max_len)
    a = experiment.cka_capture(model_a, memo, texts, perturb.parse_mode(args.mode_a))
    b = experiment.cka_capture(model_b, memo, texts, perturb.parse_mode(args.mode_b))
    report = cka.score(a, b, args.selector)
    if args.out:
        cka.write_report_csv(report, args.out)
    for layer, value in enumerate(report.per_layer):
        print(f"layer {layer}\t{value:.6f}")


def _add_experiment(p):
    """run the full condition matrix"""
    p.add_argument("--config", help="plain-text config file (key = value, per-module sections)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override the global seed")


def _cmd_experiment(args):
    spec = experiment.spec_from_config(args.config) if args.config else experiment.ExperimentSpec()
    if args.seed is not None:
        spec.seed = args.seed
        spec.synthetic = replace(spec.synthetic, seed=args.seed)
    experiment.run_experiment(spec, args.out)
    print(f"experiment complete; summary at {os.path.join(args.out, 'summary.tsv')}")


# each command's name, the adder of its flags (whose docstring is its
# help) and its runner
_COMMANDS = {
    "generate": (_add_generate, _cmd_generate),
    "index": (_add_index, _cmd_index),
    "retrieve": (_add_retrieve, _cmd_retrieve),
    "train": (_add_train, _cmd_train),
    "rerank": (_add_rerank, _cmd_rerank),
    "evaluate": (_add_evaluate, _cmd_evaluate),
    "perturb-text": (_add_perturb_text, _cmd_perturb_text),
    "cka": (_add_cka, _cmd_cka),
    "experiment": (_add_experiment, _cmd_experiment),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="orderlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (add, _) in _COMMANDS.items():
        add(sub.add_parser(name, help=add.__doc__))
    return parser


def keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds to 1 GiB with `mallopt`;
    whether it took.

    By default glibc maps each large block (numpy's batch temporaries)
    with fresh pages and unmaps it on free, so a run faults in the same
    memory again and again. Set, the heap serves those blocks and keeps
    what they free. It takes effect for later allocations, numpy's
    included, and forked trainers inherit it. Without glibc's `mallopt`,
    or when it refuses, nothing is set.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 1 << 30) and mallopt(m_trim_threshold, 1 << 30))


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        _COMMANDS[args.command][1](args)
    except T.DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # ParseError and ValidationError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
