"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
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


def _add_generate(sub):
    p = sub.add_parser("generate", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    _add_fields(p, corpus.SyntheticSpec(), {
        "--vocab-size": "vocab_size", "--n-docs": "n_docs", "--n-queries": "n_queries",
        "--doc-len": "doc_len_range", "--query-len": "query_len_range",
        "--rule": "relevance_rule", "--zipf": "zipf_exponent", "--seed": "seed",
    }, relevance_rule=("overlap", "bigram_order"))


def _cmd_generate(args):
    spec = _from_flags(corpus.SyntheticSpec(), args)
    collection, queries, qrels, triples = corpus.generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    corpus.write_collection(collection, os.path.join(args.out, "collection.tsv"))
    corpus.write_queries(queries, os.path.join(args.out, "queries.tsv"))
    corpus.write_qrels(qrels, os.path.join(args.out, "qrels.txt"))
    corpus.write_triples(triples, os.path.join(args.out, "triples.tsv"))
    vocab = experiment._vocab_for(collection, queries)
    tokenizer.save_vocab(vocab, os.path.join(args.out, "vocab.txt"))
    print(f"wrote {len(collection)} docs, {len(queries)} queries, "
          f"{len(qrels.grades)} judgments, {len(triples)} triples to {args.out}")


def _add_index(sub):
    p = sub.add_parser("index", help="build a BM25 index and print statistics")
    p.add_argument("--collection", required=True)


def _cmd_index(args):
    coll = corpus.load_collection(args.collection)
    index = bm25.build_index(coll)
    print(f"docs\t{index.n_docs}")
    print(f"terms\t{len(index.postings)}")
    print(f"avgdl\t{index.avgdl:.4f}")


def _add_retrieve(sub):
    p = sub.add_parser("retrieve", help="BM25 retrieval to a TREC run file")
    p.add_argument("--collection", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--k1", type=float, default=1.2)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--tag", default="bm25")


def _cmd_retrieve(args):
    coll = corpus.load_collection(args.collection)
    queries = corpus.load_queries(args.queries)
    index = bm25.build_index(coll)
    run = bm25.retrieve_run(index, queries, args.k, bm25.Bm25Params(args.k1, args.b), args.tag)
    corpus.write_run(run, args.out)
    print(f"wrote run for {len(run.entries)} queries to {args.out}")


def _add_train(sub):
    p = sub.add_parser("train", help="fine-tune a cross-encoder from triples")
    p.add_argument("--triples", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--dev-triples", help="held-out triples for best-checkpoint selection")
    p.add_argument("--log", help="training log TSV path")
    p.add_argument("--perturb", default=perturb.format_mode(T.TrainConfig().train_perturb),
                   help="natural | sort | shuffle:<seed>")
    _add_fields(p, M.ModelConfig(), {
        "--position-mode": "position_mode", "--layers": "n_layers", "--heads": "n_heads",
        "--hidden": "hidden", "--ff-dim": "ff_dim", "--max-len": "max_len",
    }, position_mode=("learned", "none"))
    _add_fields(p, T.TrainConfig(), {
        "--batch-size": "batch_size", "--lr": "lr_peak", "--warmup": "warmup_steps",
        "--steps": "total_steps", "--epoch-size": "epoch_size",
        "--weight-decay": "weight_decay", "--seed": "seed",
    })


def _cmd_train(args):
    triples = corpus.load_triples(args.triples)
    vocab = tokenizer.load_vocab(args.vocab)
    cfg = _from_flags(M.ModelConfig(), args, vocab_size=len(vocab))
    tcfg = _from_flags(T.TrainConfig(), args, train_perturb=perturb.parse_mode(args.perturb))
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


def _add_rerank(sub):
    p = sub.add_parser("rerank", help="re-score the top-k of a run with a checkpoint")
    p.add_argument("--run", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--collection", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=100)
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


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="score a run against qrels")
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


def _add_perturb_text(sub):
    p = sub.add_parser("perturb-text", help="tokenize, perturb, and decode text")
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


def _add_cka(sub):
    p = sub.add_parser("cka", help="CKA similarity between two (model, perturb) conditions")
    p.add_argument("--checkpoint-a", required=True)
    p.add_argument("--checkpoint-b", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--collection", required=True)
    p.add_argument("--run", required=True, help="run supplying the (query, passage) pairs")
    p.add_argument("--depth", type=int, default=5, help="passages per query")
    p.add_argument("--mode-a", default="natural")
    p.add_argument("--mode-b", default="natural")
    p.add_argument("--selector", choices=("cls_only", "all_tokens"), default="cls_only")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", help="CSV output path")


def _cmd_cka(args):
    model_a = M.load(args.checkpoint_a)
    model_b = M.load(args.checkpoint_b)
    vocab = tokenizer.load_vocab(args.vocab)
    queries = corpus.load_queries(args.queries)
    coll = corpus.load_collection(args.collection)
    run = corpus.load_run(args.run)
    pairs = []
    for qid in sorted(run.entries):
        block = run.entries[qid][: args.depth]
        error = experiment.missing_id_error(qid, block, queries, coll)
        if error is not None:
            raise error
        pairs.extend(tokenizer.encode_pair(queries.entries[qid], coll.entries[e.doc_id],
                                           vocab, model_a.config.max_len) for e in block)
    report = cka.compare(model_a, perturb.parse_mode(args.mode_a),
                         model_b, perturb.parse_mode(args.mode_b),
                         pairs, selector=args.selector, batch_size=args.batch_size)
    if args.out:
        cka.write_report_csv(report, args.out)
    for layer, value in enumerate(report.per_layer):
        print(f"layer {layer}\t{value:.6f}")


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="run the full condition matrix")
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


_COMMANDS = {
    "generate": _cmd_generate,
    "index": _cmd_index,
    "retrieve": _cmd_retrieve,
    "train": _cmd_train,
    "rerank": _cmd_rerank,
    "evaluate": _cmd_evaluate,
    "perturb-text": _cmd_perturb_text,
    "cka": _cmd_cka,
    "experiment": _cmd_experiment,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="orderlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_generate, _add_index, _add_retrieve, _add_train, _add_rerank,
                _add_evaluate, _add_perturb_text, _add_cka, _add_experiment):
        add(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        _COMMANDS[args.command](args)
    except T.DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (corpus.ParseError, corpus.ValidationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
