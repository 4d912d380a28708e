"""End-to-end experiment runner.

Generates (or loads) data, builds the vocabulary and BM25 first-stage
runs, trains one model per distinct (position_mode, train_perturb),
re-ranks and evaluates every condition, and emits a summary TSV plus
CKA analysis artifacts. Completed stages are skipped on re-run based on
the presence of their output files; those files are written whole or
not at all (`_write_atomically`). A directory whose `config.txt` another
config wrote is refused before anything is written.

Each model trains in a child process forked for it, on any number of
cores, with as many children at a time as there are cores
(`_train_models`). A child runs the optimization alone and writes its
parameters at each eval step to a snapshot file in a temporary
directory. Once every child has finished, this process scores each
model's snapshots on the dev queries, in condition order, keeps the one
`train.TrainLog.record_eval` keeps, and writes the model's logs and
checkpoint. Every re-ranked pair of a run (dev evals, conditions) and
the CKA captures are scored here, and the outputs do not depend on the
number of cores.

Every model trains on the same triples, written to `data/triples.tsv`;
dev and test queries contribute none. Under the overlap rule these are
the generator's positives for each training query, each paired with a
grade-0 doc drawn from that query's own BM25 top-`rerank_k`, i.e. from
the kind of candidate the models re-rank at test time (`mine_triples`).
Under the bigram_order rule they are the generator's own triples, whose
negatives already match their positives' marker counts.
"""

from __future__ import annotations

import configparser
import multiprocessing
import os
import signal
import tempfile
from pathlib import Path
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import bm25, cka, metrics
from . import model as M
from . import perturb
from . import train as T
from .corpus import (Collection, Qrels, QuerySet, Run, RunEntry, SyntheticSpec, Triple,
                     ValidationError, generate_synthetic, load_run, write_qrels, write_run,
                     write_texts, write_triples)
from .perturb import PairMemo
from .tokenizer import TokenizedPair, Vocab, build_vocab, save_vocab
from .tokenizer import encode_pair  # noqa: F401  (perfbench/spans.py traces it at this name)


@dataclass(frozen=True)
class Condition:
    position_mode: str
    train_perturb: perturb.PerturbMode
    eval_perturb: perturb.PerturbMode

    def text(self) -> str:
        """`position_mode/train_perturb/eval_perturb`, as `parse_condition` reads it."""
        return "/".join((self.position_mode, perturb.format_mode(self.train_perturb),
                         perturb.format_mode(self.eval_perturb)))

    def label(self) -> str:
        return self.text().replace(":", "").replace("/", "_")


def default_conditions() -> list[Condition]:
    """The 8-row condition matrix: natural baseline, sort and shuffle
    blocks (on `shuffle:13`), and the no-position model."""
    sh = perturb.shuffle_mode(13)
    nat, srt = perturb.NATURAL, perturb.SORT_DESC
    return [
        Condition("learned", nat, nat),
        Condition("learned", nat, srt),
        Condition("learned", srt, srt),
        Condition("learned", srt, nat),
        Condition("learned", nat, sh),
        Condition("learned", sh, sh),
        Condition("learned", sh, nat),
        Condition("none", nat, nat),
    ]


# no config sets these: the dev evals re-rank each dev query's BM25 top DEV_RERANK_K;
# re-ranking and held-out accuracy score SCORE_BATCH_SIZE pairs per forward, so a
# query's rerank_k (100) block is one forward;
# CKA compares each test query's top CKA_DOCS_PER_QUERY, cka.BATCH_SIZE per forward
DEV_RERANK_K = 50
SCORE_BATCH_SIZE = 128
CKA_DOCS_PER_QUERY = 5


@dataclass
class ExperimentSpec:
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    model: M.ModelConfig = field(default_factory=M.ModelConfig)
    train: T.TrainConfig = field(default_factory=T.TrainConfig)
    seed: int = 13
    rerank_k: int = 100
    dev_queries: int = 50
    test_queries: int = 50
    conditions: list[Condition] = field(default_factory=default_conditions)

    def validate(self):
        if not self.conditions:
            raise ValueError("conditions must be non-empty")
        for key in ("rerank_k", "dev_queries", "test_queries"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"[experiment] seed must be >= 0, got {self.seed}")
        self.synthetic.validate()
        self.model.validate()
        self.train.validate()
        if self.dev_queries + self.test_queries >= self.synthetic.n_queries:
            raise ValueError("dev + test queries must leave training queries")


def parse_condition(text: str) -> Condition:
    """`position_mode/train_perturb/eval_perturb`, perturbs in CLI grammar.
    A position mode outside `model.POSITION_MODES` is a ValueError here,
    so a config naming one is refused before the run writes anything."""
    parts = text.split("/")
    if len(parts) != 3:
        raise ValueError(f"bad condition {text!r}; expected pos/train/eval")
    if parts[0] not in M.POSITION_MODES:
        raise ValueError(f"unknown position_mode {parts[0]!r}")
    return Condition(parts[0], perturb.parse_mode(parts[1]), perturb.parse_mode(parts[2]))


# ---------------------------------------------------------------------------
# config file: a section per dataclass of the spec and a key per field,
# but for the fields the run sets itself. A `*_len_range` is two keys,
# `*_len_min` and `*_len_max`, and the conditions one comma-separated
# line; every other value is read by the type of its field's default.

_DERIVED = {"model": {"vocab_size", "position_mode"}, "train": {"seed", "train_perturb"}}


def _sections(spec: ExperimentSpec) -> dict:
    return {"synthetic": spec.synthetic, "model": spec.model, "train": spec.train,
            "experiment": spec}


def _flat(obj, section: str) -> dict[str, str]:
    """{config key: value as text} of the fields of `obj` that a config sets."""
    flat = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in _DERIVED.get(section, ()) or is_dataclass(value):
            continue
        if isinstance(value, tuple):
            stem = f.name.removesuffix("_range")
            flat[f"{stem}_min"], flat[f"{stem}_max"] = map(str, value)
        elif isinstance(value, list):
            flat[f.name] = ", ".join(c.text() for c in value)
        else:
            flat[f.name] = str(value)
    return flat


def _unflat(obj, flat: dict[str, str]):
    """`obj` with every field that `_flat` writes read back from `flat`."""
    changes = {}
    for f in fields(obj):
        default = getattr(obj, f.name)
        if isinstance(default, tuple):
            stem = f.name.removesuffix("_range")
            changes[f.name] = (int(flat[f"{stem}_min"]), int(flat[f"{stem}_max"]))
        elif isinstance(default, list):
            changes[f.name] = [parse_condition(c.strip())
                               for c in flat[f.name].split(",") if c.strip()]
        elif f.name in flat:
            changes[f.name] = type(default)(flat[f.name])
    return replace(obj, **changes)


def resolved_config(spec: ExperimentSpec) -> str:
    """Every field of `spec` that a config sets, as `spec_from_config` reads it."""
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in _flat(o, name).items())
                     for name, o in _sections(spec).items())


def spec_from_config(path) -> ExperimentSpec:
    """The spec a config file sets, over the defaults. A file configparser
    cannot read (no section header, a key set twice, a stray `%`), an
    unknown section or key, a key the run sets itself, or a value its
    field's type cannot parse is a ValueError, in one line."""
    cp = configparser.ConfigParser()
    sections = _sections(ExperimentSpec())
    try:
        with open(path, "r", encoding="utf-8") as f:
            cp.read_file(f)
        for name in cp.sections():
            if name not in sections:
                raise ValueError(f"unknown section [{name}]")
            flat = _flat(sections[name], name)
            for key in cp[name]:
                if key not in flat:
                    raise ValueError(f"[{name}] {key} is set by the run, not by a config"
                                     if key in _DERIVED.get(name, ()) else
                                     f"unknown key {key} in [{name}]")
            try:
                sections[name] = _unflat(sections[name], {**flat, **cp[name]})
            except ValueError as exc:
                raise ValueError(f"[{name}] {exc}") from None
    except configparser.Error as exc:
        raise ValueError(f"config {path}: {' '.join(str(exc).splitlines())}") from None
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    return replace(sections["experiment"], synthetic=sections["synthetic"],
                   model=sections["model"], train=sections["train"])


# ---------------------------------------------------------------------------
# re-ranking, held-out scoring and CKA captures


def missing_id_error(qid: str, block: list[RunEntry], queries: QuerySet,
                     collection: Collection) -> ValidationError | None:
    """The error for a query of a run, or a doc of its `block`, that the
    inputs lack; None when both have every id."""
    if qid not in queries.entries:
        return ValidationError(f"query {qid} of the run is not in the queries")
    missing = next((e.doc_id for e in block if e.doc_id not in collection.entries), None)
    if missing is None:
        return None
    return ValidationError(f"doc {missing} of the run (query {qid}) is not in the collection")


def rerank_run(run: Run, mdl: M.Model, vocab: Vocab, queries: QuerySet,
               collection: Collection, k: int,
               mode: perturb.PerturbMode = perturb.NATURAL,
               tag: str = "rerank", memo: PairMemo | None = None) -> Run:
    """Re-score the top-k block of each query with the model.

    The block is re-ordered by model score (ties by doc_id); entries
    below rank k keep their order, with scores remapped below the block
    minimum so the run stays rank-consistent. Each example, keyed
    `qid:doc_id`, comes from a `PairMemo`, one batch per query block:
    `memo`, if given, so that the calls of one run encode and perturb
    each example once, or else a memo of this call's own. A query or doc
    of the run that `queries` or `collection` lacks is a
    `ValidationError`; k below 1, or a memo of another vocabulary or
    max_len, a ValueError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if memo is None:
        memo = PairMemo(vocab, mdl.config.max_len)
    elif vocab is not memo.vocab or mdl.config.max_len != memo.max_len:
        raise ValueError("pair memo was built for another vocabulary or max_len")
    out = Run()
    for qid in sorted(run.entries):
        entries = run.entries[qid]
        block = entries[:k]
        tail = entries[k:]
        error = missing_id_error(qid, block, queries, collection)
        if error is not None:
            raise error
        query = queries.entries[qid]
        pairs = memo.perturbed([(query, collection.entries[e.doc_id]) for e in block], mode,
                               [f"{qid}:{e.doc_id}" for e in block])
        rescored = sorted(
            zip((e.doc_id for e in block), _scores(mdl, pairs)), key=lambda kv: (-kv[1], kv[0])
        )
        new_entries = [
            RunEntry(doc_id, float(s), rank, tag)
            for rank, (doc_id, s) in enumerate(rescored, start=1)
        ]
        floor = new_entries[-1].score if new_entries else 1.0
        for j, e in enumerate(tail):
            new_entries.append(
                RunEntry(e.doc_id, floor - 1e-6 * (j + 1), len(new_entries) + 1, tag)
            )
        out.entries[qid] = new_entries
    out.validate()
    return out


def _scores(mdl: M.Model, pairs: list[TokenizedPair]) -> list[float]:
    """The model's relevance probability of each pair, SCORE_BATCH_SIZE
    pairs per forward."""
    scores = []
    for start in range(0, len(pairs), SCORE_BATCH_SIZE):
        scores.extend(M.forward(mdl, pairs[start:start + SCORE_BATCH_SIZE]).relevance_prob)
    return scores


def _triple_pairs(triples: list[Triple], vocab: Vocab, max_len: int,
                  mode: perturb.PerturbMode) -> list[TokenizedPair]:
    """Each triple's positive, then its negative, triple by triple, keyed
    `acc:{i}|pos` and `acc:{i}|neg`, encoded and perturbed once, here.
    No triples is a ValueError: there is no accuracy to report."""
    if not triples:
        raise ValueError("no held-out triples to score")
    texts = [(query, passage) for query, pos, neg in triples for passage in (pos, neg)]
    keys = [f"acc:{i}|{side}" for i in range(len(triples)) for side in ("pos", "neg")]
    return PairMemo(vocab, max_len).perturbed(texts, mode, keys)


def held_out_hook(triples: list[Triple], vocab: Vocab, max_len: int,
                  mode: perturb.PerturbMode = perturb.NATURAL):
    """Eval hook for `train.train`: the share of `triples` whose positive
    the model scores above its negative, a tie counting half. It needs no
    threshold, so it ranks checkpoints whose probabilities all sit on one
    side of 0.5, as a briefly trained model's do."""
    pairs = _triple_pairs(triples, vocab, max_len, mode)

    def pairwise_accuracy(mdl: M.Model) -> float:
        p = _scores(mdl, pairs)
        wins = sum(1.0 if pos > neg else 0.5 if pos == neg else 0.0
                   for pos, neg in zip(p[0::2], p[1::2]))
        return wins / len(triples)

    return pairwise_accuracy


def held_out_accuracy(mdl: M.Model, triples: list[Triple], vocab: Vocab,
                      mode: perturb.PerturbMode = perturb.NATURAL) -> float:
    """Classification accuracy at p >= 0.5 over the two examples of each
    triple, the positive labelled 1 and the negative 0."""
    p = _scores(mdl, _triple_pairs(triples, vocab, mdl.config.max_len, mode))
    labels = [1, 0] * len(triples)
    return sum(int((x >= 0.5) == bool(y)) for x, y in zip(p, labels)) / len(p)


def cka_pairs(run: Run, queries: QuerySet, collection: Collection,
              depth: int) -> list[tuple[str, str]]:
    """The (query text, doc text) of each query's top `depth` docs in
    `run`, in query-id order. A query or doc of those blocks that
    `queries` or `collection` lacks is the `missing_id_error`, and depth
    below 1 a ValueError."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    texts = []
    for qid in sorted(run.entries):
        block = run.entries[qid][:depth]
        error = missing_id_error(qid, block, queries, collection)
        if error is not None:
            raise error
        texts.extend((queries.entries[qid], collection.entries[e.doc_id]) for e in block)
    return texts


def cka_capture(mdl: M.Model, memo: PairMemo, texts: list[tuple[str, str]],
                mode: perturb.PerturbMode) -> cka.Capture:
    """`cka.capture` of `mdl` over `texts` under `mode`, example `i`
    perturbed under key `str(i)` through `memo`: once per mode, however
    many models see it."""
    examples = memo.perturbed(texts, mode, [str(i) for i in range(len(texts))])
    return cka.capture(mdl, examples, cka.BATCH_SIZE)


# ---------------------------------------------------------------------------
# experiment driver


def _vocab_for(collection: Collection, queries: QuerySet) -> Vocab:
    return build_vocab([*collection.entries.values(), *queries.entries.values()])


def write_data(spec: SyntheticSpec, outdir) -> tuple[Collection, QuerySet, Qrels,
                                                      list[Triple], Vocab]:
    """The corpus of `spec` (`generate_synthetic`) and its vocabulary
    (`_vocab_for`), with the collection, queries, qrels and vocabulary
    written to `outdir`, made if need be; the triples are returned, not
    written."""
    collection, queries, qrels, triples = generate_synthetic(spec)
    os.makedirs(outdir, exist_ok=True)
    write_texts(collection, os.path.join(outdir, "collection.tsv"))
    write_texts(queries, os.path.join(outdir, "queries.tsv"))
    write_qrels(qrels, os.path.join(outdir, "qrels.txt"))
    vocab = _vocab_for(collection, queries)
    save_vocab(vocab, os.path.join(outdir, "vocab.txt"))
    return collection, queries, qrels, triples, vocab


def _split_queries(queries: QuerySet, n_dev: int, n_test: int):
    qids = sorted(queries.entries)
    train_ids = qids[: len(qids) - n_dev - n_test]
    dev_ids = qids[len(train_ids): len(train_ids) + n_dev]
    test_ids = qids[len(train_ids) + n_dev:]
    return train_ids, dev_ids, test_ids


def _subset(queries: QuerySet, qids) -> QuerySet:
    return QuerySet({q: queries.entries[q] for q in qids})


class ExperimentError(ValueError):
    """The data cannot support the experiment (exit code 2 on the CLI)."""


def _triples_by_query(triples: list[Triple], queries: QuerySet) -> dict[str, list[Triple]]:
    """Group the generator's triples by query id, keeping their order.

    Triples carry query text, not ids; a triple belongs to the lowest id
    whose text is its query.
    """
    text_to_qid: dict[str, str] = {}
    for qid in sorted(queries.entries):
        text_to_qid.setdefault(queries.entries[qid], qid)
    grouped: dict[str, list[Triple]] = {}
    for t in triples:
        grouped.setdefault(text_to_qid[t[0]], []).append(t)
    return grouped


def mine_triples(triples: list[Triple], queries: QuerySet, collection: Collection,
                 grades: dict[str, dict[str, int]], ranked: dict[str, list[str]],
                 seed: int) -> list[Triple]:
    """Re-pair the generator's positives with negatives mined from BM25.

    `ranked` holds each mining query's first-stage top-k doc ids in rank
    order (`bm25.retrieve`), and `grades` is the by-query grade map
    (`Qrels.by_query`); a doc it lacks for a query is grade 0. Only
    queries in `ranked` contribute (a triple's query is the lowest id
    with its text). Each of a query's triples keeps its positive and
    gets a negative drawn from the grade-0 docs of that query's own
    top-k: without replacement, or with replacement when the pool is
    smaller than the query's triple count. A query with no grade-0 doc
    in its top-k contributes nothing. The draws come from one generator
    seeded with `seed` and walk the queries in id order.
    """
    by_query = _triples_by_query(triples, queries)
    rng = np.random.default_rng(seed)
    mined: list[Triple] = []
    for qid in sorted(set(by_query) & set(ranked)):
        judged = grades.get(qid, {})
        pool = [d for d in ranked[qid] if judged.get(d, 0) == 0]
        if not pool:
            continue
        n = len(by_query[qid])
        picks = rng.choice(len(pool), size=n, replace=n > len(pool))
        mined.extend(
            (query, pos_text, collection.entries[pool[int(i)]])
            for (query, pos_text, _), i in zip(by_query[qid], picks)
        )
    return mined


def _write_atomically(write, obj, path):
    """`write(obj, tmp)` to a temp file beside `path`, then rename it to
    `path`: an interrupted write leaves nothing at `path`."""
    tmp = f"{path}.tmp"
    try:
        write(obj, tmp)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _write_lines(lines: list[str], path):
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def _model_key(cond: Condition) -> tuple[str, str]:
    """The model `cond` evaluates: (position_mode, train_perturb as text)."""
    return cond.position_mode, perturb.format_mode(cond.train_perturb)


def _model_name(key: tuple[str, str]) -> str:
    """The file stem of a model's checkpoint and logs."""
    return f"{key[0]}_{key[1].replace(':', '')}"


def _train_in_child(job: tuple, conn):
    """A child process's part of `_train_models`: train one model of a
    run. `job` is (initial model, triples, train config, vocabulary,
    snapshot stem). It runs `train.optimize` with no dev scoring and, at
    each eval step, writes the flat parameter buffer to
    `{stem}_{step}.params`. It sends through `conn` the TrainLog and the
    (step, snapshot path) of each eval step, or the error it raised."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    mdl, triples, cfg, vocab, stem = job
    log, snapshots = T.TrainLog(), []
    try:
        for step, _, params in T.optimize(mdl, triples, cfg, vocab, log):
            path = f"{stem}_{step}.params"
            params.tofile(path)
            snapshots.append((step, path))
        outcome = log, snapshots
    except BaseException as exc:  # the parent raises it in job order
        outcome = exc
    conn.send(outcome)


def _train_models(jobs: list[tuple]) -> tuple[list, BaseException | None]:
    """`_train_in_child` of each job, each in a child process forked for
    it, started in job order and as many at a time as there are cores.
    Returns the results of the jobs before the first that failed, in job
    order, and its error (None when none failed). That failure, or an
    interrupt of this process, ends the other jobs: no child is left
    running by the return.

    Plain children, not a `multiprocessing.Pool`: a pool's three helper
    threads each take a malloc arena, which raised this process's peak
    RSS by 3 MB over four `matrix_spec(1)` runs; a child with one pipe
    raises it by none."""
    n_workers = min(len(os.sched_getaffinity(0)), len(jobs))
    ctx = multiprocessing.get_context("fork")
    children: list = []  # (child, the parent's end of its pipe), in job order
    done: list = []
    try:
        for index in range(len(jobs)):
            while len(children) < min(index + n_workers, len(jobs)):
                receive, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_train_in_child, args=(jobs[len(children)], send))
                child.start()
                send.close()
                children.append((child, receive))
            child, receive = children[index]
            try:
                outcome = receive.recv()
            except EOFError:  # it died before it could send
                outcome = None
            child.join()
            if outcome is None:
                raise RuntimeError(f"the process training model {index + 1} of "
                                   f"{len(jobs)} exited with code {child.exitcode}")
            if isinstance(outcome, BaseException):
                raise outcome
            done.append(outcome)
    except BaseException as exc:  # a failure or an interrupt: the caller raises it
        return done, exc
    finally:
        for child, receive in children:
            if child.is_alive():
                child.terminate()
                child.join()
            receive.close()
    return done, None


def run_experiment(spec: ExperimentSpec, outdir, log=print) -> dict:
    """Execute the full condition matrix; returns {condition label: report}."""
    spec.validate()
    config = Path(outdir, "config.txt")
    text = resolved_config(spec)
    if config.exists() and config.read_text(encoding="utf-8") != text:
        raise ExperimentError(f"{config} holds another config; a run resumes only its own")
    for sub in ("data", "models", "runs", "metrics", "cka"):
        os.makedirs(os.path.join(outdir, sub), exist_ok=True)
    config.write_text(text, encoding="utf-8")
    data = os.path.join(outdir, "data")

    # -- data generation (deterministic, always re-emitted byte-identically)
    collection, queries, qrels, triples, vocab = write_data(spec.synthetic, data)

    train_ids, dev_ids, test_ids = _split_queries(queries, spec.dev_queries, spec.test_queries)
    # every report of the run, and the mining, grade against one by-query map
    grades = qrels.by_query()

    # -- first-stage BM25 runs; under the overlap rule the training
    # queries' own top-k supplies the negatives every model trains on
    # (the module docstring says which triples each rule trains on)
    index = bm25.build_index(collection)
    if spec.synthetic.relevance_rule == "overlap":
        # mining reads only each training query's ranked doc ids
        ranked = {qid: [doc_id for doc_id, _ in bm25.retrieve(index, queries.entries[qid],
                                                               spec.rerank_k)]
                  for qid in train_ids}
        train_triples = mine_triples(triples, queries, collection, grades, ranked, spec.seed)
        if not train_triples:
            raise ExperimentError("no training query has a grade-0 doc in its BM25 top-k")
    else:
        by_query = _triples_by_query(triples, queries)
        train_triples = [t for qid in train_ids for t in by_query.get(qid, [])]
    write_triples(train_triples, os.path.join(data, "triples.tsv"))
    test_run = bm25.retrieve_run(index, _subset(queries, test_ids), spec.rerank_k)
    dev_run = bm25.retrieve_run(index, _subset(queries, dev_ids), DEV_RERANK_K)
    write_run(test_run, os.path.join(outdir, "runs", "bm25_test.run"))
    write_run(dev_run, os.path.join(outdir, "runs", "bm25_dev.run"))
    bm25_report = metrics.evaluate(test_run, grades)
    metrics.write_report(bm25_report, os.path.join(outdir, "metrics", "bm25.tsv"))

    model_cfg = replace(spec.model, vocab_size=len(vocab))
    # the dev evals, the conditions and the CKA pairs share one memo, so
    # the run encodes each (query, doc) pair it scores once, on first use,
    # and perturbs each example once; training encodes in its own process
    memo = PairMemo(vocab, model_cfg.max_len)

    def dev_metric(mdl: M.Model, mode: perturb.PerturbMode) -> float:
        reranked = rerank_run(dev_run, mdl, vocab, queries, collection,
                              DEV_RERANK_K, mode, tag="dev", memo=memo)
        return metrics.evaluate(reranked, grades).mean["ndcg@10"]

    # -- one model per distinct (position_mode, train_perturb): a cached
    # one is loaded, the others train in `_train_models` and are then
    # scored and saved here, in condition order
    trained: dict[tuple, M.Model | None] = {}
    pending: list[Condition] = []
    for cond in spec.conditions:
        key = _model_key(cond)
        if key in trained:
            continue
        ckpt = os.path.join(outdir, "models", _model_name(key) + ".ckpt")
        if os.path.exists(ckpt):
            log(f"[experiment] loading cached model {ckpt}")
            trained[key] = M.load(ckpt)
            continue
        log(f"[experiment] training model position={key[0]} perturb={key[1]}")
        trained[key] = None
        pending.append(cond)
    with tempfile.TemporaryDirectory(prefix="orderlab-snapshots-") as snapshots:
        jobs = [(M.init(replace(model_cfg, position_mode=cond.position_mode), spec.seed),
                 train_triples,
                 replace(spec.train, seed=spec.seed, train_perturb=cond.train_perturb),
                 vocab, os.path.join(snapshots, _model_name(_model_key(cond))))
                for cond in pending]
        done, error = _train_models(jobs)
        for cond, (initial, *_), (tlog, saved) in zip(pending, jobs, done):
            # the snapshot record_eval keeps, which keeps the first eval at least
            for step, path in saved:
                snapshot = T.from_flat(initial, np.fromfile(path, dtype=initial.dtype))
                if tlog.record_eval(step, dev_metric(snapshot, cond.train_perturb)):
                    mdl = snapshot
            # the checkpoint comes last: its presence marks a complete model
            key = _model_key(cond)
            stem = os.path.join(outdir, "models", _model_name(key))
            T.write_train_log(tlog, stem + "_log.tsv")
            T.write_eval_log(tlog, stem + "_evals.tsv")
            _write_atomically(M.save, mdl, stem + ".ckpt")
            trained[key] = mdl
    if error is not None:
        raise error

    # -- evaluate each condition (skipped when its outputs already exist)
    results: dict[str, metrics.MetricsReport | None] = {}
    for cond in spec.conditions:
        label = cond.label()
        key = _model_key(cond)
        metrics_path = os.path.join(outdir, "metrics", f"{label}.tsv")
        run_path = os.path.join(outdir, "runs", f"{label}.run")
        if os.path.exists(metrics_path) and os.path.exists(run_path):
            log(f"[experiment] condition {label} already computed, skipping")
            results[label] = metrics.evaluate(load_run(run_path), grades)
            continue
        try:
            reranked = rerank_run(test_run, trained[key], vocab, queries, collection,
                                  spec.rerank_k, cond.eval_perturb, tag=label, memo=memo)
            _write_atomically(write_run, reranked, run_path)
            report = metrics.evaluate(reranked, grades)
            _write_atomically(metrics.write_report, report, metrics_path)
            results[label] = report
        except (ValueError, OSError) as exc:  # bad data or a failed write: one row, not the matrix
            log(f"[experiment] condition {label} failed: {type(exc).__name__}: {exc}")
            results[label] = None

    # -- summary table
    names = ("ndcg@10", "map", "recall@100", "mrr@10")
    with open(os.path.join(outdir, "summary.tsv"), "w", encoding="utf-8") as f:
        f.write("\t".join(("position_mode", "train_perturb", "eval_perturb", *names)) + "\n")
        for cond in spec.conditions:
            report = results[cond.label()]
            row = cond.text().split("/")
            if report is None:
                row.extend(["failed"] * len(names))
            else:
                row.extend(f"{report.mean[m]:.4f}" for m in names)
            f.write("\t".join(row) + "\n")

    # -- CKA artifacts over test pairs, perturbed through the run's memo.
    # Each (model, perturbation) is captured once: a model's natural
    # capture serves both its [CLS] comparisons and the layerwise reports
    cka_texts = cka_pairs(test_run, queries, collection, CKA_DOCS_PER_QUERY)
    natural = {key: cka_capture(mdl, memo, cka_texts, perturb.NATURAL)
               for key, mdl in trained.items()}
    # a shuffle-trained model is compared on its own permutation seed,
    # any other model on the first shuffle stream the conditions use
    sh = next((m for c in spec.conditions for m in (c.train_perturb, c.eval_perturb)
               if m.kind == "shuffle"), perturb.shuffle_mode(spec.seed))
    rows = ["position_mode\ttrain_perturb\tcomparison\tcka\n"]
    for (pos_mode, tp), mdl in sorted(trained.items()):
        own = perturb.parse_mode(tp)
        shuffle = own if own.kind == "shuffle" else sh
        for comp_name, comp_mode in (("shuffle", shuffle), ("sort", perturb.SORT_DESC)):
            rep = cka.score(natural[pos_mode, tp], cka_capture(mdl, memo, cka_texts, comp_mode),
                            "cls_only")
            rows.append(f"{pos_mode}\t{tp}\t{comp_name}\t{rep.per_layer[-1]:.6f}\n")
    _write_atomically(_write_lines, rows, os.path.join(outdir, "cka", "cls_similarity.tsv"))

    baseline_key = ("learned", "natural")
    if baseline_key in trained:
        for other_key, name in ((("learned", "sort"), "sort"), (("none", "natural"), "nopos")):
            if other_key in trained:
                rep = cka.score(natural[baseline_key], natural[other_key], "all_tokens")
                cka.write_report_csv(rep, os.path.join(outdir, "cka", f"layers_{name}.csv"))

    return results
