"""The three benchmark workloads: `matrix`, `rerank` and `corpus`.

Each workload is a closed loop with one client in one process. It makes
its inputs from the seed, sets up, then repeats a fixed unit of work
until the next repeat would end after `seconds`, and reports medians
over the repeats. Every time it reports is scaled by the calibration
kernel timed around the unit it belongs to (see `calibrate`), so that
the drift of a shared machine's speed is divided out. With tracing on,
repeats alternate between untraced and traced, so the trace overhead is
measured in the same process.

Every workload calls the orderlab functions through their modules
(`bm25.build_index`, not a name imported from it), so that the tracer
sees the calls.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from orderlab import bm25, corpus, experiment, metrics, perturb
from orderlab import model as M
from orderlab import train as T

from calibrate import Speed
from spans import Tracer

# `rerank` serves a model trained briefly during set-up. A 40 s run takes
# about one pass over the pool of queries; a faster program wraps around,
# which costs the same since orderlab keeps nothing between calls.
RERANK_DOCS, RERANK_QUERIES, RERANK_TRAIN_STEPS = 3000, 300, 50
RERANK_K = 100
ROUND_QUERIES = 10          # queries per repeat, each under every mode
NDCG_ROUNDS = 3             # the model's run for ndcg10: natural mode, first rounds
RERANK_MODES = (perturb.NATURAL, perturb.SORT_DESC, perturb.shuffle_mode(13))

CORPUS_K = 100
MIN_REPEATS = 3             # repeats and set-ups per run at least, for medians
PROBES = 3                  # kernel runs per mark around a unit of several seconds
MATRIX_CUT_S = 0.5          # shortest matrix segment between two kernel marks
IMPORT_PROBES = 5           # fresh interpreters timed for the corpus set-up


@dataclass
class Outcome:
    """What a workload reports: end-to-end metrics or per-layer metrics."""
    attempted: int = 0
    failed: int = 0
    consistent: bool = True
    ndcg10: float = float("nan")  # of the headline run; a drift check, not a timing
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()


def _run_digest(run: corpus.Run):
    return _digest(sorted((q, [(e.doc_id, f"{e.score:.9g}", e.rank) for e in lst])
                          for q, lst in run.entries.items()))


def _report(what: str, error):
    if isinstance(error, Exception):
        error = f"{type(error).__name__}: {error}"
    print(f"[perfbench] {what} failed: {error}", file=sys.stderr)


def _fail(outcome: Outcome, what: str, error):
    outcome.failed += 1
    _report(what, error)


def _repeats(body, seconds, trace, min_repeats):
    """Call body(tracer) until the next call would end after `seconds`.

    The tracer is None on untraced repeats; with `trace`, repeats
    alternate untraced, traced, untraced, ... Returns (wall, tracer) per
    repeat, where wall is the (scaled) time the body reports for its
    timed part. The stopping rule uses the time each call really took.
    """
    if trace:
        min_repeats = max(min_repeats, 2)
    done = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(done) >= min_repeats and elapsed + longest > seconds:
            return done
        tracer = Tracer() if trace and len(done) % 2 == 1 else None
        t0 = time.perf_counter()
        if tracer is None:
            done.append((body(None), None))
        else:
            with tracer.patched():
                done.append((body(tracer), tracer))
        longest = max(longest, time.perf_counter() - t0)


def _scaling_note(raw_walls, speed: Speed) -> str:
    return (f"unscaled wall_s median {statistics.median(raw_walls):.4g} s, machine factor "
            f"median {statistics.median(speed.factors):.4g} "
            f"(range {min(speed.factors):.3g}-{max(speed.factors):.3g})")


def _layer_outcome(outcome: Outcome, done, trace_path):
    """Per-layer metrics: means over traced repeats, plus trace overhead."""
    traced = [(w, t) for w, t in done if t is not None]
    untraced = [w for w, t in done if t is None]
    per_repeat = [t.layer_metrics() for _, t in traced]
    for name, (_, unit) in per_repeat[0].items():
        outcome.metrics[name] = (statistics.fmean(m[name][0] for m in per_repeat), unit)
    overhead = statistics.median(w for w, _ in traced) - statistics.median(untraced)
    outcome.metrics["trace.overhead_s"] = (overhead, "s")
    with open(trace_path, "w", encoding="utf-8") as f:
        f.write("repeat\tindex\tname\tstart\tend\tparent\titems\n")
        for repeat, (_, tracer) in enumerate(traced):
            for line in tracer.span_lines():
                f.write(f"{repeat}\t{line}\n")
    outcome.notes.append(f"spans of {len(traced)} traced repeats written to {trace_path}")


# ---------------------------------------------------------------------------
# matrix: the whole condition matrix, as `orderlab experiment` runs it


def matrix_spec(seed: int) -> experiment.ExperimentSpec:
    """The default ExperimentSpec scaled down about 25 times.

    The default takes about 195 s on 2 cores, longer than one benchmark
    run may last. The structure stays: 4 models, 8 conditions, 10 dev
    evals per model, CKA, and the model and optimiser settings. Training
    steps, warmup, the eval interval, and dev and test queries are
    scaled by 1/25, and the corpus by 1/4 in docs and queries (1/16 of
    the query-doc pairs the generator judges). With this corpus nearly
    every dev and test query fills its BM25 top-k, so the work varies
    little with the seed.
    """
    return experiment.ExperimentSpec(
        synthetic=corpus.SyntheticSpec(n_docs=2000, n_queries=200, seed=seed),
        train=T.TrainConfig(total_steps=80, warmup_steps=4, epoch_size=8),
        dev_queries=2,
        test_queries=2,
    )


def _dir_digest(root) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _failed_conditions(outdir, spec) -> set[str]:
    """Conditions of one matrix run whose outputs are missing or invalid."""
    failed = set()
    with open(os.path.join(outdir, "summary.tsv"), encoding="utf-8") as f:
        rows = [line.split("\t") for line in f.read().splitlines()[1:]]
    labelled = {experiment.parse_condition("/".join(r[:3])).label(): r for r in rows}
    for cond in spec.conditions:
        row = labelled.get(cond.label())
        if row is None or "failed" in row:
            failed.add(cond.label())
            _report(f"condition {cond.label()}", "no result in summary.tsv")
            continue
        try:
            corpus.load_run(os.path.join(outdir, "runs", f"{cond.label()}.run")).validate()
        except (OSError, ValueError) as exc:
            failed.add(cond.label())
            _report(f"condition {cond.label()}", exc)
    return failed


def run_matrix(seed, seconds, trace, scratch) -> Outcome:
    spec = matrix_spec(seed)
    outcome = Outcome()
    digests = set()
    walls_setup = []
    rerank_ms = []
    rerank_pairs = []
    ndcg = []
    raw_walls = []
    speed = Speed()

    def body(tracer):
        # a fresh directory each time: run_experiment reuses any model or
        # condition it finds on disk, which would time the cache-hit path
        outdir = tempfile.mkdtemp(prefix="matrix-", dir=scratch)
        inner = experiment.rerank_run
        # The run is cut into segments at the start of each model's
        # training and after a re-rank once MATRIX_CUT_S has passed. The
        # kernel is timed at each cut, outside the segments, and each
        # segment is scaled by the marks around it.
        segments = []      # (seconds, factor)
        open_lat = []      # re-rank latencies of the open segment, per query at rerank_k
        clock = [time.perf_counter()]

        def cut():
            seconds_ = time.perf_counter() - clock[0]
            factor = speed.mark()
            segments.append((seconds_, factor))
            if tracer is None:
                rerank_ms.extend(ms * factor for ms in open_lat)
            open_lat.clear()
            clock[0] = time.perf_counter()

        def log(message):
            if message.startswith("[experiment] training model"):
                cut()

        def timed_rerank(run, mdl, vocab, queries, collection, k, *args, **kwargs):
            # dev evals re-rank the top dev_rerank_k (50), conditions the top
            # rerank_k (100): a sample is the call's time per rerank_k pairs,
            # so both kinds of call measure the same thing
            t1 = time.perf_counter()
            out = inner(run, mdl, vocab, queries, collection, k, *args, **kwargs)
            elapsed = time.perf_counter() - t1
            pairs = sum(min(k, len(v)) for v in run.entries.values())
            open_lat.append(elapsed * 1e3 * spec.rerank_k / max(1, pairs))
            # a traced run is cut only between models, so that no kernel
            # time falls inside the train.dev_eval span
            if tracer is None:
                rerank_pairs.append(pairs)
                if time.perf_counter() - clock[0] >= MATRIX_CUT_S:
                    cut()
            return out

        experiment.rerank_run = timed_rerank
        clock[0] = time.perf_counter()
        try:
            results = experiment.run_experiment(spec, outdir, log=log)
        except Exception as exc:  # a failed matrix counts, the loop goes on
            results = None
            _report("run_experiment", exc)
        finally:
            experiment.rerank_run = inner
            cut()
        wall = sum(sec * factor for sec, factor in segments)
        if results is None:
            outcome.attempted += len(spec.conditions)
            outcome.failed += len(spec.conditions)
            shutil.rmtree(outdir, ignore_errors=True)
            return wall
        outcome.attempted += len(spec.conditions)
        outcome.failed += len(_failed_conditions(outdir, spec))
        digests.add(_dir_digest(outdir))
        shutil.rmtree(outdir, ignore_errors=True)
        if tracer is None:
            raw_walls.append(sum(sec for sec, _ in segments))
            walls_setup.append(segments[0][0] * segments[0][1])
            headline = results.get("learned_natural_natural")
            ndcg.append(headline.mean["ndcg@10"] if headline else float("nan"))
        return wall

    done = _repeats(body, seconds, trace, min_repeats=MIN_REPEATS)
    outcome.consistent = len(digests) == 1
    outcome.notes.append(f"{len(done)} matrix runs, output digest {'/'.join(sorted(digests))[:16]}, "
                         f"walls {' '.join(f'{w:.2f}' for w, _ in done)}")
    if trace:
        _layer_outcome(outcome, done, os.path.join(scratch, f"trace-matrix-{seed}.tsv"))
        return outcome
    walls = [w for w, _ in done]
    outcome.consistent = outcome.consistent and len(set(ndcg)) == 1
    outcome.ndcg10 = ndcg[0]
    outcome.metrics.update({
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(walls_setup), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "pairs_per_s": (sum(rerank_pairs) / sum(walls), "1/s"),
        "query_ms_p50": (statistics.median(rerank_ms), "ms"),
        "query_ms_p95": (_percentile(rerank_ms, 95), "ms"),
    })
    outcome.notes.append(f"{len(rerank_ms)} per-query re-rank latency samples")
    outcome.notes.append(_scaling_note(raw_walls, speed))
    return outcome


# ---------------------------------------------------------------------------
# rerank: inference only, one rerank_run call per query and mode


@dataclass
class RerankState:
    collection: corpus.Collection
    queries: corpus.QuerySet
    qrels: corpus.Qrels
    vocab: object
    first_stage: corpus.Run
    model: M.Model


def rerank_setup(seed, speed: Speed) -> tuple[RerankState, str, float]:
    """Build the state `rerank` serves; return it, its digest and the set-up time.

    The set-up time is the sum of its three phases (data, BM25, training),
    each scaled by the kernel marks around it.
    """
    scaled = 0.0
    t0 = time.perf_counter()

    def lap():
        nonlocal scaled, t0
        scaled += (time.perf_counter() - t0) * speed.mark()
        t0 = time.perf_counter()

    spec = corpus.SyntheticSpec(n_docs=RERANK_DOCS, n_queries=RERANK_QUERIES, seed=seed)
    collection, queries, qrels, triples = corpus.generate_synthetic(spec)
    lap()
    vocab = experiment._vocab_for(collection, queries)
    index = bm25.build_index(collection)
    first_stage = bm25.retrieve_run(index, queries, RERANK_K)
    lap()
    cfg = M.ModelConfig(vocab_size=len(vocab))
    tcfg = T.TrainConfig(total_steps=RERANK_TRAIN_STEPS, warmup_steps=10,
                         epoch_size=RERANK_TRAIN_STEPS)
    mdl, _ = T.train(M.init(cfg, 13), triples, tcfg, vocab)
    lap()
    digest = _digest(_run_digest(first_stage), vocab.tokens,
                     [(k, hashlib.sha256(v.tobytes()).hexdigest()) for k, v in sorted(mdl.params.items())])
    return RerankState(collection, queries, qrels, vocab, first_stage, mdl), digest, scaled


def _rerank_round(state: RerankState, round_index, outcome: Outcome, latencies):
    """Re-rank one round of queries under every mode.

    Returns the time spent in rerank_run and the outputs as
    (mode, qid, run) in call order.
    """
    qids = sorted(state.queries.entries)
    start = (round_index * ROUND_QUERIES) % len(qids)
    chunk = [qids[(start + i) % len(qids)] for i in range(ROUND_QUERIES)]
    spent = 0.0
    outputs = []
    for mode in RERANK_MODES:
        for qid in chunk:
            block = state.first_stage.entries[qid]
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                out = experiment.rerank_run(corpus.Run({qid: block}), state.model, state.vocab,
                                            state.queries, state.collection, RERANK_K, mode)
            except Exception as exc:  # a failed query counts, the loop goes on
                spent += time.perf_counter() - t0
                _fail(outcome, f"re-rank of {qid}", exc)
                continue
            elapsed = time.perf_counter() - t0
            spent += elapsed
            latencies.append(elapsed * 1e3)
            ranked = [e.doc_id for e in out.entries.get(qid, [])]
            if sorted(ranked) != sorted(e.doc_id for e in block[:RERANK_K]) or len(out.entries) != 1:
                _fail(outcome, f"re-rank of {qid}", "output is not a permutation of the BM25 top-k")
                continue
            outputs.append((perturb.format_mode(mode), qid, out))
    return spent, outputs


def _outputs_digest(outputs) -> str:
    return _digest([(mode, qid, _run_digest(run)) for mode, qid, run in outputs])


def run_rerank(seed, seconds, trace, scratch) -> Outcome:
    outcome = Outcome()
    setup_times, setup_digests = [], set()
    speed = Speed()
    for _ in range(MIN_REPEATS):
        state, digest, setup_s = rerank_setup(seed, speed)
        setup_times.append(setup_s)
        setup_digests.add(digest)

    # only digests and the headline run are kept, so the heap (and the
    # cost of garbage collection) does not grow with the number of rounds
    latencies, round_digests, headline = [], [], corpus.Run()
    pairs = [0]
    raw_walls = []

    def body(tracer):
        lat = []
        spent, outputs = _rerank_round(state, len(round_digests), outcome, lat)
        factor = speed.mark()
        if len(round_digests) < NDCG_ROUNDS:
            headline.entries.update((qid, run.entries[qid]) for mode, qid, run in outputs
                                    if mode == "natural")
        round_digests.append(_outputs_digest(outputs))
        if tracer is None:
            raw_walls.append(spent)
            latencies.extend(ms * factor for ms in lat)
            pairs[0] += sum(len(run.entries[qid]) for _, qid, run in outputs)
        return spent * factor

    done = _repeats(body, seconds, trace, min_repeats=NDCG_ROUNDS)

    # the first round again, untimed: its outputs must not change
    _, again = _rerank_round(state, 0, Outcome(), [])
    outcome.consistent = len(setup_digests) == 1 and _outputs_digest(again) == round_digests[0]
    outcome.notes.append(f"{len(done)} rounds of {ROUND_QUERIES} queries x {len(RERANK_MODES)} modes, "
                         f"first-round digest {round_digests[0][:16]}")
    if trace:
        _layer_outcome(outcome, done, os.path.join(scratch, f"trace-rerank-{seed}.tsv"))
        return outcome

    outcome.ndcg10 = metrics.evaluate(headline, state.qrels).mean["ndcg@10"]
    walls = [w for w, _ in done]
    outcome.metrics.update({
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "pairs_per_s": (pairs[0] / sum(walls), "1/s"),
        "query_ms_p50": (statistics.median(latencies), "ms"),
        "query_ms_p95": (_percentile(latencies, 95), "ms"),
    })
    outcome.notes.append(f"{len(latencies)} per-query re-rank latency samples")
    outcome.notes.append(_scaling_note(raw_walls, speed))
    return outcome


# ---------------------------------------------------------------------------
# corpus: data layers on the bigram_order rule, no model


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import orderlab.experiment; "
                 "print(time.perf_counter() - t)")


def _import_seconds(src) -> float:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def run_corpus(seed, seconds, trace, scratch, src) -> Outcome:
    outcome = Outcome()
    speed = Speed(PROBES)
    setup_times = [_import_seconds(src) * speed.mark() for _ in range(IMPORT_PROBES)]
    digests, latencies, ndcg, retrieved = set(), [], [], []
    raw_walls = []

    def body(tracer):
        spec = corpus.SyntheticSpec(relevance_rule="bigram_order", seed=seed)
        lat = []
        t0 = time.perf_counter()
        collection, queries, qrels, _ = corpus.generate_synthetic(spec)
        vocab = experiment._vocab_for(collection, queries)
        index = bm25.build_index(collection)
        run = corpus.Run()
        for qid in sorted(queries.entries):
            outcome.attempted += 1
            q0 = time.perf_counter()
            try:
                one = bm25.retrieve_run(index, corpus.QuerySet({qid: queries.entries[qid]}), CORPUS_K)
            except Exception as exc:  # a failed query counts, the loop goes on
                _fail(outcome, f"retrieval of {qid}", exc)
                continue
            lat.append((time.perf_counter() - q0) * 1e3)
            run.entries.update(one.entries)
        report = metrics.evaluate(run, qrels)
        wall = time.perf_counter() - t0
        factor = speed.mark()
        try:
            run.validate()
        except ValueError as exc:
            _fail(outcome, "merged BM25 run", exc)
        digests.add(_digest(_run_digest(run), vocab.tokens, sorted(qrels.grades.items()),
                            sorted(report.mean.items())))
        if tracer is None:
            raw_walls.append(wall)
            latencies.extend(ms * factor for ms in lat)
            ndcg.append(report.mean["ndcg@10"])
            retrieved.append(sum(len(v) for v in run.entries.values()))
        return wall * factor

    done = _repeats(body, seconds, trace, min_repeats=MIN_REPEATS)
    outcome.consistent = len(digests) == 1
    outcome.notes.append(f"{len(done)} pipelines, output digest {next(iter(digests))[:16]}")
    if trace:
        _layer_outcome(outcome, done, os.path.join(scratch, f"trace-corpus-{seed}.tsv"))
        return outcome
    outcome.consistent = outcome.consistent and len(set(ndcg)) == 1
    outcome.ndcg10 = ndcg[0]
    walls = [w for w, _ in done]
    outcome.metrics.update({
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "pairs_per_s": (sum(retrieved) / sum(walls), "1/s"),
        "query_ms_p50": (statistics.median(latencies), "ms"),
        "query_ms_p95": (_percentile(latencies, 95), "ms"),
    })
    outcome.notes.append(f"{len(latencies)} per-query retrieval latency samples")
    outcome.notes.append(_scaling_note(raw_walls, speed))
    return outcome
