"""Time one training step, one scoring batch, one dev eval and the data stage of orderlab.

    python3 scripts/bench_step.py --parent TREE [--rounds 6] [--out BENCH_step.json]

Run from the root of a source checkout. It times, per call, the
encoder's hot entry points on pairs of the benchmark's `matrix` corpus
(`perfbench/workloads.matrix_spec`, seed 1) at its model settings:

- `loss_and_grads`: `model.loss_and_grads` at batch 16, one training
  step's forward and backward without the Adam update;
- `forward`: `model.forward` at batch 64, one scoring batch;
- `rerank_eval`: one dev-eval-shaped `experiment.rerank_run`, the spec's
  2 dev queries x their BM25 top 50 under `shuffle:13`, through a run
  memo (`tokenizer.PairMemo`) that earlier calls have filled, as the
  second and later dev evals of a training run find it;
- `data_stage`: what a run does before any model, on the same spec:
  `experiment.run_experiment` in a fresh directory, from its start to
  its first `[experiment] training model` log, the segment the
  benchmark's `matrix` `setup_s` times. It runs whatever the tree's
  runner does there, so both trees are timed on their own code.

Each round times 200 calls of each of the first three, and 10 of the
data stage (one takes about 0.2 s), after a few untimed ones, in a
fresh process per source tree, with one BLAS thread and glibc's
allocator pinned as `perfbench/run.py` does. Every call's time is
scaled, as the benchmark's are, by the calibration kernel
(`perfbench/calibrate.py`, median of 3 runs). The kernel is timed
after the untimed calls and then after every `mark_every` timed calls
of the entry (`TIMED`): every 50 calls of the first three, every call
of the data stage. Each block of calls is scaled by the marks around
it: `time * REF_S / mean of the two kernel times`, so that the
machine's drift within a round, as well as between rounds, is divided
out. The output keeps each round's factors, one per block. `--parent TREE` is another
checkout, such as the parent commit; rounds alternate between that tree
and this one, first one then the other, so that drift in the machine's
speed falls on both alike. The output holds, for each tree, its commit,
the median and quartiles of every timed call and the median of each
round, and the machine. This checkout's entry is `change`, the other
tree's `parent`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench_run  # noqa: E402  (sets one BLAS thread before numpy loads)
import calibrate  # noqa: E402

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

STEP_BATCH, SCORE_BATCH = 16, 64
SEED, EVAL_SEED = 1, 13  # matrix corpus seed; the dev evals' shuffle:13
# timed calls a round, untimed ones before them, and timed calls between two kernel marks
KERNEL_CALLS = {"calls_per_round": 200, "warmup_calls": 10, "mark_every": 50}
# each timed call, what one call does, and how often it runs a round
TIMED = {"loss_and_grads_ms": {"batch": STEP_BATCH, **KERNEL_CALLS},
         "forward_ms": {"batch": SCORE_BATCH, **KERNEL_CALLS},
         "rerank_eval_ms": {"queries": 2, "top_k": 50, "mode": f"shuffle:{EVAL_SEED}",
                            **KERNEL_CALLS},
         "data_stage_ms": {"spec": "matrix_spec(1)", "until": "first model's training",
                           "calls_per_round": 10, "warmup_calls": 1, "mark_every": 1}}


class _FirstModel(Exception):
    """Raised by the data stage's log when the run starts its first model."""


def _stop_at_first_model(message):
    if message.startswith("[experiment] training model"):
        raise _FirstModel


def _worker(tree: str) -> dict:
    """Time each entry point's calls with orderlab from `tree`."""
    malloc = perfbench_run.pin_allocator()
    sys.path.insert(0, os.path.join(tree, "src"))
    from dataclasses import replace

    import numpy as np
    import workloads
    from orderlab import bm25, corpus, experiment, perturb, tokenizer
    from orderlab import model as M

    spec = workloads.matrix_spec(SEED)
    collection, queries, _, triples = corpus.generate_synthetic(spec.synthetic)
    vocab = experiment._vocab_for(collection, queries)  # the experiment's own sizing
    cfg = replace(spec.model, vocab_size=len(vocab))
    mdl = M.init(cfg, spec.seed)
    pairs = [tokenizer.encode_pair(q, doc, vocab, cfg.max_len)
             for q, pos, neg in triples for doc in (pos, neg)]
    labels = [1, 0] * (len(pairs) // 2)
    grads = {name: np.zeros_like(p) for name, p in mdl.params.items()}
    _, dev_ids, _ = experiment._split_queries(queries, spec.dev_queries, spec.test_queries)
    dev_k = experiment.DEV_RERANK_K
    dev_run = bm25.retrieve_run(bm25.build_index(collection),
                                experiment._subset(queries, dev_ids), dev_k)
    memo = tokenizer.PairMemo(vocab, cfg.max_len)
    speed = calibrate.Speed(probes=3)

    def batches(size):
        start = 0
        while True:
            if start + size > len(pairs):
                start = 0
            yield pairs[start:start + size], labels[start:start + size]
            start += size

    kernel_factors = {}

    def timed(key, call, feed=itertools.repeat(())):
        warmup, calls, every = (TIMED[key][k] for k in ("warmup_calls", "calls_per_round",
                                                        "mark_every"))
        for _ in range(warmup):
            call(*next(feed))
        speed.mark()  # opens the first block
        times, factors = [], []
        for start in range(0, calls, every):
            block = []
            for _ in range(min(every, calls - start)):
                args = next(feed)
                t0 = time.perf_counter()
                call(*args)
                block.append((time.perf_counter() - t0) * 1e3)
            factor = speed.mark()
            factors.append(round(factor, 4))
            times.extend(t * factor for t in block)
        kernel_factors[key] = factors
        return times

    def mean_padded_len(size):
        warmup, calls = KERNEL_CALLS["warmup_calls"], KERNEL_CALLS["calls_per_round"]
        timed_batches = itertools.islice(batches(size), warmup, warmup + calls)
        return statistics.mean(max(len(p.ids) for p in b) for b, _ in timed_batches)

    def fresh_dirs(root):
        # made and removed between calls, outside the timed part
        while True:
            outdir = tempfile.mkdtemp(dir=root)
            yield (outdir,)
            shutil.rmtree(outdir)

    def data_stage(outdir):
        try:
            experiment.run_experiment(spec, outdir, log=_stop_at_first_model)
        except _FirstModel:
            return
        raise RuntimeError("the data stage trained no model")

    mode = perturb.shuffle_mode(EVAL_SEED)
    result = {"env": perfbench_run.environment(malloc),
              "loss_and_grads_ms": timed("loss_and_grads_ms", lambda b, y: M.loss_and_grads(
                  mdl, b, y, grads=grads), batches(STEP_BATCH)),
              "forward_ms": timed("forward_ms", lambda b, y: M.forward(mdl, b),
                                  batches(SCORE_BATCH)),
              "rerank_eval_ms": timed("rerank_eval_ms", lambda: experiment.rerank_run(
                  dev_run, mdl, vocab, queries, collection, dev_k, mode,
                  tag="dev", memo=memo))}
    with tempfile.TemporaryDirectory(prefix="bench-step-") as root:
        result["data_stage_ms"] = timed("data_stage_ms", data_stage, fresh_dirs(root))
    result["kernel_factors"] = kernel_factors
    result["mean_padded_len"] = {"loss_and_grads": mean_padded_len(STEP_BATCH),
                                 "forward": mean_padded_len(SCORE_BATCH)}
    return result


def _commit(tree: str) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src")
        return head + (" with uncommitted changes to src/" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def _summary(times: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(times)}


def _entry(tree: str, rounds: list[dict]) -> dict:
    entry = {"commit": _commit(tree)}
    for key in TIMED:
        every = [t for r in rounds for t in r[key]]
        entry[key] = dict(_summary(every), **TIMED[key],
                          round_medians=[round(statistics.median(r[key]), 4) for r in rounds])
    entry["forward_us_per_pair"] = round(entry["forward_ms"]["median"] * 1e3 / SCORE_BATCH, 2)
    entry["kernel_factors"] = [r["kernel_factors"] for r in rounds]
    entry["mean_padded_len"] = rounds[0]["mean_padded_len"]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="another source tree to time against this one")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_step.json"))
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.worker:
        print(json.dumps(_worker(args.worker)))
        return 0

    trees = {"change": ROOT, "parent": os.path.abspath(args.parent)}
    rounds = {label: [] for label in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for label in order:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--worker", trees[label],
                 "--parent", trees["parent"]],
                capture_output=True, text=True, check=True).stdout
            rounds[label].append(json.loads(out.splitlines()[-1]))
            med = statistics.median(rounds[label][-1]["loss_and_grads_ms"])
            print(f"round {r + 1} {label}: loss_and_grads median {med:.3f} ms", flush=True)

    result = {
        "harness": "scripts/bench_step.py",
        "settings": {"seed": SEED, "rounds": args.rounds,
                     "corpus": "perfbench/workloads.matrix_spec",
                     "scaled_to_kernel_s": calibrate.REF_S},
        "machine": rounds["change"][0]["env"],
        "entries": {label: _entry(trees[label], rounds[label]) for label in trees},
    }
    result["change_over_parent"] = {
        key: round(result["entries"]["change"][key]["median"]
                   / result["entries"]["parent"][key]["median"], 4)
        for key in TIMED}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    for label, entry in result["entries"].items():
        print(f"{label}: loss_and_grads {entry['loss_and_grads_ms']['median']} ms, "
              f"forward {entry['forward_ms']['median']} ms "
              f"({entry['forward_us_per_pair']} us/pair), "
              f"rerank_eval {entry['rerank_eval_ms']['median']} ms, "
              f"data_stage {entry['data_stage_ms']['median']} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
