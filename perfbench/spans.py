"""In-memory span tracing around the public functions of the orderlab modules.

Spans are recorded from outside the program: `Tracer.patched()` replaces
each traced function with a wrapper at every module attribute the
program calls it through, and restores the originals on exit. A span is
(name, start, end, parent, items); `items` is the layer's unit of work
(pairs scored, queries retrieved or re-ranked), 1 where there is none.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import statistics
import time

from orderlab import bm25, cka, corpus, experiment, metrics, perturb, tokenizer
from orderlab import model as M
from orderlab import train as T


def _one(args, kwargs):
    return 1


def _pairs(args, kwargs):
    return len(args[1])


def _queries(args, kwargs):
    return len(args[1].entries)


def _run_queries(args, kwargs):
    return len(args[0].entries)


# span name -> (where the program looks the function up, items per call)
TARGETS = {
    "tokenizer.encode_pair": ([(tokenizer, "encode_pair"), (experiment, "encode_pair"),
                               (T, "encode_pair")], _one),
    "model.forward": ([(M, "forward")], _pairs),
    "model.loss_and_grads": ([(M, "loss_and_grads")], _pairs),
    "perturb.apply": ([(perturb, "apply")], _one),
    "train.train": ([(T, "train")], _one),
    "experiment.rerank_run": ([(experiment, "rerank_run")], _run_queries),
    "cka.compare": ([(cka, "compare")], _one),
    "metrics.evaluate": ([(metrics, "evaluate")], _one),
    "bm25.build_index": ([(bm25, "build_index")], _one),
    "bm25.retrieve_run": ([(bm25, "retrieve_run")], _queries),
    "corpus.generate_synthetic": ([(corpus, "generate_synthetic"),
                                   (experiment, "generate_synthetic")], _one),
    "tokenizer.build_vocab": ([(experiment, "_vocab_for")], _one),
}


class Tracer:
    """Records spans for one repeat of a workload's timed body."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, items]
        self._stack: list[int] = []
        self.encoded_texts: set[tuple[str, str]] = set()

    def _wrap(self, name, fn, items):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    items(args, kwargs)]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _wrap_encode(self, fn):
        traced = self._wrap("tokenizer.encode_pair", fn, _one)

        def encode_pair(query_text, passage_text, *args, **kwargs):
            self.encoded_texts.add((query_text, passage_text))
            return traced(query_text, passage_text, *args, **kwargs)
        return encode_pair

    def _wrap_train(self, fn):
        traced = self._wrap("train.train", fn, _one)

        def train(*args, eval_hook=None, **kwargs):
            if eval_hook is not None:
                eval_hook = self._wrap("train.dev_eval", eval_hook, _one)
            return traced(*args, eval_hook=eval_hook, **kwargs)
        return train

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for name, (sites, items) in TARGETS.items():
                original = getattr(*sites[0])
                if name == "tokenizer.encode_pair":
                    wrapper = self._wrap_encode(original)
                elif name == "train.train":
                    wrapper = self._wrap_train(original)
                else:
                    wrapper = self._wrap(name, original, items)
                for module, attr in sites:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals, counts and ratios of this repeat, with units."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = {}
        self_time = {}
        calls = {}
        items = {}
        durations = {}
        for (name, start, end, _, n), covered in zip(self.spans, child_time):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1
            items[name] = items.get(name, 0) + n
            durations.setdefault(name, []).append(end - start)

        def s(name):
            return total.get(name, 0.0)

        fwd_pairs = items.get("model.forward", 0)
        encodes = calls.get("tokenizer.encode_pair", 0)
        steps = durations.get("model.loss_and_grads", [])
        return {
            "model.loss_and_grads_s": (s("model.loss_and_grads"), "s"),
            "model.loss_and_grads_calls": (calls.get("model.loss_and_grads", 0), "count"),
            "model.step_ms_p50": (statistics.median(steps) * 1e3 if steps else 0.0, "ms"),
            "model.forward_s": (s("model.forward"), "s"),
            "model.forward_calls": (calls.get("model.forward", 0), "count"),
            "model.forward_pairs": (fwd_pairs, "count"),
            "model.forward_us_per_pair": (s("model.forward") / fwd_pairs * 1e6 if fwd_pairs else 0.0, "us"),
            "train.self_s": (self_time.get("train.train", 0.0), "s"),
            "train.dev_eval_s": (s("train.dev_eval"), "s"),
            "perturb.apply_s": (s("perturb.apply"), "s"),
            "perturb.apply_calls": (calls.get("perturb.apply", 0), "count"),
            "tokenizer.encode_s": (s("tokenizer.encode_pair"), "s"),
            "tokenizer.encode_calls": (encodes, "count"),
            "tokenizer.encode_unique_ratio": (len(self.encoded_texts) / encodes if encodes else 0.0, "1"),
            "tokenizer.build_vocab_s": (s("tokenizer.build_vocab"), "s"),
            "corpus.generate_s": (s("corpus.generate_synthetic"), "s"),
            "bm25.build_index_s": (s("bm25.build_index"), "s"),
            "bm25.retrieve_s": (s("bm25.retrieve_run"), "s"),
            "bm25.retrieve_queries": (items.get("bm25.retrieve_run", 0), "count"),
            "experiment.rerank_s": (s("experiment.rerank_run"), "s"),
            "experiment.rerank_self_s": (self_time.get("experiment.rerank_run", 0.0), "s"),
            "experiment.rerank_queries": (items.get("experiment.rerank_run", 0), "count"),
            "metrics.evaluate_s": (s("metrics.evaluate"), "s"),
            "cka.compare_s": (s("cka.compare"), "s"),
        }

    def span_lines(self):
        """The spans as TSV lines: index, name, start, end, parent index, items."""
        for i, (name, start, end, parent, n) in enumerate(self.spans):
            yield f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{n}"
