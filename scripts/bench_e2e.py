"""Time the default `orderlab experiment` run end to end, on this tree and another.

    python3 scripts/bench_e2e.py --parent TREE [--runs 3] [--out BENCH_e2e.json]

Run from the root of a source checkout. A run is
`experiment.run_experiment` at the default `ExperimentSpec()` into a
fresh directory, which is what `orderlab experiment` without a config
does, timed from the call to its return. Each run is a fresh process
that imports orderlab from one tree's `src/` and has one BLAS thread,
which the processes it forks to train inherit. glibc's allocator keeps
its defaults, as in a researcher's run. Runs alternate between the
trees, this one first on odd runs, so that drift in the machine's speed
falls on both alike. The output holds, for each tree, its commit, each
run's seconds and their median, the change/parent ratio of the medians,
and the machine (CPU, cores, Python, numpy, scipy and BLAS). This
checkout's entry is `change`, the other tree's `parent`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench_run  # noqa: E402  (sets one BLAS thread before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from bench_step import _commit  # noqa: E402


def _worker(tree: str) -> dict:
    """One timed default run with orderlab from `tree`."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from orderlab import experiment

    if not os.path.samefile(os.path.dirname(experiment.__file__),
                            os.path.join(tree, "src", "orderlab")):
        raise SystemExit(f"orderlab was imported from {experiment.__file__}, not {tree}")
    with tempfile.TemporaryDirectory(prefix="bench-e2e-") as out:
        t0 = time.perf_counter()
        experiment.run_experiment(experiment.ExperimentSpec(), out, log=lambda *a: None)
        seconds = time.perf_counter() - t0
    return {"seconds": seconds, "env": perfbench_run.environment("default")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="another source tree to time against this one")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.worker:
        print(json.dumps(_worker(args.worker)))
        return 0

    trees = {"change": ROOT, "parent": os.path.abspath(args.parent)}
    runs = {label: [] for label in trees}
    for r in range(args.runs):
        for label in (list(trees) if r % 2 == 0 else list(reversed(trees))):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--worker", trees[label],
                 "--parent", trees["parent"]],
                capture_output=True, text=True, check=True).stdout
            runs[label].append(json.loads(out.splitlines()[-1]))
            print(f"run {r + 1} {label}: {runs[label][-1]['seconds']:.1f} s", flush=True)

    entries = {label: {"commit": _commit(trees[label]),
                       "seconds": [round(run["seconds"], 2) for run in runs[label]],
                       "median_s": round(statistics.median(run["seconds"]
                                                           for run in runs[label]), 2)}
               for label in trees}
    result = {
        "harness": "scripts/bench_e2e.py",
        "settings": {"spec": "ExperimentSpec()", "runs": args.runs, "blas_threads": 1},
        "machine": runs["change"][0]["env"],
        "entries": entries,
        "change_over_parent": round(entries["change"]["median_s"]
                                    / entries["parent"]["median_s"], 4),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    for label, entry in entries.items():
        print(f"{label}: median {entry['median_s']} s of {entry['seconds']}")
    print(f"change/parent: {result['change_over_parent']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
