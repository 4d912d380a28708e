"""Time the default `orderlab experiment` run on this tree and another, and check that both write the same bytes.

    python3 scripts/bench_e2e.py --parent TREE [--runs 3] [--out BENCH_e2e.json]

Run from the root of a source checkout. Every output is made in a fresh
process that imports orderlab from one tree's `src/`, with one BLAS
thread (which the processes it forks to train inherit) and glibc's
default allocator, as in a researcher's run. A timed run is
`experiment.run_experiment` at the default `ExperimentSpec()` into a
fresh directory, which is what `orderlab experiment` without a config
does, timed from the call to its return. Its seconds are scaled, as the
benchmark's are, by the calibration kernel (`perfbench/calibrate.py`,
median of 3 runs), timed in the run's process just before the clock
starts and just after it stops: scaled = seconds * REF_S / the mean of
the two kernel times. Runs alternate between the trees, this one first
on odd runs, so that drift in the machine's speed falls on both alike.
Then each tree makes, untimed, the run directories of `matrix_spec(1)`
and `matrix_spec(7)` (from this checkout's `perfbench/workloads.py`)
and the directory of `orderlab generate` with default flags and with
`--rule bigram_order`.

Every file of an output, checkpoints and `config.txt` included, is
digested by sha256 before its directory is removed. The script prints
each output's file count and how many are equal between the trees (for
the default run, each tree's first), then each file that differs
between the trees or from its tree's first timed run, and exits 1 if
any does. It writes each tree's commit, each run's raw seconds and
kernel factor, the median of the scaled seconds, the change/parent ratio
of those medians, and the machine (CPU, cores, Python, numpy, scipy,
BLAS). This checkout's entry is `change`, the other tree's `parent`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench_run  # noqa: E402  (sets one BLAS thread before numpy loads)
import calibrate  # noqa: E402

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from bench_step import _commit, _from_worker, _import_orderlab  # noqa: E402

# the outputs, by the table's names for them; the first, the run directory
# of the default `ExperimentSpec()`, is the one timed
OUTPUTS = ("default", "matrix_spec(1)", "matrix_spec(7)", "generate",
           "generate --rule bigram_order")


def _digests(root: str) -> dict[str, str]:
    """{path relative to `root`: sha256} of every file under `root`."""
    digests = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def _worker(tree: str, output: str) -> dict:
    """Make `output` with orderlab from `tree`; its seconds, the kernel
    factor that scales them and its digests."""
    _import_orderlab(tree)
    import workloads
    from orderlab import cli, experiment

    with tempfile.TemporaryDirectory(prefix="bench-e2e-") as out:
        speed = calibrate.Speed(probes=3)
        t0 = time.perf_counter()
        if output.startswith("generate"):
            if cli.main([*output.split(), "--out", out]) != 0:
                raise SystemExit(f"orderlab {output} failed")
        else:
            spec = (experiment.ExperimentSpec() if output == "default"
                    else workloads.matrix_spec(int(output[len("matrix_spec("):-1])))
            experiment.run_experiment(spec, out, log=lambda *a: None)
        seconds = time.perf_counter() - t0
        factor = speed.mark()
        return {"seconds": seconds, "factor": factor, "digests": _digests(out),
                "env": perfbench_run.environment("default")}


def _differing(a: dict, b: dict) -> list[str]:
    """Each path of two digest maps whose files differ, or that one lacks."""
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="another source tree to time and compare against this one")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.worker:
        print(json.dumps(_worker(*args.worker)))
        return 0

    trees = {"change": ROOT, "parent": os.path.abspath(args.parent)}
    runs = {label: [] for label in trees}
    for r in range(args.runs):
        for label in (list(trees) if r % 2 == 0 else list(reversed(trees))):
            runs[label].append(_from_worker(__file__, trees[label], trees["parent"], "default"))
            run = runs[label][-1]
            print(f"run {r + 1} {label}: {run['seconds']:.1f} s, "
                  f"{run['seconds'] * run['factor']:.1f} s scaled", flush=True)
    digests = {"default": {label: runs[label][0]["digests"] for label in trees}}
    for output in OUTPUTS[1:]:
        digests[output] = {label: _from_worker(__file__, trees[label], trees["parent"],
                                               output)["digests"] for label in trees}
        print(f"made {output}", flush=True)

    rows, differing = ["| output | files | equal |", "|---|---|---|"], []
    for output, made in digests.items():
        files = len(made["parent"].keys() | made["change"].keys())
        diffs = _differing(made["parent"], made["change"])
        rows.append(f"| {output} | {files} | {files - len(diffs)} |")
        differing += [f"differs between the trees: {output}: {p}" for p in diffs]
    for label in trees:
        for r, run in enumerate(runs[label][1:], start=2):
            differing += [f"differs from run 1: default run {r} on {label}: {p}"
                          for p in _differing(runs[label][0]["digests"], run["digests"])]

    entries = {label: {"commit": _commit(trees[label]),
                       "seconds": [round(run["seconds"], 2) for run in runs[label]],
                       "factors": [round(run["factor"], 4) for run in runs[label]],
                       "median_scaled_s": round(statistics.median(
                           run["seconds"] * run["factor"] for run in runs[label]), 2)}
               for label in trees}
    result = {
        "harness": "scripts/bench_e2e.py",
        "settings": {"spec": "ExperimentSpec()", "runs": args.runs, "blas_threads": 1,
                     "scaled_to_kernel_s": calibrate.REF_S},
        "machine": runs["change"][0]["env"],
        "entries": entries,
        "change_over_parent": round(entries["change"]["median_scaled_s"]
                                    / entries["parent"]["median_scaled_s"], 4),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print("\n".join(rows + differing))
    for label, entry in entries.items():
        print(f"{label}: median {entry['median_scaled_s']} s scaled; raw {entry['seconds']}, "
              f"factors {entry['factors']}")
    print(f"change/parent: {result['change_over_parent']}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
