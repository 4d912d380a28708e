"""Time the default `orderlab experiment` run on this tree and another, and check that both write the same bytes.

    python3 scripts/bench_e2e.py --parent TREE [--runs 3] [--out BENCH_e2e.json]

Run from the root of a source checkout. Every output is made as a
researcher makes it: `python -m orderlab.cli COMMAND ... --out DIR` in a
fresh process, with only the tree's `src/` on `PYTHONPATH`, one BLAS
thread (which the processes it forks to train inherit) and a fresh
directory as its working directory, so that nothing but that tree's
orderlab can be imported. A tree without `src/orderlab` is refused
before any process starts. A timed run is `orderlab experiment --out DIR`,
the default `ExperimentSpec()`, timed from the spawn of its process to
its exit, so the seconds include the interpreter's start and every
import. Its peak resident set is the one `os.wait4` reports: the
largest of the process and of the trainers it forked and waited for.
Runs alternate between the trees, this one first on odd runs, so that
the two trees' r-th runs run back to back and drift in the machine's
speed falls on both alike. Then each tree makes, untimed, the run
directories of `matrix_spec(1)` and `matrix_spec(7)` (from this
checkout's `perfbench/workloads.py`, written as config files for
`orderlab experiment --config`) and the directory of `orderlab generate`
with default flags and with `--rule bigram_order`.

Every file of an output, checkpoints and `config.txt` included, is
digested by sha256 after its process exits and before its directory is
removed. The script prints each output's file count and how many are
equal between the trees (for the default run, each tree's first), then
each file that differs between the trees or from its tree's first timed
run, and exits 1 if any does. It writes each tree's commit, each run's
seconds and peak resident set, the median, min and max seconds, the
change/parent ratio of each pair of r-th runs, the median of those
ratios as the change, and the machine (CPU, cores, Python, numpy,
scipy, BLAS). This checkout's entry is `change`, the other tree's
`parent`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench_run  # noqa: E402  (sets one BLAS thread before numpy loads)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from bench_step import _commit  # noqa: E402


def _outputs(config_dir: str) -> dict[str, list[str]]:
    """{output, by the table's name for it: the `orderlab` arguments that
    make it}. The first, the run directory of the default `ExperimentSpec()`,
    is the one timed. The matrix specs' configs are written under
    `config_dir` by this checkout's orderlab."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from orderlab import experiment

    outputs = {"default": ["experiment"]}
    for seed in (1, 7):
        path = os.path.join(config_dir, f"matrix_spec_{seed}.ini")
        with open(path, "w", encoding="utf-8") as f:
            f.write(experiment.resolved_config(workloads.matrix_spec(seed)))
        outputs[f"matrix_spec({seed})"] = ["experiment", "--config", path]
    outputs["generate"] = ["generate"]
    outputs["generate --rule bigram_order"] = ["generate", "--rule", "bigram_order"]
    return outputs


def _digests(root: str) -> dict[str, str]:
    """{path relative to `root`: sha256} of every file under `root`."""
    digests = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def _check_tree(tree: str):
    src = os.path.join(tree, "src", "orderlab")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        raise SystemExit(f"{tree}: no orderlab sources under {src}")


def _run(tree: str, args: list[str]) -> dict:
    """`orderlab ARGS --out DIR` with `tree`'s orderlab in a fresh process:
    its seconds from spawn to exit, its peak resident set and its digests."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryDirectory(prefix="bench-e2e-") as work:
        argv = [sys.executable, "-m", "orderlab.cli", *args, "--out", os.path.join(work, "out")]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: orderlab {' '.join(args)} exited with {proc.returncode}")
        return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "digests": _digests(os.path.join(work, "out"))}


def _differing(a: dict, b: dict) -> list[str]:
    """Each path of two digest maps whose files differ, or that one lacks."""
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="another source tree to time and compare against this one")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    trees = {"change": ROOT, "parent": os.path.abspath(args.parent)}
    for tree in trees.values():
        _check_tree(tree)
    with tempfile.TemporaryDirectory(prefix="bench-e2e-configs-") as config_dir:
        outputs = _outputs(config_dir)
        runs = {label: [] for label in trees}
        for r in range(args.runs):
            for label in (list(trees) if r % 2 == 0 else list(reversed(trees))):
                runs[label].append(_run(trees[label], outputs["default"]))
                print(f"run {r + 1} {label}: {runs[label][-1]['seconds']:.1f} s, "
                      f"peak {runs[label][-1]['peak_rss_mb']:.1f} MB", flush=True)
        digests = {"default": {label: runs[label][0]["digests"] for label in trees}}
        for output, command in outputs.items():
            if output != "default":
                digests[output] = {label: _run(tree, command)["digests"]
                                   for label, tree in trees.items()}
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

    entries = {}
    for label, tree in trees.items():
        seconds = [run["seconds"] for run in runs[label]]
        entries[label] = {"commit": _commit(tree),
                          "seconds": [round(s, 2) for s in seconds],
                          "median_s": round(statistics.median(seconds), 2),
                          "min_s": round(min(seconds), 2), "max_s": round(max(seconds), 2),
                          "peak_rss_mb": [round(run["peak_rss_mb"], 1) for run in runs[label]]}
    pair_ratios = [change["seconds"] / parent["seconds"]
                   for change, parent in zip(runs["change"], runs["parent"])]
    result = {
        "harness": "scripts/bench_e2e.py",
        "settings": {"spec": "ExperimentSpec()", "runs": args.runs, "blas_threads": 1,
                     "command": "python -m orderlab.cli experiment --out DIR"},
        "machine": perfbench_run.environment("as the tree's cli.main sets it"),
        "entries": entries,
        "pair_ratios": [round(ratio, 4) for ratio in pair_ratios],
        "change_over_parent": round(statistics.median(pair_ratios), 4),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print("\n".join(rows + differing))
    for label, entry in entries.items():
        print(f"{label}: median {entry['median_s']} s (min {entry['min_s']}, max "
              f"{entry['max_s']}); runs {entry['seconds']}; peak MB {entry['peak_rss_mb']}")
    print(f"change/parent: {result['change_over_parent']}, the median of the "
          f"pairs' ratios {result['pair_ratios']}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
