"""Check that another source tree writes the same bytes as this one.

    python3 scripts/same_bytes.py --parent TREE

Run from the root of a source checkout. Each output below is made once
per tree, each time in a fresh process that imports orderlab from that
tree's `src/` and runs with one BLAS thread:

- the run directory of `experiment.run_experiment` at the default
  `ExperimentSpec()` (about two minutes a tree on 2 cores), and at the
  benchmark's `matrix_spec(1)` and `matrix_spec(7)` (imported from this
  checkout's `perfbench/workloads.py`);
- the directory of `orderlab generate` with default flags, and with
  `--rule bigram_order`.

Every file of an output is compared by sha256, checkpoints and
`config.txt` included. It prints a table of each output's file count
and how many files are equal, then each file that differs or that only
one tree wrote, and exits 1 if there is any.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# each output's worker name and its row label
OUTPUTS = {
    "default": "run directory of the default `ExperimentSpec()`",
    "matrix_spec(1)": "run directory of `matrix_spec(1)`",
    "matrix_spec(7)": "run directory of `matrix_spec(7)`",
    "generate": "`orderlab generate`, default flags",
    "generate --rule bigram_order": "`orderlab generate --rule bigram_order`",
}


def _make(tree: str, output: str, out: str):
    """Write `output` to `out` with orderlab from `tree`."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(ROOT, "perfbench")]
    import workloads
    from orderlab import cli, experiment

    if not os.path.samefile(os.path.dirname(experiment.__file__),
                            os.path.join(tree, "src", "orderlab")):
        raise SystemExit(f"orderlab was imported from {experiment.__file__}, not {tree}")
    if output.startswith("generate"):
        if cli.main([*output.split(), "--out", out]) != 0:
            raise SystemExit(f"orderlab {output} failed")
        return
    spec = (experiment.ExperimentSpec() if output == "default"
            else workloads.matrix_spec(int(output[len("matrix_spec("):-1])))
    experiment.run_experiment(spec, out, log=lambda *a: None)


def _digests(root: str) -> dict[str, str]:
    """{path relative to `root`: sha256} of every file under `root`."""
    digests = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="another source tree to compare")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _make(*args.worker)
        return 0

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    rows, differing = [], []
    with tempfile.TemporaryDirectory() as scratch:
        for n, output in enumerate(OUTPUTS):
            digests = {}
            for label, tree in trees.items():
                out = os.path.join(scratch, f"{n}_{label}")
                t0 = time.perf_counter()
                subprocess.run([sys.executable, os.path.abspath(__file__), "--parent", tree,
                                "--worker", tree, output, out],
                               env=env, stdout=subprocess.DEVNULL, check=True)
                print(f"made {output} on {label} in {time.perf_counter() - t0:.1f} s",
                      file=sys.stderr, flush=True)
                digests[label] = _digests(out)
            parent, change = digests["parent"], digests["change"]
            paths = sorted(set(parent) | set(change))
            equal = sum(parent.get(p) == change.get(p) for p in paths)
            rows.append(f"| {OUTPUTS[output]} | {len(paths)} | {equal} |")
            differing.extend(f"{output}: {p} (parent {parent.get(p, 'missing')[:12]}, "
                             f"change {change.get(p, 'missing')[:12]})"
                             for p in paths if parent.get(p) != change.get(p))
    print("| output | files | equal |\n|---|---|---|")
    print("\n".join(rows))
    for line in differing:
        print(f"differs: {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
