"""Run one orderlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload matrix|rerank|corpus --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/`. With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run. The lines before it repeat the metrics as a
table and record the machine. The exit code is 0 once a result is
printed, even if it is marked incorrect.
"""

import ctypes
import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def pin_allocator() -> str:
    """Serve every allocation from glibc's heap and never give it back.

    By default glibc maps a large block (numpy's batch temporaries) with
    fresh pages and moves that threshold with the process's history of
    frees. The same re-rank round then took 130,000 to 155,000 page
    faults and 1.2 to 1.5 s, depending on the process. Pinned, it takes
    none. Returns what was set, for the environment record.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return "default (no glibc mallopt)"
    m_trim_threshold, m_mmap_threshold, size = -1, -3, 1 << 30
    if mallopt(m_mmap_threshold, size) and mallopt(m_trim_threshold, size):
        return f"glibc mmap and trim thresholds {size}"
    return "default (mallopt refused)"


def environment(malloc: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "malloc": malloc,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("matrix", "rerank", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    malloc = pin_allocator()  # before numpy allocates anything

    if not os.path.isfile(os.path.join(SRC, "orderlab", "__init__.py")):
        print(f"perfbench: no orderlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import orderlab
    if os.path.dirname(os.path.abspath(orderlab.__file__)) != os.path.join(SRC, "orderlab"):
        print(f"perfbench: orderlab imported from {orderlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT, exist_ok=True)
    print("# env " + json.dumps(environment(malloc), sort_keys=True))
    if args.workload == "corpus":
        outcome = workloads.run_corpus(args.seed, args.seconds, args.trace, OUT, SRC)
    else:
        run = workloads.run_matrix if args.workload == "matrix" else workloads.run_rerank
        outcome = run(args.seed, args.seconds, args.trace, OUT)

    for note in outcome.notes:
        print(f"# {note}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{'failed_ratio':32s} {ratio:14.6g} 1  ({outcome.failed}/{outcome.attempted})")
    if not args.trace:
        print(f"{'ndcg10':32s} {outcome.ndcg10:14.6g} 1")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    result = {
        "correct": outcome.consistent and outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
