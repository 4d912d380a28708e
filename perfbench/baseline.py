"""Run every workload untraced and traced, print the metrics, and record them.

    python3 perfbench/baseline.py [--seed N] [--seconds S]

Each workload runs in its own `perfbench/run.py` process, first untraced
(end-to-end metrics) and then traced (per-layer metrics). The results
and the machine they ran on are written to perfbench/baseline.json,
marking which workloads BENCHMARK.json gates. The exit code is 1 if any
run reports incorrect outputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("matrix", "rerank", "corpus")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("# env "))[len("# env "):])
    return env, lines, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    gated = {w["name"] for w in bench["workloads"]}
    record = {"seed": args.seed, "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = {"gated": name in gated}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            print(f"== {name} trace={trace}", flush=True)
            env, lines, result = run(name, args.seed, args.seconds, trace)
            record["environment"] = env
            ok = ok and result["correct"]
            entry[key] = {m: v["value"] for m, v in result["metrics"].items()}
            if trace == 0:
                entry["attempted"], entry["failed"] = result["attempted"], result["failed"]
                entry["ndcg10"] = float(next(line.split()[1] for line in lines
                                             if line.startswith("ndcg10 ")))
        record["workloads"][name] = entry
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
