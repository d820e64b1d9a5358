"""Record the traced runs' layer shares beside the predictions.

Runs ``run.py --trace 1`` once per workload and writes ``perfbench/shares.json``:
the host fingerprint, the seed and run length, each workload's rationale
(from ``BENCHMARK.json``), and for every layer the end-to-end figure it
should move with its predicted and measured share of the wall time.

Run from the repository root::

    python3 perfbench/record.py --seed 1 --seconds 15
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    host = json.loads(lines[0].removeprefix("host "))
    return {"host": host, "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import layers

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    record: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        run = traced_run(name, args.seed, args.seconds)
        record["host"] = run["host"]
        values = {k: v["value"] for k, v in run["result"]["metrics"].items()}
        measured = layers.shares(values)
        rows = {}
        for layer in layers.LAYERS:
            moves, predicted = layers.PREDICTIONS.get(layer, {}).get(name, ("", 0.0))
            rows[layer] = {
                "moves": moves,
                "predicted_share": predicted,
                "measured_share": round(measured[layer], 4),
                "self_s": round(values[f"{layer}.self_s"], 4),
            }
        record["workloads"][name] = {
            "why": workload["why"],
            "traced_wall_s": round(values["trace.wall_s"], 3),
            "trace_overhead_frac": round(values["trace.overhead_frac"], 4),
            "other_share": round(measured["other"], 4),
            "dominant_layer": max(layers.LAYERS, key=measured.get),
            "layers": rows,
        }
    with open(os.path.join(HERE, "shares.json"), "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
