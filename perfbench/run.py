"""Full-stack benchmark: verified sessions, fleet ledger and WAN campaigns.

Run from the repository root::

    python3 perfbench/run.py --workload session_short --seed 1 --seconds 15 --trace 0

Workloads: ``session_short``, ``session_long``, ``fleet_loadgen``,
``wan_campaign`` (see ``perfbench/workloads.py``). Each invocation runs
one workload in a fresh process.

With ``--trace 0`` the run sets the workload up several times (all but
once in child processes, so every set-up starts with cold process-wide
caches), runs the timed loop for ``--seconds``, checks the outputs and
prints the end-to-end metrics. With ``--trace 1`` a child process sets up and runs
the loop untraced for half the time; then this process, with cold caches,
sets up and runs the same amount of work with every layer wrapped by
``perfbench/tracer.py``, and prints the per-layer metrics; spans go to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
When a check fails the command prints no result and exits with 1; when
the program cannot be imported it exits with 2. ``--smoke`` shrinks every
workload for tests, and ``--tamper`` corrupts the run's own output before
the checks, to show that they catch it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("session_short", "session_long", "fleet_loadgen", "wan_campaign")
CHILD_TIMEOUT_S = 120


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload (for tests)")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt the run's output before the checks")
    parser.add_argument("--child", choices=("setup", "reference"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def host_fingerprint() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cryptography_importable": importlib.util.find_spec("cryptography") is not None,
    }


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_setup(workload, seed: int, seconds: int):
    started = time.perf_counter()
    state = workload.setup(seed, seconds)
    return state, time.perf_counter() - started


def child(args: argparse.Namespace, kind: str) -> dict:
    """Run ``kind`` (see :func:`child_main`) in a fresh process, so that
    it starts with cold process-wide caches; its JSON report."""
    from perfbench.workloads import CheckFailed

    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--child", kind,
    ]
    command += ["--smoke"] * args.smoke + ["--tamper"] * args.tamper
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise CheckFailed(f"{kind} child process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(args, workload) -> dict:
    """``setup``: set the workload up once. ``reference``: set it up and
    run the loop untraced for half of ``--seconds``, for the traced run
    to compare with."""
    state, setup_s = timed_setup(workload, args.seed, args.seconds)
    if args.child == "setup":
        return {"setup_s": setup_s, "digests": workload.setup_digests(state)}
    plain = workload.run(state, args.seconds / 2)
    workload.gate(state, plain)
    return {
        "wall_s": plain.wall_s,
        "repeats": plain.repeats,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "digests": plain.digests,
    }


def untraced(args, workload) -> dict:
    from perfbench.workloads import CheckFailed

    # All set-ups but the last run in child processes, so each one starts
    # with cold process-wide caches; setup_s is their median.
    repeats = 2 if args.smoke else workload.setup_repeats
    probes = [child(args, "setup") for _ in range(repeats - 1)]
    state, setup_s = timed_setup(workload, args.seed, args.seconds)
    digests = workload.setup_digests(state)
    for probe in probes:
        if probe["digests"] != digests:
            raise CheckFailed(
                f"same-seed set-ups differ across processes: "
                f"{probe['digests']} vs {digests}"
            )
    result = workload.run(state, args.seconds)
    workload.gate(state, result)
    result.checks.append(
        f"{len(probes) + 1} same-seed set-ups agree across processes"
    )
    setups = [probe["setup_s"] for probe in probes] + [setup_s]
    rss = result.peak_rss_mb

    lines = [f"{workload.name} seed={args.seed} {result.attempted} {workload.op}s"]
    rate_name = "episodes_per_s" if workload.op == "episode" else "sessions_per_s"
    lines.append(f"  {rate_name:<24} {result.ops_per_s:12.3f} {workload.op}s/s")
    if result.latencies_s:
        n = len(result.latencies_s)
        beyond = n - math.ceil(0.9 * n)
        lines.append(f"  {'session_p50_ms':<24} "
                     f"{statistics.median(result.latencies_s) * 1e3:12.3f} ms (n={n})")
        lines.append(f"  {'session_p90_ms':<24} "
                     f"{percentile(result.latencies_s, 0.9) * 1e3:12.3f} ms "
                     f"(n={n}, {beyond} beyond)")
    if result.verify_tx_per_s:
        lines.append(f"  {'chain_verify_tx_per_s':<24} "
                     f"{statistics.median(result.verify_tx_per_s):12.1f} tx/s "
                     f"(median of {len(result.verify_tx_per_s)})")
    lines.append(f"  {'setup_s':<24} {statistics.median(setups):12.4f} s "
                 f"(median of {[round(s, 4) for s in setups]})")
    lines.append(f"  {'peak_rss_mb':<24} {rss:12.1f} MiB")
    lines.append(f"  {'ops_failed_frac':<24} "
                 f"{result.failed / max(result.attempted, 1):12.4f} ratio "
                 f"({result.failed}/{result.attempted})")
    return {
        "lines": lines,
        "result": result,
        "digests": {**digests, **result.digests},
        "metrics": {
            "ops_per_s": metric(result.ops_per_s, "1/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(rss, "MiB"),
        },
    }


def traced(args, workload) -> dict:
    from perfbench import layers
    from perfbench.workloads import CheckFailed
    from perfbench.tracer import LayerTracer
    from repro.sandbox.compile import compile_cache

    plain = child(args, "reference")

    # The traced copy repeats the reference's set-up, in this process and
    # with cold caches, and the same amount of work, so that set-up cost
    # (compiles, cache warming) is attributed to layers too.
    tracer = LayerTracer(layers.TARGETS)
    compile_before = compile_cache().stats()
    with tracer:
        state, setup_s = timed_setup(workload, args.seed, args.seconds)
        result = workload.run(state, args.seconds, ops=plain["repeats"], tracer=tracer)
    compile_after = compile_cache().stats()
    workload.gate(state, result)
    if plain["digests"] != result.digests:
        raise CheckFailed(
            f"same-seed traced and untraced runs differ: "
            f"{plain['digests']} vs {result.digests}"
        )
    result.checks.append("same-seed traced and untraced runs agree on digests")
    values = layers.layer_metrics(
        tracer,
        traced_wall_s=setup_s + result.wall_s,
        overhead_frac=result.wall_s / plain["wall_s"] - 1.0,
        compile_stats=(compile_before, compile_after),
    )

    os.makedirs(".perfbench", exist_ok=True)
    span_path = os.path.join(".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(span_path)

    lines = [f"{workload.name} seed={args.seed} traced set-up and "
             f"{result.attempted} {workload.op}s in "
             f"{values['trace.wall_s']:.3f} s; tracing overhead "
             f"{values['trace.overhead_frac']:.1%} on the timed loop"]
    shares = layers.shares(values)
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<28} {share:7.1%} self time")
    for layer in layers.zero_call_layers(tracer, args.workload):
        lines.append(f"  !! {layer} is predicted non-zero on {args.workload} "
                     f"but recorded no call")
    for key in tracer.absent():
        lines.append(f"  absent target {key}: {tracer.status[key]}")
    lines.append(f"  spans: {len(tracer.spans)} kept, {tracer.spans_dropped} "
                 f"dropped, written to {span_path}")
    units = dict(layers.PER_LAYER)
    result.attempted += plain["attempted"]
    result.failed += plain["failed"]
    return {
        "lines": lines,
        "result": result,
        "digests": result.digests,
        "metrics": {name: metric(values[name], units[name]) for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        from perfbench.workloads import CheckFailed, make
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = make(args.workload, smoke=args.smoke, tamper=args.tamper)

    try:
        if args.child:
            print(json.dumps(child_main(args, workload)))
            return 0
        run = traced if args.trace else untraced
        report = run(args, workload)
    except CheckFailed as exc:
        print(f"perfbench: CHECK FAILED on {args.workload}: {exc}", file=sys.stderr)
        return 1

    result = report["result"]
    print(f"host {json.dumps(host_fingerprint(), sort_keys=True)}")
    for line in report["lines"]:
        print(line)
    for name, value in sorted(report["digests"].items()):
        print(f"  digest {name:<14} {value}")
    for check in result.checks:
        print(f"  check {check}")
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
