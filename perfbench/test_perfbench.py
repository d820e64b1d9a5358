"""Tests of the benchmark itself: smoke-size runs, the checks, the tracer.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import layers  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracer import LayerTracer, Target  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _smoke(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke", *extra)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = _result(_smoke(workload, 0))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = _spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_emits_every_per_layer_metric(workload):
    done = _smoke(workload, 1)
    result = _result(done)
    spec = _spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "absent target" not in done.stdout
    assert "recorded no call" not in done.stdout


def test_benchmark_json_matches_the_layer_table():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_run_fails_without_a_result(workload):
    done = _smoke(workload, 0, "--tamper")
    assert done.returncode == 1
    assert "CHECK FAILED" in done.stderr
    assert '"correct"' not in done.stdout


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ------------------------------------------------------------------ tracer


@pytest.fixture
def probe_modules():
    """Two throwaway ``repro.*`` modules; ``user`` binds ``inner`` by
    ``from ... import``, as the program's modules do."""
    lib = types.ModuleType("repro._perfbench_probe_lib")
    user = types.ModuleType("repro._perfbench_probe_user")

    def inner(x):
        return sum(range(x))

    def outer(x):
        return lib.inner(x) + user.inner(x)

    lib.inner, lib.outer = inner, outer
    user.inner = inner
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    yield lib, user
    del sys.modules[lib.__name__], sys.modules[user.__name__]


def test_tracer_rebinds_every_binding_and_restores_them(probe_modules):
    lib, user = probe_modules
    original = lib.inner
    tracer = LayerTracer([
        Target("probe.inner", lib.__name__, "inner", count="calls"),
        Target("probe.outer", lib.__name__, "outer"),
    ])
    with tracer:
        assert tracer.status[f"{lib.__name__}:inner"] == "wrapped (2 bindings)"
        lib.outer(1000)
    assert lib.inner is original and user.inner is original
    assert tracer.counts["probe.inner.calls"] == 2
    assert tracer.calls["probe.outer"] == 1
    outer_span = [s for s in tracer.spans if s[0] == "probe.outer:outer"][0]
    children = [s for s in tracer.spans if s[3] == tracer.spans.index(outer_span)]
    assert len(children) == 2
    duration = outer_span[2] - outer_span[1]
    covered = sum(s[2] - s[1] for s in children)
    assert tracer.self_s["probe.outer"] == pytest.approx(duration - covered)
    assert tracer.self_s["probe.inner"] == pytest.approx(covered)


def test_tracer_wraps_methods_on_the_class():
    from repro.common.serialize import canonical_encode
    from repro.chain.merkle import MerkleTree

    tracer = LayerTracer([Target("probe.merkle", "repro.chain.merkle", "MerkleTree.proof")])
    original = MerkleTree.__dict__["proof"]
    with tracer:
        MerkleTree([canonical_encode(i) for i in range(4)]).proof(1)
    assert MerkleTree.__dict__["proof"] is original
    assert tracer.calls["probe.merkle"] == 1


def test_missing_targets_are_reported_absent():
    tracer = LayerTracer([
        Target("gone", "repro.perf.no_such_module", "run"),
        Target("gone", "repro.chain.crypto", "no_such_function"),
        Target("gone", "repro.chain.ledger", "NoSuchClass.run"),
        Target("gone", "repro.chain.ledger", "Ledger.no_such_method"),
    ])
    with tracer:
        pass
    assert len(tracer.absent()) == 4
    assert not tracer.calls


def test_every_layer_target_is_present():
    tracer = LayerTracer(layers.TARGETS)
    with tracer:
        pass
    assert tracer.absent() == []
