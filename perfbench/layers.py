"""Which functions the traced run wraps, and the per-layer metrics they give.

Layer names follow the program's module names. Each layer lists the
functions whose calls enter it; the first ones are public entry points,
the private ones are simulator callbacks through which the layer's work
runs (wrapping only the public call would leave that work to the caller).
Self time of code that no wrapped call covers is reported as
``other.self_s``.
"""

from __future__ import annotations

from perfbench.tracer import LayerTracer, Target


def _batch_items(tracer, args, result, token) -> None:
    tracer.counts["chain.crypto.batch_verify_items"] += len(args[0])


def _encoded_bytes(tracer, args, result, token) -> None:
    tracer.counts["common.serialize.encode_bytes"] += len(result)


def _rejected(tracer, args, result, token) -> None:
    if not result.success:
        tracer.counts["chain.ledger.tx_rejected"] += 1


def _flushed(tracer, args, result, token) -> None:
    if result is not None:
        tracer.counts["chain.batch.blocks_flushed"] += 1
        tracer.counts["chain.batch.block_txs"] += len(result.tx_digests)


def _vm_tier(args) -> str:
    return getattr(args[0], "tier", "reference")


def _events_before(tracer, args):
    simulator = args[0]
    pending = simulator.pending_events
    peak = tracer.counts["netsim.engine.pending_peak"]
    if pending > peak:
        tracer.counts["netsim.engine.pending_peak"] = pending
    return simulator.events_processed


def _events_after(tracer, args, result, before) -> None:
    tracer.counts["netsim.engine.events"] += args[0].events_processed - before


def _network_seen(tracer, args):
    network = args[0]
    stats = network.stats
    baseline = tracer.networks.setdefault(
        id(network), (network, stats.packets_sent, stats.packets_dropped)
    )
    pending = network.simulator.pending_events
    if pending > tracer.counts["netsim.engine.pending_peak"]:
        tracer.counts["netsim.engine.pending_peak"] = pending
    return baseline


def _trees_before(tracer, args):
    return args[0].trees_computed


def _trees_after(tracer, args, result, before) -> None:
    tracer.counts["netsim.internet.route_trees_built"] += (
        args[0].trees_computed - before
    )


def _cell_probes(tracer, args, result, token) -> None:
    tracer.counts["netsim.fastpath.cell_probes"] += args[0].count


def _epochs(tracer, args, result, token) -> None:
    tracer.counts["perf.shardloop.epochs"] += result.epochs


def _audited_before(tracer, args):
    return args[0].sessions_audited


def _audited_after(tracer, args, result, before) -> None:
    tracer.counts["core.audit.sessions_audited"] += (
        args[0].sessions_audited - before
    )


def _peak_active(tracer, args, result, token) -> None:
    key = "core.fleet.peak_active"
    tracer.counts[key] = max(tracer.counts[key], args[0].peak_active)


TARGETS: list[Target] = [
    # sandbox.verifier
    Target("sandbox.verifier", "repro.sandbox.verifier.verifier", "verify_module",
           count="verify_calls"),
    Target("sandbox.verifier", "repro.sandbox.verifier.verifier",
           "infer_capabilities", count="infer_capabilities_calls"),
    Target("sandbox.verifier", "repro.sandbox.verifier.absint", "analyze_function",
           count="analyses"),
    Target("sandbox.verifier", "repro.sandbox.manifest", "Manifest.validate_module"),
    # chain.crypto
    Target("chain.crypto", "repro.chain.crypto", "ed25519_sign", count="sign_calls"),
    Target("chain.crypto", "repro.chain.crypto", "ed25519_verify",
           count="verify_calls"),
    Target("chain.crypto", "repro.chain.crypto", "ed25519_batch_verify",
           count="batch_verify_calls", after=_batch_items),
    Target("chain.crypto", "repro.chain.crypto", "ed25519_public_key"),
    # common.serialize
    Target("common.serialize", "repro.common.serialize", "canonical_encode",
           count="encode_calls", after=_encoded_bytes),
    Target("common.serialize", "repro.common.serialize", "stable_hash"),
    # chain.ledger and chain.batch
    Target("chain.ledger", "repro.chain.ledger", "Ledger.submit",
           count="tx_submitted", split=lambda args: "submit", after=_rejected),
    Target("chain.ledger", "repro.chain.ledger", "Ledger.verify_chain",
           split=lambda args: "verify_chain"),
    Target("chain.batch", "repro.chain.batch", "BlockBuilder.flush",
           after=_flushed),
    # contracts.debuglet_market (every entry call dispatches through call)
    Target("contracts.debuglet_market", "repro.contracts.debuglet_market",
           "DebugletMarket.call", count="calls"),
    # sandbox.compile
    Target("sandbox.compile", "repro.sandbox.compile", "compile_module"),
    Target("sandbox.compile", "repro.sandbox.compile", "CompileCache.get"),
    # sandbox.vm, split by tier
    Target("sandbox.vm", "repro.sandbox.vm", "VM.start", count="calls",
           split=_vm_tier),
    Target("sandbox.vm", "repro.sandbox.vm", "VM.resume", count="calls",
           split=_vm_tier),
    # core.executor
    Target("core.executor", "repro.core.executor", "Executor.submit",
           count="submits"),
    Target("core.executor", "repro.core.executor", "Executor._begin"),
    Target("core.executor", "repro.core.executor", "Executor._resume"),
    # netsim.engine
    Target("netsim.engine", "repro.netsim.engine", "Simulator.run",
           before=_events_before, after=_events_after),
    Target("netsim.engine", "repro.netsim.engine", "Simulator.step",
           before=_events_before, after=_events_after),
    # netsim.network
    Target("netsim.network", "repro.netsim.network", "Network.send",
           before=_network_seen),
    Target("netsim.network", "repro.netsim.network", "Network._advance"),
    Target("netsim.network", "repro.netsim.network", "Network._arrive"),
    # netsim.internet
    Target("netsim.internet", "repro.netsim.internet", "GaoRexfordRouter.tree",
           count="route_tree_calls", before=_trees_before, after=_trees_after),
    # netsim.fastpath
    Target("netsim.fastpath", "repro.netsim.fastpath", "extract_segment_cell",
           count="cells_extracted"),
    Target("netsim.fastpath", "repro.netsim.fastpath", "extract_probe_cell",
           count="cells_extracted"),
    Target("netsim.fastpath", "repro.netsim.fastpath", "simulate_cell_arrays",
           count="cells_simulated", after=_cell_probes),
    # perf.shardloop (the campaign loop)
    Target("perf.shardloop", "repro.perf.shardloop", "CampaignEngine.run",
           after=_epochs),
    # core.marketplace
    Target("core.marketplace", "repro.core.marketplace",
           "Initiator.request_measurement", count="requests"),
    Target("core.marketplace", "repro.core.marketplace",
           "Initiator._attempt_purchase", count="purchase_attempts"),
    Target("core.marketplace", "repro.core.marketplace",
           "ExecutorAgent._on_application"),
    Target("core.marketplace", "repro.core.marketplace",
           "ExecutorAgent._publish_result"),
    # core.audit
    Target("core.audit", "repro.core.audit", "Auditor.on_session_complete",
           before=_audited_before, after=_audited_after),
    Target("core.audit", "repro.core.audit", "Auditor._replay_session"),
    Target("core.audit", "repro.core.audit", "Auditor.finalize"),
    # core.verification
    Target("core.verification", "repro.core.verification",
           "ChainVerifier.verify_result", count="verify_result_calls"),
    # core.fleet
    Target("core.fleet", "repro.core.fleet", "FleetScheduler.run",
           after=_peak_active),
]

LAYERS = sorted({target.layer for target in TARGETS})

#: Per-layer metrics of the traced run: (name, unit). Self times are in
#: seconds over the traced phase.
PER_LAYER: list[tuple[str, str]] = [
    ("sandbox.verifier.verify_calls", "count"),
    ("sandbox.verifier.infer_capabilities_calls", "count"),
    ("sandbox.verifier.analyses_per_request", "count/op"),
    ("sandbox.verifier.self_s", "s"),
    ("chain.crypto.sign_calls", "count"),
    ("chain.crypto.verify_calls", "count"),
    ("chain.crypto.batch_verify_calls", "count"),
    ("chain.crypto.batch_verify_items", "count"),
    ("chain.crypto.self_s", "s"),
    ("common.serialize.encode_calls", "count"),
    ("common.serialize.encode_bytes", "bytes"),
    ("common.serialize.self_s", "s"),
    ("chain.ledger.tx_submitted", "count"),
    ("chain.ledger.tx_rejected", "count"),
    ("chain.ledger.submit_self_s", "s"),
    ("chain.ledger.verify_chain_self_s", "s"),
    ("chain.ledger.self_s", "s"),
    ("chain.batch.blocks_flushed", "count"),
    ("chain.batch.txs_per_block", "count/block"),
    ("chain.batch.self_s", "s"),
    ("contracts.debuglet_market.calls", "count"),
    ("contracts.debuglet_market.self_s", "s"),
    ("sandbox.compile.cache_hit_rate", "ratio"),
    ("sandbox.compile.compiles", "count"),
    ("sandbox.compile.self_s", "s"),
    ("sandbox.vm.calls", "count"),
    ("sandbox.vm.reference_self_s", "s"),
    ("sandbox.vm.compiled_self_s", "s"),
    ("sandbox.vm.self_s", "s"),
    ("core.executor.submits", "count"),
    ("core.executor.self_s", "s"),
    ("netsim.engine.events", "count"),
    ("netsim.engine.pending_peak", "count"),
    ("netsim.engine.self_s", "s"),
    ("netsim.network.packets_sent", "count"),
    ("netsim.network.packets_dropped", "count"),
    ("netsim.network.self_s", "s"),
    ("netsim.internet.route_trees_built", "count"),
    ("netsim.internet.route_tree_hit_rate", "ratio"),
    ("netsim.internet.self_s", "s"),
    ("netsim.fastpath.cells_extracted", "count"),
    ("netsim.fastpath.cells_simulated", "count"),
    ("netsim.fastpath.probes_per_cell", "count/cell"),
    ("netsim.fastpath.self_s", "s"),
    ("perf.shardloop.epochs", "count"),
    ("perf.shardloop.self_s", "s"),
    ("core.marketplace.purchase_attempts_per_session", "count/op"),
    ("core.marketplace.self_s", "s"),
    ("core.audit.sessions_audited", "count"),
    ("core.audit.self_s", "s"),
    ("core.verification.verify_result_calls", "count"),
    ("core.verification.self_s", "s"),
    ("core.fleet.peak_active", "count"),
    ("core.fleet.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

#: The prediction made before measuring: for each layer, the end-to-end
#: figure it should move on each workload, and its expected share of the
#: wall time there (cProfile self-time shares on unmodified code, 2-core
#: host; 0.01 stands for "small"). ``record.py`` sets the traced run's
#: measured shares beside these. A layer predicted on a workload that
#: records no call at all is flagged in the traced run's report.
PREDICTIONS: dict[str, dict[str, tuple[str, float]]] = {
    "sandbox.verifier": {
        "session_short": ("session_p50_ms", 0.375),
        "session_long": ("sessions_per_s", 0.12),
    },
    "chain.crypto": {
        "fleet_loadgen": ("sessions_per_s, chain_verify_tx_per_s", 0.60),
        "session_short": ("session_p50_ms", 0.19),
        "session_long": ("sessions_per_s", 0.06),
    },
    "common.serialize": {"fleet_loadgen": ("sessions_per_s", 0.09)},
    "chain.ledger": {"fleet_loadgen": ("sessions_per_s, chain_verify_tx_per_s", 0.04)},
    "chain.batch": {"fleet_loadgen": ("sessions_per_s, chain_verify_tx_per_s", 0.01)},
    "contracts.debuglet_market": {"fleet_loadgen": ("sessions_per_s", 0.02)},
    "sandbox.compile": {
        "session_short": ("setup_s, session_p50_ms", 0.055),
        "session_long": ("setup_s, session_p50_ms", 0.055),
    },
    "sandbox.vm": {"session_long": ("sessions_per_s", 0.08)},
    "core.executor": {"session_long": ("sessions_per_s", 0.07)},
    "netsim.engine": {"session_long": ("sessions_per_s", 0.25)},
    "netsim.network": {"session_long": ("sessions_per_s", 0.07)},
    "netsim.internet": {"wan_campaign": ("setup_s, episodes_per_s", 0.34)},
    "netsim.fastpath": {"wan_campaign": ("episodes_per_s", 0.22)},
    "perf.shardloop": {"wan_campaign": ("episodes_per_s", 0.01)},
    "core.marketplace": {
        "session_short": ("session_p90_ms", 0.01),
        "session_long": ("session_p90_ms", 0.01),
        "fleet_loadgen": ("sessions_per_s", 0.01),
    },
    "core.audit": {
        "session_short": ("session_p90_ms", 0.01),
        "session_long": ("session_p90_ms", 0.01),
    },
    "core.verification": {
        "session_short": ("session_p90_ms", 0.01),
        "session_long": ("session_p90_ms", 0.01),
    },
    "core.fleet": {"fleet_loadgen": ("sessions_per_s", 0.01)},
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: LayerTracer,
    *,
    traced_wall_s: float,
    overhead_frac: float,
    compile_stats: tuple[dict, dict],
) -> dict[str, float]:
    """The PER_LAYER values of one traced phase (set-up and timed loop).

    ``overhead_frac`` compares the traced timed loop with the same loop
    run just before with tracing off; ``compile_stats`` holds the compile
    cache's counters before and after the traced phase.
    """
    c, s = tracer.counts, tracer.self_s
    packets_sent = packets_dropped = 0
    for network, sent, dropped in tracer.networks.values():
        packets_sent += network.stats.packets_sent - sent
        packets_dropped += network.stats.packets_dropped - dropped
    before, after = compile_stats
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    tree_calls = c["netsim.internet.route_tree_calls"]
    values = {
        "sandbox.verifier.verify_calls": c["sandbox.verifier.verify_calls"],
        "sandbox.verifier.infer_capabilities_calls":
            c["sandbox.verifier.infer_capabilities_calls"],
        "sandbox.verifier.analyses_per_request": _ratio(
            c["sandbox.verifier.analyses"], c["core.marketplace.requests"]
        ),
        "chain.crypto.sign_calls": c["chain.crypto.sign_calls"],
        "chain.crypto.verify_calls": c["chain.crypto.verify_calls"],
        "chain.crypto.batch_verify_calls": c["chain.crypto.batch_verify_calls"],
        "chain.crypto.batch_verify_items": c["chain.crypto.batch_verify_items"],
        "common.serialize.encode_calls": c["common.serialize.encode_calls"],
        "common.serialize.encode_bytes": c["common.serialize.encode_bytes"],
        "chain.ledger.tx_submitted": c["chain.ledger.tx_submitted"],
        "chain.ledger.tx_rejected": c["chain.ledger.tx_rejected"],
        "chain.ledger.submit_self_s": s["chain.ledger.submit"],
        "chain.ledger.verify_chain_self_s": s["chain.ledger.verify_chain"],
        "chain.batch.blocks_flushed": c["chain.batch.blocks_flushed"],
        "chain.batch.txs_per_block":
            _ratio(c["chain.batch.block_txs"], c["chain.batch.blocks_flushed"]),
        "contracts.debuglet_market.calls": c["contracts.debuglet_market.calls"],
        "sandbox.compile.cache_hit_rate": _ratio(hits, lookups),
        "sandbox.compile.compiles": after["compiles"] - before["compiles"],
        "sandbox.vm.calls": c["sandbox.vm.calls"],
        "sandbox.vm.reference_self_s": s["sandbox.vm.reference"],
        "sandbox.vm.compiled_self_s": s["sandbox.vm.compiled"],
        "core.executor.submits": c["core.executor.submits"],
        "netsim.engine.events": c["netsim.engine.events"],
        "netsim.engine.pending_peak": c["netsim.engine.pending_peak"],
        "netsim.network.packets_sent": packets_sent,
        "netsim.network.packets_dropped": packets_dropped,
        "netsim.internet.route_trees_built": c["netsim.internet.route_trees_built"],
        "netsim.internet.route_tree_hit_rate": _ratio(
            tree_calls - c["netsim.internet.route_trees_built"], tree_calls
        ),
        "netsim.fastpath.cells_extracted": c["netsim.fastpath.cells_extracted"],
        "netsim.fastpath.cells_simulated": c["netsim.fastpath.cells_simulated"],
        "netsim.fastpath.probes_per_cell": _ratio(
            c["netsim.fastpath.cell_probes"], c["netsim.fastpath.cells_simulated"]
        ),
        "perf.shardloop.epochs": c["perf.shardloop.epochs"],
        "core.marketplace.purchase_attempts_per_session": _ratio(
            c["core.marketplace.purchase_attempts"], c["core.marketplace.requests"]
        ),
        "core.audit.sessions_audited": c["core.audit.sessions_audited"],
        "core.verification.verify_result_calls":
            c["core.verification.verify_result_calls"],
        "core.fleet.peak_active": c["core.fleet.peak_active"],
        "other.self_s": traced_wall_s - sum(s[layer] for layer in LAYERS),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_frac": overhead_frac,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = s[layer]
    return {name: float(values[name]) for name, _ in PER_LAYER}


def shares(values: dict[str, float]) -> dict[str, float]:
    """Each layer's self time as a share of the traced wall time."""
    wall = values["trace.wall_s"]
    out = {layer: _ratio(values[f"{layer}.self_s"], wall) for layer in LAYERS}
    out["other"] = _ratio(values["other.self_s"], wall)
    return out


def zero_call_layers(tracer: LayerTracer, workload: str) -> list[str]:
    """Layers predicted on ``workload`` that recorded no call."""
    return [
        layer for layer, per_workload in PREDICTIONS.items()
        if workload in per_workload and not tracer.calls[layer]
    ]
