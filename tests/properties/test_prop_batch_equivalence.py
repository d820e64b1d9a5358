"""Property: batched block application ≡ serial application (DESIGN.md §11).

The batched execution tier must be an *optimization*, never a semantic
change: for any marketplace history — including rejected transactions and
``LedgerUnavailable`` outage windows — applying transactions through
block-grouped checkpoints must yield exactly the balances, escrow totals,
object-store Merkle root, ledger events, and state digest that per-tx
serial application yields. Hypothesis drives arbitrary interleavings of
marketplace calls on the simulator clock against both modes and compares
the complete observable outcome.
"""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import KeyPair, Ledger, Transaction, Wallet, sui_to_mist
from repro.chain.crypto import _L, _base_mult, _encode_point, _point_add
from repro.chain.events import Event
from repro.chaos import ChaosInjector
from repro.common.errors import ChainError, VerificationError
from repro.contracts.debuglet_market import DebugletMarket, ExecutionSlot
from repro.netsim.engine import Simulator

from tests.properties.signature_cases import (
    IDENTITY_SIGN_BIT,
    SMALL_ORDER,
    TORSION,
    Y_PLUS_P,
    keyless,
    sign_with_r,
)

BLOCK_WINDOW = 0.5
FINALITY = 0.2


def _slot(start: float, price: int) -> dict:
    return ExecutionSlot(
        cores=2, memory_mb=256, bandwidth_mbps=100,
        start=start, end=start + 50.0, price=price,
    ).as_dict()


# One operation: (at, kind, actor, detail). Operations are scheduled on
# the simulator clock so they interleave arbitrarily with block flushes.
OPERATIONS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0),
        st.sampled_from(["register", "offer", "purchase", "result"]),
        st.integers(0, 2),
        st.floats(min_value=0.0, max_value=600.0),
    ),
    max_size=12,
)

# A transient-outage window ([start, start+length]); None = no outage.
OUTAGE = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.0, max_value=15.0),
        st.floats(min_value=0.5, max_value=6.0),
    ),
)


def _run_history(mode: str, operations, outage) -> Ledger:
    """Apply one generated history in the given ledger mode; return the
    drained ledger."""
    simulator = Simulator()
    ledger = Ledger(
        clock=lambda: simulator.now,
        scheduler=lambda delay, fn: simulator.schedule(delay, fn),
        finality_latency=FINALITY,
        num_shards=4,
        block_window=BLOCK_WINDOW if mode == "batched" else None,
    )
    ledger.register_contract(DebugletMarket())
    wallets = []
    for i in range(3):
        keypair = KeyPair.deterministic(f"actor-{i}")
        ledger.create_account(keypair, balance=sui_to_mist(50))
        wallets.append(Wallet(ledger, keypair))
    if outage is not None:
        start, length = outage
        ChaosInjector(simulator, ledger, seed=0).fail_transactions(
            start=start, end=start + length
        )

    purchased: list[str] = []
    slot_clock = [100.0]

    def apply(op) -> None:
        _, kind, actor, detail = op
        try:
            if kind == "register":
                wallets[actor].call(
                    "debuglet_market", "register_executor", 10 + actor,
                    int(detail) % 3,
                )
            elif kind == "offer":
                slot_clock[0] += 100.0
                wallets[actor].call(
                    "debuglet_market", "register_time_slot", 10 + actor, 1,
                    [_slot(slot_clock[0] + detail, sui_to_mist(0.01))],
                )
            elif kind == "purchase":
                receipt = wallets[actor].call(
                    "debuglet_market", "purchase_slot",
                    10, 1, 11, 1, detail, detail, detail, detail + 10.0,
                    b"C", {}, b"S", {}, value=sui_to_mist(0.02),
                )
                if receipt.success:
                    purchased.append(
                        receipt.return_value["client_application"]
                    )
            elif kind == "result":
                if purchased:
                    wallets[actor].call(
                        "debuglet_market", "result_ready",
                        purchased[int(detail) % len(purchased)], b"R",
                    )
        except ChainError:
            pass  # rejected / gated transactions never reach the chain

    for op in sorted(operations, key=lambda op: op[0]):
        simulator.schedule_at(op[0], apply, op)
    simulator.run()
    ledger.flush_block()
    return ledger


def _event_trace(ledger: Ledger) -> list[tuple]:
    return [
        (event.name, event.attributes, event.tx_digest, event.emitted_at)
        for event in ledger.events.history
    ]


class TestBatchEquivalenceProperty:
    @given(OPERATIONS, OUTAGE)
    @settings(max_examples=20, deadline=None)
    def test_batched_equals_serial(self, operations, outage):
        serial = _run_history("serial", operations, outage)
        batched = _run_history("batched", operations, outage)

        # The full observable outcome must match, piece by piece (the
        # digest subsumes most of these, but piecewise comparison makes
        # failures diagnosable).
        assert {a: acc.balance for a, acc in batched.accounts.items()} == {
            a: acc.balance for a, acc in serial.accounts.items()
        }
        assert batched.contract_balances == serial.contract_balances
        assert batched.gas_burned == serial.gas_burned
        assert batched.storage_fund == serial.storage_fund
        assert batched.objects.state_root() == serial.objects.state_root()
        assert _event_trace(batched) == _event_trace(serial)
        assert [r.status for r in batched.receipts] == [
            r.status for r in serial.receipts
        ]
        assert batched.state_digest() == serial.state_digest()

        # Identical transactions, different checkpoint grouping.
        assert len(batched.transactions) == len(serial.transactions)
        assert len(batched.checkpoints) <= len(serial.checkpoints)

        # Both histories verify end to end, and the batched history
        # replays (serially) to the same state.
        serial.verify_chain()
        batched.verify_chain()
        replica = batched.replay({"debuglet_market": DebugletMarket})
        assert replica.state_digest() == batched.state_digest()


def test_forged_signature_fails_stop_at_flush():
    """A forged signature in a block is caught by the deferred batch
    verification: the flush fail-stops with the culprit named, instead of
    silently sealing the checkpoint."""
    ledger = Ledger(finality_latency=FINALITY, num_shards=4)
    ledger.register_contract(DebugletMarket())
    keypair = KeyPair.deterministic("forger")
    ledger.create_account(keypair, balance=sui_to_mist(10))

    ledger.begin_block()
    good = Transaction(
        sender=keypair.address,
        contract="debuglet_market",
        function="register_executor",
        args=(10, 1),
        nonce=0,
        gas_budget=Wallet.DEFAULT_GAS_BUDGET,
    ).signed_by(keypair)
    ledger.submit(good)
    forged = Transaction(
        sender=keypair.address,
        contract="debuglet_market",
        function="register_executor",
        args=(11, 1),
        nonce=1,
        gas_budget=Wallet.DEFAULT_GAS_BUDGET,
    ).signed_by(keypair)
    forged = replace(forged, signature=bytes(64))
    # Optimistic execution accepts it (the address binds the key)...
    ledger.submit(forged)

    # ...but the block seal's batch verification rejects the whole block,
    # naming the culprit (block 0, position 1).
    with pytest.raises(VerificationError, match=r"register_executor#0\+1"):
        ledger.flush_block()


def test_event_delivery_order_is_stable_under_indexing():
    """The indexed EventBus must dispatch in exact subscription order even
    when subscribers land in different index buckets."""
    from repro.chain.events import EventBus

    bus = EventBus()
    calls: list[str] = []
    bus.subscribe("E", lambda e: calls.append("broad"))
    bus.subscribe("E", lambda e: calls.append("a"), application_id="a")
    bus.subscribe("E", lambda e: calls.append("broad2"))
    bus.subscribe("E", lambda e: calls.append("a2"), application_id="a")
    bus.publish(
        Event(
            name="E",
            attributes=(("application_id", "a"),),
            tx_digest=b"",
            sequence=0,
            emitted_at=0.0,
        )
    )
    assert calls == ["broad", "a", "broad2", "a2"]


# ------------------------------------------------------ under attack

#: How a transaction's signature is tampered with (DESIGN.md §11 rule):
#: R moved by a small-order point, R as the identity with its sign bit
#: set, S + L, or one flipped bit.
TAINTS = ("none", "torsion_r", "r_x0_sign_bit", "s_plus_l", "flipped")

#: Senders: two honest keys, plus keys no one holds a scalar for — the
#: identity encoded canonically (the cofactorless equation holds for any
#: keyless signature, so both ledgers accept it), with its sign bit set,
#: and as y + p (both non-canonical, so both ledgers reject).
SENDERS = ("honest-0", "honest-1", "identity", "identity-sign-bit", "identity-y+p")

ATTACKS = st.lists(
    st.tuples(
        st.sampled_from(SENDERS),
        st.sampled_from(TAINTS),
        st.integers(min_value=1, max_value=2**64),
    ),
    min_size=1,
    max_size=6,
)


def _sender_keys() -> dict:
    keys = {
        f"honest-{i}": KeyPair.deterministic(f"attack-{i}") for i in range(2)
    }
    for name, public in (
        ("identity", SMALL_ORDER[-1]),
        ("identity-sign-bit", IDENTITY_SIGN_BIT),
        ("identity-y+p", Y_PLUS_P[0]),
    ):
        keys[name] = KeyPair(seed=b"", public=public)
    return keys


def _attack_signature(keypair: KeyPair, payload: bytes, taint: str, pick: int) -> bytes:
    if not keypair.seed:
        return keyless(keypair.public, payload, pick % _L)[2]
    if taint == "torsion_r":
        moved = _point_add(_base_mult(pick), TORSION[pick % 7])
        return sign_with_r(keypair.seed, payload, pick, _encode_point(moved))[2]
    if taint == "r_x0_sign_bit":
        return sign_with_r(keypair.seed, payload, 0, IDENTITY_SIGN_BIT)[2]
    signature = keypair.sign(payload)
    if taint == "s_plus_l":
        s = int.from_bytes(signature[32:], "little") + _L
        return signature[:32] + s.to_bytes(32, "little")
    if taint == "flipped":
        flipped = bytearray(signature)
        flipped[pick % 64] ^= 1 << (pick % 8)
        return bytes(flipped)
    return signature


def _rejected_under(mode: str, attacks) -> list[int]:
    """Submit the attack plan to one ledger; positions it rejects."""
    ledger = Ledger(finality_latency=FINALITY, num_shards=4)
    ledger.register_contract(DebugletMarket())
    keys = _sender_keys()
    for keypair in keys.values():
        ledger.create_account(keypair, balance=sui_to_mist(10))
    if mode == "batched":
        ledger.begin_block()
    rejected = []
    for position, (sender, taint, pick) in enumerate(attacks):
        keypair = keys[sender]
        unsigned = Transaction(
            sender=keypair.address,
            contract="debuglet_market",
            function="register_executor",
            args=(10 + position, 1),
            nonce=ledger.next_nonce(keypair.address),
            gas_budget=Wallet.DEFAULT_GAS_BUDGET,
            public_key=keypair.public,
        )
        signature = _attack_signature(
            keypair, unsigned.signing_payload(), taint, pick
        )
        try:
            ledger.submit(replace(unsigned, signature=signature))
        except VerificationError:
            rejected.append(position)
    if mode == "serial":
        ledger.verify_chain()
        return rejected
    assert rejected == []  # block mode defers the curve check to the seal
    try:
        ledger.flush_block()
    except VerificationError as exc:
        return [int(p) for p in re.findall(r"register_executor#\d+\+(\d+)", str(exc))]
    ledger.verify_chain()
    return []


class TestBatchEquivalenceUnderAttack:
    @given(ATTACKS)
    @settings(max_examples=25, deadline=None)
    def test_serial_and_batched_reject_the_same_transactions(self, attacks):
        serial = _rejected_under("serial", attacks)
        assert _rejected_under("batched", attacks) == serial
        for position, (sender, taint, _pick) in enumerate(attacks):
            honest = sender == "identity" or (
                sender.startswith("honest") and taint == "none"
            )
            assert (position not in serial) == honest, (sender, taint)
