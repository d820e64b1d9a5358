"""Batched transaction application: the block builder (DESIGN.md §11).

Serial ledgers seal one checkpoint — and recompute the folded shard state
root — per transaction. At fleet scale that interleaved root recomputation
dominates: every purchase dirties two or three object shards and pays a
full shard-tree rebuild before the next transaction runs.

:class:`BlockBuilder` groups submissions into blocks per finality window
instead. Transactions still *execute* at submission time (optimistic
application: receipts are synchronous, events are delivered on the normal
finality schedule, cheap authentication — address binding, nonce, balance
— stays eager), but two expensive steps are deferred to the block seal:

- **signature verification** — the curve checks for every transaction in
  the block run through :func:`~repro.chain.crypto.ed25519_batch_verify`,
  which rejects exactly what a serial ledger's per-transaction check
  rejects (one rule for both, DESIGN.md §11);
- **checkpoint sealing** — one checkpoint with one Merkle root and one
  folded shard state root commits the whole block, so shard-disjoint
  transactions in the same window never trigger interleaved root
  recomputation.

Failure semantics are fail-stop: a forged signature surfaces as a
:class:`~repro.common.errors.VerificationError` at the seal (naming the
offending transactions), not at submission. Everything the marketplace
observes — receipts, escrow accounting, event order and timing — is
bit-identical to serial application; the property suite in
``tests/properties/test_prop_batch_equivalence.py`` pins that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chain.crypto import ed25519_batch_verify
from repro.common.errors import ChainError, VerificationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.ledger import Checkpoint, Ledger
    from repro.chain.transaction import Transaction


@dataclass
class PendingBlock:
    """Digests and deferred signature checks of one open block."""

    opened_at: float
    index: int
    digests: list[bytes] = field(default_factory=list)
    verify_items: list[tuple[bytes, bytes, bytes]] = field(default_factory=list)
    functions: list[str] = field(default_factory=list)


class BlockBuilder:
    """Owns a ledger's pending-block lifecycle.

    With ``window`` set and a scheduler available, the first submission
    after a seal opens a new block and schedules its flush one window
    later; the ledger routes every submission in between into the block.
    Without a window, :meth:`open` / :meth:`flush` drive block boundaries
    explicitly (how the equivalence property test batches arbitrarily).
    """

    def __init__(self, ledger: "Ledger") -> None:
        self.ledger = ledger
        self.block: PendingBlock | None = None
        self.blocks_sealed = 0

    @property
    def active(self) -> bool:
        return self.block is not None

    @property
    def pending(self) -> int:
        return len(self.block.digests) if self.block is not None else 0

    def open(self) -> PendingBlock:
        if self.block is not None:
            raise ChainError("a block is already open")
        self.block = PendingBlock(
            opened_at=self.ledger.now, index=len(self.ledger.checkpoints)
        )
        return self.block

    def note(self, tx: "Transaction", digest: bytes) -> None:
        """Record an executed transaction into the open block."""
        block = self.block
        if block is None:
            block = self.open()
            window = self.ledger.block_window
            if window is not None:
                self.ledger._scheduler(window, self._scheduled_flush)
        block.digests.append(digest)
        block.functions.append(tx.function)
        if self.ledger.require_signatures:
            block.verify_items.append(
                (tx.public_key, tx.signing_payload(), tx.signature)
            )

    def _scheduled_flush(self) -> None:
        if self.block is not None:
            self.flush()

    def flush(self, timestamp: float | None = None) -> "Checkpoint | None":
        """Seal the open block: batch-verify signatures, one checkpoint.

        Returns the sealed checkpoint, or None when no block is open.
        Raises :class:`VerificationError` (fail-stop) when any deferred
        signature check fails — the optimistic state mutations of the
        forged transaction have already been applied, so the run must not
        continue from them.
        """
        block = self.block
        if block is None:
            return None
        self.block = None
        ledger = self.ledger
        if block.verify_items:
            failed = ed25519_batch_verify(block.verify_items)
            if failed:
                culprits = ", ".join(
                    f"{block.functions[i]}#{block.index}+{i}" for i in failed
                )
                raise VerificationError(
                    f"block {block.index} contains forged signatures: {culprits}"
                )
        if timestamp is None:
            timestamp = ledger.now + ledger.finality_latency
        checkpoint = ledger._seal_checkpoint(block.digests, timestamp)
        self.blocks_sealed += 1
        obs = ledger.obs
        if obs is not None:
            obs.metrics.counter("ledger_blocks_total").inc()
            obs.metrics.histogram("ledger_batch_size").observe(len(block.digests))
            # Deterministic by construction: simulated time from the first
            # submission of the block to its seal (never wall clock), so
            # same-seed runs export identical histograms.
            obs.metrics.histogram("ledger_apply_seconds").observe(
                max(ledger.now - block.opened_at, 0.0)
            )
        return checkpoint
