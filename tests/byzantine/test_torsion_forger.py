"""A torsion forger: an executor whose signatures carry an order-8 R.

Such a signature satisfies ``[8][S]B = [8]R + [8][k]A`` but not the
cofactorless equation, so it separates verifiers that apply one rule
from verifiers that do not: a random-linear-combination batch check
accepts it for one coefficient draw in eight, while single verification
always rejects it (why batch verification is per item, DESIGN.md §11).
The forger's certificates
must fail third-party verification, and its payment-collecting
``result_ready`` transactions must never settle — on the serial ledger
(refused at submission) or the batched one (fail-stop at the block seal).
"""

import pytest

from repro.common.errors import VerificationError
from repro.core.verification import ChainVerifier, verify_certificate

from tests.byzantine.helpers import (
    BYZANTINE_VANTAGE,
    build_audited_testbed,
    corrupt_with_torsion,
    run_echo_session,
)
from tests.chaos.helpers import assert_escrow_conserved

pytestmark = pytest.mark.byzantine


def _forger_address(testbed) -> str:
    return testbed.agents[BYZANTINE_VANTAGE].wallet.address


def _forged_records(testbed) -> list:
    executor = testbed.fleet.get(*BYZANTINE_VANTAGE)
    return [r for r in executor.executions if r.certificate is not None]


def test_torsion_forger_earns_no_settlement_on_the_serial_ledger():
    testbed, _auditor = build_audited_testbed(seed=3)
    corrupt_with_torsion(testbed)
    before = testbed.ledger.balance_of(_forger_address(testbed))

    session = run_echo_session(testbed, deadline_margin=5.0)

    # The ledger refused the publication, so the session timed out and
    # the initiator got its escrow back; the forger was paid nothing.
    assert session.state_names[-2:] == ["timed-out", "refunded"]
    client = session.outcomes["client"]
    agent = testbed.agents[BYZANTINE_VANTAGE]
    assert agent.failed_publications == [
        (client.application_id, "invalid transaction signature")
    ]
    assert testbed.ledger.balance_of(_forger_address(testbed)) == before
    assert_escrow_conserved(testbed)
    testbed.ledger.verify_chain()

    verifier = ChainVerifier(testbed.ledger, testbed.market)
    with pytest.raises(VerificationError, match="no published result"):
        verifier.verify_result(client.application_id)
    verifier.verify_result(session.outcomes["server"].application_id)
    (record,) = _forged_records(testbed)
    with pytest.raises(VerificationError, match="certificate signature"):
        verify_certificate(record.certificate, result=record.result)


def test_torsion_forger_fail_stops_the_batched_ledger():
    testbed, _auditor = build_audited_testbed(seed=3)
    # Block mode from here on; registration and stake were sealed serially.
    testbed.ledger.block_window = 0.5
    corrupt_with_torsion(testbed)

    # Block mode executes the publication optimistically (the session
    # even completes on it); then the seal's batch verification finds the
    # torsion signature and stops the run before any checkpoint commits
    # the payment.
    run_echo_session(testbed, deadline_margin=5.0)
    with pytest.raises(VerificationError, match=r"forged signatures: result_ready#"):
        testbed.chain.simulator.run()
    sealed = {
        digest
        for checkpoint in testbed.ledger.checkpoints
        for digest in checkpoint.tx_digests
    }
    forged = [
        tx for tx in testbed.ledger.transactions
        if tx.function == "result_ready"
        and tx.sender == _forger_address(testbed)
    ]
    assert forged
    assert all(tx.digest() not in sealed for tx in forged)


def test_torsion_certificate_fails_third_party_verification():
    # Honest transactions, torsion-tainted certificate: the result is
    # published, and only the certificate check can catch it.
    testbed, _auditor = build_audited_testbed(seed=3)
    corrupt_with_torsion(testbed, transactions=False)

    session = run_echo_session(testbed)

    verifier = ChainVerifier(testbed.ledger, testbed.market)
    with pytest.raises(VerificationError, match="certificate signature is invalid"):
        verifier.verify_result(session.outcomes["client"].application_id)
    verifier.verify_result(session.outcomes["server"].application_id)
