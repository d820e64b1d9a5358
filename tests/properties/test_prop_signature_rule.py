"""Differential battery: one Ed25519 acceptance rule, four verifiers.

A signature is accepted when S < L, A and R use canonical encodings, and
the cofactorless equation holds (DESIGN.md §11). The pure-Python
reference (single and batch, reached through the module-private
``_reference_*`` functions) and the OpenSSL backend (single and batch)
must accept exactly the same set, on honest inputs and on the inputs
where Ed25519 implementations are known to disagree: S >= L, small-order
and non-canonically encoded keys, a non-canonical R, and an R carrying an
order-8 component. The native backend must also derive the same public
keys and produce the same signature bytes as the reference.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import crypto
from repro.chain.crypto import (
    _base_mult,
    _batch_failures,
    _encode_point,
    _point_add,
    _reference_public_key,
    _reference_sign,
    _reference_verify,
    ed25519_batch_verify,
    ed25519_verify,
)

from tests.properties.signature_cases import (
    ALWAYS_REJECTED,
    IDENTITY_SIGN_BIT,
    KINDS,
    SMALL_ORDER,
    TORSION,
    Y_PLUS_P,
    keyless,
    make_item,
    sign_with_r,
)

SEEDS = st.binary(min_size=32, max_size=32)
MESSAGES = st.binary(max_size=48)
PICKS = st.integers(min_value=0, max_value=2**64)
ITEMS = st.tuples(st.sampled_from(KINDS), SEEDS, MESSAGES, PICKS)


def _native():
    backend = crypto._backend()
    if backend.name != "openssl":
        pytest.skip("libcrypto Ed25519 backend unavailable on this host")
    return backend


class TestSingleVerifiers:
    @given(st.sampled_from(KINDS), SEEDS, MESSAGES, PICKS)
    @settings(max_examples=80, deadline=None)
    def test_reference_and_native_agree(self, kind, seed, message, pick):
        native = _native()
        item = make_item(kind, seed, message, pick)
        accepted = _reference_verify(*item)
        assert native.verify(*item) == accepted
        assert ed25519_verify(*item) == accepted
        if kind == "honest":
            assert accepted
        if kind in ALWAYS_REJECTED:
            assert not accepted, kind

    @pytest.mark.parametrize("index", range(7))
    def test_every_torsion_component_is_rejected(self, index):
        native = _native()
        seed = bytes([index]) * 32
        r_bytes = _encode_point(_point_add(_base_mult(12345), TORSION[index]))
        item = sign_with_r(seed, b"torsion", 12345, r_bytes)
        assert not _reference_verify(*item)
        assert not native.verify(*item)
        assert ed25519_batch_verify([item] * 8) == list(range(8))

    def test_identity_key_is_accepted_only_when_canonical(self):
        # The one input where the rule, not the equation, decides: an
        # identity A makes [S]B = R hold for every message.
        native = _native()
        canonical = keyless(SMALL_ORDER[-1], b"m", 7)
        assert _reference_verify(*canonical) and native.verify(*canonical)
        for encoding in (IDENTITY_SIGN_BIT, Y_PLUS_P[0]):
            item = (encoding,) + canonical[1:]
            assert not _reference_verify(*item)
            assert not native.verify(*item)


class TestBatchVerifiers:
    @given(st.lists(ITEMS, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_four_verifiers_accept_the_same_set(self, draws):
        native = _native()
        items = [make_item(*draw) for draw in draws]
        single = [
            index for index, item in enumerate(items)
            if not _reference_verify(*item)
        ]
        assert _batch_failures(_reference_verify, items) == single
        assert _batch_failures(native.verify, items) == single
        assert ed25519_batch_verify(items) == single
        for index, (kind, *_rest) in enumerate(draws):
            if kind == "honest":
                assert index not in single
            if kind in ALWAYS_REJECTED:
                assert index in single

    def test_empty_batch(self):
        assert ed25519_batch_verify([]) == []


class TestNativeBackend:
    @given(SEEDS, st.lists(MESSAGES, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_sign_and_public_key_are_byte_identical(self, seed, messages):
        native = _native()
        assert native.public_key(seed) == _reference_public_key(seed)
        for message in messages:
            assert native.sign(seed, message) == _reference_sign(seed, message)

    def test_self_test_refuses_a_cofactored_verifier(self, monkeypatch):
        backend = crypto._load_openssl()
        if backend is None:
            pytest.skip("libcrypto Ed25519 backend unavailable on this host")
        assert backend.self_test()
        monkeypatch.setattr(backend, "verify", lambda *item: True)
        assert not backend.self_test()

    def test_import_opens_no_library(self):
        probe = (
            "import repro.chain.crypto as c; "
            "assert c._BACKEND is None, c._BACKEND; "
            "print(c.backend_name())"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() in {"openssl", "python"}
