"""Ed25519 inputs of every kind the verification rule has to decide.

Shared by the differential battery (``test_prop_signature_rule.py``) and
the ledger equivalence property (``test_prop_batch_equivalence.py``).
Built with the pure-Python reference's curve arithmetic, so the honest
cases are what the reference signs and the tainted ones are what a
forger holding the signing key (or no key at all) can publish.
"""

from repro.chain.crypto import (
    _L,
    _Q,
    _base_mult,
    _decode_point,
    _encode_point,
    _expand_seed,
    _point_add,
    _reference_public_key,
    _reference_sign,
    _sha512_int,
)

#: The order-8 point from the torsion-R reproduction; its multiples
#: 1T..7T are the nonzero small-order points.
_T = _decode_point(
    bytes.fromhex(
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"
    )
)


def multiples(point, count):
    out = [point]
    for _ in range(count - 1):
        out.append(_point_add(out[-1], point))
    return out


TORSION = multiples(_T, 7)
#: Canonical encodings of all eight small-order points (identity last).
SMALL_ORDER = [_encode_point(p) for p in multiples(_T, 8)]

IDENTITY_SIGN_BIT = (1 | (1 << 255)).to_bytes(32, "little")
MINUS_ONE_SIGN_BIT = ((_Q - 1) | (1 << 255)).to_bytes(32, "little")
#: y + p encodings of the two small-order points with y < 19: (0, 1) and
#: the order-4 point (sqrt(-1), 0).
Y_PLUS_P = [(1 + _Q).to_bytes(32, "little"), (0 + _Q).to_bytes(32, "little")]

KINDS = (
    "honest",
    "forged",
    "s_ge_l",
    "small_order_a",
    "a_y_plus_p",
    "a_x0_sign_bit",
    "r_x0_sign_bit",
    "torsion_r",
)
#: Kinds the rule rejects whatever the draw (small-order A may pass: the
#: cofactorless equation holds when [k]A vanishes).
ALWAYS_REJECTED = set(KINDS) - {"honest", "small_order_a"}


def sign_with_r(seed: bytes, message: bytes, r: int, r_bytes: bytes) -> tuple:
    """Sign with a chosen nonce r but publish ``r_bytes`` as R: S is
    computed for the published R, as a forger would."""
    a, _prefix, public = _expand_seed(seed)
    k = _sha512_int(r_bytes, public, message) % _L
    return public, message, r_bytes + ((r + k * a) % _L).to_bytes(32, "little")


def keyless(public: bytes, message: bytes, r: int) -> tuple:
    """R = rB, S = r: valid exactly when [k]A is the identity, which a
    small-order A makes likely and the identity makes certain."""
    r_bytes = _encode_point(_base_mult(r))
    return public, message, r_bytes + r.to_bytes(32, "little")


def make_item(kind: str, seed: bytes, message: bytes, pick: int) -> tuple:
    """One ``(public, message, signature)`` of the given kind."""
    r = 1 + pick % (_L - 1)
    if kind == "honest":
        return _reference_public_key(seed), message, _reference_sign(seed, message)
    if kind == "forged":
        public = _reference_public_key(seed)
        signature = bytearray(_reference_sign(seed, message))
        signature[pick % 64] ^= 1 << (pick % 8)
        return public, message, bytes(signature)
    if kind == "s_ge_l":
        public = _reference_public_key(seed)
        signature = _reference_sign(seed, message)
        s = int.from_bytes(signature[32:], "little") + _L
        return public, message, signature[:32] + s.to_bytes(32, "little")
    if kind == "small_order_a":
        return keyless(SMALL_ORDER[pick % 8], message, r)
    if kind == "a_y_plus_p":
        return keyless(Y_PLUS_P[pick % 2], message, r)
    if kind == "a_x0_sign_bit":
        return keyless((IDENTITY_SIGN_BIT, MINUS_ONE_SIGN_BIT)[pick % 2], message, r)
    if kind == "r_x0_sign_bit":
        # R is the identity with its sign bit set: the equation holds with
        # r = 0, only the encoding is wrong.
        return sign_with_r(seed, message, 0, IDENTITY_SIGN_BIT)
    if kind == "torsion_r":
        moved = _point_add(_base_mult(r), TORSION[pick % 7])
        return sign_with_r(seed, message, r, _encode_point(moved))
    raise AssertionError(kind)
