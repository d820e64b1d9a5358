"""Cryptographic primitives for the ledger.

Ed25519 (RFC 8032) with two backends behind one verification rule. A
signature ``(R, S)`` by key ``A`` is accepted when ``S < L``, ``A`` and
``R`` use canonical encodings (``y < p``, and no set sign bit on a point
whose ``x`` is 0), and the cofactorless equation ``[S]B = R + [k]A``
holds. Batch verification is exactly the list of items single
verification rejects, so no signature passes one check and fails the
other (DESIGN.md §11).

- **OpenSSL** (``libcrypto`` EVP Ed25519 through :mod:`ctypes`): the
  library ``_hashlib`` already mapped, opened on the first key
  derivation, sign or verify, and chosen only when a known-answer
  self-test passes.
- **Pure Python** (``_reference_*``): extended homogeneous coordinates
  and a windowed base-point comb. It is the reference the native backend
  is tested against, and the fallback wherever the self-test fails.

Either way this is real public-key cryptography: executors certify
results with keys whose public halves live on-chain, and any third party
can check them.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

from repro.common.errors import VerificationError

# ---------------------------------------------------------------- ed25519

_Q = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _Q - 2, _Q)) % _Q
_I = pow(2, (_Q - 1) // 4, _Q)

Point = tuple[int, int, int, int]  # extended homogeneous (X, Y, Z, T)

_IDENTITY: Point = (0, 1, 1, 0)


def _point_add(p: Point, q: Point) -> Point:
    # add-2008-hwcd-3 for twisted Edwards curves with a = -1.
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = ((y1 - x1) * (y2 - x2)) % _Q
    b = ((y1 + x1) * (y2 + x2)) % _Q
    c = (2 * t1 * t2 * _D) % _Q
    d = (2 * z1 * z2) % _Q
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return ((e * f) % _Q, (g * h) % _Q, (f * g) % _Q, (e * h) % _Q)


def _point_double(p: Point) -> Point:
    x1, y1, z1, _ = p
    a = (x1 * x1) % _Q
    b = (y1 * y1) % _Q
    c = (2 * z1 * z1) % _Q
    h = (a + b) % _Q
    e = (h - (x1 + y1) * (x1 + y1)) % _Q
    g = (a - b) % _Q
    f = (c + g) % _Q
    return ((e * f) % _Q, (g * h) % _Q, (f * g) % _Q, (e * h) % _Q)


def _scalar_mult(p: Point, e: int) -> Point:
    result = _IDENTITY
    addend = p
    while e:
        if e & 1:
            result = _point_add(result, addend)
        addend = _point_double(addend)
        e >>= 1
    return result


# Precomputed points in "Niels" form: (y-x, y+x, 2*d*x*y) of the *affine*
# point. A mixed addition against such an entry (madd-2008-hwcd-3 with
# Z2 = 1) costs 7 field multiplications instead of the 9 a generic
# extended-extended addition pays — a ~20% saving that applies to every
# table-lookup addition in the comb and signer tables below.
Niels = tuple[int, int, int]


def _mixed_add(p: Point, n: Niels) -> Point:
    x1, y1, z1, t1 = p
    ymx, ypx, td2 = n
    a = ((y1 - x1) * ymx) % _Q
    b = ((y1 + x1) * ypx) % _Q
    c = (t1 * td2) % _Q
    d = 2 * z1
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return ((e * f) % _Q, (g * h) % _Q, (f * g) % _Q, (e * h) % _Q)


def _batch_invert(values: list[int]) -> list[int]:
    """Montgomery's trick: n inversions for one exponentiation."""
    prefix: list[int] = []
    acc = 1
    for value in values:
        acc = acc * value % _Q
        prefix.append(acc)
    inverse = pow(acc, -1, _Q)
    out = [0] * len(values)
    for index in range(len(values) - 1, 0, -1):
        out[index] = prefix[index - 1] * inverse % _Q
        inverse = inverse * values[index] % _Q
    out[0] = inverse
    return out


def _to_niels(points: list[Point]) -> list[Niels]:
    """Convert extended points to Niels form with one shared inversion."""
    inverses = _batch_invert([p[2] for p in points])
    out: list[Niels] = []
    for (x, y, _z, _t), zinv in zip(points, inverses):
        ax = x * zinv % _Q
        ay = y * zinv % _Q
        out.append(((ay - ax) % _Q, (ay + ax) % _Q, 2 * _D * ax * ay % _Q))
    return out


def _inv(value: int) -> int:
    """Modular inverse via C-level extended GCD — ~18x the Fermat pow."""
    try:
        return pow(value, -1, _Q)
    except ValueError:
        raise VerificationError("field element is not invertible") from None


def _recover_x(y: int, sign: int) -> int:
    xx = (y * y - 1) * _inv(_D * y * y + 1) % _Q
    x = pow(xx, (_Q + 3) // 8, _Q)
    if (x * x - xx) % _Q != 0:
        x = (x * _I) % _Q
    if (x * x - xx) % _Q != 0:
        raise VerificationError("invalid point encoding")
    if x == 0 and sign:
        # -0 is 0: the sign bit of an x = 0 point is a second encoding.
        raise VerificationError("non-canonical point encoding")
    if x & 1 != sign:
        x = _Q - x
    return x


_BY = (4 * pow(5, _Q - 2, _Q)) % _Q
_BX = _recover_x(_BY, 0)
_BASE: Point = (_BX, _BY, 1, (_BX * _BY) % _Q)

# Windowed table: _BASE_TABLE[i] = 2^i * B, for fast base-point multiplies.
_BASE_TABLE: list[Point] = []
_pt = _BASE
for _ in range(256):
    _BASE_TABLE.append(_pt)
    _pt = _point_double(_pt)

# Fixed-base comb: _BASE_COMB[i][d] = d * 2^(8i) * B for d in 1..255, so a
# base-point multiply is ~31 additions (one table lookup per radix-256
# digit) instead of ~127 — the base multiply sits on every sign AND every
# verify, so this one table speeds the whole chain. Entries are stored in
# Niels form so each lookup addition is a 7-mult mixed add. Built lazily:
# ~8k point additions plus one batched inversion (~100 ms) on the first
# signature, then amortized across the millions of multiplies a fleet run
# performs.
_BASE_COMB: list[list[Niels]] = []

#: Niels identity — never looked up (zero digits are skipped), placeholder
#: keeps table indices aligned with digit values.
_N_IDENTITY: Niels = (1, 1, 0)


def _build_base_comb() -> None:
    for i in range(32):
        window: list[Point] = []
        step = _BASE_TABLE[8 * i]
        accumulator = step
        for _ in range(255):
            window.append(accumulator)
            accumulator = _point_add(accumulator, step)
        _BASE_COMB.append([_N_IDENTITY] + _to_niels(window))


def _base_mult(e: int) -> Point:
    if not _BASE_COMB:
        _build_base_comb()
    result = _IDENTITY
    index = 0
    while e:
        digit = e & 255
        if digit:
            result = _mixed_add(result, _BASE_COMB[index][digit])
        e >>= 8
        index += 1
    return result


def _encode_point(p: Point) -> bytes:
    x, y, z, _ = p
    zinv = _inv(z)
    x = (x * zinv) % _Q
    y = (y * zinv) % _Q
    return ((y | ((x & 1) << 255))).to_bytes(32, "little")


def _decode_point(data: bytes) -> Point:
    if len(data) != 32:
        raise VerificationError("point encoding must be 32 bytes")
    value = int.from_bytes(data, "little")
    y = value & ((1 << 255) - 1)
    sign = value >> 255
    if y >= _Q:
        raise VerificationError("point y out of range")
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % _Q)


def _sha512_int(*parts: bytes) -> int:
    hasher = hashlib.sha512()
    for part in parts:
        hasher.update(part)
    return int.from_bytes(hasher.digest(), "little")


def _clamp(scalar_bytes: bytes) -> int:
    a = int.from_bytes(scalar_bytes, "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a


# Expanded-key cache: sha512(seed) expansion and the derived public key
# are fixed per seed, yet the textbook sign path recomputes them — one
# extra sha512 plus a full base-point multiply per signature. Simulation
# fleets sign with a bounded set of keys, so a keyed cache amortizes the
# expansion to once per key. Bounded to stay safe under key churn.
_EXPANDED_KEYS: dict[bytes, tuple[int, bytes, bytes]] = {}
_EXPANDED_KEYS_MAX = 8192


def _expand_seed(seed: bytes) -> tuple[int, bytes, bytes]:
    expanded = _EXPANDED_KEYS.get(seed)
    if expanded is None:
        digest = hashlib.sha512(seed).digest()
        a = _clamp(digest[:32])
        prefix = digest[32:]
        public = _encode_point(_base_mult(a))
        if len(_EXPANDED_KEYS) >= _EXPANDED_KEYS_MAX:
            _EXPANDED_KEYS.clear()
        _EXPANDED_KEYS[seed] = expanded = (a, prefix, public)
    return expanded


# Decoded public keys: point decoding costs a field exponentiation, and
# verify paths see the same handful of signer keys over and over.
_DECODED_PUBLIC: dict[bytes, Point] = {}
_DECODED_PUBLIC_MAX = 8192


def _decode_public(public: bytes) -> Point:
    point = _DECODED_PUBLIC.get(public)
    if point is None:
        point = _decode_point(public)
        if len(_DECODED_PUBLIC) >= _DECODED_PUBLIC_MAX:
            _DECODED_PUBLIC.clear()
        _DECODED_PUBLIC[public] = point
    return point


def _reference_public_key(seed: bytes) -> bytes:
    return _expand_seed(seed)[2]


def _reference_sign(seed: bytes, message: bytes) -> bytes:
    a, prefix, public = _expand_seed(seed)
    r = _sha512_int(prefix, message) % _L
    r_point = _encode_point(_base_mult(r))
    k = _sha512_int(r_point, public, message) % _L
    s = (r + k * a) % _L
    return r_point + s.to_bytes(32, "little")


def _reference_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    if len(signature) != 64 or len(public) != 32:
        return False
    try:
        a_point = _decode_public(public)
        r_point = _decode_point(signature[:32])
    except VerificationError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    k = _sha512_int(signature[:32], public, message) % _L
    left = _base_mult(s)
    right = _point_add(r_point, _scalar_mult(a_point, k))
    # Compare projective points: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
    x1, y1, z1, _ = left
    x2, y2, z2, _ = right
    return (x1 * z2 - x2 * z1) % _Q == 0 and (y1 * z2 - y2 * z1) % _Q == 0


class _ReferenceBackend:
    name = "python"
    public_key = staticmethod(_reference_public_key)
    sign = staticmethod(_reference_sign)
    verify = staticmethod(_reference_verify)


# ------------------------------------------------------- OpenSSL backend

#: ``EVP_PKEY_ED25519`` (= ``NID_ED25519``) in every OpenSSL since 1.1.1.
_EVP_PKEY_ED25519 = 1087

#: RFC 8032 §7.1 test vector 1 (empty message): the known answer the
#: native backend must reproduce before it is selected.
_KAT_SEED = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
)
_KAT_PUBLIC = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
)
_KAT_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)
#: The same key and message signed with R moved by the order-8 point
#: ``26e8958f…fc05`` (S recomputed for the moved R). The cofactorless
#: rule rejects it; a cofactored or random-linear-combination check would
#: accept it, so a library that does must not be selected.
_KAT_TORSION_SIGNATURE = bytes.fromhex(
    "030ebbcd7da06a0d1188bbe47275208b96c9d32e6e750955a7609d8010ba9222"
    "e25b9bae75c348d1d42d150e72d918eab1d68c3d0b9e7fa86c9ae98bb6b5fd0a"
)


def _canonical_public(public: bytes) -> bool:
    """A's encoding is canonical: ``y < p``, and no sign bit on the two
    ``x = 0`` points (``y = ±1``). libcrypto reduces ``y`` mod ``p`` and
    ignores the sign of 0, so this runs before it sees the key."""
    value = int.from_bytes(public, "little")
    y = value & ((1 << 255) - 1)
    if y >= _Q:
        return False
    return not (value >> 255 and y in (1, _Q - 1))


class _EvpKey:
    """One ``EVP_PKEY``, freed when the last reference to it goes, so a
    key evicted from a cache is never freed under a caller still using it."""

    __slots__ = ("handle", "_free")

    def __init__(self, handle: int, free) -> None:
        self.handle = handle
        self._free = free

    def __del__(self) -> None:
        self._free(self.handle)


# Bounds of the per-seed and per-public-key EVP_PKEY caches; fleets use a
# bounded set of keys, so a full cache is cleared rather than ordered.
_NATIVE_KEYS_MAX = 8192


class _OpenSSLBackend:
    """Ed25519 through libcrypto's one-shot EVP_DigestSign/Verify.

    Every function gets explicit ``argtypes`` and ``restype``: the ctypes
    default return type is a C ``int``, which truncates 64-bit pointers.
    Each call uses a fresh ``EVP_MD_CTX``. A failed call clears OpenSSL's
    thread-local error queue, which ``hashlib`` reads for its own errors.
    """

    name = "openssl"

    def __init__(self, lib) -> None:
        import ctypes

        pointer, size_t, cint = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int
        size_p = ctypes.POINTER(size_t)

        def bind(symbol: str, restype, *argtypes):
            function = getattr(lib, symbol)
            function.restype = restype
            function.argtypes = list(argtypes)
            return function

        raw_key = (cint, pointer, ctypes.c_char_p, size_t)
        self._new_private = bind("EVP_PKEY_new_raw_private_key", pointer, *raw_key)
        self._new_public = bind("EVP_PKEY_new_raw_public_key", pointer, *raw_key)
        self._get_public = bind(
            "EVP_PKEY_get_raw_public_key", cint, pointer, pointer, size_p
        )
        self._pkey_free = bind("EVP_PKEY_free", None, pointer)
        self._ctx_new = bind("EVP_MD_CTX_new", pointer)
        self._ctx_free = bind("EVP_MD_CTX_free", None, pointer)
        init = (pointer, pointer, pointer, pointer, pointer)
        self._sign_init = bind("EVP_DigestSignInit", cint, *init)
        self._sign = bind(
            "EVP_DigestSign", cint, pointer, pointer, size_p,
            ctypes.c_char_p, size_t,
        )
        self._verify_init = bind("EVP_DigestVerifyInit", cint, *init)
        self._verify = bind(
            "EVP_DigestVerify", cint, pointer, ctypes.c_char_p, size_t,
            ctypes.c_char_p, size_t,
        )
        self._clear_error = bind("ERR_clear_error", None)
        self._buffer = ctypes.create_string_buffer
        self._size = size_t
        self._byref = ctypes.byref
        self._private_keys: dict[bytes, tuple[_EvpKey, bytes]] = {}
        self._public_keys: dict[bytes, _EvpKey] = {}

    def self_test(self) -> bool:
        try:
            return (
                self.public_key(_KAT_SEED) == _KAT_PUBLIC
                and self.sign(_KAT_SEED, b"") == _KAT_SIGNATURE
                and self.verify(_KAT_PUBLIC, b"", _KAT_SIGNATURE)
                and not self.verify(_KAT_PUBLIC, b"", _KAT_TORSION_SIGNATURE)
            )
        except (VerificationError, MemoryError):
            return False

    def _private(self, seed: bytes) -> tuple[_EvpKey, bytes]:
        entry = self._private_keys.get(seed)
        if entry is None:
            handle = self._new_private(_EVP_PKEY_ED25519, None, bytes(seed), 32)
            if not handle:
                self._clear_error()
                raise VerificationError("libcrypto refused the private key")
            key = _EvpKey(handle, self._pkey_free)
            public = self._buffer(32)
            size = self._size(32)
            if self._get_public(handle, public, self._byref(size)) != 1:
                self._clear_error()
                raise VerificationError("libcrypto could not derive the public key")
            if len(self._private_keys) >= _NATIVE_KEYS_MAX:
                self._private_keys.clear()
            self._private_keys[seed] = entry = (key, public.raw)
        return entry

    def public_key(self, seed: bytes) -> bytes:
        return self._private(seed)[1]

    def sign(self, seed: bytes, message: bytes) -> bytes:
        key = self._private(seed)[0]
        if type(message) is not bytes:  # c_char_p takes bytes without a copy
            message = bytes(message)
        signature = self._buffer(64)
        size = self._size(64)
        ctx = self._ctx_new()
        if not ctx:
            raise MemoryError("EVP_MD_CTX_new failed")
        try:
            ok = (
                self._sign_init(ctx, None, None, None, key.handle) == 1
                and self._sign(
                    ctx, signature, self._byref(size), message, len(message)
                ) == 1
            )
        finally:
            self._ctx_free(ctx)
        if not ok or size.value != 64:
            self._clear_error()
            raise VerificationError("libcrypto failed to sign")
        return signature.raw

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        if len(signature) != 64 or len(public) != 32:
            return False
        key = self._public_keys.get(public)
        if key is None:
            public = bytes(public)
            if not _canonical_public(public):
                return False
            handle = self._new_public(_EVP_PKEY_ED25519, None, public, 32)
            if not handle:
                self._clear_error()
                return False
            key = _EvpKey(handle, self._pkey_free)
            if len(self._public_keys) >= _NATIVE_KEYS_MAX:
                self._public_keys.clear()
            self._public_keys[public] = key
        if type(message) is not bytes:
            message = bytes(message)
        if type(signature) is not bytes:
            signature = bytes(signature)
        ctx = self._ctx_new()
        if not ctx:
            raise MemoryError("EVP_MD_CTX_new failed")
        try:
            ok = (
                self._verify_init(ctx, None, None, None, key.handle) == 1
                and self._verify(ctx, signature, 64, message, len(message)) == 1
            )
        finally:
            self._ctx_free(ctx)
        if not ok:
            self._clear_error()
        return ok


def _load_openssl() -> _OpenSSLBackend | None:
    """The libcrypto backend, or None when the library or its symbols are
    missing or it fails the known-answer self-test.

    Symbols are looked up through ``_hashlib``'s handle: ``dlsym`` on a
    handle also searches the libraries it was linked against, so this
    reaches the libcrypto hashlib already mapped instead of loading one.
    """
    try:
        import ctypes

        import _hashlib

        backend = _OpenSSLBackend(ctypes.CDLL(_hashlib.__file__))
    except (ImportError, OSError, AttributeError):
        return None
    return backend if backend.self_test() else None


# ------------------------------------------------------------ public API

_BACKEND: _OpenSSLBackend | _ReferenceBackend | None = None


def _backend() -> _OpenSSLBackend | _ReferenceBackend:
    """The selected backend; chosen on first use, so importing this module
    opens no library."""
    global _BACKEND
    if _BACKEND is None:
        _BACKEND = _load_openssl() or _ReferenceBackend()
    return _BACKEND


def backend_name() -> str:
    """``"openssl"`` or ``"python"``: which backend signs and verifies."""
    return _backend().name


def _batch_failures(verify, items: list[tuple[bytes, bytes, bytes]]) -> list[int]:
    return [
        index
        for index, (public, message, signature) in enumerate(items)
        if not verify(public, message, signature)
    ]


def ed25519_public_key(seed: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte seed."""
    if len(seed) != 32:
        raise VerificationError("seed must be 32 bytes")
    return _backend().public_key(seed)


def ed25519_sign(seed: bytes, message: bytes) -> bytes:
    """Produce a 64-byte RFC 8032 signature (deterministic, so both
    backends return the same bytes)."""
    if len(seed) != 32:
        raise VerificationError("seed must be 32 bytes")
    return _backend().sign(seed, message)


def ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature; returns False rather than raising on mismatch."""
    return _backend().verify(public, message, signature)


def ed25519_batch_verify(
    items: list[tuple[bytes, bytes, bytes]],
) -> list[int]:
    """Indices of the invalid ``(public, message, signature)`` items, in
    order (empty list = all valid).

    Exactly the items :func:`ed25519_verify` rejects, checked one by one.
    A random-linear-combination batch cannot be used: on inputs with a
    small-order component it disagrees with the cofactorless rule (it
    accepts a torsion-tainted R for one coefficient draw in eight).
    """
    return _batch_failures(_backend().verify, items)

# ------------------------------------------------------------- key pairs


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair. ``address`` is sha256(public)[:16] hex."""

    seed: bytes
    public: bytes

    @classmethod
    def generate(cls) -> "KeyPair":
        seed = secrets.token_bytes(32)
        return cls(seed, ed25519_public_key(seed))

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        return cls(seed, ed25519_public_key(seed))

    @classmethod
    def deterministic(cls, label: str) -> "KeyPair":
        """A reproducible key pair for simulations (NOT for secrets)."""
        return cls.from_seed(hashlib.sha256(label.encode("utf-8")).digest())

    @property
    def address(self) -> str:
        return hashlib.sha256(self.public).hexdigest()[:32]

    def sign(self, message: bytes) -> bytes:
        return ed25519_sign(self.seed, message)

    def verify_own(self, message: bytes, signature: bytes) -> bool:
        return ed25519_verify(self.public, message, signature)


def verify_signature(public: bytes, message: bytes, signature: bytes) -> bool:
    """Module-level verify, for callers that only hold the public key."""
    return ed25519_verify(public, message, signature)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()
