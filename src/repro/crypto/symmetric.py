"""Symmetric encryption: deterministic vs non-deterministic, as in [TNP14].

Part III's protocol families are distinguished by which symmetric scheme the
tokens use to push tuples to the SSI:

* **Non-deterministic** (:class:`NondeterministicCipher`): fresh nonce per
  encryption, so equal plaintexts yield unlinkable ciphertexts. Used by the
  secure-aggregation family — the SSI learns nothing, not even equality.
* **Deterministic** (:class:`DeterministicCipher`): SIV-style, equal
  plaintexts yield equal ciphertexts. Enables the SSI to group/partition by
  ciphertext (noise- and histogram-based families) at the price of leaking
  frequencies — the leak experiment E8 quantifies.

Both are HMAC-SHA256-CTR constructions: a keystream PRF every secure MCU's
hardware crypto block can supply. Simulation substrate, not audited crypto.

The PRF is :class:`Prf`, HMAC-SHA256 with its key schedule done once: the
RFC 2104 inner and outer pads are hashed when the key is bound, and each
call only copies the two SHA-256 states, so it costs two compression-
function runs per short message instead of four. Cipher subkeys come from
:func:`derived_prf`, a bounded cache keyed on ``(key, label)``, so building
a cipher under a key seen before — one per PDS per census — does no hashing.
Every output is byte-identical to ``hmac.new(key, msg, hashlib.sha256)``.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import random

from repro.errors import IntegrityError

_NONCE_BYTES = 16
_TAG_BYTES = 16
_DIGEST_BYTES = 32
_BLOCK_BYTES = 64
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))
#: Derived subkeys kept by :func:`derived_prf`. Each cipher holds two, and
#: a population shares one fleet key, so this only bounds memory when many
#: distinct keys pass through one process.
DERIVED_KEY_CACHE_SIZE = 256


class Prf:
    """HMAC-SHA256 under one key, with the RFC 2104 pads pre-hashed.

    ``Prf(key)(msg) == hmac.new(key, msg, hashlib.sha256).digest()``. The
    bound states are only ever copied, so one instance may be shared by
    threads.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK_BYTES:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK_BYTES, b"\x00")
        self._inner = hashlib.sha256(key.translate(_INNER_PAD))
        self._outer = hashlib.sha256(key.translate(_OUTER_PAD))

    def __call__(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


@functools.lru_cache(maxsize=DERIVED_KEY_CACHE_SIZE)
def derived_prf(key: bytes, label: bytes) -> Prf:
    """The PRF under subkey ``HMAC(key, label)``, built once per pair."""
    return Prf(Prf(key)(label))


def _keystream(prf: Prf, nonce: bytes, length: int) -> bytes:
    """HMAC-SHA256 in counter mode."""
    blocks = [
        prf(nonce + counter.to_bytes(4, "little"))
        for counter in range((length + _DIGEST_BYTES - 1) // _DIGEST_BYTES)
    ]
    return b"".join(blocks)[:length]


def _xor(data: bytes, pad: bytes) -> bytes:
    # One big-int XOR instead of a per-byte Python loop: ~10x less time on
    # the million-contribution collection phases of bench E23.
    length = len(data)
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(pad[:length], "little")
    ).to_bytes(length, "little")


class DeterministicCipher:
    """SIV-style deterministic authenticated encryption.

    ``E(m) = siv || (m XOR PRF(k_enc, siv))`` with
    ``siv = HMAC(k_mac, m)[:16]`` — deterministic, self-authenticating.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._mac = derived_prf(key, b"det-mac")
        self._enc = derived_prf(key, b"det-enc")

    def encrypt(self, plaintext: bytes) -> bytes:
        siv = self._mac(plaintext)[:_NONCE_BYTES]
        body = _xor(plaintext, _keystream(self._enc, siv, len(plaintext)))
        return siv + body

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _NONCE_BYTES:
            raise IntegrityError("ciphertext too short")
        siv, body = ciphertext[:_NONCE_BYTES], ciphertext[_NONCE_BYTES:]
        plaintext = _xor(body, _keystream(self._enc, siv, len(body)))
        expected = self._mac(plaintext)[:_NONCE_BYTES]
        if not hmac.compare_digest(siv, expected):
            raise IntegrityError("deterministic ciphertext failed authentication")
        return plaintext


class NondeterministicCipher:
    """Nonce-based authenticated encryption (encrypt-then-MAC).

    ``E(m) = nonce || c || HMAC(k_mac, nonce || c)`` with a fresh random
    nonce, so two encryptions of the same plaintext are unlinkable.
    """

    def __init__(self, key: bytes, rng: random.Random | None = None) -> None:
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._mac = derived_prf(key, b"nd-mac")
        self._enc = derived_prf(key, b"nd-enc")
        self._rng = rng or random.Random()

    def encrypt(self, plaintext: bytes) -> bytes:
        nonce = self._rng.getrandbits(8 * _NONCE_BYTES).to_bytes(
            _NONCE_BYTES, "little"
        )
        body = _xor(plaintext, _keystream(self._enc, nonce, len(plaintext)))
        tag = self._mac(nonce + body)[:_TAG_BYTES]
        return nonce + body + tag

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _NONCE_BYTES + _TAG_BYTES:
            raise IntegrityError("ciphertext too short")
        nonce = ciphertext[:_NONCE_BYTES]
        body = ciphertext[_NONCE_BYTES:-_TAG_BYTES]
        tag = ciphertext[-_TAG_BYTES:]
        expected = self._mac(nonce + body)[:_TAG_BYTES]
        if not hmac.compare_digest(tag, expected):
            raise IntegrityError("ciphertext failed authentication")
        return _xor(body, _keystream(self._enc, nonce, len(body)))
