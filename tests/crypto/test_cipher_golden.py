"""Pinned ciphertext digests: the symmetric ciphers' bytes cannot drift.

Both ciphers and the three [TNP14] collection paths are hashed into one
SHA-256 digest each, and the digests are pinned to the values the
``hmac.new``-based ciphers produced. Any change to a single ciphertext,
group tag or bucket id — a reordered nonce draw, a different subkey, a
keystream off by one block — fails these tests. A deliberate change of
the wire format must re-pin them and say why.
"""

import hashlib
import random

import pytest

from repro.crypto.symmetric import DeterministicCipher, NondeterministicCipher
from repro.globalq.histogram import EquiDepthBucketizer
from repro.globalq.noise import WHITE_NOISE, NoisePlan
from repro.globalq.parallel import ShardedCollector
from repro.globalq.queries import AggregateQuery
from repro.service.population import slim_population
from repro.workloads.people import CITIES

KEY_LENGTHS = (16, 32, 39, 64, 65, 100)
PLAINTEXT_LENGTHS = (0, 1, 17, 31, 32, 33, 64, 65, 200)

CIPHER_DIGEST = (
    "399f302d7cb92da1f8240de956895c9452c7fc720f8525245753573c676c29a9"
)

CONTRIBUTION_DIGESTS = {
    "secure-agg": (
        "f7bae3d9771672b21c6b89f7b12f01d9d041486d3f4ea929b73995d28c65852d"
    ),
    "noise": (
        "1e9002da55fb4931207c5300d538c986e4bbcbbacc4001b2c73ad86f3d601a20"
    ),
    "histogram": (
        "c34c6c4a9181ee2061807fa3be40fe0a2c11be032ad7f57483f5feec16dd07cc"
    ),
}


def _pattern(length: int, step: int) -> bytes:
    return bytes((step * i + length) % 256 for i in range(length))


def _absorb(digest, data: bytes | None) -> None:
    if data is None:
        digest.update(b"\xff\xff\xff\xff")
        return
    digest.update(len(data).to_bytes(4, "little"))
    digest.update(data)


def cipher_digest() -> str:
    digest = hashlib.sha256()
    for key_length in KEY_LENGTHS:
        key = _pattern(key_length, 7)
        deterministic = DeterministicCipher(key)
        nondeterministic = NondeterministicCipher(
            key, rng=random.Random(key_length)
        )
        for plaintext_length in PLAINTEXT_LENGTHS:
            plaintext = _pattern(plaintext_length, 13)
            for cipher in (deterministic, nondeterministic):
                ciphertext = cipher.encrypt(plaintext)
                assert cipher.decrypt(ciphertext) == plaintext
                _absorb(digest, ciphertext)
    return digest.hexdigest()


def contribution_digest(family: str) -> str:
    population = slim_population(1000)
    nodes = population.snapshot().nodes
    collector = ShardedCollector(workers=1, base_seed=11)
    if family == "secure-agg":
        collected = collector.collect(
            nodes, AggregateQuery.sum("salary"), population.fleet
        )
    elif family == "noise":
        collected = collector.collect(
            nodes,
            AggregateQuery.count(group_by="city"),
            population.fleet,
            with_group_tag=True,
            noise=NoisePlan(WHITE_NOISE, 0.3, tuple(CITIES)),
        )
        assert sum(item.fake_count for item in collected) > 0
    else:
        collected = collector.collect(
            nodes,
            AggregateQuery.sum("salary", group_by="city"),
            population.fleet,
            bucketizer=EquiDepthBucketizer(
                {city: 1.0 for city in CITIES}, 4
            ),
        )
    digest = hashlib.sha256()
    for item in collected:
        digest.update(item.pds_id.to_bytes(4, "little"))
        for contribution in item.contributions:
            _absorb(digest, contribution.blob)
            _absorb(digest, contribution.group_tag)
            bucket = contribution.bucket_id
            _absorb(digest, None if bucket is None else str(bucket).encode())
    return digest.hexdigest()


def test_cipher_ciphertexts_are_pinned():
    assert cipher_digest() == CIPHER_DIGEST


@pytest.mark.parametrize("family", sorted(CONTRIBUTION_DIGESTS))
def test_collected_contributions_are_pinned(family):
    assert contribution_digest(family) == CONTRIBUTION_DIGESTS[family]
