"""The precomputed-pad PRF behind the symmetric ciphers.

:class:`~repro.crypto.symmetric.Prf` must be HMAC-SHA256 exactly, the
census path must do no per-contribution key setup, and the derived-key
cache must stay bounded and safe under the service's worker threads.
"""

import hashlib
import hmac
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.symmetric import (
    DERIVED_KEY_CACHE_SIZE,
    DeterministicCipher,
    NondeterministicCipher,
    Prf,
    derived_prf,
)
from repro.globalq.queries import AggregateQuery
from repro.service.descriptor import (
    FAMILY_NOISE,
    FAMILY_SECURE_AGG,
    QueryDescriptor,
)
from repro.service.population import slim_population
from repro.service.reference import run_query
from repro.workloads.people import CITIES


class TestPrfIsHmac:
    @given(
        st.binary(min_size=16, max_size=200), st.binary(max_size=300)
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_hmac_sha256(self, key, message):
        expected = hmac.new(key, message, hashlib.sha256).digest()
        assert Prf(key)(message) == expected

    def test_block_boundary_keys(self):
        # 64 bytes is padded, 65 is hashed first (RFC 2104).
        for length in (0, 1, 63, 64, 65, 128):
            key = bytes(range(length))
            for message in (b"", b"m", b"x" * 64, b"y" * 119):
                assert Prf(key)(message) == hmac.new(
                    key, message, hashlib.sha256
                ).digest()


def _fail_hmac_new(*args, **kwargs):
    raise AssertionError("hmac.new called on the census path")


def test_warm_census_does_no_key_setup(monkeypatch):
    """After one warm-up, a query hashes no key: no HMAC key schedule and
    no derived-key cache miss for any per-PDS cipher."""
    population = slim_population(200)
    nodes = population.snapshot().nodes
    descriptors = [
        QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.sum("salary")),
        QueryDescriptor(
            FAMILY_NOISE,
            AggregateQuery.count(group_by="city"),
            noise_mode="white",
            noise_ratio=0.3,
        ),
    ]
    warm = [
        run_query(d, nodes, population.fleet, seed=5, domain=tuple(CITIES))
        for d in descriptors
    ]
    misses = derived_prf.cache_info().misses
    monkeypatch.setattr(hmac, "new", _fail_hmac_new)
    for descriptor, expected in zip(descriptors, warm):
        report = run_query(
            descriptor, nodes, population.fleet, seed=5,
            domain=tuple(CITIES),
        )
        assert report == expected
    assert derived_prf.cache_info().misses == misses


def test_shared_fleet_threads_match_serial_run():
    population = slim_population(300)
    nodes = population.snapshot().nodes
    fleet = population.fleet
    query = AggregateQuery.sum("salary", group_by="city")

    def encrypt_all():
        return [
            (c.blob, c.group_tag)
            for node in nodes
            for c in node.contributions(
                query, fleet, with_group_tag=True, cipher_seed=node.pds_id
            )
        ]

    serial = encrypt_all()
    derived_prf.cache_clear()
    results = [None] * 4

    def worker(slot):
        results[slot] = encrypt_all()

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == serial for result in results)


def test_derived_key_cache_is_bounded():
    derived_prf.cache_clear()
    for index in range(10_000):
        key = index.to_bytes(16, "little")
        DeterministicCipher(key)
        NondeterministicCipher(key)
    info = derived_prf.cache_info()
    assert info.maxsize == DERIVED_KEY_CACHE_SIZE
    assert info.currsize == DERIVED_KEY_CACHE_SIZE

