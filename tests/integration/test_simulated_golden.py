"""Golden simulated output: host-speed work must not move the simulation.

Each digest is the sha256 of one tiny run's simulated row — units,
payload bytes, wall cycles, busy cycles and the sorted per-category
breakdown — for a TCP_STREAM RX point on 1 and 2 cores and a memcached
point, under four schemes.  The values were computed before the
single-page host fast paths existed.  A change that only makes the
simulator faster on the host leaves every digest as it is; one that
moves a simulated cycle, byte or unit fails here.
"""

import hashlib
import json

import pytest

from repro.workloads import (
    MemcachedConfig,
    StreamConfig,
    run_memcached,
    run_tcp_stream_rx,
)

SCHEMES = ("identity-strict", "identity-deferred", "copy", "no-iommu")

POINTS = {
    "rx-1core": lambda scheme: run_tcp_stream_rx(StreamConfig(
        scheme=scheme, message_size=65536, cores=1, units_per_core=60,
        warmup_units=10)),
    "rx-2core": lambda scheme: run_tcp_stream_rx(StreamConfig(
        scheme=scheme, message_size=16384, cores=2, units_per_core=30,
        warmup_units=5)),
    "memcached-2core": lambda scheme: run_memcached(MemcachedConfig(
        scheme=scheme, cores=2, transactions_per_core=20,
        warmup_transactions=4, value_size=1024, get_fraction=0.9,
        seed=7)),
}

GOLDEN = {
    ('rx-1core', 'identity-strict'):
        "2212e25ea74e713a5b2ff926f709f7863986c78bd3271f2cfacf9fea82479dd7",
    ('rx-1core', 'identity-deferred'):
        "95e0413b5eb8cabf133caf4ad56281753894082d6801f57b719ef1a57d22eacb",
    ('rx-1core', 'copy'):
        "e907410fafc82b1e8cdfb8f2e4dd2e05fcdb7457aea2050e764f59c55aa4b048",
    ('rx-1core', 'no-iommu'):
        "0a1b76befae3e00197a89957e7543ed7f3207f64fd356902aba193c511f64ff2",
    ('rx-2core', 'identity-strict'):
        "177227ac4aad8689f9660714d7c3b03936ba5ec1d1ba697f9dffe13b1a8eae44",
    ('rx-2core', 'identity-deferred'):
        "c45b600921d5583bf54c40623f9603e2d3af5629a30d9a6f37cb1fc8eddc444b",
    ('rx-2core', 'copy'):
        "dea2032ae00cfc101bd70ee3befd2e9dc6370b513000ebabe51db0ed621923dd",
    ('rx-2core', 'no-iommu'):
        "f79da4226dde46ded5d8420d521e21092cae805db3223a859267f4485d00dd0c",
    ('memcached-2core', 'identity-strict'):
        "4c604ebbd169b66aeb03c612e7abae8d4bbe6a88e19382eecf64707b9cc9f6a8",
    ('memcached-2core', 'identity-deferred'):
        "cb77d971fcc73ebd003233389fa0e27c96a2229258e420dae1e9b094d4033eff",
    ('memcached-2core', 'copy'):
        "2d9fa72e9e98065dd586dc3ffa4245bc6ea4af443f3bf4db4a9a43959410c384",
    ('memcached-2core', 'no-iommu'):
        "4f6de1ddb8cb5f95e283076b157139074a755a01164126c3752b779150619768",
}


def simulated_digest(point: str, scheme: str) -> str:
    result = POINTS[point](scheme)
    row = [result.units, result.payload_bytes, result.wall_cycles,
           result.busy_cycles, sorted(result.breakdown_cycles.items())]
    blob = json.dumps(row, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("point,scheme", sorted(GOLDEN))
def test_simulated_output_matches_golden(point, scheme):
    assert simulated_digest(point, scheme) == GOLDEN[(point, scheme)]


def test_golden_covers_every_point_and_scheme():
    assert set(GOLDEN) == {(p, s) for p in POINTS for s in SCHEMES}
