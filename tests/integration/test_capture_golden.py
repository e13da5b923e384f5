"""Golden capture output: cheaper recorders must record the same values.

Each digest is the sha256 of everything one tiny capture-on run
recorded, read after the workload driver returned (so what the driver
records while tearing its queues down is covered too):

* the span trie (``spans.to_dict()``) plus opened/closed counts;
* the tracer's JSONL export plus ``emitted``, ``dropped`` and
  ``counts_by_kind()``;
* ``metrics.snapshot()``;
* the exposure, request and lock-contention summaries;
* the phase timeline.

The values were computed before the recorder hot paths were made
cheaper.  A change that only speeds up recording leaves every digest as
it is; one that moves, adds or drops a recorded value fails here.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.obs.context import Observability
from repro.workloads import (
    MemcachedConfig,
    StreamConfig,
    run_memcached,
    run_tcp_stream_rx,
)

SCHEMES = ("identity-strict", "identity-deferred",
           "identity-deferred-bounded", "copy", "no-iommu")

#: Small enough that the busiest points evict (``dropped > 0``) while
#: the others keep their whole trace.
TRACE_CAPACITY = 4096

POINTS = {
    "rx-1core": lambda scheme, obs: run_tcp_stream_rx(StreamConfig(
        scheme=scheme, message_size=65536, cores=1, units_per_core=20,
        warmup_units=4, obs=obs)),
    "rx-2core": lambda scheme, obs: run_tcp_stream_rx(StreamConfig(
        scheme=scheme, message_size=16384, cores=2, units_per_core=12,
        warmup_units=3, obs=obs)),
    "memcached-2core": lambda scheme, obs: run_memcached(MemcachedConfig(
        scheme=scheme, cores=2, transactions_per_core=8,
        warmup_transactions=2, value_size=1024, get_fraction=0.9,
        seed=7, obs=obs)),
}

GOLDEN = {
    ('rx-1core', 'identity-strict'):
        "af45e5128a74ce117dd1764addaaf33b2f09f045439859eacd825b23492e10a0",
    ('rx-1core', 'identity-deferred'):
        "51bfc46547bf76c62ca70fff003fcaacab6f6a3a1d8f56181ee23c05d2fbadd6",
    ('rx-1core', 'identity-deferred-bounded'):
        "2d4570a292e00e77d90befc78bc9832e24f7d366d8eeead30230dff4cd60caf1",
    ('rx-1core', 'copy'):
        "58b9a15edfbb8c276959d9b68b6da0c2eaf56596c421033caff35a431a890d6d",
    ('rx-1core', 'no-iommu'):
        "9195fe006e13f04ba315ba12772bc6f916517c263c65a84228247cbba1980725",
    ('rx-2core', 'identity-strict'):
        "5af5c4223adda3eb8ce92df2b23a8959c88ef93718333bd81507401bf9040157",
    ('rx-2core', 'identity-deferred'):
        "58011b0303d86126fc96fa5fe01a8d493296a24dea201b7d8d6f5ca2f52c6bea",
    ('rx-2core', 'identity-deferred-bounded'):
        "6b471892d885905d8d5ea4b25fa3efb9bd381dc50fe4ca81502b1219f70073c2",
    ('rx-2core', 'copy'):
        "c6dc958ea973a454063e9cd8456a6a41fb7bb70d47f7e1a9a070725147de2020",
    ('rx-2core', 'no-iommu'):
        "b84967873b79c2af5c99a6416e21c106089d125cae852742ba6407265cdc51ea",
    ('memcached-2core', 'identity-strict'):
        "d65b3d2d02eaacc98c285c86f6ac25d83ed165145a796facfb4b7f040e6c0e79",
    ('memcached-2core', 'identity-deferred'):
        "826bd68f22ee2f679b887e057a17b86e81aa15ec577d3067bc3aa51f3b473101",
    ('memcached-2core', 'identity-deferred-bounded'):
        "ab10e33f1a98d08c97c1cd7611899c4a87291c5e3597d48641be85894d43e986",
    ('memcached-2core', 'copy'):
        "93d9b60dde2edd3951fbe8f69607009fdc12268960483372112b64758b64860e",
    ('memcached-2core', 'no-iommu'):
        "8926ad211f9b229ec82ee8740e59108f5de3a9fdc9a47b39c7d8f8dfd7c3d50b",
}


def recorded(obs: Observability) -> dict:
    """Every value the capture layer recorded, in canonical form."""
    tracer = obs.tracer
    return {
        "spans": obs.spans.to_dict(),
        "spans_opened": obs.spans.opened,
        "spans_closed": obs.spans.closed,
        "trace": tracer.to_jsonl(),
        "trace_emitted": tracer.emitted,
        "trace_dropped": tracer.dropped,
        "trace_kinds": dict(tracer.counts_by_kind()),
        "metrics": obs.metrics.snapshot(),
        "exposure": obs.exposure.summary(),
        "requests": obs.requests.summary(),
        "locks": obs.locks.snapshot(),
        "phases": [dataclasses.asdict(p) for p in obs.phases],
    }


def capture_digest(point: str, scheme: str) -> str:
    obs = Observability.capture(trace_capacity=TRACE_CAPACITY)
    POINTS[point](scheme, obs)
    blob = json.dumps(recorded(obs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("point,scheme", sorted(GOLDEN))
def test_capture_output_matches_golden(point, scheme):
    assert capture_digest(point, scheme) == GOLDEN[(point, scheme)]


def test_golden_covers_every_point_and_scheme():
    assert set(GOLDEN) == {(p, s) for p in POINTS for s in SCHEMES}
