"""Host memory follows written bytes, not ring size or page size.

Under ``copy`` the NIC writes into shadow buffers, and RX-ring teardown
unmaps every posted buffer: it reads the shadow through the IP-length
hint and copies the hinted bytes back to the OS buffer.  Buffers the NIC
never wrote hold only zeros, so that read and copy must not cost a page
frame.  Beside ``identity-strict`` on the same point, ``copy`` may then
hold exactly one more frame per received packet (its shadow), and none
for the rest of each 512-entry ring.

A frame holds its page only up to the last byte written into it, so
memcached's short requests and responses cost far less than a page each.
"""

import pytest

from repro.sim.units import PAGE_SIZE
from repro.workloads import StreamConfig, memcached, netperf
from repro.workloads.memcached import MemcachedConfig


def _recording(monkeypatch, module):
    """Make ``module._build_system`` keep each built system by scheme."""
    built = {}
    build = module._build_system

    def recording_build(cfg, *args, **kwargs):
        built[cfg.scheme] = build(cfg, *args, **kwargs)
        return built[cfg.scheme]

    monkeypatch.setattr(module, "_build_system", recording_build)
    return built


def test_copy_holds_one_shadow_frame_per_received_packet(monkeypatch):
    built = _recording(monkeypatch, netperf)
    for scheme in ("copy", "identity-strict"):
        netperf.run_tcp_stream_rx(StreamConfig(
            scheme=scheme, message_size=16384, cores=16, units_per_core=5,
            warmup_units=2))
    copy, strict = built["copy"], built["identity-strict"]
    assert copy.nic.stats.rx_frames == strict.nic.stats.rx_frames == 112
    assert (copy.machine.memory.resident_pages
            - strict.machine.memory.resident_pages
            == copy.nic.stats.rx_frames)


@pytest.mark.parametrize("scheme", ["identity-strict", "copy"])
def test_memcached_frames_hold_a_fraction_of_their_pages(monkeypatch,
                                                         scheme):
    built = _recording(monkeypatch, memcached)
    memcached.run_memcached(MemcachedConfig(
        scheme=scheme, cores=2, transactions_per_core=8,
        warmup_transactions=2, seed=7))
    memory = built[scheme].machine.memory
    assert memory.resident_pages > 0
    assert memory.resident_bytes < memory.resident_pages * PAGE_SIZE / 4
