"""Host memory follows written bytes, not ring size.

Under ``copy`` the NIC writes into shadow buffers, and RX-ring teardown
unmaps every posted buffer: it reads the shadow through the IP-length
hint and copies the hinted bytes back to the OS buffer.  Buffers the NIC
never wrote hold only zeros, so that read and copy must not cost a page
frame.  Beside ``identity-strict`` on the same point, ``copy`` may then
hold exactly one more frame per received packet (its shadow), and none
for the rest of each 512-entry ring.
"""

from repro.workloads import StreamConfig, netperf


def test_copy_holds_one_shadow_frame_per_received_packet(monkeypatch):
    built = {}
    build = netperf._build_system

    def recording_build(cfg, *args, **kwargs):
        built[cfg.scheme] = build(cfg, *args, **kwargs)
        return built[cfg.scheme]

    monkeypatch.setattr(netperf, "_build_system", recording_build)
    for scheme in ("copy", "identity-strict"):
        netperf.run_tcp_stream_rx(StreamConfig(
            scheme=scheme, message_size=16384, cores=16, units_per_core=5,
            warmup_units=2))
    copy, strict = built["copy"], built["identity-strict"]
    assert copy.nic.stats.rx_frames == strict.nic.stats.rx_frames == 112
    assert (copy.machine.memory.resident_pages
            - strict.machine.memory.resident_pages
            == copy.nic.stats.rx_frames)
