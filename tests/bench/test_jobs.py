"""The parallel bench fan-out and the simulator-throughput metric.

``--jobs N`` may only change wall-clock, never results: records merged
from worker processes must be byte-identical to a serial run once the
host-dependent fields (timestamp, wall seconds, cycles/second) are
stripped.  The throughput section itself must always be present, sane,
and gated by the regression tolerances.
"""

import glob
import json

from repro.bench.record import build_record, stable_view
from repro.bench.regression import compare_records
from repro.bench.runner import (
    FIGURE_SCHEMES,
    BenchScale,
    build_figures,
    select_figures,
)
from repro.cli import main as cli_main

#: Small enough for test runtime, big enough to produce nonzero series.
TINY = BenchScale(
    name="tiny",
    units_single=40, units_multi=20,
    warmup_single=10, warmup_multi=5,
    multi_cores=2,
    sizes_single=(16384,), sizes_multi=(16384,),
    breakdown_size=16384,
    rr_sizes=(1024,), rr_transactions=20, rr_warmup=5,
    memcached_cores=2, memcached_tpc=15, memcached_warmup=5,
    storage_block_sizes=(4096,), storage_ops=30, storage_warmup=5,
)

_TWO_FIGURES = ["storage", "fig05"]


def _stable_json(record: dict) -> str:
    return json.dumps(stable_view(record), sort_keys=True)


def test_parallel_build_matches_serial():
    specs = select_figures(_TWO_FIGURES)
    serial_figures, serial_tp = build_figures(specs, TINY, jobs=1,
                                              label="test")
    parallel_figures, parallel_tp = build_figures(specs, TINY, jobs=2,
                                                  label="test")
    assert parallel_figures == serial_figures
    # Figures come back merged in spec order, not completion order.
    assert list(parallel_figures) == _TWO_FIGURES
    assert list(parallel_tp) == _TWO_FIGURES + ["overall"]
    # Simulated cycles and units are deterministic; only wall fields
    # may differ.
    for name in parallel_tp:
        for key in ("sim_cycles", "units"):
            assert parallel_tp[name][key] == serial_tp[name][key]
        assert parallel_tp[name]["units"] > 0
        assert parallel_tp[name]["units_per_wall_second"] > 0
        assert parallel_tp[name]["sim_cycles_per_wall_second"] > 0


def test_bench_jobs_records_byte_identical(tmp_path):
    """End to end: ``repro bench --jobs 4`` and ``--jobs 1`` emit
    byte-identical merged records, modulo the timestamp and the
    wall-clock throughput fields."""
    records = {}
    for jobs in (1, 4):
        out = tmp_path / f"jobs{jobs}"
        status = cli_main(["bench", "--quick", "--only", "storage",
                           "--jobs", str(jobs), "--out", str(out)])
        assert status == 0
        (path,) = glob.glob(str(out / "BENCH_*.json"))
        with open(path) as fh:
            records[jobs] = json.load(fh)
    assert _stable_json(records[1]) == _stable_json(records[4])
    assert records[4]["throughput"]["storage"][
        "units_per_wall_second"] > 0


def _record_with_rate(rate: int, sim_rate: int = 1_000_000) -> dict:
    entry = {"sim_cycles": 1_000_000, "units": rate, "wall_seconds": 1.0,
             "sim_cycles_per_wall_second": sim_rate,
             "units_per_wall_second": rate}
    throughput = {"fig05": dict(entry), "overall": dict(entry)}
    return build_record(mode="quick", figures={}, schemes=FIGURE_SCHEMES,
                        throughput=throughput)


def test_throughput_gate_trips_on_collapse():
    baseline = _record_with_rate(1_000_000)
    slowed = _record_with_rate(100_000)        # 10x slower: beyond band
    regressions = compare_records(baseline, slowed)
    assert [r.metric for r in regressions] \
        == ["units_per_wall_second"] * 2
    assert {r.figure for r in regressions} == {"fig05", "overall"}


def test_sim_cycles_rate_is_report_only():
    """A simulated scheme that got cheaper lowers sim cycles per wall
    second at equal work; only the units rate is gated."""
    baseline = _record_with_rate(1_000_000)
    cheaper_scheme = _record_with_rate(1_000_000, sim_rate=10_000)
    assert compare_records(baseline, cheaper_scheme) == []


def test_throughput_gate_tolerates_host_variance():
    baseline = _record_with_rate(1_000_000)
    half = _record_with_rate(500_000)          # 2x slower: within band
    assert compare_records(baseline, half) == []
    faster = _record_with_rate(5_000_000)      # improvements never trip
    assert compare_records(baseline, faster) == []


def test_throughput_gate_skips_legacy_baselines():
    """A baseline recorded before the throughput section gates nothing."""
    legacy = build_record(mode="quick", figures={}, schemes=FIGURE_SCHEMES)
    current = _record_with_rate(1)
    assert compare_records(legacy, current) == []


def test_capture_tax_is_reported_per_figure_and_report_only():
    """Each figure's entry carries the captured / uncaptured wall ratio
    of its first point; the overall entry has none, the stable view
    strips it, and the gate ignores it."""
    specs = select_figures(["fig05"])
    _, throughput = build_figures(specs, TINY, jobs=1, label="test")
    assert throughput["fig05"]["capture_tax"] > 0
    assert "capture_tax" not in throughput["overall"]
    record = build_record(mode="quick", figures={}, schemes=FIGURE_SCHEMES,
                          throughput=throughput)
    assert "capture_tax" not in stable_view(record)["throughput"]["fig05"]
    taxed = json.loads(json.dumps(record))
    taxed["throughput"]["fig05"]["capture_tax"] *= 100
    assert compare_records(record, taxed) == []
