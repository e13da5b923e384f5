"""Seed, determinism and naming tests for the benchmark itself.

Run from the repository root: ``python3 -m pytest simbench``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from simbench.measure import end_to_end, per_layer  # noqa: E402
from simbench.suite import WORKLOADS, make_workload, run_pass  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_tiny_workload_digest_repeats():
    for name in WORKLOADS:
        first = run_pass(make_workload(name, 1, tiny=True))
        second = run_pass(make_workload(name, 1, tiny=True))
        assert not first.failures and not second.failures
        assert first.digest == second.digest


def test_kv8_key_stream_follows_seed():
    def key_seeds(seed):
        return {p.config.seed for p in make_workload("kv8-mixed", seed,
                                                     tiny=True).points}

    assert key_seeds(7) == key_seeds(7)
    assert key_seeds(7) != key_seeds(8)
    same = [run_pass(make_workload("kv8-mixed", 7, tiny=True)).digest
            for _ in range(2)]
    other = run_pass(make_workload("kv8-mixed", 8, tiny=True)).digest
    assert same[0] == same[1]
    assert other != same[0]


def test_rx_workloads_ignore_seed():
    for name in ("rx16-capture", "rx1-steady"):
        assert (run_pass(make_workload(name, 1, tiny=True)).digest
                == run_pass(make_workload(name, 2, tiny=True)).digest)


def test_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    names = ([w["name"] for w in bench["workloads"]]
             + list(declared["end_to_end"]) + list(declared["per_layer"]))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)

    e2e = end_to_end(make_workload("kv8-mixed", 1, tiny=True), seconds=0)
    layers = per_layer(make_workload("rx16-capture", 1, tiny=True),
                       seconds=0)
    for report, kind in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert report.failed == 0 and report.attempted > 0
        emitted = {name: m["unit"] for name, m in report.metrics.items()}
        assert emitted == declared[kind]
        assert all(NAME.fullmatch(name) for name in emitted)


def test_fails_without_the_simulator(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "simbench"), tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "rx1-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
