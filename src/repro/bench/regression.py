"""Regression gating: compare a bench record against a baseline.

The gate matches series points between two records by
``(figure, scheme, workload, cores, param_*)``, applies per-metric
tolerance bands, and fails (exit status 1) when any matched point
regressed beyond tolerance.  For each regressed point it walks the two
span-attribution trees and names the subtree whose share of the run grew
the most — "`dma_unmap → lock_wait` went from 12% to 31%" is the
actionable sentence, not "throughput dropped".

The simulation is deterministic, so within one code version the
comparison is exact; the tolerance bands absorb intended small shifts
across versions (cost-model tweaks, workload refinements) while still
catching order-of-magnitude mistakes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import SpanNode
from repro.stats.timeline import render_span_tree

#: metric name -> (higher_is_better, relative tolerance).  A point
#: regresses when it moves beyond the tolerance in the *bad* direction;
#: improvements never trip the gate.
DEFAULT_TOLERANCES: Dict[str, Tuple[bool, float]] = {
    "throughput_gbps": (True, 0.05),
    "us_per_unit": (False, 0.05),
    "latency_us": (False, 0.05),
    "transactions_per_sec": (True, 0.05),
    # Security exposure (repro.obs.exposure).  Wider bands than the perf
    # metrics: workload refinements legitimately shift the integrals, but
    # a scheme whose stale window grows past 1.5x its baseline — or
    # appears where the baseline had none — is a protection regression.
    "exposure_stale_byte_cycles": (False, 0.5),
    "exposure_excess_byte_cycles": (False, 0.5),
    # Request-latency tails (repro.obs.requests).  Percentiles are
    # noisier than means — the further into the tail, the wider the
    # band — but a p99 that doubles is exactly what this layer exists
    # to catch.
    "latency_p50_us": (False, 0.10),
    "latency_p99_us": (False, 0.15),
    "latency_p999_us": (False, 0.25),
    # Scalability (repro.obs.scaling): within-run serialized shares.
    # These are ratios of deterministic cycle counts, so the bands only
    # need to absorb intended cost-model/workload shifts — a serial
    # fraction growing 15% past baseline is a scalability collapse in
    # the making (more spinning per unit of work), exactly what the
    # ROADMAP's per-core invalidation schemes must not regress.  The
    # zero-baseline rule applies: a scheme whose lock-wait share was
    # provably zero (no-iommu, single-core) starting to spin trips.
    "lock_wait_share": (False, 0.20),
    "scaling_serial_fraction": (False, 0.15),
    # Fleet capacity (repro.bench.fleet): max sustained users at the SLO
    # objective.  The search bisects to a coarse relative tolerance, so
    # the band absorbs one bisection step either way; a capacity that
    # drops past 25% of baseline is a real knee shift.  Breach windows
    # at the capacity point are zero by construction, so the
    # zero-baseline rule does the guarding: any breach appearing where
    # the baseline had none trips the gate.
    "fleet_capacity_users": (True, 0.25),
    "slo_breach_windows": (False, 0.5),
    # Simulator speed (record["throughput"], not a series metric):
    # simulated work units per host second.  It is the only
    # wall-clock-based number in the record, so the band must absorb host
    # variance between the baseline machine and the gating machine.  0.8
    # means the gate trips when the simulator runs at under 1/5th of the
    # baseline's rate — an order-of-magnitude event-loop regression, not
    # scheduler jitter.  ``sim_cycles_per_wall_second`` is report-only:
    # it rises when the simulated scheme is slower at equal work.
    "units_per_wall_second": (True, 0.8),
}


@dataclass(frozen=True)
class Regression:
    """One tolerance-band violation."""

    figure: str
    scheme: str
    key: str
    metric: str
    baseline: float
    current: float

    @property
    def change(self) -> float:
        """Signed relative change, current vs baseline."""
        if not self.baseline:
            return math.inf if self.current else 0.0
        return (self.current - self.baseline) / self.baseline


def _row_key(row: Dict) -> Tuple:
    params = tuple(sorted((k, v) for k, v in row.items()
                          if k.startswith("param_")))
    return (row.get("scheme"), row.get("workload"), row.get("cores"),
            params)


def _key_label(key: Tuple) -> str:
    scheme, workload, cores, params = key
    detail = ", ".join(f"{k[len('param_'):]}={v}" for k, v in params)
    return f"{scheme} {workload} cores={cores} ({detail})"


def compare_records(baseline: Dict, current: Dict,
                    tolerances: Optional[Dict[str, Tuple[bool, float]]]
                    = None) -> List[Regression]:
    """All tolerance violations between two records.

    Only points present in both records are compared, so a ``--only``
    or quick-mode run gates just the figures it ran.
    """
    tol = tolerances if tolerances is not None else DEFAULT_TOLERANCES
    regressions: List[Regression] = []
    base_figures = baseline.get("figures", {})
    for fig_name, cur_fig in current.get("figures", {}).items():
        base_fig = base_figures.get(fig_name)
        if base_fig is None:
            continue
        base_rows = {_row_key(row): row
                     for row in base_fig.get("series", ())}
        for row in cur_fig.get("series", ()):
            key = _row_key(row)
            base_row = base_rows.get(key)
            if base_row is None:
                continue
            for metric, (higher_is_better, band) in tol.items():
                base_val = base_row.get(metric)
                cur_val = row.get(metric)
                if base_val is None or cur_val is None:
                    continue
                if not base_val:
                    # Zero baseline: relative change is undefined, but a
                    # lower-is-better metric growing from exactly 0 is
                    # the clearest regression there is — a scheme whose
                    # exposure was provably zero now leaks.  Higher-is-
                    # better metrics can only improve from 0; skip.
                    if not higher_is_better and cur_val > 0:
                        regressions.append(Regression(
                            figure=fig_name,
                            scheme=str(row.get("scheme")),
                            key=_key_label(key), metric=metric,
                            baseline=float(base_val),
                            current=float(cur_val)))
                    continue
                change = (cur_val - base_val) / base_val
                bad = -change if higher_is_better else change
                if bad > band:
                    regressions.append(Regression(
                        figure=fig_name, scheme=str(row.get("scheme")),
                        key=_key_label(key), metric=metric,
                        baseline=float(base_val), current=float(cur_val)))
    regressions.extend(_compare_throughput(baseline, current, tol))
    return regressions


def _compare_throughput(baseline: Dict, current: Dict,
                        tol: Dict[str, Tuple[bool, float]],
                        ) -> List[Regression]:
    """Gate the per-figure simulator-speed section, when both records
    carry one (records predating the section pass trivially)."""
    metric = "units_per_wall_second"
    if metric not in tol:
        return []
    higher_is_better, band = tol[metric]
    base_tp = baseline.get("throughput") or {}
    regressions: List[Regression] = []
    for name, cur_entry in (current.get("throughput") or {}).items():
        base_entry = base_tp.get(name)
        if not isinstance(base_entry, dict) \
                or not isinstance(cur_entry, dict):
            continue
        base_val = base_entry.get(metric)
        cur_val = cur_entry.get(metric)
        if not base_val or cur_val is None:
            continue
        change = (cur_val - base_val) / base_val
        bad = -change if higher_is_better else change
        if bad > band:
            regressions.append(Regression(
                figure=name, scheme="*",
                key=f"simulator throughput ({name})", metric=metric,
                baseline=float(base_val), current=float(cur_val)))
    return regressions


# ----------------------------------------------------------------------
# Span attribution of a regression.
# ----------------------------------------------------------------------
def blame_span(base_tree: SpanNode,
               cur_tree: SpanNode) -> Optional[Tuple[Tuple[str, ...],
                                                     float, float]]:
    """The span path whose share of the run grew the most.

    Returns ``(path, baseline_share, current_share)`` or ``None`` when
    no path grew.  Shares (fractions of total cycles) rather than raw
    cycles keep the verdict meaningful across quick/full scales.
    Delegates to the diff engine's share-based blame so the gate's
    one-line verdict and ``repro diff`` agree by construction.
    """
    from repro.obs.diff.spandiff import share_blame

    return share_blame(base_tree, cur_tree)


def _span_verdict(baseline: Dict, current: Dict,
                  regression: Regression) -> str:
    base_spans = (baseline.get("figures", {})
                  .get(regression.figure, {}).get("spans", {}))
    cur_spans = (current.get("figures", {})
                 .get(regression.figure, {}).get("spans", {}))
    base_data = base_spans.get(regression.scheme)
    cur_data = cur_spans.get(regression.scheme)
    if base_data is None or cur_data is None:
        return "    (no span data to attribute the regression)"
    base_tree = SpanNode.from_dict(base_data)
    cur_tree = SpanNode.from_dict(cur_data)
    blamed = blame_span(base_tree, cur_tree)
    if blamed is None:
        return "    (no span subtree grew; attribution inconclusive)"
    path, base_share, cur_share = blamed
    lines = [f"    offending span subtree: {' -> '.join(path)} "
             f"({base_share:.1%} of cycles -> {cur_share:.1%})"]
    node = cur_tree
    for name in path:
        node = node.children[name]
    subtree = render_span_tree(node)
    lines.extend("    " + line for line in subtree.splitlines()[1:])
    return "\n".join(lines)


def render_gate_report(baseline: Dict, current: Dict,
                       regressions: List[Regression]) -> str:
    """Human-readable verdict for the whole comparison."""
    base_fp = baseline.get("fingerprint", {})
    cur_fp = current.get("fingerprint", {})
    lines = [
        "== regression gate ==",
        f"baseline: sha={base_fp.get('git_sha', '?')[:12]} "
        f"mode={base_fp.get('mode', '?')}",
        f"current : sha={cur_fp.get('git_sha', '?')[:12]} "
        f"mode={cur_fp.get('mode', '?')}",
    ]
    if base_fp.get("mode") != cur_fp.get("mode"):
        lines.append("warning: comparing records of different modes; "
                     "only shared points are gated")
    if base_fp.get("cost_model") != cur_fp.get("cost_model"):
        lines.append("warning: cost-model constants differ between "
                     "baseline and current")
    if not regressions:
        lines.append("PASS: no metric regressed beyond tolerance")
        return "\n".join(lines)
    lines.append(f"FAIL: {len(regressions)} regression(s)")
    for reg in regressions:
        lines.append(
            f"  {reg.figure} {reg.key}: {reg.metric} "
            f"{reg.baseline:g} -> {reg.current:g} ({reg.change:+.1%})")
        lines.append(_span_verdict(baseline, current, reg))
    return "\n".join(lines)


def write_gate_diffs(baseline: Dict, current: Dict,
                     regressions: List[Regression],
                     out_dir: str) -> List[str]:
    """One full differential report per regressed figure.

    The gate's inline verdict is one line; the emitted
    ``diff_<figure>.md`` is the whole story — per-unit span-trie deltas,
    metric movement, quantile shifts — restricted to the figure that
    tripped.  Returns the written paths (skipping figures neither
    record carries points for, e.g. the simulator-throughput section).
    """
    from pathlib import Path

    from repro.obs.diff.engine import build_diff
    from repro.obs.diff.render import render_diff_markdown
    from repro.obs.diff.sides import DiffSide, side_from_record

    base_side = side_from_record(baseline, "baseline")
    cur_side = side_from_record(current, "current")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    for figure in sorted({reg.figure for reg in regressions}):
        fig_a = DiffSide(label=f"baseline:{figure}", kind="bench")
        fig_a.points = {key: point
                        for key, point in base_side.points.items()
                        if key[0] == figure}
        fig_b = DiffSide(label=f"current:{figure}", kind="bench")
        fig_b.points = {key: point
                        for key, point in cur_side.points.items()
                        if key[0] == figure}
        if not fig_a.points or not fig_b.points:
            continue
        path = out / f"diff_{figure}.md"
        path.write_text(render_diff_markdown(build_diff(fig_a, fig_b)))
        written.append(str(path))
    return written


def gate_against_baseline(baseline_path: str, current: Dict,
                          tolerances: Optional[Dict[str,
                                                    Tuple[bool, float]]]
                          = None,
                          out_dir: Optional[str] = None) -> int:
    """Compare, print the verdict, return the exit status (0/1).

    With ``out_dir``, a failing gate also delegates root-cause analysis
    to the diff engine: every regressed figure gets a full
    ``diff_<figure>.md`` differential report next to the bench record.
    """
    from repro.bench.record import load_record

    baseline = load_record(baseline_path)
    regressions = compare_records(baseline, current, tolerances)
    print(render_gate_report(baseline, current, regressions))
    if regressions and out_dir is not None:
        for path in write_gate_diffs(baseline, current, regressions,
                                     out_dir):
            print(f"  differential report: {path}")
    return 1 if regressions else 0
