"""The three benchmark workloads and the checks on their outputs.

Each workload is serial and single-process and calls the program's
public entry points.  ``execute`` runs one iteration and times its
phases; ``check`` verifies the iteration's outputs, raising
:class:`CheckFailed` naming the failed check.  The benchmark's ``--seed``
is an offset on each workload's reference seed, so offset 0 reproduces
the reference outputs whose digests are pinned below.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List


class CheckFailed(Exception):
    """An output check failed; ``check`` names it."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def expect(check: str, ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, detail)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Iteration:
    """One execution of a workload: phase times, work and outputs."""

    #: set-up samples; the first ran inside ``wall_s``
    setup_s: List[float]
    work_s: float
    analysis_s: float
    wall_s: float
    units: int
    failed: int
    failed_ratio: float
    #: deterministic outputs: digests and counts, equal on every
    #: iteration of one seed, traced or not
    outputs: Dict[str, object]
    p99_virtual_s: float = 0.0
    #: paths the iteration created and must have removed
    scratch: List[str] = field(default_factory=list)
    peak_rss_mib: float = 0.0

    @property
    def work_per_s(self) -> float:
        """Units of work per second of processing, set-up excluded."""
        return self.units / (self.work_s + self.analysis_s)


class ScanCampaign:
    """The paper's pipeline: a 12-month incremental campaign checkpointed
    into a scratch state dir, then the offline columnar analysis of it."""

    #: Seconds one iteration takes on the 2-core reference box.  A run
    #: makes ``round(seconds / ITERATION_S)`` iterations, so every run of
    #: a workload does the same amount of work.
    ITERATION_S = 15.0
    SCALE = 0.02
    POPULATION_SEED = 20240929
    MONTHS = 12
    #: ``_figures_digest`` of ``bench_scan_pipeline.py`` at offset 0
    FIGURES_SHA256 = (
        "879ac4f6d943a604ad2d4deaa09c507546fa6f3efa7e3bff0355689470d32a30")

    def execute(self, offset: int, scratch_root: str,
                setup_repeats: int) -> Iteration:
        from repro.analysis.series import load_campaign, run_campaign
        from repro.ecosystem.population import PopulationConfig
        from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
        from repro.measurement.executor import ScanExecutor
        from repro.measurement.store_io import read_manifest
        from repro.obs.monitor import CampaignMonitor

        population = PopulationConfig(scale=self.SCALE,
                                      seed=self.POPULATION_SEED + offset)
        started = perf_counter()
        timeline = EcosystemTimeline(TimelineConfig(population))
        built = perf_counter()
        state_dir = tempfile.mkdtemp(prefix="scan-", dir=scratch_root)
        try:
            monitor = CampaignMonitor()
            live = run_campaign(
                timeline, executor=ScanExecutor(backend="serial", jobs=1),
                monitor=monitor, state_dir=state_dir)
            scanned = perf_counter()
            analysis = load_campaign(state_dir, columnar=True)
            figures = sha256(json.dumps(figures_payload(analysis),
                                        sort_keys=True, default=str))
            offline = CampaignMonitor.from_state(state_dir, columnar=True)
            health = offline.health().render()
            finished = perf_counter()
            committed = len(read_manifest(state_dir)["months"])
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

        setups = [built - started]
        for _ in range(setup_repeats - 1):
            again = perf_counter()
            EcosystemTimeline(TimelineConfig(population))
            setups.append(perf_counter() - again)

        totals = live.total_stats()
        offline_domains = sum(stats.domains_scanned
                              for stats in analysis.stats_by_month.values())
        return Iteration(
            setup_s=setups, work_s=scanned - built,
            analysis_s=finished - scanned, wall_s=finished - started,
            units=totals.domains_scanned, failed=totals.transient_domains,
            failed_ratio=totals.transient_domains / totals.domains_scanned,
            outputs={
                "figures": figures,
                "monitor_feed": sha256(offline.to_jsonl()),
                "health": sha256(health),
                "live_monitor_feed": sha256(monitor.to_jsonl()),
                "committed_months": committed,
                "offline_domains": offline_domains,
            },
            scratch=[state_dir])

    def check(self, it: Iteration, offset: int) -> None:
        outputs = it.outputs
        expect("scan.committed_months",
               outputs["committed_months"] == self.MONTHS,
               f"{outputs['committed_months']} months committed, "
               f"expected {self.MONTHS}")
        expect("scan.offline_domains",
               outputs["offline_domains"] == it.units,
               f"offline store holds {outputs['offline_domains']} "
               f"domain-scans, the campaign scanned {it.units}")
        expect("scan.monitor_feed",
               outputs["monitor_feed"] == outputs["live_monitor_feed"],
               "CampaignMonitor.from_state feed differs from the live feed")
        if offset == 0:
            expect("scan.figures_digest",
                   outputs["figures"] == self.FIGURES_SHA256,
                   f"figures digest {outputs['figures']} != pinned "
                   f"{self.FIGURES_SHA256}")


def figures_payload(analysis) -> dict:
    """Every figure series plus the table-2 census (the payload
    ``bench_scan_pipeline.py`` digests)."""
    return {
        "figure4": analysis.figure4_series(),
        "figure5_self": analysis.figure5_series("self-managed"),
        "figure5_third": analysis.figure5_series("third-party"),
        "figure6_self": analysis.figure6_series("self-managed"),
        "figure6_third": analysis.figure6_series("third-party"),
        "figure7": analysis.figure7_series(),
        "figure8": analysis.figure8_series(),
        "figure9": analysis.figure9_series(),
        "figure10": analysis.figure10_series(),
        "table2": analysis.table2_census(),
    }


class DeliverTlsrpt:
    """The sender side: the §6.2 sender census delivering to a scale-0.1
    recipient world under seeded faults, with the RFC 8460 loop on."""

    ITERATION_S = 16.0
    SENDERS = 2394
    MESSAGES_PER_SENDER = 6
    #: the seeded input: which senders there are and whom they mail.
    #: The fault seed stays fixed because the fault draw alone moves the
    #: retry work, and so the run time, by a factor of three.
    SENDER_SEED = 20230201
    #: offset-0 digests of the ledger, the received-report JSONL and the
    #: TLSRPT monitor JSONL
    PINNED = {
        "ledger": "7dd294df409e81273d61d4857a65d35f3b140a9e817dc0f3d90902018dd4c4a4",
        "reports": "0aa56516a2a21ddc0bee7c789dab62370959c664d6ea088193a52327f554fe61",
        "tlsrpt_monitor": "97893659c23f92866c91d8984f22f3b49e504328015002afc74303e2c98de78d",
    }

    def execute(self, offset: int, scratch_root: str,
                setup_repeats: int) -> Iteration:
        from repro.measurement.delivery_campaign import (
            DeliveryCampaignConfig, run_delivery_campaign,
        )

        config = DeliveryCampaignConfig(
            scale=0.1, seed=11, month_index=3, senders=self.SENDERS,
            messages_per_sender=self.MESSAGES_PER_SENDER,
            sender_seed=self.SENDER_SEED + offset, backpressure=20_000,
            fault_seed=4242, fault_rate=0.2, tlsrpt=True)
        started = perf_counter()
        result = run_delivery_campaign(config, backend="serial", jobs=1)
        finished = perf_counter()
        stats = result.stats
        return Iteration(
            setup_s=[stats.world_build_seconds],
            work_s=stats.deliver_seconds, analysis_s=0.0,
            wall_s=finished - started, units=stats.messages,
            failed=stats.messages - stats.delivered - stats.bounced,
            failed_ratio=stats.bounced / stats.messages,
            outputs={
                "ledger": result.ledger_digest,
                "reports": sha256(result.tlsrpt_reports_jsonl),
                "tlsrpt_monitor": sha256(result.tlsrpt_monitor.to_jsonl()),
                "delivery_monitor": sha256(result.monitor.to_jsonl()),
                "stats": sha256(json.dumps(stats.comparable(),
                                           sort_keys=True)),
                "delivered": stats.delivered,
                "bounced": stats.bounced,
                "reports_received": stats.reports_received,
                "reports_delivered": stats.reports_delivered,
            })

    def check(self, it: Iteration, offset: int) -> None:
        outputs = it.outputs
        expected = self.SENDERS * self.MESSAGES_PER_SENDER
        delivered, bounced = outputs["delivered"], outputs["bounced"]
        expect("deliver.messages", it.units == expected,
               f"{it.units} messages, expected {expected}")
        expect("deliver.finalised", delivered + bounced == it.units,
               f"delivered {delivered} + bounced {bounced} != "
               f"{it.units} messages")
        expect("deliver.reports",
               outputs["reports_received"] == outputs["reports_delivered"],
               f"{outputs['reports_received']} reports received, "
               f"{outputs['reports_delivered']} delivered")
        if offset == 0:
            for name, pinned in self.PINNED.items():
                expect(f"deliver.{name}_digest", outputs[name] == pinned,
                       f"{outputs[name]} != pinned {pinned}")


class ServeZipf:
    """The request-serving path: a seeded Zipf popularity mix with flash
    crowds against the single-flight verdict cache, over two months."""

    ITERATION_S = 27.0
    REQUESTS = 300_000
    QUERY_SEED = 97
    #: offset-0 metrics JSONL digest and ``ServeStats.comparable()``
    METRICS_SHA256 = (
        "7cde21408bbf0550bd41855607e940d81119632d2f711781b88e4ad186c3bc94")
    COMPARABLE = {
        "scale": 0.02, "seed": 11, "query_seed": 97, "months": 2,
        "requests": 336000, "flash_requests": 36000, "computations": 39354,
        "hits": 193400, "collapsed": 103246, "evictions": 37833,
        "stampede_fanin_peak": 4004, "windows": 19, "cache_entries": 1521,
    }

    def execute(self, offset: int, scratch_root: str,
                setup_repeats: int) -> Iteration:
        from repro.measurement.serve import ServeConfig, run_serve

        config = ServeConfig(scale=0.02, requests=self.REQUESTS, months=2,
                             query_seed=self.QUERY_SEED + offset)
        started = perf_counter()
        result = run_serve(config)
        finished = perf_counter()
        stats = result.stats
        answered = stats.hits + stats.collapsed + stats.computations
        latency = result.total_registry.histograms["serve.latency"]
        return Iteration(
            setup_s=[stats.world_build_seconds],
            work_s=stats.serve_seconds, analysis_s=0.0,
            wall_s=finished - started, units=stats.requests,
            failed=stats.requests - answered,
            failed_ratio=(stats.requests - answered) / stats.requests,
            p99_virtual_s=result.p99_latency_seconds,
            outputs={
                "metrics": sha256(result.monitor.to_jsonl()),
                "health": sha256(result.health().render()),
                "comparable": stats.comparable(),
                "answered": answered,
                "latency_samples": latency.observations,
            })

    def check(self, it: Iteration, offset: int) -> None:
        outputs = it.outputs
        expect("serve.answered", outputs["answered"] == it.units,
               f"hits + collapsed + computations = {outputs['answered']}, "
               f"requests = {it.units}")
        expect("serve.latency_samples", outputs["latency_samples"] == it.units,
               f"{outputs['latency_samples']} latency samples for "
               f"{it.units} requests")
        if offset == 0:
            expect("serve.metrics_digest",
                   outputs["metrics"] == self.METRICS_SHA256,
                   f"{outputs['metrics']} != pinned {self.METRICS_SHA256}")
            comparable = outputs["comparable"]
            expect("serve.stats_comparable", comparable == self.COMPARABLE,
                   f"{comparable} != pinned {self.COMPARABLE}")


WORKLOADS = {
    "scan-campaign": ScanCampaign(),
    "deliver-tlsrpt": DeliverTlsrpt(),
    "serve-zipf": ServeZipf(),
}
