"""The layer table: which public functions of the program each per-layer
metric times, and the traced-run metrics derived from them.

A layer named ``L`` yields ``L.calls`` (wrapped calls, nested ones
included) and ``L.self_s`` (summed self time).  Layers with a
:class:`HitProbe` also yield a hit ratio and its base.  Every metric is
reported on every workload; a layer a workload never enters reads 0.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from tracer import HitProbe, Tracer, quantile


@dataclass(frozen=True)
class Layer:
    name: str
    #: ``(module, attr)`` for a module-level function, or
    #: ``(module, class, attr)`` for a method.
    targets: Tuple[Tuple[str, ...], ...]
    probe: Optional[HitProbe] = None
    #: (ratio metric, base metric) names for the probe's hit ratio.
    ratio: Tuple[str, str] = ()
    keep_samples: bool = False


def _methods(module: str, cls: str, *attrs: str) -> Tuple[Tuple[str, ...], ...]:
    return tuple((module, cls, attr) for attr in attrs)


_FIGURES = ("figure4_series", "figure5_series", "figure6_series",
            "figure7_series", "figure8_series", "figure9_series",
            "figure10_series", "table2_census")

LAYERS: Tuple[Layer, ...] = (
    # ecosystem: world builds
    Layer("ecosystem.materialize",
          _methods("repro.ecosystem.timeline", "EcosystemTimeline",
                   "materialize")
          + _methods("repro.ecosystem.timeline", "IncrementalMaterializer",
                     "materialize")),
    Layer("ecosystem.deploy",
          (("repro.ecosystem.deployment", "deploy_domain"),
           ("repro.ecosystem.deployment", "undeploy_domain"))),
    # dns
    Layer("dns.name_parse",
          _methods("repro.dns.name", "DnsName", "parse", "try_parse")),
    Layer("dns.canonical_host", (("repro.dns.name", "canonical_host"),)),
    Layer("dns.resolve",
          _methods("repro.dns.resolver", "Resolver", "resolve",
                   "try_resolve", "resolve_detailed", "resolve_address"),
          probe=HitProbe("cache_hits", ("query_count", "cache_hits")),
          ratio=("dns.cache_hit_ratio", "dns.cache_lookups")),
    # tls / pki / policy fetch / smtp probe
    Layer("tls.handshake", (("repro.tls.handshake", "handshake"),)),
    Layer("pki.validate",
          (("repro.pki.validation", "validate_chain"),
           ("repro.pki.validation", "validate_chain_cached"))),
    Layer("fetch.policy",
          _methods("repro.core.fetch", "PolicyFetcher", "lookup_record",
                   "fetch_policy")),
    Layer("smtp.probe",
          _methods("repro.smtp.client", "SmtpProbe", "probe_host"),
          probe=HitProbe("cache_hits"),
          ratio=("smtp.probe_cache_hit_ratio", "smtp.probe_lookups")),
    # measurement.scanner
    Layer("scanner.scan_domain",
          _methods("repro.measurement.scanner", "Scanner", "scan_domain"),
          keep_samples=True),
    # sender side
    Layer("smtp.send",
          _methods("repro.smtp.delivery", "SendingMta", "send")
          + _methods("repro.core.sender", "MtaStsSender", "send")),
    Layer("netsim.connect", (("repro.netsim.retry", "connect_with_retries"),)),
    Layer("cache.policy",
          _methods("repro.core.cache", "PolicyCache", "get"),
          probe=HitProbe("hit_count"),
          ratio=("cache.policy_hit_ratio", "cache.policy_lookups")),
    Layer("reporting.collect",
          _methods("repro.core.reporting", "ReportCollector",
                   "record_policy", "record_success", "record_failure",
                   "close_window")),
    Layer("reporting.ingest",
          _methods("repro.core.reporting", "ReportAggregator", "ingest",
                   "add", "census")),
    # request serving
    Layer("cache.verdict",
          _methods("repro.measurement.serve", "VerdictCache",
                   "get_or_compute"),
          probe=HitProbe("hit_count"),
          ratio=("cache.verdict_hit_ratio", "cache.verdict_lookups")),
    # classification, store, analysis, monitoring
    Layer("classify",
          _methods("repro.measurement.classify", "EntityClassifier",
                   "classify_all")
          + (("repro.measurement.taxonomy", "snapshot_summary"),)),
    Layer("store_io.commit", (("repro.measurement.store_io", "commit_month"),)),
    Layer("store_io.load", (("repro.measurement.store_io", "load_shard_rows"),)),
    Layer("columnar.decode",
          _methods("repro.measurement.columnar", "ColumnarStore",
                   "from_state_dir", "month_view")),
    Layer("analysis.figures",
          _methods("repro.analysis.series", "CampaignAnalysis", *_FIGURES)),
    Layer("obs.monitor",
          _methods("repro.obs.monitor", "CampaignMonitor", "from_state",
                   "health")),
    Layer("obs.feed",
          _methods("repro.obs.monitor", "CampaignMonitor", "observe_month")
          + _methods("repro.obs.monitor", "DeliveryMonitor", "observe_wave")
          + _methods("repro.obs.monitor", "ServeMonitor", "add_record")
          + _methods("repro.obs.tlsrpt_monitor", "TlsRptMonitor",
                     "observe_reports")),
    # workload entry points: their self time is the loop itself
    Layer("campaign.loop", (("repro.analysis.series", "run_campaign"),)),
    Layer("analysis.load", (("repro.analysis.series", "load_campaign"),)),
    Layer("delivery.loop",
          (("repro.measurement.delivery_campaign", "run_delivery_campaign"),)),
    Layer("serve.loop", (("repro.measurement.serve", "run_serve"),)),
)

#: The one process-global cache; its stats are read after a run.
PKI_RATIO = ("pki.cache_hit_ratio", "pki.cache_lookups")
SCAN_LATENCY = ("scanner.scan_domain.p50_us", "scanner.scan_domain.p99_us")
#: Metrics run.py adds from the iterations of a traced run.
WORKLOAD_METRICS = (("failed_ratio", "ratio"),
                    ("serve.p99_virtual_s", "virtual_s"),
                    ("phase.setup_s", "s"), ("phase.work_s", "s"),
                    ("phase.analysis_s", "s"))
RUN_METRICS = (("unattributed_s", "s"), ("trace_overhead_ratio", "ratio"))


def import_program() -> None:
    """Import every module of the program, so that installing a wrapper
    reaches every ``from module import name`` binding up front and no
    module imported mid-run copies a wrapper that restore would miss."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def install(tracer: Tracer) -> None:
    """Wrap every layer target on *tracer* (undo with ``restore``)."""
    import_program()
    for layer in LAYERS:
        options = {"keep_samples": layer.keep_samples, "probe": layer.probe}
        for target in layer.targets:
            module = importlib.import_module(target[0])
            if len(target) == 3:
                tracer.install_method(getattr(module, target[1]), target[2],
                                      layer.name, **options)
            else:
                tracer.install_function(module, target[1], layer.name,
                                        **options)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        if layer.ratio:
            units[layer.ratio[0]] = "ratio"
            units[layer.ratio[1]] = "count"
    units[PKI_RATIO[0]] = "ratio"
    units[PKI_RATIO[1]] = "count"
    for name in SCAN_LATENCY:
        units[name] = "us"
    units.update(WORKLOAD_METRICS)
    units.update(RUN_METRICS)
    return units


def layer_metrics(tracer: Tracer, pki_stats: Dict[str, float]) -> Dict[str, float]:
    """The tracer's per-layer values (workload and run metrics aside)."""
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer.name}.calls"] = tracer.calls.get(layer.name, 0)
        values[f"{layer.name}.self_s"] = tracer.self_s.get(layer.name, 0.0)
        if layer.ratio:
            lookups = tracer.lookups.get(layer.name, 0)
            hits = tracer.hits.get(layer.name, 0)
            values[layer.ratio[0]] = hits / lookups if lookups else 0.0
            values[layer.ratio[1]] = lookups
    lookups = pki_stats["validations"] + pki_stats["cache_hits"]
    values[PKI_RATIO[0]] = pki_stats["cache_hits"] / lookups if lookups else 0.0
    values[PKI_RATIO[1]] = lookups
    samples = tracer.samples.get("scanner.scan_domain", ())
    values[SCAN_LATENCY[0]] = quantile(samples, 0.50) * 1e6
    values[SCAN_LATENCY[1]] = quantile(samples, 0.99) * 1e6
    return values
