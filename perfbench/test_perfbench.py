"""Tests for the benchmark's own code: the tracer's self-time accounting
and binding restore, the run-hygiene check and the output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import threading
import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import hygiene  # noqa: E402
import layers  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import HitProbe, Tracer, quantile  # noqa: E402
from workloads import (  # noqa: E402
    CheckFailed, DeliverTlsrpt, Iteration, ScanCampaign, ServeZipf,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_module, "perf_counter", fake)
    return fake


def test_self_time_is_span_minus_children(clock):
    tracer = Tracer()

    def leaf():
        clock.spend(2.0)

    def middle():
        clock.spend(1.0)
        leaf_span()
        clock.spend(0.5)

    def root():
        clock.spend(3.0)
        middle_span()
        leaf_span()

    leaf_span = tracer.wrap("leaf", leaf)
    middle_span = tracer.wrap("middle", middle)
    root_span = tracer.wrap("root", root)
    root_span()

    assert tracer.calls == {"leaf": 2, "middle": 1, "root": 1}
    assert tracer.self_s["leaf"] == pytest.approx(4.0)
    assert tracer.self_s["middle"] == pytest.approx(1.5)
    assert tracer.self_s["root"] == pytest.approx(3.0)
    # the self times partition the root span: 3 + 3.5 + 2 = 8.5
    assert tracer.total_self_s() == pytest.approx(8.5)


def test_recursive_span_counts_each_call_once(clock):
    tracer = Tracer()

    def countdown(n):
        clock.spend(1.0)
        if n:
            span(n - 1)

    span = tracer.wrap("countdown", countdown)
    span(3)
    assert tracer.calls["countdown"] == 4
    assert tracer.self_s["countdown"] == pytest.approx(4.0)


def test_hit_probe_counts_outermost_calls_only(clock):
    class Cache:
        def __init__(self):
            self.hits = 0

        def get(self, hit):
            if hit:
                self.hits += 1
            return hit

        def get_twice(self, hit):
            return self.get(hit) and self.get(hit)

    tracer = Tracer()
    probe = HitProbe("hits")
    tracer.install_method(Cache, "get", "cache", probe=probe)
    tracer.install_method(Cache, "get_twice", "cache", probe=probe)
    try:
        cache = Cache()
        cache.get(True)
        cache.get(False)
        cache.get_twice(True)
    finally:
        tracer.restore()
    assert tracer.calls["cache"] == 5
    assert tracer.lookups["cache"] == 3
    assert tracer.hits["cache"] == 3


def _toy_modules(monkeypatch):
    """A defining module, an importer that copied the function by name,
    and a class with plain, class- and static methods."""
    def helper(x):
        return x + 1

    class Thing:
        def method(self):
            return "method"

        @classmethod
        def build(cls):
            return cls

        @staticmethod
        def static():
            return "static"

    defining = types.ModuleType("perfbench_toy_defining")
    defining.helper = helper
    defining.Thing = Thing
    importer = types.ModuleType("perfbench_toy_importer")
    importer.helper = helper
    monkeypatch.setitem(sys.modules, defining.__name__, defining)
    monkeypatch.setitem(sys.modules, importer.__name__, importer)
    return defining, importer, helper, Thing


def test_install_and_restore_rebind_the_original_objects(monkeypatch):
    defining, importer, helper, Thing = _toy_modules(monkeypatch)
    originals = dict(vars(Thing))
    tracer = Tracer()
    try:
        assert tracer.install_function(defining, "helper", "toy") == 2
        for attr in ("method", "build", "static"):
            tracer.install_method(Thing, attr, "toy")
        assert importer.helper is not helper
        assert importer.helper(1) == 2
        assert Thing().method() == "method"
        assert Thing.build() is Thing
        assert Thing.static() == "static"
        assert tracer.calls["toy"] == 4
        assert "perfbench_toy_importer.helper" in tracer.leaked()
    finally:
        tracer.restore()
    assert defining.helper is helper and importer.helper is helper
    for attr in ("method", "build", "static"):
        assert vars(Thing)[attr] is originals[attr]
    assert tracer.leaked() == []


def test_inherited_method_is_restored_by_deletion(monkeypatch):
    _, _, _, Thing = _toy_modules(monkeypatch)

    class Child(Thing):
        pass

    tracer = Tracer()
    try:
        tracer.install_method(Child, "method", "toy")
        assert "method" in vars(Child)
    finally:
        tracer.restore()
    assert "method" not in vars(Child)
    assert Child().method() == "method"


def test_program_layers_install_and_restore_cleanly():
    from repro.dns import name as dns_name
    from repro.measurement import serve

    canonical_host = dns_name.canonical_host
    parse = vars(dns_name.DnsName)["parse"]
    get_or_compute = vars(serve.VerdictCache)["get_or_compute"]
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert dns_name.canonical_host is not canonical_host
        assert serve.canonical_host is not canonical_host
        assert dns_name.DnsName.parse("Example.COM").text == "example.com"
        assert tracer.calls["dns.name_parse"] == 1
    finally:
        tracer.restore()
    assert dns_name.canonical_host is canonical_host
    assert serve.canonical_host is canonical_host
    assert vars(dns_name.DnsName)["parse"] is parse
    assert vars(serve.VerdictCache)["get_or_compute"] is get_or_compute
    assert tracer.leaked() == []


def test_metric_units_cover_every_layer_value():
    values = layers.layer_metrics(Tracer(), {"validations": 0,
                                             "cache_hits": 0})
    units = layers.metric_units()
    assert set(values) <= set(units)
    assert set(units) - set(values) == (
        {name for name, _ in layers.WORKLOAD_METRICS}
        | {name for name, _ in layers.RUN_METRICS})
    assert len(units) <= 128


def test_quantile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert quantile(values, 0.5) == 50.0
    assert quantile(values, 0.99) == 99.0
    assert quantile([], 0.5) == 0.0


def test_hygiene_reports_a_leaked_thread(tmp_path):
    baseline = hygiene.prepare()
    assert hygiene.leftovers(baseline, [str(tmp_path / "gone")]) == []
    release = threading.Event()
    leak = threading.Thread(target=release.wait, name="leaked-worker")
    leak.start()
    try:
        problems = hygiene.leftovers(baseline, [str(tmp_path)])
    finally:
        release.set()
        leak.join(timeout=10)
    assert not leak.is_alive()
    assert any("leaked-worker" in problem for problem in problems)
    assert any("scratch path left behind" in problem for problem in problems)
    assert hygiene.leftovers(baseline, []) == []


def test_peak_rss_is_positive():
    hygiene.reset_peak_rss()
    assert hygiene.peak_rss_mib() > 0


def _iteration(units, outputs):
    return Iteration(setup_s=[0.1], work_s=1.0, analysis_s=0.0, wall_s=1.1,
                     units=units, failed=0, failed_ratio=0.0,
                     outputs=outputs)


def _rejects(workload, it, offset, check):
    with pytest.raises(CheckFailed) as caught:
        workload.check(it, offset)
    assert caught.value.check == check


def test_deliver_checks_reject_tampered_results():
    workload = DeliverTlsrpt()
    good = dict(workload.PINNED, delivered=10887, bounced=3477,
                reports_received=5797, reports_delivered=5797)
    workload.check(_iteration(14364, good), 0)
    _rejects(workload, _iteration(14364, dict(good, bounced=3476)), 5,
             "deliver.finalised")
    _rejects(workload, _iteration(14364, dict(good, reports_received=5796)),
             5, "deliver.reports")
    _rejects(workload, _iteration(14364, dict(good, ledger="0" * 64)), 0,
             "deliver.ledger_digest")
    # pinned digests bind only the reference seed
    workload.check(_iteration(14364, dict(good, ledger="0" * 64)), 5)


def test_serve_checks_reject_tampered_results():
    workload = ServeZipf()
    good = {"metrics": workload.METRICS_SHA256,
            "comparable": dict(workload.COMPARABLE), "answered": 336000,
            "latency_samples": 336000}
    workload.check(_iteration(336000, good), 0)
    _rejects(workload, _iteration(336000, dict(good, answered=335999)), 3,
             "serve.answered")
    _rejects(workload, _iteration(336000, dict(good, latency_samples=1)), 3,
             "serve.latency_samples")
    tampered = dict(good["comparable"], hits=193401)
    _rejects(workload, _iteration(336000, dict(good, comparable=tampered)),
             0, "serve.stats_comparable")


def test_scan_checks_reject_tampered_results():
    workload = ScanCampaign()
    good = {"figures": workload.FIGURES_SHA256, "monitor_feed": "a",
            "live_monitor_feed": "a", "committed_months": 12,
            "offline_domains": 13511}
    workload.check(_iteration(13511, good), 0)
    _rejects(workload, _iteration(13511, dict(good, committed_months=11)),
             1, "scan.committed_months")
    _rejects(workload, _iteration(13511, dict(good, offline_domains=1)), 1,
             "scan.offline_domains")
    _rejects(workload, _iteration(13511, dict(good, monitor_feed="b")), 1,
             "scan.monitor_feed")
    _rejects(workload, _iteration(13511, dict(good, figures="0" * 64)), 0,
             "scan.figures_digest")


def test_benchmark_json_lists_what_the_runner_reports():
    import json

    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.metric_units().items())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS)
