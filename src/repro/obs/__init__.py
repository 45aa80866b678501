"""``repro.obs`` — unified tracing, metrics, and profiling.

The observability layer over the whole stack:

* :mod:`repro.obs.trace` — span-based *wall-clock* tracing with nested
  spans, monotonic timestamps, attributes, and process/worker identity;
  near-zero overhead while disabled.  (Distinct from
  :mod:`repro.sim.trace`, the simulated *cycle-domain* event log of the
  cycle-accurate PE-chain simulator.)
* :mod:`repro.obs.metrics` — an always-on registry of counters, gauges,
  and histograms fed by ``RunCache``, the sweep executors, the mapping
  search, the supervised runtime, and the kernel registry.
* :mod:`repro.obs.export` — JSONL and Chrome trace-event (Perfetto /
  ``chrome://tracing``) exporters plus trace summarization/validation.

Pool workers record locally and ship ``(events, metrics delta)`` payloads
back on the existing result channel (see ``repro.runtime.pool``), so one
merged trace covers the whole pool and survives crash/respawn.

Enabled by the CLI ``--trace FILE`` / ``--metrics`` flags or
programmatically::

    from repro import obs
    obs.enable()
    with obs.span("my.phase", n=42):
        ...
    obs.export_trace("trace.json")
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "metrics": "repro.obs.metrics",
    "trace": "repro.obs.trace",
    "REGISTRY": "repro.obs.metrics",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "counter": "repro.obs.metrics",
    "gauge": "repro.obs.metrics",
    "histogram": "repro.obs.metrics",
    "render_metrics": "repro.obs.metrics",
    "TRACE_ENV": "repro.obs.trace",
    "TraceRecorder": "repro.obs.trace",
    "absorb": "repro.obs.trace",
    "disable": "repro.obs.trace",
    "enable": "repro.obs.trace",
    "enabled": "repro.obs.trace",
    "get_recorder": "repro.obs.trace",
    "instant": "repro.obs.trace",
    "ship": "repro.obs.trace",
    "span": "repro.obs.trace",
    "traced": "repro.obs.trace",
    "worker_init": "repro.obs.trace",
    "export_trace": "repro.obs.export",
    "load_trace": "repro.obs.export",
    "render_summary": "repro.obs.export",
    "summarize_trace": "repro.obs.export",
    "validate_chrome_trace": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
