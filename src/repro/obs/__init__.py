"""Cross-layer observability: metrics, per-rank tracing, introspection.

Three cooperating pieces (see docs/observability.md):

* :mod:`repro.obs.metrics` — per-device :class:`MetricsRegistry`
  (counters, gauges, log2 histograms) threaded through every layer;
  ``REPRO_METRICS=0`` turns recording into no-ops.
* :mod:`repro.obs.tracing` — bounded-ring JSONL trace export per rank,
  enabled by ``REPRO_TRACE=<dir>`` (engines pick it up at init, so the
  launcher and daemons trace every rank automatically), and the
  MPI-level :class:`TracingDevice` recording into the same ring.
* :mod:`repro.obs.introspect` — stall snapshots (pending ops with
  ages + live queue depths) on watchdog trigger or SIGUSR1.

``python -m repro.obs merge <dir>`` merges the per-rank JSONL files
into one clock-aligned timeline (Chrome ``trace_event`` JSON + a text
report).
"""

from repro.obs.introspect import (
    install_stall_handler,
    stall_snapshot,
    write_stall_file,
)
from repro.obs.merge import merge_directory
from repro.obs.metrics import (
    METRICS_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    make_registry,
    merge_snapshots,
    metrics_enabled,
)
from repro.obs.tracing import (
    TRACE_ENV,
    TraceWriter,
    TracingDevice,
    dump_metrics,
    trace_dir,
    writer_for,
)

__all__ = [
    "METRICS_ENV",
    "TRACE_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "TraceWriter",
    "TracingDevice",
    "dump_metrics",
    "install_stall_handler",
    "make_registry",
    "merge_directory",
    "merge_snapshots",
    "metrics_enabled",
    "stall_snapshot",
    "trace_dir",
    "write_stall_file",
    "writer_for",
]
