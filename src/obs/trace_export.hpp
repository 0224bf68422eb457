// Telemetry serialization: Chrome trace-event JSON (chrome://tracing and
// Perfetto load it directly), a metrics report (JSON + plain text), and a
// nesting check on the recorded spans the trace is written from.
//
// Determinism split, stated explicitly in the report format: the
// "deterministic" block carries counters and span counts (byte-identical per
// seed at any thread count -- test_obs locks this); the "non_deterministic"
// block carries wall-clock durations and per-thread breakdowns, which vary
// run to run and must never be diffed or golden-checked.
#pragma once

#include <string>

#include "obs/telemetry.hpp"

namespace resloc::obs {

/// Serializes the snapshot's span events as a Chrome trace-event JSON object
/// ({"traceEvents": [...]}): one complete ("ph": "X") event per span, pid 1,
/// tid = thread registration index, timestamps in microseconds relative to
/// the earliest event. Open in chrome://tracing or https://ui.perfetto.dev.
std::string to_chrome_trace_json(const TelemetrySnapshot& snap);

/// The metrics report as JSON: {"deterministic": {counters, stage counts},
/// "non_deterministic": {stage durations, per-thread busy time, dropped
/// spans}}. Counts are stable per (seed, workload); durations are wall clock.
std::string metrics_report_json(const TelemetrySnapshot& snap);

/// Human-readable metrics summary (fixed-width tables) for stdout.
std::string metrics_report_text(const TelemetrySnapshot& snap);

/// Checks the snapshot's recorded spans before they are exported: on each
/// thread every pair of spans is either disjoint or contained (partial
/// overlap means corrupt telemetry), no span ends before it starts, and every
/// span id names an interned span. Compares the exact integer nanoseconds, so
/// siblings that share a boundary are disjoint. Returns true when the spans
/// pass; otherwise fills `error` (when given) with the first problem found.
bool check_span_nesting(const TelemetrySnapshot& snap, std::string* error = nullptr);

}  // namespace resloc::obs
