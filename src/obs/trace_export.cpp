#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

namespace resloc::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string fmt_us(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

/// Stage rows in name order: intern order depends on which call site runs
/// first (thread-scheduling dependent), so every report sorts by name to keep
/// the deterministic block byte-stable across thread counts.
std::vector<std::pair<std::string, StageTotal>> sorted_stages(
    const TelemetrySnapshot& snap) {
  std::vector<std::pair<std::string, StageTotal>> rows;
  for (std::size_t i = 0; i < snap.span_names.size(); ++i) {
    const StageTotal total =
        i < snap.stage_totals.size() ? snap.stage_totals[i] : StageTotal{};
    if (total.count == 0) continue;
    rows.emplace_back(snap.span_names[i], total);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return rows;
}

}  // namespace

std::string to_chrome_trace_json(const TelemetrySnapshot& snap) {
  // Timestamps relative to the earliest event keep the numbers readable and
  // sub-microsecond precision intact in the %.3f microsecond fields.
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const ThreadSnapshot& t : snap.threads) {
    for (const SpanEvent& e : t.events) t0 = std::min(t0, e.start_ns);
  }
  if (t0 == ~std::uint64_t{0}) t0 = 0;

  std::string out;
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  for (const ThreadSnapshot& t : snap.threads) {
    for (const SpanEvent& e : t.events) {
      const std::string name =
          e.id < snap.span_names.size() ? snap.span_names[e.id] : "?";
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\": \"" + json_escape(name) +
             "\", \"cat\": \"resloc\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
             std::to_string(t.thread_index) +
             ", \"ts\": " + fmt_us(static_cast<double>(e.start_ns - t0) / 1000.0) +
             ", \"dur\": " + fmt_us(static_cast<double>(e.end_ns - e.start_ns) / 1000.0) +
             "}";
    }
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string metrics_report_json(const TelemetrySnapshot& snap) {
  std::string out;
  out += "{\n  \"report\": \"resloc_metrics\",\n";

  // Deterministic block: integer tallies, byte-identical per (seed, workload)
  // at any thread count. Safe to diff and to golden-check.
  out += "  \"deterministic\": {\n    \"counters\": {";
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c) {
    out += (c == 0 ? "\n" : ",\n");
    out += "      \"" + std::string(counter_name(static_cast<Counter>(c))) +
           "\": " + std::to_string(c < snap.counters.size() ? snap.counters[c] : 0);
  }
  out += "\n    },\n    \"stage_counts\": {";
  const auto stages = sorted_stages(snap);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n");
    out += "      \"" + json_escape(stages[i].first) +
           "\": " + std::to_string(stages[i].second.count);
  }
  out += stages.empty() ? "}\n  },\n" : "\n    }\n  },\n";

  // Non-deterministic block: wall-clock durations. Never diff these.
  out += "  \"non_deterministic\": {\n";
  out +=
      "    \"note\": \"wall-clock durations vary run to run; only the "
      "deterministic block above is byte-stable\",\n";
  out += "    \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& [name, total] = stages[i];
    const double total_ms = static_cast<double>(total.total_ns) / 1e6;
    const double mean_us =
        static_cast<double>(total.total_ns) / 1e3 / static_cast<double>(total.count);
    out += (i == 0 ? "\n" : ",\n");
    out += "      {\"name\": \"" + json_escape(name) +
           "\", \"count\": " + std::to_string(total.count) +
           ", \"total_ms\": " + fmt_ms(total_ms) + ", \"mean_us\": " + fmt_us(mean_us) +
           "}";
    }
  out += stages.empty() ? "],\n" : "\n    ],\n";
  out += "    \"threads\": [";
  bool first_thread = true;
  for (const ThreadSnapshot& t : snap.threads) {
    // Per-thread busy time by stage (sorted like the merged rows).
    std::map<std::string, StageTotal> rows;
    for (std::size_t s = 0; s < t.stage_totals.size() && s < snap.span_names.size(); ++s) {
      if (t.stage_totals[s].count > 0) rows[snap.span_names[s]] = t.stage_totals[s];
    }
    if (rows.empty()) continue;
    out += first_thread ? "\n" : ",\n";
    first_thread = false;
    out += "      {\"thread\": " + std::to_string(t.thread_index) + ", \"stages\": {";
    bool first_row = true;
    for (const auto& [name, total] : rows) {
      out += first_row ? "" : ", ";
      first_row = false;
      out += "\"" + json_escape(name) +
             "\": " + fmt_ms(static_cast<double>(total.total_ns) / 1e6);
    }
    out += "}}";
  }
  out += first_thread ? "],\n" : "\n    ],\n";
  out += "    \"dropped_spans\": " + std::to_string(snap.dropped_spans) + "\n";
  out += "  }\n}\n";
  return out;
}

std::string metrics_report_text(const TelemetrySnapshot& snap) {
  std::string out;
  char line[256];
  out += "telemetry stage totals (wall-clock durations are non-deterministic):\n";
  std::snprintf(line, sizeof(line), "  %-30s %12s %14s %12s\n", "stage", "count",
                "total_ms", "mean_us");
  out += line;
  for (const auto& [name, total] : sorted_stages(snap)) {
    std::snprintf(line, sizeof(line), "  %-30s %12llu %14.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(total.count),
                  static_cast<double>(total.total_ns) / 1e6,
                  static_cast<double>(total.total_ns) / 1e3 /
                      static_cast<double>(total.count));
    out += line;
  }
  out += "telemetry counters (deterministic per seed at any thread count):\n";
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c) {
    std::snprintf(line, sizeof(line), "  %-30s %12llu\n",
                  counter_name(static_cast<Counter>(c)),
                  static_cast<unsigned long long>(
                      c < snap.counters.size() ? snap.counters[c] : 0));
    out += line;
  }
  if (snap.dropped_spans > 0) {
    std::snprintf(line, sizeof(line),
                  "  warning: %llu spans dropped past the per-thread cap\n",
                  static_cast<unsigned long long>(snap.dropped_spans));
    out += line;
  }
  return out;
}

bool check_span_nesting(const TelemetrySnapshot& snap, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };

  // Per thread, sorted by (start asc, end desc) -- parents first -- every
  // span must either start at or after the enclosing span's end or end
  // within it. Partial overlap on one thread cannot come from call nesting
  // and means the recording is corrupt. The timestamps are exact integer
  // nanoseconds, so siblings that touch (end == next start) are disjoint.
  for (const ThreadSnapshot& t : snap.threads) {
    const std::string at = "tid " + std::to_string(t.thread_index);
    std::vector<SpanEvent> events = t.events;
    for (const SpanEvent& e : events) {
      if (e.end_ns < e.start_ns) return fail("a span on " + at + " ends before it starts");
      if (e.id >= snap.span_names.size()) {
        return fail("a span on " + at + " has unknown id " + std::to_string(e.id));
      }
    }
    std::sort(events.begin(), events.end(), [](const SpanEvent& a, const SpanEvent& b) {
      if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
      return a.end_ns > b.end_ns;
    });
    std::vector<std::uint64_t> open_ends;
    for (const SpanEvent& e : events) {
      while (!open_ends.empty() && open_ends.back() <= e.start_ns) open_ends.pop_back();
      if (!open_ends.empty() && e.end_ns > open_ends.back()) {
        return fail("spans on " + at + " partially overlap (not properly nested)");
      }
      open_ends.push_back(e.end_ns);
    }
  }
  return true;
}

}  // namespace resloc::obs
