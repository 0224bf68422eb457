#include "obs/trace_export.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
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

// --- Minimal JSON parser (validation only: structure, no number semantics
// --- beyond double parsing). Recursive descent over the RFC 8259 grammar,
// --- sufficient for the trace self-check without an external dependency.

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, error)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing characters after top-level value at byte " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool fail(std::string& error, const std::string& what) {
    error = what + " at byte " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out, std::string& error) {
    if (pos_ >= text_.size()) return fail(error, "unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, error);
    if (c == '[') return parse_array(out, error);
    if (c == '"') {
      out.type = JsonValue::kString;
      return parse_string(out.str, error);
    }
    if (c == 't' || c == 'f') return parse_literal(out, error);
    if (c == 'n') return parse_literal(out, error);
    return parse_number(out, error);
  }

  bool parse_literal(JsonValue& out, std::string& error) {
    const auto match = [&](const char* word) {
      const std::size_t len = std::string(word).size();
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    if (match("true")) {
      out.type = JsonValue::kBool;
      out.boolean = true;
      return true;
    }
    if (match("false")) {
      out.type = JsonValue::kBool;
      out.boolean = false;
      return true;
    }
    if (match("null")) {
      out.type = JsonValue::kNull;
      return true;
    }
    return fail(error, "invalid literal");
  }

  bool parse_number(JsonValue& out, std::string& error) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&]() {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > before;
    };
    if (!digits()) return fail(error, "invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return fail(error, "invalid number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) return fail(error, "invalid number exponent");
    }
    out.type = JsonValue::kNumber;
    out.number = std::strtod(text_.c_str() + start, nullptr);
    return true;
  }

  bool parse_string(std::string& out, std::string& error) {
    if (text_[pos_] != '"') return fail(error, "expected string");
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail(error, "unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail(error, "truncated \\u escape");
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
                return fail(error, "invalid \\u escape");
              }
            }
            pos_ += 4;
            out += '?';  // code point identity is irrelevant to validation
            break;
          }
          default: return fail(error, "unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail(error, "unescaped control character in string");
      } else {
        out += c;
      }
    }
    return fail(error, "unterminated string");
  }

  bool parse_array(JsonValue& out, std::string& error) {
    out.type = JsonValue::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue item;
      skip_ws();
      if (!parse_value(item, error)) return false;
      out.array.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or ']' in array");
    }
  }

  bool parse_object(JsonValue& out, std::string& error) {
    out.type = JsonValue::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail(error, "expected object key");
      }
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail(error, "expected ':' after object key");
      }
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

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

bool validate_chrome_trace(const std::string& json, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };

  JsonValue root;
  std::string parse_error;
  JsonParser parser(json);
  if (!parser.parse(root, parse_error)) return fail("invalid JSON: " + parse_error);
  if (root.type != JsonValue::kObject) return fail("top-level value is not an object");
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->type != JsonValue::kArray) {
    return fail("missing traceEvents array");
  }

  // Whole nanoseconds: ts and dur are written with 3 decimals of a
  // microsecond, and adding them as doubles can push a span's end a rounding
  // error past the start of a sibling that begins exactly where it ends.
  struct Interval {
    long long start = 0;
    long long end = 0;
  };
  const auto to_ns = [](double us) { return std::llround(us * 1000.0); };
  std::map<double, std::vector<Interval>> by_tid;

  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (e.type != JsonValue::kObject) return fail(at + " is not an object");
    const JsonValue* name = e.find("name");
    const JsonValue* ph = e.find("ph");
    const JsonValue* ts = e.find("ts");
    const JsonValue* dur = e.find("dur");
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    if (name == nullptr || name->type != JsonValue::kString || name->str.empty()) {
      return fail(at + " has no name");
    }
    if (ph == nullptr || ph->type != JsonValue::kString || ph->str != "X") {
      return fail(at + " is not a complete ('X') event");
    }
    if (ts == nullptr || ts->type != JsonValue::kNumber || ts->number < 0.0) {
      return fail(at + " has no non-negative ts");
    }
    if (dur == nullptr || dur->type != JsonValue::kNumber || dur->number < 0.0) {
      return fail(at + " has no non-negative dur");
    }
    if (pid == nullptr || pid->type != JsonValue::kNumber) return fail(at + " has no pid");
    if (tid == nullptr || tid->type != JsonValue::kNumber) return fail(at + " has no tid");
    by_tid[tid->number].push_back(
        Interval{to_ns(ts->number), to_ns(ts->number) + to_ns(dur->number)});
  }

  // Nesting check per thread: sorted by (start asc, end desc) -- parents
  // first -- every span must either start after the enclosing span ends or
  // end within it. Partial overlap on one thread cannot come from call
  // nesting and means the trace is corrupt.
  for (auto& [tid, intervals] : by_tid) {
    std::sort(intervals.begin(), intervals.end(), [](const Interval& a, const Interval& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.end > b.end;
    });
    std::vector<Interval> stack;
    for (const Interval& iv : intervals) {
      while (!stack.empty() && stack.back().end <= iv.start) stack.pop_back();
      if (!stack.empty() && iv.end > stack.back().end) {
        return fail("spans on tid " + std::to_string(static_cast<long long>(tid)) +
                    " partially overlap (not properly nested)");
      }
      stack.push_back(iv);
    }
  }
  return true;
}

}  // namespace resloc::obs
