// Shared helpers for the bench binaries: figure banners, the timing harness
// and the BENCH_*.json record writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "eval/aggregate.hpp"
#include "eval/report.hpp"
#include "math/simd_dispatch.hpp"
#include "math/stats.hpp"

namespace bench {

inline void print_banner(const std::string& title) {
  std::fputs(resloc::eval::banner(title).c_str(), stdout);
}

inline void print_compare(const std::string& label, double paper, double ours,
                          const std::string& unit) {
  std::puts(resloc::eval::compare_line(label, paper, ours, unit).c_str());
}

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time of the fastest of `reps` calls of `fn` (seconds); best_of(1, fn)
/// times one call.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    best = std::min(best, now_s() - t0);
  }
  return best;
}

/// Median and quartiles of a sample (linear interpolation).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  Quartiles scaled(double k) const { return {q1 * k, median * k, q3 * k}; }
};

inline Quartiles quartiles(const std::vector<double>& v) {
  const auto p = [&](double pct) { return resloc::math::percentile(v, pct).value_or(0.0); };
  return {p(25.0), p(50.0), p(75.0)};
}

/// Quartiles of the per-rep ratio a[r] / b[r].
inline Quartiles ratio_quartiles(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < a.size(); ++r) ratios.push_back(a[r] / b[r]);
  return quartiles(ratios);
}

/// The interleaved estimator: each rep times every variant once, the variants
/// taking turns, and seconds[variant][rep] comes back. A drift in machine
/// speed hits all variants of one rep alike, so a ratio formed per rep
/// cancels it, and the median over reps ignores a co-tenant burst landing
/// in any one rep; a ratio of two best-ofs has neither property.
inline std::vector<std::vector<double>> interleave(
    int reps, const std::vector<std::function<void()>>& variants) {
  std::vector<std::vector<double>> seconds(variants.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      seconds[v].push_back(best_of(1, variants[v]));
    }
  }
  return seconds;
}

/// Two variants through interleave(): the seconds of each and the per-rep
/// ratio a / b (a speedup when a is the slower reference).
struct Paired {
  Quartiles a_s;
  Quartiles b_s;
  Quartiles ratio;
};

template <typename A, typename B>
Paired paired(int reps, A&& a, B&& b) {
  const auto s = interleave(reps, {a, b});
  return {quartiles(s[0]), quartiles(s[1]), ratio_quartiles(s[0], s[1])};
}

/// One value of a bench record: a number, string or bool, or an object or
/// array that keeps its members in insertion order. Numbers print through
/// eval::format_value (non-finite ones as null); a container of scalars
/// prints on one line, any other one member per line.
class Json {
 public:
  Json(double x) : text_(std::isfinite(x) ? resloc::eval::format_value(x) : "null") {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>, int> = 0>
  Json(T x) : text_(std::to_string(x)) {}
  Json(bool b) : text_(b ? "true" : "false") {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(const std::string& s) : text_(quote(s)) {}
  Json(const Quartiles& q) : Json(object()) {
    set("median", q.median).set("q1", q.q1).set("q3", q.q3);
  }

  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }

  /// Appends member `key` to an object.
  Json& set(const std::string& key, Json value) {
    keys_.push_back(key);
    values_.push_back(std::move(value));
    return *this;
  }
  /// Appends an element to an array.
  Json& push(Json value) { return set("", std::move(value)); }

  std::string dump(int depth = 0) const {
    if (kind_ == Kind::kScalar) return text_;
    const bool flat = std::all_of(values_.begin(), values_.end(),
                                  [](const Json& v) { return v.kind_ == Kind::kScalar; });
    const std::string pad = flat ? "" : "\n" + std::string(2 * depth + 2, ' ');
    std::string out(1, kind_ == Kind::kObject ? '{' : '[');
    for (std::size_t i = 0; i < values_.size(); ++i) {
      out += i == 0 ? pad : flat ? ", " : "," + pad;
      if (kind_ == Kind::kObject) out += quote(keys_[i]) + ": ";
      out += values_[i].dump(depth + 1);
    }
    if (!flat) out += "\n" + std::string(2 * depth, ' ');
    return out + (kind_ == Kind::kObject ? '}' : ']');
  }

  /// Writes the record to `path` and says where; false (and a message on
  /// stderr) when the file cannot be written.
  bool write(const std::string& path) const {
    if (!resloc::eval::write_text_file(path, dump() + "\n")) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      return false;
    }
    std::printf("\nbench record: %s\n", path.c_str());
    return true;
  }

 private:
  enum class Kind { kScalar, kObject, kArray };
  explicit Json(Kind kind) : kind_(kind) {}

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  Kind kind_ = Kind::kScalar;
  std::string text_;
  std::vector<std::string> keys_;  ///< empty for array elements
  std::vector<Json> values_;
};

/// The machine and build behind a record's timings: the SIMD dispatch path
/// the kernels take, the CPU, hardware threads, compiler and build type.
inline Json run_info() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; cpu == "unknown" && std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) cpu = line.substr(line.find(':') + 2);
  }
  const char* simd = resloc::math::cpu_has_avx512_kernels() ? "avx512"
                     : resloc::math::cpu_has_avx2_kernels() ? "avx2"
                                                            : "portable";
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  return Json::object()
      .set("simd", simd)
      .set("cpu", cpu)
      .set("hardware_threads", std::thread::hardware_concurrency())
      .set("compiler", compiler)
      .set("build_type", RESLOC_BENCH_BUILD_TYPE);
}

/// A new record: {"bench": name, "run": run_info()}; the bench adds the rest.
inline Json record(const std::string& bench) {
  return Json::object().set("bench", bench).set("run", run_info());
}

/// A bench's exit code: 0 when its record was written and every named gate
/// holds; each failed gate is named on stderr.
inline int exit_code(bool written, const std::vector<std::pair<std::string, bool>>& gates) {
  bool ok = written;
  for (const auto& [gate, holds] : gates) {
    if (!holds) std::fprintf(stderr, "FAIL: %s\n", gate.c_str());
    ok = ok && holds;
  }
  return ok ? 0 : 1;
}

}  // namespace bench
