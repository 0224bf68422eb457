#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace resloc::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_capture_spans{false};
}  // namespace detail

namespace {

class SteadyClock final : public ClockSource {
 public:
  std::uint64_t now_ns() const override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

const SteadyClock g_steady_clock;

std::atomic<const ClockSource*> g_clock{&g_steady_clock};

std::atomic<std::size_t> g_max_spans_per_thread{std::size_t{1} << 20};

/// One thread's recording cell. Owned by the registry (so it survives the
/// thread's exit and snapshot() can still read it); the owning thread holds
/// only a raw pointer in a thread_local.
struct ThreadBuffer {
  std::size_t thread_index = 0;
  std::vector<SpanEvent> events;
  std::vector<StageTotal> stage_totals;
  std::uint64_t counters[static_cast<std::size_t>(Counter::kCount)] = {};
  std::uint64_t dropped_spans = 0;

  void record_span(SpanId id, std::uint64_t start_ns, std::uint64_t end_ns) {
    if (id >= stage_totals.size()) stage_totals.resize(id + 1);
    StageTotal& total = stage_totals[id];
    ++total.count;
    total.total_ns += end_ns - start_ns;
    if (capture_spans()) {
      if (events.size() < g_max_spans_per_thread.load(std::memory_order_relaxed)) {
        events.push_back(SpanEvent{id, start_ns, end_ns});
      } else {
        ++dropped_spans;
      }
    }
  }
};

/// Registry: span names + every thread buffer ever created. The mutex guards
/// registration and collection only; per-span recording touches nothing here.
struct Registry {
  std::mutex mutex;
  std::vector<std::string> span_names;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: threads may record at exit
  return *r;
}

thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    r.buffers.back()->thread_index = r.buffers.size() - 1;
    t_buffer = r.buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

const ClockSource& clock_source() { return *g_clock.load(std::memory_order_relaxed); }

std::uint64_t now_ns() { return g_clock.load(std::memory_order_relaxed)->now_ns(); }

void set_clock_source(const ClockSource* clock) {
  g_clock.store(clock != nullptr ? clock : &g_steady_clock, std::memory_order_relaxed);
}

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

void set_capture_spans(bool on) {
  detail::g_capture_spans.store(on, std::memory_order_relaxed);
}

void set_max_spans_per_thread(std::size_t cap) {
  g_max_spans_per_thread.store(std::max<std::size_t>(cap, 1), std::memory_order_relaxed);
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kMeasureCalls: return "measure_calls";
    case Counter::kMeasureDetections: return "measure_detections";
    case Counter::kChirpWindows: return "chirp_windows";
    case Counter::kCampaignTurns: return "campaign_turns";
    case Counter::kFilteredPairs: return "filtered_pairs";
    case Counter::kGdEvaluations: return "gd_evaluations";
    case Counter::kGdIterations: return "gd_iterations";
    case Counter::kGdBacktracks: return "gd_backtracks";
    case Counter::kGdRestartRounds: return "gd_restart_rounds";
    case Counter::kLssEdgeTerms: return "lss_edge_terms";
    case Counter::kLssConstraintPairs: return "lss_constraint_pairs";
    case Counter::kLssNeighborRebuilds: return "lss_neighbor_rebuilds";
    case Counter::kRunnerTrials: return "runner_trials";
    case Counter::kRunnerTrialFailures: return "runner_trial_failures";
    case Counter::kChannelCacheHits: return "channel_cache_hits";
    case Counter::kChannelCacheMisses: return "channel_cache_misses";
    case Counter::kRunnerTrialRetries: return "runner_trial_retries";
    case Counter::kTrialFailScenario: return "trial_fail_scenario_build";
    case Counter::kTrialFailConfig: return "trial_fail_config";
    case Counter::kTrialFailMeasurement: return "trial_fail_measurement";
    case Counter::kTrialFailSolver: return "trial_fail_solver";
    case Counter::kTrialFailNonStd: return "trial_fail_non_std";
    case Counter::kCount: break;
  }
  return "unknown";
}

void add(Counter c, std::uint64_t delta) {
  if (!enabled()) return;
  buffer().counters[static_cast<std::size_t>(c)] += delta;
}

SpanId intern_span(const char* name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (std::size_t i = 0; i < r.span_names.size(); ++i) {
    if (r.span_names[i] == name) return static_cast<SpanId>(i);
  }
  r.span_names.emplace_back(name);
  return static_cast<SpanId>(r.span_names.size() - 1);
}

SpanScope::~SpanScope() {
  if (!active_) return;
  const std::uint64_t end_ns = now_ns();
  buffer().record_span(id_, start_ns_, end_ns);
}

void SpanChain::enter(SpanId id) {
  if (!active_ || (running_ && id == id_)) return;
  const std::uint64_t now = now_ns();
  if (running_) buffer().record_span(id_, start_ns_, now);
  id_ = id;
  start_ns_ = now;
  running_ = true;
}

void SpanChain::end() {
  if (!active_ || !running_) return;
  buffer().record_span(id_, start_ns_, now_ns());
  running_ = false;
}

std::uint64_t TelemetrySnapshot::stage_total_ns(const std::string& name) const {
  for (std::size_t i = 0; i < span_names.size() && i < stage_totals.size(); ++i) {
    if (span_names[i] == name) return stage_totals[i].total_ns;
  }
  return 0;
}

std::uint64_t TelemetrySnapshot::stage_count(const std::string& name) const {
  for (std::size_t i = 0; i < span_names.size() && i < stage_totals.size(); ++i) {
    if (span_names[i] == name) return stage_totals[i].count;
  }
  return 0;
}

std::uint64_t TelemetrySnapshot::counter(Counter c) const {
  const auto i = static_cast<std::size_t>(c);
  return i < counters.size() ? counters[i] : 0;
}

TelemetrySnapshot snapshot() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);

  TelemetrySnapshot snap;
  snap.span_names = r.span_names;
  snap.counters.assign(static_cast<std::size_t>(Counter::kCount), 0);
  snap.stage_totals.assign(r.span_names.size(), StageTotal{});
  snap.threads.reserve(r.buffers.size());

  for (const auto& buf : r.buffers) {
    ThreadSnapshot t;
    t.thread_index = buf->thread_index;
    t.events = buf->events;
    t.stage_totals = buf->stage_totals;
    t.dropped_spans = buf->dropped_spans;
    snap.dropped_spans += buf->dropped_spans;
    // Merge: integer sums, so the totals are independent of both thread
    // count and merge order for a deterministic workload.
    for (std::size_t c = 0; c < snap.counters.size(); ++c) {
      snap.counters[c] += buf->counters[c];
    }
    for (std::size_t s = 0; s < buf->stage_totals.size() && s < snap.stage_totals.size();
         ++s) {
      snap.stage_totals[s].count += buf->stage_totals[s].count;
      snap.stage_totals[s].total_ns += buf->stage_totals[s].total_ns;
    }
    snap.threads.push_back(std::move(t));
  }
  return snap;
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& buf : r.buffers) {
    buf->events.clear();
    buf->stage_totals.clear();
    buf->dropped_spans = 0;
    for (std::uint64_t& c : buf->counters) c = 0;
  }
}

std::vector<std::string> recent_spans_this_thread(std::size_t max_spans) {
  std::vector<std::string> out;
  if (t_buffer == nullptr) return out;
  // Span names are read under the registry mutex; the event list belongs to
  // the calling thread, so it needs no lock.
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const std::vector<SpanEvent>& events = t_buffer->events;
  const std::size_t n = std::min(max_spans, events.size());
  out.reserve(n);
  for (std::size_t i = events.size() - n; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    const std::string name = e.id < r.span_names.size() ? r.span_names[e.id] : "?";
    out.push_back(name + " [" + std::to_string(e.start_ns) + ".." +
                  std::to_string(e.end_ns) + "]");
  }
  return out;
}

}  // namespace resloc::obs
