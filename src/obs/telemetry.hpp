// Pipeline-wide telemetry: scoped spans, counters, and stage timing.
//
// The observability substrate every optimization PR leans on: before tearing
// down a wall like the ~110 us/pair acoustic-physics budget (ROADMAP item 1),
// the trace must say which named stage owns it. Three primitives:
//
//   - Spans: RAII scopes (RESLOC_SPAN("ranging/channel")) recorded into
//     per-thread buffers with no locking on the hot path. Every span feeds a
//     per-thread per-stage accumulator (count + total duration); when span
//     capture is on, the individual (start, end) events are additionally kept
//     (capped per thread) for the Chrome trace-event export.
//   - Counters: a fixed enum of cheap monotonically increasing tallies
//     (objective evaluations, chirp windows, constraint pairs, trials).
//     Counter totals are sums of per-thread cells, so for a deterministic
//     workload they are byte-identical at any thread count.
//   - Clock: a monotonic nanosecond source behind an injectable interface so
//     tests can drive spans with a manual clock and assert exact durations.
//     The production default is std::chrono::steady_clock (a vdso
//     clock_gettime call); a hardware measure takes 7 reads across its 5
//     spans, which the < 10% enabled gate prices.
//
// Determinism contract: telemetry never feeds back into the computation --
// enabling it cannot change a single output byte (locked by test_obs).
// Counter totals and span/stage *counts* are deterministic for a fixed
// (seed, workload); durations are wall-clock and therefore are NOT, which is
// why they live in the metrics report and the trace file, never in the
// golden-checked campaign aggregates.
//
// Cost model: everything is behind one global enable flag. Disabled, a span
// is a single relaxed atomic load and branch (bench_obs_overhead gates the
// end-to-end cost at < 2% of the survey-density campaign); enabled, a span
// is two clock reads plus two thread-local array updates (< 10%, same gate).
//
// Thread model: recording is lock-free (each thread appends to its own
// buffer; registration of a new thread takes the registry mutex once).
// snapshot()/reset() take the registry mutex and must not race live span
// recording -- call them between campaigns, after worker pools have joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace resloc::obs {

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Monotonic nanosecond clock behind a virtual interface so tests can inject
/// a manual clock and make span durations deterministic.
class ClockSource {
 public:
  virtual ~ClockSource() = default;
  virtual std::uint64_t now_ns() const = 0;
};

/// The active clock (defaults to a std::chrono::steady_clock wrapper).
const ClockSource& clock_source();

/// Current time on the active clock -- the span hot path;
/// clock_source().now_ns().
std::uint64_t now_ns();

/// Injects a clock; nullptr restores the default steady clock. The pointee
/// must outlive every span recorded under it. Test hook; not thread-safe
/// against concurrent span recording.
void set_clock_source(const ClockSource* clock);

// ---------------------------------------------------------------------------
// Enable flags
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_capture_spans;
}  // namespace detail

/// Master switch. Off (the default): spans and counters are a single relaxed
/// load + branch and record nothing.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on);

/// Sub-switch for the trace-event buffer: when off, spans still feed the
/// per-stage totals and counters but individual events are not retained
/// (metrics without the memory cost of a full trace).
inline bool capture_spans() {
  return detail::g_capture_spans.load(std::memory_order_relaxed);
}
void set_capture_spans(bool on);

/// Per-thread cap on retained span events (default 1 << 20). Events past the
/// cap are dropped and counted, never silently lost.
void set_max_spans_per_thread(std::size_t cap);

// ---------------------------------------------------------------------------
// Counters (deterministic)
// ---------------------------------------------------------------------------

/// The fixed counter set. Fixed at compile time so the hot-path increment is
/// an index into a per-thread array, and so reports always enumerate the
/// same keys in the same order.
enum class Counter : std::uint32_t {
  kMeasureCalls = 0,     ///< RangingService::measure invocations
  kMeasureDetections,    ///< measure calls that produced a distance estimate
  kChirpWindows,         ///< per-chirp receive/detect windows processed
  kCampaignTurns,        ///< (round, source) turns of the measurement loop
  kFilteredPairs,        ///< symmetric pair estimates surviving the filters
  kGdEvaluations,        ///< objective evaluations inside math::minimize
  kGdIterations,         ///< accepted gradient-descent iterations
  kGdBacktracks,         ///< step halvings in the adaptive line search
  kGdRestartRounds,      ///< perturbation-restart rounds
  kLssEdgeTerms,         ///< measured-edge terms evaluated by the stress objective
  kLssConstraintPairs,   ///< active min-spacing constraint pairs evaluated
  kLssNeighborRebuilds,  ///< LSS soft-constraint skin-list builds
  kRunnerTrials,         ///< trials claimed from the runner's shared cursor
  kRunnerTrialFailures,  ///< trials that ended in an exception
  kChannelCacheHits,     ///< link responses served from sim::ChannelResponseCache
  kChannelCacheMisses,   ///< link responses recomputed (cold or evicted entry)
  kRunnerTrialRetries,   ///< bounded re-runs of failed trials (max_trial_retries)
  kTrialFailScenario,    ///< trial failures classified scenario_build
  kTrialFailConfig,      ///< trial failures classified config
  kTrialFailMeasurement, ///< trial failures classified measurement
  kTrialFailSolver,      ///< trial failures classified solver
  kTrialFailNonStd,      ///< trial failures from non-std exceptions
  kCount
};

/// Stable report key of a counter ("measure_calls", "gd_evaluations", ...).
const char* counter_name(Counter c);

/// Adds to a counter's calling-thread cell. No-op when telemetry is off.
void add(Counter c, std::uint64_t delta = 1);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Interned span-name handle. Interning takes a mutex once per call site
/// (function-local static); recording is an array index.
using SpanId = std::uint32_t;

/// Registers `name` (idempotent: the same string yields the same id) and
/// returns its id. `name` should be a string literal; the registry stores a
/// copy either way.
SpanId intern_span(const char* name);

/// One recorded span occurrence (timestamps from the active clock).
struct SpanEvent {
  SpanId id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-stage accumulator: how many times a span ran and its total duration.
/// `count` is deterministic for a deterministic workload; `total_ns` is not.
struct StageTotal {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// RAII span. Construct with an interned id (use RESLOC_SPAN; it handles the
/// interning); the destructor records the event. When telemetry is disabled
/// at construction the scope is inert, whatever the flag does later.
class SpanScope {
 public:
  explicit SpanScope(SpanId id)
      : id_(id), active_(enabled()) {
    if (active_) start_ns_ = now_ns();
  }
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanId id_;
  std::uint64_t start_ns_ = 0;
  bool active_;
};

/// Back-to-back sibling spans on one thread (use RESLOC_SPAN_ENTER):
/// enter() ends the running span and starts the next at one clock read, and
/// end() (or the destructor) ends the last. It records the same spans as one
/// SpanScope per stage, each ending where the next starts, for k + 1 clock
/// reads instead of 2k: the stages of the block-DSP measure path are short
/// enough that the second read is a visible share of the enabled-mode cost.
/// Entering the running stage again continues it (no read, no new span).
/// Inert when telemetry is disabled at construction.
class SpanChain {
 public:
  SpanChain() : active_(enabled()) {}
  ~SpanChain() { end(); }
  SpanChain(const SpanChain&) = delete;
  SpanChain& operator=(const SpanChain&) = delete;

  void enter(SpanId id);
  void end();

 private:
  SpanId id_ = 0;
  std::uint64_t start_ns_ = 0;
  bool active_;
  bool running_ = false;
};

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

/// One thread's recorded telemetry. Thread indices are registration order --
/// stable within a run, not across runs (display only).
struct ThreadSnapshot {
  std::size_t thread_index = 0;
  std::vector<SpanEvent> events;         ///< retained trace events (may be capped)
  std::vector<StageTotal> stage_totals;  ///< indexed by SpanId (may be short)
  std::uint64_t dropped_spans = 0;       ///< events past the per-thread cap
};

/// Everything recorded since the last reset(). Buffers of exited threads are
/// retained, so collecting after a worker pool joins loses nothing.
struct TelemetrySnapshot {
  std::vector<std::string> span_names;      ///< indexed by SpanId
  std::vector<std::uint64_t> counters;      ///< indexed by Counter; summed over threads
  std::vector<StageTotal> stage_totals;     ///< indexed by SpanId; summed over threads
  std::vector<ThreadSnapshot> threads;
  std::uint64_t dropped_spans = 0;          ///< summed over threads

  /// Total duration of `name` across all threads (0 when never recorded).
  std::uint64_t stage_total_ns(const std::string& name) const;
  /// Occurrence count of `name` across all threads.
  std::uint64_t stage_count(const std::string& name) const;
  /// Counter total by enum.
  std::uint64_t counter(Counter c) const;
};

/// Copies out all per-thread buffers and the merged totals. Takes the
/// registry mutex; do not call concurrently with span recording.
TelemetrySnapshot snapshot();

/// Clears every thread buffer and counter cell (span-name interning is kept:
/// ids remain valid). Same thread-safety caveat as snapshot().
void reset();

/// The last `max_spans` completed spans recorded by the *calling* thread,
/// oldest first, formatted "name [start_ns..end_ns]". Post-hoc failure
/// context: a catch block attaches this to its error report to show what the
/// trial was doing when it died. Requires span capture; empty otherwise.
std::vector<std::string> recent_spans_this_thread(std::size_t max_spans);

}  // namespace resloc::obs

// Scoped span macro: interns the name once (function-local static), then
// opens a SpanScope for the rest of the enclosing block. Usable multiple
// times per scope (line-suffixed identifiers).
#define RESLOC_OBS_CONCAT_IMPL(a, b) a##b
#define RESLOC_OBS_CONCAT(a, b) RESLOC_OBS_CONCAT_IMPL(a, b)
#define RESLOC_SPAN(name)                                                      \
  static const ::resloc::obs::SpanId RESLOC_OBS_CONCAT(                        \
      resloc_span_id_, __LINE__) = ::resloc::obs::intern_span(name);           \
  const ::resloc::obs::SpanScope RESLOC_OBS_CONCAT(resloc_span_scope_,         \
                                                   __LINE__)(                  \
      RESLOC_OBS_CONCAT(resloc_span_id_, __LINE__))

// Chain-stage macro: interns the name once, then moves `chain` (a SpanChain)
// on to that stage.
#define RESLOC_SPAN_ENTER(chain, name)                                         \
  do {                                                                         \
    static const ::resloc::obs::SpanId resloc_span_id_ =                       \
        ::resloc::obs::intern_span(name);                                      \
    (chain).enter(resloc_span_id_);                                            \
  } while (false)
