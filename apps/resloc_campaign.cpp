// resloc_campaign -- run a named Monte-Carlo parameter sweep end to end.
//
//   resloc_campaign --list
//   resloc_campaign --sweep grid --threads 8 --json report.json --csv report.csv
//   resloc_campaign --sweep smoke --seed 7 --trials 2
//
// Each named sweep is a declarative SweepSpec over the scenario registry and
// the localization pipeline; the CampaignRunner fans its trials out across
// worker threads with deterministic per-trial RNG substreams, so the JSON and
// CSV aggregates are byte-identical for a given --seed at any --threads value
// (wall-clock timing goes to stdout only, never into the reports).
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "acoustics/environment.hpp"
#include "acoustics/units.hpp"
#include "eval/aggregate.hpp"
#include "eval/report.hpp"
#include "fault/fault_plan.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "ranging/ranging_service.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/sweep_spec.hpp"
#include "sim/scenario_registry.hpp"

using resloc::pipeline::MeasurementSource;
using resloc::pipeline::Solver;
using resloc::runner::CampaignResult;
using resloc::runner::CampaignRunner;
using resloc::runner::RunnerOptions;
using resloc::runner::SweepSpec;

namespace {

struct NamedSweep {
  std::string description;
  SweepSpec spec;
};

SweepSpec synthetic_base(const std::string& name) {
  SweepSpec spec;
  spec.name = name;
  spec.base.source = MeasurementSource::kSyntheticGaussian;
  return spec;
}

// The built-in sweep catalog. Trial counts are defaults; --trials overrides.
std::map<std::string, NamedSweep> sweep_catalog() {
  std::map<std::string, NamedSweep> catalog;

  {  // Tiny 2x2 sweep for CI smoke runs: 4 cells, 1 trial each.
    SweepSpec spec = synthetic_base("smoke");
    spec.trials_per_cell = 1;
    spec.axes.node_counts = {16, 25};
    spec.axes.noise_sigmas = {0.33, 1.0};
    spec.axes.anchor_counts = {6};
    catalog["smoke"] = {"2x2 smoke grid (4 multilateration trials, sub-second)", spec};
  }
  {  // The default workhorse: error vs node count x sigma x anchor count.
    SweepSpec spec = synthetic_base("grid");
    spec.trials_per_cell = 10;
    spec.axes.node_counts = {25, 49};
    spec.axes.noise_sigmas = {0.2, 0.33, 0.5};
    spec.axes.anchor_counts = {10, 13};
    catalog["grid"] = {"multilateration error vs nodes x sigma x anchors (12 cells, 120 trials)",
                       spec};
  }
  {  // Figure 13/14-flavored: how anchor density gates placement rate.
    SweepSpec spec = synthetic_base("anchors");
    spec.trials_per_cell = 10;
    spec.axes.scenarios = {"grass_grid"};
    spec.axes.noise_sigmas = {0.33};
    spec.axes.anchor_counts = {4, 6, 8, 13, 20};
    catalog["anchors"] = {"placement rate vs anchor count on the grass grid (50 trials)", spec};
  }
  {  // Error vs noise sigma, the Section 4.1.3 sensitivity axis.
    SweepSpec spec = synthetic_base("noise");
    spec.trials_per_cell = 15;
    spec.axes.scenarios = {"grass_grid"};
    spec.axes.noise_sigmas = {0.1, 0.2, 0.33, 0.5, 1.0, 2.0};
    spec.axes.anchor_counts = {13};
    catalog["noise"] = {"multilateration error vs noise sigma (6 cells, 90 trials)", spec};
  }
  {  // Mote-failure resilience across two geometries.
    SweepSpec spec = synthetic_base("dropout");
    spec.trials_per_cell = 10;
    spec.axes.scenarios = {"offset_grid", "town"};
    spec.axes.noise_sigmas = {0.33};
    spec.axes.anchor_counts = {13};
    spec.axes.drop_rates = {0.0, 0.1, 0.2, 0.3};
    catalog["dropout"] = {"error/placement vs node drop rate, grid + town (80 trials)", spec};
  }
  {  // Solver shootout including the (costlier) centralized LSS. The
     // synthetic source already measures every in-range pair, so no
     // augmentation axis: it would be a no-op here.
    SweepSpec spec = synthetic_base("solvers");
    spec.trials_per_cell = 5;
    spec.axes.scenarios = {"grass_grid"};
    spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
    spec.axes.noise_sigmas = {0.33, 1.0};
    spec.axes.anchor_counts = {13};
    catalog["solvers"] = {"multilateration vs centralized LSS, dense synthetic (20 trials)",
                          spec};
  }
  {  // The large-scale tier: campus_500 and city_1000 end to end, n x solver.
     // Viable because the LSS soft constraint's active set is walked from a
     // skin candidate list (an O(n) check per objective evaluation, rebuilt
     // by spatial grid only when a node has moved; see BENCH_lss.json)
     // instead of the former O(n^2) all-pairs scan.
    SweepSpec spec = synthetic_base("scale");
    spec.trials_per_cell = 2;
    spec.axes.scenarios = {"campus_500", "city_1000"};
    spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
    spec.axes.noise_sigmas = {0.33};
    spec.axes.anchor_counts = {40};
    // 40 anchors cover a fraction of a 390 x 290 m field: progressive
    // promotion (Section 4.1.1's modification) is what lets multilateration
    // reach the interior.
    spec.base.multilateration.progressive = true;
    // Random init cannot unfold 10^3 nodes; DV-hop seeds a coarse absolute
    // configuration that one LSS descent (3 perturbation rounds) refines to
    // sub-meter error. (independent_inits / target_stress_per_edge govern
    // localize_lss's multi-attempt loop and do not apply to seeded solves.)
    spec.base.lss_init = resloc::pipeline::LssInit::kDvHopSeeded;
    spec.base.lss.restarts.rounds = 3;
    spec.base.lss.gd.max_iterations = 2500;
    spec.base.lss.init_box_m = 400.0;
    catalog["scale"] = {"large-scale tier: {campus_500, city_1000} x {multilat, lss} (8 trials)",
                       spec};
  }
  {  // Small-n cut of the scale axes for CI: seconds, not minutes, and the
     // 1-vs-8-thread byte-identity check runs on exactly these cells.
    SweepSpec spec = synthetic_base("scale_smoke");
    spec.trials_per_cell = 1;
    spec.axes.scenarios = {"uniform_n"};
    spec.axes.node_counts = {64, 100};
    spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
    spec.axes.noise_sigmas = {0.33};
    spec.axes.anchor_counts = {16};
    spec.base.multilateration.progressive = true;
    spec.base.lss_init = resloc::pipeline::LssInit::kDvHopSeeded;
    spec.base.lss.restarts.rounds = 3;
    spec.base.lss.init_box_m = 130.0;  // uniform_n at n=100 spans ~120 m
    catalog["scale_smoke"] = {"node_counts x solver smoke cut of 'scale' (4 trials, CI)", spec};
  }
  {  // The full acoustic ranging stack at the large-scale tier: the same
     // {campus_500, city_1000} x solver grid as 'scale', but every trial runs
     // the complete Section 3 campaign (chirps, accumulation, filtering,
     // bidirectional consistency) instead of the Gaussian shortcut. Viable
     // because measurement acquisition is grid-culled (O(n + in-range pairs)
     // per round, O(1) shadowing memory, see BENCH_campaign.json) -- the seed
     // front end scanned rounds x n^2 pairs and held an n^2 shadowing matrix.
    SweepSpec spec;
    spec.name = "acoustic_scale";
    spec.base.source = MeasurementSource::kAcousticRanging;
    spec.trials_per_cell = 2;
    spec.axes.scenarios = {"campus_500", "city_1000"};
    spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
    spec.axes.anchor_counts = {40};
    // Each scenario runs on its canonical terrain (campus_500 on grass,
    // city_1000 on urban), and the robust pre-filters ship on at this tier:
    // urban echo tails at n=1000 are exactly what the consistency vote + MAD
    // trim exist for. The classic default-off path is untouched -- every
    // golden-pinned sweep still runs with both filters off
    // (--robust-filters off restores it here for A/B runs).
    spec.axes.environments = {"scenario"};
    spec.base.campaign.filter.consistency_vote = true;
    spec.base.campaign.filter.mad_reject = true;
    spec.base.multilateration.progressive = true;
    spec.base.lss_init = resloc::pipeline::LssInit::kDvHopSeeded;
    spec.base.lss.restarts.rounds = 3;
    spec.base.lss.gd.max_iterations = 2500;
    spec.base.lss.init_box_m = 400.0;
    catalog["acoustic_scale"] = {
        "full acoustic campaign at scale: {campus_500, city_1000} x {multilat, lss} (8 trials)",
        spec};
  }
  {  // Small-n cut of the acoustic scale axes for CI: the 1-vs-N-thread
     // byte-identity checks (runner threads and intra-campaign
     // --campaign-threads) run on exactly these cells.
    SweepSpec spec;
    spec.name = "acoustic_scale_smoke";
    spec.base.source = MeasurementSource::kAcousticRanging;
    spec.trials_per_cell = 1;
    spec.axes.scenarios = {"uniform_n"};
    spec.axes.node_counts = {64, 100};
    spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
    spec.axes.anchor_counts = {16};
    spec.base.multilateration.progressive = true;
    spec.base.lss_init = resloc::pipeline::LssInit::kDvHopSeeded;
    spec.base.lss.restarts.rounds = 3;
    spec.base.lss.init_box_m = 130.0;  // uniform_n at n=100 spans ~120 m
    catalog["acoustic_scale_smoke"] = {
        "node_counts x solver smoke cut of 'acoustic_scale' (4 trials, CI)", spec};
  }
  {  // The full Section 3 service swept across terrains and hardware: every
     // trial runs the complete acoustic campaign (chirp patterns, 4-bit
     // accumulation, T-of-k detection, silence verification, filtering,
     // bidirectional consistency) instead of the Gaussian shortcut.
    SweepSpec spec;
    spec.name = "acoustic";
    spec.base.source = MeasurementSource::kAcousticRanging;
    spec.trials_per_cell = 2;
    spec.axes.scenarios = {"grass_grid"};
    spec.axes.node_counts = {25};
    spec.axes.anchor_counts = {8};
    spec.axes.environments = {"grass", "pavement", "urban"};
    spec.axes.unit_models = {"calibrated", "degraded"};
    catalog["acoustic"] = {
        "full acoustic ranging campaign vs terrain x unit quality (6 cells, 12 trials)", spec};
  }
  {  // Detector operating-point sweep: the Section 3.6 calibration question
     // "how many chirps and how high a threshold" as a 2-D cell grid.
    SweepSpec spec;
    spec.name = "ranging";
    spec.base.source = MeasurementSource::kAcousticRanging;
    spec.trials_per_cell = 2;
    spec.axes.scenarios = {"grass_grid"};
    spec.axes.node_counts = {16};
    spec.axes.anchor_counts = {6};
    spec.axes.chirp_counts = {5, 10, 15};
    spec.axes.detection_thresholds = {1, 2, 4};
    catalog["ranging"] = {
        "acoustic detector operating point: chirps k x threshold T (9 cells, 18 trials)", spec};
  }
  {  // Detector-mode shootout: the same campaign through all three arrival
     // detectors (hardware tone-detector model, Goertzel software scan, NCC
     // matched filter), crossed with terrain and the pattern's (k, T)
     // operating point. The axis where the NCC detector's ~5.5 dB extra
     // processing gain and first-arrival peak picking show up as campaign
     // error and placement differences.
    SweepSpec spec;
    spec.name = "detectors";
    spec.base.source = MeasurementSource::kAcousticRanging;
    spec.trials_per_cell = 2;
    spec.axes.scenarios = {"grass_grid"};
    spec.axes.node_counts = {16};
    spec.axes.anchor_counts = {6};
    spec.axes.environments = {"grass", "urban"};
    spec.axes.chirp_counts = {5, 10};
    spec.axes.detection_thresholds = {2, 4};
    spec.axes.detectors = {"hardware", "goertzel", "ncc"};
    catalog["detectors"] = {
        "detector mode x terrain x chirps k x threshold T (24 cells, 48 trials)", spec};
  }
  {  // Three-cell cut of 'detectors' for CI: one cell per detector mode, and
     // the 1-vs-8-thread byte-identity check runs on exactly these cells.
    SweepSpec spec;
    spec.name = "detectors_smoke";
    spec.base.source = MeasurementSource::kAcousticRanging;
    spec.trials_per_cell = 1;
    spec.axes.scenarios = {"grass_grid"};
    spec.axes.node_counts = {16};
    spec.axes.anchor_counts = {6};
    spec.axes.detectors = {"hardware", "goertzel", "ncc"};
    catalog["detectors_smoke"] = {"one cell per detector mode (3 trials, CI)", spec};
  }
  {  // Resilience sweep: the full acoustic campaign under injected faults,
     // fault kind x intensity x solver. Coverage (placement over ALL
     // attempted trials), degraded-fix rate, and the failure-reason taxonomy
     // are the headline aggregates; degraded multilateration fixes are
     // enabled so a 2-anchor node reports a flagged estimate instead of
     // nothing, and one bounded retry absorbs transient trial failures.
    SweepSpec spec;
    spec.name = "resilience";
    spec.base.source = MeasurementSource::kAcousticRanging;
    spec.trials_per_cell = 2;
    spec.max_trial_retries = 1;
    spec.axes.scenarios = {"grass_grid"};
    spec.axes.node_counts = {25};
    spec.axes.anchor_counts = {8};
    spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
    spec.axes.fault_kinds = resloc::fault::fault_kind_names();
    spec.axes.fault_intensities = {0.5, 1.0, 2.0};
    spec.base.multilateration.allow_degraded = true;
    catalog["resilience"] = {
        "acoustic campaign under fault injection: kind x intensity x solver (54 cells)", spec};
  }
  {  // Four-kind cut of 'resilience' for CI: the 1-vs-8-thread byte-identity
     // check under active fault injection runs on exactly these cells.
    SweepSpec spec;
    spec.name = "resilience_smoke";
    spec.base.source = MeasurementSource::kAcousticRanging;
    spec.trials_per_cell = 1;
    spec.max_trial_retries = 1;
    spec.axes.scenarios = {"grass_grid"};
    spec.axes.node_counts = {16};
    spec.axes.anchor_counts = {6};
    spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
    spec.axes.fault_kinds = {"none", "node_crash", "corrupt_distance", "all"};
    spec.base.multilateration.allow_degraded = true;
    catalog["resilience_smoke"] = {
        "solver x {none, node_crash, corrupt_distance, all} faults (8 trials, CI)", spec};
  }
  return catalog;
}

void print_usage() {
  std::puts(
      "usage: resloc_campaign [--sweep NAME] [--threads N] [--seed S]\n"
      "                       [--campaign-threads N] [--trials K] [--retries R]\n"
      "                       [--json PATH] [--csv PATH]\n"
      "                       [--trace PATH] [--metrics PATH]\n"
      "                       [--robust-filters on|off] [--list]\n"
      "\n"
      "  --sweep NAME   named sweep to run (default: grid)\n"
      "  --threads N    worker threads (default: hardware concurrency)\n"
      "  --seed S       master seed; aggregates are byte-identical per seed\n"
      "                 at any thread count (default: 1)\n"
      "  --campaign-threads N\n"
      "                 worker threads inside each acoustic ranging campaign\n"
      "                 (the per-trial measurement loop); byte-identical\n"
      "                 aggregates at any value (default: 1)\n"
      "  --trials K     override the sweep's trials-per-cell\n"
      "  --retries R    override the sweep's bounded per-trial retries (a\n"
      "                 failed trial reruns on a fresh deterministic\n"
      "                 substream up to R times; default: sweep-specific,\n"
      "                 0 for most sweeps, 1 for the resilience sweeps)\n"
      "  --json PATH    write the deterministic JSON aggregate report\n"
      "  --csv PATH     write the deterministic per-cell CSV table\n"
      "  --trace PATH   record telemetry spans and write a Chrome trace-event\n"
      "                 JSON file (open in chrome://tracing or Perfetto);\n"
      "                 never changes the JSON/CSV aggregate bytes\n"
      "  --metrics PATH write the telemetry metrics report (JSON) and print\n"
      "                 its summary; counter values are deterministic per\n"
      "                 seed, durations are wall clock\n"
      "  --robust-filters on|off\n"
      "                 force the Section 3.5 robust pre-filters (consistency\n"
      "                 vote + MAD rejection) on or off, overriding the\n"
      "                 sweep's default (on for acoustic_scale, off elsewhere)\n"
      "  --list         list available sweeps and scenarios, then exit");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  // Digits only: strtoull would silently wrap "-1" to 2^64-1.
  if (*s == '\0') return false;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0' && errno != ERANGE;  // reject silent overflow clamping
}

}  // namespace

int main(int argc, char** argv) {
  std::string sweep_name = "grid";
  std::string json_path;
  std::string csv_path;
  std::string trace_path;
  std::string metrics_path;
  std::uint64_t seed = 1;
  std::uint64_t threads = 0;
  std::uint64_t campaign_threads = 0;
  std::uint64_t trials_override = 0;
  std::uint64_t retries = 0;
  bool retries_set = false;
  int robust_filters = -1;  // -1 = sweep default, 0 = off, 1 = on
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const auto arg = std::string(argv[i]);
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--sweep") {
      sweep_name = need_value("--sweep");
    } else if (arg == "--json") {
      json_path = need_value("--json");
    } else if (arg == "--csv") {
      csv_path = need_value("--csv");
    } else if (arg == "--trace") {
      trace_path = need_value("--trace");
    } else if (arg == "--metrics") {
      metrics_path = need_value("--metrics");
    } else if (arg == "--robust-filters") {
      const std::string value = need_value("--robust-filters");
      if (value == "on") {
        robust_filters = 1;
      } else if (value == "off") {
        robust_filters = 0;
      } else {
        std::fprintf(stderr, "error: --robust-filters expects 'on' or 'off'\n");
        return 2;
      }
    } else if (arg == "--seed") {
      if (!parse_u64(need_value("--seed"), seed)) {
        std::fprintf(stderr, "error: --seed expects an unsigned integer\n");
        return 2;
      }
    } else if (arg == "--threads") {
      if (!parse_u64(need_value("--threads"), threads) || threads > 4096) {
        std::fprintf(stderr, "error: --threads expects an integer in [0, 4096]\n");
        return 2;
      }
    } else if (arg == "--campaign-threads") {
      if (!parse_u64(need_value("--campaign-threads"), campaign_threads) ||
          campaign_threads > 4096) {
        std::fprintf(stderr, "error: --campaign-threads expects an integer in [0, 4096]\n");
        return 2;
      }
    } else if (arg == "--trials") {
      if (!parse_u64(need_value("--trials"), trials_override) || trials_override == 0 ||
          trials_override > 1000000) {
        std::fprintf(stderr, "error: --trials expects an integer in [1, 1000000]\n");
        return 2;
      }
    } else if (arg == "--retries") {
      if (!parse_u64(need_value("--retries"), retries) || retries > 100) {
        std::fprintf(stderr, "error: --retries expects an integer in [0, 100]\n");
        return 2;
      }
      retries_set = true;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      print_usage();
      return 2;
    }
  }

  auto catalog = sweep_catalog();
  if (list) {
    std::puts("sweeps:");
    for (const auto& [name, sweep] : catalog) {
      std::printf("  %-10s %s\n", name.c_str(), sweep.description.c_str());
    }
    std::puts("\nscenarios:");
    for (const auto& name : resloc::sim::scenario_names()) {
      std::printf("  %s\n", name.c_str());
    }
    std::puts("\nenvironments (acoustic axis; plus \"scenario\" = each scenario's site):");
    for (const auto& name : resloc::acoustics::environment_names()) {
      std::printf("  %s\n", name.c_str());
    }
    std::puts("\nunit models (acoustic axis):");
    for (const auto& name : resloc::acoustics::unit_model_names()) {
      std::printf("  %s\n", name.c_str());
    }
    std::puts("\ndetector modes (acoustic axis):");
    for (const auto mode : {resloc::ranging::DetectorMode::kHardware,
                            resloc::ranging::DetectorMode::kGoertzel,
                            resloc::ranging::DetectorMode::kMatchedFilter}) {
      std::printf("  %s\n", resloc::ranging::detector_mode_name(mode).c_str());
    }
    return 0;
  }

  const auto it = catalog.find(sweep_name);
  if (it == catalog.end()) {
    std::fprintf(stderr, "error: unknown sweep '%s' (--list shows the catalog)\n",
                 sweep_name.c_str());
    return 2;
  }

  SweepSpec spec = it->second.spec;
  spec.seed = seed;
  if (trials_override != 0) spec.trials_per_cell = static_cast<std::size_t>(trials_override);
  if (retries_set) spec.max_trial_retries = static_cast<std::size_t>(retries);
  if (campaign_threads != 0) {
    // Intra-trial parallelism of the acoustic measurement loop; a no-op for
    // synthetic sweeps. Determinism is unconditional (every (round, source)
    // turn draws from its own counter-indexed substream), so this dial only
    // changes wall time, never report bytes -- CI cmp-enforces that.
    spec.base.campaign.threads = static_cast<int>(campaign_threads);
  }
  if (robust_filters != -1) {
    spec.base.campaign.filter.consistency_vote = robust_filters == 1;
    spec.base.campaign.filter.mad_reject = robust_filters == 1;
  }

  // Telemetry: counters + stage totals for --metrics, individual span events
  // only when a trace is requested (they are the memory-heavy part). Enabling
  // either never changes the aggregate bytes -- CI cmp-enforces that too.
  if (!trace_path.empty() || !metrics_path.empty()) {
    resloc::obs::set_enabled(true);
    resloc::obs::set_capture_spans(!trace_path.empty());
  }

  const CampaignRunner runner(RunnerOptions{static_cast<unsigned>(threads)});
  const CampaignResult result = runner.run(spec);

  std::size_t ok = 0;
  std::size_t total_retries = 0;
  for (const auto& t : result.trials) {
    ok += t.ok ? 1u : 0u;
    total_retries += t.attempts > 0 ? t.attempts - 1 : 0;
  }
  std::printf("sweep '%s': %zu cells, %zu trials (%zu ok), seed %llu, %u threads, %.2f s\n",
              spec.name.c_str(), result.cells.size(), result.trials.size(), ok,
              static_cast<unsigned long long>(result.seed), result.threads_used,
              result.wall_time_s);
  if (spec.max_trial_retries > 0) {
    std::printf("retries: %zu used (budget %zu per trial)\n", total_retries,
                spec.max_trial_retries);
  }
  std::printf("\n");

  if (ok < result.trials.size()) {
    // Failure-reason taxonomy breakdown: which stage the failed trials died
    // in (see eval::FailureReason), then each distinct message once, so a
    // fully failed campaign is diagnosable from the console.
    std::size_t by_reason[resloc::eval::kFailureReasonCount] = {};
    for (const auto& t : result.trials) {
      if (!t.ok) ++by_reason[static_cast<std::size_t>(t.failure)];
    }
    std::fprintf(stderr, "warning: %zu of %zu trials failed (by stage:",
                 result.trials.size() - ok, result.trials.size());
    for (std::size_t r = 0; r < resloc::eval::kFailureReasonCount; ++r) {
      if (by_reason[r] == 0) continue;
      std::fprintf(stderr, " %s=%zu",
                   resloc::eval::failure_reason_name(
                       static_cast<resloc::eval::FailureReason>(r)),
                   by_reason[r]);
    }
    std::fprintf(stderr, "):\n");
    std::set<std::string> reasons;
    for (const auto& t : result.trials) {
      if (!t.ok && reasons.insert(t.error).second) {
        std::fprintf(stderr, "  cell %zu: %s\n", t.cell_index, t.error.c_str());
        if (!t.error_spans.empty()) {
          // The failing thread's last telemetry spans (recorded with --trace):
          // what the trial was executing when it died, oldest first.
          const std::size_t show = std::min<std::size_t>(t.error_spans.size(), 8);
          std::fprintf(stderr, "    last %zu spans before the failure:\n", show);
          for (std::size_t s = t.error_spans.size() - show; s < t.error_spans.size(); ++s) {
            std::fprintf(stderr, "      %s\n", t.error_spans[s].c_str());
          }
        }
        if (reasons.size() >= 5) break;
      }
    }
  }

  if (!result.cells.empty()) {
    std::vector<std::string> header;
    for (const auto& [axis, value] : result.cells.front().axes) header.push_back(axis);
    header.insert(header.end(),
                  {"trials", "mean_err_m", "p95_err_m", "placement", "mean_stress"});
    resloc::eval::Table table(header);
    for (const auto& cell : result.cells) {
      std::vector<std::string> row;
      for (const auto& [axis, value] : cell.axes) row.push_back(value);
      const auto& g = cell.aggregate;
      row.push_back(std::to_string(g.trials));
      row.push_back(resloc::eval::fmt(g.mean_error_m));
      row.push_back(resloc::eval::fmt(g.p95_error_m));
      row.push_back(resloc::eval::fmt(g.mean_placement_rate));
      row.push_back(std::isnan(g.mean_stress) ? "-" : resloc::eval::fmt(g.mean_stress));
      table.add_row(row);
    }
    std::fputs(table.to_string().c_str(), stdout);
  }

  // Per-sweep stage budget: where the campaign's trial time went, summed over
  // all trials. Wall clock (the one legitimately non-deterministic per-trial
  // quantity), so it prints here and never enters the JSON/CSV aggregates.
  {
    double measure_s = 0.0, solve_s = 0.0, eval_s = 0.0, trial_s = 0.0;
    for (const auto& t : result.trials) {
      measure_s += t.measure_wall_s;
      solve_s += t.solve_wall_s;
      eval_s += t.eval_wall_s;
      trial_s += t.wall_time_s;
    }
    const double other_s = std::max(0.0, trial_s - measure_s - solve_s - eval_s);
    const auto share = [&](double s) {
      return trial_s > 0.0 ? resloc::eval::fmt(100.0 * s / trial_s) + "%" : std::string("-");
    };
    resloc::eval::Table budget({"stage", "total_s", "share"});
    budget.add_row({"measure", resloc::eval::fmt(measure_s), share(measure_s)});
    budget.add_row({"solve", resloc::eval::fmt(solve_s), share(solve_s)});
    budget.add_row({"eval", resloc::eval::fmt(eval_s), share(eval_s)});
    budget.add_row({"other", resloc::eval::fmt(other_s), share(other_s)});
    budget.add_row({"trial total", resloc::eval::fmt(trial_s), trial_s > 0.0 ? "100%" : "-"});
    std::printf("\nstage budget (wall clock, all trials; diagnostic only):\n");
    std::fputs(budget.to_string().c_str(), stdout);
  }

  bool io_ok = true;
  if (!json_path.empty()) {
    io_ok &= resloc::eval::write_text_file(json_path, result.to_json());
    std::printf("\njson report: %s\n", json_path.c_str());
  }
  if (!csv_path.empty()) {
    io_ok &= resloc::eval::write_text_file(csv_path, result.to_csv());
    std::printf("csv report: %s\n", csv_path.c_str());
  }

  if (!trace_path.empty() || !metrics_path.empty()) {
    const resloc::obs::TelemetrySnapshot snap = resloc::obs::snapshot();
    if (!trace_path.empty()) {
      std::string trace_error;
      if (!resloc::obs::check_span_nesting(snap, &trace_error)) {
        // Spans that do not nest are a telemetry bug, not a campaign
        // failure -- fail loudly so CI catches it.
        std::fprintf(stderr, "error: emitted trace failed validation: %s\n",
                     trace_error.c_str());
        return 1;
      }
      io_ok &= resloc::eval::write_text_file(trace_path,
                                             resloc::obs::to_chrome_trace_json(snap));
      std::size_t events = 0;
      for (const auto& t : snap.threads) events += t.events.size();
      std::printf("trace (%zu spans%s): %s\n", events,
                  snap.dropped_spans > 0 ? ", some dropped past the per-thread cap" : "",
                  trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      io_ok &= resloc::eval::write_text_file(metrics_path, resloc::obs::metrics_report_json(snap));
      std::printf("metrics report: %s\n", metrics_path.c_str());
    }
    std::printf("\n%s", resloc::obs::metrics_report_text(snap).c_str());
  }

  if (!io_ok) {
    std::fprintf(stderr, "error: failed to write one or more report files\n");
    return 1;
  }
  return 0;
}
