// Section 3.6.2 "Analysis: Maximum Range" -- detection rate versus distance
// per environment and speaker, plus the RAM budget model.
//
// Paper-reported values: on grass, virtually no detections beyond 20 m and
// reliable (~80-85%) detection to ~10 m; on pavement, detection to 35-50 m
// and reliable to ~25 m. RAM: < 500 bytes for 15 accumulated chirps at 20 m
// (4 bits/offset); ~2 kB for the software detector.
#include <cstdio>

#include "bench_util.hpp"
#include "eval/report.hpp"
#include "ranging/memory_model.hpp"
#include "ranging/ranging_service.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

namespace {

double detection_rate(const ranging::RangingService& service, double distance_m,
                      double speaker_db, math::Rng& rng, int trials = 40) {
  acoustics::SpeakerUnit speaker;
  speaker.output_db = speaker_db;
  ranging::RangingScratch scratch;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    if (service.measure(distance_m, speaker, acoustics::MicUnit{}, rng, scratch).distance_m) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / trials;
}

}  // namespace

int main() {
  bench::print_banner("Section 3.6.2 -- maximum range by environment (and RAM model)");
  math::Rng rng(0x3A62);

  auto grass_config = sim::grass_refined_ranging();
  grass_config.max_window_range_m = 55.0;  // wide window so range isn't clipped
  auto pavement_config = grass_config;
  pavement_config.environment = acoustics::EnvironmentProfile::pavement();
  const ranging::RangingService grass(grass_config);
  const ranging::RangingService pavement(pavement_config);

  eval::Table table({"distance", "grass 105dB", "grass 88dB", "pavement 105dB"});
  for (double d : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0}) {
    table.add_row({eval::fmt(d, 0) + " m",
                   eval::fmt(100.0 * detection_rate(grass, d, 105.0, rng), 0) + " %",
                   eval::fmt(100.0 * detection_rate(grass, d, 88.0, rng), 0) + " %",
                   eval::fmt(100.0 * detection_rate(pavement, d, 105.0, rng), 0) + " %"});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts(
      "\npaper: grass ~20 m max / ~10 m reliable; pavement 35-50 m max /\n"
      "~25 m reliable; the stock 88 dB buzzer reaches only a fraction of the\n"
      "105 dB loudspeaker's range (the Section 3.2 hardware extension).");

  std::puts("\nRAM budget model (Sections 3.6.2 / 3.7):");
  std::printf("  hardware detector, 20 m window: %4zu bytes (paper: < 500 B)\n",
              ranging::hardware_detector_buffer_bytes(20.0));
  std::printf("  software detector, 20 m window: %4zu bytes (paper: ~2 kB)\n",
              ranging::software_detector_buffer_bytes(20.0));
  std::printf("  max range in 4 kB MICA2 RAM (hardware layout): %.0f m\n",
              ranging::hardware_detector_max_range_m(4096));
  return 0;
}
