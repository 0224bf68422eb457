// Per-thread block-DSP arena.
//
// The block kernels of the measure path (noise synthesis, Goertzel
// filtering, detector-output marking) operate on contiguous per-window
// buffers, and the hardware detector's Bernoulli draw on a short run list.
// One DspScratch per worker thread owns every such buffer: grown once to the
// service's window size and reused for every chirp of every pair, so the
// steady-state hot loop touches no allocator (the same fixed-RAM discipline
// RangingScratch models for the mote firmware, Section 3.6.2).
//
// Ownership contract: a DspScratch is exclusively owned by one thread (it
// lives inside RangingScratch, which already has that contract). Kernels
// receive raw pointers into it and never resize; only resize() grows the
// per-sample buffers, and it is called once per measure before any kernel
// runs. The run list grows to a window's run count and is then reused.
#pragma once

#include <cstdint>
#include <vector>

#include "math/rng.hpp"

namespace resloc::acoustics {

struct DspScratch {
  /// The window's Bernoulli threshold runs (hardware-detector block path;
  /// sized by ToneDetectorModel::fire_runs, a handful per window).
  std::vector<resloc::math::BernoulliRun> fire_runs;
  /// Per-sample standard normals (software/NCC synthesis noise).
  std::vector<double> noise;
  /// Per-sample Goertzel detection metric.
  std::vector<double> metric;
  /// Per-sample binary detector output (block form of the bool series).
  std::vector<std::uint8_t> fired;

  /// Grows every buffer to at least `num_samples`; never shrinks, so a
  /// campaign's steady state performs no allocation here.
  void resize(std::size_t num_samples) {
    if (noise.size() < num_samples) {
      noise.resize(num_samples);
      metric.resize(num_samples);
      fired.resize(num_samples);
    }
  }
};

}  // namespace resloc::acoustics
