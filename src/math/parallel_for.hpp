// Slot-indexed parallel loop: the one worker pool of the campaign runner and
// the field campaign's measurement loop.
//
// Workers claim indices from a shared atomic cursor, so which worker runs
// index i depends on the schedule. Callers make the result independent of
// it -- and of the thread count -- by writing index i's result into slot i
// and reducing the slots in index order after the loop returns.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace resloc::math {

/// Runs body(state, i) for every i in [0, count) on min(threads, count)
/// workers; threads <= 1 runs the loop on the calling thread. Each worker
/// builds its own state with make_state() on its own thread before it
/// claims an index, and reuses it for every index it claims (per-worker
/// scratch buffers and caches). The first exception thrown by make_state or
/// body stops workers from claiming further indices and is rethrown once
/// every worker has joined.
template <typename MakeState, typename Body>
void parallel_for(std::size_t count, std::size_t threads, MakeState&& make_state, Body&& body) {
  if (count == 0) return;
  threads = std::min(threads, count);
  if (threads <= 1) {
    auto state = make_state();
    for (std::size_t i = 0; i < count; ++i) body(state, i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex
  const auto worker = [&]() {
    try {
      auto state = make_state();
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        body(state, i);
      }
    } catch (...) {
      cursor.store(count, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// parallel_for without per-worker state: runs body(i) for every i.
template <typename Body>
void parallel_for(std::size_t count, std::size_t threads, Body&& body) {
  struct NoState {};
  parallel_for(count, threads, [] { return NoState{}; },
               [&body](NoState&, std::size_t i) { body(i); });
}

}  // namespace resloc::math
