#ifndef CYCLERANK_COMMON_PARALLEL_FOR_H_
#define CYCLERANK_COMMON_PARALLEL_FOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/thread_pool.h"

namespace cyclerank {

/// The process-wide compute pool shared by query-level parallelism (the
/// platform `Scheduler`) and kernel-level parallelism (`ParallelFor` inside
/// the ranking algorithms). Sharing one substrate keeps the number of
/// runnable threads bounded by the hardware instead of multiplying the two
/// levels together (oversubscription).
///
/// Sized from `CYCLERANK_NUM_THREADS` when set, otherwise from
/// `std::thread::hardware_concurrency()`. Created on first use; alive for
/// the rest of the process (it is never shut down — helper tasks are short
/// and non-blocking by construction).
ThreadPool* GlobalComputePool();

/// Resolves a user-facing thread-count knob: 0 means "all workers of the
/// global pool", anything else is taken literally (minimum 1).
uint32_t ResolveThreadCount(uint32_t requested);

/// Runs `fn(chunk_index, begin, end)` over the fixed-grain chunking of
/// `[0, total)` — chunk c covers `[c*grain, min((c+1)*grain, total))`.
///
/// Chunk boundaries depend only on `total` and `grain`, never on
/// `max_threads` or the pool size, so per-chunk results (and any reduction
/// over them done in chunk order) are bit-identical at every thread count.
///
/// Scheduling is caller-runs: up to `max_threads - 1` helper tasks are
/// posted to `pool`, and the calling thread claims chunks alongside them
/// from a shared atomic cursor. The caller always makes progress even when
/// the pool is saturated — helpers that start after all chunks are claimed
/// simply exit — so calling this from *inside* a pool task (query-level
/// parallelism) cannot deadlock. Returns once every chunk has finished.
///
/// `fn` must be safe to invoke concurrently for distinct chunks.
void ParallelFor(ThreadPool* pool, size_t total, size_t grain,
                 uint32_t max_threads,
                 const std::function<void(size_t, size_t, size_t)>& fn);

/// Number of chunks `ParallelFor` produces for (`total`, `grain`); use it
/// to size per-chunk result buffers.
inline size_t NumChunks(size_t total, size_t grain) {
  if (grain == 0) grain = 1;
  return (total + grain - 1) / grain;
}

/// Deterministic pairwise (tree) reduction of per-chunk partials. The
/// combination order is a pure function of `values.size()`, so the result
/// is bit-identical at every thread count — and the balanced tree loses
/// less precision than a left fold on long inputs.
double DeterministicSum(std::span<const double> values);

}  // namespace cyclerank

#endif  // CYCLERANK_COMMON_PARALLEL_FOR_H_
