#ifndef PBS_UTIL_PARALLEL_H_
#define PBS_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace pbs {

/// Execution policy for the Monte Carlo hot paths (RunWarsTrials,
/// QuorumSampler, EstimateKTStaleness, ...).
///
/// Results are a function of (seed, chunk_size) only — NEVER of `threads`.
/// Work is cut into fixed-size chunks, chunk c always samples from the c-th
/// Jump()-derived RNG sub-stream, and per-chunk results are merged in chunk
/// order, so a run is bitwise identical whether it executes on one thread or
/// sixteen. Changing `chunk_size` changes the stream layout (still a valid
/// estimate, different draws), so leave it at the default for reproducible
/// figures.
struct PbsExecutionOptions {
  /// Worker threads: 0 = one per hardware thread, 1 = serial (the historical
  /// single-threaded behavior), n > 1 = up to n (achieved parallelism is
  /// additionally capped by the shared pool's size; results never depend on
  /// it either way).
  int threads = 0;

  /// Trials per deterministic work chunk. Small enough to load-balance a
  /// 10^5-trial run across many cores, large enough that the per-chunk jump
  /// (~256 state steps) is noise.
  int64_t chunk_size = 16384;

  /// `threads` with 0 resolved to std::thread::hardware_concurrency().
  int ResolvedThreads() const;
};

/// Number of fixed-size chunks ParallelFor will cut `num_items` into; the
/// count of RNG sub-streams a caller must provision.
int64_t NumChunks(int64_t num_items, const PbsExecutionOptions& options);

/// The deterministic chunk -> sub-stream assignment: streams[0] is `base`
/// itself and streams[c] = streams[c-1] advanced by Jump() (2^128 draws).
/// Streams are pairwise disjoint while every chunk draws fewer than 2^128
/// values. `base` must not be reused by the caller afterwards — its opening
/// segment belongs to chunk 0.
std::vector<Rng> MakeJumpStreams(Rng base, int64_t count);

/// A small fixed-size pool of worker threads. Threads are started once and
/// parked on a condition variable between parallel regions; one pool (see
/// SharedThreadPool) is shared by every ParallelFor in the process.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped below at 0; a zero-size pool is
  /// legal and makes Run() execute everything on the calling thread).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Invokes `task(worker_id)` for worker_id in [0, fanout): fanout - 1
  /// invocations are dispatched to pool workers and worker 0 runs on the
  /// calling thread. Blocks until every invocation returns. Tasks must not
  /// throw and must not call Run() on the same pool (nested regions are the
  /// caller's job to flatten; ParallelFor already does).
  void Run(int fanout, const std::function<void(int)>& task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// The process-wide pool used by ParallelFor, sized to hardware concurrency
/// minus one (the calling thread is always the extra worker). Created on
/// first use.
ThreadPool& SharedThreadPool();

/// Runs `body(chunk_index, begin, end)` for every fixed-size chunk of
/// [0, num_items). Chunk geometry depends only on options.chunk_size, so the
/// (chunk_index, begin, end) triples — and therefore any chunk-indexed RNG
/// use — are identical for every thread count; only the assignment of chunks
/// to threads varies. Bodies run concurrently and must only touch disjoint
/// state (e.g. their own slice of a pre-sized output column, or a per-chunk
/// accumulator slot). Nested ParallelFor calls execute serially inline.
void ParallelFor(int64_t num_items, const PbsExecutionOptions& options,
                 const std::function<void(int64_t chunk_index, int64_t begin,
                                          int64_t end)>& body);

/// The seeded trial loop every campaign runner shares: calls `trial(stream)`
/// once per trial and returns the outputs in trial order, ready for a
/// deterministic merge. Trial t draws from the sub-stream of its chunk
/// (MakeJumpStreams(Rng(seed), NumChunks(...))), right after the earlier
/// trials of the same chunk, so its draws depend on (seed, chunk_size) only,
/// never on `threads`. A trial that always takes the same number of draws
/// keeps the later trials' seeds fixed even when its own work changes.
/// `trial` runs concurrently and must only touch its own state.
template <typename Trial,
          typename Output = std::invoke_result_t<const Trial&, Rng&>>
std::vector<Output> ParallelTrials(int64_t num_trials, uint64_t seed,
                                   const PbsExecutionOptions& options,
                                   const Trial& trial) {
  std::vector<Rng> streams =
      MakeJumpStreams(Rng(seed), NumChunks(num_trials, options));
  std::vector<Output> outputs(num_trials);
  ParallelFor(num_trials, options,
              [&](int64_t chunk_index, int64_t begin, int64_t end) {
                Rng& stream = streams[chunk_index];
                for (int64_t t = begin; t < end; ++t) {
                  outputs[t] = trial(stream);
                }
              });
  return outputs;
}

}  // namespace pbs

#endif  // PBS_UTIL_PARALLEL_H_
