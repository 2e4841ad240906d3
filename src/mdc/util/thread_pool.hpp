// A small fixed worker pool for the epoch engine's per-app fan-out.
//
// The simulation kernel stays single-threaded; the pool exists only so a
// *pure* computation inside one step — independent per-app work with no
// shared mutable state — can be sharded across cores.  Two primitives:
//
//   * parallelFor(jobs, fn) — fork/join over an index space.  The calling
//     thread participates, jobs are handed out through a chunked cursor,
//     and the call returns only when every job finished.  The callable is
//     passed as a FunctionRef: no per-call std::function allocation.
//   * parallelRanges(items, fn) — the coarse static variant the epoch
//     engine's hot phases use: [0, items) is split into at most
//     `workers()` contiguous ascending ranges and fn(slot, lo, hi) runs
//     once per range.  The slot index identifies a worker's private
//     state: at most one live job per slot, so fn may write slot-private
//     state (per-worker buffers and accumulators) without
//     synchronisation.
//
// Nested parallelism is refused: calling either primitive from inside a
// running job throws (the pool has no re-entrant scheduler, and silently
// running the nested loop inline would hide a quadratic fan-out).
//
// Exceptions thrown by a job (MDC_EXPECT violations included) are caught,
// the first one is remembered, and it is rethrown on the calling thread
// after the join, preserving the contract-checking behaviour of the
// sequential code path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "mdc/util/function_ref.hpp"

namespace mdc {

class ThreadPool {
 public:
  /// Hard ceiling on resolved worker counts: resolveWorkers() never
  /// returns more, even with MDC_ALLOW_OVERSUBSCRIBE set.
  static constexpr unsigned kMaxWorkers = 16;

  /// Spawns `workers - 1` helper threads (the caller of parallelFor is
  /// the remaining worker).  Precondition: workers >= 1.  The count is
  /// taken literally — knob clamping happens in resolveWorkers(), so
  /// tests may deliberately construct oversubscribed pools.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned workers() const noexcept { return workers_; }

  /// Runs fn(0) .. fn(jobs - 1), each exactly once, on the pool plus the
  /// calling thread; blocks until all jobs completed.  Job order across
  /// threads is unspecified — callers must make jobs independent.
  /// Throws PreconditionError when called from inside a running job.
  void parallelFor(std::size_t jobs, FunctionRef<void(std::size_t)> fn);

  /// Splits [0, items) into min(workers(), items) contiguous ascending
  /// ranges of near-equal size and runs fn(slot, lo, hi) once per range.
  /// Slots are dense in [0, workers()); at most one job per slot is ever
  /// live, so fn may use `slot` to index per-worker state lock-free.
  void parallelRanges(
      std::size_t items,
      FunctionRef<void(unsigned slot, std::size_t lo, std::size_t hi)> fn);

  /// Resolves a worker-count knob: 0 means "use the MDC_THREADS
  /// environment variable, else 1"; anything else is taken literally —
  /// then the result is clamped to hardware_concurrency() (and to
  /// kMaxWorkers) with a one-time warning on stderr, because workers
  /// beyond physical cores are pure synchronisation overhead for the
  /// engine's fork/join phases (BENCH_E15's workers=4-slower-than-1 on a
  /// 1-core host was exactly this).  Setting MDC_ALLOW_OVERSUBSCRIBE
  /// skips the hardware clamp: the determinism tests use it to exercise
  /// real multi-worker merges on small machines.
  [[nodiscard]] static unsigned resolveWorkers(unsigned requested);

 private:
  void workerLoop();
  void runJobs(std::uint64_t round);

  const unsigned workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable wake_;   // signals helpers: new round or shutdown
  std::condition_variable done_;   // signals the caller: round finished
  bool shutdown_ = false;
  std::uint64_t round_ = 0;        // generation counter of parallelFor calls

  // State of the active round, all guarded by mu_ (fn_ is dereferenced
  // outside the lock, but only for a job drawn while the round was live,
  // which keeps pending_ > 0 and therefore the caller's parallelFor
  // frame — where the pointee lives — alive).
  const FunctionRef<void(std::size_t)>* fn_ = nullptr;
  std::size_t jobs_ = 0;
  std::size_t next_ = 0;
  std::size_t chunk_ = 1;  // tickets drawn per lock acquisition
  std::size_t pending_ = 0;
  std::exception_ptr firstError_;
};

}  // namespace mdc
