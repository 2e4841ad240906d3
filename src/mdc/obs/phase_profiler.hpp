// Scoped wall-clock timers for the epoch hot path.
//
// The fluid engine's step() has a fixed phase structure (DESIGN.md §8):
// input preparation (resolver relaxation, route settling), cache
// validation, the parallel AppCache re-descent, the serial report and
// link emission, and the parallel serving pass; the epoch's report then
// goes to its sink (the managers' observers).  The profiler hangs a
// scoped timer on each phase and accumulates wall nanoseconds + call
// counts per phase, so a bench can answer "where did the epoch go"
// without instrumenting ad hoc.
//
// Disabled (the default), time() returns an inert scope — one branch,
// no clock read — so the profiler stays compiled into the hot path at
// negligible cost.  Accumulation is atomic, so a scope may also close on
// a pool worker.
//
// Wall time feeds observability only — never simulation behavior — so
// profiled runs stay bit-identical to unprofiled ones.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "mdc/obs/metrics_registry.hpp"

namespace mdc {

class PhaseProfiler {
 public:
  enum class Phase : std::uint8_t {
    Validate,    // A0: cache validation + dirty-input snapshot
    Descent,     // A1: parallel AppCache re-descent
    Emit,        // B: serial report and link emission in app order
    EmitShard,   // no longer timed: link emission is part of Emit
    Merge,       // no longer timed: link emission is part of Emit
    Serve,       // C: serving, utilization, report decoration
    Prepare,     // resolver advance + route settle, before A0
    Sink,        // the epoch sink: manager and health observers
  };
  static constexpr std::size_t kPhases = 8;

  [[nodiscard]] static const char* name(Phase p) noexcept;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void setEnabled(bool on) noexcept { enabled_ = on; }

  class Scope {
   public:
    Scope(PhaseProfiler* p, Phase phase) noexcept
        : profiler_(p), phase_(phase) {
      if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (profiler_ != nullptr) {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
        profiler_->add(phase_, static_cast<std::uint64_t>(ns));
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseProfiler* profiler_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_;
  };

  /// The scope is inert (no clock read) while the profiler is disabled.
  [[nodiscard]] Scope time(Phase p) noexcept {
    return Scope(enabled_ ? this : nullptr, p);
  }

  [[nodiscard]] std::uint64_t ns(Phase p) const noexcept {
    return ns_[index(p)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t calls(Phase p) const noexcept {
    return calls_[index(p)].load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (std::size_t i = 0; i < kPhases; ++i) {
      ns_[i].store(0, std::memory_order_relaxed);
      calls_[i].store(0, std::memory_order_relaxed);
    }
  }

  /// Publishes per-phase totals as callback gauges:
  /// mdc.engine.phase_ns{phase=...} and mdc.engine.phase_calls{phase=...}.
  void registerWith(MetricsRegistry& registry) const;

 private:
  static constexpr std::size_t index(Phase p) noexcept {
    return static_cast<std::size_t>(p);
  }
  void add(Phase p, std::uint64_t ns) noexcept {
    ns_[index(p)].fetch_add(ns, std::memory_order_relaxed);
    calls_[index(p)].fetch_add(1, std::memory_order_relaxed);
  }

  bool enabled_ = false;
  std::array<std::atomic<std::uint64_t>, kPhases> ns_{};
  std::array<std::atomic<std::uint64_t>, kPhases> calls_{};
};

}  // namespace mdc
