// The platform's authoritative DNS and a client-resolver population model.
//
// Selective VIP exposure (§IV-A) works by answering DNS queries with
// different members of an application's VIP set at controlled frequencies.
// Its effectiveness is limited by client-side DNS behaviour: resolvers
// cache answers for a TTL, and a fraction of clients keeps using old
// answers well past the TTL (Pang et al. [18], Callahan et al. [4]).  The
// ResolverPopulation models both effects as exponentially relaxing demand
// shares, so managers observe realistic lag between changing a weight and
// traffic actually moving.
//
// App ids are dense, so the authoritative records and the population's
// pools are both tables indexed by AppId.  advance() is the population's
// only writer: it folds the DNS mutation log, creating the pool of every
// app the log names that has none yet, then relaxes.  A pool's
// tracked-VIP list only ever grows (a VIP dropped from DNS keeps its
// position while its share decays), and view() reads a pool's VIPs and
// effective shares in place, without allocating: the epoch engine caches
// each app's flow tree against the tracked-VIP count alone and applies the
// shares when it replays the tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "mdc/util/expect.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

struct VipWeight {
  VipId vip;
  double weight = 1.0;
};

/// Authoritative DNS: per application, the exposed VIPs and their answer
/// weights.  Weight 0 means the VIP is configured but not exposed.
class AuthoritativeDns {
 public:
  void registerApp(AppId app);
  [[nodiscard]] bool hasApp(AppId app) const noexcept {
    return app.index() < apps_.size() && apps_[app.index()].registered;
  }

  /// Adds a VIP to the app's exposed set.  Precondition: app registered,
  /// vip not already present, weight >= 0.
  void addVip(AppId app, VipId vip, double weight = 1.0);

  /// Removes a VIP from the set entirely (after, e.g., VIP deletion).
  void removeVip(AppId app, VipId vip);

  /// Sets one VIP's answer weight.  Precondition: the VIP is present.
  void setWeight(AppId app, VipId vip, double weight);

  /// Replaces all weights at once (selective-exposure decisions).
  void setWeights(AppId app, std::span<const VipWeight> weights);

  [[nodiscard]] std::span<const VipWeight> vips(AppId app) const;

  /// Monotone counter bumped on every mutation of the app's record; lets
  /// caches detect change cheaply.
  [[nodiscard]] std::uint64_t generation(AppId app) const;

  /// Monotone counter bumped whenever the *set of registered apps* grows.
  /// Lets a cache holding "this app is not in DNS" revalidate without a
  /// per-app probe.
  [[nodiscard]] std::uint64_t topologyVersion() const noexcept {
    return topologyVersion_;
  }

  /// Apps mutated since `cursor` (a value previously returned by
  /// mutationCursor(); 0 for "since the beginning").  Entries repeat when
  /// an app was mutated repeatedly; consumers dedupe via generation().
  /// The log is append-only and retained for the process lifetime —
  /// mutation counts are control-plane scale, not data-plane scale.
  [[nodiscard]] std::span<const AppId> mutationsSince(
      std::uint64_t cursor) const;
  [[nodiscard]] std::uint64_t mutationCursor() const noexcept {
    return mutationLog_.size();
  }

  /// Total weight-change/record-change operations issued (control-plane
  /// cost metric; compare against RouteRegistry::routeUpdates()).
  [[nodiscard]] std::uint64_t recordUpdates() const noexcept {
    return updates_;
  }

 private:
  struct AppRecord {
    std::vector<VipWeight> vips;
    std::uint64_t generation = 0;
    bool registered = false;
  };
  /// Precondition: the app is registered.
  [[nodiscard]] AppRecord& record(AppId app);
  [[nodiscard]] const AppRecord& record(AppId app) const;
  void logMutation(AppId app);

  std::vector<AppRecord> apps_;  // by AppId index
  std::uint64_t updates_ = 0;
  std::uint64_t topologyVersion_ = 0;
  std::vector<AppId> mutationLog_;
};

struct ResolverConfig {
  /// DNS TTL — time constant with which the compliant population's demand
  /// shares relax toward the authoritative weights.
  SimTime ttlSeconds = 60.0;
  /// Fraction of demand from clients that violate TTLs ([18], [4]).
  double lingerFraction = 0.05;
  /// Time constant of the lingering population.
  SimTime lingerSeconds = 1800.0;
};

/// Fluid model of the client population's *effective* demand split across
/// an application's VIPs.  Shares always sum to 1 per app (once the app
/// has any exposed VIP) and relax toward the authoritative weights.
class ResolverPopulation {
 public:
  ResolverPopulation(const AuthoritativeDns& dns, ResolverConfig config);

  /// Advances the population to absolute time `now` (>= previous now):
  /// first folds every DNS mutation logged since the last call, creating
  /// the pool of each app named there that has none yet, then relaxes the
  /// pools not at their targets.  A new pool starts in steady state at
  /// the weights of that moment, so the advance that first sees an app in
  /// the log fixes its pool's starting point.  DNS changes made after an
  /// advance are invisible to every read until the next one.
  void advance(SimTime now);

  /// The app's tracked VIPs and their effective demand shares, in place
  /// and without allocating, as of the last advance().  The list only
  /// grows: a VIP keeps its position once tracked, so its length is the
  /// only fact a cached flow tree needs to revalidate.  Empty if no
  /// advance has seen the app in the DNS log.  Like every read below, a
  /// pure read: any number of threads may call it while no advance runs.
  [[nodiscard]] std::span<const VipWeight> view(AppId app) const noexcept {
    const std::size_t i = app.index();
    if (i >= pools_.size()) return {};
    return pools_[i].shares();
  }

  /// Effective demand share per VIP for the app at the last advance(),
  /// computed afresh from the pool's two populations (view() keeps the
  /// same values up to date in place).  Includes VIPs recently removed
  /// from DNS while clients still hold them; shares sum to 1.  Empty
  /// while view() is.
  [[nodiscard]] std::vector<VipWeight> shares(AppId app) const;

  /// Share of a single VIP (0 if unknown).
  [[nodiscard]] double share(AppId app, VipId vip) const;

  [[nodiscard]] const ResolverConfig& config() const noexcept {
    return config_;
  }

 private:
  /// What one tracked VIP relaxes: its two client populations' shares
  /// and the normalised authoritative weight both move toward.
  struct Rates {
    double fast;    // TTL-compliant population
    double linger;  // TTL-violating population
    double target;
  };
  /// One app's pool.  Its tracked VIPs with their effective shares (what
  /// view() returns) and their Rates share one block: `tracked`
  /// VipWeights, then `tracked` Rates, each at the VIP's tracked position.
  /// The block is reallocated only when DNS exposes a new VIP.
  struct Pool {
    std::unique_ptr<std::byte[]> block;
    std::uint32_t tracked = 0;
    std::uint64_t seenGeneration = ~0ULL;
    bool initialised = false;
    bool relaxing = false;  // on the relaxing_ work list

    [[nodiscard]] std::span<VipWeight> shares() const noexcept {
      if (tracked == 0) return {};
      return {std::launder(reinterpret_cast<VipWeight*>(block.get())),
              tracked};
    }
    [[nodiscard]] std::span<Rates> rates() const noexcept {
      if (tracked == 0) return {};
      return {std::launder(reinterpret_cast<Rates*>(
                  block.get() + sizeof(VipWeight) * tracked)),
              tracked};
    }
    /// Appends `vips` at share, rates and target 0.
    void track(std::span<const VipId> vips);
  };

  void refreshTargets(AppId app, Pool& p);
  void updateShares(Pool& p) const;

  const AuthoritativeDns& dns_;
  ResolverConfig config_;
  SimTime lastAdvance_ = 0.0;
  std::uint64_t dnsCursor_ = 0;  // consumed prefix of the DNS mutation log
  std::vector<Pool> pools_;      // by AppId index
  std::vector<AppId> relaxing_;  // pools not yet at their targets
};

}  // namespace mdc
