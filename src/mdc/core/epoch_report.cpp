#include "mdc/core/epoch_report.hpp"

#include <type_traits>

#include "mdc/state/codec.hpp"

namespace mdc {

namespace {

// FlatMaps iterate in key order, so the canonical (key-sorted) encoding
// is a plain walk — no sort copy.
template <typename K>
void encodeDoubleMap(const FlatMap<K, double>& m, state::ByteWriter& w) {
  w.u64(m.size());
  for (const auto& [k, v] : m) {
    if constexpr (std::is_same_v<K, std::string>) {
      w.str(k);
    } else {
      w.id(k);
    }
    w.f64(v);
  }
}

template <typename K>
void decodeDoubleMap(FlatMap<K, double>& m, state::ByteReader& r) {
  m.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    if constexpr (std::is_same_v<K, std::string>) {
      std::string k = r.str();
      m[std::move(k)] = r.f64();
    } else {
      const K k = r.template id<K>();
      m[k] = r.f64();
    }
  }
}

void encodeDoubleVec(const std::vector<double>& v, state::ByteWriter& w) {
  w.u64(v.size());
  for (double x : v) w.f64(x);
}

void decodeDoubleVec(std::vector<double>& v, state::ByteReader& r) {
  v.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) v.push_back(r.f64());
}

}  // namespace

void encodeEpochReport(const EpochReport& rep, state::ByteWriter& w) {
  w.f64(rep.time);
  encodeDoubleVec(rep.accessLinkUtil, w);
  encodeDoubleVec(rep.switchUtil, w);
  encodeDoubleMap(rep.appDemandRps, w);
  encodeDoubleMap(rep.appServedRps, w);
  encodeDoubleMap(rep.vipDemandGbps, w);
  w.f64(rep.externalOfferedGbps);
  w.f64(rep.externalServedGbps);
  w.f64(rep.unroutedRps);
  encodeDoubleMap(rep.unroutedByCause, w);
  w.f64(rep.degradedRoutedRps);
  w.u32(rep.engineAppsRecomputed);
  w.u32(rep.engineAppsCached);
  w.u64(rep.faultPlanSeed);
  encodeDoubleMap(rep.gauges, w);
}

EpochReport decodeEpochReport(state::ByteReader& r) {
  EpochReport rep;
  rep.time = r.f64();
  decodeDoubleVec(rep.accessLinkUtil, r);
  decodeDoubleVec(rep.switchUtil, r);
  decodeDoubleMap(rep.appDemandRps, r);
  decodeDoubleMap(rep.appServedRps, r);
  decodeDoubleMap(rep.vipDemandGbps, r);
  rep.externalOfferedGbps = r.f64();
  rep.externalServedGbps = r.f64();
  rep.unroutedRps = r.f64();
  decodeDoubleMap(rep.unroutedByCause, r);
  rep.degradedRoutedRps = r.f64();
  rep.engineAppsRecomputed = r.u32();
  rep.engineAppsCached = r.u32();
  rep.faultPlanSeed = r.u64();
  decodeDoubleMap(rep.gauges, r);
  return rep;
}

std::uint64_t hashEpochReport(const EpochReport& rep) {
  state::ByteWriter w;
  encodeEpochReport(rep, w);
  return state::fnv1a64(w.bytes());
}

}  // namespace mdc
