#include "mdc/ctrl/intent.hpp"

#include <algorithm>
#include <cmath>

#include "mdc/util/expect.hpp"

namespace mdc {

double VipIntent::totalWeight() const {
  double w = 0.0;
  for (const RipEntry& r : rips) w += r.weight;
  return w;
}

void encodeIntentRecord(const IntentRecord& record, state::ByteWriter& w) {
  w.u8(kJournalTagIntent);
  w.u8(static_cast<std::uint8_t>(record.op));
  w.id(record.vip);
  w.id(record.app);
  w.id(record.sw);
  w.id(record.router);
  w.id(record.rip.rip);
  w.id(record.rip.vm);
  w.id(record.rip.mvip);
  w.f64(record.rip.weight);
  w.f64(record.weight);
  w.f64(record.at);
}

bool decodeJournalEntry(std::span<const std::uint8_t> payload,
                        JournalEntry& out) {
  state::ByteReader r(payload);
  out.tag = r.u8();
  if (!r.ok()) return false;
  switch (out.tag) {
    case kJournalTagIntent: {
      const std::uint8_t op = r.u8();
      if (op > static_cast<std::uint8_t>(IntentOp::SetRipWeight)) {
        return false;
      }
      out.record.op = static_cast<IntentOp>(op);
      out.record.vip = r.id<VipId>();
      out.record.app = r.id<AppId>();
      out.record.sw = r.id<SwitchId>();
      out.record.router = r.id<AccessRouterId>();
      out.record.rip.rip = r.id<RipId>();
      out.record.rip.vm = r.id<VmId>();
      out.record.rip.mvip = r.id<VipId>();
      out.record.rip.weight = r.f64();
      out.record.weight = r.f64();
      out.record.at = r.f64();
      return r.exhausted() && std::isfinite(out.record.rip.weight) &&
             std::isfinite(out.record.weight) &&
             std::isfinite(out.record.at);
    }
    case kJournalTagTermChange:
      out.term = r.u64();
      return r.exhausted();
    case kJournalTagAdmission:
      out.admission.admitted = r.u32();
      out.admission.shed = r.u32();
      out.admission.expired = r.u32();
      out.admission.deferred = r.u32();
      return r.exhausted();
    default:
      return false;
  }
}

namespace {

/// The entry of `id` in an id-indexed table, grown to cover it.
template <typename T, typename Id>
T& grown(std::vector<T>& table, Id id) {
  if (id.index() >= table.size()) table.resize(id.index() + 1);
  return table[id.index()];
}

}  // namespace

void IntentStore::forEachBound(
    const std::function<void(VmId, std::span<const RipBinding>)>& fn) const {
  for (std::uint32_t i = 0; i < bindings_.size(); ++i) {
    if (!bindings_[i].empty()) fn(VmId{i}, bindings_[i]);
  }
}

void IntentStore::unbind(VmId vm, VipId vip, RipId rip) {
  if (!vm.valid()) return;  // an m-VIP RIP binds no VM
  MDC_ENSURE(!bindingsOf(vm).empty(), "intended rip missing from vm index");
  std::erase_if(bindings_[vm.index()], [&](const RipBinding& b) {
    return b.vip == vip && b.rip == rip;
  });
}

bool IntentStore::canApply(const IntentRecord& record) const {
  if (!record.vip.valid()) return false;
  const VipIntent* in = find(record.vip);
  switch (record.op) {
    case IntentOp::AddVip:
      return in == nullptr && record.sw.valid();
    case IntentOp::MoveVip:
      return in != nullptr && record.sw.valid();
    case IntentOp::AddRip:
      return in != nullptr && in->findRip(record.rip.rip) == nullptr;
    case IntentOp::RemoveVip:
    case IntentOp::MoveRoute:
    case IntentOp::RemoveRip:
    case IntentOp::SetRipWeight:
      return in != nullptr;
  }
  return false;
}

void IntentStore::apply(const IntentRecord& record) {
  MDC_EXPECT(canApply(record), "intent record refused by the store");
  VipIntent& in = grown(vips_, record.vip);  // grows for AddVip only
  switch (record.op) {
    case IntentOp::AddVip:
      in = VipIntent{record.app, record.sw, record.router, {}};
      ++vipCount_;
      ++grown(onSwitch_, record.sw).vips;
      if (record.router.valid()) ++grown(routerVips_, record.router);
      return;
    case IntentOp::RemoveVip: {
      for (const RipEntry& r : in.rips) unbind(r.vm, record.vip, r.rip);
      Occupancy& on = onSwitch_[in.sw.index()];
      on.rips -= static_cast<std::uint32_t>(in.rips.size());
      --on.vips;
      if (in.router.valid()) --routerVips_[in.router.index()];
      in = VipIntent{};
      --vipCount_;
      return;
    }
    case IntentOp::MoveVip: {
      if (in.sw == record.sw) return;
      const auto nRips = static_cast<std::uint32_t>(in.rips.size());
      onSwitch_[in.sw.index()].rips -= nRips;
      --onSwitch_[in.sw.index()].vips;
      in.sw = record.sw;
      Occupancy& to = grown(onSwitch_, in.sw);
      to.rips += nRips;
      ++to.vips;
      return;
    }
    case IntentOp::MoveRoute:
      if (in.router.valid()) --routerVips_[in.router.index()];
      in.router = record.router;
      if (in.router.valid()) ++grown(routerVips_, in.router);
      return;
    case IntentOp::AddRip:
      in.rips.push_back(record.rip);
      ++onSwitch_[in.sw.index()].rips;
      if (record.rip.targetsVm()) {
        grown(bindings_, record.rip.vm)
            .push_back(RipBinding{record.vip, record.rip.rip});
      }
      return;
    case IntentOp::RemoveRip: {
      const auto r = std::find_if(
          in.rips.begin(), in.rips.end(),
          [&](const RipEntry& e) { return e.rip == record.rip.rip; });
      if (r == in.rips.end()) return;  // already gone: a no-op
      unbind(r->vm, record.vip, r->rip);
      in.rips.erase(r);
      --onSwitch_[in.sw.index()].rips;
      return;
    }
    case IntentOp::SetRipWeight:
      for (RipEntry& r : in.rips) {
        if (r.rip == record.rip.rip) {
          r.weight = record.weight;
          return;
        }
      }
      return;  // rip gone meanwhile: a no-op, like the switch's own error
  }
}

void IntentJournal::append(const IntentRecord& record) {
  state::ByteWriter w;
  encodeIntentRecord(record, w);
  log_.append(w.bytes());
}

void IntentJournal::appendTermChange(std::uint64_t term) {
  state::ByteWriter w;
  w.u8(kJournalTagTermChange);
  w.u64(term);
  log_.append(w.bytes());
}

void IntentJournal::appendAdmission(const AdmissionRoundRecord& round) {
  state::ByteWriter w;
  w.u8(kJournalTagAdmission);
  w.u32(round.admitted);
  w.u32(round.shed);
  w.u32(round.expired);
  w.u32(round.deferred);
  log_.append(w.bytes());
}

}  // namespace mdc
