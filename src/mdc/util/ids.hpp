// Strong identifier types for every entity in the simulated data center.
//
// Raw integers invite mixing a ServerId with a VmId; following the C++ Core
// Guidelines (I.4 "make interfaces precisely and strongly typed") every
// entity gets its own vocabulary type.  Ids are cheap (one uint32_t), hash
// into unordered containers, and order deterministically.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>

namespace mdc {

/// A type-safe integer identifier.  `Tag` only disambiguates the type.
template <typename Tag>
class StrongId {
 public:
  using value_type = std::uint32_t;

  /// Sentinel for "no entity"; default-constructed ids are invalid.
  static constexpr value_type kInvalidValue =
      std::numeric_limits<value_type>::max();

  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(value_type v) noexcept : value_(v) {}

  [[nodiscard]] constexpr value_type value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept {
    return value_ != kInvalidValue;
  }

  /// Convenience for indexing dense vectors keyed by id.
  [[nodiscard]] constexpr std::size_t index() const noexcept {
    return static_cast<std::size_t>(value_);
  }

  [[nodiscard]] static constexpr StrongId invalid() noexcept {
    return StrongId{};
  }

  friend constexpr auto operator<=>(StrongId, StrongId) noexcept = default;

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    if (!id.valid()) return os << "<invalid>";
    return os << id.value();
  }

 private:
  value_type value_ = kInvalidValue;
};

struct ServerTag {};
struct VmTag {};
struct AppTag {};
struct PodTag {};
struct SwitchTag {};
struct VipTag {};
struct RipTag {};
struct LinkTag {};
struct AccessRouterTag {};
struct IspTag {};

using ServerId = StrongId<ServerTag>;
using VmId = StrongId<VmTag>;
using AppId = StrongId<AppTag>;
using PodId = StrongId<PodTag>;
using SwitchId = StrongId<SwitchTag>;
using VipId = StrongId<VipTag>;
using RipId = StrongId<RipTag>;
using LinkId = StrongId<LinkTag>;
using AccessRouterId = StrongId<AccessRouterTag>;
using IspId = StrongId<IspTag>;

/// Allocates ids densely from zero; one per entity family.
template <typename Id>
class IdAllocator {
 public:
  [[nodiscard]] Id next() noexcept {
    return Id{next_++};
  }
  [[nodiscard]] typename Id::value_type allocated() const noexcept {
    return next_;
  }

  /// Never hand out `id` (or anything below it) again — used when
  /// rebuilding an allocator from a journal of previously issued ids.
  void ensureBeyond(Id id) noexcept {
    if (id.valid() && id.value() >= next_) next_ = id.value() + 1;
  }

 private:
  typename Id::value_type next_ = 0;
};

}  // namespace mdc

namespace std {
template <typename Tag>
struct hash<mdc::StrongId<Tag>> {
  size_t operator()(mdc::StrongId<Tag> id) const noexcept {
    return std::hash<typename mdc::StrongId<Tag>::value_type>{}(id.value());
  }
};
}  // namespace std
