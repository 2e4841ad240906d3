// Physical data-center topology.
//
// Models the paper's access network (ISP access routers -> access links ->
// border routers), the LB switch layer attached near the border, and the
// server fleet reached through an intra-DC fabric.  Two fabrics are
// provided:
//
//  * ModernNonBlocking — VL2/fat-tree/PortLand-style ([2], [8], [17]):
//    guaranteed bandwidth between any host pair, flat addresses.  Only a
//    host's NIC and the LB switch trunk constrain a path; the core is
//    non-blocking.  This is the assumption that lets the paper move LB
//    switches to the border and form location-independent logical pods.
//  * TraditionalTree — the baseline the paper argues against: servers
//    grouped in silos behind oversubscribed aggregation uplinks, so
//    switch-to-remote-server traffic competes on silo uplinks.
//
// Pod membership is *not* stored here: pods are logical groupings owned by
// the management layer (the whole point of §IV-C).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mdc/net/network.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

enum class FabricKind { ModernNonBlocking, TraditionalTree };

struct TopologyConfig {
  std::uint32_t numServers = 1000;
  CapacityVec serverCapacity{8.0, 32.0, 1.0};  // cores, GB, Gbps NIC

  std::uint32_t numIsps = 3;
  std::uint32_t accessLinksPerIsp = 1;
  double accessLinkGbps = 10.0;

  std::uint32_t numSwitches = 4;
  double switchTrunkGbps = 4.0;  // the paper's 4 Gbps L4 capacity

  FabricKind fabric = FabricKind::ModernNonBlocking;
  std::uint32_t siloCount = 4;       // TraditionalTree only
  double siloUplinkGbps = 20.0;      // TraditionalTree only
};

/// A physical server: capacity, NIC link, and (for the traditional
/// baseline) which silo it physically sits in.
struct ServerInfo {
  ServerId id;
  CapacityVec capacity;
  LinkId nic;
  std::uint32_t silo = 0;
};

/// An access link: connects one ISP access router to a border router.
struct AccessLinkInfo {
  AccessRouterId router;
  IspId isp;
  LinkId link;
};

class Topology {
 public:
  explicit Topology(const TopologyConfig& config);

  [[nodiscard]] const TopologyConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] Network& network() noexcept { return net_; }
  [[nodiscard]] const Network& network() const noexcept { return net_; }

  [[nodiscard]] std::size_t serverCount() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] const ServerInfo& server(ServerId id) const;
  [[nodiscard]] const std::vector<ServerInfo>& servers() const noexcept {
    return servers_;
  }

  [[nodiscard]] std::size_t accessLinkCount() const noexcept {
    return accessLinks_.size();
  }
  [[nodiscard]] const AccessLinkInfo& accessLink(std::size_t i) const;
  [[nodiscard]] const std::vector<AccessLinkInfo>& accessLinks()
      const noexcept {
    return accessLinks_;
  }
  /// The access link attached to a given access router.
  [[nodiscard]] const AccessLinkInfo& accessLinkFor(AccessRouterId ar) const;

  [[nodiscard]] std::size_t switchCount() const noexcept {
    return switchTrunks_.size();
  }
  [[nodiscard]] LinkId switchTrunk(SwitchId sw) const;

  [[nodiscard]] LinkId siloUplink(std::uint32_t silo) const;

  /// Path of an *external* client flow: access link -> LB switch trunk ->
  /// (silo uplink if traditional) -> server NIC.  Border routers and the
  /// modern fabric core are non-blocking and contribute no links.
  [[nodiscard]] std::vector<LinkId> externalPath(std::size_t accessLinkIdx,
                                                 SwitchId sw,
                                                 ServerId server) const;

  /// Path of an *intra-DC* flow between two servers (VM migration etc.).
  [[nodiscard]] std::vector<LinkId> internalPath(ServerId from,
                                                 ServerId to) const;

 private:
  TopologyConfig config_;
  Network net_;
  std::vector<ServerInfo> servers_;
  std::vector<AccessLinkInfo> accessLinks_;
  std::vector<LinkId> switchTrunks_;
  std::vector<LinkId> siloUplinks_;  // empty for modern fabric
};

}  // namespace mdc
