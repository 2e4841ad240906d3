// E7 — elephant pods (§III-A, §IV-C/D).
//
// Part A measures the root cause: a pod manager's placement decision time
// grows superlinearly with the pod's size (servers + VMs + apps), which is
// why the paper caps pods at ~5,000 servers / ~10,000 VMs.  Its 1-s column
// is a measurement only: the global manager sheds load from a pod past
// those caps, never on the host time a decision took, which would make a
// simulated outcome depend on the machine.  Part B demonstrates the
// avoidance mechanism: a pod grown past the server cap is trimmed by
// moving servers *with their VMs* to the smallest pod — pure
// logical-membership changes.
#include <chrono>
#include <iostream>

#include "mdc/metrics/table.hpp"
#include "mdc/scenario/megadc.hpp"

namespace {

using namespace mdc;

/// Decision seconds of one pod-sized problem; `passes` gets the
/// controller's rebalance passes.
double decisionTime(std::size_t servers, std::size_t apps,
                    std::uint32_t& passes) {
  Rng rng{7};
  PlacementInput in;
  in.servers.assign(servers, PlacementServer{CapacityVec{16.0, 64.0, 2.0}});
  const double totalRps = 0.7 * static_cast<double>(servers) * 16'000.0;
  ZipfSampler z{apps, 0.9};
  for (std::size_t a = 0; a < apps; ++a) {
    in.apps.push_back(PlacementApp{AppSla{}, z.probability(a) * totalRps});
  }
  PlacementController pc;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = pc.place(in);
  const auto t1 = std::chrono::steady_clock::now();
  passes = r.rebalancePasses;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  Table a{"E7a: pod-manager decision time vs pod size",
          {"servers in pod", "apps in pod", "decision s",
           "within 1 s budget?", "rebalance passes"}};
  for (std::size_t servers : {500u, 1000u, 2000u, 4000u, 6000u, 8000u}) {
    const std::size_t apps = servers * 2;
    std::uint32_t passes = 0;
    const double t = decisionTime(servers, apps, passes);
    a.addRow({static_cast<long long>(servers), static_cast<long long>(apps),
              t, std::string{t <= 1.0 ? "yes" : "NO"},
              static_cast<long long>(passes)});
  }
  a.print(std::cout);
  std::cout << "expected shape: superlinear growth crossing the decision"
               " budget somewhere beyond the paper's ~5,000-server pod"
               " target — the elephant-pod hazard is real\n\n";

  // Part B: the avoidance knob in action.
  MegaDcConfig cfg = testScaleConfig();
  cfg.numApps = 12;
  cfg.totalDemandRps = 30'000.0;
  cfg.topology.numServers = 48;
  cfg.numPods = 4;
  cfg.manager.interPod.enableElephantAvoidance = true;
  cfg.manager.interPod.maxServersPerPod = 15;  // pod 0 will blow past this
  cfg.manager.interPod.elephantSheddingBatch = 3;
  cfg.manager.interPod.period = 10.0;
  MegaDc dc{cfg};
  dc.bootstrap();

  // Force pod 0 into elephant-hood: adopt most servers (with VMs) into it.
  auto& pods = dc.manager->pods();
  for (std::uint32_t s = 0; s < 36; ++s) {
    pods[0]->adoptServer(ServerId{s});
  }
  std::vector<std::size_t> serversBefore;
  for (auto& p : pods) serversBefore.push_back(p->servers().size());
  dc.runUntil(dc.sim.now() + 300.0);

  Table b{"E7b: elephant-pod avoidance (server cap 15/pod)",
          {"pod", "servers before", "servers after", "VMs after"}};
  for (std::size_t p = 0; p < pods.size(); ++p) {
    b.addRow({static_cast<long long>(p),
              static_cast<long long>(serversBefore[p]),
              static_cast<long long>(pods[p]->servers().size()),
              static_cast<long long>(pods[p]->stats().vms)});
  }
  b.print(std::cout);
  std::cout << "elephant sheds performed: "
            << dc.manager->interPodBalancer().elephantSheds()
            << "; served/demand at end: "
            << dc.engine->satisfaction().last()
            << "\nexpected shape: pod 0 is trimmed back toward the cap and"
               " service is undisturbed (membership-only moves)\n";
  return 0;
}
