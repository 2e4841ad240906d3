// E3 — scalability of resource-provisioning algorithms (§I-A, §III-A).
//
// The paper's motivation: centralized placement controllers scale
// superlinearly — [23] needs ~30 s for 7,000 servers / 17,500 apps, [25]
// ~30 s for 1,500 VMs — so a mega DC (300k servers) cannot be managed by
// one controller.  We measure our reimplementation of a Tang-style
// controller (and a first-fit baseline) across problem sizes, then show
// the paper's fix: decompose the same problem into 5,000-server pods and
// pay only the *maximum per-pod* decision time (pods decide
// independently/in parallel), plus bounded decision quality loss.
//
// Absolute times differ from [23] (2007 hardware, exact LP-based
// algorithm); the reproduced claims are the superlinear growth and the
// flat per-pod cost of the hierarchical scheme.
#include <chrono>
#include <iostream>

#include "mdc/core/placement.hpp"
#include "mdc/metrics/table.hpp"
#include "mdc/sim/rng.hpp"
#include "mdc/util/stats.hpp"

namespace {

using namespace mdc;

PlacementInput makeProblem(std::size_t servers, std::size_t apps,
                           std::uint64_t seed, double loadFactor = 0.7) {
  Rng rng{seed};
  PlacementInput in;
  in.servers.assign(servers, PlacementServer{CapacityVec{16.0, 64.0, 2.0}});
  in.apps.reserve(apps);
  // Zipf-ish demand summing to loadFactor * total CPU capacity.
  const double totalRps =
      loadFactor * static_cast<double>(servers) * 16.0 * 1000.0;
  ZipfSampler z{apps, 0.9};
  for (std::size_t a = 0; a < apps; ++a) {
    AppSla sla;
    sla.cpuPerKrps = rng.uniform(0.8, 1.2);
    sla.memPerInstanceGb = rng.uniform(1.0, 3.0);
    in.apps.push_back(PlacementApp{sla, z.probability(a) * totalRps});
  }
  return in;
}

double timeIt(const PlacementAlgorithm& algo, const PlacementInput& in,
              PlacementResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = algo.place(in);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double balanceOf(const PlacementInput& in, const PlacementResult& r) {
  std::vector<double> load(in.servers.size(), 0.0);
  for (const Assignment& a : r.assignment) {
    load[a.server] += in.apps[a.app].sla.demandFor(a.rps).cpu();
  }
  return maxOverMean(load);
}

}  // namespace

int main() {
  PlacementController controller;
  FirstFitPlacement firstFit;

  Table t{"E3a: centralized placement cost vs data-center size",
          {"servers", "apps", "controller s", "first-fit s",
           "controller satisfied", "ff satisfied", "controller max/mean",
           "ff max/mean", "rebalance passes"}};
  struct Size {
    std::size_t servers, apps;
  };
  for (const Size& sz :
       {Size{250, 625}, Size{500, 1250}, Size{1000, 2500}, Size{2000, 5000},
        Size{4000, 10000}, Size{7000, 17500}}) {
    const PlacementInput in = makeProblem(sz.servers, sz.apps, 42);
    PlacementResult rc, rf;
    const double tc = timeIt(controller, in, rc);
    const double tf = timeIt(firstFit, in, rf);
    validatePlacement(in, rc);
    validatePlacement(in, rf);
    t.addRow({static_cast<long long>(sz.servers),
              static_cast<long long>(sz.apps), tc, tf,
              rc.satisfactionRatio(), rf.satisfactionRatio(),
              balanceOf(in, rc), balanceOf(in, rf),
              static_cast<long long>(rc.rebalancePasses)});
  }
  t.print(std::cout);
  std::cout << "paper anchor: [23] reports ~30 s at 7,000 servers / 17,500"
               " apps and superlinear growth; reproduced claim = the growth"
               " *shape* (see per-size ratios), not the absolute seconds\n\n";

  // Hierarchical decomposition: same 300k-server-scale problem, split into
  // pods; decision latency is the per-pod maximum (pods run in parallel),
  // quality loss is the satisfied-demand gap vs one global controller run
  // at the largest size we can time.
  Table h{"E3b: hierarchical pods — per-pod cost stays flat",
          {"total servers", "pod size", "pods", "max per-pod s",
           "sum per-pod s", "satisfied (pods)", "max/mean (pods)",
           "max passes"}};
  for (const auto& [total, podSize] :
       {std::pair<std::size_t, std::size_t>{10000, 10000},
        {10000, 5000},
        {10000, 2500},
        {10000, 1000}}) {
    const std::size_t pods = total / podSize;
    const std::size_t appsPerPod = podSize * 5 / 2;
    double maxT = 0.0, sumT = 0.0, satisfied = 0.0, demand = 0.0;
    double worstBalance = 0.0;
    std::uint32_t maxPasses = 0;
    for (std::size_t p = 0; p < pods; ++p) {
      const PlacementInput in =
          makeProblem(podSize, appsPerPod, 1000 + p);
      PlacementResult r;
      const double tp = timeIt(controller, in, r);
      maxT = std::max(maxT, tp);
      sumT += tp;
      satisfied += r.satisfiedRps;
      demand += r.demandRps;
      worstBalance = std::max(worstBalance, balanceOf(in, r));
      maxPasses = std::max(maxPasses, r.rebalancePasses);
    }
    h.addRow({static_cast<long long>(total),
              static_cast<long long>(podSize),
              static_cast<long long>(pods), maxT, sumT,
              demand > 0 ? satisfied / demand : 1.0, worstBalance,
              static_cast<long long>(maxPasses)});
  }
  h.print(std::cout);
  std::cout << "expected shape: max per-pod decision time drops sharply"
               " with pod size while satisfied demand stays ~flat — the"
               " basis for the paper's 5,000-server pod target\n";
  return 0;
}
