#include "core/weak.hpp"

#include "util/timer.hpp"

namespace stsyn::core {

WeakResult addWeakConvergence(const symbolic::SymbolicProtocol& sp,
                              symbolic::ImagePolicy policy,
                              std::size_t /*ignored*/) {
  WeakResult out;
  util::Stopwatch total;
  out.stats.imagePolicy = symbolic::toString(policy);
  out.stats.varOrder = symbolic::toString(sp.enc().varOrder());
  out.ranking = computeRanks(sp, &out.stats, policy);
  out.relation = out.ranking.pim;
  out.rankInfinityStates = out.ranking.unreachable;
  out.success = out.ranking.complete();
  out.stats.totalSeconds = total.seconds();
  out.stats.programNodes = out.relation.nodeCount();
  const bdd::ManagerStats& ms = sp.manager().stats();
  out.stats.peakLiveNodes = ms.peakLiveNodes;
  out.stats.reorderRuns = ms.reorderRuns;
  out.stats.reorderSeconds = ms.reorderSeconds;
  out.stats.reorderNodesSaved = ms.reorderNodesBefore - ms.reorderNodesAfter;
  return out;
}

}  // namespace stsyn::core
