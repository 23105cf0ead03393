// Textual (de)serialization of BDDs.
//
// Format (v2, complement-edge aware):
//   bdd2 <varCount> <nodeCount> <rootRef>
//   <id> <var> <lowRef> <highRef>         (nodeCount lines)
//
// A ref is a TAGGED value (id << 1) | complementBit; id 0 is the single
// TRUE terminal (so ref 0 = true, ref 1 = false) and internal rows use
// ids 1.. in bottom-up order (children always precede their parents).
// The writer walks the shared graph directly — one row per NODE, so a
// function and its negation serialize to the same table — and the loader
// rebuilds with the public algebra, re-canonicalizing on the fly. The
// pre-complement v1 format ("bdd" header) is no longer accepted.
#include <algorithm>
#include <functional>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "bdd/bdd.hpp"

namespace stsyn::bdd {

void saveBdd(std::ostream& os, const Bdd& f) {
  if (!f.valid()) throw std::invalid_argument("saveBdd: null BDD");
  Manager* m = f.manager();

  // Post-order over REGULAR node indices (friend access: raw reads only),
  // so children precede their parents and an f/¬f pair shares one row.
  std::unordered_map<NodeIndex, std::uint64_t> id;  // node -> row id (1..)
  std::vector<std::tuple<std::uint64_t, Var, std::uint64_t, std::uint64_t>>
      rows;
  const auto refOf = [&](NodeIndex e) -> std::uint64_t {
    const NodeIndex n = Manager::nodeOf(e);
    const std::uint64_t i =
        n == Manager::kTerminalNode ? 0 : id.at(n);
    return (i << 1) | std::uint64_t{Manager::isComplement(e) ? 1u : 0u};
  };
  const std::function<void(NodeIndex)> visit = [&](NodeIndex n) {
    if (n == Manager::kTerminalNode || id.contains(n)) return;
    const Manager::Node node = m->nodes_[n];
    visit(Manager::nodeOf(node.low));
    visit(Manager::nodeOf(node.high));
    const std::uint64_t i = id.size() + 1;
    id.emplace(n, i);
    rows.emplace_back(i, node.var, refOf(node.low), refOf(node.high));
  };
  visit(Manager::nodeOf(f.raw()));

  os << "bdd2 " << m->varCount() << ' ' << rows.size() << ' '
     << refOf(f.raw()) << '\n';
  for (const auto& [rowId, var, low, high] : rows) {
    os << rowId << ' ' << var << ' ' << low << ' ' << high << '\n';
  }
}

namespace {

/// Hard ceiling on the declared node count. Serialized functions in this
/// system are orders of magnitude smaller; anything larger is a corrupt
/// or hostile document (the serve daemon feeds loadBdd network bytes),
/// and failing the header beats looping over 2^64 declared rows.
constexpr std::uint64_t kMaxSerializedNodes = std::uint64_t{1} << 28;

}  // namespace

Bdd loadBdd(std::istream& is, Manager& manager) {
  std::string magic;
  std::uint64_t varCount = 0;
  std::uint64_t nodeCount = 0;
  std::uint64_t root = 0;
  if (!(is >> magic >> varCount >> nodeCount >> root) || magic != "bdd2") {
    throw std::runtime_error("loadBdd: bad header");
  }
  if (varCount > manager.varCount()) {
    throw std::runtime_error("loadBdd: function uses more variables than "
                             "the manager has");
  }
  if (nodeCount > kMaxSerializedNodes) {
    throw std::runtime_error("loadBdd: declared node count is implausibly "
                             "large");
  }

  // Tagged refs (id << 1) | sign, id 0 = TRUE terminal, rows 1.. .
  std::unordered_map<std::uint64_t, Bdd> byId;
  byId.emplace(0, manager.trueBdd());
  auto resolve = [&](std::uint64_t r) -> Bdd {
    const auto it = byId.find(r >> 1);
    if (it == byId.end()) {
      throw std::runtime_error("loadBdd: forward or dangling reference");
    }
    return (r & 1) != 0 ? !it->second : it->second;
  };
  // Ids run from 0 (terminal) to nodeCount.
  if ((root >> 1) > nodeCount) {
    throw std::runtime_error("loadBdd: root reference out of range");
  }

  for (std::uint64_t i = 0; i < nodeCount; ++i) {
    std::uint64_t id = 0;
    Var var = 0;
    std::uint64_t lowRef = 0;
    std::uint64_t highRef = 0;
    if (!(is >> id >> var >> lowRef >> highRef)) {
      throw std::runtime_error("loadBdd: truncated node table");
    }
    if (var >= varCount || byId.contains(id) || id < 1 || id > nodeCount) {
      throw std::runtime_error("loadBdd: malformed node row");
    }
    const Bdd low = resolve(lowRef);
    const Bdd high = resolve(highRef);
    // Re-canonicalize through the public algebra: ite on the projection.
    const Bdd node = manager.var(var).ite(high, low);
    // Sanity: a non-redundant row must actually depend on `var`. (The
    // stricter "top of support == var" does not hold when the loading
    // manager's dynamic variable order differs from the saving one's;
    // ite() re-canonicalizes to the current order either way.)
    if (!(low == high)) {
      const auto sup = node.support();
      if (std::find(sup.begin(), sup.end(), var) == sup.end()) {
        throw std::runtime_error("loadBdd: variable order violation");
      }
    }
    byId.emplace(id, node);
  }
  return resolve(root);
}

}  // namespace stsyn::bdd
