// Static shortest-path routing (BFS over the link graph).
//
// The paper's experiments use fixed routes on a chain; we provide general
// BFS next-hop computation so arbitrary topologies work.  Ties break by
// ascending neighbor id, making routes deterministic.
//
// There is one BFS, in RouteTable.  Network keeps one table per topology
// epoch: the active graph is flattened once per topology change and each
// source's parent row is filled on its first query, so a flow open reads
// its route instead of searching for it.  shortest_path and
// compute_next_hops are thin wrappers for callers holding an Adjacency.

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/units.h"

namespace ispn::net {

/// Undirected adjacency: node -> sorted neighbor list.
using Adjacency = std::map<NodeId, std::vector<NodeId>>;

/// Next-hop table for one node: destination -> neighbor.
using NextHops = std::map<NodeId, NodeId>;

/// Failed undirected links, as normalized (min,max) pairs.
using DownLinks = std::set<std::pair<NodeId, NodeId>>;

/// Normalized undirected link key for down-link sets.
[[nodiscard]] inline std::pair<NodeId, NodeId> undirected(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

/// Copy of `adj` with every link in `down` (normalized (min,max) pairs)
/// removed from both endpoints.  Neighbor order is preserved, so routing
/// tie-breaks stay stable as links come and go.
[[nodiscard]] Adjacency filter_adjacency(const Adjacency& adj,
                                         const DownLinks& down);

/// As above, additionally severing every link incident to a node in
/// `down_nodes` (a crashed switch): the node stays in the graph —
/// isolated — so routing tie-breaks elsewhere are untouched.
[[nodiscard]] Adjacency filter_adjacency(const Adjacency& adj,
                                         const DownLinks& down,
                                         const std::set<NodeId>& down_nodes);

/// Routes of one topology epoch: the active graph flattened once into a
/// CSR adjacency, plus one BFS parent row per source, filled on its first
/// query.  invalidate() ends the epoch; storage is kept, so later epochs
/// do not reallocate.
class RouteTable {
 public:
  [[nodiscard]] bool valid() const { return valid_; }

  /// Ends the epoch: the topology changed.
  void invalidate() { valid_ = false; }

  /// Starts an epoch over `adj` minus `down` links and crashed
  /// `down_nodes`, excluded exactly as filter_adjacency excludes them (a
  /// crashed node stays, isolated).  At least `num_nodes` ids are indexed.
  void rebuild(const Adjacency& adj, std::size_t num_nodes,
               const DownLinks& down = {},
               const std::set<NodeId>& down_nodes = {});

  /// BFS parent row of `src`: row[src] == src, row[v] is v's predecessor
  /// on the route src -> v, kNoNode where v is unreachable.  Neighbors are
  /// visited in stored order and a parent is set on first discovery, so
  /// ties break by neighbor order.  Valid until the next rebuild().
  [[nodiscard]] std::span<const NodeId> row(NodeId src);

 private:
  // Node ids are the dense index (Network assigns them 0..n-1): the
  // neighbors of u are neighbors_[offsets_[u] .. offsets_[u+1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> neighbors_;
  std::vector<std::vector<NodeId>> rows_;  // empty: not yet queried
  std::vector<NodeId> frontier_;           // BFS queue, reused
  bool valid_ = false;
};

/// Route src -> dst (inclusive) read from src's parent row; empty if
/// unreachable.
[[nodiscard]] std::vector<NodeId> path_from_row(std::span<const NodeId> parent,
                                                NodeId src, NodeId dst);

/// The neighbor through which src's route to dst leaves, read from src's
/// parent row; kNoNode when dst is src or unreachable.
[[nodiscard]] NodeId first_hop(std::span<const NodeId> parent, NodeId src,
                               NodeId dst);

/// Computes next hops from `source` to every reachable destination.
[[nodiscard]] NextHops compute_next_hops(const Adjacency& adj, NodeId source);

/// Shortest path from `src` to `dst` (inclusive); empty if unreachable.
[[nodiscard]] std::vector<NodeId> shortest_path(const Adjacency& adj,
                                                NodeId src, NodeId dst);

}  // namespace ispn::net
