#include "net/routing.h"

#include <algorithm>
#include <cassert>

namespace ispn::net {

namespace {

/// The single exclusion rule: a link is usable unless it failed or either
/// endpoint switch crashed.
bool usable(NodeId u, NodeId v, const DownLinks& down,
            const std::set<NodeId>& down_nodes) {
  return !down_nodes.contains(u) && !down_nodes.contains(v) &&
         !down.contains(undirected(u, v));
}

/// Row of `src` over `adj` as built, for the Adjacency-level wrappers
/// (indexing at least `also`, which may be absent from `adj`).
std::vector<NodeId> one_row(const Adjacency& adj, NodeId src, NodeId also) {
  assert(src >= 0 && also >= 0);
  RouteTable table;
  table.rebuild(adj, static_cast<std::size_t>(std::max(src, also)) + 1);
  const auto row = table.row(src);
  return {row.begin(), row.end()};
}

}  // namespace

Adjacency filter_adjacency(const Adjacency& adj, const DownLinks& down) {
  return filter_adjacency(adj, down, {});
}

Adjacency filter_adjacency(const Adjacency& adj, const DownLinks& down,
                           const std::set<NodeId>& down_nodes) {
  if (down.empty() && down_nodes.empty()) return adj;
  Adjacency out;
  for (const auto& [node, neighbors] : adj) {
    auto& kept = out[node];  // keep the node even if fully isolated
    for (NodeId v : neighbors) {
      if (usable(node, v, down, down_nodes)) kept.push_back(v);
    }
  }
  return out;
}

std::vector<NodeId> path_from_row(std::span<const NodeId> parent, NodeId src,
                                  NodeId dst) {
  if (parent[static_cast<std::size_t>(dst)] == kNoNode) return {};
  std::vector<NodeId> path;
  for (NodeId cur = dst; cur != src;
       cur = parent[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
  }
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

NodeId first_hop(std::span<const NodeId> parent, NodeId src, NodeId dst) {
  if (dst == src || parent[static_cast<std::size_t>(dst)] == kNoNode) {
    return kNoNode;
  }
  NodeId cur = dst;
  while (parent[static_cast<std::size_t>(cur)] != src) {
    cur = parent[static_cast<std::size_t>(cur)];
  }
  return cur;
}

void RouteTable::rebuild(const Adjacency& adj, std::size_t num_nodes,
                         const DownLinks& down,
                         const std::set<NodeId>& down_nodes) {
  std::size_t n = num_nodes;
  for (const auto& [u, nbrs] : adj) {
    assert(u >= 0);
    n = std::max(n, static_cast<std::size_t>(u) + 1);
    for (NodeId v : nbrs) n = std::max(n, static_cast<std::size_t>(v) + 1);
  }
  offsets_.assign(n + 1, 0);
  neighbors_.clear();
  // The map iterates in ascending id order, so rows append in place; ids
  // absent from it get an empty row from the running maximum below.
  for (const auto& [u, nbrs] : adj) {
    for (NodeId v : nbrs) {
      if (usable(u, v, down, down_nodes)) neighbors_.push_back(v);
    }
    offsets_[static_cast<std::size_t>(u) + 1] =
        static_cast<std::uint32_t>(neighbors_.size());
  }
  for (std::size_t i = 1; i <= n; ++i) {
    offsets_[i] = std::max(offsets_[i], offsets_[i - 1]);
  }
  rows_.resize(n);
  for (auto& r : rows_) r.clear();
  valid_ = true;
}

std::span<const NodeId> RouteTable::row(NodeId src) {
  assert(valid_ && src >= 0 && static_cast<std::size_t>(src) < rows_.size());
  auto& parent = rows_[static_cast<std::size_t>(src)];
  if (!parent.empty()) return parent;
  parent.assign(rows_.size(), kNoNode);
  parent[static_cast<std::size_t>(src)] = src;
  frontier_.clear();
  frontier_.reserve(rows_.size());
  frontier_.push_back(src);
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const auto u = static_cast<std::size_t>(frontier_[head]);
    for (std::uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      const NodeId v = neighbors_[i];
      NodeId& p = parent[static_cast<std::size_t>(v)];
      if (p != kNoNode) continue;
      p = static_cast<NodeId>(u);
      frontier_.push_back(v);
    }
  }
  return parent;
}

NextHops compute_next_hops(const Adjacency& adj, NodeId source) {
  const auto parent = one_row(adj, source, source);
  NextHops hops;
  for (NodeId dst = 0; dst < static_cast<NodeId>(parent.size()); ++dst) {
    if (const NodeId hop = first_hop(parent, source, dst); hop != kNoNode) {
      hops.emplace(dst, hop);
    }
  }
  return hops;
}

std::vector<NodeId> shortest_path(const Adjacency& adj, NodeId src,
                                  NodeId dst) {
  return path_from_row(one_row(adj, src, dst), src, dst);
}

}  // namespace ispn::net
