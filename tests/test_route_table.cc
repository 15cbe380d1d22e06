// Differential suite for the epoch route table.
//
// Network computes routes once per topology epoch: a CSR graph of the
// active links plus one BFS parent row per source.  The reference below is
// the per-query routing it replaced — a std::map BFS with a std::deque
// frontier over filter_adjacency's copy of the active graph — and every
// (src, dst) answer must match it exactly: Network::route, reachable,
// queueing_hops, IspnNetwork::route_links and every switch's installed
// next hops.  Fabrics are checked as built and after each step of a seeded
// walk of link failures/recoveries and switch crashes/recoveries, with the
// queries made right after each set_link_up / set_node_up.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "net/routing.h"
#include "sim/random.h"

namespace ispn {
namespace {

using net::Adjacency;
using net::NodeId;

// ------------------------------------------------------------ reference

std::map<NodeId, NodeId> ref_parents(const Adjacency& adj, NodeId source) {
  std::map<NodeId, NodeId> parent;
  parent[source] = source;
  std::deque<NodeId> frontier{source};
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    auto it = adj.find(u);
    if (it == adj.end()) continue;
    for (NodeId v : it->second) {
      if (parent.contains(v)) continue;
      parent[v] = u;
      frontier.push_back(v);
    }
  }
  return parent;
}

net::NextHops ref_next_hops(const Adjacency& adj, NodeId source) {
  const auto parent = ref_parents(adj, source);
  net::NextHops hops;
  for (const auto& [dst, _] : parent) {
    if (dst == source) continue;
    NodeId cur = dst;
    while (parent.at(cur) != source) cur = parent.at(cur);
    hops[dst] = cur;
  }
  return hops;
}

std::vector<NodeId> ref_path(const Adjacency& adj, NodeId src, NodeId dst) {
  const auto parent = ref_parents(adj, src);
  if (!parent.contains(dst)) return {};
  std::vector<NodeId> path;
  for (NodeId cur = dst; cur != src; cur = parent.at(cur)) path.push_back(cur);
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

// ------------------------------------------------------------- fixtures

core::IspnNetwork::Config config() {
  core::IspnNetwork::Config c;
  c.class_targets = {0.016, 0.16};
  return c;
}

struct FabricCase {
  std::string name;
  std::function<void(core::IspnNetwork&)> build;
};

std::vector<FabricCase> fabrics() {
  return {
      {"chain", [](core::IspnNetwork& i) { (void)i.build_chain(6); }},
      {"fan_tree", [](core::IspnNetwork& i) { (void)i.build_fan_tree(3, 3); }},
      {"parking_lot",
       [](core::IspnNetwork& i) { (void)i.build_parking_lot(5); }},
      {"mesh", [](core::IspnNetwork& i) { (void)i.build_mesh(3, 4); }},
      {"ring", [](core::IspnNetwork& i) { (void)i.build_ring(7); }},
      {"clos", [](core::IspnNetwork& i) { (void)i.build_clos(3, 4); }},
  };
}

/// What the test itself believes is down, kept apart from Network's own
/// bookkeeping so the reference graph is derived independently.
struct DownState {
  std::set<std::pair<NodeId, NodeId>> links;
  std::set<NodeId> nodes;
};

struct Coverage {
  std::size_t pairs = 0;
  std::size_t unreachable = 0;
  std::size_t self = 0;
};

/// Compares every (src, dst) answer of the live network with the
/// reference over the active graph the test derives from `down`.
void expect_matches_reference(core::IspnNetwork& ispn, const DownState& down,
                              const std::string& where, Coverage& cov) {
  net::Network& net = ispn.net();
  const Adjacency active =
      net::filter_adjacency(net.adjacency(), down.links, down.nodes);
  const std::vector<core::LinkId>& qos = ispn.links();
  const std::set<core::LinkId> qos_links(qos.begin(), qos.end());
  for (const auto& [src, _] : net.adjacency()) {
    for (const auto& [dst, __] : net.adjacency()) {
      const std::vector<NodeId> path = ref_path(active, src, dst);
      std::size_t hops = 0;
      std::vector<core::LinkId> links;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (net.link_rate(path[i], path[i + 1]) > 0) ++hops;
        if (qos_links.contains({path[i], path[i + 1]})) {
          links.emplace_back(path[i], path[i + 1]);
        }
      }
      ASSERT_EQ(net.route(src, dst), path)
          << where << ": route " << src << "->" << dst;
      ASSERT_EQ(net.reachable(src, dst), !path.empty())
          << where << ": reachable " << src << "->" << dst;
      ASSERT_EQ(net.queueing_hops(src, dst), hops)
          << where << ": queueing_hops " << src << "->" << dst;
      ASSERT_EQ(ispn.route_links(src, dst), links)
          << where << ": route_links " << src << "->" << dst;
      ++cov.pairs;
      if (path.empty()) ++cov.unreachable;
      if (src == dst) ++cov.self;
    }
    if (!net.is_host(src)) {
      ASSERT_EQ(net.switch_node(src).routes(), ref_next_hops(active, src))
          << where << ": next hops of switch " << src;
    }
  }
}

TEST(RouteTable, MatchesReferenceAsBuilt) {
  for (const FabricCase& fc : fabrics()) {
    core::IspnNetwork ispn(config());
    fc.build(ispn);
    Coverage cov;
    expect_matches_reference(ispn, DownState{}, fc.name, cov);
    EXPECT_GT(cov.self, 0u) << fc.name;
    EXPECT_EQ(cov.unreachable, 0u) << fc.name << " is connected as built";
  }
}

TEST(RouteTable, MatchesReferenceUnderSeededFaults) {
  for (const FabricCase& fc : fabrics()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      core::IspnNetwork ispn(config());
      fc.build(ispn);
      net::Network& net = ispn.net();
      std::vector<std::pair<NodeId, NodeId>> all_links;
      std::vector<NodeId> switches;
      for (const auto& [u, nbrs] : net.adjacency()) {
        if (!net.is_host(u)) switches.push_back(u);
        for (NodeId v : nbrs) {
          if (u < v) all_links.emplace_back(u, v);
        }
      }
      sim::Rng rng(seed);
      DownState down;
      Coverage cov;
      // A walk of single-element toggles: each step fails or restores one
      // link (two thirds of steps) or one switch, then checks every pair.
      for (int step = 0; step < 30; ++step) {
        const std::string where = fc.name + " seed " + std::to_string(seed) +
                                  " step " + std::to_string(step);
        if (rng.below(3) < 2) {
          const auto link = all_links[rng.below(all_links.size())];
          const bool up = down.links.contains(link);
          if (up) {
            down.links.erase(link);
          } else {
            down.links.insert(link);
          }
          net.set_link_up(link.first, link.second, up);
        } else {
          const NodeId sw = switches[rng.below(switches.size())];
          const bool up = down.nodes.contains(sw);
          if (up) {
            down.nodes.erase(sw);
          } else {
            down.nodes.insert(sw);
          }
          net.set_node_up(sw, up);
        }
        expect_matches_reference(ispn, down, where, cov);
        if (HasFatalFailure()) return;
      }
      EXPECT_GT(cov.unreachable, 0u) << fc.name << " seed " << seed;
    }
  }
}

TEST(RouteTable, RecoveryRestoresAsBuiltRoutes) {
  // After every fault heals, the table must answer exactly as the fresh
  // fabric does (neighbor order, and so tie-breaks, never drift).
  core::IspnNetwork ispn(config());
  const auto topo = ispn.build_clos(3, 4);
  net::Network& net = ispn.net();
  const auto before = net.route(topo.hosts[0], topo.hosts[3]);
  net.set_link_up(topo.leaves[0], topo.spines[0], false);
  net.set_node_up(topo.spines[1], false);
  EXPECT_NE(net.route(topo.hosts[0], topo.hosts[3]), before);
  net.set_node_up(topo.spines[1], true);
  net.set_link_up(topo.leaves[0], topo.spines[0], true);
  EXPECT_EQ(net.route(topo.hosts[0], topo.hosts[3]), before);
  Coverage cov;
  expect_matches_reference(ispn, DownState{}, "healed clos", cov);
}

TEST(RouteTable, FlushHooksSeeTheNewEpoch) {
  // Packets queued on a failing port are flushed through its link-drop
  // hooks; a route query made from such a hook must already answer for
  // the new topology, for a link failure as for a switch crash.
  core::IspnNetwork ispn(config());
  const auto topo = ispn.build_ring(4);
  net::Network& net = ispn.net();
  const NodeId h0 = topo.hosts[0];
  const NodeId h1 = topo.hosts[1];
  const NodeId s0 = topo.switches[0];
  const NodeId s1 = topo.switches[1];
  const std::vector<NodeId> direct = net.route(h0, h1);  // warms h0's row
  ASSERT_EQ(direct, (std::vector<NodeId>{h0, s0, s1, h1}));
  std::vector<std::vector<NodeId>> seen;
  net::Port* port = net.port(s0, s1);
  port->add_link_drop_hook(
      [&](const net::Packet&, sim::Time) { seen.push_back(net.route(h0, h1)); });
  auto queue_some = [&] {
    for (std::uint64_t seq = 0; seq < 3; ++seq) {
      port->send(net::make_packet(1, seq, h0, h1, 0.0));
    }
  };

  queue_some();
  net.set_link_up(s0, s1, false);
  ASSERT_FALSE(seen.empty());
  for (const auto& r : seen) {
    EXPECT_EQ(r, net.route(h0, h1));
    EXPECT_NE(r, direct);
    EXPECT_FALSE(r.empty());  // the ring's other way round
  }

  net.set_link_up(s0, s1, true);
  EXPECT_EQ(net.route(h0, h1), direct);
  seen.clear();
  queue_some();
  net.set_node_up(s1, false);
  ASSERT_FALSE(seen.empty());
  for (const auto& r : seen) EXPECT_TRUE(r.empty());  // h1 hangs off s1
}

TEST(RouteTable, WrappersMatchReferenceOnRandomGraphs) {
  // shortest_path and compute_next_hops over plain adjacency maps,
  // including ids absent from the map and isolated nodes.
  sim::Rng rng(7);
  for (int g = 0; g < 40; ++g) {
    const NodeId n = 2 + static_cast<NodeId>(rng.below(12));
    Adjacency adj;
    for (NodeId u = 0; u < n; ++u) {
      if (rng.below(4) == 0) continue;  // leave some ids out of the map
      adj[u];
    }
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (!adj.contains(u) || !adj.contains(v) || rng.below(3) != 0) {
          continue;
        }
        adj[u].push_back(v);
        adj[v].push_back(u);
      }
    }
    for (auto& [_, nbrs] : adj) std::sort(nbrs.begin(), nbrs.end());
    for (NodeId src = 0; src <= n; ++src) {
      EXPECT_EQ(net::compute_next_hops(adj, src), ref_next_hops(adj, src))
          << "graph " << g << " src " << src;
      for (NodeId dst = 0; dst <= n; ++dst) {
        EXPECT_EQ(net::shortest_path(adj, src, dst), ref_path(adj, src, dst))
            << "graph " << g << " " << src << "->" << dst;
      }
    }
  }
}

}  // namespace
}  // namespace ispn
