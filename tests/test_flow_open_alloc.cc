// Routing work per flow open does not grow with the fabric.
//
// Routes are computed once per topology epoch, so once an origin's
// parent row is warm a datagram try_open_flow is a row walk: the only heap
// allocation left is the handle's `links` vector, one per open whatever
// the fabric's size.  This binary links alloc_hook.cc (counting overrides
// of global operator new/delete; see CMakeLists).

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "alloc_hook.h"
#include "core/builder.h"

namespace ispn {
namespace {

core::IspnNetwork::Config config() {
  core::IspnNetwork::Config c;
  c.class_targets = {0.016, 0.16};
  return c;
}

/// Heap allocations per datagram try_open_flow between `src` and `dst`,
/// averaged over `opens` calls made after one warm-up open.
double allocs_per_open(core::IspnNetwork& ispn, net::NodeId src,
                       net::NodeId dst, int opens) {
  core::FlowSpec fs;
  fs.src = src;
  fs.dst = dst;
  fs.flow = 0;
  {
    const auto warm = ispn.try_open_flow(fs);  // fills src's parent row
    EXPECT_TRUE(warm.commitment.admitted);
    EXPECT_FALSE(warm.links.empty());
  }
  const std::uint64_t before = testhook::allocation_count();
  for (int i = 0; i < opens; ++i) {
    fs.flow = static_cast<net::FlowId>(i + 1);
    const auto h = ispn.try_open_flow(fs);
    if (!h.commitment.admitted) ADD_FAILURE() << "datagram open refused";
  }
  return static_cast<double>(testhook::allocation_count() - before) / opens;
}

TEST(FlowOpenAlloc, WarmDatagramOpenAllocatesOnlyItsLinks) {
  // Chains of growing length: the path grows with the fabric; the
  // allocation count must not.
  for (const int switches : {3, 12, 48}) {
    core::IspnNetwork ispn(config());
    const auto topo = ispn.build_chain(switches);
    EXPECT_EQ(allocs_per_open(ispn, topo.hosts.front(), topo.hosts.back(),
                              1000),
              1.0)
        << switches << "-switch chain";
  }
}

TEST(FlowOpenAlloc, FanInFabricSizeDoesNotMatter) {
  // The benchmark's shape: many flows from the leaf hosts to the root.
  for (const auto& [depth, width] : {std::pair{2, 4}, std::pair{4, 4}}) {
    core::IspnNetwork ispn(config());
    const auto topo = ispn.build_fan_tree(depth, width);
    for (const net::NodeId leaf : {topo.leaf_hosts.front(),
                                   topo.leaf_hosts.back()}) {
      EXPECT_EQ(allocs_per_open(ispn, leaf, topo.root_host, 500), 1.0)
          << "fan tree d" << depth << "w" << width;
    }
  }
}

}  // namespace
}  // namespace ispn
