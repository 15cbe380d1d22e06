// Differential determinism harness for the event-core ordering backends.
//
// The timing wheel may replace the 4-ary heap under the whole simulator
// ONLY if the substitution is unobservable: identical firing order,
// identical packet schedules, identical statistics — bit-for-bit.  This
// harness is that proof, at two altitudes:
//
//   * Queue level: seeded fuzz op-streams (schedules across wildly mixed
//     horizons, same-instant clusters, cancel bursts, persistent timer
//     arm/re-arm/disarm, interleaved pops) are replayed through a fresh
//     EventQueue per backend; the (time, tag) firing sequences must match
//     exactly.
//   * Network level: seeded multi-hop workloads — the paper's Figure-1
//     chain under WFQ with policed on/off sources, a fan-in merge under
//     FIFO with Poisson overload, and a TCP transfer with CBR cross
//     traffic (RTO re-arms, retry timers) — run once per backend; the
//     full PacketTracer record stream (every transmit, drop and delivery
//     with bit-equal timestamps and delay fields), the per-flow stats and
//     the total event count must be identical across kHeap, kWheel and
//     kAuto (which migrates mid-run).
//
// Exact double equality is deliberate: delays are accumulated in firing
// order, so even one transposition of a same-instant pair would surface
// as a differing bit pattern somewhere downstream.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "net/tracer.h"
#include "sched/fifo.h"
#include "sched/wfq.h"
#include "sim/random.h"
#include "sim/timer.h"
#include "traffic/cbr_source.h"
#include "traffic/onoff_source.h"
#include "traffic/poisson_source.h"
#include "traffic/tcp.h"

namespace ispn {
namespace {

constexpr sim::EventBackend kBackends[] = {sim::EventBackend::kHeap,
                                           sim::EventBackend::kWheel,
                                           sim::EventBackend::kAuto};

const char* name_of(sim::EventBackend b) {
  switch (b) {
    case sim::EventBackend::kHeap: return "heap";
    case sim::EventBackend::kWheel: return "wheel";
    case sim::EventBackend::kAuto: return "auto";
  }
  return "?";
}

// --- queue-level fuzz ------------------------------------------------------

struct Firing {
  sim::Time time;
  int tag;
  bool operator==(const Firing& o) const {
    return time == o.time && tag == o.tag;
  }
};

/// Replays a seeded op-stream and returns the exact firing sequence.  The
/// stream interleaves one-shot schedules (mixed horizons from sub-tick to
/// far future), cancels of random outstanding ids, persistent-timer
/// re-arms/disarms, and pops.
std::vector<Firing> replay_queue(std::uint64_t seed,
                                 sim::EventBackend backend) {
  std::mt19937_64 rng(seed * 0x9E3779B9u + 17);
  sim::Simulator sim(backend);
  std::vector<Firing> fired;
  int next_tag = 0;

  constexpr int kTimers = 4;
  std::vector<sim::Timer> timers;
  timers.reserve(kTimers);
  std::vector<int> timer_tags(kTimers, -1);
  for (int i = 0; i < kTimers; ++i) {
    timers.emplace_back(sim, [&fired, &timer_tags, &sim, i] {
      fired.push_back({sim.now(), timer_tags[i]});
    });
  }

  std::vector<sim::EventId> outstanding;
  auto horizon = [&rng]() -> double {
    switch (rng() % 5) {
      case 0: return 0.0;                                    // same instant
      case 1: return 1e-9 * static_cast<double>(rng() % 50);  // sub-tick
      case 2: return 1e-4 * static_cast<double>(1 + rng() % 100);
      case 3: return 1e-2 * static_cast<double>(1 + rng() % 100);
      default: return 10.0 * static_cast<double>(1 + rng() % 10);
    }
  };

  for (int step = 0; step < 4000; ++step) {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {  // schedule a one-shot
        const int tag = next_tag++;
        outstanding.push_back(sim.after(
            horizon(), [&fired, &sim, tag] { fired.push_back({sim.now(), tag}); }));
        break;
      }
      case 3: {  // cancel a random outstanding id (may already be stale)
        if (!outstanding.empty()) {
          const std::size_t i = rng() % outstanding.size();
          sim.cancel(outstanding[i]);
          outstanding[i] = outstanding.back();
          outstanding.pop_back();
        }
        break;
      }
      case 4: {  // (re-)arm a persistent timer
        const int t = static_cast<int>(rng() % kTimers);
        timer_tags[static_cast<std::size_t>(t)] = next_tag++;
        timers[static_cast<std::size_t>(t)].arm_after(horizon());
        break;
      }
      case 5: {  // disarm a timer
        timers[rng() % kTimers].disarm();
        break;
      }
      default: {  // pop a burst
        const int n = static_cast<int>(rng() % 4);
        for (int i = 0; i < n && !sim.idle(); ++i) sim.step();
        break;
      }
    }
  }
  sim.run();
  return fired;
}

TEST(EventBackendDiff, QueueFuzzFiringOrderIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto ref = replay_queue(seed, sim::EventBackend::kHeap);
    EXPECT_GT(ref.size(), 1000u);
    for (sim::EventBackend backend : kBackends) {
      if (backend == sim::EventBackend::kHeap) continue;
      const auto got = replay_queue(seed, backend);
      ASSERT_EQ(ref.size(), got.size())
          << "seed " << seed << " under " << name_of(backend);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_TRUE(ref[i] == got[i])
            << "seed " << seed << " firing " << i << " diverged under "
            << name_of(backend) << ": (" << got[i].time << ", " << got[i].tag
            << ") vs (" << ref[i].time << ", " << ref[i].tag << ")";
      }
    }
  }
}

// --- network-level workloads ----------------------------------------------

struct NetTrace {
  std::vector<net::PacketTracer::Record> records;
  std::uint64_t processed = 0;
  // Flattened per-flow stats, in flow order.
  std::vector<double> stats;
};

void flatten_stats(const net::FlowStatsTable& all,
                   std::vector<double>* out) {
  for (const auto& [flow, st] : all) {
    out->push_back(static_cast<double>(flow));
    out->push_back(static_cast<double>(st.generated));
    out->push_back(static_cast<double>(st.source_drops));
    out->push_back(static_cast<double>(st.injected));
    out->push_back(static_cast<double>(st.net_drops));
    out->push_back(static_cast<double>(st.received));
    out->push_back(st.bits_received);
    out->push_back(static_cast<double>(st.queueing_delay.count()));
    out->push_back(st.queueing_delay.empty() ? 0 : st.queueing_delay.mean());
    out->push_back(st.queueing_delay.empty() ? 0 : st.queueing_delay.max());
    out->push_back(static_cast<double>(st.e2e_delay.count()));
    out->push_back(st.e2e_delay.empty() ? 0 : st.e2e_delay.mean());
    out->push_back(st.e2e_delay.empty() ? 0 : st.e2e_delay.max());
  }
}

bool record_eq(const net::PacketTracer::Record& a,
               const net::PacketTracer::Record& b) {
  return a.time == b.time && a.event == b.event && a.flow == b.flow &&
         a.seq == b.seq && a.node == b.node &&
         a.queueing_delay == b.queueing_delay &&
         a.jitter_offset == b.jitter_offset;
}

void expect_identical(const NetTrace& ref, const NetTrace& got,
                      sim::EventBackend backend, const std::string& what) {
  ASSERT_EQ(ref.processed, got.processed)
      << what << ": event count diverged under " << name_of(backend);
  ASSERT_EQ(ref.records.size(), got.records.size()) << what;
  for (std::size_t i = 0; i < ref.records.size(); ++i) {
    ASSERT_TRUE(record_eq(ref.records[i], got.records[i]))
        << what << ": trace record " << i << " diverged under "
        << name_of(backend) << " (flow " << got.records[i].flow << " seq "
        << got.records[i].seq << " t=" << got.records[i].time << " vs flow "
        << ref.records[i].flow << " seq " << ref.records[i].seq
        << " t=" << ref.records[i].time << ")";
  }
  ASSERT_EQ(ref.stats.size(), got.stats.size()) << what;
  for (std::size_t i = 0; i < ref.stats.size(); ++i) {
    ASSERT_EQ(ref.stats[i], got.stats[i])
        << what << ": stats word " << i << " diverged under "
        << name_of(backend);
  }
}

/// The Figure-1 chain under WFQ: 10 policed on/off flows with mixed path
/// lengths plus 2 CBR probes, 6 simulated seconds.
NetTrace run_chain_wfq(std::uint64_t seed, sim::EventBackend backend) {
  net::Network net(backend);
  const auto topo = net::build_chain(net, 5, 1e6, [] {
    return std::make_unique<sched::WfqScheduler>(
        sched::WfqScheduler::Config{1e6, 40, 1e4});
  });
  net::PacketTracer tracer(1u << 22);
  tracer.attach(net);

  std::vector<std::unique_ptr<traffic::Source>> sources;
  traffic::OnOffSource::Config on_off;  // paper defaults: A=85, B=5, P=2A
  for (int f = 0; f < 10; ++f) {
    const std::size_t src_sw = static_cast<std::size_t>(f % 2);
    const std::size_t dst_sw = static_cast<std::size_t>(4 - (f % 3));
    const net::NodeId src = topo.hosts[src_sw];
    const net::NodeId dst = topo.hosts[dst_sw];
    net::Host& host = net.host(src);
    auto s = std::make_unique<traffic::OnOffSource>(
        net.sim(), on_off, sim::Rng(seed, static_cast<std::uint64_t>(f)), f,
        src, dst, [&host](net::PacketPtr p) { host.inject(std::move(p)); },
        &net.stats(f), on_off.paper_filter());
    s->start(0.01 * f);
    net.attach_stats_sink(f, dst, tracer.wrap_sink());
    sources.push_back(std::move(s));
  }
  for (int f = 10; f < 12; ++f) {
    const net::NodeId src = topo.hosts[0];
    const net::NodeId dst = topo.hosts[4];
    net::Host& host = net.host(src);
    auto s = std::make_unique<traffic::CbrSource>(
        net.sim(), traffic::CbrSource::Config{120.0 + 10.0 * f}, f, src, dst,
        [&host](net::PacketPtr p) { host.inject(std::move(p)); },
        &net.stats(f));
    s->start(0.005 * f);
    net.attach_stats_sink(f, dst, tracer.wrap_sink());
    sources.push_back(std::move(s));
  }

  net.sim().run_until(6.0);
  NetTrace out;
  out.records = tracer.records();
  out.processed = net.sim().processed();
  flatten_stats(net.all_stats(), &out.stats);
  return out;
}

/// Fan-in overload under FIFO: four Poisson feeds converge on one
/// bottleneck; drops and retry-free FIFO dynamics, 6 simulated seconds.
NetTrace run_fan_in_fifo(std::uint64_t seed, sim::EventBackend backend) {
  net::Network net(backend);
  const auto topo = net::build_fan_in(net, 4, 2e6, 1e6, [] {
    return std::make_unique<sched::FifoScheduler>(30);
  });
  net::PacketTracer tracer(1u << 22);
  tracer.attach(net);

  std::vector<std::unique_ptr<traffic::Source>> sources;
  for (int f = 0; f < 4; ++f) {
    const net::NodeId src = topo.src_hosts[static_cast<std::size_t>(f)];
    const net::NodeId dst = topo.sink_host;
    net::Host& host = net.host(src);
    auto s = std::make_unique<traffic::PoissonSource>(
        net.sim(), traffic::PoissonSource::Config{300.0 + 50.0 * f},
        sim::Rng(seed, 100 + static_cast<std::uint64_t>(f)), f, src, dst,
        [&host](net::PacketPtr p) { host.inject(std::move(p)); },
        &net.stats(f));
    s->start(0.002 * f);
    net.attach_stats_sink(f, dst, tracer.wrap_sink());
    sources.push_back(std::move(s));
  }

  net.sim().run_until(6.0);
  NetTrace out;
  out.records = tracer.records();
  out.processed = net.sim().processed();
  flatten_stats(net.all_stats(), &out.stats);
  return out;
}

/// TCP with CBR cross traffic on a tight dumbbell: exercises RTO re-arm,
/// fast retransmit and the ACK reverse path, 8 simulated seconds.
NetTrace run_tcp_dumbbell(std::uint64_t seed, sim::EventBackend backend) {
  net::Network net(backend);
  const auto topo = net::build_dumbbell(net, 1e6, [] {
    return std::make_unique<sched::FifoScheduler>(12);
  });
  net::PacketTracer tracer(1u << 22);
  tracer.attach(net);

  net::Host& left = net.host(topo.left_host);
  net::Host& right = net.host(topo.right_host);
  traffic::TcpSource::Config cfg;
  traffic::TcpSource tcp(
      net.sim(), cfg, 1, topo.left_host, topo.right_host,
      [&left](net::PacketPtr p) { left.inject(std::move(p)); }, &net.stats(1));
  traffic::TcpSink sink(net.sim(), cfg, 1, topo.right_host, topo.left_host,
                        [&right](net::PacketPtr p) {
                          right.inject(std::move(p));
                        });
  left.register_sink(1, &tcp);
  net.attach_stats_sink(1, topo.right_host, &sink);

  // CBR cross traffic paced off the seed so runs differ across seeds.
  traffic::CbrSource cross(
      net.sim(),
      traffic::CbrSource::Config{400.0 + static_cast<double>(seed % 7) * 25.0},
      2, topo.left_host, topo.right_host,
      [&left](net::PacketPtr p) { left.inject(std::move(p)); }, &net.stats(2));
  net.attach_stats_sink(2, topo.right_host, tracer.wrap_sink());

  tcp.start(0);
  cross.start(0.001);
  net.sim().run_until(8.0);
  NetTrace out;
  out.records = tracer.records();
  out.processed = net.sim().processed();
  flatten_stats(net.all_stats(), &out.stats);
  return out;
}

using RunFn = NetTrace (*)(std::uint64_t, sim::EventBackend);

void diff_workload(RunFn run, const char* label, int seeds) {
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    const NetTrace ref = run(seed, sim::EventBackend::kHeap);
    EXPECT_GT(ref.records.size(), 100u) << label;
    for (sim::EventBackend backend : kBackends) {
      if (backend == sim::EventBackend::kHeap) continue;
      const NetTrace got = run(seed, backend);
      expect_identical(ref, got, backend,
                       std::string(label) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(EventBackendDiff, ChainWfqTracesIdentical) {
  diff_workload(&run_chain_wfq, "chain-wfq", 10);
}

TEST(EventBackendDiff, FanInFifoTracesIdentical) {
  diff_workload(&run_fan_in_fifo, "fan-in-fifo", 10);
}

TEST(EventBackendDiff, TcpDumbbellTracesIdentical) {
  diff_workload(&run_tcp_dumbbell, "tcp-dumbbell", 10);
}

// The workloads must actually exercise the machinery whose order could
// diverge — drops, multi-hop queueing, retransmissions — otherwise
// "identical traces" would be vacuous.
TEST(EventBackendDiff, WorkloadsExerciseDropsAndRetransmits) {
  const NetTrace fan = run_fan_in_fifo(1, sim::EventBackend::kWheel);
  std::size_t drops = 0;
  for (const auto& r : fan.records) {
    if (r.event == net::PacketTracer::Event::kDrop) ++drops;
  }
  EXPECT_GT(drops, 0u) << "fan-in never overloaded its bottleneck";

  net::Network net(sim::EventBackend::kWheel);
  const auto topo = net::build_dumbbell(net, 1e6, [] {
    return std::make_unique<sched::FifoScheduler>(12);
  });
  net::Host& left = net.host(topo.left_host);
  net::Host& right = net.host(topo.right_host);
  traffic::TcpSource::Config cfg;
  traffic::TcpSource tcp(
      net.sim(), cfg, 1, topo.left_host, topo.right_host,
      [&left](net::PacketPtr p) { left.inject(std::move(p)); }, &net.stats(1));
  traffic::TcpSink sink(net.sim(), cfg, 1, topo.right_host, topo.left_host,
                        [&right](net::PacketPtr p) {
                          right.inject(std::move(p));
                        });
  left.register_sink(1, &tcp);
  net.attach_stats_sink(1, topo.right_host, &sink);
  tcp.start(0);
  net.sim().run_until(8.0);
  EXPECT_GT(tcp.retransmits(), 0u) << "TCP never hit the tiny buffer";
}

}  // namespace
}  // namespace ispn
