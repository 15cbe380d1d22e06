#include "scenario/scenario.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace ispn::scenario {

namespace {

[[noreturn]] void fail(const std::string& key, const std::string& what) {
  throw std::invalid_argument("scenario config: " + what + " '" + key + "'");
}

double parse_double(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  double out = 0;
  try {
    out = std::stod(v, &used);
  } catch (const std::exception&) {
    fail(key, "malformed number for");
  }
  if (used != v.size()) fail(key, "malformed number for");
  // NaN and infinity parse as numbers but poison every downstream
  // comparison (NaN in particular slips past range checks, since both
  // `d < lo` and `d > hi` are false) — reject them at the gate.
  if (!std::isfinite(out)) fail(key, "non-finite number for");
  return out;
}

int parse_int(const std::string& key, const std::string& v) {
  const double d = parse_double(key, v);
  // Range-check before the cast: casting an unrepresentable double to
  // int is undefined behaviour.
  if (d < -2147483648.0 || d > 2147483647.0) {
    fail(key, "integer out of range for");
  }
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d) fail(key, "expected an integer for");
  return i;
}

std::size_t parse_size(const std::string& key, const std::string& v) {
  const int i = parse_int(key, v);
  // A negative int cast to size_t wraps to an astronomically large value
  // that sails through `>= 1` validation — refuse before the cast.
  if (i < 0) fail(key, "expected a non-negative integer for");
  return static_cast<std::size_t>(i);
}

std::uint64_t parse_seed(const std::string& key, const std::string& v) {
  const double d = parse_double(key, v);
  // Casting a negative (or 2^64-exceeding) double to uint64 is undefined
  // behaviour, not wraparound.
  if (d < 0 || d >= 18446744073709551616.0) {
    fail(key, "seed out of range for");
  }
  const auto u = static_cast<std::uint64_t>(d);
  if (static_cast<double>(u) != d) fail(key, "expected an integer for");
  return u;
}

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  fail(key, "expected true/false for");
}

std::vector<double> parse_list(const std::string& key, const std::string& v) {
  std::vector<double> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(parse_double(key, item));
  if (out.empty()) fail(key, "expected a comma-separated list for");
  return out;
}

/// Parses the fail_link grammar SRC:DST@T[,up@T2] (the tools/scenario_run
/// --fail-link value).
LinkFailureSpec parse_fail_link(const std::string& key, const std::string& v) {
  LinkFailureSpec f;
  const auto comma = v.find(',');
  const std::string head = v.substr(0, comma);
  const auto colon = head.find(':');
  const auto at = head.find('@');
  if (colon == std::string::npos || at == std::string::npos || at < colon) {
    fail(key, "expected SRC:DST@T[,up@T2] for");
  }
  f.src = parse_int(key, head.substr(0, colon));
  f.dst = parse_int(key, head.substr(colon + 1, at - colon - 1));
  f.down_at = parse_double(key, head.substr(at + 1));
  if (comma != std::string::npos) {
    const std::string tail = v.substr(comma + 1);
    if (tail.rfind("up@", 0) != 0) fail(key, "expected ',up@T2' in");
    f.up_at = parse_double(key, tail.substr(3));
  }
  return f;
}

// ---- enum names ----------------------------------------------------------

/// One accepted spelling of an enum value.  Each enum has one table that
/// both its parser and its name lookup read; the name printed for a value
/// is the first one listed, so an alias follows its canonical name.
template <class E>
struct Name {
  const char* name;
  E value;
};

using AdmissionMode = core::AdmissionController::Mode;
using Estimator = core::LinkMeasurement::Estimator;

constexpr Name<FabricKind> kFabricNames[] = {
    {"chain", FabricKind::kChain},
    {"fan_in_tree", FabricKind::kFanInTree},
    {"fan_in", FabricKind::kFanInTree},
    {"parking_lot", FabricKind::kParkingLot},
    {"mesh", FabricKind::kMesh},
    {"ring", FabricKind::kRing},
    {"clos", FabricKind::kClos},
};
constexpr Name<SourceKind> kSourceNames[] = {
    {"onoff", SourceKind::kOnOff},
    {"cbr", SourceKind::kCbr},
    {"poisson", SourceKind::kPoisson},
};
constexpr Name<CcKind> kCcNames[] = {
    {"off", CcKind::kOff},   {"reno", CcKind::kReno}, {"bbr", CcKind::kBbr},
    {"rack", CcKind::kRack}, {"mix", CcKind::kMix},
};
constexpr Name<ReroutePolicy> kRerouteNames[] = {
    {"degrade", ReroutePolicy::kDegrade},
    {"preempt", ReroutePolicy::kPreempt},
};
constexpr Name<AdmissionMode> kAdmissionNames[] = {
    {"measurement", AdmissionMode::kMeasurementBased},
    {"parameter", AdmissionMode::kParameterBased},
};
constexpr Name<Estimator> kEstimatorNames[] = {
    {"peak", Estimator::kPeakEpoch},
    {"ewma", Estimator::kEwma},
};
constexpr Name<sim::EventBackend> kEventBackendNames[] = {
    {"heap", sim::EventBackend::kHeap},
    {"wheel", sim::EventBackend::kWheel},
    {"auto", sim::EventBackend::kAuto},
};
constexpr Name<sched::OrderBackend> kOrderBackendNames[] = {
    {"heap", sched::OrderBackend::kHeap},
    {"calendar", sched::OrderBackend::kCalendar},
    {"auto", sched::OrderBackend::kAuto},
};

constexpr const auto& names(FabricKind) { return kFabricNames; }
constexpr const auto& names(SourceKind) { return kSourceNames; }
constexpr const auto& names(CcKind) { return kCcNames; }
constexpr const auto& names(ReroutePolicy) { return kRerouteNames; }
constexpr const auto& names(AdmissionMode) { return kAdmissionNames; }
constexpr const auto& names(Estimator) { return kEstimatorNames; }
constexpr const auto& names(sim::EventBackend) { return kEventBackendNames; }
constexpr const auto& names(sched::OrderBackend) { return kOrderBackendNames; }

template <class E>
const char* name_of(E value) {
  for (const auto& n : names(value)) {
    if (n.value == value) return n.name;
  }
  return "?";
}

template <class E>
E parse_enum(const std::string& key, const std::string& v) {
  for (const auto& n : names(E{})) {
    if (v == n.name) return n.value;
  }
  fail(key, "unknown value for");
}

// ---- the key table -------------------------------------------------------

/// Parses a value for a field of type T (the seed's std::uint64_t is
/// std::size_t on LP64, so it has a setter of its own in the table).
template <class T>
T parse(const std::string& key, const std::string& v) {
  if constexpr (std::is_same_v<T, bool>) return parse_bool(key, v);
  else if constexpr (std::is_same_v<T, int>) return parse_int(key, v);
  else if constexpr (std::is_same_v<T, std::size_t>) return parse_size(key, v);
  else if constexpr (std::is_same_v<T, double>) return parse_double(key, v);
  else if constexpr (std::is_same_v<T, std::vector<double>>) {
    return parse_list(key, v);
  } else {
    return parse_enum<T>(key, v);
  }
}

template <auto Field>
void set_field(ScenarioSpec& spec, const std::string& key,
               const std::string& value) {
  spec.*Field = parse<std::remove_cvref_t<decltype(spec.*Field)>>(key, value);
}

template <auto Field>
double get_field(const ScenarioSpec& spec) {
  return static_cast<double>(spec.*Field);
}

template <auto Field>
constexpr ConfigKey field_key(const char* name) {
  return {name, &set_field<Field>};
}

template <auto Field>
constexpr ConfigKey field_key(const char* name, KeyRange range) {
  return {name, &set_field<Field>, &get_field<Field>, range};
}

/// A key named after its ScenarioSpec field, optionally with the range
/// validate() holds that field to on its own.
#define ISPN_KEY(field, ...) \
  field_key<&ScenarioSpec::field>(#field __VA_OPT__(, ) __VA_ARGS__)

constexpr KeyRange at_least(double lo) { return {.lo = lo}; }
constexpr KeyRange above(double lo) { return {.lo = lo, .lo_open = true}; }
constexpr KeyRange closed(double lo, double hi) { return {.lo = lo, .hi = hi}; }
constexpr KeyRange open(double lo, double hi) {
  return {.lo = lo, .hi = hi, .lo_open = true, .hi_open = true};
}

/// Every config key, in ScenarioSpec field order.  Cross-field rules live
/// in validate().
constexpr ConfigKey kKeys[] = {
    // "preset" REPLACES the whole spec; apply_json orders it first.
    {"preset",
     [](ScenarioSpec& s, const std::string&, const std::string& v) {
       s = preset(v);
     }},
    {"scale",
     [](ScenarioSpec& s, const std::string&, const std::string& v) {
       apply_scale(s, v);
     }},
    // fabric
    ISPN_KEY(fabric),
    ISPN_KEY(chain_switches, at_least(2)),
    ISPN_KEY(tree_depth, at_least(2)),
    ISPN_KEY(tree_width, at_least(1)),
    ISPN_KEY(parking_hops, at_least(1)),
    ISPN_KEY(mesh_rows, at_least(1)),
    ISPN_KEY(mesh_cols, at_least(1)),
    ISPN_KEY(ring_switches, at_least(3)),
    ISPN_KEY(clos_spines, at_least(1)),
    ISPN_KEY(clos_leaves, at_least(2)),
    ISPN_KEY(link_rate, above(0)),
    ISPN_KEY(parking_rate_step, above(0)),
    ISPN_KEY(buffer_pkts, at_least(1)),
    ISPN_KEY(class_targets),
    // workload
    ISPN_KEY(arrival_rate),
    ISPN_KEY(arrival_window),
    ISPN_KEY(target_flows, at_least(1)),
    ISPN_KEY(mean_hold),
    ISPN_KEY(p_guaranteed, at_least(0)),
    ISPN_KEY(p_predicted, at_least(0)),
    ISPN_KEY(long_flow_fraction, closed(0, 1)),
    ISPN_KEY(source),
    ISPN_KEY(avg_rate_pps, above(0)),
    ISPN_KEY(peak_factor, at_least(1)),
    ISPN_KEY(packet_bits, above(0)),
    ISPN_KEY(target_delay, above(0)),
    ISPN_KEY(target_loss, closed(0, 1)),
    ISPN_KEY(preempt_on_reject),
    // responsive traffic
    ISPN_KEY(cc),
    ISPN_KEY(binary_feedback),
    ISPN_KEY(mark_threshold, above(0)),
    ISPN_KEY(cc_max_cwnd, at_least(2)),
    // failures; fail_link appends, so several --fail-link flags compose
    {"fail_link",
     [](ScenarioSpec& s, const std::string& k, const std::string& v) {
       s.link_failures.push_back(parse_fail_link(k, v));
     }},
    ISPN_KEY(link_failure_rate, at_least(0)),
    ISPN_KEY(link_repair_mean, at_least(0)),
    ISPN_KEY(flap_prob, closed(0, 1)),
    ISPN_KEY(flap_burst_max, at_least(1)),
    ISPN_KEY(flap_gap_mean, above(0)),
    ISPN_KEY(node_crash_rate, at_least(0)),
    ISPN_KEY(node_repair_mean, at_least(0)),
    ISPN_KEY(brownout_rate, at_least(0)),
    ISPN_KEY(brownout_fraction, open(0, 1)),
    ISPN_KEY(brownout_mean, above(0)),
    ISPN_KEY(loss_rate, at_least(0)),
    ISPN_KEY(loss_prob, closed(0, 1)),
    ISPN_KEY(loss_mean, above(0)),
    ISPN_KEY(reroute_policy),
    ISPN_KEY(readmit_backoff, at_least(0)),
    ISPN_KEY(readmit_backoff_factor, at_least(1)),
    ISPN_KEY(readmit_backoff_max),
    ISPN_KEY(readmit_max_attempts, at_least(1)),
    ISPN_KEY(invariant_cadence, at_least(0)),
    // run
    ISPN_KEY(run_seconds, above(0)),
    ISPN_KEY(drain_grace, above(0)),
    {"seed",
     [](ScenarioSpec& s, const std::string& k, const std::string& v) {
       s.seed = parse_seed(k, v);
     }},
    // admission / measurement
    ISPN_KEY(admission_mode),
    ISPN_KEY(datagram_quota, open(0, 1)),
    ISPN_KEY(measurement_window, above(0)),
    ISPN_KEY(measurement_safety, at_least(1)),
    ISPN_KEY(measurement_estimator),
    ISPN_KEY(measurement_ewma_gain,
             KeyRange{.lo = 0, .hi = 1, .lo_open = true}),
    // engine
    ISPN_KEY(event_backend),
    ISPN_KEY(order_backend),
    ISPN_KEY(hierarchical),
    ISPN_KEY(shards, at_least(0)),
    ISPN_KEY(link_latency),
};

#undef ISPN_KEY

/// The range as diagnostics print it: ">= lo", "> lo", or "[lo,hi]" with
/// open ends in parentheses.
std::string range_text(const KeyRange& r) {
  std::ostringstream out;
  if (std::isinf(r.hi)) {
    out << (r.lo_open ? "> " : ">= ") << r.lo;
  } else {
    out << (r.lo_open ? '(' : '[') << r.lo << ',' << r.hi
        << (r.hi_open ? ')' : ']');
  }
  return out.str();
}

}  // namespace

std::span<const ConfigKey> config_keys() { return kKeys; }

const char* to_string(FabricKind kind) { return name_of(kind); }
const char* to_string(SourceKind kind) { return name_of(kind); }
const char* to_string(CcKind kind) { return name_of(kind); }

void ScenarioSpec::validate() const {
  for (const ConfigKey& k : kKeys) {
    if (k.range && !k.range->contains(k.get(*this))) {
      throw std::invalid_argument("scenario config: " + std::string(k.name) +
                                  " (need " + range_text(*k.range) +
                                  ") out of range");
    }
  }
  // Cross-field rules; every single-field range is in the key table.
  const auto check = [](bool ok, const char* field) {
    if (!ok) {
      throw std::invalid_argument(std::string("scenario config: ") + field +
                                  " out of range");
    }
  };
  check(mesh_rows > 1 || mesh_cols > 1,
        "mesh_rows/mesh_cols (need a >= 2 switch grid)");
  // Flap bursts ride on repair events: generating failures without
  // repairs while asking for flaps is contradictory, not a silent no-op.
  check(flap_prob == 0 || link_failure_rate == 0 || link_repair_mean > 0,
        "flap_prob (flapping needs repairable links: link_repair_mean > 0)");
  // A browned-out link must still clear its committed WFQ clock rates:
  // the fraction may not eat the whole non-datagram share.
  check(brownout_rate == 0 || brownout_fraction > datagram_quota,
        "brownout_fraction (need > datagram_quota or guaranteed flows "
        "cannot survive a brown-out)");
  // Loss episodes that drop nothing are a contradiction, not a no-op.
  check(loss_rate == 0 || loss_prob > 0,
        "loss_prob (loss_rate is set but episodes would drop nothing)");
  check(readmit_backoff_max >= readmit_backoff,
        "readmit_backoff_max (need >= readmit_backoff)");
  for (const auto& f : link_failures) {
    check(f.src >= 0 && f.dst >= 0 && f.src != f.dst,
          "link_failures (need distinct non-negative node ids)");
    check(f.down_at >= 0, "link_failures (need down_at >= 0)");
    check(f.up_at < 0 || f.up_at > f.down_at,
          "link_failures (need up_at > down_at)");
  }
  check(!class_targets.empty() &&
            std::is_sorted(class_targets.begin(), class_targets.end()) &&
            class_targets.front() > 0,
        "class_targets (need ascending positives)");
  check(p_guaranteed + p_predicted <= 1.0 + 1e-12,
        "p_guaranteed/p_predicted (need a sub-unit mix)");
  check(shards == 0 || link_latency > 0,
        "link_latency (need > 0 with shards >= 1)");
}

core::IspnNetwork::Config ScenarioSpec::network_config() const {
  core::IspnNetwork::Config cfg;
  cfg.link_rate = link_rate;
  cfg.buffer_pkts = buffer_pkts;
  cfg.class_targets = class_targets;
  cfg.admission = {admission_mode, datagram_quota};
  cfg.enforce_admission = false;  // the runner records, never throws
  cfg.measurement_window = measurement_window;
  cfg.measurement_safety = measurement_safety;
  cfg.measurement_estimator = measurement_estimator;
  cfg.measurement_ewma_gain = measurement_ewma_gain;
  cfg.seed = seed;
  cfg.event_backend = event_backend;
  cfg.order_backend = order_backend;
  cfg.sharded = shards >= 1;
  cfg.link_latency = link_latency;
  cfg.hierarchical = hierarchical;
  cfg.binary_feedback = binary_feedback;
  cfg.mark_threshold = mark_threshold;
  return cfg;
}

fault::FaultSpec ScenarioSpec::fault_spec() const {
  fault::FaultSpec f;
  f.link_failure_rate = link_failure_rate;
  f.link_repair_mean = link_repair_mean;
  f.flap_prob = flap_prob;
  f.flap_burst_max = flap_burst_max;
  f.flap_gap_mean = flap_gap_mean;
  f.node_crash_rate = node_crash_rate;
  f.node_repair_mean = node_repair_mean;
  f.brownout_rate = brownout_rate;
  f.brownout_fraction = brownout_fraction;
  f.brownout_mean = brownout_mean;
  f.loss_rate = loss_rate;
  f.loss_prob = loss_prob;
  f.loss_mean = loss_mean;
  return f;
}

std::string ScenarioSpec::describe() const {
  std::ostringstream out;
  out << "fabric=" << to_string(fabric);
  switch (fabric) {
    case FabricKind::kChain: out << " switches=" << chain_switches; break;
    case FabricKind::kFanInTree:
      out << " depth=" << tree_depth << " width=" << tree_width;
      break;
    case FabricKind::kParkingLot:
      out << " hops=" << parking_hops << " step=" << parking_rate_step;
      break;
    case FabricKind::kMesh:
      out << " grid=" << mesh_rows << "x" << mesh_cols;
      break;
    case FabricKind::kRing: out << " switches=" << ring_switches; break;
    case FabricKind::kClos:
      out << " spines=" << clos_spines << " leaves=" << clos_leaves;
      break;
  }
  out << " link=" << link_rate / 1e6 << "Mb/s flows<=" << target_flows
      << " arrivals=" << arrival_rate << "/s hold=" << mean_hold << "s mix=G"
      << p_guaranteed << "/P" << p_predicted << " source="
      << to_string(source) << " run=" << run_seconds << "s seed=" << seed;
  if (shards >= 1) {
    out << " shards=" << shards << " latency=" << link_latency * 1e3 << "ms";
  }
  if (hierarchical) out << " hierarchical";
  if (cc != CcKind::kOff) out << " cc=" << to_string(cc);
  if (binary_feedback) out << " feedback@" << mark_threshold;
  if (!link_failures.empty() || link_failure_rate > 0) {
    out << " failures=" << link_failures.size();
    if (link_failure_rate > 0) {
      out << "+rate" << link_failure_rate << "/s";
      if (link_repair_mean > 0) out << " repair=" << link_repair_mean << "s";
    }
    out << " policy=" << name_of(reroute_policy);
  }
  if (node_crash_rate > 0) {
    out << " crashes=" << node_crash_rate << "/s";
    if (node_repair_mean > 0) out << " noderepair=" << node_repair_mean << "s";
  }
  if (brownout_rate > 0) {
    out << " brownouts=" << brownout_rate << "/s@x" << brownout_fraction;
  }
  if (loss_rate > 0) out << " loss=" << loss_rate << "/s@p" << loss_prob;
  if (flap_prob > 0) out << " flap=" << flap_prob;
  if (readmit_backoff > 0) out << " readmit=" << readmit_backoff << "s";
  if (invariant_cadence > 0) out << " monitor=" << invariant_cadence << "s";
  return out.str();
}

namespace {

/// Every preset, in listing order; preset() applies a row to a default spec.
constexpr SpecVariant kPresets[] = {
    {"chain",
     [](ScenarioSpec& spec) {
       spec.fabric = FabricKind::kChain;
       spec.chain_switches = 8;
     }},
    {"fan_in",
     [](ScenarioSpec& spec) {
       spec.fabric = FabricKind::kFanInTree;
       spec.tree_depth = 2;
       spec.tree_width = 4;
       spec.target_flows = 16;
       spec.arrival_rate = 4.0;
     }},
    {"parking_lot",
     [](ScenarioSpec& spec) {
       spec.fabric = FabricKind::kParkingLot;
       spec.parking_hops = 4;
       spec.target_flows = 24;
     }},
    {"churn",
     [](ScenarioSpec& spec) {
       // Admission churn: tight links under fast arrivals and departures,
       // so the live ν̂/d̂ feed actually refuses (and with preemption,
       // evicts).
       spec.fabric = FabricKind::kChain;
       spec.chain_switches = 6;
       spec.arrival_rate = 10.0;
       spec.mean_hold = 3.0;
       spec.target_flows = 48;
       spec.p_guaranteed = 0.35;
       spec.p_predicted = 0.45;
       spec.preempt_on_reject = true;
       // Churn needs a ν̂ that decays when flows leave: the time-window
       // peak estimator holds a departed flow's peak for a full window,
       // starving admission of freed capacity.
       spec.measurement_estimator = Estimator::kEwma;
     }},
    {"failure",
     [](ScenarioSpec& spec) {
       // Link failures on a mesh: every pair keeps an alternate path, so
       // failures trigger rerouting + admission re-validation instead of
       // partition.  The EWMA estimator decays the dead link's history.
       spec.fabric = FabricKind::kMesh;
       spec.mesh_rows = 3;
       spec.mesh_cols = 3;
       spec.arrival_rate = 6.0;
       spec.mean_hold = 8.0;
       spec.target_flows = 36;
       spec.p_guaranteed = 0.3;
       spec.p_predicted = 0.4;
       spec.link_failure_rate = 0.04;
       spec.link_repair_mean = 4.0;
       spec.measurement_estimator = Estimator::kEwma;
     }},
    {"chaos",
     [](ScenarioSpec& spec) {
       // Everything at once: link failures with flapping, switch crashes,
       // capacity brown-outs, transient loss — on a mesh (alternate paths
       // everywhere), with the invariant monitor auditing continuously and
       // degraded flows retrying re-admission under exponential backoff.
       spec.fabric = FabricKind::kMesh;
       spec.mesh_rows = 3;
       spec.mesh_cols = 3;
       spec.arrival_rate = 6.0;
       spec.mean_hold = 8.0;
       spec.target_flows = 36;
       spec.p_guaranteed = 0.3;
       spec.p_predicted = 0.4;
       spec.link_failure_rate = 0.04;
       spec.link_repair_mean = 3.0;
       spec.flap_prob = 0.25;
       spec.node_crash_rate = 0.01;
       spec.node_repair_mean = 2.0;
       spec.brownout_rate = 0.03;
       spec.brownout_fraction = 0.5;
       spec.brownout_mean = 2.0;
       spec.loss_rate = 0.05;
       spec.loss_prob = 0.02;
       spec.loss_mean = 1.0;
       spec.readmit_backoff = 0.5;
       spec.invariant_cadence = 0.5;
       spec.measurement_estimator = Estimator::kEwma;
     }},
};

/// Every scale, in listing order.
constexpr SpecVariant kScales[] = {
    {"smoke",
     [](ScenarioSpec& spec) {
       spec.run_seconds = 1.0;
       spec.drain_grace = 0.25;
     }},
    {"small",
     [](ScenarioSpec& spec) {
       spec.run_seconds = 6.0;
       spec.drain_grace = 0.5;
     }},
    {"large",
     [](ScenarioSpec& spec) {
       // Million-packet class: 10x links, 10x source rates, longer run.
       spec.link_rate *= 10.0;
       spec.avg_rate_pps *= 10.0;
       spec.target_flows = std::max(spec.target_flows, 48);
       spec.run_seconds = 120.0;
     }},
};

/// The row of `table` named `name`; throws naming `what` when absent.
const SpecVariant& find_variant(std::span<const SpecVariant> table,
                                const std::string& name, const char* what) {
  for (const SpecVariant& v : table) {
    if (name == v.name) return v;
  }
  throw std::invalid_argument(std::string("unknown scenario ") + what +
                              " '" + name + "'");
}

}  // namespace

std::span<const SpecVariant> presets() { return kPresets; }
std::span<const SpecVariant> scales() { return kScales; }

ScenarioSpec preset(const std::string& name) {
  ScenarioSpec spec;
  find_variant(kPresets, name, "preset").apply(spec);
  return spec;
}

void apply_scale(ScenarioSpec& spec, const std::string& scale) {
  find_variant(kScales, scale, "scale").apply(spec);
}

void apply_override(ScenarioSpec& spec, const std::string& key,
                    const std::string& value) {
  for (const ConfigKey& k : kKeys) {
    if (key == k.name) return k.set(spec, key, value);
  }
  fail(key, "unknown key");
}

namespace {

/// Tokenizes the JSON-ish object into (key, value) pairs.  Grammar:
/// optional outer { }; entries "key": value or key = value, separated by
/// commas and/or newlines; values are bare tokens or quoted strings; '#'
/// starts a comment.
std::vector<std::pair<std::string, std::string>> tokenize(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t i = 0;
  const auto skip = [&] {
    while (i < text.size()) {
      if (std::isspace(static_cast<unsigned char>(text[i])) != 0 ||
          text[i] == ',' || text[i] == '{' || text[i] == '}') {
        ++i;
      } else if (text[i] == '#') {
        while (i < text.size() && text[i] != '\n') ++i;
      } else {
        break;
      }
    }
  };
  const auto token = [&]() -> std::string {
    if (i < text.size() && text[i] == '"') {
      const std::size_t start = ++i;
      while (i < text.size() && text[i] != '"') ++i;
      if (i >= text.size()) {
        throw std::invalid_argument("scenario config: unterminated string");
      }
      return text.substr(start, i++ - start);
    }
    const std::size_t start = i;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) == 0 &&
           text[i] != ':' && text[i] != '=' && text[i] != ',' &&
           text[i] != '}' && text[i] != '#') {
      ++i;
    }
    return text.substr(start, i - start);
  };
  while (true) {
    skip();
    if (i >= text.size()) break;
    const std::string key = token();
    if (key.empty()) {
      throw std::invalid_argument("scenario config: expected a key");
    }
    skip();
    if (i < text.size() && (text[i] == ':' || text[i] == '=')) ++i;
    skip();
    const std::string value = token();
    if (value.empty()) {
      throw std::invalid_argument("scenario config: missing value for '" +
                                  key + "'");
    }
    pairs.emplace_back(key, value);
  }
  return pairs;
}

}  // namespace

bool apply_json(ScenarioSpec& spec, const std::string& text) {
  auto pairs = tokenize(text);
  // Apply preset first (it REPLACES the spec), then scale, then every
  // other key — so overrides always win regardless of file order.
  std::stable_partition(pairs.begin(), pairs.end(),
                        [](const auto& kv) { return kv.first == "scale"; });
  std::stable_partition(pairs.begin(), pairs.end(),
                        [](const auto& kv) { return kv.first == "preset"; });
  bool contained_preset = false;
  for (const auto& [key, value] : pairs) {
    contained_preset = contained_preset || key == "preset";
    apply_override(spec, key, value);
  }
  return contained_preset;
}

ScenarioSpec spec_from_json(const std::string& text) {
  ScenarioSpec spec;
  apply_json(spec, text);
  return spec;
}

}  // namespace ispn::scenario
