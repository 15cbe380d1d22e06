// scenario_run: drive one scenario fabric from the command line.
//
// Usage:
//   scenario_run --preset fan_in [--scale smoke|small|large] [key=value ...]
//   scenario_run --chaos [key=value ...]
//   scenario_run path/to/config.json [key=value ...]
//   scenario_run --list
//
// The config file is the flat JSON-ish object scenario::apply_json
// accepts (keys mirror ScenarioSpec fields, and --list prints them all;
// "preset" and "scale" keys are applied first).  Trailing key=value args override either form.
//
// Output: the human-readable report on stdout; --json PATH additionally
// writes the machine-readable report.
//
// --chaos is the self-checking preset: every fault family active and the
// invariant monitor auditing continuously; any structured violation makes
// the run exit non-zero, so CI can drive it as a chaos gate.
//
// Exit codes: 0 success, 1 CONSERVATION VIOLATED or INVARIANT VIOLATIONS
// (CI trips on this), 2 usage/config error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "scenario/runner.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--preset NAME | --chaos | CONFIG.json) "
               "[--scale SCALE] [--json PATH] "
               "[--fail-link SRC:DST@T[,up@T2]] "
               "[--shards N] [--cc off|reno|bbr|rack|mix] [key=value ...]\n"
               "       %s --list\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ispn;

  scenario::ScenarioSpec spec;
  bool have_spec = false;
  bool have_overrides = false;
  std::string json_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list") {
        std::printf("presets:");
        for (const auto& p : scenario::presets()) std::printf(" %s", p.name);
        std::printf("\nscales: ");
        for (const auto& s : scenario::scales()) std::printf(" %s", s.name);
        std::printf("\nkeys:   ");
        for (const auto& key : scenario::config_keys()) {
          std::printf(" %s", key.name);
        }
        std::printf("\n");
        return 0;
      }
      if (arg == "--chaos") {
        // Sugar for `--preset chaos` with the monitor guaranteed on: all
        // four fault families plus continuous invariant audits, and any
        // violation turns into a non-zero exit below.
        if (have_overrides) {
          std::fprintf(stderr,
                       "--chaos must be the first setting (it replaces "
                       "the whole spec)\n");
          return 2;
        }
        spec = scenario::preset("chaos");
        if (spec.invariant_cadence <= 0) spec.invariant_cadence = 0.5;
        have_spec = true;
        have_overrides = true;
      } else if (arg == "--preset") {
        if (++i >= argc) return usage(argv[0]);
        if (have_overrides) {
          // A preset REPLACES the spec; accepting it here would silently
          // discard the settings already applied.
          std::fprintf(stderr,
                       "--preset must be the first setting (it replaces "
                       "the whole spec)\n");
          return 2;
        }
        spec = scenario::preset(argv[i]);
        have_spec = true;
        have_overrides = true;  // a later preset (flag or config key)
                                // would silently replace this choice
      } else if (arg == "--scale") {
        if (++i >= argc) return usage(argv[0]);
        scenario::apply_scale(spec, argv[i]);
        have_overrides = true;  // a later --preset would discard it
      } else if (arg == "--json") {
        if (++i >= argc) return usage(argv[0]);
        json_path = argv[i];
      } else if (arg == "--shards") {
        // Worker threads for the sharded parallel core; any N >= 1 is
        // bit-identical to N=1 (0 restores the classic single clock).
        if (++i >= argc) return usage(argv[0]);
        scenario::apply_override(spec, "shards", argv[i]);
        have_overrides = true;
      } else if (arg == "--cc") {
        // Congestion-control stack for the datagram flows (off keeps the
        // open-loop generators); pair with binary_feedback=1 for the
        // DEC-TR-506 marking loop.
        if (++i >= argc) return usage(argv[0]);
        scenario::apply_override(spec, "cc", argv[i]);
        have_spec = true;
        have_overrides = true;
      } else if (arg == "--fail-link") {
        // SRC:DST@T[,up@T2] — take the duplex link down at T (and back up
        // at T2).  Repeatable; each use appends one failure.
        if (++i >= argc) return usage(argv[0]);
        scenario::apply_override(spec, "fail_link", argv[i]);
        have_spec = true;
        have_overrides = true;
      } else if (arg.find('=') != std::string::npos) {
        const auto eq = arg.find('=');
        scenario::apply_override(spec, arg.substr(0, eq), arg.substr(eq + 1));
        have_spec = true;
        have_overrides = true;
      } else if (!arg.empty() && arg[0] != '-') {
        std::ifstream in(arg);
        if (!in) {
          std::fprintf(stderr, "cannot open config '%s'\n", arg.c_str());
          return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        if (scenario::apply_json(spec, ss.str()) && have_overrides) {
          std::fprintf(stderr,
                       "config '%s' contains a preset that would discard "
                       "the settings given before it\n",
                       arg.c_str());
          return 2;
        }
        have_spec = true;
        have_overrides = true;
      } else {
        return usage(argv[0]);
      }
    }
    if (!have_spec) return usage(argv[0]);
    spec.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  scenario::ScenarioRunner runner(spec);
  const scenario::ScenarioReport report = runner.run();
  report.to_text(std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    report.to_json(out);
    std::printf("json report written to %s\n", json_path.c_str());
  }

  int rc = 0;
  if (!report.conserved()) {
    std::fprintf(stderr, "CONSERVATION VIOLATED\n");
    rc = 1;
  }
  if (report.invariant_violations > 0) {
    // The runtime monitor already printed each structured violation as it
    // fired; the summary line makes the gate's verdict unmissable.
    std::fprintf(stderr, "INVARIANT VIOLATIONS: %llu\n",
                 static_cast<unsigned long long>(report.invariant_violations));
    rc = 1;
  }
  return rc;
}
