// perfbench: the native half of the repository benchmark. run.py builds
// it, launches it once per workload phase and turns its JSON lines into
// the benchmark result.
//
//   perfbench info                  build fingerprint
//   perfbench sim   --workload=...  sweep_paper / fleet_chaos passes
//   perfbench load  --port=...      one open-loop session phase
//   perfbench audit --port=...      wire AUDIT + STATS of a daemon
//   perfbench probe --tmp=DIR       server-layer probes (traced runs)
#include <cstdio>
#include <cstring>

#include "common.h"
#include "util/cli.h"

#ifndef SC_LTO
#define SC_LTO 0
#endif

namespace {

int info_main(int, char**) {
  pb::Record r;
  r.str("build_type", PB_BUILD_TYPE);
  r.str("compiler", PB_COMPILER);
  r.boolean("lto", SC_LTO != 0);
  r.print();
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench info|sim|load|audit|probe [flags]\n");
    return 2;
  }
  const char* cmd = argv[1];
  // Subcommands parse their flags from argv[1..] so the command name
  // stands in for the program name.
  if (std::strcmp(cmd, "info") == 0) return info_main(argc - 1, argv + 1);
  if (std::strcmp(cmd, "sim") == 0) return pb::sim_main(argc - 1, argv + 1);
  if (std::strcmp(cmd, "load") == 0) return pb::load_main(argc - 1, argv + 1);
  if (std::strcmp(cmd, "audit") == 0) return pb::audit_main(argc - 1, argv + 1);
  if (std::strcmp(cmd, "probe") == 0) return pb::probe_main(argc - 1, argv + 1);
  std::fprintf(stderr, "perfbench: unknown subcommand %s\n", cmd);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return sc::util::guarded_main(dispatch, argc, argv);
}
