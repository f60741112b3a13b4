//===--- main.cpp - The layer ledger benchmark driver ---------------------===//
//
// Part of memlint. See ledger/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload (or all four) and prints the ledger: a human table of
/// every metric with its unit and sample count, one "LEDGER {...}" line per
/// workload for tools, and as the last line one JSON object
///
///   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
///
/// holding every metric of a timed run (--trace 0) or of a traced run
/// (--trace 1). ledger/run.py narrows it to the metrics BENCHMARK.json
/// lists.
///
///   memlint_ledger --workload sec7_batch|headers_findings|infer_legacy|
///                             service_edits|all
///                  [--seed N] [--seconds S] [--trace 0|1] [--smoke]
///                  [--work-dir DIR] [--trace-dir DIR]
///
/// Temporary files (journals, the service's files, cache and socket) live
/// in --work-dir, which is removed at exit.
///
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <thread>

using namespace ledger;

namespace {

/// The seed for confirming a later claim on inputs not used while the
/// change was written.
constexpr unsigned HeldOutSeed = 1729;

/// Shortest round-trip rendering of a double.
std::string number(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "0";
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      Out += ' ';
    else
      Out += Ch;
  }
  return Out + "\"";
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "memlint_ledger: %s\nusage: memlint_ledger --workload "
               "<name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--work-dir DIR] [--trace-dir DIR]\n",
               Why);
  return 2;
}

/// Prints one workload's ledger and \returns whether every metric is
/// finite.
bool print(const Workload &W, const Config &C, bool Trace, const Report &R) {
  std::printf("== %s (%s run) seed=%u held-out-seed=%u jobs=%u%s\n", W.Name,
              Trace ? "traced" : "timed", C.Seed, HeldOutSeed, C.Jobs,
              C.Smoke ? " smoke" : "");
  std::printf("   why: %s\n", W.Why);
  for (const std::string &Note : R.Notes)
    std::printf("   %s\n", Note.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("   %-32s %16.6g %-9s (%zu samples)\n", M.Name.c_str(),
                M.Value, M.Unit.c_str(), M.Samples);
  std::printf("   checked %llu operations, %llu failed\n", R.Attempted,
              R.Failed);
  for (const std::string &Why : R.Failures)
    std::printf("   FAILED: %s\n", Why.c_str());

  bool Finite = true;
  for (const Metric &M : R.Metrics)
    if (!std::isfinite(M.Value)) {
      std::printf("   NOT FINITE: %s\n", M.Name.c_str());
      Finite = false;
    }

  std::string Line = "LEDGER {\"workload\":" + quoted(W.Name) +
                     ",\"trace\":" + (Trace ? "1" : "0") +
                     ",\"seed\":" + std::to_string(C.Seed) +
                     ",\"jobs\":" + std::to_string(C.Jobs) +
                     ",\"smoke\":" + (C.Smoke ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(R.Attempted) +
                     ",\"failed\":" + std::to_string(R.Failed) +
                     ",\"notes\":[";
  for (size_t I = 0; I < R.Notes.size(); ++I) {
    if (I)
      Line += ',';
    Line += quoted(R.Notes[I]);
  }
  Line += "],\"metrics\":[";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Line += std::string(I ? "," : "") + "{\"name\":" + quoted(M.Name) +
            ",\"unit\":" + quoted(M.Unit) + ",\"value\":" +
            (std::isfinite(M.Value) ? number(M.Value) : "null") +
            ",\"samples\":" + std::to_string(M.Samples) + "}";
  }
  std::printf("%s]}\n", Line.c_str());
  return Finite;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  C.Jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::string Name, WorkDir = "ledger-work", TraceDir;
  bool Trace = false;
  for (int I = 1; I < argc; ++I) try {
    const std::string Arg = argv[I];
    const bool HasValue = I + 1 < argc;
    if (Arg == "--smoke") {
      C.Smoke = true;
    } else if (!HasValue) {
      return usage(("missing value for " + Arg).c_str());
    } else if (Arg == "--workload") {
      Name = argv[++I];
    } else if (Arg == "--seed") {
      C.Seed = static_cast<unsigned>(std::stoul(argv[++I]));
    } else if (Arg == "--seconds") {
      C.Seconds = std::stod(argv[++I]);
    } else if (Arg == "--trace") {
      Trace = std::string(argv[++I]) == "1";
    } else if (Arg == "--work-dir") {
      WorkDir = argv[++I];
    } else if (Arg == "--trace-dir") {
      TraceDir = argv[++I];
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
  } catch (const std::logic_error &) {
    return usage(("malformed value for " + std::string(argv[I - 1])).c_str());
  }
  std::vector<const Workload *> Selected;
  for (const Workload &W : workloads())
    if (Name == "all" || Name == W.Name)
      Selected.push_back(&W);
  if (Selected.empty())
    return usage(("unknown workload '" + Name + "'").c_str());

  // A client that vanishes must not kill the run through SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  namespace fs = std::filesystem;
  std::error_code Ec;
  if (!TraceDir.empty()) {
    fs::create_directories(TraceDir, Ec);
    C.TraceDir = fs::absolute(TraceDir).string();
  }
  const fs::path Home = fs::current_path();
  const fs::path Work = fs::absolute(WorkDir);
  fs::remove_all(Work, Ec);
  fs::create_directories(Work, Ec);
  fs::current_path(Work, Ec);
  if (Ec) {
    std::fprintf(stderr, "memlint_ledger: cannot enter %s: %s\n",
                 Work.c_str(), Ec.message().c_str());
    return 1;
  }

  bool Correct = true;
  unsigned long long Attempted = 0, Failed = 0;
  std::string Metrics;
  for (const Workload *W : Selected) {
    Report R;
    if (Trace)
      runTraced(*W, C, R);
    else
      runTimed(*W, C, R);
    Correct = print(*W, C, Trace, R) && Correct && R.Failed == 0 &&
              R.Attempted > 0;
    Attempted += R.Attempted;
    Failed += R.Failed;
    for (const Metric &M : R.Metrics) {
      const std::string Key =
          Selected.size() == 1 ? M.Name : std::string(W->Name) + "." + M.Name;
      Metrics += std::string(Metrics.empty() ? "" : ", ") + quoted(Key) +
                 ": {\"value\": " +
                 number(std::isfinite(M.Value) ? M.Value : 0) +
                 ", \"unit\": " + quoted(M.Unit) + "}";
    }
    std::fflush(stdout);
  }

  fs::current_path(Home, Ec);
  fs::remove_all(Work, Ec);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", Attempted, Failed, Metrics.c_str());
  return 0;
}
