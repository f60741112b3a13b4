//===--- Timed.cpp - The ledger's end-to-end measurements -----------------===//
//
// Part of memlint. See ledger/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timed run of each workload, with tracing off, checking every output
/// against its known answer. The inputs are built once. A fresh set-up
/// (corpus generation, temp files, service start and socket bind) is
/// repeated between the measured rounds, so set-up time samples the same
/// stretch of the run as the work does, and the peak resident set is read
/// in windows that hold no set-up (its median over windows is reported).
/// Every reported time is a median of block means (medianOfMeans) over its
/// samples in the order they were taken; a latency percentile is taken
/// over each round (a pass, a service cycle) first. Set-up and throughput
/// are timed in wall time and in process CPU time, and the CPU time is
/// also scaled by the reference computation's, sampled before every
/// set-up.
///
/// Batch workloads: an untimed warm-up pass, three untimed passes that
/// each read the peak resident set, then timed BatchDriver passes
/// streaming their output in input order (kloc_per_ref_cpu_s and its
/// twins, and per-file check latency as cold_p50/p90_ms).
///
/// service_edits: cycles of a cold fill through the socket
/// (kloc_per_ref_cpu_s and its twins, and cold samples), a two-client
/// closed loop where 5% of requests first edit their module (warm hits,
/// cold misses), and graceful restarts on the same cache file followed by
/// one warm answer per module (restart_ms).
///
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "ServiceRig.h"

#include "support/Rand.h"

#include <memory>
#include <thread>

using namespace memlint;
using namespace ledger;

namespace {

/// Latency samples grouped into rounds, in the order they were taken.
class Rounds {
public:
  void next() { All.emplace_back(); }
  void add(double Ms) {
    if (All.empty())
      next();
    All.back().push_back(Ms);
  }
  void add(const std::vector<double> &Ms) {
    for (double V : Ms)
      add(V);
  }
  size_t samples() const {
    size_t N = 0;
    for (const std::vector<double> &Round : All)
      N += Round.size();
    return N;
  }
  /// Each non-empty round's \p Q quantile, then their median of means.
  double percentile(double Q) const {
    std::vector<double> PerRound;
    for (const std::vector<double> &Round : All)
      if (!Round.empty())
        PerRound.push_back(quantile(Round, Q));
    return medianOfMeans(PerRound);
  }

private:
  std::vector<std::vector<double>> All;
};

void addLatencies(Report &R, const char *Prefix, const Rounds &Ms) {
  const std::string P = Prefix;
  R.add(P + "_p50_ms", "ms", Ms.percentile(0.5), Ms.samples());
  R.add(P + "_p90_ms", "ms", Ms.percentile(0.9), Ms.samples());
}

/// Wall and process CPU times (ms) of the repetitions of one measured step,
/// in the order they were taken.
struct Times {
  std::vector<double> Wall, Cpu;
  void add(double WallMs, double CpuMs) {
    Wall.push_back(WallMs);
    Cpu.push_back(CpuMs);
  }
};

/// A round figure near the reference computation's CPU time (referenceMs)
/// on a 4-vCPU Xeon cloud guest. Normalized figures read as if measured on
/// a host that runs the reference in this time.
constexpr double ReferenceNominalMs = 20.0;

/// Reports set-up time and throughput. The gated figures, setup_s and
/// kloc_per_ref_cpu_s, are process CPU time scaled by the reference
/// computation's CPU time over the same run (RefMs): wall time counts the
/// time a thread of a guest on a shared host waits for a CPU, and CPU time
/// still follows the host's speed, which changed by up to 1.7x within an
/// hour (see ledger/README.md). The unscaled CPU and wall figures are
/// printed beside them.
void addTimes(Report &R, const Inputs &In, const Times &Setup,
              const Times &Work, const std::vector<double> &RefMs) {
  const size_t Setups = Setup.Cpu.size(), Passes = Work.Cpu.size();
  const double Ref = medianOfMeans(RefMs);
  const double Scale = ReferenceNominalMs / Ref;
  const double SetupCpuMs = medianOfMeans(Setup.Cpu);
  const double WorkCpuMs = medianOfMeans(Work.Cpu);
  R.add("setup_s", "s", SetupCpuMs * Scale / 1000.0, Setups);
  R.add("setup_cpu_s", "s", SetupCpuMs / 1000.0, Setups);
  R.add("setup_wall_s", "s", medianOfMeans(Setup.Wall) / 1000.0, Setups);
  R.add("kloc_per_ref_cpu_s", "kloc/s", In.Lines / (WorkCpuMs * Scale),
        Passes);
  R.add("kloc_per_cpu_s", "kloc/s", In.Lines / WorkCpuMs, Passes);
  R.add("kloc_per_s", "kloc/s", In.Lines / medianOfMeans(Work.Wall), Passes);
  R.add("ref_ms", "ms", Ref, RefMs.size());
}

/// One fresh set-up of \p W, checked to generate the inputs \p Fingerprint
/// names. It runs on a fresh thread, as batch workers do, so the heap of
/// the measured inputs does not slow it. Nothing else runs meanwhile, so
/// the process CPU time is the set-up's own.
void setupOnce(const Workload &W, const Config &C,
               const std::string &Fingerprint, Report &R, Times &Setup) {
  std::thread([&] {
    const double Start = nowMs(), CpuStart = cpuMs();
    const Inputs In = makeInputs(W, C);
    std::string Error;
    std::unique_ptr<ServiceRig> Rig;
    if (W.Service) {
      Rig = std::make_unique<ServiceRig>(In, false);
      Error = Rig->writeCorpus();
      if (Error.empty())
        Error = Rig->start();
    }
    Setup.add(nowMs() - Start, cpuMs() - CpuStart);
    R.check(Error);
    R.check(In.Fingerprint == Fingerprint
                ? ""
                : "the same seed generated different inputs");
  }).join();
}

} // namespace

std::vector<size_t> ledger::allFiles(const Inputs &In) {
  std::vector<size_t> All(In.Program.MainFiles.size());
  for (size_t I = 0; I < All.size(); ++I)
    All[I] = I;
  return All;
}

PassResult ledger::batchPass(const Workload &W, const Inputs &In,
                             const std::vector<size_t> &Which, BatchOptions O,
                             Report &R, std::string &Rendered,
                             TraceRecorder *Outer) {
  std::vector<std::string> Names;
  for (size_t I : Which)
    Names.push_back(In.Program.MainFiles[I]);
  std::string Out;
  Out.reserve(Rendered.size());
  size_t Next = 0;
  bool InOrder = true;
  O.OnFileOutcome = [&](const FileOutcome &F) {
    InOrder = InOrder && Next < Names.size() && F.File == Names[Next];
    ++Next;
    Out += F.Diagnostics;
    if (Outer) {
      TraceEvent E;
      E.Cat = "ledger";
      E.Name = "outcome";
      E.TsMs = nowMs() - F.WallMs;
      E.DurMs = F.WallMs;
      E.Args.emplace_back("file", F.File);
      Outer->record(std::move(E));
    }
  };
  PassResult P;
  const double Start = nowMs(), CpuStart = cpuMs();
  P.Batch = BatchDriver(O).run(In.Program.Files, Names);
  P.Ms = nowMs() - Start;
  P.CpuMs = cpuMs() - CpuStart;
  const std::vector<FileOutcome> &Outcomes = P.Batch.Outcomes;
  R.check(Outcomes.size() == Names.size() && InOrder && Next == Names.size()
              ? ""
              : "batch outcomes were not streamed once each in input order");
  for (size_t I = 0; I < Outcomes.size() && I < Names.size(); ++I)
    R.check(checkOutcome(W, In, Which[I], Outcomes[I]));
  if (!Rendered.empty() && Out != Rendered)
    R.check("pass output differs from the first pass's output");
  Rendered = std::move(Out);
  return P;
}

namespace {

void runBatch(const Workload &W, const Config &C, Report &R) {
  const Inputs In = makeInputs(W, C);
  R.Notes.push_back(describe(In));
  BatchOptions O = batchOptions(W, C);
  if (W.Journal)
    O.JournalPath = "run.jsonl";
  const std::vector<size_t> All = allFiles(In);
  std::string Rendered;
  batchPass(W, In, All, O, R, Rendered); // untimed warm-up

  // The peak resident set of three more untimed passes, each on its own.
  std::vector<double> PeakMb;
  for (unsigned I = 0; I < 3; ++I) {
    resetPeakRss();
    batchPass(W, In, All, O, R, Rendered);
    PeakMb.push_back(peakRssMb());
  }

  const double End = nowMs() + C.Seconds * 1000.0;
  Times Setup, Pass;
  std::vector<double> RefMs;
  Rounds FileMs;
  while (Pass.Wall.size() < 3 || nowMs() < End) {
    RefMs.push_back(referenceMs(C.Jobs));
    setupOnce(W, C, In.Fingerprint, R, Setup);
    PassResult P = batchPass(W, In, All, O, R, Rendered);
    Pass.add(P.Ms, P.CpuMs);
    FileMs.next();
    for (const FileOutcome &F : P.Batch.Outcomes)
      FileMs.add(F.WallMs);
    if (W.Journal)
      R.check(checkJournal(In, O.JournalPath));
  }

  addTimes(R, In, Setup, Pass, RefMs);
  R.add("peak_rss_mb", "MiB", median(PeakMb), PeakMb.size());
  addLatencies(R, "cold", FileMs);
}

/// One client's checks and the latencies of the current cycle.
struct ClientLog {
  Report Checks;
  std::vector<double> Warm, Cold;
};

void runService(const Workload &W, const Config &C, Report &R) {
  const Inputs In = makeInputs(W, C);
  R.Notes.push_back(describe(In));
  ServiceRig Rig(In, false);

  const size_t Modules = In.Program.MainFiles.size();
  std::vector<std::string> LastCold(Modules);
  ClientLog Logs[2];
  Rounds Warm, Cold;
  Times Setup, Fill;
  std::vector<double> RefMs, RestartMs, PeakMb;
  const double End = nowMs() + C.Seconds * 1000.0;
  const double LoopMs = C.Smoke ? 100 : 800;
  for (unsigned Cycle = 0; Cycle < 2 || nowMs() < End; ++Cycle) {
    // Set-ups run while the service is down: they write the same files
    // (which also undoes the previous cycle's edits) and bind the same
    // socket.
    for (unsigned I = 0; I < 3; ++I) {
      RefMs.push_back(referenceMs(C.Jobs));
      setupOnce(W, C, In.Fingerprint, R, Setup);
    }
    Rig.dropCache();
    R.check(Rig.start());
    resetPeakRss();

    // Cold fill: every module once.
    double Start = nowMs();
    const double CpuStart = cpuMs();
    onTwoClients(Modules, [&](unsigned Client, const std::vector<size_t> &Own) {
      ClientLog &Log = Logs[Client];
      for (size_t I : Own) {
        ServiceRig::Answer A = Rig.request(I);
        Log.Checks.check(checkAnswer(A, false, "", In.Expected[I]));
        LastCold[I] = A.Reply.Diagnostics;
        Log.Cold.push_back(A.Ms);
      }
    });
    Fill.add(nowMs() - Start, cpuMs() - CpuStart);

    // Closed loop: each client sends its next request when the previous
    // one is answered; 5% of requests first edit their module.
    const double LoopEnd = std::min(End, nowMs() + LoopMs);
    onTwoClients(Modules, [&](unsigned Client, const std::vector<size_t> &Own) {
      ClientLog &Log = Logs[Client];
      SplitMix64 Rng(mixSeed(C.Seed, Cycle * 2 + Client));
      while (nowMs() < LoopEnd) {
        const size_t I = Own[Rng.below(Own.size())];
        const bool Edit = Rng.chance(5);
        if (Edit)
          Log.Checks.check(Rig.edit(I));
        ServiceRig::Answer A = Rig.request(I);
        Log.Checks.check(checkAnswer(A, !Edit, LastCold[I], In.Expected[I]));
        if (Edit) {
          LastCold[I] = A.Reply.Diagnostics;
          Log.Cold.push_back(A.Ms);
        } else {
          Log.Warm.push_back(A.Ms);
        }
      }
    });

    // Graceful restarts on the same cache file: drain and flush, start,
    // then one warm answer for every module.
    for (unsigned Restart = 0; Restart < 3; ++Restart) {
      Start = nowMs();
      Rig.stop();
      std::string Error = Rig.start();
      onTwoClients(Modules,
                   [&](unsigned Client, const std::vector<size_t> &Own) {
                     for (size_t I : Own)
                       Logs[Client].Checks.check(checkAnswer(
                           Rig.request(I), true, LastCold[I], 0));
                   });
      RestartMs.push_back(nowMs() - Start);
      R.check(Error.empty() && Rig.service().cacheLoadedClean()
                  ? ""
                  : "restart did not attach the cache cleanly: " + Error);
    }
    Rig.stop();
    PeakMb.push_back(peakRssMb());

    // Both clients' latencies of this cycle make one round.
    Warm.next();
    Cold.next();
    for (ClientLog &Log : Logs) {
      Warm.add(Log.Warm);
      Cold.add(Log.Cold);
      Log.Warm.clear();
      Log.Cold.clear();
    }
  }

  for (const ClientLog &Log : Logs)
    R.merge(Log.Checks);
  addTimes(R, In, Setup, Fill, RefMs);
  R.add("peak_rss_mb", "MiB", median(PeakMb), PeakMb.size());
  addLatencies(R, "cold", Cold);
  addLatencies(R, "warm", Warm);
  R.add("restart_ms", "ms", medianOfMeans(RestartMs), RestartMs.size());
}

} // namespace

void ledger::runTimed(const Workload &W, const Config &C, Report &R) {
  if (W.Service)
    runService(W, C, R);
  else
    runBatch(W, C, R);
  R.add("fail_ratio", "ratio",
        R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0,
        R.Attempted);
}
