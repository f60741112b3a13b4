//===--- Ledger.h - The layer ledger benchmark ------------------*- C++ -*-===//
//
// Part of memlint. See ledger/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the layer ledger: the four workloads, their
/// seeded inputs with known answers, and the report a run fills in. The
/// benchmark drives memlint only through its public entry points (the
/// Lexer, Preprocessor, Parser, Sema, AnnotationInfer and FunctionChecker
/// stages, the Checker facade, BatchDriver, and CheckService with its
/// socket), so a change inside any layer is measured without editing it.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLINT_LEDGER_LEDGER_H
#define MEMLINT_LEDGER_LEDGER_H

#include "corpus/Corpus.h"
#include "driver/BatchDriver.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace ledger {

/// One workload: a generated corpus and the path it takes through memlint.
struct Workload {
  const char *Name;
  const char *Why;
  unsigned Modules;       ///< modules at full size
  unsigned SmokeModules;  ///< modules in smoke mode
  unsigned SharedHeaders; ///< shared headers every module includes
  bool Unannotated;       ///< module bodies carry no annotations
  bool Infer;             ///< check with annotation inference on
  bool Journal;           ///< timed passes write a run journal
  bool Service;           ///< served through CheckService, not batched
};

/// The four workloads, in ledger order.
const std::vector<Workload> &workloads();

/// Run settings shared by every workload.
struct Config {
  unsigned Seed = 42;
  double Seconds = 10;
  bool Smoke = false;
  unsigned Jobs = 1;
  std::string TraceDir; ///< where traced runs write their span files
};

/// Annotation words of one function by position: [0] is the return value,
/// [I] the I-th parameter.
using Signature = std::vector<std::set<std::string>>;

/// The generated inputs of one workload and the answers they must produce.
/// Every answer is derived from the generated text, never from memlint.
struct Inputs {
  memlint::corpus::Program Program;
  /// Expected anomaly count of each main file, in MainFiles order.
  std::vector<unsigned> Expected;
  /// infer_legacy only: the hand-annotated signatures the same seed
  /// generates, per main file, keyed by function name.
  std::vector<std::map<std::string, Signature>> Reference;
  unsigned Lines = 0;      ///< corpus lines, each file counted once
  std::string Fingerprint; ///< FNV-1a over every generated file
};

/// Generates \p W's inputs for \p C's seed and size.
Inputs makeInputs(const Workload &W, const Config &C);

/// The batch options a workload checks with (jobs, inference).
memlint::BatchOptions batchOptions(const Workload &W, const Config &C);

/// Known-answer check of the outcome of main file \p Index. \returns an
/// empty string when it is correct, otherwise what is wrong.
std::string checkOutcome(const Workload &W, const Inputs &In, size_t Index,
                         const memlint::FileOutcome &O);

/// Checks that the run journal at \p Path holds one entry line per main
/// file. \returns an empty string when it does.
std::string checkJournal(const Inputs &In, const std::string &Path);

/// One line naming \p In's size, expected findings and fingerprint.
std::string describe(const Inputs &In);

/// Annotation words the hand-annotated corpus writes, summed over \p In.
unsigned referenceWords(const Inputs &In);

double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
/// The median of the means of five consecutive blocks of \p Samples (in
/// the order they were taken), or their median when there are fewer. A
/// shared virtual machine can switch between a fast and a slower speed
/// every second or so (1.4x apart on a 4-vCPU cloud guest); a median of
/// such samples jumps between the two speeds from run to run, while a
/// block mean moves in proportion to the slow share and the median over
/// blocks still drops a spoiled block.
double medianOfMeans(const std::vector<double> &Samples);
double nowMs();
/// CPU time of the whole process (every thread, user and system) in ms.
/// Unlike wall time it leaves out the time a thread waits for a CPU, both
/// behind other runnable threads and while the host runs another guest on
/// its virtual CPU (steal time).
double cpuMs();
/// Runs a fixed reference computation that uses no memlint code on
/// \p Threads threads at once and \returns its mean thread CPU time in ms.
/// The host's speed moves it as it moves a pass, so it normalizes CPU
/// times measured at different host speeds.
double referenceMs(unsigned Threads);

/// One reported number.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  size_t Samples = 0; ///< observations behind the value
};

/// What one workload run reports.
struct Report {
  std::vector<Metric> Metrics;
  unsigned long long Attempted = 0; ///< operations whose output was checked
  unsigned long long Failed = 0;    ///< operations with a wrong output
  std::vector<std::string> Failures; ///< the first few reasons
  std::vector<std::string> Notes;    ///< extra lines for the human report

  void add(std::string Name, std::string Unit, double Value, size_t Samples) {
    Metrics.push_back({std::move(Name), std::move(Unit), Value, Samples});
  }
  /// Records one checked operation; \p Why non-empty marks it failed.
  void check(const std::string &Why) {
    ++Attempted;
    if (Why.empty())
      return;
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(Why);
  }
  /// Folds in the checks another thread recorded.
  void merge(const Report &Other) {
    Attempted += Other.Attempted;
    Failed += Other.Failed;
    for (const std::string &Why : Other.Failures)
      if (Failures.size() < 8)
        Failures.push_back(Why);
  }
};

/// One streamed, checked batch pass.
struct PassResult {
  memlint::BatchResult Batch;
  double Ms = 0;    ///< wall time around BatchDriver::run
  double CpuMs = 0; ///< process CPU time around BatchDriver::run
};

/// Indices of every main file of \p In.
std::vector<size_t> allFiles(const Inputs &In);

/// Runs one BatchDriver pass over the main files \p Which, streaming each
/// outcome in input order through OnFileOutcome (as the CLI does), and
/// checks every outcome against its known answer and the streamed output
/// against \p Rendered, the previous pass's output (when non-empty), which
/// it then replaces. With \p Outer set, records one span per outcome.
PassResult batchPass(const Workload &W, const Inputs &In,
                     const std::vector<size_t> &Which,
                     memlint::BatchOptions O, Report &R,
                     std::string &Rendered,
                     memlint::TraceRecorder *Outer = nullptr);

/// Peak resident set size of this process in MiB since the last
/// resetPeakRss() (or process start where the reset is unsupported).
double peakRssMb();
/// Returns freed heap to the system, then restarts the peak from the
/// current resident set.
void resetPeakRss();

/// The timed run: every end-to-end metric of \p W.
void runTimed(const Workload &W, const Config &C, Report &R);

/// The traced run: per-layer metrics of \p W, a span file, and the -j1
/// versus -jN byte comparison.
void runTraced(const Workload &W, const Config &C, Report &R);

} // namespace ledger

#endif // MEMLINT_LEDGER_LEDGER_H
