//===--- Inputs.cpp - Ledger workloads, inputs and known answers ----------===//
//
// Part of memlint. See ledger/README.md.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "support/Journal.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <span>
#include <thread>
#include <unordered_map>

#include <malloc.h>
#include <sys/mman.h>
#include <time.h>

using namespace memlint;
using namespace ledger;

const std::vector<Workload> &ledger::workloads() {
  static const std::vector<Workload> All = {
      {"sec7_batch",
       "the paper's Section 7 corpus at 2000 modules: many small clean files "
       "and the journal write path; check is the largest layer",
       2000, 8, 0, false, false, true, false},
      {"headers_findings",
       "32 shared headers per module and unannotated bodies: front-end "
       "heavy, and the only workload that emits and renders findings",
       400, 6, 32, true, false, false, false},
      {"infer_legacy",
       "unannotated modules checked with inference on: the only workload "
       "that runs AnnotationInfer",
       400, 6, 0, true, true, false, false},
      {"service_edits",
       "CheckService over its socket with a persisted cache and 5% edits: "
       "cache, queue and socket dominate, lex to check do little",
       400, 6, 0, false, false, false, true},
  };
  return All;
}

double ledger::nowMs() { return monotonicNowMs(); }

namespace {

double clockMs(clockid_t Clock) {
  timespec Ts{};
  clock_gettime(Clock, &Ts);
  return static_cast<double>(Ts.tv_sec) * 1000.0 +
         static_cast<double>(Ts.tv_nsec) / 1e6;
}

uint64_t xorshift(uint64_t &State) {
  State ^= State << 13;
  State ^= State >> 7;
  State ^= State << 17;
  return State;
}

/// Keeps the reference computation's result alive.
std::atomic<uint64_t> ReferenceSink{0};

/// The reference computation: the kinds of work a checker does (building
/// short strings, hash-map and ordered-map lookups, sorting, dependent
/// loads from \p Table) on fixed inputs and without memlint code, so no
/// change to memlint changes its cost. \returns its thread CPU time in ms.
double referenceOnce(std::span<const uint32_t> Table) {
  const double Start = clockMs(CLOCK_THREAD_CPUTIME_ID);
  uint64_t State = 0x9e3779b97f4a7c15ull;
  std::vector<std::string> Words(1500);
  for (std::string &Word : Words)
    for (uint64_t Len = 4 + xorshift(State) % 9; Len; --Len)
      Word += static_cast<char>('a' + xorshift(State) % 26);
  std::unordered_map<std::string, unsigned> Hashed;
  std::map<std::string, unsigned> Ordered;
  for (const std::string &Word : Words) {
    ++Hashed[Word];
    ++Ordered[Word];
  }
  uint64_t Sum = 0;
  for (unsigned I = 0; I < 15000; ++I) {
    const std::string &Word = Words[xorshift(State) % Words.size()];
    Sum += Hashed.find(Word)->second + Ordered.find(Word)->second;
  }
  std::vector<uint32_t> Numbers(15000);
  for (uint32_t &N : Numbers)
    N = static_cast<uint32_t>(xorshift(State));
  std::sort(Numbers.begin(), Numbers.end());
  uint32_t At = Numbers[Numbers.size() / 2];
  for (uint32_t I = 0; I < 100000; ++I)
    At = Table[(At ^ I) & (Table.size() - 1)];
  ReferenceSink += Sum + At;
  return clockMs(CLOCK_THREAD_CPUTIME_ID) - Start;
}

} // namespace

double ledger::cpuMs() { return clockMs(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

/// An anonymous private memory mapping of \p Words 32-bit words, unmapped
/// on destruction.
class WordMapping {
public:
  explicit WordMapping(size_t Words)
      : Bytes(Words * sizeof(uint32_t)),
        Mem(mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {}
  ~WordMapping() {
    if (Mem != MAP_FAILED)
      munmap(Mem, Bytes);
  }
  WordMapping(const WordMapping &) = delete;
  WordMapping &operator=(const WordMapping &) = delete;

  /// The words, or null when the mapping failed.
  uint32_t *words() const {
    return Mem == MAP_FAILED ? nullptr : static_cast<uint32_t *>(Mem);
  }

private:
  const size_t Bytes;
  void *const Mem;
};

} // namespace

double ledger::referenceMs(unsigned Threads) {
  // 4 MiB of fixed random words: more than a core's L2 cache holds, so the
  // reference also waits on the shared cache and memory, as a pass over a
  // large corpus does. It is unmapped on return, so it never counts in a
  // peak_rss_mb window. It bypasses malloc: freeing a heap block this large
  // raises glibc's mmap threshold, which would move memlint's own large
  // blocks from mappings to the heap and change its resident set.
  constexpr size_t TableWords = size_t(1) << 20;
  WordMapping Mapping(TableWords);
  if (!Mapping.words())
    throw std::bad_alloc();
  const std::span<const uint32_t> Table(Mapping.words(), TableWords);
  uint64_t State = 88172645463325252ull;
  for (uint32_t *V = Mapping.words(); V != Mapping.words() + TableWords; ++V)
    *V = static_cast<uint32_t>(xorshift(State));
  std::vector<double> Ms(std::max(1u, Threads));
  std::vector<std::thread> Pool;
  for (double &Slot : Ms)
    Pool.emplace_back([&Slot, Table] { Slot = referenceOnce(Table); });
  for (std::thread &T : Pool)
    T.join();
  double Sum = 0;
  for (double V : Ms)
    Sum += V;
  return Sum / static_cast<double>(Ms.size());
}

double ledger::medianOfMeans(const std::vector<double> &Samples) {
  constexpr size_t Blocks = 5;
  if (Samples.size() < Blocks)
    return median(Samples);
  std::vector<double> Means;
  for (size_t B = 0; B < Blocks; ++B) {
    const size_t From = B * Samples.size() / Blocks;
    const size_t To = (B + 1) * Samples.size() / Blocks;
    double Sum = 0;
    for (size_t I = From; I < To; ++I)
      Sum += Samples[I];
    Means.push_back(Sum / static_cast<double>(To - From));
  }
  return median(Means);
}

double ledger::median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double ledger::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double ledger::peakRssMb() {
  // VmHWM honours resetPeakRss(); getrusage does not.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return static_cast<double>(peakRssKb()) / 1024.0;
}

void ledger::resetPeakRss() {
  // Heap freed by earlier work would otherwise stay resident and count.
  malloc_trim(0);
  std::ofstream ClearRefs("/proc/self/clear_refs");
  ClearRefs << "5";
}

namespace {

unsigned countOf(const std::string &Text, const std::string &Needle) {
  unsigned N = 0;
  for (size_t At = Text.find(Needle); At != std::string::npos;
       At = Text.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

std::set<std::string> annotationWords(const std::string &Text) {
  std::set<std::string> Words;
  for (size_t At = Text.find("/*@"); At != std::string::npos;
       At = Text.find("/*@", At + 3)) {
    const size_t End = Text.find("@*/", At + 3);
    if (End == std::string::npos)
      break;
    Words.insert(Text.substr(At + 3, End - At - 3));
  }
  return Words;
}

/// Signatures of the functions declared or defined at column 0 of \p Text,
/// one per line: generated module definitions ("node *f(int v)") and
/// rendered inferred declarations ("extern ... f(...);") alike.
std::map<std::string, Signature> signatures(const std::string &Text) {
  std::map<std::string, Signature> Out;
  size_t Start = 0;
  while (Start < Text.size()) {
    size_t End = Text.find('\n', Start);
    if (End == std::string::npos)
      End = Text.size();
    const std::string Line = Text.substr(Start, End - Start);
    Start = End + 1;
    const size_t Open = Line.find('(');
    const size_t Close = Line.rfind(')');
    if (Line.empty() || Line[0] == ' ' || Line[0] == '#' ||
        Open == std::string::npos || Close == std::string::npos ||
        Close < Open)
      continue;
    size_t NameStart = Open;
    while (NameStart > 0 && (std::isalnum(static_cast<unsigned char>(
                                 Line[NameStart - 1])) ||
                             Line[NameStart - 1] == '_'))
      --NameStart;
    Signature Sig{annotationWords(Line.substr(0, NameStart))};
    const std::string Params = Line.substr(Open + 1, Close - Open - 1);
    size_t From = 0;
    for (;;) {
      const size_t Comma = Params.find(',', From);
      Sig.push_back(annotationWords(Params.substr(From, Comma - From)));
      if (Comma == std::string::npos)
        break;
      From = Comma + 1;
    }
    Out[Line.substr(NameStart, Open - NameStart)] = std::move(Sig);
  }
  return Out;
}

/// Every hand-written word must be inferred; the only extra words allowed
/// are the implicit defaults.
std::string compareSignatures(const std::map<std::string, Signature> &Hand,
                              const std::string &InferredHeader) {
  static const std::set<std::string> Defaults = {"temp", "notnull"};
  const std::map<std::string, Signature> Inferred = signatures(InferredHeader);
  for (const auto &[Name, Want] : Hand) {
    auto It = Inferred.find(Name);
    if (It == Inferred.end())
      return "no inferred declaration for " + Name;
    const Signature &Got = It->second;
    if (Got.size() != Want.size())
      return "inferred declaration of " + Name + " has the wrong arity";
    for (size_t I = 0; I < Want.size(); ++I) {
      for (const std::string &W : Want[I])
        if (!Got[I].count(W))
          return "inference missed '" + W + "' on " + Name;
      for (const std::string &W : Got[I])
        if (!Want[I].count(W) && !Defaults.count(W))
          return "inference added '" + W + "' on " + Name;
    }
  }
  return "";
}

} // namespace

Inputs ledger::makeInputs(const Workload &W, const Config &C) {
  corpus::GenOptions G;
  G.Modules = C.Smoke ? W.SmokeModules : W.Modules;
  G.FunctionsPerModule = 25;
  G.Seed = C.Seed;
  G.SharedHeaders = C.Smoke ? std::min(W.SharedHeaders, 4u) : W.SharedHeaders;
  G.UnannotatedModules = W.Unannotated;

  Inputs In;
  In.Program = corpus::syntheticProgram(G);
  In.Lines = corpus::totalLines(In.Program);

  // The fingerprint hashes each file on its own, then the list of names and
  // hashes, so no second copy of the corpus is held.
  std::vector<std::string> Parts;
  auto addFile = [&Parts](const std::string &Name, const std::string &Text) {
    Parts.push_back(Name);
    Parts.push_back(fnv1aHex({Text}));
  };
  for (const std::string &Name : In.Program.Files.names())
    addFile(Name, *In.Program.Files.read(Name));
  for (const std::string &Main : In.Program.MainFiles) {
    const std::string Text = *In.Program.Files.read(Main);
    // An unannotated allocator returns fresh, possibly-null storage as an
    // unqualified result, and an unannotated consumer frees an implicitly
    // temp parameter: two findings per function of either shape. Bodies
    // checked against annotations (hand-written or inferred) are clean.
    const bool Findings = W.Unannotated && !W.Infer;
    In.Expected.push_back(
        Findings ? 2 * countOf(Text, "= (node *) malloc(") +
                       2 * countOf(Text, "free((void *) n);")
                 : 0);
  }

  if (W.Infer) {
    G.UnannotatedModules = false;
    corpus::Program Hand = corpus::syntheticProgram(G);
    for (const std::string &Main : Hand.MainFiles) {
      const std::string Text = *Hand.Files.read(Main);
      In.Reference.push_back(signatures(Text));
      addFile("reference:" + Main, Text);
    }
  }
  In.Fingerprint = fnv1aHex(Parts);
  return In;
}

BatchOptions ledger::batchOptions(const Workload &W, const Config &C) {
  BatchOptions O;
  O.Jobs = C.Jobs;
  O.Check.Infer = W.Infer;
  return O;
}

std::string ledger::checkOutcome(const Workload &W, const Inputs &In,
                                 size_t Index, const FileOutcome &O) {
  const std::string &Name = In.Program.MainFiles[Index];
  if (O.File != Name)
    return "outcome " + std::to_string(Index) + " is " + O.File +
           ", expected " + Name;
  if (O.Kind != FileOutcomeKind::Ok)
    return Name + ": status " + fileOutcomeName(O.Kind);
  if (O.Anomalies != In.Expected[Index])
    return Name + ": " + std::to_string(O.Anomalies) + " findings, expected " +
           std::to_string(In.Expected[Index]);
  if (O.Diagnostics.empty() != (In.Expected[Index] == 0))
    return Name + ": rendered output disagrees with the finding count";
  if (W.Infer) {
    std::string Why = compareSignatures(In.Reference[Index], O.Inferred);
    if (!Why.empty())
      return Name + ": " + Why;
  }
  return "";
}

std::string ledger::checkJournal(const Inputs &In, const std::string &Path) {
  std::optional<std::string> Text = readFileText(Path);
  if (!Text)
    return "cannot read journal " + Path;
  std::map<std::string, unsigned> Entries;
  size_t Start = 0;
  bool Header = true;
  while (Start < Text->size()) {
    size_t End = Text->find('\n', Start);
    if (End == std::string::npos)
      End = Text->size();
    const std::string Line = Text->substr(Start, End - Start);
    Start = End + 1;
    if (Header) {
      if (Line.rfind("{\"memlint_journal\"", 0) != 0)
        return "journal has no header line";
      Header = false;
      continue;
    }
    const std::string Key = "{\"file\":\"";
    if (Line.rfind(Key, 0) != 0)
      return "journal line is not an entry: " + Line.substr(0, 40);
    ++Entries[Line.substr(Key.size(), Line.find('"', Key.size()) - Key.size())];
  }
  if (Entries.size() != In.Program.MainFiles.size())
    return "journal names " + std::to_string(Entries.size()) + " files, expected " +
           std::to_string(In.Program.MainFiles.size());
  for (const std::string &Main : In.Program.MainFiles) {
    auto It = Entries.find(Main);
    if (It == Entries.end() || It->second != 1)
      return "journal does not hold exactly one line for " + Main;
  }
  return "";
}

std::string ledger::describe(const Inputs &In) {
  unsigned Findings = 0;
  for (unsigned N : In.Expected)
    Findings += N;
  return "inputs: " + std::to_string(In.Program.MainFiles.size()) +
         " main files, " + std::to_string(In.Lines) + " lines, " +
         std::to_string(Findings) + " expected findings, fingerprint " +
         In.Fingerprint;
}

unsigned ledger::referenceWords(const Inputs &In) {
  unsigned Words = 0;
  for (const auto &Module : In.Reference)
    for (const auto &[Name, Sig] : Module)
      for (const auto &Position : Sig)
        Words += static_cast<unsigned>(Position.size());
  return Words;
}
