//===--- Traced.cpp - The ledger's per-layer attribution ------------------===//
//
// Part of memlint. See ledger/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run of each workload, kept apart from the timed runs:
///
/// 1. Staged replay. Every main file goes through the layers' public entry
///    points one call at a time (Lexer::lex over each buffer, then
///    Preprocessor::process, Parser::parse, Sema::check, AnnotationInfer
///    and FunctionChecker::checkAll), then through Checker::checkFiles and
///    CheckResult::render. Each call is one span. The standalone lex calls
///    are attributed as children of the preprocessor span, so pp.self_ms is
///    the pp span minus them, and checker.self_ms is the facade's time
///    minus every staged layer: suppression, dedup and result assembly.
/// 2. One real batch pass with the program's own counters and phase.*
///    timers, beside the staged numbers, plus the driver's busy ratio.
/// 3. The same corpus at -j1, byte-compared with the -jN output.
/// 4. The tracing overhead: one pass recording outer spans against the
///    median of untraced passes.
/// 5. service_edits only: handle() against the socket round trip, and the
///    result cache's attach, flush and hit counters.
///
/// Spans stay in memory and are written at the end as Chrome trace-event
/// JSON, loadable in Perfetto.
///
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "ServiceRig.h"

#include "analysis/AnnotationInfer.h"
#include "analysis/FunctionChecker.h"
#include "analysis/LibrarySpec.h"
#include "ast/AST.h"
#include "lex/Lexer.h"
#include "parse/Parser.h"
#include "pp/Preprocessor.h"
#include "sema/Sema.h"
#include "support/Journal.h"

#include <filesystem>
#include <thread>

using namespace memlint;
using namespace ledger;

namespace {

/// Summed span time of each staged layer over a workload's main files.
struct Layers {
  double Lex = 0, Pp = 0, Parse = 0, Sema = 0, Infer = 0, Check = 0;
  double Facade = 0, Render = 0;
  unsigned long long LexTokens = 0, ParseTokens = 0, RenderBytes = 0;

  /// Everything the staged calls cover inside the facade's time.
  double staged() const { return Pp + Parse + Sema + Infer + Check; }
};

/// Records one span per call into the in-memory trace.
class Spans {
public:
  explicit Spans(TraceRecorder &Rec) : Rec(Rec) {}
  /// Records the span that started at \p StartMs; \returns its length.
  double end(const char *Name, double StartMs, const std::string &File) {
    TraceEvent E;
    E.Cat = "ledger";
    E.Name = Name;
    E.TsMs = StartMs;
    E.DurMs = nowMs() - StartMs;
    E.Args.emplace_back("file", File);
    Rec.record(E);
    return E.DurMs;
  }

private:
  TraceRecorder &Rec;
};

/// Appends the files \p Name includes, depth first, each once.
void includesOf(const VFS &Files, const std::string &Name,
                std::vector<std::string> &Out, std::set<std::string> &Seen) {
  std::optional<std::string> Text = Files.read(Name);
  if (!Text)
    return;
  const std::string Directive = "#include \"";
  for (size_t At = Text->find(Directive); At != std::string::npos;
       At = Text->find(Directive, At + 1)) {
    const size_t From = At + Directive.size();
    const std::string Inc = Text->substr(From, Text->find('"', From) - From);
    if (Seen.insert(Inc).second) {
      Out.push_back(Inc);
      includesOf(Files, Inc, Out, Seen);
    }
  }
}

/// Replays main file \p Index through the staged entry points and the
/// facade, checking the facade's findings against the known answer.
void stageFile(const Workload &W, const Inputs &In, size_t Index,
               const CheckOptions &Opts, Spans &S, Layers &L, Report &R) {
  const VFS &Files = In.Program.Files;
  const std::string &Main = In.Program.MainFiles[Index];
  const double FileStart = nowMs();

  std::vector<std::string> Buffers{Main};
  std::set<std::string> Seen{Main};
  includesOf(Files, Main, Buffers, Seen);
  DiagnosticEngine Scratch;
  double Start = nowMs();
  L.LexTokens +=
      Lexer(libraryPreludeName(), libraryPreludeSource(), Scratch).lex().size();
  L.Lex += S.end("lex", Start, libraryPreludeName());
  for (const std::string &Name : Buffers) {
    const std::string Text = *Files.read(Name);
    Start = nowMs();
    L.LexTokens += Lexer(Name, Text, Scratch).lex().size();
    L.Lex += S.end("lex", Start, Name);
  }

  const ResourceBudget &Limits = Opts.Flags.limits();
  BudgetState Budget(Limits);
  DiagnosticEngine Diags;
  Diags.setFloodControl(Limits.MaxDiagsPerClass, Limits.MaxDiagsTotal);
  Preprocessor PP(Files, Diags, &Budget);
  std::vector<Token> Program;
  auto append = [&Program](std::vector<Token> Toks) {
    if (!Toks.empty() && Toks.back().isEof())
      Toks.pop_back();
    Program.insert(Program.end(), Toks.begin(), Toks.end());
  };
  Start = nowMs();
  append(PP.processSource(libraryPreludeName(), libraryPreludeSource()));
  append(PP.process(Main));
  Token Eof;
  Eof.Kind = TokenKind::Eof;
  if (!Program.empty())
    Eof.Loc = Program.back().Loc;
  Program.push_back(Eof);
  L.Pp += S.end("pp", Start, Main);
  L.ParseTokens += Program.size();

  ASTContext Ctx;
  Start = nowMs();
  Parser P(std::move(Program), Ctx, Diags, &Budget);
  TranslationUnit *TU = P.parse(Main);
  L.Parse += S.end("parse", Start, Main);

  Start = nowMs();
  Sema(Diags).check(*TU);
  L.Sema += S.end("sema", Start, Main);

  if (Opts.Infer) {
    Start = nowMs();
    AnnotationInfer Infer(*TU, Opts.Flags, &Budget);
    Infer.run();
    Infer.renderHeader();
    L.Infer += S.end("infer", Start, Main);
  }

  Start = nowMs();
  FunctionChecker FC(*TU, Opts.Flags, Diags, &Budget);
  FC.checkAll();
  L.Check += S.end("check", Start, Main);

  Start = nowMs();
  CheckResult Result = Checker::checkFiles(Files, {Main}, Opts);
  L.Facade += S.end("checkFiles", Start, Main);
  Start = nowMs();
  const std::string Text = Result.render();
  L.Render += S.end("render", Start, Main);
  L.RenderBytes += Text.size();
  S.end("file", FileStart, Main);

  FileOutcome O;
  O.File = Main;
  O.Kind = Result.Status == CheckStatus::Ok ? FileOutcomeKind::Ok
                                            : FileOutcomeKind::Degraded;
  O.Anomalies = Result.anomalyCount();
  O.Diagnostics = Text;
  O.Inferred = Result.InferredHeader;
  R.check(checkOutcome(W, In, Index, O));
}

unsigned long long counter(const MetricsSnapshot &M, const char *Name) {
  auto It = M.Counters.find(Name);
  return It == M.Counters.end() ? 0 : It->second;
}

double timer(const MetricsSnapshot &M, const char *Name) {
  auto It = M.TimersMs.find(Name);
  return It == M.TimersMs.end() ? 0 : It->second;
}

double ratio(double Part, double Whole) { return Whole > 0 ? Part / Whole : 0; }

/// Everything a batch writes: rendered findings plus inferred headers.
std::string outputOf(const BatchResult &B) {
  std::string Out = B.render();
  for (const FileOutcome &O : B.Outcomes)
    Out += O.Inferred;
  return Out;
}

/// The driver's fixed cost per one-file run (watchdog, pool, outcome
/// assembly): BatchResult::WallMs minus the file's FileOutcome::WallMs,
/// both from the same BatchDriver::run; the median over a spread of files.
void addDriverFixed(const Workload &W, const Config &C, const Inputs &In,
                    Report &R) {
  BatchOptions One = batchOptions(W, C);
  One.Jobs = 1;
  const size_t Files = In.Program.MainFiles.size();
  const size_t Sampled = std::min<size_t>(Files, 32);
  std::vector<double> Fixed;
  for (size_t S = 0; S < Sampled; ++S) {
    const BatchResult B = BatchDriver(One).run(
        In.Program.Files, {In.Program.MainFiles[S * Files / Sampled]});
    if (!B.Outcomes.empty())
      Fixed.push_back(B.WallMs - B.Outcomes.front().WallMs);
  }
  R.add("driver.fixed_ms", "ms", median(Fixed), Fixed.size());
}

/// The service layer's own numbers: handle() against the socket round
/// trip, and the result cache's attach, flush and hit counters.
void traceService(const Inputs &In, Report &R) {
  const size_t Modules = In.Program.MainFiles.size();
  ServiceRig Rig(In, true);
  R.check(Rig.writeCorpus());
  R.check(Rig.start());
  std::vector<std::string> LastCold(Modules);
  std::vector<double> Warm[2];
  Report Checks[2];
  onTwoClients(Modules, [&](unsigned Client, const std::vector<size_t> &Own) {
    for (size_t I : Own) {
      ServiceRig::Answer A = Rig.request(I);
      Checks[Client].check(checkAnswer(A, false, "", In.Expected[I]));
      LastCold[I] = A.Reply.Diagnostics;
    }
    for (unsigned Sweep = 0; Sweep < 3; ++Sweep)
      for (size_t I : Own) {
        ServiceRig::Answer A = Rig.request(I);
        Checks[Client].check(checkAnswer(A, true, LastCold[I], 0));
        Warm[Client].push_back(A.Ms);
      }
  });
  for (const Report &Client : Checks)
    R.merge(Client);
  std::vector<double> WarmMs = Warm[0];
  WarmMs.insert(WarmMs.end(), Warm[1].begin(), Warm[1].end());

  auto handle = [&Rig, &In](size_t I) {
    ServiceRequest Q;
    Q.Kind = ServiceRequestKind::Check;
    Q.File = In.Program.MainFiles[I];
    const double Start = nowMs();
    ServiceReply Reply = Rig.service().handle(Q);
    return std::make_pair(Reply, nowMs() - Start);
  };
  std::vector<double> HandleWarmUs, HandleColdMs;
  for (size_t I = 0; I < Modules; ++I) {
    auto [Reply, Ms] = handle(I);
    R.check(Reply.CacheHit && Reply.Diagnostics == LastCold[I]
                ? ""
                : "direct warm handle() missed or differed");
    HandleWarmUs.push_back(Ms * 1000.0);
  }
  const size_t Sampled = std::min<size_t>(Modules, 32);
  for (size_t S = 0; S < Sampled; ++S) {
    const size_t I = S * Modules / Sampled;
    R.check(Rig.edit(I));
    auto [Reply, Ms] = handle(I);
    R.check(!Reply.CacheHit && Reply.Anomalies == In.Expected[I]
                ? ""
                : "direct cold handle() after an edit was wrong");
    HandleColdMs.push_back(Ms);
  }
  const MetricsSnapshot Snap = Rig.service().metrics();
  const double Hits = static_cast<double>(counter(Snap, "cache.hits"));
  const double Misses = static_cast<double>(counter(Snap, "cache.misses"));

  double Start = nowMs();
  Rig.stop();
  const double FlushMs = nowMs() - Start;
  std::error_code Ec;
  const auto CacheBytes = std::filesystem::file_size(Rig.CachePath, Ec);
  Start = nowMs();
  R.check(Rig.start());
  const double AttachMs = nowMs() - Start;
  R.check(Rig.service().cacheLoadedClean() ? "" : "cache did not reattach");
  Rig.stop();

  const double HandleWarm = median(HandleWarmUs);
  R.add("service.handle_warm_us", "us", HandleWarm, HandleWarmUs.size());
  R.add("service.handle_cold_ms", "ms", median(HandleColdMs),
        HandleColdMs.size());
  R.add("service.wire_us", "us", median(WarmMs) * 1000.0 - HandleWarm,
        WarmMs.size());
  R.add("service.warm_p99_ms", "ms", quantile(WarmMs, 0.99), WarmMs.size());
  R.add("cache.hit_ratio", "ratio", ratio(Hits, Hits + Misses),
        static_cast<size_t>(Hits + Misses));
  R.add("cache.stale_dropped", "count",
        static_cast<double>(counter(Snap, "cache.stale_dropped")), 1);
  R.add("cache.attach_ms", "ms", AttachMs, 1);
  R.add("cache.flush_ms", "ms", FlushMs, 1);
  R.add("cache.bytes", "bytes", Ec ? 0.0 : static_cast<double>(CacheBytes), 1);
}

} // namespace

void ledger::runTraced(const Workload &W, const Config &C, Report &R) {
  const Inputs In = makeInputs(W, C);
  R.Notes.push_back(describe(In));
  const std::vector<size_t> All = allFiles(In);
  const BatchOptions Base = batchOptions(W, C);

  // 1. Staged replay, one span per call. It runs on a fresh thread, as
  // batch workers do: the main thread's heap, which holds the generated
  // corpus, makes the same calls measurably slower.
  TraceRecorder Rec;
  Spans S(Rec);
  Layers L;
  std::thread([&] {
    for (size_t I : All) {
      try {
        stageFile(W, In, I, Base.Check, S, L, R);
      } catch (const std::exception &E) {
        R.check(In.Program.MainFiles[I] + ": staged replay threw: " +
                E.what());
      }
    }
  }).join();

  // 2. One real batch pass with the program's counters and timers.
  BatchOptions Metered = Base;
  Metered.CollectMetrics = true;
  if (W.Journal)
    Metered.JournalPath = "run.jsonl";
  std::string Rendered;
  const PassResult Pass = batchPass(W, In, All, Metered, R, Rendered);
  if (W.Journal)
    R.check(checkJournal(In, Metered.JournalPath));
  const MetricsSnapshot &M = Pass.Batch.Metrics;
  std::vector<double> FileMs;
  double BusyMs = 0;
  for (const FileOutcome &O : Pass.Batch.Outcomes) {
    FileMs.push_back(O.WallMs);
    BusyMs += O.WallMs;
  }

  // 3. -j1 against -jN, byte for byte.
  BatchOptions Serial = Base;
  Serial.Jobs = 1;
  std::string SerialRendered;
  const PassResult One = batchPass(W, In, All, Serial, R, SerialRendered);
  R.check(outputOf(One.Batch) == outputOf(Pass.Batch)
              ? ""
              : "-j1 output differs from -j" + std::to_string(C.Jobs));

  // 4. Tracing overhead: passes recording outer spans only, alternating
  // with untraced passes.
  std::vector<double> Untraced, Traced;
  for (unsigned I = 0; I < 3; ++I) {
    Untraced.push_back(batchPass(W, In, All, Base, R, Rendered).Ms);
    Traced.push_back(batchPass(W, In, All, Base, R, Rendered, &Rec).Ms);
  }

  const double Files = static_cast<double>(All.size());
  const double Functions = static_cast<double>(counter(M, "check.functions"));
  R.add("lex.tokens_per_s", "tokens/s", L.LexTokens / (L.Lex / 1000.0),
        All.size());
  R.add("lex.tokens", "count", static_cast<double>(L.LexTokens), All.size());
  R.add("lex.intern.hit_ratio", "ratio",
        ratio(counter(M, "lex.intern.hit"),
              counter(M, "lex.intern.hit") + counter(M, "lex.intern.miss")),
        All.size());
  R.add("pp.self_ms", "ms", L.Pp - L.Lex, All.size());
  R.add("pp.tokens", "count", static_cast<double>(counter(M, "pp.tokens")),
        All.size());
  R.add("pp.include_cache.hit_ratio", "ratio",
        ratio(counter(M, "pp.include_cache.hit"),
              counter(M, "pp.include_cache.hit") +
                  counter(M, "pp.include_cache.miss")),
        All.size());
  R.add("parse.self_ms", "ms", L.Parse, All.size());
  R.add("parse.tokens_per_s", "tokens/s", L.ParseTokens / (L.Parse / 1000.0),
        All.size());
  R.add("sema.self_ms", "ms", L.Sema, All.size());
  R.add("analysis.check.self_ms", "ms", L.Check, All.size());
  R.add("analysis.check.us_per_function", "us",
        ratio(L.Check * 1000.0, Functions), static_cast<size_t>(Functions));
  R.add("check.functions", "count", Functions, All.size());
  R.add("check.stmts", "count", static_cast<double>(counter(M, "check.stmts")),
        All.size());
  R.add("check.splits", "count",
        static_cast<double>(counter(M, "check.splits")), All.size());
  if (W.Infer) {
    const double Inferred = static_cast<double>(counter(M, "infer.functions"));
    const double Accepted =
        static_cast<double>(counter(M, "infer.annotations"));
    R.add("analysis.infer.self_ms", "ms", L.Infer, All.size());
    R.add("analysis.infer.us_per_function", "us",
          ratio(L.Infer * 1000.0, Inferred), static_cast<size_t>(Inferred));
    R.add("infer.iterations", "count",
          static_cast<double>(counter(M, "infer.iterations")), All.size());
    R.add("infer.accept_ratio", "ratio",
          ratio(Accepted, Accepted + counter(M, "infer.rejected")),
          All.size());
    R.Notes.push_back("infer: " + std::to_string(referenceWords(In)) +
                      " hand-written annotation words to recover");
  }
  R.add("checker.self_ms", "ms", L.Facade - L.staged(), All.size());
  R.add("diags.stored", "count",
        static_cast<double>(counter(M, "diags.stored")), All.size());
  R.add("render.text_ms", "ms", L.Render, All.size());
  R.add("render.bytes", "bytes", static_cast<double>(L.RenderBytes),
        All.size());
  if (W.Journal) {
    std::error_code Ec;
    const auto Bytes = std::filesystem::file_size(Metered.JournalPath, Ec);
    R.add("journal.bytes", "bytes", Ec ? 0.0 : static_cast<double>(Bytes), 1);
  }
  R.add("driver.busy_ratio", "ratio", ratio(BusyMs, C.Jobs * Pass.Ms),
        All.size());
  R.add("driver.unattributed_ms", "ms", C.Jobs * Pass.Ms - BusyMs, 1);
  R.add("driver.file_p50_ms", "ms", quantile(FileMs, 0.5), FileMs.size());
  R.add("driver.file_p99_ms", "ms", quantile(FileMs, 0.99), FileMs.size());
  R.add("driver.retried", "count", Pass.Batch.RetriedCount, All.size());
  addDriverFixed(W, C, In, R);
  for (const char *Phase : {"lex", "pp", "parse", "sema", "infer", "check"}) {
    const std::string Name = std::string("phase.") + Phase;
    if (Phase != std::string("infer") || W.Infer)
      R.add(Name + "_ms", "ms", timer(M, Name.c_str()), All.size());
  }
  R.add("staged.coverage_ratio", "ratio", ratio(L.staged(), L.Facade),
        All.size());
  R.add("trace.overhead_ratio", "ratio",
        median(Traced) / median(Untraced) - 1.0, Traced.size());
  if (W.Service)
    traceService(In, R);

  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "closure: lex %.1f + pp %.1f + parse %.1f + sema %.1f + "
                "infer %.1f + check %.1f + checker.self %.1f = checkFiles "
                "%.1f ms over %.0f files",
                L.Lex, L.Pp - L.Lex, L.Parse, L.Sema, L.Infer, L.Check,
                L.Facade - L.staged(), L.Facade, Files);
  R.Notes.push_back(Line);

  if (!C.TraceDir.empty()) {
    const std::string Path = C.TraceDir + "/" + W.Name + "-seed" +
                             std::to_string(C.Seed) + ".trace.json";
    R.check(writeFileText(Path, renderChromeTrace(Rec.events()))
                ? ""
                : "cannot write " + Path);
    R.Notes.push_back("spans: " + Path);
  }
}
