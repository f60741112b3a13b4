//===--- ServiceRig.cpp - A check service over files and a socket ---------===//
//
// Part of memlint. See ledger/README.md.
//
//===----------------------------------------------------------------------===//

#include "ServiceRig.h"

#include "support/Journal.h"

#include <cstring>
#include <filesystem>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace memlint;
using namespace ledger;

namespace {

/// Connects to \p Path and hangs up at once. An accept loop blocked in its
/// poll tick returns immediately and sees the stop flag; one that already
/// left leaves the connection unanswered in the backlog, which is harmless.
void knock(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return;
  ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  ::close(Fd);
}

} // namespace

std::string ServiceRig::writeCorpus() {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  for (const std::string &Name : In.Program.Files.names())
    if (!writeFileText(Dir + "/" + Name, *In.Program.Files.read(Name)))
      return "cannot write " + Dir + "/" + Name;
  std::fill(Edits.begin(), Edits.end(), 0);
  dropCache();
  return "";
}

void ServiceRig::dropCache() {
  std::error_code Ec;
  std::filesystem::remove(CachePath, Ec);
}

std::string ServiceRig::start() {
  ServiceOptions O;
  O.CachePath = CachePath;
  O.CollectMetrics = Collect;
  O.FileSource = [Dir = Dir](const std::string &Name) {
    return readFileText(Dir + "/" + Name);
  };
  Service = std::make_unique<CheckService>(std::move(O));
  std::string Error;
  if (!Socket.listenOn(SocketPath, Error))
    return Error;
  Stop = false;
  Server = std::thread([this] { Socket.serve(*Service, Stop); });
  return "";
}

void ServiceRig::stop() {
  if (Server.joinable()) {
    Stop = true;
    // The accept loop polls with a 100 ms tick; waking it keeps a restart
    // from waiting out the tick.
    knock(SocketPath);
    Server.join();
  }
  if (Service) {
    Service->stop();
    Service.reset();
  }
  Socket.close();
}

std::string ServiceRig::edit(size_t I) {
  const std::string &Name = In.Program.MainFiles[I];
  const std::string Stem = Name.substr(0, Name.rfind('.'));
  const std::string Text = *In.Program.Files.read(Name) + "\nint " + Stem +
                           "_edit" + std::to_string(++Edits[I]) +
                           "(int x)\n{\n  return x;\n}\n";
  return writeFileText(Dir + "/" + Name, Text) ? "" : "cannot edit " + Name;
}

ServiceRig::Answer ServiceRig::request(size_t I) const {
  ServiceRequest Q;
  Q.Kind = ServiceRequestKind::Check;
  Q.File = In.Program.MainFiles[I];
  Answer A;
  const double Start = nowMs();
  std::optional<std::string> Line =
      serviceRoundTrip(SocketPath, serviceRequestLine(Q), A.Error);
  A.Ms = nowMs() - Start;
  if (!Line)
    return A;
  if (!parseServiceReplyLine(*Line, A.Reply)) {
    A.Error = "unparsable reply";
    return A;
  }
  A.Ok = true;
  return A;
}

std::string ledger::checkAnswer(const ServiceRig::Answer &A, bool WantHit,
                                const std::string &LastCold,
                                unsigned Expected) {
  if (!A.Ok)
    return "request failed: " + A.Error;
  if (A.Reply.Status != "ok")
    return "reply status " + A.Reply.Status + ": " + A.Reply.Note;
  if (A.Reply.CacheHit != WantHit)
    return WantHit ? "expected a cache hit" : "expected a cache miss";
  if (WantHit && A.Reply.Diagnostics != LastCold)
    return "warm answer differs from the last cold answer";
  if (!WantHit && A.Reply.Anomalies != Expected)
    return std::to_string(A.Reply.Anomalies) + " findings, expected " +
           std::to_string(Expected);
  return "";
}
