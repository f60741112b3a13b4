//===--- ServiceRig.h - A check service over files and a socket -*- C++ -*-===//
//
// Part of memlint. See ledger/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service_edits fixture: a workload's corpus written to disk, a
/// CheckService reading it with a persisted result cache, and the Unix
/// socket accept loop on its own thread. Clients reach it only through
/// serviceRoundTrip, the way the CLI client does. All paths are relative
/// to the working directory, so the socket path stays short.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLINT_LEDGER_SERVICERIG_H
#define MEMLINT_LEDGER_SERVICERIG_H

#include "Ledger.h"

#include "service/CheckService.h"
#include "service/ServiceSocket.h"

#include <atomic>
#include <memory>
#include <thread>

namespace ledger {

class ServiceRig {
public:
  ServiceRig(const Inputs &In, bool CollectMetrics)
      : In(In), Collect(CollectMetrics), Edits(In.Program.MainFiles.size()) {}
  ~ServiceRig() { stop(); }
  ServiceRig(const ServiceRig &) = delete;
  ServiceRig &operator=(const ServiceRig &) = delete;

  /// Writes every corpus file under the rig's directory and removes the
  /// cache file, so the next start() is cold. \returns an error or "".
  std::string writeCorpus();
  /// Removes the cache file.
  void dropCache();
  /// Starts a service on the cache file (attaching what it holds), binds
  /// the socket and starts the accept loop. \returns an error or "".
  std::string start();
  /// Graceful stop: ends the accept loop, drains the queue, flushes the
  /// cache file. Idempotent.
  void stop();

  /// Rewrites main file \p I with a fresh function appended (replacing the
  /// previous edit), so its next check misses the cache. Only the client
  /// that owns module \p I may call this.
  std::string edit(size_t I);

  struct Answer {
    bool Ok = false;
    memlint::ServiceReply Reply;
    double Ms = 0; ///< socket round trip
    std::string Error;
  };
  /// One check request for main file \p I through the socket.
  Answer request(size_t I) const;

  memlint::CheckService &service() { return *Service; }
  const std::string CachePath = "cache.jsonl";

private:
  const std::string Dir = "svc";
  const std::string SocketPath = "svc.sock";
  const Inputs &In;
  bool Collect;
  std::vector<unsigned> Edits; ///< per module; each owned by one client
  std::unique_ptr<memlint::CheckService> Service;
  memlint::ServiceSocket Socket;
  std::atomic<bool> Stop{false};
  std::thread Server;
};

/// Runs \p Body(Client, Modules) on two client threads; client C owns the
/// main files with index = C (mod 2), so no module is edited by two
/// threads.
template <typename Fn> void onTwoClients(size_t Modules, Fn Body) {
  std::vector<std::thread> Clients;
  for (unsigned Client = 0; Client < 2; ++Client)
    Clients.emplace_back([&Body, Modules, Client] {
      std::vector<size_t> Own;
      for (size_t I = Client; I < Modules; I += 2)
        Own.push_back(I);
      Body(Client, Own);
    });
  for (std::thread &T : Clients)
    T.join();
}

/// Known-answer check of one service reply: status ok (never shed), the
/// expected cache outcome, a warm answer byte-identical to the last cold
/// answer for the module's content, and a cold answer with the expected
/// finding count. \returns "" when correct.
std::string checkAnswer(const ServiceRig::Answer &A, bool WantHit,
                        const std::string &LastCold, unsigned Expected);

} // namespace ledger

#endif // MEMLINT_LEDGER_SERVICERIG_H
