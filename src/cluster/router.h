// RouterService: one logical Zerber index served over N remote shard
// processes.
//
// The cluster-topology sibling of zerber::ShardedIndexService: the same
// deterministic routing math (zerber/routing.h — list % N owns the list,
// handle residue classes keep handles globally unique, per-shard seeds are
// SplitMix64-derived), but each shard is an independent shard-server
// process (tools/shard_server.cc: store::DurableIndexService behind a
// net::TcpServer) reached through a fault-tolerant ShardClient. This is the
// paper's deployment model made literal — the confidential index lives on
// untrusted, distributed servers, and the router holds no index state at
// all: every byte of posting data, every ACL bit, lives behind the wire.
//
// Request path:
//  * Insert/Fetch/Delete — translate the global list id to the owning
//    shard's local id and forward; responses come back unchanged (handles
//    are already global by residue construction).
//  * MultiFetch — validate every range upfront (atomic failure, identical
//    to ShardedIndexService), group ranges by owning shard into one
//    sub-MultiFetch per shard, scatter-gather: send every shard's batch,
//    then receive the responses in shard order, so the shards serve at
//    the same time and the call waits about as long as its slowest shard.
//    Responses are reassembled in request order. A batch whose send or
//    receive failed finishes through ShardClient's retry loop; a dead
//    shard fails fast with Status::Unavailable (circuit breaker) instead
//    of stalling the healthy shards' results.
//
// Failure semantics are ShardClient's: bounded retries with backoff for
// idempotent ops, fail-fast Unavailable while a shard's breaker is open,
// and automatic rejoin after a health probe verifies a restarted shard.
//
// Threading: the request path is thread-safe because ShardClient is, and a
// backend call never hops threads — every shard hop of a request, both
// halves of a scatter-gather included, runs on the thread that made it,
// like ShardedIndexService; the overlap comes from having several
// requests in flight on that thread, not from more threads. The operator
// surface (ACL broadcast) requires the same quiescence as every other
// backend.

#ifndef ZERBERR_CLUSTER_ROUTER_H_
#define ZERBERR_CLUSTER_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_client.h"
#include "net/service.h"
#include "obs/registry.h"
#include "util/status.h"
#include "util/statusor.h"
#include "zerber/routing.h"
#include "zerber/zerber_index.h"

namespace zr::cluster {

/// Router-level aggregate of every shard's ShardClientStats.
struct RouterStats {
  uint64_t attempts = 0;
  uint64_t transport_errors = 0;
  uint64_t retries = 0;
  uint64_t unavailable = 0;
  uint64_t probes = 0;
  uint64_t probe_failures = 0;
  uint64_t breaker_opens = 0;
  uint64_t rejoins = 0;
};

class RouterService : public net::ZerberService {
 public:
  struct Options {
    /// "host:port" of shard s at index s. Order is identity: shard s must
    /// be the server holding lists {L : L % N == s} (it echoes s as its
    /// server id, verified on every health probe).
    std::vector<std::string> shard_addrs;

    /// Fault-handling template applied to every shard's client; `addr` and
    /// `expected_server_id` are filled in per shard. The retry/breaker
    /// jitter seeds are decorrelated per shard (MixSeed of the template
    /// seed + shard index) so shards never retry in lockstep.
    ShardClientOptions client;
  };

  /// Routes `num_lists` global merged lists over options.shard_addrs.
  RouterService(size_t num_lists, const Options& options);

  RouterService(const RouterService&) = delete;
  RouterService& operator=(const RouterService&) = delete;

  // ZerberService request path (global coordinates). Thread-safe.
  StatusOr<net::InsertResponse> Insert(const net::InsertRequest& request)
      override;
  StatusOr<net::QueryResponse> Fetch(const net::QueryRequest& request)
      override;
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override;
  StatusOr<net::DeleteResponse> Delete(const net::DeleteRequest& request)
      override;

  /// Routing (deterministic; zerber/routing.h).
  size_t num_shards() const { return shards_.size(); }
  size_t ShardOfList(zerber::MergedListId list) const {
    return zerber::ShardOfList(list, shards_.size());
  }
  size_t ShardOfHandle(uint64_t handle) const {
    return zerber::ShardOfHandle(handle, shards_.size());
  }
  zerber::MergedListId LocalListId(zerber::MergedListId list) const {
    return zerber::LocalListId(list, shards_.size());
  }
  size_t NumLists() const { return num_lists_; }

  /// Operator API: ACL changes broadcast to every shard. The shard server
  /// applies them idempotently, so a retried broadcast converges.
  Status AddGroup(crypto::GroupId group);
  Status GrantMembership(zerber::UserId user, crypto::GroupId group);
  Status RevokeMembership(zerber::UserId user, crypto::GroupId group);

  /// Sums ServerStats over every reachable shard (a shard that cannot be
  /// scraped contributes zeros — stats are observability, not control
  /// flow). With all shards healthy the totals are exactly
  /// ShardedIndexService::stats() of the equivalent in-process backend.
  zerber::ServerStats stats();

  /// Aggregated fault-handling counters across all shard clients.
  RouterStats router_stats() const;

  /// Per-shard fault-handling counters (index = shard).
  std::vector<ShardClientStats> shard_stats() const;

  /// Direct client access (tests, targeted probes).
  ShardClient& shard_client(size_t s) { return *shards_[s]; }

  /// Probes shard `s` until it answers or `timeout_ms` elapses. Used after
  /// (re)starting a shard process: success means the shard recovered its
  /// WAL and the router re-admitted it (breaker closed).
  Status WaitForShard(size_t s, uint64_t timeout_ms);

  /// WaitForShard over every shard.
  Status WaitForAll(uint64_t timeout_ms);

 private:
  Status CheckList(zerber::MergedListId list) const;

  size_t num_lists_;
  std::vector<std::unique_ptr<ShardClient>> shards_;

  /// Publishes RouterStats and per-shard ShardClientStats through the
  /// process metrics registry. LAST member: unregistered before anything
  /// else is torn down, and RemoveCollector blocks out in-flight scrapes.
  obs::CollectorHandle metrics_collector_;
};

}  // namespace zr::cluster

#endif  // ZERBERR_CLUSTER_ROUTER_H_
