// Sharded, thread-safe index serving.
//
// Merged posting lists are independent by construction — a fetch, insert or
// delete touches exactly one list, and the paper's per-list privacy argument
// (Definition 2, Section 5.2) is oblivious to which physical server stores
// the list. They therefore shard naturally: ShardedIndexService partitions
// the global list space across N internally thread-safe IndexServer shards
// and serves the ZerberService protocol over them, so any number of client
// threads can insert/fetch/delete concurrently.
//
// Routing is deterministic and stateless:
//   * list  -> shard: global list L lives on shard L % N as local list L / N
//     (round-robin keeps BFM's frequency-adjacent lists on different shards,
//     spreading hot lists).
//   * handle -> shard: shard s assigns handles from the residue class
//     {h : h % N == s} (zerber::HandleSpace), so handles are unique across
//     shards and a Delete routes by its list id with the handle's residue as
//     a free consistency check — no broadcast, no shared handle counter.
//
// A backend call never hops threads: MultiFetch serves its ranges in request
// order on the calling thread, each from its owning shard. Concurrency comes
// from concurrent callers, not from splitting one request — a shard fetch
// is a few microseconds of list scanning, far less than a thread hand-off.

#ifndef ZERBERR_ZERBER_SHARDED_INDEX_H_
#define ZERBERR_ZERBER_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/service.h"
#include "util/status.h"
#include "util/statusor.h"
#include "zerber/routing.h"
#include "zerber/zerber_index.h"

namespace zr::zerber {

/// A ZerberService backend serving one logical index from N IndexServer
/// shards. Request path (Insert/Fetch/MultiFetch/Delete) is thread-safe;
/// the operator surface (AddGroup/GrantMembership/..., GetList, shard())
/// follows IndexServer's quiescence contract.
class ShardedIndexService : public net::ZerberService {
 public:
  struct Options {
    /// Number of IndexServer shards the global list space is split across.
    size_t num_shards = 1;

    /// Element placement discipline of every shard's lists.
    Placement placement = Placement::kTrsSorted;

    /// Seed for random placement (each shard derives its own stream).
    uint64_t seed = 1;
  };

  /// Creates N shards jointly serving `num_lists` global merged lists.
  /// num_shards is clamped to at least 1.
  ShardedIndexService(size_t num_lists, const Options& options);

  ShardedIndexService(const ShardedIndexService&) = delete;
  ShardedIndexService& operator=(const ShardedIndexService&) = delete;

  // ZerberService request path (global list ids; handles are globally
  // unique). Thread-safe.
  StatusOr<net::InsertResponse> Insert(const net::InsertRequest& request)
      override;
  StatusOr<net::QueryResponse> Fetch(const net::QueryRequest& request)
      override;
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override;
  StatusOr<net::DeleteResponse> Delete(const net::DeleteRequest& request)
      override;

  /// Routing (deterministic, stateless; shared with cluster::RouterService
  /// via zerber/routing.h).
  size_t num_shards() const { return shards_.size(); }
  size_t ShardOfList(MergedListId list) const {
    return zerber::ShardOfList(list, shards_.size());
  }
  size_t ShardOfHandle(uint64_t handle) const {
    return zerber::ShardOfHandle(handle, shards_.size());
  }
  MergedListId LocalListId(MergedListId list) const {
    return zerber::LocalListId(list, shards_.size());
  }

  /// Number of global merged lists.
  size_t NumLists() const { return num_lists_; }

  /// Direct shard access (tests / persistence-per-shard). Quiescence rules
  /// of IndexServer apply for anything beyond the request path.
  IndexServer& shard(size_t s) { return *shards_[s]; }
  const IndexServer& shard(size_t s) const { return *shards_[s]; }

  /// Operator API: ACL changes broadcast to every shard (each shard
  /// enforces access locally, so all must agree). Requires quiescence.
  Status AddGroup(crypto::GroupId group);
  Status GrantMembership(UserId user, crypto::GroupId group);
  Status RevokeMembership(UserId user, crypto::GroupId group);

  /// Aggregates over all shards. Thread-safe (per-counter snapshots).
  /// Single-exchange requests always reach (and are counted by) their
  /// owning shard, even when rejected, so totals match the single-server
  /// backend; the one exception is a MultiFetch batch naming an invalid
  /// list, which fails atomically before any shard does work.
  uint64_t TotalElements() const;
  uint64_t TotalWireSize() const;
  ServerStats stats() const;
  void ResetStats();

  /// Routed global-list view (quiescence rules of IndexServer::GetList).
  StatusOr<const MergedList*> GetList(MergedListId list) const;

 private:
  Status CheckList(MergedListId list) const;

  size_t num_lists_;
  std::vector<std::unique_ptr<IndexServer>> shards_;
};

}  // namespace zr::zerber

#endif  // ZERBERR_ZERBER_SHARDED_INDEX_H_
