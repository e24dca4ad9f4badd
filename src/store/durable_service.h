// Durable storage engine: WAL + snapshot rotation + crash recovery,
// packaged as a ZerberService decorator.
//
// DurableIndexService wraps an index backend — the single IndexServer or a
// ShardedIndexService — behind the same typed ZerberService API clients
// already speak, so durability is a deployment choice, not a client-visible
// one. Per *partition* (the single server, or each shard) it maintains an
// epoch-numbered snapshot/WAL pair on disk:
//
//   <data_dir>/shard-0000/snapshot-000007.idx   state as of epoch 7
//   <data_dir>/shard-0000/wal-000007.log        mutations since epoch 7
//
// Write path: apply the mutation to the backend, append the acked result
// (element + server handle) to the owning partition's WAL, then ack the
// client. With group commit (store/wal.h) concurrent writers amortize one
// fsync per batch. Reads (Fetch/MultiFetch) pass straight through.
//
// Rotation: when a partition's WAL exceeds `snapshot_threshold_bytes`, a
// background thread snapshots that partition (atomic + fsynced, see
// store/fs.h), starts WAL epoch e+1, and retires everything older than
// generation e. Generation e — snapshot AND log — is kept: wal-e is
// exactly the delta from snapshot-e to snapshot-(e+1), so if
// snapshot-(e+1) ever fails to validate (bit rot), recovery falls back to
// snapshot-e and replays the wal-e, wal-(e+1) chain losslessly. Writers to
// that partition are gated out during its rotation; other partitions and
// all reads continue.
//
// WAL failure semantics (fail-stop): a WAL IO error is sticky. The failed
// mutation is reported as an error (unacked); a failed insert is also
// scrubbed from the live index, and every later mutation of that partition
// fails fast. The partition refuses to snapshot from then on — otherwise
// an unacked mutation could become durable — so reads continue but the
// durable state stays exactly the acked prefix; restart/recover to resume
// writes.
//
// Recovery (Open): per partition, in parallel — load the newest snapshot
// that validates, replay its WAL tail stopping cleanly at the first torn
// or corrupt record, then rotate so serving starts from a fresh
// snapshot + empty log. The result is exactly the acknowledged prefix of
// mutations: nothing acked is lost (per the chosen sync mode), nothing
// unacked is resurrected.
//
// Crash-consistency argument for the rotation order (snapshot e+1 is
// published before anything is retired): at every instant the directory
// contains a snapshot epoch whose WAL — if present — holds exactly the
// mutations after it. Recovery replays the WAL chain starting at the
// snapshot it chose (wal-e bridges snapshot-e to snapshot-(e+1), so the
// chain composes), and stops at the first missing link or torn record —
// a crash between any two rotation steps is indistinguishable from a
// crash just before or just after the rotation.

#ifndef ZERBERR_STORE_DURABLE_SERVICE_H_
#define ZERBERR_STORE_DURABLE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/service.h"
#include "store/wal.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"
#include "zerber/sharded_index.h"
#include "zerber/zerber_index.h"

namespace zr::store {

/// Configuration of a durable deployment. The server shape (num_lists,
/// placement, shards) must match across restarts of the same data_dir —
/// recovery validates it against the snapshots it finds.
struct DurableOptions {
  /// Root directory of the store (one subdirectory per partition). Created
  /// if missing.
  std::string data_dir;

  /// When an acked mutation is durable (see store/wal.h).
  WalSyncMode sync_mode = WalSyncMode::kGroupCommit;

  /// WAL size that triggers a background snapshot rotation.
  uint64_t snapshot_threshold_bytes = 4ull << 20;

  /// Backend shape (mirrors PipelineOptions / ShardedIndexService::Options).
  /// `num_lists` is always the GLOBAL list count, also in cluster-shard
  /// scope (the shard derives its local count from it).
  size_t num_lists = 0;
  zerber::Placement placement = zerber::Placement::kTrsSorted;
  uint64_t seed = 1;
  size_t num_shards = 1;

  /// Cluster-shard scope (tools/shard_server.cc): when cluster_shards > 1
  /// this store is shard `cluster_shard` of a cluster_shards-wide cluster —
  /// a single partition whose IndexServer owns the local lists
  /// ListsOnShard(num_lists, N, s), draws its placement stream from
  /// ShardSeed(seed, s) and assigns handles from the residue class
  /// {h : h % N == s} (zerber/routing.h), so N such processes are
  /// byte-identical to one in-process ShardedIndexService with the same
  /// seed. Requests then use shard-local list ids (cluster::RouterService
  /// translates). Mutually exclusive with num_shards > 1.
  size_t cluster_shards = 1;
  size_t cluster_shard = 0;
};

/// A ZerberService that makes its backend durable. Construct via Open();
/// the request path (Insert/Fetch/MultiFetch/Delete) is thread-safe. The
/// ACL operator surface follows the backend's quiescence contract (no
/// requests in flight), as before.
class DurableIndexService : public net::ZerberService {
 public:
  /// Recovers (or initializes) the store at options.data_dir and starts
  /// serving. Partitions recover in parallel. Fails with Corruption only
  /// when no snapshot generation validates; a torn WAL tail is normal
  /// crash debris and recovers cleanly.
  static StatusOr<std::unique_ptr<DurableIndexService>> Open(
      const DurableOptions& options);

  /// Clean shutdown: stops rotation, flushes and closes every WAL.
  ~DurableIndexService() override;

  DurableIndexService(const DurableIndexService&) = delete;
  DurableIndexService& operator=(const DurableIndexService&) = delete;

  // ZerberService request path. Mutations ack only after their WAL append
  // is durable per the sync mode.
  StatusOr<net::InsertResponse> Insert(const net::InsertRequest& request)
      override;
  StatusOr<net::QueryResponse> Fetch(const net::QueryRequest& request)
      override;
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override;
  StatusOr<net::DeleteResponse> Delete(const net::DeleteRequest& request)
      override;

  /// Operator API: broadcast per partition (each shard enforces access
  /// locally) and logged to that partition's WAL, so per-partition recovery
  /// is self-contained. Idempotent per partition and therefore convergent:
  /// the broadcast is not atomic across shards, but re-issuing the call
  /// after a crash or IO error finishes the job without duplicating work.
  /// Requires quiescence (same contract as IndexServer).
  Status AddGroup(crypto::GroupId group);
  Status GrantMembership(zerber::UserId user, crypto::GroupId group);
  Status RevokeMembership(zerber::UserId user, crypto::GroupId group);

  /// Number of partitions (1, or num_shards).
  size_t num_partitions() const { return partitions_.size(); }

  /// The partition's IndexServer (quiescence rules apply beyond the
  /// request path).
  zerber::IndexServer& partition(size_t p) { return *partitions_[p]->server; }

  /// Current WAL size / snapshot epoch of a partition (tests, demos).
  uint64_t wal_bytes(size_t p) const;
  uint64_t epoch(size_t p) const;

  /// Synchronously snapshots partition `p` and starts a new WAL epoch.
  Status RotateNow(size_t p);

  /// fsyncs every partition's WAL (clean-shutdown helper for kNone mode).
  Status Flush();

  /// The wrapped backend; null accessor variants identify the shape.
  net::ZerberService* backend() { return backend_; }
  zerber::IndexServer* single() { return single_.get(); }
  zerber::ShardedIndexService* sharded() { return sharded_.get(); }

  /// Filename helpers (shared with tests and tooling).
  static std::string PartitionDir(const std::string& data_dir, size_t p);
  static std::string SnapshotPath(const std::string& dir, uint64_t epoch);
  static std::string WalPath(const std::string& dir, uint64_t epoch);

 private:
  struct Partition {
    std::string dir;
    /// Borrowed from the backend; set once in Open before any concurrency
    /// exists, immutable after (hence not gate-guarded).
    zerber::IndexServer* server = nullptr;

    /// Writers (Insert/Delete and the backend call they wrap) hold this
    /// shared; rotation holds it unique, so a snapshot serializes a
    /// write-quiesced partition while fetches keep flowing.
    SharedMutex gate;

    /// The WAL pointer itself is read under a shared gate (writers append
    /// through it) and swapped only under the unique gate (rotation) —
    /// exactly GUARDED_BY's read-shared / write-exclusive rule.
    std::unique_ptr<WalWriter> wal ZR_GUARDED_BY(gate);

    std::atomic<uint64_t> epoch{0};

    /// Set while a rotation for this partition sits in the queue.
    std::atomic<bool> rotation_pending{false};
  };

  explicit DurableIndexService(const DurableOptions& options);

  /// Maps a global list id to its partition / partition-local list id.
  size_t PartitionOfList(zerber::MergedListId list) const;
  uint32_t LocalList(zerber::MergedListId list) const;

  /// Recovery of one partition (called from Open, possibly on a thread).
  Status RecoverPartition(size_t p);

  /// The rotation body; expects the partition gate NOT held.
  Status RotatePartition(size_t p);

  /// Queues a background rotation of partition `p`. Touches only the
  /// pending flag and the queue (never the WAL pointer), so callers may
  /// invoke it after releasing the partition gate.
  void ScheduleRotation(size_t p);

  void RotatorLoop();

  DurableOptions options_;

  std::unique_ptr<zerber::IndexServer> single_;
  std::unique_ptr<net::IndexService> single_service_;
  std::unique_ptr<zerber::ShardedIndexService> sharded_;
  net::ZerberService* backend_ = nullptr;

  std::vector<std::unique_ptr<Partition>> partitions_;

  std::thread rotator_;
  Mutex rot_mu_;
  CondVar rot_cv_;
  std::deque<size_t> rot_queue_ ZR_GUARDED_BY(rot_mu_);
  bool stopping_ ZR_GUARDED_BY(rot_mu_) = false;
};

}  // namespace zr::store

#endif  // ZERBERR_STORE_DURABLE_SERVICE_H_
