#include "store/durable_service.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "obs/registry.h"
#include "obs/slow_op_log.h"
#include "obs/trace.h"
#include "store/fs.h"
#include "zerber/persistence.h"
#include "zerber/routing.h"

namespace zr::store {

namespace fs = std::filesystem;

namespace {

/// Appends `record` to `wal`, timing the append into the always-on
/// zr_wal_append_latency_ns registry histogram and — when the calling
/// thread carries an active trace — a kWalAppend span whose detail is the
/// (numeric, local) list id. Telemetry stays sealed: list ids and
/// durations only, never record contents.
Status TimedWalAppend(WalWriter* wal, const WalRecord& record) {
  static obs::Histogram* latency =
      obs::Registry::Global().GetHistogram("zr_wal_append_latency_ns");
  uint64_t start = obs::MonotonicNowNs();
  Status logged = wal->Append(record);
  uint64_t elapsed = obs::MonotonicNowNs() - start;
  latency->Record(elapsed);
  obs::RecordSpan(obs::Stage::kWalAppend, elapsed, record.list);
  obs::SlowOpLog::Global().MaybeRecord({obs::Stage::kWalAppend, record.list,
                                        record.handle, elapsed,
                                        /*trace_id=*/0});
  return logged;
}

/// Parses "<prefix><decimal epoch><suffix>"; false when `name` is not of
/// that shape.
bool ParseEpochName(const std::string& name, const std::string& prefix,
                    const std::string& suffix, uint64_t* epoch) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *epoch = value;
  return true;
}

/// Epochs of "<prefix><epoch><suffix>" files in `dir`, descending.
std::vector<uint64_t> ListEpochs(const std::string& dir,
                                 const std::string& prefix,
                                 const std::string& suffix) {
  std::vector<uint64_t> epochs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t epoch;
    if (ParseEpochName(entry.path().filename().string(), prefix, suffix,
                       &epoch)) {
      epochs.push_back(epoch);
    }
  }
  std::sort(epochs.rbegin(), epochs.rend());
  return epochs;
}

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".idx";
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".log";

}  // namespace

std::string DurableIndexService::PartitionDir(const std::string& data_dir,
                                              size_t p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard-%04zu", p);
  return data_dir + buf;
}

std::string DurableIndexService::SnapshotPath(const std::string& dir,
                                              uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/%s%06" PRIu64 "%s", kSnapshotPrefix,
                epoch, kSnapshotSuffix);
  return dir + buf;
}

std::string DurableIndexService::WalPath(const std::string& dir,
                                         uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/%s%06" PRIu64 "%s", kWalPrefix, epoch,
                kWalSuffix);
  return dir + buf;
}

DurableIndexService::DurableIndexService(const DurableOptions& options)
    : options_(options) {}

StatusOr<std::unique_ptr<DurableIndexService>> DurableIndexService::Open(
    const DurableOptions& options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("DurableOptions.data_dir is empty");
  }
  auto service =
      std::unique_ptr<DurableIndexService>(new DurableIndexService(options));

  // Backend + partition skeletons.
  if (options.cluster_shards > 1 && options.num_shards > 1) {
    return Status::InvalidArgument(
        "cluster_shards and num_shards are mutually exclusive");
  }
  if (options.cluster_shard >= std::max<size_t>(1, options.cluster_shards)) {
    return Status::InvalidArgument("cluster_shard out of range");
  }
  size_t num_partitions = std::max<size_t>(1, options.num_shards);
  if (options.cluster_shards > 1) {
    // One shard of a cluster: a single partition in the shard's cluster
    // coordinates (local list count, derived seed, handle residue class).
    service->single_ = std::make_unique<zerber::IndexServer>(
        zerber::ListsOnShard(options.num_lists, options.cluster_shards,
                             options.cluster_shard),
        options.placement,
        zerber::ShardSeed(options.seed, options.cluster_shard),
        zerber::HandleSpace{options.cluster_shards, options.cluster_shard});
    service->single_service_ =
        std::make_unique<net::IndexService>(service->single_.get());
    service->backend_ = service->single_service_.get();
  } else if (options.num_shards > 1) {
    zerber::ShardedIndexService::Options sharding;
    sharding.num_shards = options.num_shards;
    sharding.placement = options.placement;
    sharding.seed = options.seed;
    service->sharded_ = std::make_unique<zerber::ShardedIndexService>(
        options.num_lists, sharding);
    service->backend_ = service->sharded_.get();
  } else {
    service->single_ = std::make_unique<zerber::IndexServer>(
        options.num_lists, options.placement, options.seed);
    service->single_service_ =
        std::make_unique<net::IndexService>(service->single_.get());
    service->backend_ = service->single_service_.get();
  }
  for (size_t p = 0; p < num_partitions; ++p) {
    auto partition = std::make_unique<Partition>();
    partition->dir = PartitionDir(options.data_dir, p);
    partition->server = service->sharded_ ? &service->sharded_->shard(p)
                                          : service->single_.get();
    service->partitions_.push_back(std::move(partition));
  }

  std::error_code ec;
  for (const auto& partition : service->partitions_) {
    fs::create_directories(partition->dir, ec);
    if (ec) {
      return Status::Internal("cannot create " + partition->dir + ": " +
                              ec.message());
    }
  }

  // Recover partitions in parallel (each one is fully self-contained:
  // its snapshot carries the shard's lists and ACL, its WAL the tail).
  std::vector<Status> results(num_partitions, Status::OK());
  if (num_partitions == 1) {
    results[0] = service->RecoverPartition(0);
  } else {
    std::vector<std::thread> recoverers;
    recoverers.reserve(num_partitions);
    for (size_t p = 0; p < num_partitions; ++p) {
      recoverers.emplace_back(
          [&service, &results, p] { results[p] = service->RecoverPartition(p); });
    }
    for (std::thread& t : recoverers) t.join();
  }
  for (const Status& s : results) ZR_RETURN_IF_ERROR(s);

  service->rotator_ = std::thread([svc = service.get()] { svc->RotatorLoop(); });
  return service;
}

DurableIndexService::~DurableIndexService() {
  if (rotator_.joinable()) {
    {
      MutexLock lock(rot_mu_);
      stopping_ = true;
    }
    rot_cv_.NotifyAll();
    rotator_.join();
  }
  for (const auto& partition : partitions_) {
    WriterMutexLock gate(partition->gate);
    if (partition->wal) (void)partition->wal->Close();
  }
}

size_t DurableIndexService::PartitionOfList(zerber::MergedListId list) const {
  return sharded_ ? sharded_->ShardOfList(list) : 0;
}

uint32_t DurableIndexService::LocalList(zerber::MergedListId list) const {
  return sharded_ ? sharded_->LocalListId(list) : list;
}

Status DurableIndexService::RecoverPartition(size_t p) {
  Partition& partition = *partitions_[p];
  // Recovery runs before Open() returns: nothing serves this partition yet
  // (Open recovers partitions on dedicated threads, one per partition), so
  // the replay loop below legitimately owns the server's quiescence.
  zerber::IndexServer& server = *partition.server;
  QuiescenceLock quiesced(server.quiescence());

  // 1. Newest snapshot generation that validates becomes the base state.
  //    Validation happens before any mutation (RestoreSnapshotInto parses
  //    fully first), so falling back to an older generation is safe.
  uint64_t base_epoch = 0;
  bool restored = false;
  std::vector<uint64_t> snapshots =
      ListEpochs(partition.dir, kSnapshotPrefix, kSnapshotSuffix);
  Status last_error = Status::OK();
  for (uint64_t epoch : snapshots) {
    StatusOr<std::string> bytes =
        ReadFileToString(SnapshotPath(partition.dir, epoch));
    Status attempt = bytes.ok()
        ? zerber::RestoreSnapshotInto(partition.server, *bytes)
        : bytes.status();
    if (attempt.ok()) {
      base_epoch = epoch;
      restored = true;
      break;
    }
    last_error = attempt;
  }
  if (!restored && !snapshots.empty()) {
    return Status::Corruption("no valid snapshot in " + partition.dir + ": " +
                              last_error.ToString());
  }
  partition.epoch.store(base_epoch, std::memory_order_relaxed);

  // 2. Replay the WAL chain from the base epoch upward, stopping at the
  //    first torn/corrupt record or missing link — everything before the
  //    stop was acked, everything after never was. The chain matters after
  //    a fallback: wal-e bridges snapshot-e to snapshot-(e+1) exactly, so
  //    when snapshot-(e+1) is the one that rotted, snapshot-e + wal-e +
  //    wal-(e+1) still reconstructs every acked mutation.
  size_t replayed = 0;
  bool base_wal_exists = false;
  bool chain_clean = true;
  for (uint64_t e = base_epoch;; ++e) {
    StatusOr<std::string> wal_bytes = ReadWalBytes(WalPath(partition.dir, e));
    if (!wal_bytes.ok()) {
      if (wal_bytes.status().IsNotFound()) break;  // end of the chain
      return wal_bytes.status();
    }
    if (e == base_epoch) base_wal_exists = true;
    WalReadResult scan = ScanWal(*wal_bytes);
    for (WalRecord& record : scan.records) {
      switch (record.type) {
        case WalRecord::Type::kInsert:
          ZR_RETURN_IF_ERROR(
              server.ReplayInsert(record.list, std::move(record.element)));
          break;
        case WalRecord::Type::kDelete:
          ZR_RETURN_IF_ERROR(server.ReplayDelete(record.list, record.handle));
          break;
        case WalRecord::Type::kAddGroup:
          ZR_RETURN_IF_ERROR(server.acl().AddGroup(record.group));
          break;
        case WalRecord::Type::kGrantMembership:
          ZR_RETURN_IF_ERROR(
              server.acl().GrantMembership(record.user, record.group));
          break;
        case WalRecord::Type::kRevokeMembership:
          ZR_RETURN_IF_ERROR(
              server.acl().RevokeMembership(record.user, record.group));
          break;
      }
      ++replayed;
    }
    if (!scan.clean) {
      chain_clean = false;
      break;  // torn tail: nothing after it was ever acked
    }
  }

  // 3. Start serving from a clean snapshot + empty log unless that is what
  //    is already on disk: the restored snapshot is the newest on disk,
  //    its own WAL exists, is clean and empty, and no later epoch lingers.
  bool base_is_newest = !snapshots.empty() && snapshots.front() == base_epoch;
  bool no_later_wal = true;
  for (uint64_t e : ListEpochs(partition.dir, kWalPrefix, kWalSuffix)) {
    if (e > base_epoch) no_later_wal = false;
  }
  if (restored && base_is_newest && base_wal_exists && chain_clean &&
      replayed == 0 && no_later_wal) {
    WriterMutexLock gate(partition.gate);
    ZR_ASSIGN_OR_RETURN(partition.wal,
                        WalWriter::Open(WalPath(partition.dir, base_epoch),
                                        options_.sync_mode));
    return Status::OK();
  }
  return RotatePartition(p);
}

Status DurableIndexService::RotatePartition(size_t p) {
  Partition& partition = *partitions_[p];
  WriterMutexLock gate(partition.gate);
  // Clearing pending inside the gate: a concurrent scheduler either sees
  // the flag still set (skips) or queues a fresh rotation that runs after
  // this one — never a lost trigger.
  partition.rotation_pending.store(false, std::memory_order_relaxed);

  // Fail-stop: once the WAL hit an IO error, some applied mutation was
  // reported failed to its client. Snapshotting the live server now would
  // make that unacked mutation durable, so the partition must not rotate
  // again — recovery from the on-disk state is the only way forward.
  if (partition.wal) {
    Status wal_status = partition.wal->status();
    if (!wal_status.ok()) return wal_status;
  }

  uint64_t prev = partition.epoch.load(std::memory_order_relaxed);
  // Never reuse any epoch present on disk: after a fallback recovery the
  // directory can hold generations newer than the one restored, and their
  // stale WALs must not pair with the new snapshot.
  uint64_t next = prev + 1;
  for (uint64_t e : ListEpochs(partition.dir, kSnapshotPrefix,
                               kSnapshotSuffix)) {
    next = std::max(next, e + 1);
  }
  for (uint64_t e : ListEpochs(partition.dir, kWalPrefix, kWalSuffix)) {
    next = std::max(next, e + 1);
  }

  // Publish snapshot e+1, then its empty WAL; only then retire epoch e.
  std::string snapshot = zerber::SerializeIndexSnapshot(*partition.server);
  ZR_RETURN_IF_ERROR(WriteFileAtomic(SnapshotPath(partition.dir, next),
                                     snapshot, /*sync=*/true));
  ZR_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> wal,
                      WalWriter::Open(WalPath(partition.dir, next),
                                      options_.sync_mode));
  ZR_RETURN_IF_ERROR(SyncDirectory(partition.dir));

  if (partition.wal) (void)partition.wal->Close();
  partition.wal = std::move(wal);
  partition.epoch.store(next, std::memory_order_relaxed);

  // Best-effort cleanup: keep the new generation and its predecessor —
  // snapshot AND WAL, since wal-prev is exactly the delta that makes a
  // fallback from a rotted snapshot-next lossless — and drop the rest.
  std::error_code ec;
  for (uint64_t e : ListEpochs(partition.dir, kWalPrefix, kWalSuffix)) {
    if (e != next && e != prev) fs::remove(WalPath(partition.dir, e), ec);
  }
  for (uint64_t e : ListEpochs(partition.dir, kSnapshotPrefix,
                               kSnapshotSuffix)) {
    if (e != next && e != prev) fs::remove(SnapshotPath(partition.dir, e), ec);
  }
  return Status::OK();
}

void DurableIndexService::ScheduleRotation(size_t p) {
  Partition& partition = *partitions_[p];
  bool expected = false;
  if (!partition.rotation_pending.compare_exchange_strong(expected, true)) {
    return;  // already queued
  }
  {
    MutexLock lock(rot_mu_);
    rot_queue_.push_back(p);
  }
  rot_cv_.NotifyOne();
}

void DurableIndexService::RotatorLoop() {
  for (;;) {
    size_t p;
    {
      MutexLock lock(rot_mu_);
      while (!stopping_ && rot_queue_.empty()) rot_cv_.Wait(rot_mu_);
      if (rot_queue_.empty()) return;  // stopping, queue drained
      p = rot_queue_.front();
      rot_queue_.pop_front();
    }
    // A failed background rotation leaves the current epoch serving; the
    // next threshold crossing re-queues it.
    (void)RotatePartition(p);
  }
}

uint64_t DurableIndexService::wal_bytes(size_t p) const {
  Partition& partition = *partitions_[p];
  ReaderMutexLock gate(partition.gate);
  return partition.wal ? partition.wal->SizeBytes() : 0;
}

uint64_t DurableIndexService::epoch(size_t p) const {
  return partitions_[p]->epoch.load(std::memory_order_relaxed);
}

Status DurableIndexService::RotateNow(size_t p) { return RotatePartition(p); }

Status DurableIndexService::Flush() {
  for (const auto& partition : partitions_) {
    ReaderMutexLock gate(partition->gate);
    if (partition->wal) ZR_RETURN_IF_ERROR(partition->wal->Sync());
  }
  return Status::OK();
}

StatusOr<net::InsertResponse> DurableIndexService::Insert(
    const net::InsertRequest& request) {
  size_t p = PartitionOfList(request.list) % partitions_.size();
  Partition& partition = *partitions_[p];
  {
    ReaderMutexLock gate(partition.gate);
    ZR_ASSIGN_OR_RETURN(net::InsertResponse response,
                        backend_->Insert(request));
    WalRecord record;
    record.type = WalRecord::Type::kInsert;
    record.list = LocalList(request.list);
    record.element = request.element;
    record.element.handle = response.handle;
    Status logged = TimedWalAppend(partition.wal.get(), record);
    if (!logged.ok()) {
      // The insert is unacked; scrub it from the live index so serving
      // matches what recovery will reconstruct. (Deletes cannot be undone
      // this way — see the fail-stop note in the header.)
      //
      // ReplayDelete is quiescent-only by contract, but the scrub is sound
      // mid-traffic: it locks the owning stripe internally, and the handle
      // it removes was never acked to any client, so no concurrent request
      // can legitimately name it. AssertHeld documents (and silences) this
      // deliberate exception rather than widening the replay contract.
      zerber::IndexServer& server = *partition.server;
      server.quiescence().AssertHeld();
      (void)server.ReplayDelete(record.list, response.handle);
      return logged;
    }
    // Read the WAL size under the gate (rotation swaps the WAL out under
    // the exclusive side); queue the rotation after releasing it.
    bool rotate =
        partition.wal->SizeBytes() >= options_.snapshot_threshold_bytes;
    gate.Unlock();
    if (rotate) ScheduleRotation(p);
    return response;
  }
}

StatusOr<net::QueryResponse> DurableIndexService::Fetch(
    const net::QueryRequest& request) {
  return backend_->Fetch(request);
}

StatusOr<net::MultiFetchResponse> DurableIndexService::MultiFetch(
    const net::MultiFetchRequest& request) {
  return backend_->MultiFetch(request);
}

StatusOr<net::DeleteResponse> DurableIndexService::Delete(
    const net::DeleteRequest& request) {
  size_t p = PartitionOfList(request.list) % partitions_.size();
  Partition& partition = *partitions_[p];
  {
    ReaderMutexLock gate(partition.gate);
    ZR_ASSIGN_OR_RETURN(net::DeleteResponse response,
                        backend_->Delete(request));
    WalRecord record;
    record.type = WalRecord::Type::kDelete;
    record.list = LocalList(request.list);
    record.handle = request.handle;
    ZR_RETURN_IF_ERROR(TimedWalAppend(partition.wal.get(), record));
    bool rotate =
        partition.wal->SizeBytes() >= options_.snapshot_threshold_bytes;
    gate.Unlock();
    if (rotate) ScheduleRotation(p);
    return response;
  }
}

// ACL changes are broadcast per partition (each shard enforces access
// locally) and are deliberately idempotent per partition: a partition that
// already reflects the change is skipped — no second application, no
// duplicate WAL record. The broadcast is not atomic across shards; if a
// crash or IO error interrupts it mid-way, re-issuing the same call after
// recovery converges every shard (the durable ones skip, the rest apply).

// Each iteration claims the partition server's quiescence capability: the
// operator API's documented contract (no requests in flight) is what makes
// the claim true, and the exclusive gate additionally fences any straggling
// writer on this partition.

Status DurableIndexService::AddGroup(crypto::GroupId group) {
  WalRecord record;
  record.type = WalRecord::Type::kAddGroup;
  record.group = group;
  for (const auto& partition : partitions_) {
    zerber::IndexServer& server = *partition->server;
    WriterMutexLock gate(partition->gate);
    QuiescenceLock quiesced(server.quiescence());
    if (server.acl().HasGroup(group)) continue;
    ZR_RETURN_IF_ERROR(server.acl().AddGroup(group));
    ZR_RETURN_IF_ERROR(partition->wal->Append(record));
  }
  return Status::OK();
}

Status DurableIndexService::GrantMembership(zerber::UserId user,
                                            crypto::GroupId group) {
  WalRecord record;
  record.type = WalRecord::Type::kGrantMembership;
  record.user = user;
  record.group = group;
  for (const auto& partition : partitions_) {
    zerber::IndexServer& server = *partition->server;
    WriterMutexLock gate(partition->gate);
    QuiescenceLock quiesced(server.quiescence());
    if (server.acl().IsMember(user, group)) continue;
    ZR_RETURN_IF_ERROR(server.acl().GrantMembership(user, group));
    ZR_RETURN_IF_ERROR(partition->wal->Append(record));
  }
  return Status::OK();
}

Status DurableIndexService::RevokeMembership(zerber::UserId user,
                                             crypto::GroupId group) {
  WalRecord record;
  record.type = WalRecord::Type::kRevokeMembership;
  record.user = user;
  record.group = group;
  for (const auto& partition : partitions_) {
    zerber::IndexServer& server = *partition->server;
    WriterMutexLock gate(partition->gate);
    QuiescenceLock quiesced(server.quiescence());
    if (!server.acl().HasGroup(group)) {
      return Status::NotFound("group " + std::to_string(group) + " unknown");
    }
    if (!server.acl().IsMember(user, group)) continue;
    ZR_RETURN_IF_ERROR(server.acl().RevokeMembership(user, group));
    ZR_RETURN_IF_ERROR(partition->wal->Append(record));
  }
  return Status::OK();
}

}  // namespace zr::store
