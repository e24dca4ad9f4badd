#include "zerber/sharded_index.h"

#include <algorithm>
#include <utility>

#include "zerber/routing.h"

namespace zr::zerber {

ShardedIndexService::ShardedIndexService(size_t num_lists,
                                         const Options& options)
    : num_lists_(num_lists) {
  size_t num_shards = std::max<size_t>(1, options.num_shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<IndexServer>(
        ListsOnShard(num_lists, num_shards, s), options.placement,
        ShardSeed(options.seed, s), HandleSpace{num_shards, s}));
  }
}

Status ShardedIndexService::CheckList(MergedListId list) const {
  if (list >= num_lists_) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  return Status::OK();
}

// Single-exchange requests forward to the owning shard even when the global
// list id is out of range: a global id >= num_lists always maps to a local
// id >= that shard's list count (L = s + k*N is valid iff k < the shard's
// count), so the shard rejects it with OutOfRange — and counts the request,
// keeping ServerStats totals identical to the single-server backend under
// the documented offered-load policy.

StatusOr<net::InsertResponse> ShardedIndexService::Insert(
    const net::InsertRequest& request) {
  size_t s = ShardOfList(request.list);
  ZR_ASSIGN_OR_RETURN(uint64_t handle,
                      shards_[s]->Insert(request.user,
                                         LocalListId(request.list),
                                         request.element));
  net::InsertResponse response;
  response.handle = handle;
  return response;
}

StatusOr<net::QueryResponse> ShardedIndexService::Fetch(
    const net::QueryRequest& request) {
  size_t s = ShardOfList(request.list);
  ZR_ASSIGN_OR_RETURN(
      FetchResult fetched,
      shards_[s]->Fetch(request.user, LocalListId(request.list),
                        static_cast<size_t>(request.offset),
                        static_cast<size_t>(request.count)));
  net::QueryResponse response;
  response.elements = std::move(fetched.elements);
  response.exhausted = fetched.exhausted;
  return response;
}

StatusOr<net::MultiFetchResponse> ShardedIndexService::MultiFetch(
    const net::MultiFetchRequest& request) {
  const std::vector<net::FetchRange>& fetches = request.fetches;
  // Validate every range upfront so the call fails atomically before any
  // shard does work.
  for (const net::FetchRange& f : fetches) {
    ZR_RETURN_IF_ERROR(CheckList(f.list));
  }

  net::MultiFetchResponse response;
  response.responses.reserve(fetches.size());
  for (const net::FetchRange& f : fetches) {
    ZR_ASSIGN_OR_RETURN(
        FetchResult fetched,
        shards_[ShardOfList(f.list)]->Fetch(
            request.user, LocalListId(f.list),
            static_cast<size_t>(f.offset), static_cast<size_t>(f.count)));
    net::QueryResponse& out = response.responses.emplace_back();
    out.elements = std::move(fetched.elements);
    out.exhausted = fetched.exhausted;
  }
  return response;
}

StatusOr<net::DeleteResponse> ShardedIndexService::Delete(
    const net::DeleteRequest& request) {
  // Routes by list id alone — no broadcast. A handle whose residue class
  // disagrees with the list's shard (ShardOfHandle != ShardOfList) cannot
  // exist there, since shard s only ever assigns handles with h % N == s;
  // the shard's own lookup reports it NotFound (and counts the request).
  size_t s = ShardOfList(request.list);
  ZR_RETURN_IF_ERROR(shards_[s]->Delete(request.user,
                                        LocalListId(request.list),
                                        request.handle));
  return net::DeleteResponse{};
}

// The ACL broadcasts carry their own "Requires quiescence" contract (the
// whole service must be idle, not just one shard), so each claims the
// per-shard quiescence capability it is forwarding under.

Status ShardedIndexService::AddGroup(crypto::GroupId group) {
  for (auto& shard_ptr : shards_) {
    IndexServer& shard = *shard_ptr;
    QuiescenceLock quiesced(shard.quiescence());
    ZR_RETURN_IF_ERROR(shard.acl().AddGroup(group));
  }
  return Status::OK();
}

Status ShardedIndexService::GrantMembership(UserId user,
                                            crypto::GroupId group) {
  for (auto& shard_ptr : shards_) {
    IndexServer& shard = *shard_ptr;
    QuiescenceLock quiesced(shard.quiescence());
    ZR_RETURN_IF_ERROR(shard.acl().GrantMembership(user, group));
  }
  return Status::OK();
}

Status ShardedIndexService::RevokeMembership(UserId user,
                                             crypto::GroupId group) {
  for (auto& shard_ptr : shards_) {
    IndexServer& shard = *shard_ptr;
    QuiescenceLock quiesced(shard.quiescence());
    ZR_RETURN_IF_ERROR(shard.acl().RevokeMembership(user, group));
  }
  return Status::OK();
}

uint64_t ShardedIndexService::TotalElements() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->TotalElements();
  return total;
}

uint64_t ShardedIndexService::TotalWireSize() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->TotalWireSize();
  return total;
}

ServerStats ShardedIndexService::stats() const {
  ServerStats total;
  for (const auto& shard : shards_) {
    ServerStats s = shard->stats();
    total.fetch_requests += s.fetch_requests;
    total.insert_requests += s.insert_requests;
    total.insert_denied += s.insert_denied;
    total.delete_requests += s.delete_requests;
    total.delete_denied += s.delete_denied;
    total.elements_served += s.elements_served;
    total.bytes_served += s.bytes_served;
    total.fetch_latency_ns += s.fetch_latency_ns;
    total.insert_latency_ns += s.insert_latency_ns;
    total.delete_latency_ns += s.delete_latency_ns;
  }
  return total;
}

void ShardedIndexService::ResetStats() {
  for (auto& shard : shards_) shard->ResetStats();
}

StatusOr<const MergedList*> ShardedIndexService::GetList(
    MergedListId list) const {
  ZR_RETURN_IF_ERROR(CheckList(list));
  // Quiescent-only by contract (see the declaration); claim the owning
  // shard's capability on the caller's behalf.
  const IndexServer& shard = *shards_[ShardOfList(list)];
  QuiescenceLock quiesced(shard.quiescence());
  return shard.GetList(LocalListId(list));
}

}  // namespace zr::zerber
