#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace zr::cluster {

namespace {

/// Start of a kRouterFanout span: now when the calling thread carries an
/// active trace, 0 (nothing to record) otherwise.
uint64_t FanoutStart() {
  return obs::CurrentTrace().active() ? obs::MonotonicNowNs() : 0;
}

/// Records the kRouterFanout span of one shard hop begun at `start_ns`.
/// Span detail is the shard index — a topology coordinate, never index
/// content.
void RecordFanout(size_t shard, uint64_t start_ns) {
  if (start_ns == 0) return;
  obs::RecordSpan(obs::Stage::kRouterFanout,
                  obs::MonotonicNowNs() - start_ns, shard);
}

/// A kRouterFanout span around one single-shard hop.
class FanoutSpan {
 public:
  explicit FanoutSpan(size_t shard) : shard_(shard), start_(FanoutStart()) {}

  FanoutSpan(const FanoutSpan&) = delete;
  FanoutSpan& operator=(const FanoutSpan&) = delete;

  ~FanoutSpan() { RecordFanout(shard_, start_); }

 private:
  size_t shard_;
  uint64_t start_;
};

}  // namespace

RouterService::RouterService(size_t num_lists, const Options& options)
    : num_lists_(num_lists) {
  size_t num_shards = std::max<size_t>(1, options.shard_addrs.size());
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardClientOptions client = options.client;
    client.addr = s < options.shard_addrs.size() ? options.shard_addrs[s]
                                                 : std::string();
    client.expected_server_id = s;
    // Decorrelate the jitter streams so shards never retry in lockstep.
    client.retry_backoff.seed = zerber::MixSeed(
        options.client.retry_backoff.seed + 0x9E3779B97F4A7C15ull * (s + 1));
    client.breaker_backoff.seed = zerber::MixSeed(
        options.client.breaker_backoff.seed + 0x517CC1B727220A95ull * (s + 1));
    shards_.push_back(std::make_unique<ShardClient>(std::move(client)));
  }

  // The router's fault-handling counters on the scrape plane: the
  // aggregate under zr_router_*, plus the per-shard breakdown the
  // aggregate hides (which shard is retrying, whose breaker opened).
  metrics_collector_ = obs::Registry::Global().RegisterCollector(
      [this](std::vector<obs::Sample>* out) {
        RouterStats total = router_stats();
        out->push_back({"zr_router_attempts_total", "", total.attempts});
        out->push_back(
            {"zr_router_transport_errors_total", "", total.transport_errors});
        out->push_back({"zr_router_retries_total", "", total.retries});
        out->push_back({"zr_router_unavailable_total", "", total.unavailable});
        out->push_back({"zr_router_probes_total", "", total.probes});
        out->push_back(
            {"zr_router_probe_failures_total", "", total.probe_failures});
        out->push_back(
            {"zr_router_breaker_opens_total", "", total.breaker_opens});
        out->push_back({"zr_router_rejoins_total", "", total.rejoins});
        std::vector<ShardClientStats> per_shard = shard_stats();
        for (size_t s = 0; s < per_shard.size(); ++s) {
          std::string labels = "shard=\"" + std::to_string(s) + "\"";
          out->push_back({"zr_shard_client_attempts_total", labels,
                          per_shard[s].attempts});
          out->push_back({"zr_shard_client_transport_errors_total", labels,
                          per_shard[s].transport_errors});
          out->push_back(
              {"zr_shard_client_retries_total", labels, per_shard[s].retries});
          out->push_back({"zr_shard_client_unavailable_total", labels,
                          per_shard[s].unavailable});
          out->push_back({"zr_shard_client_breaker_opens_total", labels,
                          per_shard[s].breaker_opens});
          out->push_back(
              {"zr_shard_client_rejoins_total", labels, per_shard[s].rejoins});
        }
      });
}

Status RouterService::CheckList(zerber::MergedListId list) const {
  if (list >= num_lists_) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  return Status::OK();
}

StatusOr<net::InsertResponse> RouterService::Insert(
    const net::InsertRequest& request) {
  // Out-of-range global ids forward to the owning shard like
  // ShardedIndexService: the local id is then out of the shard's range, so
  // the shard rejects (and counts) the request itself.
  net::InsertRequest local = request;
  local.list = LocalListId(request.list);
  size_t shard = ShardOfList(request.list);
  FanoutSpan span(shard);
  ZR_ASSIGN_OR_RETURN(net::InsertResponse response,
                      shards_[shard]->Insert(local));
  response.wire_size = 0;  // backend semantics: accounting is the
                           // client-side transport's job
  return response;
}

StatusOr<net::QueryResponse> RouterService::Fetch(
    const net::QueryRequest& request) {
  net::QueryRequest local = request;
  local.list = LocalListId(request.list);
  size_t shard = ShardOfList(request.list);
  FanoutSpan span(shard);
  ZR_ASSIGN_OR_RETURN(net::QueryResponse response,
                      shards_[shard]->Fetch(local));
  response.wire_size = 0;
  return response;
}

StatusOr<net::MultiFetchResponse> RouterService::MultiFetch(
    const net::MultiFetchRequest& request) {
  const std::vector<net::FetchRange>& fetches = request.fetches;
  // Validate every range upfront so the call fails atomically before any
  // shard does work (identical to ShardedIndexService).
  for (const net::FetchRange& f : fetches) {
    ZR_RETURN_IF_ERROR(CheckList(f.list));
  }

  net::MultiFetchResponse response;
  response.responses.resize(fetches.size());

  // Group ranges by owning shard; one sub-MultiFetch per shard with work.
  struct ShardBatch {
    std::vector<size_t> ranges;  // indices into the request, ascending
    std::optional<ShardClient::PendingMultiFetch> pending;
    uint64_t span_start = 0;
  };
  std::vector<ShardBatch> batches(shards_.size());
  for (size_t i = 0; i < fetches.size(); ++i) {
    batches[ShardOfList(fetches[i].list)].ranges.push_back(i);
  }

  // Scatter: send every shard's batch before receiving any, so the shards
  // serve their batches at the same time.
  for (size_t s = 0; s < batches.size(); ++s) {
    ShardBatch& batch = batches[s];
    if (batch.ranges.empty()) continue;
    net::MultiFetchRequest sub;
    sub.user = request.user;
    sub.fetches.reserve(batch.ranges.size());
    for (size_t idx : batch.ranges) {
      net::FetchRange local = fetches[idx];
      local.list = LocalListId(local.list);
      sub.fetches.push_back(local);
    }
    batch.span_start = FanoutStart();
    batch.pending.emplace(shards_[s]->StartMultiFetch(sub));
  }

  // Gather in shard order; a batch whose send or receive failed finishes
  // through the shard client's retry loop. Every shard is finished even
  // after another failed. On multiple failing shards, surface the error of
  // the shard whose batch starts earliest in the request (ranges group in
  // order, so this is the error an in-order range-by-range execution would
  // have hit first), whatever the shard order.
  size_t first_error_index = static_cast<size_t>(-1);
  Status first_error = Status::OK();
  for (size_t s = 0; s < batches.size(); ++s) {
    ShardBatch& batch = batches[s];
    if (!batch.pending.has_value()) continue;
    auto fetched = shards_[s]->FinishMultiFetch(std::move(*batch.pending));
    RecordFanout(s, batch.span_start);
    if (!fetched.ok() || fetched->responses.size() != batch.ranges.size()) {
      if (batch.ranges.front() < first_error_index) {
        first_error_index = batch.ranges.front();
        first_error = fetched.ok()
                          ? Status::Internal("shard " + std::to_string(s) +
                                             ": short multifetch response")
                          : fetched.status();
      }
      continue;
    }
    for (size_t i = 0; i < batch.ranges.size(); ++i) {
      net::QueryResponse& out = response.responses[batch.ranges[i]];
      out = std::move(fetched->responses[i]);
      out.wire_size = 0;  // shard-hop accounting is not the client's
    }
  }

  if (first_error_index != static_cast<size_t>(-1)) return first_error;
  return response;
}

StatusOr<net::DeleteResponse> RouterService::Delete(
    const net::DeleteRequest& request) {
  // Routes by list id alone, like ShardedIndexService: a handle whose
  // residue disagrees with the list's shard cannot exist there, and the
  // shard reports it NotFound itself.
  net::DeleteRequest local = request;
  local.list = LocalListId(request.list);
  size_t shard = ShardOfList(request.list);
  FanoutSpan span(shard);
  ZR_ASSIGN_OR_RETURN(net::DeleteResponse response,
                      shards_[shard]->Delete(local));
  response.wire_size = 0;
  return response;
}

Status RouterService::AddGroup(crypto::GroupId group) {
  net::AclRequest acl;
  acl.op = net::AclRequest::Op::kAddGroup;
  acl.group = group;
  for (auto& shard : shards_) ZR_RETURN_IF_ERROR(shard->Acl(acl));
  return Status::OK();
}

Status RouterService::GrantMembership(zerber::UserId user,
                                      crypto::GroupId group) {
  net::AclRequest acl;
  acl.op = net::AclRequest::Op::kGrant;
  acl.user = user;
  acl.group = group;
  for (auto& shard : shards_) ZR_RETURN_IF_ERROR(shard->Acl(acl));
  return Status::OK();
}

Status RouterService::RevokeMembership(zerber::UserId user,
                                       crypto::GroupId group) {
  net::AclRequest acl;
  acl.op = net::AclRequest::Op::kRevoke;
  acl.user = user;
  acl.group = group;
  for (auto& shard : shards_) ZR_RETURN_IF_ERROR(shard->Acl(acl));
  return Status::OK();
}

zerber::ServerStats RouterService::stats() {
  zerber::ServerStats total;
  for (auto& shard : shards_) {
    auto scraped = shard->Stats();
    if (!scraped.ok()) continue;  // unreachable shard contributes zeros
    total.fetch_requests += scraped->fetch_requests;
    total.insert_requests += scraped->insert_requests;
    total.insert_denied += scraped->insert_denied;
    total.delete_requests += scraped->delete_requests;
    total.delete_denied += scraped->delete_denied;
    total.elements_served += scraped->elements_served;
    total.bytes_served += scraped->bytes_served;
    total.fetch_latency_ns += scraped->fetch_latency_ns;
    total.insert_latency_ns += scraped->insert_latency_ns;
    total.delete_latency_ns += scraped->delete_latency_ns;
  }
  return total;
}

RouterStats RouterService::router_stats() const {
  RouterStats total;
  for (const auto& shard : shards_) {
    ShardClientStats s = shard->stats();
    total.attempts += s.attempts;
    total.transport_errors += s.transport_errors;
    total.retries += s.retries;
    total.unavailable += s.unavailable;
    total.probes += s.probes;
    total.probe_failures += s.probe_failures;
    total.breaker_opens += s.breaker_opens;
    total.rejoins += s.rejoins;
  }
  return total;
}

std::vector<ShardClientStats> RouterService::shard_stats() const {
  std::vector<ShardClientStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats());
  return out;
}

Status RouterService::WaitForShard(size_t s, uint64_t timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  Status last = Status::OK();
  for (;;) {
    last = shards_[s]->Probe();
    if (last.ok()) return Status::OK();
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::Unavailable("shard " + std::to_string(s) + " (" +
                             shards_[s]->addr() + ") not up after " +
                             std::to_string(timeout_ms) +
                             "ms: " + last.message());
}

Status RouterService::WaitForAll(uint64_t timeout_ms) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    ZR_RETURN_IF_ERROR(WaitForShard(s, timeout_ms));
  }
  return Status::OK();
}

}  // namespace zr::cluster
