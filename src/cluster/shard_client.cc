#include "cluster/shard_client.h"

#include <thread>
#include <utility>

#include "obs/trace.h"

namespace zr::cluster {

ShardClient::ShardClient(ShardClientOptions options)
    : options_(std::move(options)), breaker_backoff_(options_.breaker_backoff) {
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  if (options_.breaker_threshold == 0) options_.breaker_threshold = 1;
  session_options_.max_frame_payload = options_.max_frame_payload;
  session_options_.deadlines = options_.deadlines;
}

std::unique_ptr<net::TcpSession> ShardClient::Checkout() {
  {
    MutexLock lock(mu_);
    if (!pool_.empty()) {
      std::unique_ptr<net::TcpSession> session = std::move(pool_.back());
      pool_.pop_back();
      return session;
    }
  }
  return std::make_unique<net::TcpSession>(options_.addr, session_options_);
}

void ShardClient::Return(std::unique_ptr<net::TcpSession> session) {
  if (session->broken()) return;  // discard; the next checkout reconnects
  MutexLock lock(mu_);
  if (pool_.size() < options_.pool_size) pool_.push_back(std::move(session));
}

void ShardClient::RecordFailure() {
  MutexLock lock(mu_);
  ++consecutive_failures_;
  if (breaker_ == Breaker::kClosed &&
      consecutive_failures_ >= options_.breaker_threshold) {
    breaker_ = Breaker::kOpen;
    ++stats_.breaker_opens;
    open_window_ms_ = breaker_backoff_.NextDelayMs();
    opened_at_ = std::chrono::steady_clock::now();
  } else if (breaker_ == Breaker::kOpen) {
    // Already open (a failed half-open probe): escalate the window.
    open_window_ms_ = breaker_backoff_.NextDelayMs();
    opened_at_ = std::chrono::steady_clock::now();
  }
  // A broken connection may have poisoned its pooled siblings (server
  // restart kills them all); drop them so retries reconnect fresh.
  pool_.clear();
}

void ShardClient::RecordSuccess() {
  MutexLock lock(mu_);
  consecutive_failures_ = 0;
  if (breaker_ == Breaker::kOpen) {
    breaker_ = Breaker::kClosed;
    ++stats_.rejoins;
    breaker_backoff_.Reset();
  }
}

bool ShardClient::available() const {
  MutexLock lock(mu_);
  return breaker_ == Breaker::kClosed;
}

ShardClientStats ShardClient::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t ShardClient::idle_sessions() const {
  MutexLock lock(mu_);
  return pool_.size();
}

Status ShardClient::Admit() {
  {
    MutexLock lock(mu_);
    if (breaker_ == Breaker::kClosed) return Status::OK();
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - opened_at_)
                       .count();
    if (elapsed >= 0 &&
        static_cast<uint64_t>(elapsed) < open_window_ms_) {
      return Status::Unavailable("shard " + options_.addr +
                                 ": circuit breaker open");
    }
  }
  // Open window elapsed: half-open. One probe decides (racing callers may
  // both probe; harmless).
  Status probed = Probe();
  if (!probed.ok()) {
    return Status::Unavailable("shard " + options_.addr +
                               ": health probe failed: " + probed.message());
  }
  return Status::OK();
}

Status ShardClient::ProbeOn(net::TcpSession* session) {
  net::PingRequest ping;
  {
    MutexLock lock(mu_);
    ping.token = ++probe_token_;
  }
  std::string wire;
  ZR_RETURN_IF_ERROR(session->Call(net::SerializePingRequest(ping), &wire));
  ZR_ASSIGN_OR_RETURN(net::PingResponse pong,
                      Decode(wire, net::ParsePingResponse));
  if (pong.token != ping.token) {
    return Status::Internal("shard " + options_.addr +
                            ": probe token mismatch");
  }
  if (pong.server_id != options_.expected_server_id) {
    return Status::Internal(
        "shard " + options_.addr + ": expected server id " +
        std::to_string(options_.expected_server_id) + ", got " +
        std::to_string(pong.server_id));
  }
  return Status::OK();
}

Status ShardClient::Probe() {
  {
    MutexLock lock(mu_);
    ++stats_.probes;
  }
  std::unique_ptr<net::TcpSession> session = Checkout();
  Status probed = ProbeOn(session.get());
  if (probed.ok()) {
    RecordSuccess();
    Return(std::move(session));
    return Status::OK();
  }
  {
    MutexLock lock(mu_);
    ++stats_.probe_failures;
  }
  RecordFailure();
  return probed;
}

ShardClient::Attempt ShardClient::Send(const std::string& request_wire) {
  Attempt attempt;
  attempt.status = Admit();
  if (!attempt.status.ok()) {
    // Fail fast: the breaker is open (or the half-open probe failed);
    // in-op retries would only stack more sleeps onto a dead shard.
    MutexLock lock(mu_);
    ++stats_.unavailable;
    return attempt;
  }
  attempt.session = Checkout();
  {
    MutexLock lock(mu_);
    ++stats_.attempts;
  }
  // When the calling thread carries a trace, SendFrame attaches the
  // context to the request frame and RecvFrame harvests the server's span
  // report; the hop is timed from here so the trace attributes wire time
  // per attempt (only the successful attempt is recorded).
  if (obs::CurrentTrace().active()) {
    attempt.hop_start_ns = obs::MonotonicNowNs();
  }
  attempt.status = attempt.session->SendFrame(request_wire);
  if (!attempt.status.ok()) {
    attempt.session.reset();
    if (attempt.status.IsInvalidArgument()) return attempt;  // oversized
    {
      MutexLock lock(mu_);
      ++stats_.transport_errors;
    }
    RecordFailure();
    attempt.retryable = true;  // nothing reached the server: safe for every op
  }
  return attempt;
}

void ShardClient::Receive(const std::string& request_wire, bool idempotent,
                          Attempt* attempt, std::string* response_wire) {
  attempt->status = attempt->session->RecvFrame(response_wire);
  if (!attempt->status.ok()) {
    attempt->session.reset();
    {
      MutexLock lock(mu_);
      ++stats_.transport_errors;
    }
    RecordFailure();
    // The request was sent; the shard may or may not have applied it. Only
    // an idempotent op is re-sent; the others surface the transport error
    // rather than risk a double apply.
    attempt->retryable = idempotent;
    return;
  }
  if (obs::CurrentTrace().active()) {
    obs::RecordSpan(obs::Stage::kTransport,
                    obs::MonotonicNowNs() - attempt->hop_start_ns,
                    static_cast<uint64_t>(net::TagOf(request_wire)));
    // Re-record the server-side spans that rode back on the response
    // frame, so the client's tracer holds the complete cross-process
    // trace (RecordSpan stamps the current trace id).
    for (const obs::SpanRecord& span : attempt->session->response_spans()) {
      obs::RecordSpan(span.stage, span.duration_ns, span.detail);
    }
  }
  RecordSuccess();
  Return(std::move(attempt->session));
}

Status ShardClient::Complete(const std::string& request_wire, bool idempotent,
                             Attempt attempt, std::string* response_wire) {
  Backoff retry(options_.retry_backoff);
  for (size_t attempts = 1;; ++attempts) {
    if (attempt.status.ok()) {
      Receive(request_wire, idempotent, &attempt, response_wire);
    }
    if (attempt.status.ok() || !attempt.retryable) return attempt.status;
    if (attempts == options_.max_attempts) break;
    {
      MutexLock lock(mu_);
      ++stats_.retries;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(retry.NextDelayMs()));
    attempt = Send(request_wire);
  }
  {
    MutexLock lock(mu_);
    ++stats_.unavailable;
  }
  return Status::Unavailable("shard " + options_.addr + ": unavailable after " +
                             std::to_string(options_.max_attempts) +
                             " attempts: " + attempt.status.message());
}

Status ShardClient::Exchange(const std::string& request_wire, bool idempotent,
                             std::string* response_wire) {
  return Complete(request_wire, idempotent, Send(request_wire), response_wire);
}

template <typename Response>
StatusOr<Response> ShardClient::Decode(
    std::string_view wire, StatusOr<Response> (*parse)(std::string_view)) {
  if (net::IsErrorResponse(wire)) {
    Status decoded;
    ZR_RETURN_IF_ERROR(net::ParseErrorResponse(wire, &decoded));
    return decoded;
  }
  return parse(wire);
}

StatusOr<net::InsertResponse> ShardClient::Insert(
    const net::InsertRequest& request) {
  std::string wire;
  ZR_RETURN_IF_ERROR(Exchange(net::SerializeInsertRequest(request),
                              /*idempotent=*/false, &wire));
  return Decode(wire, net::ParseInsertResponse);
}

StatusOr<net::QueryResponse> ShardClient::Fetch(
    const net::QueryRequest& request) {
  std::string wire;
  ZR_RETURN_IF_ERROR(Exchange(net::SerializeQueryRequest(request),
                              /*idempotent=*/true, &wire));
  return Decode(wire, net::ParseQueryResponse);
}

StatusOr<net::MultiFetchResponse> ShardClient::MultiFetch(
    const net::MultiFetchRequest& request) {
  return FinishMultiFetch(StartMultiFetch(request));
}

ShardClient::PendingMultiFetch ShardClient::StartMultiFetch(
    const net::MultiFetchRequest& request) {
  PendingMultiFetch pending;
  pending.wire_ = net::SerializeMultiFetchRequest(request);
  pending.attempt_ = Send(pending.wire_);
  return pending;
}

StatusOr<net::MultiFetchResponse> ShardClient::FinishMultiFetch(
    PendingMultiFetch pending) {
  std::string wire;
  ZR_RETURN_IF_ERROR(Complete(pending.wire_, /*idempotent=*/true,
                              std::move(pending.attempt_), &wire));
  return Decode(wire, net::ParseMultiFetchResponse);
}

StatusOr<net::DeleteResponse> ShardClient::Delete(
    const net::DeleteRequest& request) {
  std::string wire;
  ZR_RETURN_IF_ERROR(Exchange(net::SerializeDeleteRequest(request),
                              /*idempotent=*/false, &wire));
  return Decode(wire, net::ParseDeleteResponse);
}

Status ShardClient::Acl(const net::AclRequest& request) {
  // Idempotent by contract: the shard server applies ACL mutations
  // idempotently (a re-sent grant is a no-op), so receive failures retry.
  std::string wire;
  ZR_RETURN_IF_ERROR(Exchange(net::SerializeAclRequest(request),
                              /*idempotent=*/true, &wire));
  ZR_ASSIGN_OR_RETURN(net::AclResponse ack,
                      Decode(wire, net::ParseAclResponse));
  (void)ack;
  return Status::OK();
}

StatusOr<net::StatsResponse> ShardClient::Stats() {
  std::string wire;
  ZR_RETURN_IF_ERROR(Exchange(net::SerializeStatsRequest(net::StatsRequest{}),
                              /*idempotent=*/true, &wire));
  return Decode(wire, net::ParseStatsResponse);
}

}  // namespace zr::cluster
