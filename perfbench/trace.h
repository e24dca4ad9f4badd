// Outside-in tracing for the benchmark: in-memory spans and a timing
// wrapper for the net::ZerberService seam.
//
// Nothing here reaches into the program. A TimedService sits between a
// client and its transport, or between the transport and the backend, and
// records one span per call; the benchmark's own op loop records the op,
// seal and replay spans around its calls into public functions. With
// tracing off a wrapper is one branch on top of the virtual call it
// forwards, so traced and untraced runs execute the same code path.

#ifndef ZR_PERFBENCH_TRACE_H_
#define ZR_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/messages.h"
#include "net/service.h"
#include "zerber/zerber_index.h"

namespace zr::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed interval. `parent` indexes the enclosing span in the same
/// Tracer (-1 for a root); spans of one op share `op`.
struct Span {
  const char* name = "";
  uint64_t op = 0;
  int64_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Span recorder for one client thread. Spans nest strictly: Begin pushes,
/// End pops, so a span's children lie inside it and never overlap.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const { return enabled_; }
  void set_op(uint64_t op) { op_ = op; }

  size_t Begin(const char* name) {
    Span span;
    span.name = name;
    span.op = op_;
    span.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    spans_.back().start_ns = NowNs();
    return spans_.size() - 1;
  }

  void End(size_t index) {
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t index_;
};

/// Copies of the exchanges of one traced op, replayed after the op ends.
struct Captured {
  std::vector<std::pair<net::QueryRequest, net::QueryResponse>> fetches;
  std::vector<std::pair<net::MultiFetchRequest, net::MultiFetchResponse>>
      multifetches;
  std::vector<std::pair<net::InsertRequest, net::InsertResponse>> inserts;
  std::vector<std::pair<net::DeleteRequest, net::DeleteResponse>> deletes;

  void Clear() {
    fetches.clear();
    multifetches.clear();
    inserts.clear();
    deletes.clear();
  }
};

/// Span names of one side of the seam, indexed by exchange kind.
struct SeamNames {
  const char* insert;
  const char* fetch;
  const char* multifetch;
  const char* del;
};

inline constexpr SeamNames kClientSeam = {"client.insert", "client.fetch",
                                          "client.multifetch",
                                          "client.delete"};
inline constexpr SeamNames kBackendSeam = {"backend.insert", "backend.fetch",
                                           "backend.multifetch",
                                           "backend.delete"};

/// Timing wrapper on the ZerberService seam. Borrows `inner` and `tracer`.
///
/// With a `capture` sink, every traced exchange is copied into it (inside a
/// "trace.capture" span, so the copy is charged to the tracer, not to the
/// caller). With `server_stats`, each traced MultiFetch is bracketed by two
/// stats() snapshots taken outside its span; the server-side fetch time
/// between them is summed into multifetch_server_ns().
class TimedService final : public net::ZerberService {
 public:
  TimedService(net::ZerberService* inner, Tracer* tracer,
               const SeamNames& names)
      : inner_(inner), tracer_(tracer), names_(names) {}

  void set_capture(Captured* capture) { capture_ = capture; }
  void set_server_stats(std::function<zerber::ServerStats()> stats) {
    server_stats_ = std::move(stats);
  }

  uint64_t multifetch_calls() const { return multifetch_calls_; }
  uint64_t multifetch_ns() const { return multifetch_ns_; }
  uint64_t multifetch_server_ns() const { return multifetch_server_ns_; }

  StatusOr<net::InsertResponse> Insert(
      const net::InsertRequest& request) override {
    return Call(request, &net::ZerberService::Insert, names_.insert,
                capture_ != nullptr ? &capture_->inserts : nullptr);
  }

  StatusOr<net::QueryResponse> Fetch(const net::QueryRequest& request) override {
    return Call(request, &net::ZerberService::Fetch, names_.fetch,
                capture_ != nullptr ? &capture_->fetches : nullptr);
  }

  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override {
    if (!tracer_->enabled() || !server_stats_) {
      return Call(request, &net::ZerberService::MultiFetch, names_.multifetch,
                  capture_ != nullptr ? &capture_->multifetches : nullptr);
    }
    const uint64_t before = server_stats_().fetch_latency_ns;
    const size_t index = tracer_->Begin(names_.multifetch);
    auto response = inner_->MultiFetch(request);
    tracer_->End(index);
    const uint64_t after = server_stats_().fetch_latency_ns;
    const Span& span = tracer_->spans()[index];
    ++multifetch_calls_;
    multifetch_ns_ += span.end_ns - span.start_ns;
    multifetch_server_ns_ += after - before;
    if (capture_ != nullptr && response.ok()) {
      ScopedSpan capture(tracer_, "trace.capture");
      capture_->multifetches.emplace_back(request, *response);
    }
    return response;
  }

  StatusOr<net::DeleteResponse> Delete(
      const net::DeleteRequest& request) override {
    return Call(request, &net::ZerberService::Delete, names_.del,
                capture_ != nullptr ? &capture_->deletes : nullptr);
  }

 private:
  template <typename Request, typename Response>
  StatusOr<Response> Call(
      const Request& request,
      StatusOr<Response> (net::ZerberService::*method)(const Request&),
      const char* name, std::vector<std::pair<Request, Response>>* sink) {
    if (!tracer_->enabled()) return (inner_->*method)(request);
    StatusOr<Response> response = [&] {
      ScopedSpan span(tracer_, name);
      return (inner_->*method)(request);
    }();
    if (sink != nullptr && response.ok()) {
      ScopedSpan span(tracer_, "trace.capture");
      sink->emplace_back(request, *response);
    }
    return response;
  }

  net::ZerberService* inner_;
  Tracer* tracer_;
  SeamNames names_;
  Captured* capture_ = nullptr;
  std::function<zerber::ServerStats()> server_stats_;
  uint64_t multifetch_calls_ = 0;
  uint64_t multifetch_ns_ = 0;
  uint64_t multifetch_server_ns_ = 0;
};

}  // namespace zr::perfbench

#endif  // ZR_PERFBENCH_TRACE_H_
