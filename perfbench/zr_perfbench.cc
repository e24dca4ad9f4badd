// zr_perfbench: runs one benchmark workload with one closed-loop client
// thread and prints its metrics.
//
//   zr_perfbench --workload=query|churn|cluster --seed=N --seconds=S
//                --trace=0|1 --run-dir=DIR --shard-server=PATH
//                [--spans-out=FILE]
//
// Workloads (why each exists: perfbench/NOTES.md):
//   query   StudIp x0.1, in-process 4-shard backend over DirectTransport;
//           85% Zerber+R queries (2.4 terms, initial requests batched into
//           one MultiFetch), 15% plain-Zerber queries, no writes.
//   churn   one TRS-sorted merged list preloaded to 100k elements on a
//           single in-memory IndexServer; 45% insert, 45% delete, 10%
//           single-term Zerber+R queries, 4 users.
//   cluster tiny preset, client -> RouterService -> 4 shard_server
//           processes (one event loop each, WAL under DIR); 45% Zerber+R
//           (2.4 terms), 15% plain, 25% insert, 15% delete.
//
// One run: the deployment is built kSetups times (set-up time is their
// median; the last one serves the window), warm-up ops run unmeasured, then
// the measured window lasts --seconds of op-loop time, extended until the
// count prefix and every p99 sample floor are reached. Gate checks,
// snapshots and trace replays pause the clock. --trace=1 runs that window
// untraced, then builds a fresh deployment and replays the same op stream
// traced, and reports the per-layer metrics.
//
// Everything the benchmark measures it measures from outside: it times its
// own calls into public functions and wraps the net::ZerberService seam
// (trace.h). End-to-end time metrics are reported in calibrated time
// (calibration.h). The last stdout line is one JSON object.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/process.h"
#include "cluster/router.h"
#include "core/pipeline.h"
#include "core/zerber_r_client.h"
#include "net/messages.h"
#include "net/transport.h"
#include "synth/presets.h"
#include "calibration.h"
#include "trace.h"
#include "util/random.h"
#include "util/zipf.h"
#include "zerber/posting_element.h"
#include "zerber/zerber_client.h"
#include "zerber/zerber_index.h"

namespace zr::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSetups = 5;
constexpr size_t kTopK = 10;
constexpr size_t kNumUsers = 4;
constexpr size_t kMinTailSamples = 1000;
constexpr uint64_t kCalibrateEveryNs = 250000000;
constexpr zerber::UserId kUserBase = 100000;
constexpr text::DocId kInsertDocBase = 0x40000000u;
constexpr uint64_t kDeploymentSeed = 20090324;
constexpr double kSigma = 0.002;

// ------------------------------------------------------------------ flags

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;
  std::string shard_server;
  std::string spans_out;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "zr_perfbench: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Must(StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// --------------------------------------------------------------- workloads

enum class OpKind : size_t { kZrQuery = 0, kPlainQuery, kInsert, kDelete };
constexpr size_t kNumKinds = 4;
constexpr const char* kKindNames[kNumKinds] = {"zr_query", "plain_query",
                                               "insert", "delete"};
constexpr const char* kOpSpanNames[kNumKinds] = {
    "op.zr_query", "op.plain_query", "op.insert", "op.delete"};

struct WorkloadSpec {
  std::string name;
  std::array<double, kNumKinds> mix{};
  /// Mean terms per Zerber+R query; 1 issues single-term QueryTopK.
  double terms_per_query = 1.0;
  size_t groups_per_user = 2;
  /// Inserts run before the mixed warm-up so early deletes find handles.
  size_t warmup_inserts = 0;
  size_t warmup_ops = 0;
  /// Count metrics are taken over this many measured ops, so that they
  /// repeat exactly for a seed however fast the machine is.
  size_t prefix_ops = 0;
  /// Every gate_every-th Zerber+R query is checked against the reference.
  size_t gate_every = 1;
};

WorkloadSpec SpecOf(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "query") {
    s.mix = {0.85, 0.15, 0.0, 0.0};
    s.terms_per_query = 2.4;
    s.warmup_ops = 500;
    s.prefix_ops = 4000;
    s.gate_every = 64;
  } else if (name == "churn") {
    s.mix = {0.10, 0.0, 0.45, 0.45};
    s.groups_per_user = 1;
    s.warmup_ops = 500;
    s.prefix_ops = 6000;
    s.gate_every = 2048;
  } else if (name == "cluster") {
    s.mix = {0.45, 0.15, 0.25, 0.15};
    s.terms_per_query = 2.4;
    s.warmup_inserts = 64;
    s.warmup_ops = 300;
    s.prefix_ops = 3000;
    s.gate_every = 64;
  } else {
    Die("unknown workload '" + name + "' (query|churn|cluster)");
  }
  return s;
}

// -------------------------------------------------------------- deployment

/// Removes a directory tree when destroyed.
class DirGuard {
 public:
  explicit DirGuard(fs::path path) : path_(std::move(path)) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
    if (ec) Die("cannot create " + path_.string() + ": " + ec.message());
  }
  ~DirGuard() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  DirGuard(const DirGuard&) = delete;
  DirGuard& operator=(const DirGuard&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

struct TermEntry {
  text::TermId term = 0;
  std::string term_string;
  zerber::MergedListId list = 0;
  bool trained = false;
  /// Relevance scores of the term's corpus postings; inserts reuse them so
  /// that inserted elements follow the distribution the RSTF was trained on.
  std::vector<double> scores;
};

struct OwnedHandle {
  size_t user = 0;  ///< index into Deployment::users
  zerber::MergedListId list = 0;
  uint64_t handle = 0;
};

/// Everything one set-up builds. Members are destroyed in reverse order:
/// the router first, then the shard processes (SIGKILL + reap), then their
/// data directory.
struct Deployment {
  std::unique_ptr<DirGuard> data_dir;
  std::vector<std::unique_ptr<cluster::ShardProcess>> shards;
  std::unique_ptr<core::Pipeline> pipeline;
  std::unique_ptr<zerber::IndexServer> churn_server;
  std::unique_ptr<net::IndexService> churn_service;

  net::ZerberService* backend = nullptr;
  std::function<zerber::ServerStats()> server_stats;
  std::function<cluster::RouterStats()> router_stats;
  cluster::RouterService* router = nullptr;
  zerber::IndexServer* single = nullptr;

  std::vector<TermEntry> terms;  ///< popularity order (Zipf rank 1 first)
  std::vector<zerber::UserId> users;
  std::vector<std::vector<crypto::GroupId>> user_groups;
  std::vector<OwnedHandle> preload;
  /// Churn inserts draw their score uniformly from this range.
  double score_lo = 0.0;
  double score_hi = 0.0;
};

core::PipelineOptions BaseOptions(const synth::DatasetPreset& preset) {
  core::PipelineOptions options;
  options.preset = preset;
  options.sigma = kSigma;
  options.seed = kDeploymentSeed;
  options.transport = net::TransportKind::kDirect;
  options.build_baseline_index = false;
  options.build_query_log = false;
  return options;
}

/// Terms with postings, by document frequency descending (term id
/// ascending on ties), with their lists and corpus scores.
std::vector<TermEntry> TermTable(const core::Pipeline& p) {
  const text::Corpus& corpus = p.corpus;
  std::vector<text::TermId> ids;
  for (text::TermId t : corpus.vocabulary().AllTermIds()) {
    if (corpus.DocumentFrequency(t) > 0) ids.push_back(t);
  }
  std::sort(ids.begin(), ids.end(), [&](text::TermId a, text::TermId b) {
    uint64_t da = corpus.DocumentFrequency(a);
    uint64_t db = corpus.DocumentFrequency(b);
    return da != db ? da > db : a < b;
  });
  std::unordered_map<text::TermId, size_t> index;
  std::vector<TermEntry> table(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    TermEntry& e = table[i];
    e.term = ids[i];
    e.term_string = Must(corpus.vocabulary().TermOf(e.term), "term string");
    e.list = p.plan.ListOf(e.term, p.keys->TermPseudonym(e.term_string));
    e.trained = p.assigner->HasRstf(e.term);
    index[e.term] = i;
  }
  for (const text::Document& doc : corpus.documents()) {
    for (const auto& [term, tf] : doc.terms()) {
      (void)tf;
      auto it = index.find(term);
      if (it != index.end()) {
        table[it->second].scores.push_back(doc.RelevanceScore(term));
      }
    }
  }
  return table;
}

void ProvisionUsers(Deployment* d, const std::vector<crypto::GroupId>& groups,
                    size_t groups_per_user,
                    const std::function<Status(zerber::UserId,
                                               crypto::GroupId)>& grant) {
  for (size_t i = 0; i < kNumUsers; ++i) {
    zerber::UserId user = kUserBase + static_cast<zerber::UserId>(i);
    std::vector<crypto::GroupId> member_of;
    for (size_t j = 0; j < std::min(groups_per_user, groups.size()); ++j) {
      member_of.push_back(groups[(i + j) % groups.size()]);
    }
    for (crypto::GroupId g : member_of) Must(grant(user, g), "grant");
    d->users.push_back(user);
    d->user_groups.push_back(std::move(member_of));
  }
}

std::vector<crypto::GroupId> CorpusGroups(const text::Corpus& corpus) {
  std::set<crypto::GroupId> groups;
  for (const auto& doc : corpus.documents()) groups.insert(doc.group());
  return {groups.begin(), groups.end()};
}

std::unique_ptr<Deployment> BuildQuery(const WorkloadSpec& spec) {
  auto d = std::make_unique<Deployment>();
  core::PipelineOptions options = BaseOptions(synth::StudIpPreset(0.1));
  options.num_shards = 4;
  d->pipeline = Must(core::BuildPipeline(options), "query pipeline");
  zerber::ShardedIndexService* sharded = d->pipeline->sharded.get();
  d->backend = sharded;
  d->server_stats = [sharded] { return sharded->stats(); };
  ProvisionUsers(d.get(), CorpusGroups(d->pipeline->corpus),
                 spec.groups_per_user,
                 [sharded](zerber::UserId u, crypto::GroupId g) {
                   return sharded->GrantMembership(u, g);
                 });
  d->terms = TermTable(*d->pipeline);
  return d;
}

/// Churn: a training corpus gives "churnterm" scores a/200 (a = 1..200, ten
/// documents each), dense enough that its RSTF is strictly increasing over
/// (0, 1]; the served list is then preloaded with 100k elements whose
/// scores are uniform over that range, in TRS order.
std::unique_ptr<Deployment> BuildChurn(const WorkloadSpec& spec,
                                       uint64_t seed) {
  constexpr size_t kPreload = 100000;
  constexpr int kLength = 200;
  auto d = std::make_unique<Deployment>();
  text::Corpus corpus;
  for (int i = 0; i < 10 * kLength; ++i) {
    int a = 1 + i % kLength;
    std::vector<std::string> tokens(static_cast<size_t>(kLength), "pad");
    std::fill(tokens.begin(), tokens.begin() + a, "churnterm");
    corpus.AddDocumentTokens(tokens, /*group=*/1 + static_cast<uint32_t>(i % 2));
  }
  core::PipelineOptions options = BaseOptions(synth::TinyPreset());
  d->pipeline = Must(core::BuildPipelineFromCorpus(std::move(corpus), options),
                     "churn pipeline");
  core::Pipeline* p = d->pipeline.get();
  for (TermEntry& e : TermTable(*p)) {
    if (e.term_string == "churnterm") d->terms.push_back(std::move(e));
  }
  if (d->terms.size() != 1 || !d->terms[0].trained) {
    Die("churn term missing or untrained");
  }
  const TermEntry& term = d->terms[0];
  d->score_lo = 1.0 / kLength;
  d->score_hi = 1.0;

  // The served index: a fresh server holding only the preloaded list.
  d->churn_server = std::make_unique<zerber::IndexServer>(
      p->plan.NumLists(), zerber::Placement::kTrsSorted, kDeploymentSeed);
  zerber::IndexServer* server = d->churn_server.get();
  const std::vector<crypto::GroupId> groups = {1, 2};
  {
    QuiescenceLock quiesced(server->quiescence());
    for (crypto::GroupId g : groups) Must(server->acl().AddGroup(g), "group");
  }
  ProvisionUsers(d.get(), groups, spec.groups_per_user,
                 [server](zerber::UserId u, crypto::GroupId g) {
                   QuiescenceLock quiesced(server->quiescence());
                   return server->acl().GrantMembership(u, g);
                 });

  Rng rng(seed ^ 0xC0FFEEull);
  std::vector<zerber::EncryptedPostingElement> elements;
  elements.reserve(kPreload);
  for (size_t i = 0; i < kPreload; ++i) {
    auto doc = static_cast<text::DocId>(1000000 + i);
    double score = rng.UniformReal(d->score_lo, d->score_hi);
    crypto::GroupId group = groups[i % groups.size()];
    double trs = p->assigner->Assign(term.term, term.term_string, doc, score);
    auto element = Must(zerber::SealPostingElement(
                            zerber::PostingPayload{term.term, doc, score},
                            group, trs, p->keys.get()),
                        "preload seal");
    element.handle = i + 1;
    elements.push_back(std::move(element));
    // User u is in group groups[u % 2] (groups_per_user = 1).
    size_t owner = (i % groups.size()) + groups.size() * ((i / 2) % 2);
    d->preload.push_back(OwnedHandle{owner, term.list, i + 1});
  }
  std::stable_sort(elements.begin(), elements.end(),
                   [](const zerber::EncryptedPostingElement& a,
                      const zerber::EncryptedPostingElement& b) {
                     return a.trs > b.trs;
                   });
  {
    QuiescenceLock quiesced(server->quiescence());
    Must(server->RestoreElements(term.list, std::move(elements)), "preload");
  }
  d->churn_service = std::make_unique<net::IndexService>(server);
  d->backend = d->churn_service.get();
  d->single = server;
  d->server_stats = [server] { return server->stats(); };
  return d;
}

std::unique_ptr<Deployment> BuildCluster(const WorkloadSpec& spec,
                                         const Flags& flags, size_t setup) {
  constexpr size_t kShards = 4;
  auto d = std::make_unique<Deployment>();
  d->data_dir = std::make_unique<DirGuard>(
      fs::path(flags.run_dir) / ("cluster-" + std::to_string(setup)));
  d->shards.resize(kShards);
  core::PipelineOptions options = BaseOptions(synth::TinyPreset());
  Deployment* raw = d.get();
  options.shard_launcher = [&, raw](size_t num_lists, uint64_t backend_seed)
      -> StatusOr<std::vector<std::string>> {
    std::vector<std::string> addrs;
    for (size_t s = 0; s < kShards; ++s) {
      std::vector<std::string> args = {
          "--shard=" + std::to_string(s),
          "--shards=" + std::to_string(kShards),
          "--lists=" + std::to_string(num_lists),
          "--seed=" + std::to_string(backend_seed),
          "--data-dir=" +
              (raw->data_dir->path() / ("s" + std::to_string(s))).string(),
          "--sync=none",
          "--loops=1",
          "--listen=127.0.0.1:0",
      };
      ZR_ASSIGN_OR_RETURN(raw->shards[s],
                          cluster::ShardProcess::Start(flags.shard_server, args));
      addrs.push_back(raw->shards[s]->addr());
    }
    return addrs;
  };
  d->pipeline = Must(core::BuildPipeline(options), "cluster pipeline");
  cluster::RouterService* router = d->pipeline->router.get();
  d->router = router;
  d->backend = router;
  d->server_stats = [router] { return router->stats(); };
  d->router_stats = [router] { return router->router_stats(); };
  ProvisionUsers(d.get(), CorpusGroups(d->pipeline->corpus),
                 spec.groups_per_user,
                 [router](zerber::UserId u, crypto::GroupId g) {
                   return router->GrantMembership(u, g);
                 });
  d->terms = TermTable(*d->pipeline);
  return d;
}

std::unique_ptr<Deployment> Build(const WorkloadSpec& spec, const Flags& flags,
                                  size_t setup) {
  if (spec.name == "query") return BuildQuery(spec);
  if (spec.name == "churn") return BuildChurn(spec, flags.seed);
  return BuildCluster(spec, flags, setup);
}

// --------------------------------------------------------------- op stream

struct Op {
  OpKind kind = OpKind::kZrQuery;
  size_t user = 0;
  std::vector<size_t> terms;  ///< indices into Deployment::terms
  uint64_t draw = 0;          ///< insert: group slot + score; delete: pool slot
  double uniform = 0.0;       ///< insert score draw
};

/// The op stream. It depends only on the seed and the deployment's static
/// shape (term table size, users), never on timing or on answers.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, size_t num_terms, uint64_t seed)
      : spec_(spec),
        rng_(seed * 0x9E3779B97F4A7C15ull + 0x5EED),
        zipf_(num_terms, 0.9),
        mix_(spec.mix.begin(), spec.mix.end()) {}

  Op Next() { return Make(static_cast<OpKind>(rng_.WeightedIndex(mix_))); }
  Op NextInsert() { return Make(OpKind::kInsert); }

 private:
  Op Make(OpKind kind) {
    Op op;
    op.kind = kind;
    op.user = static_cast<size_t>(rng_.Uniform(kNumUsers));
    switch (kind) {
      case OpKind::kZrQuery: {
        op.terms.push_back(Term());
        if (spec_.terms_per_query > 1.0) {
          double extra_mean = spec_.terms_per_query - 1.0;
          auto extra = static_cast<size_t>(extra_mean);
          if (rng_.NextDouble() < extra_mean - static_cast<double>(extra)) {
            ++extra;
          }
          // A query names distinct terms; redraw repeats.
          while (op.terms.size() < 1 + extra &&
                 op.terms.size() < zipf_.n()) {
            size_t t = Term();
            if (std::find(op.terms.begin(), op.terms.end(), t) ==
                op.terms.end()) {
              op.terms.push_back(t);
            }
          }
        }
        break;
      }
      case OpKind::kPlainQuery:
        op.terms.push_back(Term());
        break;
      case OpKind::kInsert:
        op.terms.push_back(Term());
        op.draw = rng_.NextU64();
        op.uniform = rng_.NextDouble();
        break;
      case OpKind::kDelete:
        op.draw = rng_.NextU64();
        break;
    }
    return op;
  }

  size_t Term() { return static_cast<size_t>(zipf_.Sample(&rng_) - 1); }

  const WorkloadSpec& spec_;
  Rng rng_;
  ZipfDistribution zipf_;
  std::vector<double> mix_;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

// ------------------------------------------------------------------ client

/// Process counters sampled around the window and its paused sections.
struct Meter {
  uint64_t wall_ns = 0;
  uint64_t cpu_us = 0;
  uint64_t ctx_switches = 0;

  static Meter Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Meter m;
    m.wall_ns = NowNs();
    m.cpu_us = static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                   1000000ull +
               static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    m.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    return m;
  }
  Meter operator-(const Meter& o) const {
    return Meter{wall_ns - o.wall_ns, cpu_us - o.cpu_us,
                 ctx_switches - o.ctx_switches};
  }
  Meter& operator+=(const Meter& o) {
    wall_ns += o.wall_ns;
    cpu_us += o.cpu_us;
    ctx_switches += o.ctx_switches;
    return *this;
  }
};

zerber::ServerStats StatsDelta(const zerber::ServerStats& a,
                               const zerber::ServerStats& b) {
  zerber::ServerStats d;
  d.fetch_requests = b.fetch_requests - a.fetch_requests;
  d.insert_requests = b.insert_requests - a.insert_requests;
  d.delete_requests = b.delete_requests - a.delete_requests;
  d.elements_served = b.elements_served - a.elements_served;
  d.bytes_served = b.bytes_served - a.bytes_served;
  d.fetch_latency_ns = b.fetch_latency_ns - a.fetch_latency_ns;
  d.insert_latency_ns = b.insert_latency_ns - a.insert_latency_ns;
  d.delete_latency_ns = b.delete_latency_ns - a.delete_latency_ns;
  return d;
}

void StatsAdd(zerber::ServerStats* acc, const zerber::ServerStats& d) {
  acc->fetch_requests += d.fetch_requests;
  acc->insert_requests += d.insert_requests;
  acc->delete_requests += d.delete_requests;
  acc->elements_served += d.elements_served;
  acc->bytes_served += d.bytes_served;
  acc->fetch_latency_ns += d.fetch_latency_ns;
  acc->insert_latency_ns += d.insert_latency_ns;
  acc->delete_latency_ns += d.delete_latency_ns;
}

cluster::RouterStats RouterDelta(const cluster::RouterStats& a,
                                 const cluster::RouterStats& b) {
  cluster::RouterStats d;
  d.attempts = b.attempts - a.attempts;
  d.retries = b.retries - a.retries;
  d.transport_errors = b.transport_errors - a.transport_errors;
  return d;
}

/// Sum of the sizes of the shards' WAL files under `root`.
uint64_t WalBytes(const fs::path& root) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec) &&
        it->path().filename().string().rfind("wal-", 0) == 0) {
      total += it->file_size(ec);
    }
  }
  return total;
}

uint64_t CountThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::strtoull(line.c_str() + 8, nullptr, 10);
  }
  return 0;
}

uint64_t CountSockets() {
  uint64_t sockets = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd", ec)) {
    std::error_code link_ec;
    fs::path target = fs::read_symlink(entry.path(), link_ec);
    if (!link_ec && target.string().rfind("socket:", 0) == 0) ++sockets;
  }
  return sockets;
}

/// Counters frozen when the measured window reaches the count prefix.
struct PrefixCounts {
  uint64_t ops = 0;
  uint64_t zr_queries = 0;
  uint64_t zr_bytes = 0;
  uint64_t zr_requests = 0;
  uint64_t zr_elements = 0;
  uint64_t zr_hits = 0;
  uint64_t exchanges = 0;
  uint64_t transport_bytes = 0;
  uint64_t mutations = 0;
  uint64_t wal_bytes = 0;
  uint64_t digest = 0;
};

/// Everything one measured window produced.
struct WindowResult {
  double seconds = 0.0;  ///< op-loop time, paused sections excluded
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t skipped = 0;
  std::array<std::vector<uint64_t>, kNumKinds> latency_ns;
  /// Machine-speed kernel timed every kCalibrateEveryNs of op time.
  Calibration calibration;
  PrefixCounts prefix;
  Meter process;  ///< rusage of the op loop, paused sections excluded
  zerber::ServerStats server;
  cluster::RouterStats router;
  uint64_t backend_calls = 0;
  uint64_t gate_checked = 0;
  /// Checks by verdict: exact, sound-only, TRS tie, failed.
  std::array<uint64_t, 4> gate_verdicts{};
  std::vector<std::string> gate_failures;
  bool total_elements_ok = true;
  uint64_t threads = 0;
  uint64_t sockets = 0;
  // Traced windows only.
  std::vector<Span> spans;
  uint64_t replay_open_elements = 0;
  uint64_t replay_open_ns = 0;
  uint64_t replay_open_zr_ns = 0;
  uint64_t replay_codec_exchanges = 0;
  uint64_t replay_codec_ns = 0;
  uint64_t multifetch_calls = 0;
  uint64_t multifetch_ns = 0;
  uint64_t multifetch_server_ns = 0;
};

double Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

/// One client thread's view of a deployment: the seam wrappers, transport
/// and per-user clients, plus an unwrapped transport and clients for the
/// correctness gate.
class Client {
 public:
  Client(Deployment* d, bool traced)
      : d_(d),
        tracer_(traced),
        backend_seam_(d->backend, &tracer_, kBackendSeam),
        transport_(&backend_seam_),
        client_seam_(&transport_, &tracer_, kClientSeam),
        gate_transport_(d->backend) {
    core::Pipeline* p = d->pipeline.get();
    if (traced) {
      client_seam_.set_capture(&captured_);
      // Per-call server time for the fan-out overhead; only where stats()
      // is a local read (a router would turn it into shard RPCs).
      if (d->router == nullptr) backend_seam_.set_server_stats(d->server_stats);
    }
    const text::Vocabulary* vocab = &p->corpus.vocabulary();
    for (zerber::UserId user : d->users) {
      plain_.push_back(std::make_unique<zerber::ZerberClient>(
          user, p->keys.get(), &p->plan, &client_seam_, vocab));
      zr_.push_back(std::make_unique<core::ZerberRClient>(
          user, p->keys.get(), &p->plan, &client_seam_, vocab,
          p->assigner.get()));
      gate_plain_.push_back(std::make_unique<zerber::ZerberClient>(
          user, p->keys.get(), &p->plan, &gate_transport_, vocab));
      gate_zr_.push_back(std::make_unique<core::ZerberRClient>(
          user, p->keys.get(), &p->plan, &gate_transport_, vocab,
          p->assigner.get()));
    }
    pool_ = d->preload;
  }

  WindowResult Run(const WorkloadSpec& spec, const Flags& flags);

 private:
  struct OpOutcome {
    bool ok = true;
    bool skipped = false;
    uint64_t zr_bytes = 0, zr_requests = 0, zr_elements = 0, zr_hits = 0;
    uint64_t handle = 0;
    std::vector<index::ScoredDoc> zr_results;
  };

  OpOutcome Execute(const Op& op);
  /// Outcome of one gate check, in rising order of severity.
  struct Verdict {
    enum Kind { kExact, kSoundOnly, kTrsTie, kFail } kind = kExact;
    std::string error;
    static Verdict Fail(std::string error) { return {kFail, std::move(error)}; }
  };

  Verdict CheckQuery(const Op& op, const std::vector<index::ScoredDoc>& got);
  Verdict CheckSingle(size_t user, const TermEntry& term,
                      const std::vector<index::ScoredDoc>& got);
  void Replay(WindowResult* r, OpKind kind);
  void Pause(const Meter& start);

  Deployment* d_;
  Tracer tracer_;
  TimedService backend_seam_;
  net::DirectTransport transport_;
  TimedService client_seam_;
  net::DirectTransport gate_transport_;
  std::vector<std::unique_ptr<zerber::ZerberClient>> plain_;
  std::vector<std::unique_ptr<core::ZerberRClient>> zr_;
  std::vector<std::unique_ptr<zerber::ZerberClient>> gate_plain_;
  std::vector<std::unique_ptr<core::ZerberRClient>> gate_zr_;
  Captured captured_;
  std::vector<OwnedHandle> pool_;
  uint32_t next_doc_ = 0;
  uint64_t acked_inserts_ = 0;
  uint64_t acked_deletes_ = 0;
  Meter paused_;
};

Client::OpOutcome Client::Execute(const Op& op) {
  OpOutcome out;
  const zerber::UserId user = d_->users[op.user];
  switch (op.kind) {
    case OpKind::kZrQuery: {
      core::ZerberRClient* client = zr_[op.user].get();
      StatusOr<core::TopKResult> result =
          op.terms.size() == 1
              ? client->QueryTopK(d_->terms[op.terms[0]].term, kTopK)
              : [&] {
                  std::vector<text::TermId> terms;
                  for (size_t t : op.terms) terms.push_back(d_->terms[t].term);
                  return client->QueryTopKMulti(terms, kTopK);
                }();
      if (!result.ok()) {
        out.ok = false;
        break;
      }
      out.zr_bytes = result->trace.bytes_fetched;
      out.zr_requests = result->trace.requests;
      out.zr_elements = result->trace.elements_fetched;
      out.zr_hits = result->trace.hits;
      out.zr_results = std::move(result->results);
      break;
    }
    case OpKind::kPlainQuery: {
      auto result =
          plain_[op.user]->QueryTopK(d_->terms[op.terms[0]].term, kTopK);
      out.ok = result.ok();
      break;
    }
    case OpKind::kInsert: {
      const TermEntry& t = d_->terms[op.terms[0]];
      const auto& member_of = d_->user_groups[op.user];
      crypto::GroupId group = member_of[op.draw % member_of.size()];
      // Churn draws over its training range; the others reuse the score of
      // one of the term's corpus postings.
      double score = d_->score_hi > 0.0
                         ? d_->score_lo + (d_->score_hi - d_->score_lo) * op.uniform
                         : t.scores[(op.draw >> 8) % t.scores.size()];
      text::DocId doc = kInsertDocBase + next_doc_++;
      core::Pipeline* p = d_->pipeline.get();
      double trs = p->assigner->Assign(t.term, t.term_string, doc, score);
      net::InsertRequest request;
      request.user = user;
      request.list = t.list;
      {
        ScopedSpan seal(&tracer_, "crypto.seal");
        auto element = zerber::SealPostingElement(
            zerber::PostingPayload{t.term, doc, score}, group, trs,
            p->keys.get());
        if (!element.ok()) {
          out.ok = false;
          break;
        }
        request.element = std::move(element).value();
      }
      auto response = client_seam_.Insert(request);
      if (!response.ok()) {
        out.ok = false;
        break;
      }
      out.handle = response->handle;
      pool_.push_back(OwnedHandle{op.user, t.list, response->handle});
      ++acked_inserts_;
      break;
    }
    case OpKind::kDelete: {
      if (pool_.empty()) {
        out.skipped = true;
        break;
      }
      size_t slot = static_cast<size_t>(op.draw % pool_.size());
      OwnedHandle entry = pool_[slot];
      pool_[slot] = pool_.back();
      pool_.pop_back();
      net::DeleteRequest request;
      request.user = d_->users[entry.user];
      request.list = entry.list;
      request.handle = entry.handle;
      out.handle = entry.handle;
      auto response = client_seam_.Delete(request);
      out.ok = response.ok();
      if (out.ok) ++acked_deletes_;
      break;
    }
  }
  return out;
}

/// Checks one term's Zerber+R answer against the plain-Zerber whole-list
/// download of the same user (which ranks by decrypted score and never
/// relies on TRS order): right size, every hit a real posting with its
/// score, no repeats, and, for a term with a trained RSTF, exactly the
/// reference's top scores. Ties at the k-th score may resolve to any of the
/// tied documents. A term without an RSTF has pseudo-random TRS by design
/// (paper Section 5.1.1), so its answer only has to be sound.
///
/// An answer whose scores differ from the reference's but whose TRS values
/// equal the reference's top TRS values is a TRS tie: the RSTF maps
/// different scores to one TRS (it saturates more than 9 sigma away from
/// every training score), the server cannot order those elements, and the
/// client stops after k hits. That is a ranking-quality limit of the
/// program, reported as its own count; any other difference is a failure.
Client::Verdict Client::CheckSingle(size_t user, const TermEntry& term,
                                    const std::vector<index::ScoredDoc>& got) {
  auto reference = gate_plain_[user]->QueryTopK(
      term.term, std::numeric_limits<size_t>::max());
  if (!reference.ok()) {
    return Verdict::Fail("reference failed: " + reference.status().ToString());
  }
  const std::vector<index::ScoredDoc>& all = reference->results;
  const size_t want = std::min(kTopK, all.size());
  const std::string where = "term '" + term.term_string + "' user " +
                            std::to_string(user) + ": ";
  if (got.size() != want) {
    return Verdict::Fail(where + std::to_string(got.size()) +
                         " results, reference has " + std::to_string(want));
  }
  std::unordered_map<text::DocId, double> score_of;
  for (const auto& hit : all) score_of.emplace(hit.doc_id, hit.score);
  std::set<text::DocId> seen;
  for (const auto& hit : got) {
    auto it = score_of.find(hit.doc_id);
    if (it == score_of.end() || it->second != hit.score) {
      return Verdict::Fail(where + "doc " + std::to_string(hit.doc_id) +
                           " is not a posting with that score");
    }
    if (!seen.insert(hit.doc_id).second) {
      return Verdict::Fail(where + "doc " + std::to_string(hit.doc_id) +
                           " repeated");
    }
  }
  if (!term.trained) return Verdict{Verdict::kSoundOnly, ""};

  std::vector<double> got_scores;
  for (const auto& hit : got) got_scores.push_back(hit.score);
  std::sort(got_scores.rbegin(), got_scores.rend());
  bool scores_equal = true;
  for (size_t i = 0; i < want; ++i) scores_equal &= got_scores[i] == all[i].score;
  if (scores_equal) return Verdict{Verdict::kExact, ""};

  // Trained terms: TRS = RSTF(score), whatever the document.
  const core::TrsAssigner& assigner = *d_->pipeline->assigner;
  auto trs = [&](double score) {
    return assigner.Assign(term.term, term.term_string, 0, score);
  };
  std::vector<double> got_trs, ref_trs;
  for (double score : got_scores) got_trs.push_back(trs(score));
  for (const auto& hit : all) ref_trs.push_back(trs(hit.score));
  std::sort(got_trs.rbegin(), got_trs.rend());
  std::sort(ref_trs.rbegin(), ref_trs.rend());
  for (size_t i = 0; i < want; ++i) {
    if (got_trs[i] != ref_trs[i]) {
      return Verdict::Fail(where + "rank " + std::to_string(i) + " TRS " +
                           std::to_string(got_trs[i]) + ", reference " +
                           std::to_string(ref_trs[i]));
    }
  }
  return Verdict{Verdict::kTrsTie, ""};
}

/// A multi-term answer is each term's answer checked as above, merged the
/// way QueryTopKMulti documents (summed raw scores, score then doc order).
/// The per-term answers come from single-term queries on the same, idle
/// deployment, which fetch exactly what the batched query fetched.
Client::Verdict Client::CheckQuery(const Op& op,
                                   const std::vector<index::ScoredDoc>& got) {
  if (op.terms.size() == 1) {
    return CheckSingle(op.user, d_->terms[op.terms[0]], got);
  }
  Verdict verdict{Verdict::kExact, ""};
  std::unordered_map<text::DocId, double> acc;
  for (size_t t : op.terms) {
    const TermEntry& term = d_->terms[t];
    auto single = gate_zr_[op.user]->QueryTopK(term.term, kTopK);
    if (!single.ok()) {
      return Verdict::Fail("single-term query failed: " +
                           single.status().ToString());
    }
    Verdict v = CheckSingle(op.user, term, single->results);
    if (v.kind == Verdict::kFail) return v;
    verdict.kind = std::max(verdict.kind, v.kind);
    for (const auto& hit : single->results) acc[hit.doc_id] += hit.score;
  }
  std::vector<index::ScoredDoc> merged;
  for (const auto& [doc, score] : acc) merged.push_back(index::ScoredDoc{doc, score});
  std::sort(merged.begin(), merged.end(),
            [](const index::ScoredDoc& a, const index::ScoredDoc& b) {
              return a.score != b.score ? a.score > b.score : a.doc_id < b.doc_id;
            });
  if (merged.size() > kTopK) merged.resize(kTopK);
  if (merged.size() != got.size()) {
    return Verdict::Fail("multi-term answer size differs from the merge");
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].doc_id != got[i].doc_id || merged[i].score != got[i].score) {
      return Verdict::Fail("multi-term answer differs from the merge at rank " +
                           std::to_string(i));
    }
  }
  return verdict;
}

/// Replays, outside the op's span and clock, the work the traced op's
/// exchanges imply for layers the benchmark cannot wrap: opening every
/// fetched element, and encoding + parsing every request and response.
void Client::Replay(WindowResult* r, OpKind kind) {
  const crypto::KeyStore& keys = *d_->pipeline->keys;
  uint64_t opened = 0;
  uint64_t open_ns = 0;
  {
    const uint64_t start = NowNs();
    {
      ScopedSpan span(&tracer_, "replay.open");
      auto open_all = [&](const std::vector<zerber::EncryptedPostingElement>& es) {
        for (const auto& e : es) {
          auto payload = zerber::OpenPostingElement(e, keys);
          opened += payload.ok() ? 1 : 0;
          ++r->replay_open_elements;
        }
      };
      for (const auto& [req, resp] : captured_.fetches) open_all(resp.elements);
      for (const auto& [req, resp] : captured_.multifetches) {
        for (const auto& sub : resp.responses) open_all(sub.elements);
      }
    }
    open_ns = NowNs() - start;
  }
  r->replay_open_ns += open_ns;
  if (kind == OpKind::kZrQuery) r->replay_open_zr_ns += open_ns;

  const uint64_t start = NowNs();
  {
    ScopedSpan span(&tracer_, "replay.codec");
    size_t parsed = 0;
    auto round_trip = [&](auto serialize_req, auto parse_req, auto serialize_resp,
                          auto parse_resp, const auto& pairs) {
      for (const auto& [req, resp] : pairs) {
        parsed += parse_req(serialize_req(req)).ok() ? 1 : 0;
        parsed += parse_resp(serialize_resp(resp)).ok() ? 1 : 0;
        ++r->replay_codec_exchanges;
      }
    };
    round_trip(net::SerializeQueryRequest, net::ParseQueryRequest,
               net::SerializeQueryResponse, net::ParseQueryResponse,
               captured_.fetches);
    round_trip(net::SerializeMultiFetchRequest, net::ParseMultiFetchRequest,
               net::SerializeMultiFetchResponse, net::ParseMultiFetchResponse,
               captured_.multifetches);
    round_trip(net::SerializeInsertRequest, net::ParseInsertRequest,
               net::SerializeInsertResponse, net::ParseInsertResponse,
               captured_.inserts);
    round_trip(net::SerializeDeleteRequest, net::ParseDeleteRequest,
               net::SerializeDeleteResponse, net::ParseDeleteResponse,
               captured_.deletes);
    // Keeps the replayed results observable, so none of the work is elided.
    if (parsed + opened == std::numeric_limits<size_t>::max()) std::abort();
  }
  r->replay_codec_ns += NowNs() - start;
  captured_.Clear();
}

void Client::Pause(const Meter& start) { paused_ += Meter::Now() - start; }

WindowResult Client::Run(const WorkloadSpec& spec, const Flags& flags) {
  WindowResult r;
  OpStream stream(spec, d_->terms.size(), flags.seed);
  const bool traced = tracer_.enabled();
  const uint64_t initial_total = d_->single ? d_->single->TotalElements() : 0;
  const fs::path wal_root =
      d_->data_dir != nullptr ? d_->data_dir->path() : fs::path();

  // Warm-up: unmeasured, before the clock starts.
  for (size_t i = 0; i < spec.warmup_inserts + spec.warmup_ops; ++i) {
    OpOutcome out =
        Execute(i < spec.warmup_inserts ? stream.NextInsert() : stream.Next());
    if (out.skipped) continue;
    ++r.attempted;
    if (!out.ok) ++r.failed;
  }
  captured_.Clear();
  transport_.ResetStats();

  zerber::ServerStats gate_server;
  cluster::RouterStats gate_router;
  const zerber::ServerStats server_before = d_->server_stats();
  const cluster::RouterStats router_before =
      d_->router_stats ? d_->router_stats() : cluster::RouterStats();
  const uint64_t wal_before = wal_root.empty() ? 0 : WalBytes(wal_root);
  const uint64_t mutations_before = acked_inserts_ + acked_deletes_;

  PrefixCounts running;
  bool prefix_done = false;
  uint64_t zr_seen = 0;
  uint64_t since_calibration = 0;
  const uint64_t window_ns = static_cast<uint64_t>(flags.seconds * 1e9);
  const Meter start = Meter::Now();
  paused_ = Meter();

  for (uint64_t i = 0;; ++i) {
    if (i == spec.prefix_ops) {
      const Meter pause = Meter::Now();
      r.prefix = running;
      r.prefix.ops = i;
      r.prefix.exchanges = transport_.stats().exchanges;
      r.prefix.transport_bytes =
          transport_.stats().bytes_up + transport_.stats().bytes_down;
      r.prefix.mutations = acked_inserts_ + acked_deletes_ - mutations_before;
      r.prefix.wal_bytes = wal_root.empty() ? 0 : WalBytes(wal_root) - wal_before;
      prefix_done = true;
      Pause(pause);
    }
    if (prefix_done) {
      const uint64_t elapsed = NowNs() - start.wall_ns - paused_.wall_ns;
      bool tails_ok = true;
      for (size_t k = 0; k < kNumKinds; ++k) {
        if (k == static_cast<size_t>(OpKind::kPlainQuery)) continue;
        if (spec.mix[k] > 0.0 && r.latency_ns[k].size() < kMinTailSamples) {
          tails_ok = false;
        }
      }
      if (elapsed >= window_ns && tails_ok) break;
    }

    Op op = stream.Next();
    const size_t kind = static_cast<size_t>(op.kind);
    tracer_.set_op(i);
    const uint64_t op_start = NowNs();
    OpOutcome out;
    {
      ScopedSpan span(&tracer_, kOpSpanNames[kind]);
      out = Execute(op);
    }
    const uint64_t op_ns = NowNs() - op_start;

    if (out.skipped) {
      ++r.skipped;
      continue;
    }
    ++r.ops;
    ++r.attempted;
    if (!out.ok) ++r.failed;
    r.latency_ns[kind].push_back(op_ns);
    since_calibration += op_ns;
    if (since_calibration >= kCalibrateEveryNs) {
      since_calibration = 0;
      const Meter pause = Meter::Now();
      r.calibration.Sample();
      Pause(pause);
    }

    running.digest = Mix(running.digest, kind);
    running.digest = Mix(running.digest, op.user);
    for (size_t t : op.terms) running.digest = Mix(running.digest, t);
    running.digest = Mix(running.digest, out.handle);
    if (op.kind == OpKind::kZrQuery) {
      ++running.zr_queries;
      running.zr_bytes += out.zr_bytes;
      running.zr_requests += out.zr_requests;
      running.zr_elements += out.zr_elements;
      running.zr_hits += out.zr_hits;
    }

    if (traced) {
      const Meter pause = Meter::Now();
      Replay(&r, op.kind);
      Pause(pause);
    }

    if (op.kind == OpKind::kZrQuery && out.ok && zr_seen++ % spec.gate_every == 0) {
      const Meter pause = Meter::Now();
      const cluster::RouterStats r0 =
          d_->router_stats ? d_->router_stats() : cluster::RouterStats();
      const zerber::ServerStats s0 = d_->server_stats();
      const Verdict verdict = CheckQuery(op, out.zr_results);
      StatsAdd(&gate_server, StatsDelta(s0, d_->server_stats()));
      if (d_->router_stats) {
        cluster::RouterStats rd = RouterDelta(r0, d_->router_stats());
        gate_router.attempts += rd.attempts;
        gate_router.retries += rd.retries;
        gate_router.transport_errors += rd.transport_errors;
      }
      ++r.gate_checked;
      ++r.gate_verdicts[verdict.kind];
      if (verdict.kind == Verdict::kFail) {
        ++r.failed;
        if (r.gate_failures.size() < 5) r.gate_failures.push_back(verdict.error);
      }
      Pause(pause);
    }
  }

  const Meter end = Meter::Now();
  r.process = end - start;
  r.process.cpu_us -= paused_.cpu_us;
  r.process.ctx_switches -= paused_.ctx_switches;
  r.seconds = static_cast<double>(r.process.wall_ns - paused_.wall_ns) / 1e9;
  r.threads = CountThreads();
  r.sockets = CountSockets();

  const cluster::RouterStats router_after =
      d_->router_stats ? d_->router_stats() : cluster::RouterStats();
  r.server = StatsDelta(server_before, d_->server_stats());
  r.server.fetch_requests -= gate_server.fetch_requests;
  r.server.insert_requests -= gate_server.insert_requests;
  r.server.delete_requests -= gate_server.delete_requests;
  r.server.elements_served -= gate_server.elements_served;
  r.server.fetch_latency_ns -= gate_server.fetch_latency_ns;
  r.server.insert_latency_ns -= gate_server.insert_latency_ns;
  r.server.delete_latency_ns -= gate_server.delete_latency_ns;
  r.router = RouterDelta(router_before, router_after);
  r.router.attempts -= gate_router.attempts;
  r.router.retries -= gate_router.retries;
  r.router.transport_errors -= gate_router.transport_errors;

  if (d_->single != nullptr) {
    // Preload + acked inserts - acked deletes, warm-up included.
    r.total_elements_ok = d_->single->TotalElements() ==
                          initial_total + acked_inserts_ - acked_deletes_;
    if (!r.total_elements_ok) ++r.failed;
  }
  if (traced) {
    r.spans = tracer_.spans();
    r.multifetch_calls = backend_seam_.multifetch_calls();
    r.multifetch_ns = backend_seam_.multifetch_ns();
    r.multifetch_server_ns = backend_seam_.multifetch_server_ns();
  }
  return r;
}

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// Per-name span totals, with self time = duration minus direct children.
/// Fails (returns false) unless every op span equals its self time plus its
/// children's durations and every child lies inside its parent.
bool Aggregate(const std::vector<Span>& spans,
               std::map<std::string, SpanTotals>* out) {
  std::vector<uint64_t> child_ns(spans.size(), 0);
  bool ok = true;
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(s.parent)];
    if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns) ok = false;
    child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    if (child_ns[i] > dur) ok = false;
    SpanTotals& t = (*out)[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, child_ns[i]);
  }
  return ok;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double MeanUs(const std::map<std::string, SpanTotals>& t, const char* name,
              bool self) {
  auto it = t.find(name);
  if (it == t.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(self ? it->second.self_ns : it->second.total_ns) /
         1e3 / static_cast<double>(it->second.count);
}

/// End-to-end metrics. Time metrics are in calibrated time (calibration.h);
/// their wall-clock values are reported as raw.* under the per-layer set.
std::vector<Metric> EndToEnd(const WindowResult& r, double setup_s,
                             double peak_rss_mb) {
  const auto& zr = r.latency_ns[static_cast<size_t>(OpKind::kZrQuery)];
  const PrefixCounts& p = r.prefix;
  const double scale = r.calibration.TimeScale();
  return {
      {"setup_s", setup_s, "s"},
      {"throughput_ops_s", Ratio(static_cast<double>(r.ops), r.seconds * scale), "ops/s"},
      {"query_p50_us", Percentile(zr, 50) / 1e3 * scale, "us"},
      {"bytes_per_query", Ratio(static_cast<double>(p.zr_bytes), static_cast<double>(p.zr_queries)), "B"},
      {"requests_per_query", Ratio(static_cast<double>(p.zr_requests), static_cast<double>(p.zr_queries)), "count"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

/// The wall-clock values behind the calibrated end-to-end time metrics.
std::vector<Metric> Raw(const WindowResult& r, double setup_wall_s) {
  const auto& zr = r.latency_ns[static_cast<size_t>(OpKind::kZrQuery)];
  return {
      {"raw.setup_s", setup_wall_s, "s"},
      {"raw.throughput_ops_s", Ratio(static_cast<double>(r.ops), r.seconds), "ops/s"},
      {"raw.query_p50_us", Percentile(zr, 50) / 1e3, "us"},
      {"raw.query_p90_us", Percentile(zr, 90) / 1e3, "us"},
      {"calibration.kernel_us", r.calibration.MedianNs() / 1e3, "us"},
  };
}

std::vector<Metric> PerLayer(const WindowResult& plain, const WindowResult& traced,
                             bool cluster, bool* spans_ok) {
  std::map<std::string, SpanTotals> t;
  *spans_ok = Aggregate(traced.spans, &t);
  const PrefixCounts& p = plain.prefix;
  const double ops = static_cast<double>(plain.ops);
  const auto us = [&](const char* name) { return MeanUs(t, name, false); };
  const auto& lat = plain.latency_ns;
  const double zr_query_ns =
      static_cast<double>(t.count("op.zr_query") ? t.at("op.zr_query").total_ns : 0);

  // Router self time: every router call, minus the shards' own server time.
  double router_calls = 0.0, router_ns = 0.0;
  for (const char* name : {"backend.fetch", "backend.multifetch", "backend.insert",
                           "backend.delete"}) {
    if (t.count(name)) {
      router_calls += static_cast<double>(t.at(name).count);
      router_ns += static_cast<double>(t.at(name).total_ns);
    }
  }
  const zerber::ServerStats& s = traced.server;
  const double shard_ns = static_cast<double>(s.fetch_latency_ns + s.insert_latency_ns +
                                              s.delete_latency_ns);

  std::vector<Metric> m = {
      {"core.query_self_us", MeanUs(t, "op.zr_query", true), "us"},
      {"core.zerber_query_self_us", MeanUs(t, "op.plain_query", true), "us"},
      {"core.elements_per_query", Ratio(static_cast<double>(p.zr_elements), static_cast<double>(p.zr_queries)), "count"},
      {"core.query_efficiency", Ratio(static_cast<double>(p.zr_hits), static_cast<double>(p.zr_elements)), "ratio"},
      {"crypto.seal_us", us("crypto.seal"), "us"},
      {"crypto.open_us_per_element", Ratio(static_cast<double>(traced.replay_open_ns) / 1e3, static_cast<double>(traced.replay_open_elements)), "us"},
      {"crypto.open_share_of_query", Ratio(static_cast<double>(traced.replay_open_zr_ns), zr_query_ns), "ratio"},
      {"zerber.fetch_us", cluster ? 0.0 : us("backend.fetch"), "us"},
      {"zerber.multifetch_us", cluster ? 0.0 : us("backend.multifetch"), "us"},
      {"zerber.server_fetch_us", Ratio(static_cast<double>(plain.server.fetch_latency_ns) / 1e3, static_cast<double>(plain.server.fetch_requests)), "us"},
      {"zerber.fanout_overhead_us", Ratio(static_cast<double>(traced.multifetch_ns) - static_cast<double>(traced.multifetch_server_ns), static_cast<double>(traced.multifetch_calls)) / 1e3, "us"},
      {"zerber.insert_us", cluster ? 0.0 : us("backend.insert"), "us"},
      {"zerber.delete_us", cluster ? 0.0 : us("backend.delete"), "us"},
      {"zerber.elements_served_per_fetch", Ratio(static_cast<double>(plain.server.elements_served), static_cast<double>(plain.server.fetch_requests)), "count"},
      {"net.codec_us_per_exchange", Ratio(static_cast<double>(traced.replay_codec_ns) / 1e3, static_cast<double>(traced.replay_codec_exchanges)), "us"},
      {"net.bytes_per_op", Ratio(static_cast<double>(p.transport_bytes), static_cast<double>(p.ops)), "B"},
      {"net.exchanges_per_op", Ratio(static_cast<double>(p.exchanges), static_cast<double>(p.ops)), "count"},
      {"cluster.router_fetch_us", cluster ? us("backend.fetch") : 0.0, "us"},
      {"cluster.router_multifetch_us", cluster ? us("backend.multifetch") : 0.0, "us"},
      {"cluster.router_insert_us", cluster ? us("backend.insert") : 0.0, "us"},
      {"cluster.router_delete_us", cluster ? us("backend.delete") : 0.0, "us"},
      {"cluster.router_self_us", cluster ? Ratio(router_ns - shard_ns, router_calls) / 1e3 : 0.0, "us"},
      {"cluster.attempts_per_op", Ratio(static_cast<double>(plain.router.attempts), ops), "count"},
      {"cluster.retries_per_op", Ratio(static_cast<double>(plain.router.retries), ops), "count"},
      {"cluster.transport_errors", static_cast<double>(plain.router.transport_errors), "count"},
      {"store.wal_bytes_per_mutation", Ratio(static_cast<double>(p.wal_bytes), static_cast<double>(p.mutations)), "B"},
      {"process.cpu_us_per_op", Ratio(static_cast<double>(plain.process.cpu_us), ops), "us"},
      {"process.ctx_switches_per_op", Ratio(static_cast<double>(plain.process.ctx_switches), ops), "count"},
      {"trace.overhead_ratio", Ratio(Ratio(ops, plain.seconds * plain.calibration.TimeScale()), Ratio(static_cast<double>(traced.ops), traced.seconds * traced.calibration.TimeScale())), "ratio"},
      {"op.query_p99_us", Percentile(lat[static_cast<size_t>(OpKind::kZrQuery)], 99) / 1e3, "us"},
      {"core.gate_trs_tie_share", Ratio(static_cast<double>(plain.gate_verdicts[2]), static_cast<double>(plain.gate_checked)), "ratio"},
      {"op.zerber_query_p50_us", Percentile(lat[static_cast<size_t>(OpKind::kPlainQuery)], 50) / 1e3, "us"},
      {"op.insert_p50_us", Percentile(lat[static_cast<size_t>(OpKind::kInsert)], 50) / 1e3, "us"},
      {"op.insert_p99_us", Percentile(lat[static_cast<size_t>(OpKind::kInsert)], 99) / 1e3, "us"},
      {"op.delete_p50_us", Percentile(lat[static_cast<size_t>(OpKind::kDelete)], 50) / 1e3, "us"},
      {"op.delete_p99_us", Percentile(lat[static_cast<size_t>(OpKind::kDelete)], 99) / 1e3, "us"},
  };
  return m;
}

void PrintWindow(const char* label, const WindowResult& r) {
  std::printf("%s window: %.3f s op-loop time, %" PRIu64 " ops (%" PRIu64
              " skipped deletes), %.1f ops/s, %" PRIu64 " failed\n",
              label, r.seconds, r.ops, r.skipped,
              Ratio(static_cast<double>(r.ops), r.seconds), r.failed);
  for (size_t k = 0; k < kNumKinds; ++k) {
    const auto& v = r.latency_ns[k];
    if (v.empty()) continue;
    std::printf("  %-12s n=%-7zu p50=%.1f us p90=%.1f us p99=%.1f us\n",
                kKindNames[k], v.size(), Percentile(v, 50) / 1e3,
                Percentile(v, 90) / 1e3, Percentile(v, 99) / 1e3);
  }
  const PrefixCounts& p = r.prefix;
  std::printf("  count prefix: %" PRIu64 " ops, %" PRIu64 " zr queries, %" PRIu64
              " zr bytes, %" PRIu64 " zr requests, %" PRIu64
              " elements, %" PRIu64 " exchanges, %" PRIu64
              " transport bytes, %" PRIu64 " mutations, %" PRIu64
              " wal bytes, op stream digest %016" PRIx64 "\n",
              p.ops, p.zr_queries, p.zr_bytes, p.zr_requests, p.zr_elements,
              p.exchanges, p.transport_bytes, p.mutations, p.wal_bytes, p.digest);
  std::printf("  gate: %" PRIu64 " queries checked: %" PRIu64
              " exact top-k, %" PRIu64 " sound (untrained term), %" PRIu64
              " TRS ties, %" PRIu64 " failed%s\n",
              r.gate_checked, r.gate_verdicts[0], r.gate_verdicts[1],
              r.gate_verdicts[2], r.gate_verdicts[3],
              r.total_elements_ok ? "" : "; TotalElements MISMATCH");
  for (const std::string& f : r.gate_failures) std::printf("  gate mismatch: %s\n", f.c_str());
  std::printf("  calibration: %zu kernel samples, median %.1f us (reference %.1f us), "
              "time scale %.4f\n",
              r.calibration.samples(), r.calibration.MedianNs() / 1e3,
              Calibration::kReferenceNs / 1e3, r.calibration.TimeScale());
  std::printf("  process: %" PRIu64 " threads, %" PRIu64
              " sockets, %.1f us cpu/op, %.2f context switches/op\n",
              r.threads, r.sockets,
              Ratio(static_cast<double>(r.process.cpu_us), static_cast<double>(r.ops)),
              Ratio(static_cast<double>(r.process.ctx_switches), static_cast<double>(r.ops)));
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fprintf(f, "name,op,parent,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%" PRIu64 ",%" PRId64 ",%" PRIu64 ",%" PRIu64 "\n", s.name,
                 s.op, s.parent, s.start_ns, s.end_ns);
  }
  std::fclose(f);
}

void PrintJsonMetrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &flags.workload)) {
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      flags.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      flags.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      flags.trace = v == "1";
    } else if (ParseFlag(argv[i], "--run-dir", &flags.run_dir)) {
    } else if (ParseFlag(argv[i], "--shard-server", &flags.shard_server)) {
    } else if (ParseFlag(argv[i], "--spans-out", &flags.spans_out)) {
    } else {
      Die(std::string("unknown flag ") + argv[i]);
    }
  }
  if (flags.run_dir.empty() || !(flags.seconds > 0.0)) {
    Die("--run-dir and a positive --seconds are required");
  }
  const WorkloadSpec spec = SpecOf(flags.workload);
  const bool cluster = spec.name == "cluster";
  if (cluster && flags.shard_server.empty()) Die("cluster needs --shard-server");

  std::printf("workload %s seed %" PRIu64 ": one closed-loop client thread, "
              "%zu users, top-%zu\n",
              spec.name.c_str(), flags.seed, kNumUsers, kTopK);
  if (cluster) {
    std::printf("cluster: 4 shard_server processes, 1 event loop each; WAL "
                "sync=none (page cache, no fsync) under the run directory\n");
  }

  // Set-up, kSetups times; the last deployment serves the window. Each
  // build is bracketed by kernel samples and calibrated like the window.
  std::vector<double> setups, calibrated;
  std::unique_ptr<Deployment> d;
  for (size_t s = 0; s < kSetups; ++s) {
    d.reset();
    Calibration calibration;
    for (int k = 0; k < 5; ++k) calibration.Sample();
    const uint64_t t0 = NowNs();
    d = Build(spec, flags, s);
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    for (int k = 0; k < 5; ++k) calibration.Sample();
    setups.push_back(seconds);
    calibrated.push_back(seconds * calibration.TimeScale());
  }
  std::sort(calibrated.begin(), calibrated.end());
  const double setup_s = calibrated[calibrated.size() / 2];
  std::vector<double> wall = setups;
  std::sort(wall.begin(), wall.end());
  const double setup_wall_s = wall[wall.size() / 2];
  std::printf("setup: median %.3f calibrated s; wall s", setup_s);
  for (double s : setups) std::printf(" %.3f", s);
  std::printf(" (%zu terms, %zu lists)\n", d->terms.size(),
              d->pipeline->plan.NumLists());

  WindowResult plain;
  {
    Client client(d.get(), /*traced=*/false);
    plain = client.Run(spec, flags);
  }
  PrintWindow("untraced", plain);

  uint64_t attempted = plain.attempted;
  uint64_t failed = plain.failed;
  bool correct = failed == 0 && plain.prefix.ops == spec.prefix_ops;
  std::vector<Metric> layers;
  if (flags.trace) {
    d.reset();
    d = Build(spec, flags, kSetups);
    WindowResult traced;
    {
      Client client(d.get(), /*traced=*/true);
      traced = client.Run(spec, flags);
    }
    PrintWindow("traced", traced);
    bool spans_ok = false;
    layers = PerLayer(plain, traced, cluster, &spans_ok);
    for (Metric& m : Raw(plain, setup_wall_s)) layers.push_back(std::move(m));
    const bool same_stream = traced.prefix.digest == plain.prefix.digest &&
                             traced.prefix.zr_bytes == plain.prefix.zr_bytes &&
                             traced.prefix.exchanges == plain.prefix.exchanges &&
                             traced.prefix.wal_bytes == plain.prefix.wal_bytes;
    std::printf("traced run: %zu spans, self times %s, op stream and counts %s "
                "the untraced run's\n",
                traced.spans.size(), spans_ok ? "add up" : "DO NOT add up",
                same_stream ? "equal" : "DIFFER FROM");
    if (!flags.spans_out.empty()) WriteSpans(flags.spans_out, traced.spans);
    attempted += traced.attempted;
    failed += traced.failed;
    correct = correct && traced.failed == 0 && spans_ok && same_stream;
  }
  d.reset();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::vector<Metric> e2e = EndToEnd(plain, setup_s, peak_rss_mb);
  std::printf("failed_ops_ratio: %.6f (%" PRIu64 " of %" PRIu64 ")\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", ",
              spec.name.c_str(), flags.seed, correct ? "true" : "false", attempted,
              failed);
  PrintJsonMetrics("end_to_end", e2e);
  std::printf(", ");
  PrintJsonMetrics("per_layer", layers);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace zr::perfbench

int main(int argc, char** argv) { return zr::perfbench::Main(argc, argv); }
