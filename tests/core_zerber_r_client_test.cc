#include "core/zerber_r_client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/pipeline.h"
#include "net/messages.h"
#include "net/service.h"

namespace zr::core {
namespace {

// One shared deployment for all tests in this suite (construction builds an
// encrypted index; reuse keeps the suite fast).
class ZerberRClientTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.sigma = 0.003;  // fixed: sigma selection has its own tests
    options.seed = 2025;
    auto pipeline = BuildPipeline(options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    pipeline_ = pipeline->release();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static Pipeline* pipeline_;
};

Pipeline* ZerberRClientTest::pipeline_ = nullptr;

TEST_F(ZerberRClientTest, IndexHoldsOneElementPerPosting) {
  EXPECT_EQ(pipeline_->server->TotalElements(),
            pipeline_->corpus.TotalPostings());
}

TEST_F(ZerberRClientTest, TopKDocSetMatchesPlaintextBaseline) {
  // The headline IR property: for every term with a *trained* RSTF,
  // single-term top-k through the confidential index returns the same
  // documents as an ordinary inverted index (modulo ties at the k-th score,
  // where any winner is correct). Terms absent from the training sample get
  // a random TRS by design (paper Section 5.1.1) and are exercised in
  // UntrainedRareTermStillReturnsCompleteResults below.
  ASSERT_TRUE(pipeline_->baseline.has_value());
  size_t checked = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    uint64_t df = pipeline_->corpus.DocumentFrequency(term);
    if (df < 3 || term % 17 != 0) continue;  // sample for speed
    if (!pipeline_->assigner->HasRstf(term)) continue;
    const size_t k = 5;
    auto expected = pipeline_->baseline->TopK(term, k);
    auto got = pipeline_->client->QueryTopK(term, k);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->results.size(), expected.size()) << "term " << term;
    for (size_t i = 0; i < expected.size(); ++i) {
      // Scores must agree exactly (same Equation 4 computation).
      EXPECT_DOUBLE_EQ(got->results[i].score, expected[i].score)
          << "term " << term << " rank " << i;
    }
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST_F(ZerberRClientTest, UntrainedRareTermStillReturnsCompleteResults) {
  // Terms outside the training sample have pseudo-random TRS, so their
  // list order is meaningless — but once the client exhausts the list
  // (df <= k), it has every element and client-side sorting restores the
  // exact baseline ranking.
  ASSERT_TRUE(pipeline_->baseline.has_value());
  size_t checked = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    uint64_t df = pipeline_->corpus.DocumentFrequency(term);
    if (df == 0 || df > 5 || pipeline_->assigner->HasRstf(term)) continue;
    auto got = pipeline_->client->QueryTopK(term, 10);  // k >= df
    ASSERT_TRUE(got.ok());
    auto expected = pipeline_->baseline->TopK(term, 10);
    ASSERT_EQ(got->results.size(), expected.size()) << "term " << term;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(got->results[i].score, expected[i].score);
    }
    if (++checked >= 10) break;
  }
  EXPECT_GE(checked, 3u);
}

TEST_F(ZerberRClientTest, TraceCountsAreConsistent) {
  text::TermId term = pipeline_->corpus.vocabulary().AllTermIds()[0];
  auto result = pipeline_->client->QueryTopK(term, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->trace.requests, 1u);
  EXPECT_GE(result->trace.elements_fetched, result->trace.hits);
  EXPECT_GT(result->trace.bytes_fetched, 0u);
  EXPECT_EQ(result->results.size(),
            std::min<uint64_t>(result->trace.hits, 10));
}

TEST_F(ZerberRClientTest, FetchedElementsFollowDoublingSchedule) {
  // TRes after n requests must not exceed Equation 12's cumulative size.
  text::TermId term = pipeline_->corpus.vocabulary().AllTermIds()[2];
  auto result = pipeline_->client->QueryTopK(term, 10);
  ASSERT_TRUE(result.ok());
  size_t b = pipeline_->client->protocol().initial_response_size;
  EXPECT_LE(result->trace.elements_fetched,
            CumulativeResponseSize(b, result->trace.requests - 1));
}

TEST_F(ZerberRClientTest, FrequentTermAnsweredInFewRequests) {
  // The most frequent term dominates its merged list, so its top-k sits in
  // the head: 1-2 requests at b = k.
  text::TermId frequent = 0;
  uint64_t best_df = 0;
  for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(t) > best_df) {
      best_df = pipeline_->corpus.DocumentFrequency(t);
      frequent = t;
    }
  }
  auto result = pipeline_->client->QueryTopK(frequent, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->trace.requests, 3u);
  EXPECT_EQ(result->results.size(), 10u);
}

TEST_F(ZerberRClientTest, ExhaustedListReturnsAllAvailableHits) {
  // A df=1 term cannot produce 10 hits; protocol must stop at exhaustion.
  text::TermId rare = text::kInvalidTermId;
  for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(t) == 1) {
      rare = t;
      break;
    }
  }
  ASSERT_NE(rare, text::kInvalidTermId);
  auto result = pipeline_->client->QueryTopK(rare, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->results.size(), 1u);
  EXPECT_TRUE(result->trace.exhausted);
}

TEST_F(ZerberRClientTest, ResultsOrderedByDecryptedScore) {
  for (text::TermId term : {3u, 9u, 27u}) {
    if (pipeline_->corpus.DocumentFrequency(term) == 0) continue;
    auto result = pipeline_->client->QueryTopK(term, 10);
    ASSERT_TRUE(result.ok());
    for (size_t i = 1; i < result->results.size(); ++i) {
      EXPECT_GE(result->results[i - 1].score, result->results[i].score);
    }
  }
}

TEST_F(ZerberRClientTest, MultiTermMergesSingleTermResults) {
  auto ids = pipeline_->corpus.vocabulary().AllTermIds();
  std::vector<text::TermId> terms{ids[0], ids[1]};
  auto multi = pipeline_->client->QueryTopKMulti(terms, 5);
  ASSERT_TRUE(multi.ok());
  EXPECT_LE(multi->results.size(), 5u);
  auto a = pipeline_->client->QueryTopK(ids[0], 5);
  auto b = pipeline_->client->QueryTopK(ids[1], 5);
  ASSERT_TRUE(a.ok() && b.ok());
  // Every round batches both terms' next ranges into one round trip, so
  // the query takes as many round trips as its slower term.
  EXPECT_EQ(multi->trace.requests,
            std::max(a->trace.requests, b->trace.requests));
  EXPECT_EQ(multi->trace.elements_fetched,
            a->trace.elements_fetched + b->trace.elements_fetched);
  // Every multi result doc must come from one of the single-term results.
  std::set<text::DocId> sources;
  for (const auto& d : a->results) sources.insert(d.doc_id);
  for (const auto& d : b->results) sources.insert(d.doc_id);
  for (const auto& d : multi->results) {
    EXPECT_TRUE(sources.count(d.doc_id) > 0);
  }
}

// Forwards every exchange to a backend and records the fetches a client
// issues: which ranges, in which message type, and the response message's
// wire size.
class RecordingService : public net::ZerberService {
 public:
  struct Call {
    bool multi = false;
    std::vector<net::FetchRange> ranges;
    uint64_t response_bytes = 0;
  };

  explicit RecordingService(net::ZerberService* backend) : backend_(backend) {}

  StatusOr<net::InsertResponse> Insert(
      const net::InsertRequest& request) override {
    return backend_->Insert(request);
  }
  StatusOr<net::QueryResponse> Fetch(
      const net::QueryRequest& request) override {
    auto response = backend_->Fetch(request);
    if (response.ok()) {
      calls.push_back(
          {false,
           {net::FetchRange{request.list, request.offset, request.count}},
           net::WireSizeOfQueryResponse(*response)});
    }
    return response;
  }
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override {
    auto response = backend_->MultiFetch(request);
    if (response.ok()) {
      calls.push_back({true, request.fetches,
                       net::WireSizeOfMultiFetchResponse(*response)});
    }
    return response;
  }
  StatusOr<net::DeleteResponse> Delete(
      const net::DeleteRequest& request) override {
    return backend_->Delete(request);
  }

  std::vector<Call> calls;

 private:
  net::ZerberService* backend_;
};

TEST_F(ZerberRClientTest, MultiTermRoundsBatchEveryPendingTerm) {
  // A small initial response forces follow-ups. Pick three terms whose
  // single-term queries need distinct request counts of at least two, so
  // the multi-term query has follow-up rounds with several pending terms
  // (one MultiFetch) and a last round with only the slowest term (a Fetch).
  constexpr size_t k = 10;
  ProtocolOptions protocol;
  protocol.initial_response_size = 2;
  RecordingService recorder(pipeline_->transport.get());
  ZerberRClient client(pipeline_->user, pipeline_->keys.get(),
                       &pipeline_->plan, &recorder,
                       &pipeline_->corpus.vocabulary(),
                       pipeline_->assigner.get(), protocol);

  std::vector<text::TermId> terms;
  std::vector<std::vector<net::FetchRange>> alone;  // per term
  uint64_t alone_elements = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(term) == 0) continue;
    recorder.calls.clear();
    auto single = client.QueryTopK(term, k);
    ASSERT_TRUE(single.ok()) << single.status();
    if (recorder.calls.size() < 2) continue;
    bool distinct = true;
    for (const auto& seen : alone) {
      distinct = distinct && seen.size() != recorder.calls.size();
    }
    if (!distinct) continue;
    std::vector<net::FetchRange> ranges;
    for (const RecordingService::Call& call : recorder.calls) {
      EXPECT_FALSE(call.multi) << "a single-term query only Fetches";
      ranges.push_back(call.ranges.at(0));
    }
    terms.push_back(term);
    alone.push_back(std::move(ranges));
    alone_elements += single->trace.elements_fetched;
    if (terms.size() == 3) break;
  }
  ASSERT_EQ(terms.size(), 3u) << "corpus lacks terms needing follow-ups";

  recorder.calls.clear();
  auto multi = client.QueryTopKMulti(terms, k);
  ASSERT_TRUE(multi.ok()) << multi.status();

  // Round r carries range r of every term that issues more than r requests
  // alone, in query order: each term's sequence is its single-term one.
  size_t rounds = 0;
  for (const auto& ranges : alone) rounds = std::max(rounds, ranges.size());
  ASSERT_EQ(recorder.calls.size(), rounds)
      << "1 + the largest per-term follow-up count";
  uint64_t bytes = 0;
  size_t fetch_rounds = 0, multi_follow_ups = 0;
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<net::FetchRange> want;
    for (const auto& ranges : alone) {
      if (r < ranges.size()) want.push_back(ranges[r]);
    }
    const RecordingService::Call& call = recorder.calls[r];
    EXPECT_EQ(call.ranges, want) << "round " << r;
    EXPECT_EQ(call.multi, want.size() > 1) << "round " << r;
    if (!call.multi) ++fetch_rounds;
    if (call.multi && r > 0) ++multi_follow_ups;
    bytes += call.response_bytes;
  }
  EXPECT_GE(fetch_rounds, 1u);
  EXPECT_GE(multi_follow_ups, 1u);

  EXPECT_EQ(multi->trace.requests, recorder.calls.size());
  EXPECT_EQ(multi->trace.bytes_fetched, bytes);
  EXPECT_EQ(multi->trace.elements_fetched, alone_elements);
}

TEST_F(ZerberRClientTest, LargerInitialResponseReducesRequests) {
  text::TermId term = text::kInvalidTermId;
  for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
    uint64_t df = pipeline_->corpus.DocumentFrequency(t);
    if (df >= 10 && df <= 30) {
      term = t;
      break;
    }
  }
  ASSERT_NE(term, text::kInvalidTermId);

  ProtocolOptions small;
  small.initial_response_size = 2;
  ProtocolOptions large;
  large.initial_response_size = 200;

  pipeline_->client->set_protocol(small);
  auto with_small = pipeline_->client->QueryTopK(term, 10);
  pipeline_->client->set_protocol(large);
  auto with_large = pipeline_->client->QueryTopK(term, 10);
  pipeline_->client->set_protocol(ProtocolOptions{});

  ASSERT_TRUE(with_small.ok() && with_large.ok());
  EXPECT_GE(with_small->trace.requests, with_large->trace.requests);
  // ...but the result set is identical (protocol only affects transfer).
  ASSERT_EQ(with_small->results.size(), with_large->results.size());
  for (size_t i = 0; i < with_small->results.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_small->results[i].score,
                     with_large->results[i].score);
  }
}

}  // namespace
}  // namespace zr::core
