#include "text/corpus.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace zr::text {
namespace {

TEST(DocumentTest, TermFrequenciesAndLength) {
  Document doc(0, 1);
  doc.AddTerm(10, 3);
  doc.AddTerm(20, 1);
  doc.AddTerm(10, 2);  // accumulates
  EXPECT_EQ(doc.TermFrequency(10), 5u);
  EXPECT_EQ(doc.TermFrequency(20), 1u);
  EXPECT_EQ(doc.TermFrequency(30), 0u);
  EXPECT_EQ(doc.Length(), 6u);
  EXPECT_EQ(doc.DistinctTerms(), 2u);
}

TEST(DocumentTest, OutOfOrderAndRepeatedTermsIterateSortedAndMerged) {
  Document doc(0, 1);
  for (TermId t : {50u, 7u, 50u, 0u, 1000u, 7u, 7u, 3u}) doc.AddTerm(t);
  doc.AddTerm(3, 4);
  using Entry = std::pair<TermId, uint32_t>;
  std::vector<Entry> expected = {{0, 1}, {3, 5}, {7, 3}, {50, 2}, {1000, 1}};
  std::vector<Entry> seen(doc.terms().begin(), doc.terms().end());
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(doc.DistinctTerms(), 5u);
  EXPECT_EQ(doc.Length(), 12u);
  EXPECT_EQ(doc.TermFrequency(3), 5u);
  EXPECT_EQ(doc.TermFrequency(4), 0u);
  EXPECT_EQ(doc.TermFrequency(2000), 0u);
}

TEST(DocumentTest, ZeroCountAddIsNoop) {
  Document doc(0, 1);
  doc.AddTerm(10, 0);
  EXPECT_EQ(doc.Length(), 0u);
  EXPECT_EQ(doc.DistinctTerms(), 0u);
}

TEST(DocumentTest, RelevanceScoreIsEquation4) {
  // rscore(q, d) = TF_q / |d|  (Equation 4).
  Document doc(0, 1);
  doc.AddTerm(1, 3);
  doc.AddTerm(2, 9);
  EXPECT_DOUBLE_EQ(doc.RelevanceScore(1), 3.0 / 12.0);
  EXPECT_DOUBLE_EQ(doc.RelevanceScore(2), 9.0 / 12.0);
  EXPECT_DOUBLE_EQ(doc.RelevanceScore(3), 0.0);
}

TEST(DocumentTest, EmptyDocumentScoresZero) {
  Document doc(0, 1);
  EXPECT_DOUBLE_EQ(doc.RelevanceScore(1), 0.0);
}

TEST(CorpusTest, AddDocumentTokensInterns) {
  Corpus corpus;
  DocId id = corpus.AddDocumentTokens({"apple", "banana", "apple"}, 7);
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(corpus.NumDocuments(), 1u);
  auto doc = corpus.GetDocument(id);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->group(), 7u);
  EXPECT_EQ((*doc)->Length(), 3u);
  TermId apple = corpus.vocabulary().Lookup("apple");
  ASSERT_NE(apple, kInvalidTermId);
  EXPECT_EQ((*doc)->TermFrequency(apple), 2u);
}

TEST(CorpusTest, AddDocumentTextTokenizes) {
  Corpus corpus;
  Tokenizer tokenizer;
  corpus.AddDocumentText("The imClone report, the compound!", 1, tokenizer);
  TermId imclone = corpus.vocabulary().Lookup("imclone");
  ASSERT_NE(imclone, kInvalidTermId);
  EXPECT_EQ(corpus.DocumentFrequency(imclone), 1u);
}

TEST(CorpusTest, DocumentFrequencyCountsDocsNotOccurrences) {
  Corpus corpus;
  corpus.AddDocumentTokens({"and", "and", "and", "imclone"}, 1);
  corpus.AddDocumentTokens({"and"}, 1);
  TermId and_id = corpus.vocabulary().Lookup("and");
  TermId imclone = corpus.vocabulary().Lookup("imclone");
  EXPECT_EQ(corpus.DocumentFrequency(and_id), 2u);   // 2 docs, not 4 occurrences
  EXPECT_EQ(corpus.DocumentFrequency(imclone), 1u);
  EXPECT_EQ(corpus.TotalPostings(), 3u);  // (and,d0),(imclone,d0),(and,d1)
}

TEST(CorpusTest, TermProbabilityIsNormalizedDocumentFrequency) {
  // Definition 2's p_t: share of all posting elements belonging to t.
  Corpus corpus;
  corpus.AddDocumentTokens({"a", "b"}, 1);
  corpus.AddDocumentTokens({"a", "c"}, 1);
  TermId a = corpus.vocabulary().Lookup("a");
  TermId b = corpus.vocabulary().Lookup("b");
  // postings: a:2, b:1, c:1 => total 4.
  EXPECT_DOUBLE_EQ(corpus.TermProbability(a), 0.5);
  EXPECT_DOUBLE_EQ(corpus.TermProbability(b), 0.25);
  EXPECT_DOUBLE_EQ(corpus.TermProbability(kInvalidTermId), 0.0);
}

TEST(CorpusTest, TermProbabilitiesSumToOne) {
  Corpus corpus;
  corpus.AddDocumentTokens({"x", "y", "z"}, 1);
  corpus.AddDocumentTokens({"x", "w"}, 2);
  double total = 0.0;
  for (TermId t : corpus.vocabulary().AllTermIds()) {
    total += corpus.TermProbability(t);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(CorpusTest, EmptyCorpusProbabilityZero) {
  Corpus corpus;
  EXPECT_DOUBLE_EQ(corpus.TermProbability(0), 0.0);
}

TEST(CorpusTest, GetDocumentOutOfRange) {
  Corpus corpus;
  EXPECT_TRUE(corpus.GetDocument(0).status().IsOutOfRange());
  corpus.AddDocumentTokens({"a", "b"}, 1);
  EXPECT_TRUE(corpus.GetDocument(1).status().IsOutOfRange());
  EXPECT_TRUE(corpus.GetDocument(0).ok());
}

TEST(CorpusTest, AddDocumentCountsDirect) {
  Corpus corpus;
  TermId a = corpus.vocabulary().GetOrAdd("a");
  TermId b = corpus.vocabulary().GetOrAdd("b");
  DocId id = corpus.AddDocumentCounts({{a, 5}, {b, 2}}, 3);
  auto doc = corpus.GetDocument(id);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->Length(), 7u);
  EXPECT_EQ((*doc)->TermFrequency(a), 5u);
  EXPECT_EQ(corpus.DocumentFrequency(a), 1u);
}

}  // namespace
}  // namespace zr::text
