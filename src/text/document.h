// Document model: a bag of term frequencies plus metadata.

#ifndef ZERBERR_TEXT_DOCUMENT_H_
#define ZERBERR_TEXT_DOCUMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "text/vocabulary.h"

namespace zr::text {

/// Document identifier, unique within a corpus.
using DocId = uint32_t;

/// A parsed document: term frequency vector + length + access-control group.
class Document {
 public:
  Document(DocId id, uint32_t group) : id_(id), group_(group) {}

  DocId id() const { return id_; }

  /// Collaboration group owning the document (drives ACLs, paper Section 2).
  uint32_t group() const { return group_; }

  /// Adds `count` occurrences of a term.
  void AddTerm(TermId term, uint32_t count = 1);

  /// Occurrences of `term` in this document (TF_q in Equation 3).
  uint32_t TermFrequency(TermId term) const;

  /// Document length |d| in tokens (Equation 3 denominator).
  uint64_t Length() const { return length_; }

  /// Number of distinct terms.
  size_t DistinctTerms() const { return tf_.size(); }

  /// Relevance score of a term for single-term queries (Equation 4):
  /// rscore(t, d) = TF_t / |d|. Returns 0 for absent terms or empty docs.
  double RelevanceScore(TermId term) const;

  /// All (term, frequency) pairs in ascending term-id order, one per
  /// distinct term.
  const std::vector<std::pair<TermId, uint32_t>>& terms() const { return tf_; }

 private:
  DocId id_;
  uint32_t group_;
  // Sorted by term id: a flat vector instead of a map node per term, since
  // a corpus holds one entry per (document, distinct term).
  std::vector<std::pair<TermId, uint32_t>> tf_;
  uint64_t length_ = 0;
};

}  // namespace zr::text

#endif  // ZERBERR_TEXT_DOCUMENT_H_
