#include "text/document.h"

#include <algorithm>

namespace zr::text {

namespace {

// First entry whose term id is not less than `term`.
template <typename Vec>
auto LowerBound(Vec& tf, TermId term) {
  return std::lower_bound(
      tf.begin(), tf.end(), term,
      [](const auto& entry, TermId t) { return entry.first < t; });
}

}  // namespace

void Document::AddTerm(TermId term, uint32_t count) {
  if (count == 0) return;
  auto it = LowerBound(tf_, term);
  if (it != tf_.end() && it->first == term) {
    it->second += count;
  } else {
    tf_.emplace(it, term, count);
  }
  length_ += count;
}

uint32_t Document::TermFrequency(TermId term) const {
  auto it = LowerBound(tf_, term);
  return it != tf_.end() && it->first == term ? it->second : 0;
}

double Document::RelevanceScore(TermId term) const {
  if (length_ == 0) return 0.0;
  uint32_t tf = TermFrequency(term);
  return static_cast<double>(tf) / static_cast<double>(length_);
}

}  // namespace zr::text
