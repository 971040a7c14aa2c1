#include "ordering/relations.hpp"

namespace evord {

const char* to_string(Semantics semantics) {
  switch (semantics) {
    case Semantics::kInterleaving:
      return "interleaving";
    case Semantics::kCausal:
      return "causal";
    case Semantics::kInterval:
      return "interval";
  }
  return "?";
}

const char* to_string(RelationKind kind) {
  switch (kind) {
    case RelationKind::kMHB:
      return "MHB";
    case RelationKind::kCHB:
      return "CHB";
    case RelationKind::kMCW:
      return "MCW";
    case RelationKind::kCCW:
      return "CCW";
    case RelationKind::kMOW:
      return "MOW";
    case RelationKind::kCOW:
      return "COW";
  }
  return "?";
}

bool is_must_relation(RelationKind kind) {
  return kind == RelationKind::kMHB || kind == RelationKind::kMCW ||
         kind == RelationKind::kMOW;
}

std::size_t RelationMatrix::num_pairs() const {
  std::size_t n = 0;
  for (const DynamicBitset& row : rows_) n += row.count();
  return n;
}

void RelationMatrix::fill_off_diagonal() {
  for (std::size_t a = 0; a < rows_.size(); ++a) {
    rows_[a].set_all();
    rows_[a].reset(a);
  }
}

void RelationMatrix::clear() {
  for (DynamicBitset& row : rows_) row.reset_all();
}

bool RelationMatrix::subset_of(const RelationMatrix& o) const {
  if (size() != o.size()) return false;
  for (std::size_t a = 0; a < rows_.size(); ++a) {
    if (!rows_[a].is_subset_of(o.rows_[a])) return false;
  }
  return true;
}

std::uint64_t RelationMatrix::approx_bytes() const {
  std::uint64_t bytes =
      sizeof(RelationMatrix) + rows_.capacity() * sizeof(DynamicBitset);
  for (const DynamicBitset& row : rows_) {
    bytes += row.word_count() * sizeof(std::uint64_t);
  }
  return bytes;
}

std::uint64_t OrderingRelations::approx_bytes() const {
  std::uint64_t bytes = sizeof(OrderingRelations) + search.heap_bytes();
  for (const RelationMatrix& m : matrices) bytes += m.approx_bytes();
  return bytes;
}

}  // namespace evord
