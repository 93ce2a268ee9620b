// Lint fixture twin: the same DET-A pattern, waived with DET-ALLOW —
// MUST pass clean.  Never compiled — lint fodder only.
#include <cstddef>
#include <unordered_map>

#include "common/flat_label_map.h"

class AllowedIteration {
 public:
  std::size_t keySum() const {
    std::size_t sum = 0;
    // DET-ALLOW(commutative integer sum; order cannot affect the result)
    for (const auto& [key, value] : entries_) sum += key;
    return sum;
  }

  std::size_t labelBits() const {
    std::size_t bits = 0;
    // DET-ALLOW(commutative integer sum; order cannot affect the result)
    for (const auto& [label, value] : labels_) bits += label.size();
    return bits;
  }

 private:
  std::unordered_map<std::size_t, int> entries_;
  mlight::common::FlatLabelMap<int> labels_;
};
