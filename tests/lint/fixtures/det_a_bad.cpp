// Lint fixture: MUST trigger DET-A (iteration over an unordered
// container) and no other rule.  Never compiled — lint fodder only.
#include <cstddef>
#include <unordered_map>

#include "common/flat_label_map.h"

class BadIteration {
 public:
  std::size_t keySum() const {
    std::size_t sum = 0;
    for (const auto& [key, value] : entries_) sum += key;
    return sum;
  }

  // The flat label table walks its slot array: hash order too.
  std::size_t labelBits() const {
    std::size_t bits = 0;
    for (const auto& [label, value] : labels_) bits += label.size();
    return bits;
  }

 private:
  std::unordered_map<std::size_t, int> entries_;
  mlight::common::FlatLabelMap<int> labels_;
};
