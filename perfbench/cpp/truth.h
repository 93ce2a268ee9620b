// Independent answers for the correctness checks: a scan of the
// generated records (sorted by x so the check costs a strip, not the
// whole set), never the index under test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "index/record.h"

namespace perfbench {

class RangeTruth {
 public:
  /// `records` must be a generator's output: record i has id i.
  explicit RangeTruth(const std::vector<mlight::index::Record>& records)
      : records_(&records), stamp_(records.size(), 0) {
    order_.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].id != i) throw std::logic_error("ids are not 0..n-1");
      order_.push_back(i);
    }
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return records[a].key[0] < records[b].key[0];
    });
  }

  /// Empty string when `got` is exactly the set of records inside the
  /// half-open box `r`, with no duplicates; otherwise what is wrong.
  std::string check(const mlight::common::Rect& r,
                    const std::vector<mlight::index::Record>& got) {
    // stamp_[id] == wanted: inside r, not yet seen; == seen: answered.
    epoch_ += 2;
    const std::uint64_t wanted = epoch_;
    const std::uint64_t seen = epoch_ + 1;
    const auto& recs = *records_;
    std::size_t want = 0;
    auto it = std::lower_bound(
        order_.begin(), order_.end(), r.lo()[0],
        [&](std::size_t i, double x) { return recs[i].key[0] < x; });
    for (; it != order_.end() && recs[*it].key[0] < r.hi()[0]; ++it) {
      if (inside(r, recs[*it].key)) {
        stamp_[*it] = wanted;
        ++want;
      }
    }
    for (const auto& rec : got) {
      if (!inside(r, rec.key)) return "record outside the queried box";
      if (rec.id >= stamp_.size() || recs[rec.id].key != rec.key) {
        return "record unknown to the generator";
      }
      if (stamp_[rec.id] == seen) return "duplicate record in answer";
      stamp_[rec.id] = seen;
    }
    if (got.size() != want) {
      return "answer has " + std::to_string(got.size()) + " records, scan " +
             std::to_string(want);
    }
    return {};
  }

 private:
  static bool inside(const mlight::common::Rect& r,
                     const mlight::common::Point& p) {
    for (std::size_t d = 0; d < r.dims(); ++d) {
      if (p[d] < r.lo()[d] || p[d] >= r.hi()[d]) return false;
    }
    return true;
  }

  const std::vector<mlight::index::Record>* records_;
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

/// True when a point read answered with the record it was asked for.
inline bool holds(const std::vector<mlight::index::Record>& got,
                  const mlight::index::Record& want) {
  return std::any_of(got.begin(), got.end(), [&](const auto& r) {
    return r.id == want.id && r.key == want.key;
  });
}

}  // namespace perfbench
