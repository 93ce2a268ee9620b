#include "dht/sim.h"

#include <cassert>
#include <cerrno>
#include <cstdlib>

#include "common/check.h"

namespace mlight::dht {

namespace {
/// Strict decimal parse shared by the scheduler env knobs: strtoull alone
/// would accept "17x" (trailing garbage), " 17", "-1" (wraps), and
/// saturate on overflow — all silent wrong-config runs.  Mirrors the
/// MLIGHT_FAULT_SEED fix: only an exact digit string parses, anything
/// else fails loudly instead of silently running the fallback config.
std::uint64_t strictDecimalEnv(const char* raw, const char* what) {
  for (const char* p = raw; *p != '\0'; ++p) {
    MLIGHT_CHECK(*p >= '0' && *p <= '9', what);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  MLIGHT_CHECK(end != raw && *end == '\0', what);
  MLIGHT_CHECK(errno != ERANGE, what);
  return static_cast<std::uint64_t>(value);
}
}  // namespace

std::uint64_t schedShuffleSeedFromEnv(std::uint64_t fallback) {
  const char* raw = std::getenv("MLIGHT_SCHED_SHUFFLE_SEED");
  if (raw == nullptr || *raw == '\0') return fallback;
  return strictDecimalEnv(
      raw, "MLIGHT_SCHED_SHUFFLE_SEED must be a plain decimal integer");
}

std::size_t simShardsFromEnv(std::size_t fallback) {
  const char* raw = std::getenv("MLIGHT_SIM_SHARDS");
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::uint64_t value = strictDecimalEnv(
      raw, "MLIGHT_SIM_SHARDS must be a plain decimal integer");
  // 0 shards is not a sharding choice, it is a typo: fail like any other
  // malformed value instead of silently running the fallback executor.
  MLIGHT_CHECK(value != 0, "MLIGHT_SIM_SHARDS must be >= 1");
  return value > 64 ? 64 : static_cast<std::size_t>(value);
}

namespace {
/// splitmix64 finalizer: a bijective mix of (seed, seq), so shuffled tie
/// keys are distinct whenever sequence numbers are — the `seq` fallback
/// in the comparator never actually fires.
std::uint64_t mixTie(std::uint64_t seed, std::uint64_t seq) noexcept {
  std::uint64_t z = seq + seed * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

std::uint64_t SimScheduler::scheduleOn(std::uint32_t shard, double at, Fn fn,
                                       PrepFn prep) {
  const std::uint64_t seq = nextSeq_++;
  const std::uint64_t tie =
      shuffleSeed_ == 0 ? seq : mixTie(shuffleSeed_, seq);
  std::uint32_t slot;
  if (freeSlots_.empty()) {
    MLIGHT_CHECK(slots_.size() < (std::size_t{1} << kSlotBits),
                 "SimScheduler: too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.prep = std::move(prep);
  s.seq = seq;
  std::vector<Event>& heap =
      shardHeaps_[shard < shardHeaps_.size() ? shard : 0];
  // Skip the initial capacity ramp (1, 2, 4, ...): even a single RPC
  // schedules a handful of events, and the heap never shrinks, so one
  // up-front block makes steady-state scheduling allocation-free.
  if (heap.capacity() == 0) heap.reserve(64);
  heap.push_back(Event{std::max(at, clock_.now()), tie, seq, slot});
  std::push_heap(heap.begin(), heap.end(), Later{});
  return (seq << kSlotBits) | slot;
}

void SimScheduler::cancel(std::uint64_t id) {
  const std::size_t slot = id & ((std::uint64_t{1} << kSlotBits) - 1);
  if (slot < slots_.size() && slots_[slot].seq == id >> kSlotBits) {
    freeSlot(static_cast<std::uint32_t>(slot));
  }
}

void SimScheduler::freeSlot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.prep = nullptr;
  s.seq = kFreeSlot;
  freeSlots_.push_back(slot);
}

SimScheduler::Fn SimScheduler::takeHandler(const Event& ev) {
  Fn fn = std::move(slots_[ev.slot].fn);
  freeSlot(ev.slot);
  return fn;
}

void SimScheduler::setShardCount(std::size_t n) {
  if (n == 0) n = 1;
  if (n == shardHeaps_.size()) return;
  assert(pending() == 0 && "setShardCount needs a quiet scheduler");
  stopWorkers();
  shardHeaps_.assign(n, {});
  batches_.assign(n, {});
  applyQueue_.clear();
  applyQueueHead_ = 0;
  if (n > 1) startWorkers();
}

void SimScheduler::startWorkers() {
  poolStop_ = false;
  workers_.reserve(shardHeaps_.size() - 1);
  for (std::size_t s = 1; s < shardHeaps_.size(); ++s) {
    workers_.emplace_back([this, s] { workerLoop(s); });
  }
}

void SimScheduler::stopWorkers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(poolMutex_);
    poolStop_ = true;
  }
  poolStart_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void SimScheduler::workerLoop(std::size_t shard) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(poolMutex_);
      poolStart_.wait(lk,
                      [&] { return poolStop_ || poolGeneration_ != seen; });
      if (poolStop_) return;
      seen = poolGeneration_;
    }
    drainShardWindow(shard);
    {
      std::lock_guard<std::mutex> lk(poolMutex_);
      --pendingWorkers_;
    }
    poolDone_.notify_one();
  }
}

void SimScheduler::drainShardWindow(std::size_t shard) {
  std::vector<Event>& heap = shardHeaps_[shard];
  Batch& batch = batches_[shard];
  while (!heap.empty() && heap.front().at < windowEnd_) {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const Event ev = heap.back();
    heap.pop_back();
    // The slot table is read-only for the coordinator while it waits at
    // the barrier, and each live event's slot belongs to this shard
    // alone.  A cancelled record's slot may already serve another
    // event (possibly another shard's), so its prep must not run here.
    Slot& slot = slots_[ev.slot];
    if (slot.seq == ev.seq && slot.prep) {
      slot.prep();
      slot.prep = nullptr;
      ++batch.preps;
    }
    batch.events.push_back(ev);
  }
}

void SimScheduler::refillWindow() {
  // Globally earliest pending time across the shard queues.
  bool any = false;
  double start = 0.0;
  for (const auto& heap : shardHeaps_) {
    if (heap.empty()) continue;
    if (!any || heap.front().at < start) start = heap.front().at;
    any = true;
  }
  if (!any) return;
  windowEnd_ = start + lookaheadMs_;
  ++windowCount_;

  // Parallel prep phase: shard 0 on this (coordinator) thread, the rest
  // on their workers.  Workers touch only shardHeaps_[s]/batches_[s];
  // the coordinator blocks until every shard reports done, so the apply
  // phase below observes all batches with a happens-before edge.
  {
    std::lock_guard<std::mutex> lk(poolMutex_);
    pendingWorkers_ = shardHeaps_.size() - 1;
    ++poolGeneration_;
  }
  poolStart_.notify_all();
  drainShardWindow(0);
  {
    std::unique_lock<std::mutex> lk(poolMutex_);
    poolDone_.wait(lk, [&] { return pendingWorkers_ == 0; });
  }

  // Barrier merge: the shard batches are each ascending; merge them
  // into the apply queue in canonical global (time, tie, seq) order.
  // refillWindow() only runs with the previous window fully consumed.
  applyQueue_.clear();
  applyQueueHead_ = 0;
  for (Batch& b : batches_) {
    applyQueue_.insert(applyQueue_.end(), b.events.begin(), b.events.end());
    b.events.clear();
  }
  std::sort(applyQueue_.begin(), applyQueue_.end(),
            [](const Event& a, const Event& b) { return firesBefore(a, b); });
}

bool SimScheduler::popNext(Event& out) {
  for (;;) {
    // Candidate: the window batch cursor vs every shard heap front —
    // a heap can hold an event that sorts before the batched ones when
    // an applied handler scheduled into the open window (the serial
    // executor would have run it first, so we must too).
    const Event* best = nullptr;
    std::size_t bestShard = shardHeaps_.size();  // sentinel: from batch
    if (applyQueueHead_ < applyQueue_.size()) {
      best = &applyQueue_[applyQueueHead_];
    }
    for (std::size_t s = 0; s < shardHeaps_.size(); ++s) {
      const auto& heap = shardHeaps_[s];
      if (heap.empty()) continue;
      if (best == nullptr || firesBefore(heap.front(), *best)) {
        best = &heap.front();
        bestShard = s;
      }
    }
    if (best == nullptr) return false;
    if (bestShard == shardHeaps_.size()) {
      out = applyQueue_[applyQueueHead_];
      ++applyQueueHead_;
    } else {
      auto& heap = shardHeaps_[bestShard];
      std::pop_heap(heap.begin(), heap.end(), Later{});
      out = heap.back();
      heap.pop_back();
    }
    if (!live(out)) continue;  // cancelled: discarded
    return true;
  }
}

bool SimScheduler::runOne() {
  // Serial fast path: one shard, no staged batch — the legacy executor,
  // byte-identical behavior and cost.
  if (shardHeaps_.size() == 1 && applyQueue_.size() == applyQueueHead_) {
    std::vector<Event>& heap = shardHeaps_[0];
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), Later{});
      const Event ev = heap.back();
      heap.pop_back();
      if (!live(ev)) continue;  // cancelled: discarded, clock untouched
      // A reorderable tie: another live event with the same timestamp is
      // still pending, so the tie-break genuinely chose between the two.
      // (An event scheduled *by* an earlier handler at the same timestamp
      // is causally ordered — it never coexisted with its parent in the
      // heap — and does not count: shuffling cannot reorder causality.)
      if (!heap.empty() && heap.front().at == ev.at && live(heap.front())) {
        ++tieDeliveries_;
      }
      clock_.advanceTo(ev.at);
      takeHandler(ev)();
      return true;
    }
    return false;
  }

  Event ev;
  if (!popNext(ev)) return false;
  // Same reorderable-tie witness as the serial path, against the next
  // live pending event wherever it sits (batch cursor or a shard heap).
  const Event* next = nullptr;
  if (applyQueueHead_ < applyQueue_.size()) {
    next = &applyQueue_[applyQueueHead_];
  }
  for (const auto& heap : shardHeaps_) {
    if (heap.empty()) continue;
    if (next == nullptr || firesBefore(heap.front(), *next)) {
      next = &heap.front();
    }
  }
  if (next != nullptr && next->at == ev.at && live(*next)) {
    ++tieDeliveries_;
  }
  clock_.advanceTo(ev.at);
  takeHandler(ev)();
  return true;
}

void SimScheduler::run() {
  if (shardHeaps_.size() == 1) {
    while (runOne()) {
    }
    return;
  }
  // Conservative time-window executor: batch + prep a window in
  // parallel whenever the staged queue runs dry, then apply in global
  // order.  Re-entrant like the serial loop — an applied handler that
  // calls run() drains the staged queue itself and the outer loop ends
  // on an empty scheduler.
  for (;;) {
    if (applyQueueHead_ == applyQueue_.size()) refillWindow();
    if (!runOne()) return;
  }
}

}  // namespace mlight::dht
