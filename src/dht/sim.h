// Discrete-event simulation core for the DHT overlay.
//
// The paper's latency metric is *rounds of DHT-lookups* executed by real
// peers exchanging real messages over Bamboo.  Instead of computing that
// analytically per forwarding wave, the Network schedules every RPC as a
// timestamped delivery on this scheduler and the timeline — clock
// advances, per-peer send-queue serialization, parallel link overlap —
// emerges from execution.  Indexes pump the loop to completion via the
// synchronous facade.
//
// Determinism contract: events fire in (time, sequence) order, where the
// sequence number is assigned at schedule time.  Two runs that schedule
// the same callbacks at the same times execute them in the same order,
// which is what makes whole-workload replay byte-exact (see
// tests/integration/replay_test.cpp).
//
// Schedule perturbation (determinism certification): the contract above
// also says that *no simulation-visible state may depend on the relative
// order of same-time events* — only the (commutative) union of their
// effects.  MLIGHT_SCHED_SHUFFLE_SEED (or setTieShuffleSeed) replaces
// the same-time tie-break with a seeded pseudo-random permutation of the
// sequence numbers: the timeline stays a deterministic pure function of
// (workload, shuffle seed), but same-time ties deliver in a different —
// still fixed — order.  State digests (common/digest.h) must be
// bit-identical across shuffle seeds; tests/determinism/ enforces it.
// Seed 0 (the default) disables the shuffle and is byte-identical to a
// build without this mechanism.
//
// Sharded execution (MLIGHT_SIM_SHARDS / setShardCount): peers are
// partitioned into N shards and each shard owns a local (time, tie, seq)
// ordered queue.  run() becomes a conservative time-window executor:
// it picks the globally earliest pending time T, opens the window
// [T, T+Δ) (Δ = the lookahead installed via setLookaheadMs, normally the
// latency model's minimum link latency), and lets one worker thread per
// shard drain its own queue up to the window end — running each event's
// *prep* stage (wire decode, a pure function of bytes fixed at schedule
// time) in parallel.  At the window barrier the shard batches are merged
// in the canonical global (time, tie, seq) order and *applied* one by
// one on the coordinator thread.  Events scheduled during application
// (every handler runs during application) are posted to the owning
// shard's queue — the mailbox — and the executor re-checks the queue
// fronts before every apply, so a late event that sorts before the next
// batched one runs first, exactly as it would have serially.
//
// Because the sequence counter is only ever advanced on the coordinator
// (scheduling happens at issue time or inside applied handlers, never in
// a prep worker), the global (time, tie, seq) apply order is the *same
// total order for every shard count* — N=1 and N=8 are bit-identical,
// not merely digest-equal.  The digest-equality matrix in
// tests/determinism/ certifies the observable half of that claim; the
// DET-E lint rule (scripts/lint_determinism.py) guards the structural
// half (no cross-shard shared mutable state reachable from handler
// code outside this mailbox protocol).  See docs/THEORY.md,
// "Sharded execution model".
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace mlight::dht {

/// Monotonic simulated clock (milliseconds).  Time only moves forward:
/// delivering an event stamped earlier than `now` runs it at `now`.
class SimClock {
 public:
  double now() const noexcept { return now_; }
  void advanceTo(double t) noexcept { now_ = std::max(now_, t); }

 private:
  double now_ = 0.0;
};

/// Priority event queue + clock.  The apply path is single-threaded by
/// contract (the coordinator); only the window prep phase fans out to
/// shard workers, and those never touch simulation state.
/// Reads `MLIGHT_SCHED_SHUFFLE_SEED` from the environment (strict
/// decimal), falling back to `fallback` (0 = shuffle off) when
/// unset/empty — how the determinism CI job perturbs every scheduler in
/// a test binary without touching code.  Malformed values throw
/// common::CheckFailure (same contract as dht::faultSeedFromEnv) instead
/// of silently running the unshuffled schedule.
std::uint64_t schedShuffleSeedFromEnv(std::uint64_t fallback = 0);

/// Reads `MLIGHT_SIM_SHARDS` from the environment (strict decimal,
/// clamped to [1, 64]), falling back to `fallback` when unset/empty —
/// how CI runs the whole suite under the sharded executor without
/// touching code.  Malformed values and 0 throw common::CheckFailure
/// instead of silently running the serial executor.
std::size_t simShardsFromEnv(std::size_t fallback = 1);

class SimScheduler {
 public:
  using Fn = std::function<void()>;
  /// Window prep stage: runs on the owning shard's worker thread during
  /// the parallel phase of a window.  Must be a pure function of state
  /// fixed at schedule time (e.g. decoding an immutable wire image into
  /// a per-event staging area) — it must not read or write any
  /// simulation-visible state shared with another shard.
  using PrepFn = std::function<void()>;

  SimScheduler()
      : shardHeaps_(1), shuffleSeed_(schedShuffleSeedFromEnv()), batches_(1) {}
  ~SimScheduler() { stopWorkers(); }

  SimScheduler(const SimScheduler&) = delete;
  SimScheduler& operator=(const SimScheduler&) = delete;

  double now() const noexcept { return clock_.now(); }

  /// Installs the same-time tie-break shuffle seed (0 = off, the
  /// default order: ties fire in schedule order).  Only affects events
  /// scheduled after the call; tests install it on a quiet scheduler.
  void setTieShuffleSeed(std::uint64_t seed) noexcept { shuffleSeed_ = seed; }
  std::uint64_t tieShuffleSeed() const noexcept { return shuffleSeed_; }

  /// Deliveries where another live event with the same timestamp was
  /// still pending — ties the shuffle could genuinely reorder (same-time
  /// events in a causal chain never coexist in the heap and don't
  /// count).  A perturbation test asserts this is nonzero for its
  /// workload, otherwise shuffling proved nothing.
  std::uint64_t tieDeliveries() const noexcept { return tieDeliveries_; }

  // --- Sharding ---------------------------------------------------------

  /// Partitions the event queue into `n` shards (1 = the serial
  /// executor, the default) and spawns one prep worker thread per extra
  /// shard.  Call on a quiet scheduler, before traffic; the Network
  /// forwards MLIGHT_SIM_SHARDS here and maps peers to shards.
  void setShardCount(std::size_t n);
  std::size_t shardCount() const noexcept { return shardHeaps_.size(); }

  /// Conservative window width Δ for the sharded executor (ms); the
  /// Network installs its latency model's minimum link latency.  Values
  /// <= 0 fall back to 1 ms.  Any positive Δ is *correct* (apply order
  /// is globally merged regardless); Δ only controls how much prep work
  /// a window can batch.
  void setLookaheadMs(double delta) noexcept {
    lookaheadMs_ = delta > 0.0 ? delta : 1.0;
  }
  double lookaheadMs() const noexcept { return lookaheadMs_; }

  /// Schedules `fn` to run at simulated time `at` (clamped to `now`) on
  /// shard 0.  Returns the event's id for cancel(): its sequence number
  /// (global issue order) above the low kSlotBits bits, its closure
  /// slot in them.
  ///
  /// The heaps order 32-byte {at, tie, seq, slot} records; the closures
  /// live in a slot table recycled through a free list, so sifting
  /// never moves a std::function and scheduling is allocation-free once
  /// the tables have grown — *provided the closure fits
  /// std::function's inline buffer* (two pointers on libstdc++).  Hot
  /// paths keep to that budget by parking their per-event state in
  /// pooled slots and capturing only an owner pointer plus a slot index
  /// (see Network's delivery slots); cold paths (fault injection) may
  /// capture freely.
  std::uint64_t schedule(double at, Fn fn) {
    return scheduleOn(0, at, std::move(fn), nullptr);
  }

  /// Shard-aware schedule: the event executes at a peer owned by shard
  /// `shard` (the mailbox post).  `prep` optionally stages decode work
  /// for the parallel window phase; it may be dropped (never run) when
  /// the event fires before a window batches it, so correctness must
  /// not depend on it running.
  std::uint64_t scheduleOn(std::uint32_t shard, double at, Fn fn,
                           PrepFn prep = nullptr);

  /// Delivers the next event in global (time, tie, seq) order, advancing
  /// the clock to its timestamp.  Returns false when the queue is empty.
  bool runOne();

  /// Cancels a still-pending event by the id scheduleOn() returned.  Its
  /// closures are destroyed and its slot freed at once; the heap record
  /// left behind no longer matches its slot's owner, so it is discarded
  /// when it surfaces — it neither runs nor advances the clock, and
  /// cancelling an RPC timeout after an early delivery leaves the
  /// timeline exactly as if the timeout never existed.  Cancelling an
  /// event that already ran (or was already cancelled) is a no-op.
  void cancel(std::uint64_t id);

  /// Pumps the queue dry.  Re-entrant: a callback may itself call run()
  /// (the synchronous store facade does) — the inner call drains the
  /// queue (windowed batch included) and the outer loop simply finds it
  /// empty.  With more than one shard this is the conservative
  /// time-window executor described in the header comment.
  void run();

  std::size_t pending() const noexcept {
    return slots_.size() - freeSlots_.size();
  }

  /// Closure slots ever allocated (live + free) — the slot table's high
  /// water mark, bounded by the peak number of pending events.
  std::size_t slotCapacity() const noexcept { return slots_.size(); }

  /// Total events ever scheduled (timeline fingerprint for replay tests).
  std::uint64_t scheduledCount() const noexcept { return nextSeq_; }

  /// Windows the sharded executor has opened (0 under the serial path) —
  /// a witness that the parallel machinery actually engaged.
  std::uint64_t windowCount() const noexcept { return windowCount_; }
  /// Prep stages executed by shard workers during window phases,
  /// summed in shard order (worker-thread work witness for the TSan CI
  /// job and the shard matrix test).
  std::uint64_t parallelPreps() const noexcept {
    std::uint64_t n = 0;
    for (const auto& b : batches_) n += b.preps;
    return n;
  }

  /// Low bits of an event id that carry its slot (see schedule()).
  static constexpr unsigned kSlotBits = 24;

 private:
  /// Heap record of one scheduled event.  The closures sit in
  /// slots_[slot]; the record is live while that slot's `seq` is its own.
  struct Event {
    double at = 0.0;
    /// Tie-break key among same-time events: equal to `seq` when the
    /// shuffle is off, a seeded permutation of it when on.
    std::uint64_t tie = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  static_assert(sizeof(Event) == 32);
  /// Closure storage of one pending event.  `seq` names the event that
  /// owns the slot (kFreeSlot while on the free list); a heap record
  /// whose seq differs was cancelled and its slot possibly reused.
  struct Slot {
    Fn fn;
    PrepFn prep;
    std::uint64_t seq = kFreeSlot;
  };
  static constexpr std::uint64_t kFreeSlot = ~std::uint64_t{0};

  bool live(const Event& ev) const noexcept {
    return slots_[ev.slot].seq == ev.seq;
  }
  /// Moves the event's handler out, frees its slot, and returns the
  /// handler (the slot table may grow while it runs).
  Fn takeHandler(const Event& ev);
  void freeSlot(std::uint32_t slot) noexcept;
  /// std::push_heap keeps the *greatest* element on top, so "greater"
  /// here means "fires later": min-(time, tie, seq) ends up at the
  /// front.  `seq` backs up `tie` so the order is total even if the
  /// shuffle hash ever collided.
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };
  /// True when a sorts strictly before b in apply order.
  static bool firesBefore(const Event& a, const Event& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    if (a.tie != b.tie) return a.tie < b.tie;
    return a.seq < b.seq;
  }

  /// Per-shard window batch: events popped by this shard's worker for
  /// the current window, ascending in (at, tie, seq).
  struct Batch {
    std::vector<Event> events;
    std::uint64_t preps = 0;
    // False sharing between adjacent batches is tolerable: workers
    // touch their batch only during the prep phase, the coordinator
    // only after the barrier.
  };

  /// Picks the next live event in global order (shard heap fronts +
  /// window batch cursors), pops it, and returns true; false when empty.
  bool popNext(Event& out);
  void refillWindow();
  void startWorkers();
  void stopWorkers();
  void workerLoop(std::size_t shard);
  /// Drains shard `s`'s heap into its batch up to `windowEnd_`, running
  /// prep stages.  Called on the shard's worker (shard 0: coordinator).
  void drainShardWindow(std::size_t shard);

  SimClock clock_;
  std::vector<std::vector<Event>> shardHeaps_;  // one min-heap per shard
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t shuffleSeed_ = 0;
  std::uint64_t tieDeliveries_ = 0;

  // Window executor state (coordinator-owned outside the prep phase).
  std::vector<Batch> batches_;
  // Legacy-compat apply staging: merged batch events awaiting apply
  // when shardCount() > 1.  Kept globally sorted; head index avoids
  // front erases.
  std::vector<Event> applyQueue_;
  std::size_t applyQueueHead_ = 0;
  double lookaheadMs_ = 1.0;
  double windowEnd_ = 0.0;
  std::uint64_t windowCount_ = 0;

  // Worker pool (only with shardCount() > 1).  The coordinator bumps
  // `generation` and waits for `pendingWorkers` to hit zero; workers
  // drain exactly their own shard.  All simulation state other than
  // shardHeaps_[s]/batches_[s] is off-limits inside the prep phase.
  std::vector<std::thread> workers_;
  std::mutex poolMutex_;
  std::condition_variable poolStart_;
  std::condition_variable poolDone_;
  std::uint64_t poolGeneration_ = 0;
  std::size_t pendingWorkers_ = 0;
  bool poolStop_ = false;
};

}  // namespace mlight::dht
