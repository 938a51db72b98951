// The event queue at the heart of the discrete-event simulation.
//
// Events are (time, sequence, callback) triples ordered by time and, for
// equal times, by insertion order — guaranteeing deterministic execution.
//
// Storage is allocation-free in steady state: callbacks live in pooled
// slots (small-buffer callables, no std::function) inside fixed-size chunks
// that never move, so a callback runs in place even while it schedules
// more events. The priority structure is an indexed 4-ary heap of 24-byte
// POD entries holding live events only: each slot records its heap
// position, so reschedule re-keys and cancel removes an entry in place.
// Handles are (slot, generation) pairs. A slab can be donated via
// EventQueue::Arena so back-to-back simulations (the experiment runner's
// per-worker loop) reuse the same memory.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/inline_fn.h"
#include "simcore/time.h"

namespace vafs::sim {

/// Event callbacks: move-only, 64 bytes of inline capture storage — enough
/// for every callback in the pipeline (heap fallback beyond that).
using EventFn = InlineFunction<64>;

class EventQueue;

/// Handle to a scheduled event; allows cancellation. Copyable and cheap.
/// A default-constructed handle refers to no event. A handle must not be
/// used after its EventQueue is destroyed (components always die with or
/// before their Simulator, which owns the queue).
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Safe to call repeatedly
  /// and on empty handles. For a periodic series, cancels the series.
  void cancel();

  /// True if the handle refers to an event that is still pending. A
  /// one-shot event stops being pending when it starts firing; a periodic
  /// series stays pending until cancelled.
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Min-heap of timed events with stable ordering for simultaneous events.
class EventQueue {
 private:
  /// Per-slot bookkeeping, dense by slot index. The callback itself lives
  /// in the chunked storage (fn()), whose addresses never change.
  struct Meta {
    SimTime period;          // nonzero => periodic series
    std::uint32_t gen = 0;   // bumped when the event dies; validates handles
    std::uint32_t pos = 0;   // heap index while the event is live
  };
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kChunkShift = 6;  // 64 callbacks per chunk
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

 public:
  /// Reusable slab + heap storage. Donate one arena to at most one live
  /// EventQueue at a time; capacity survives queue destruction, so a
  /// worker running thousands of back-to-back sessions allocates only
  /// during the first.
  class Arena {
   public:
    Arena() = default;
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

   private:
    friend class EventQueue;
    std::vector<std::unique_ptr<EventFn[]>> chunks_;
    std::vector<Meta> meta_;
    std::vector<HeapEntry> heap_;
    std::vector<std::uint32_t> free_;
  };

  explicit EventQueue(Arena* arena = nullptr);
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `when`. `when` must not be
  /// earlier than the last fired event (checked by Simulator).
  EventHandle schedule(SimTime when, EventFn fn);

  /// Schedules a periodic series: first firing at `first`, then every
  /// `period` after each firing. The handle cancels the whole series.
  EventHandle schedule_periodic(SimTime first, SimTime period, EventFn fn);

  /// Moves a still-pending event to `when`, keeping its callback (the
  /// allocation-free form of cancel + re-schedule with the same lambda).
  /// The event is re-sequenced as if newly scheduled. Returns false — and
  /// does nothing — if the handle is empty, fired or cancelled. A periodic
  /// series that reschedules itself from its own callback is re-armed one
  /// period after the firing regardless.
  bool reschedule(const EventHandle& h, SimTime when);

  /// True if no event is pending. During a periodic callback the firing
  /// series itself is still pending.
  bool empty() const { return heap_.empty(); }

  /// Time of the earliest pending event. Requires !empty().
  SimTime next_time() const {
    assert(!heap_.empty());
    return heap_.front().time;
  }

  /// Fires the earliest event if it is due no later than `deadline`: sets
  /// `*clock` to its time, then runs its callback in place. A one-shot
  /// event leaves the heap before its callback runs and its slot is freed
  /// after; a periodic series stays at the root while its callback runs
  /// (everything the callback schedules orders after it) and is then
  /// re-keyed one period later. Returns false if nothing was due.
  bool fire_next(SimTime deadline, SimTime* clock);

  /// Number of entries in the heap — exactly the pending events. For
  /// tests and introspection only.
  std::size_t raw_size() const { return heap_.size(); }
  /// Total slots in the slab (live + free). For tests.
  std::size_t slab_size() const { return meta_.size(); }

 private:
  friend class EventHandle;

  bool slot_matches(std::uint32_t slot, std::uint32_t gen) const {
    return slot < meta_.size() && meta_[slot].gen == gen;
  }
  EventFn& fn(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & ((1u << kChunkShift) - 1)];
  }
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  std::uint32_t alloc_slot();
  /// Returns a dead slot's callback and index to the pool.
  void release(std::uint32_t slot);
  EventHandle arm(SimTime when, SimTime period, EventFn&& fn);

  /// Heap ops on the 4-ary implicit heap (children of i: 4i+1 .. 4i+4).
  /// Every move records the entry's new position in its slot.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    meta_[e.slot].pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, HeapEntry e);
  void sift_down(std::size_t i, HeapEntry e);
  /// Stores `e` at position i and restores heap order in either direction.
  void update(std::size_t i, const HeapEntry& e);
  void remove_at(std::size_t i);

  Arena* arena_ = nullptr;
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<Meta> meta_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t firing_ = kNoSlot;  // slot whose callback is running
};

}  // namespace vafs::sim
