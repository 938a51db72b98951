#include "simcore/event_queue.h"

#include <utility>

namespace vafs::sim {

void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel_slot(slot_, gen_);
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->slot_matches(slot_, gen_);
}

EventQueue::EventQueue(Arena* arena) : arena_(arena) {
  if (arena_ != nullptr) {
    chunks_ = std::move(arena_->chunks_);
    meta_ = std::move(arena_->meta_);
    heap_ = std::move(arena_->heap_);
    free_ = std::move(arena_->free_);
  }
}

EventQueue::~EventQueue() {
  if (arena_ != nullptr) {
    // Return the storage with its capacity; pending callbacks (and one
    // abandoned by a throwing callback) are destroyed, generations reset
    // with the slots.
    for (std::uint32_t i = 0; i < meta_.size(); ++i) fn(i).reset();
    meta_.clear();
    heap_.clear();
    free_.clear();
    arena_->chunks_ = std::move(chunks_);
    arena_->meta_ = std::move(meta_);
    arena_->heap_ = std::move(heap_);
    arena_->free_ = std::move(free_);
  }
}

std::uint32_t EventQueue::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(meta_.size());
  if ((idx >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<EventFn[]>(std::size_t{1} << kChunkShift));
  }
  meta_.emplace_back();
  return idx;
}

void EventQueue::release(std::uint32_t slot) {
  fn(slot).reset();  // release captures eagerly
  meta_[slot].period = SimTime::zero();
  free_.push_back(slot);
}

EventHandle EventQueue::arm(SimTime when, SimTime period, EventFn&& f) {
  const std::uint32_t idx = alloc_slot();
  fn(idx) = std::move(f);
  meta_[idx].period = period;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{when, next_seq_++, idx});
  return EventHandle(this, idx, meta_[idx].gen);
}

EventHandle EventQueue::schedule(SimTime when, EventFn fn) {
  return arm(when, SimTime::zero(), std::move(fn));
}

EventHandle EventQueue::schedule_periodic(SimTime first, SimTime period, EventFn fn) {
  assert(period > SimTime::zero());
  return arm(first, period, std::move(fn));
}

bool EventQueue::reschedule(const EventHandle& h, SimTime when) {
  if (h.queue_ != this || !slot_matches(h.slot_, h.gen_)) return false;
  update(meta_[h.slot_].pos, HeapEntry{when, next_seq_++, h.slot_});
  return true;
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_matches(slot, gen)) return;
  remove_at(meta_[slot].pos);
  ++meta_[slot].gen;
  // A series cancelled from its own callback is still running: fire_next
  // releases it when the callback returns.
  if (slot != firing_) release(slot);
}

void EventQueue::sift_up(std::size_t i, HeapEntry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void EventQueue::sift_down(std::size_t i, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = first_child + 4 <= n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

void EventQueue::update(std::size_t i, const HeapEntry& e) {
  if (i > 0 && before(e, heap_[(i - 1) >> 2])) {
    sift_up(i, e);
  } else {
    sift_down(i, e);
  }
}

void EventQueue::remove_at(std::size_t i) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) update(i, last);
}

bool EventQueue::fire_next(SimTime deadline, SimTime* clock) {
  if (heap_.empty() || heap_.front().time > deadline) return false;
  const HeapEntry top = heap_.front();
  assert(top.time >= *clock);
  *clock = top.time;
  const std::uint32_t gen = meta_[top.slot].gen;
  if (meta_[top.slot].period.is_zero()) {
    // One-shot: the event dies with the firing, so outstanding handles
    // report !pending() while the callback runs.
    remove_at(0);
    ++meta_[top.slot].gen;
  }
  // The slot is neither freed nor reused while its callback runs. A
  // callback that throws ends the session: its slot stays claimed until
  // the queue's destructor resets it.
  firing_ = top.slot;
  fn(top.slot)();
  firing_ = kNoSlot;
  if (meta_[top.slot].gen != gen) {
    release(top.slot);  // a one-shot, or a series its callback cancelled
  } else {
    // Live series: re-key one period on with a fresh sequence, overriding
    // any reschedule its callback made.
    update(meta_[top.slot].pos,
           HeapEntry{top.time + meta_[top.slot].period, next_seq_++, top.slot});
  }
  return true;
}

}  // namespace vafs::sim
