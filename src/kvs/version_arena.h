#ifndef PBS_KVS_VERSION_ARENA_H_
#define PBS_KVS_VERSION_ARENA_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "kvs/version.h"

namespace pbs {
namespace kvs {

class VersionRef;

/// Refcounted slab of VersionedValue slots — the payload store of the
/// coordinator hot path. A write's fan-out used to copy the full
/// VersionedValue into every per-leg message closure;
/// with the arena, the payload is copied once into a pooled slot and the
/// closures carry a 16-byte VersionRef instead. Slots recycle through a
/// free list and keep their string capacity, so steady-state
/// Acquire/release performs no allocation (for payloads within the
/// retained capacity; larger values grow the slot's buffer once).
///
/// Lifetime rule: a slot lives exactly as long as some VersionRef points at
/// it — the pending-op record holds one ref for the operation's lifetime
/// and every in-flight message closure holds its own, so a payload stays
/// valid until the last duplicate delivery has fired even if the operation
/// record was already retired. Single-threaded by design, like the
/// simulator that drives it.
class VersionArena {
 public:
  /// Copies `value` into a pooled slot and returns the owning handle.
  VersionRef Acquire(const VersionedValue& value);

  /// Live (referenced) slots; for tests and leak auditing.
  size_t live() const { return live_; }
  /// Total slots ever created (high-water mark of concurrent payloads).
  size_t capacity() const { return slots_.size(); }

 private:
  friend class VersionRef;

  struct Slot {
    VersionedValue value;
    int32_t refs = 0;
  };

  void AddRef(uint32_t index) { ++slots_[index].refs; }

  void Release(uint32_t index) {
    Slot& slot = slots_[index];
    assert(slot.refs > 0);
    if (--slot.refs == 0) {
      free_.push_back(index);
      --live_;
    }
  }

  // Deque, not vector: Acquire during an outstanding dereference must not
  // relocate live slots (a replica handler holds a payload reference while
  // acquiring its own response slot).
  std::deque<Slot> slots_;
  std::vector<uint32_t> free_;
  size_t live_ = 0;
};

/// Shared handle to an arena slot. Copy = refcount bump; destruction
/// releases. Nothrow-movable and 16 bytes, so message closures carrying one
/// stay inside UniqueFunction's inline storage.
class VersionRef {
 public:
  VersionRef() = default;

  VersionRef(const VersionRef& other) noexcept
      : arena_(other.arena_), index_(other.index_) {
    if (arena_ != nullptr) arena_->AddRef(index_);
  }

  VersionRef(VersionRef&& other) noexcept
      : arena_(other.arena_), index_(other.index_) {
    other.arena_ = nullptr;
  }

  VersionRef& operator=(const VersionRef& other) noexcept {
    if (this != &other) {
      Reset();
      arena_ = other.arena_;
      index_ = other.index_;
      if (arena_ != nullptr) arena_->AddRef(index_);
    }
    return *this;
  }

  VersionRef& operator=(VersionRef&& other) noexcept {
    if (this != &other) {
      Reset();
      arena_ = other.arena_;
      index_ = other.index_;
      other.arena_ = nullptr;
    }
    return *this;
  }

  ~VersionRef() { Reset(); }

  explicit operator bool() const { return arena_ != nullptr; }

  const VersionedValue& operator*() const {
    assert(arena_ != nullptr);
    return arena_->slots_[index_].value;
  }
  const VersionedValue* operator->() const { return &**this; }

  void Reset() noexcept {
    if (arena_ != nullptr) {
      arena_->Release(index_);
      arena_ = nullptr;
    }
  }

 private:
  friend class VersionArena;
  VersionRef(VersionArena* arena, uint32_t index)
      : arena_(arena), index_(index) {}

  VersionArena* arena_ = nullptr;
  uint32_t index_ = 0;
};

inline VersionRef VersionArena::Acquire(const VersionedValue& value) {
  uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  // Field-wise assignment reuses the retained string buffer instead of
  // reallocating.
  slot.value.sequence = value.sequence;
  slot.value.stamp = value.stamp;
  slot.value.value.assign(value.value);
  slot.refs = 1;
  ++live_;
  return VersionRef(this, index);
}

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_VERSION_ARENA_H_
