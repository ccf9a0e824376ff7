#include "shm/segment.h"

#include <algorithm>
#include <utility>

#include "common/arena.h"
#include "fault/injector.h"

namespace bf::shm {
namespace {

// Recycled-buffer cache bounds: enough to keep a few in-flight transfer
// buffers warm, small enough that huge one-off sweeps (the 2 GiB Fig 4a
// points) do not pin host memory.
constexpr std::size_t kMaxSpareBuffers = 4;
constexpr std::uint64_t kMaxSpareBytes = 64ULL << 20;

}  // namespace

Segment::Segment(sim::CopyModel copy_model, std::uint64_t capacity_bytes,
                 bool has_contents)
    : copy_model_(copy_model),
      capacity_(capacity_bytes),
      has_contents_(has_contents) {
  BF_CHECK(capacity_bytes > 0);
}

Result<std::int64_t> Segment::stage(ByteSpan data, vt::Cursor& cursor) {
  // Mid-stream staging failure: the client already sent the op's metadata,
  // so the manager will see a write with no payload and must fail that op
  // (not hang on it) when the task is flushed.
  if (fault::should_fire(fault::site::kShmStageFail)) {
    return ResourceExhausted("injected fault: shm stage failed");
  }
  std::int64_t slot = 0;
  {
    std::lock_guard lock(mutex_);
    auto added = add_slot_locked(data.size());
    if (!added.ok()) return added.status();
    slot = added.value();
    if (has_contents_) {
      Bytes& storage = slots_[slot].storage;
      storage = buffer_locked(data.size());
      std::copy(data.begin(), data.end(), storage.begin());
    }
    bytes_copied_ += data.size();
    ++copies_;
  }
  cursor.advance(copy_model_.copy_time(data.size()));
  return slot;
}

Result<std::int64_t> Segment::stage(Bytes&& data, vt::Cursor& cursor) {
  if (fault::should_fire(fault::site::kShmStageFail)) {
    return ResourceExhausted("injected fault: shm stage failed");
  }
  const std::uint64_t size = data.size();
  std::int64_t slot = 0;
  {
    std::lock_guard lock(mutex_);
    auto added = add_slot_locked(size);
    if (!added.ok()) return added.status();
    slot = added.value();
    if (has_contents_) slots_[slot].storage = std::move(data);
    // The modeled copy still happens (paper §III-B keeps one client-side
    // copy); only the host-side byte shuffling is elided.
    bytes_copied_ += size;
    ++copies_;
  }
  // A size-only slot keeps no storage; the buffer goes back to the pool
  // (through a temporary, so the caller sees it moved from in both modes).
  if (!has_contents_) arena::recycle(Bytes{std::move(data)});
  cursor.advance(copy_model_.copy_time(size));
  return slot;
}

Status Segment::fetch(std::int64_t slot, MutableByteSpan out,
                      vt::Cursor& cursor) {
  {
    std::lock_guard lock(mutex_);
    auto it = slots_.find(slot);
    if (it == slots_.end()) {
      return NotFound("unknown shm slot " + std::to_string(slot));
    }
    if (it->second.size != out.size()) {
      return InvalidArgument("shm fetch size mismatch: slot holds " +
                             std::to_string(it->second.size) +
                             "B, caller expects " +
                             std::to_string(out.size()) + "B");
    }
    if (has_contents_) {
      std::copy_n(it->second.storage.begin(), it->second.size, out.begin());
    } else {
      std::fill(out.begin(), out.end(), std::uint8_t{0});
    }
    bytes_copied_ += out.size();
    ++copies_;
    used_ -= it->second.size;
    recycle_locked(std::move(it->second.storage));
    slots_.erase(it);
  }
  cursor.advance(copy_model_.copy_time(out.size()));
  return Status::Ok();
}

Result<Bytes> Segment::fetch_take(std::int64_t slot, vt::Cursor& cursor) {
  Bytes out;
  std::uint64_t size = 0;
  {
    std::lock_guard lock(mutex_);
    auto it = slots_.find(slot);
    if (it == slots_.end()) {
      return NotFound("unknown shm slot " + std::to_string(slot));
    }
    size = it->second.size;
    out = std::move(it->second.storage);
    bytes_copied_ += size;
    ++copies_;
    used_ -= size;
    slots_.erase(it);
  }
  if (!has_contents_) {
    out = arena::acquire(size);
    out.resize(size);  // zero-fills from empty
  }
  cursor.advance(copy_model_.copy_time(size));
  return out;
}

Result<ByteSpan> Segment::view(std::int64_t slot) const {
  if (!has_contents_) return FailedPrecondition("size-only shm segment");
  std::lock_guard lock(mutex_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    return NotFound("unknown shm slot " + std::to_string(slot));
  }
  return ByteSpan{it->second.storage.data(), it->second.size};
}

Result<std::int64_t> Segment::allocate(std::uint64_t size) {
  std::lock_guard lock(mutex_);
  auto added = add_slot_locked(size);
  if (added.ok() && has_contents_) {
    slots_[added.value()].storage = buffer_locked(size);
  }
  return added;
}

Result<MutableByteSpan> Segment::writable_view(std::int64_t slot) {
  if (!has_contents_) return FailedPrecondition("size-only shm segment");
  std::lock_guard lock(mutex_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    return NotFound("unknown shm slot " + std::to_string(slot));
  }
  return MutableByteSpan{it->second.storage.data(), it->second.size};
}

Result<std::uint64_t> Segment::release(std::int64_t slot) {
  std::lock_guard lock(mutex_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    return NotFound("unknown shm slot " + std::to_string(slot));
  }
  const std::uint64_t size = it->second.size;
  used_ -= size;
  recycle_locked(std::move(it->second.storage));
  slots_.erase(it);
  return size;
}

std::uint64_t Segment::used() const {
  std::lock_guard lock(mutex_);
  return used_;
}

std::uint64_t Segment::total_bytes_copied() const {
  std::lock_guard lock(mutex_);
  return bytes_copied_;
}

std::uint64_t Segment::copy_count() const {
  std::lock_guard lock(mutex_);
  return copies_;
}

std::size_t Segment::slot_count() const {
  std::lock_guard lock(mutex_);
  return slots_.size();
}

Result<std::int64_t> Segment::add_slot_locked(std::uint64_t size) {
  if (size == 0) return InvalidArgument("zero-size shm slot");
  if (used_ + size > capacity_) {
    return ResourceExhausted("shm segment full: " + std::to_string(used_) +
                             "B used of " + std::to_string(capacity_) + "B");
  }
  const std::int64_t id = next_slot_++;
  slots_.emplace(id, Slot{Bytes{}, size});
  used_ += size;
  return id;
}

Bytes Segment::buffer_locked(std::uint64_t size) {
  // Reuse the smallest spare buffer that fits before allocating fresh.
  std::size_t best = spare_.size();
  for (std::size_t i = 0; i < spare_.size(); ++i) {
    if (spare_[i].capacity() < size) continue;
    if (best == spare_.size() ||
        spare_[i].capacity() < spare_[best].capacity()) {
      best = i;
    }
  }
  Bytes storage;
  if (best != spare_.size()) {
    storage = std::move(spare_[best]);
    spare_bytes_ -= storage.capacity();
    spare_.erase(spare_.begin() + static_cast<std::ptrdiff_t>(best));
  } else {
    // Spare-cache miss: fall back to the process-wide arena before the
    // heap.
    storage = arena::acquire(size);
  }
  // Stale contents are fine: every caller overwrites the full size (the
  // client's copy, or the board read that defines every byte on success).
  storage.resize_for_overwrite(size);
  return storage;
}

void Segment::recycle_locked(Bytes storage) {
  // Inline storage (small or size-only slots) has no heap block to keep.
  if (!storage.is_heap()) return;
  const std::uint64_t bytes = storage.capacity();
  if (spare_.size() >= kMaxSpareBuffers ||
      spare_bytes_ + bytes > kMaxSpareBytes) {
    // Doesn't fit the per-segment cache: offer it to the process-wide
    // arena (which enforces its own size bounds) instead of freeing.
    arena::recycle(std::move(storage));
    return;
  }
  spare_bytes_ += bytes;
  spare_.push_back(std::move(storage));
}

}  // namespace bf::shm
