// Shared-memory data plane.
//
// When a function is co-located with its Device Manager, BlastFunction moves
// buffer payloads through a shared memory area instead of gRPC, cutting the
// data copies from four to one (paper §III-B). The one remaining copy — kept
// for OpenCL compatibility — is the application-buffer <-> shared-slot copy
// on the client side; it is charged to the client's cursor via the node's
// memcpy model.
//
// Whether that copy is also a real host memcpy depends on the board behind
// the segment. A segment serving a functional board holds bytes: the
// span-based stage/fetch overloads copy for real (so data integrity is
// testable) and the Bytes&&/fetch_take overloads transfer ownership
// instead. A segment serving a timing-only board is size-only: nothing
// reads its bytes, so a slot carries a length and no storage, stage copies
// nothing and fetch zero-fills the destination (a timing-only board reads
// as zeros). Every call charges the same modeled cost and counts the same
// modeled copy in both modes, so virtual-time results and copy accounting
// do not depend on the mode.
//
// The Device Manager side hands slots to the board's DMA engine directly
// (PCIe cost charged by the board, no host copy); a size-only slot goes to
// sim::Board::transfer, which charges the same PCIe time by size.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "sim/costmodel.h"
#include "vt/cursor.h"

namespace bf::shm {

// One client<->manager shared memory area (a POSIX shm mapping in the real
// system, mounted into both containers by the Registry's pod patch).
class Segment {
 public:
  // `has_contents` is the board's functional() flag: false makes every slot
  // size-only (see the file comment).
  Segment(sim::CopyModel copy_model, std::uint64_t capacity_bytes,
          bool has_contents = true);

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  // --- client side ----------------------------------------------------------

  // Copies application data into a fresh slot (the single modeled copy).
  // Use this overload only when the caller does NOT own the buffer — the
  // OpenCL write path, where `data` views application memory the host code
  // keeps. If the caller holds a Bytes it will not reuse, prefer the
  // Bytes&& overload: same modeled cost, no real memcpy.
  Result<std::int64_t> stage(ByteSpan data, vt::Cursor& cursor);

  // Ownership-transfer variant: moves the buffer into the slot without
  // touching its bytes (a size-only segment hands it to arena::recycle
  // instead). Same modeled charge and copy accounting as the copying
  // overload (virtual-time results are identical either way); the
  // difference is purely real-time — no memcpy of the payload. On error the
  // argument is left untouched, so the caller can fall back or retry.
  Result<std::int64_t> stage(Bytes&& data, vt::Cursor& cursor);

  // Copies a slot's contents out into an application buffer (the single
  // modeled copy on the read path) and releases the slot; a size-only slot
  // zero-fills `out`. Use when the destination is caller-owned memory
  // (OpenCL blocking-read semantics).
  Status fetch(std::int64_t slot, MutableByteSpan out, vt::Cursor& cursor);

  // Ownership-transfer variant of fetch: returns the slot's buffer itself
  // and releases the slot (a zero-filled pooled buffer for a size-only
  // slot). Prefer this when the caller would otherwise allocate a Bytes
  // just to fetch into it — same modeled charge as fetch, no real memcpy.
  Result<Bytes> fetch_take(std::int64_t slot, vt::Cursor& cursor);

  // --- manager side ---------------------------------------------------------

  // Zero-copy view of a staged slot for board DMA. Valid until release().
  // FailedPrecondition on a size-only segment: there are no bytes to view.
  Result<ByteSpan> view(std::int64_t slot) const;

  // Allocates a slot the board DMA will fill (read path). Its contents are
  // unspecified until the board's read defines every byte.
  Result<std::int64_t> allocate(std::uint64_t size);
  // FailedPrecondition on a size-only segment, like view().
  Result<MutableByteSpan> writable_view(std::int64_t slot);

  // Frees a slot and returns its size (what a size-only write transfers).
  Result<std::uint64_t> release(std::int64_t slot);

  // --- introspection ---------------------------------------------------------

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  // False for a size-only segment (timing-only board): slots carry lengths.
  [[nodiscard]] bool has_contents() const { return has_contents_; }
  [[nodiscard]] std::uint64_t used() const;
  [[nodiscard]] std::uint64_t total_bytes_copied() const;
  [[nodiscard]] std::uint64_t copy_count() const;
  [[nodiscard]] std::size_t slot_count() const;

 private:
  // A slot's logical size may be smaller than its backing capacity when the
  // buffer was recycled from a previously released slot. Storage is empty
  // on a size-only segment.
  struct Slot {
    Bytes storage;
    std::uint64_t size = 0;
  };

  // Checks size and capacity and adds a `size`-byte slot with no storage.
  Result<std::int64_t> add_slot_locked(std::uint64_t size);
  // A `size`-byte buffer with unspecified contents: the smallest spare
  // that fits, else the arena.
  Bytes buffer_locked(std::uint64_t size);
  void recycle_locked(Bytes storage);

  sim::CopyModel copy_model_;
  std::uint64_t capacity_;
  bool has_contents_;
  mutable std::mutex mutex_;
  std::map<std::int64_t, Slot> slots_;
  // Bounded cache of released slot buffers, so the steady-state stage/fetch
  // cycle allocates no fresh host memory.
  std::vector<Bytes> spare_;
  std::uint64_t spare_bytes_ = 0;
  std::uint64_t used_ = 0;
  std::int64_t next_slot_ = 1;
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t copies_ = 0;
};

}  // namespace bf::shm
