#include "sim/memory.h"

#include <algorithm>

namespace bf::sim {

DeviceMemory::DeviceMemory(std::uint64_t capacity_bytes, unsigned bank_count)
    : capacity_(capacity_bytes) {
  BF_CHECK(capacity_bytes > 0);
  BF_CHECK(bank_count > 0);
  const std::uint64_t per_bank = capacity_bytes / bank_count;
  BF_CHECK(per_bank > 0);
  std::uint64_t base = 0;
  for (unsigned i = 0; i < bank_count; ++i) {
    Bank bank;
    bank.base = base;
    bank.size = (i + 1 == bank_count) ? capacity_bytes - base : per_bank;
    bank.free_list[bank.base] = bank.size;
    base += bank.size;
    banks_.push_back(std::move(bank));
  }
}

Result<MemHandle> DeviceMemory::allocate(std::uint64_t size) {
  if (size == 0) return InvalidArgument("zero-size device allocation");
  // Round-robin starting bank; fall through remaining banks first-fit.
  for (unsigned attempt = 0; attempt < banks_.size(); ++attempt) {
    const unsigned index = (next_bank_ + attempt) % banks_.size();
    auto carved = carve(banks_[index], size);
    if (!carved.ok()) continue;
    next_bank_ = (index + 1) % banks_.size();
    Allocation alloc;
    alloc.base = carved.value();
    alloc.size = size;
    alloc.bank = index;
    const std::uint64_t id = next_id_++;
    allocations_.emplace(id, std::move(alloc));
    used_ += size;
    return MemHandle{id};
  }
  return ResourceExhausted("device memory exhausted: requested " +
                           std::to_string(size) + "B, free " +
                           std::to_string(free_bytes()) + "B");
}

Status DeviceMemory::release(MemHandle handle) {
  auto it = allocations_.find(handle.id);
  if (it == allocations_.end()) {
    return NotFound("unknown device allocation " + std::to_string(handle.id));
  }
  restore(banks_[it->second.bank], it->second.base, it->second.size);
  used_ -= it->second.size;
  allocations_.erase(it);
  return Status::Ok();
}

Status DeviceMemory::write(MemHandle handle, std::uint64_t offset,
                           ByteSpan data) {
  auto it = allocations_.find(handle.id);
  if (it == allocations_.end()) {
    return NotFound("unknown device allocation " + std::to_string(handle.id));
  }
  Allocation& alloc = it->second;
  if (offset + data.size() > alloc.size) {
    return InvalidArgument("device write out of bounds: offset " +
                           std::to_string(offset) + " + " +
                           std::to_string(data.size()) + " > " +
                           std::to_string(alloc.size));
  }
  if (alloc.data.size() < offset + data.size()) {
    alloc.data.resize(alloc.size);  // materialize on first touch
  }
  std::copy(data.begin(), data.end(), alloc.data.begin() + offset);
  return Status::Ok();
}

Status DeviceMemory::read(MemHandle handle, std::uint64_t offset,
                          MutableByteSpan out) const {
  auto it = allocations_.find(handle.id);
  if (it == allocations_.end()) {
    return NotFound("unknown device allocation " + std::to_string(handle.id));
  }
  const Allocation& alloc = it->second;
  if (offset + out.size() > alloc.size) {
    return InvalidArgument("device read out of bounds: offset " +
                           std::to_string(offset) + " + " +
                           std::to_string(out.size()) + " > " +
                           std::to_string(alloc.size));
  }
  const std::uint64_t available =
      alloc.data.size() > offset ? alloc.data.size() - offset : 0;
  const std::uint64_t n = std::min<std::uint64_t>(available, out.size());
  if (n > 0) std::copy_n(alloc.data.begin() + offset, n, out.begin());
  // Unmaterialized (never-written) memory reads as zeroes.
  std::fill(out.begin() + n, out.end(), std::uint8_t{0});
  return Status::Ok();
}

Result<ByteSpan> DeviceMemory::borrow(MemHandle handle, std::uint64_t offset,
                                      std::uint64_t size) {
  auto span = borrow_mut(handle, offset, size);
  if (!span.ok()) return span.status();
  return ByteSpan{span.value()};
}

Result<MutableByteSpan> DeviceMemory::borrow_mut(MemHandle handle,
                                                 std::uint64_t offset,
                                                 std::uint64_t size) {
  auto it = allocations_.find(handle.id);
  if (it == allocations_.end()) {
    return NotFound("unknown device allocation " + std::to_string(handle.id));
  }
  Allocation& alloc = it->second;
  if (offset + size > alloc.size) {
    return InvalidArgument("device borrow out of bounds: offset " +
                           std::to_string(offset) + " + " +
                           std::to_string(size) + " > " +
                           std::to_string(alloc.size));
  }
  if (alloc.data.size() < alloc.size) {
    alloc.data.resize(alloc.size);  // materialize (zero-filled) on borrow
  }
  return MutableByteSpan{alloc.data.data() + offset, size};
}

Result<std::uint64_t> DeviceMemory::allocation_size(MemHandle handle) const {
  auto it = allocations_.find(handle.id);
  if (it == allocations_.end()) {
    return NotFound("unknown device allocation " + std::to_string(handle.id));
  }
  return it->second.size;
}

void DeviceMemory::reset() {
  allocations_.clear();
  used_ = 0;
  for (Bank& bank : banks_) {
    bank.free_list.clear();
    bank.free_list[bank.base] = bank.size;
  }
  next_bank_ = 0;
}

Result<std::uint64_t> DeviceMemory::carve(Bank& bank, std::uint64_t size) {
  for (auto it = bank.free_list.begin(); it != bank.free_list.end(); ++it) {
    if (it->second < size) continue;
    const std::uint64_t base = it->first;
    const std::uint64_t remaining = it->second - size;
    bank.free_list.erase(it);
    if (remaining > 0) {
      bank.free_list[base + size] = remaining;
    }
    return base;
  }
  return ResourceExhausted("bank full");
}

void DeviceMemory::restore(Bank& bank, std::uint64_t base,
                           std::uint64_t size) {
  auto [it, inserted] = bank.free_list.emplace(base, size);
  BF_CHECK(inserted);
  // Coalesce with successor.
  auto next = std::next(it);
  if (next != bank.free_list.end() && it->first + it->second == next->first) {
    it->second += next->second;
    bank.free_list.erase(next);
  }
  // Coalesce with predecessor.
  if (it != bank.free_list.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      bank.free_list.erase(it);
    }
  }
}

}  // namespace bf::sim
