#include "shm/namespace.h"

#include "fault/injector.h"

namespace bf::shm {

Result<std::shared_ptr<Segment>> Namespace::create(
    const std::string& name, sim::CopyModel copy_model,
    std::uint64_t capacity_bytes, bool has_contents) {
  // Grant denial: the Device Manager must fall back to the gRPC data path,
  // exactly as the paper prescribes when no shared area can be created.
  if (fault::should_fire(fault::site::kShmGrantDeny)) {
    return ResourceExhausted("injected fault: shm grant denied");
  }
  std::lock_guard lock(mutex_);
  if (segments_.contains(name)) {
    return AlreadyExists("shm segment '" + name + "' already exists");
  }
  auto segment = std::make_shared<Segment>(copy_model, capacity_bytes,
                                           has_contents);
  segments_[name] = segment;
  return segment;
}

Result<std::shared_ptr<Segment>> Namespace::open(
    const std::string& name) const {
  // Attach failure: the manager granted a segment but the client cannot map
  // it; the remote library falls back to inline gRPC payloads.
  if (fault::should_fire(fault::site::kShmAttachFail)) {
    return NotFound("injected fault: shm attach failed");
  }
  std::lock_guard lock(mutex_);
  auto it = segments_.find(name);
  if (it == segments_.end()) {
    return NotFound("shm segment '" + name + "' does not exist");
  }
  return it->second;
}

Status Namespace::unlink(const std::string& name) {
  std::lock_guard lock(mutex_);
  if (segments_.erase(name) == 0) {
    return NotFound("shm segment '" + name + "' does not exist");
  }
  return Status::Ok();
}

std::size_t Namespace::segment_count() const {
  std::lock_guard lock(mutex_);
  return segments_.size();
}

}  // namespace bf::shm
