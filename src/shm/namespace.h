// Node-local shared-memory namespace (the /dev/shm analogue).
//
// A Device Manager creates a named segment per client session; the Remote
// OpenCL Library opens it by name. Both sides must hold the *same* Namespace
// object — i.e. run on the same node — otherwise open() fails and the
// library falls back to the gRPC data path, exactly as in the paper
// ("the Device Manager employs gRPC if the client application is not on the
// same node, or if it is not possible to create a shared memory area").
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "shm/segment.h"

namespace bf::shm {

class Namespace {
 public:
  Namespace() = default;
  Namespace(const Namespace&) = delete;
  Namespace& operator=(const Namespace&) = delete;

  // `has_contents` is the serving board's functional() flag (see
  // Segment): a timing-only board gets a size-only segment.
  Result<std::shared_ptr<Segment>> create(const std::string& name,
                                          sim::CopyModel copy_model,
                                          std::uint64_t capacity_bytes,
                                          bool has_contents = true);

  Result<std::shared_ptr<Segment>> open(const std::string& name) const;

  Status unlink(const std::string& name);

  [[nodiscard]] std::size_t segment_count() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Segment>> segments_;
};

}  // namespace bf::shm
