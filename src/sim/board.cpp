#include "sim/board.h"

#include <algorithm>

#include "trace/span.h"

namespace bf::sim {
namespace {

// Partial-reconfiguration streaming rate (config port) and fixed setup.
constexpr double kPrBytesPerSecond = 100.0 * 1024 * 1024;
constexpr vt::Duration kPrSetup = vt::Duration::millis(250);

}  // namespace

Board::Board(BoardConfig config)
    : config_(std::move(config)), memory_(config_.memory_bytes) {
  BF_CHECK(config_.pr_regions >= 1);
  regions_.resize(config_.pr_regions);
}

Result<Board::Interval> Board::configure(const Bitstream& bitstream,
                                         vt::Time ready) {
  std::lock_guard lock(mutex_);
  memory_.reset();
  for (Region& region : regions_) region.bitstream.reset();
  regions_[0].bitstream = bitstream;
  ++reconfigurations_;
  const Interval interval = schedule_locked(
      ready, bitstream.reconfiguration_time(), /*count_busy=*/false);
  // Full programming stalls every region.
  for (Region& region : regions_) {
    region.busy_until = vt::max(region.busy_until, interval.end);
  }
  return interval;
}

Result<Board::Interval> Board::configure_region(unsigned region_index,
                                                const Bitstream& bitstream,
                                                vt::Time ready) {
  std::lock_guard lock(mutex_);
  if (config_.pr_regions == 1) {
    return FailedPrecondition("board " + config_.id +
                              " is not in space-sharing (shell) mode");
  }
  if (region_index >= regions_.size()) {
    return InvalidArgument("region " + std::to_string(region_index) +
                           " out of range");
  }
  Region& region = regions_[region_index];
  // PR bitstreams cover one region: size scales down with the region count.
  const double bytes =
      static_cast<double>(bitstream.size_bytes) / config_.pr_regions;
  const vt::Duration pr_time =
      kPrSetup + vt::Duration::from_seconds_f(bytes / kPrBytesPerSecond);
  const vt::Time start = vt::max(ready, region.busy_until);
  const vt::Time end = start + pr_time;
  region.busy_until = end;
  region.bitstream = bitstream;
  ++reconfigurations_;
  return Interval{start, end};
}

Result<Board::Interval> Board::ensure_accelerator(const Bitstream& bitstream,
                                                  vt::Time ready,
                                                  bool* wiped_memory) {
  if (wiped_memory != nullptr) *wiped_memory = false;
  bool full_reconfigure = false;
  unsigned target_region = 0;
  {
    std::lock_guard lock(mutex_);
    for (const Region& region : regions_) {
      if (region.bitstream.has_value() &&
          region.bitstream->id == bitstream.id) {
        return Interval{ready, ready};  // already resident
      }
    }
    if (config_.pr_regions == 1) {
      full_reconfigure = true;
    } else {
      // A free region if one exists, otherwise the round-robin victim.
      target_region = next_victim_region_ % config_.pr_regions;
      for (unsigned i = 0; i < regions_.size(); ++i) {
        if (!regions_[i].bitstream.has_value()) {
          target_region = i;
          break;
        }
      }
      next_victim_region_ = (target_region + 1) % config_.pr_regions;
    }
  }
  if (full_reconfigure) {
    if (wiped_memory != nullptr) *wiped_memory = true;
    return configure(bitstream, ready);
  }
  return configure_region(target_region, bitstream, ready);
}

std::optional<Bitstream> Board::bitstream() const {
  std::lock_guard lock(mutex_);
  return regions_[0].bitstream;
}

bool Board::has_kernel(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return region_with_kernel_locked(name) != nullptr;
}

std::vector<std::string> Board::resident_accelerators() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const Region& region : regions_) {
    if (!region.bitstream.has_value()) continue;
    if (std::find(out.begin(), out.end(), region.bitstream->accelerator) ==
        out.end()) {
      out.push_back(region.bitstream->accelerator);
    }
  }
  return out;
}

unsigned Board::free_region_count() const {
  std::lock_guard lock(mutex_);
  unsigned free = 0;
  for (const Region& region : regions_) {
    if (!region.bitstream.has_value()) ++free;
  }
  return free;
}

const Board::Region* Board::region_with_kernel_locked(
    const std::string& name) const {
  for (const Region& region : regions_) {
    if (region.bitstream.has_value() && region.bitstream->has_kernel(name)) {
      return &region;
    }
  }
  return nullptr;
}

Result<MemHandle> Board::allocate(std::uint64_t size) {
  std::lock_guard lock(mutex_);
  return memory_.allocate(size);
}

Status Board::release(MemHandle handle) {
  std::lock_guard lock(mutex_);
  return memory_.release(handle);
}

Result<Board::Interval> Board::write(MemHandle handle, std::uint64_t offset,
                                     ByteSpan data, vt::Time ready) {
  std::lock_guard lock(mutex_);
  if (!config_.functional) {
    // Timing-only mode: charge the transfer without materializing contents
    // (large load experiments would otherwise hold every tenant's weights).
    return transfer_locked(handle, offset, data.size(), ready);
  }
  if (Status s = memory_.write(handle, offset, data); !s.ok()) return s;
  return schedule_locked(ready, config_.host.pcie.transfer_time(data.size()));
}

Result<Board::Interval> Board::read(MemHandle handle, std::uint64_t offset,
                                    MutableByteSpan out, vt::Time ready) {
  std::lock_guard lock(mutex_);
  if (!config_.functional) {
    auto interval = transfer_locked(handle, offset, out.size(), ready);
    if (interval.ok()) std::fill(out.begin(), out.end(), std::uint8_t{0});
    return interval;
  }
  if (Status s = memory_.read(handle, offset, out); !s.ok()) return s;
  return schedule_locked(ready, config_.host.pcie.transfer_time(out.size()));
}

Result<Board::Interval> Board::transfer(MemHandle handle, std::uint64_t offset,
                                        std::uint64_t size, vt::Time ready) {
  if (config_.functional) {
    return FailedPrecondition("size-only transfer on functional board " +
                              config_.id);
  }
  std::lock_guard lock(mutex_);
  return transfer_locked(handle, offset, size, ready);
}

Result<Board::Interval> Board::transfer_locked(MemHandle handle,
                                               std::uint64_t offset,
                                               std::uint64_t size,
                                               vt::Time ready) {
  auto allocation = memory_.allocation_size(handle);
  if (!allocation.ok()) return allocation.status();
  if (offset + size > allocation.value()) {
    return InvalidArgument("device transfer out of bounds");
  }
  return schedule_locked(ready, config_.host.pcie.transfer_time(size));
}

Result<Board::Interval> Board::run_kernel(const KernelLaunch& launch,
                                          vt::Time ready) {
  std::lock_guard lock(mutex_);
  bool any_configured = false;
  for (const Region& region : regions_) {
    any_configured |= region.bitstream.has_value();
  }
  if (!any_configured) {
    return FailedPrecondition("board " + config_.id + " is not configured");
  }
  const Region* region = region_with_kernel_locked(launch.kernel);
  if (region == nullptr) {
    return NotFound("kernel '" + launch.kernel +
                    "' not resident on board '" + config_.id + "'");
  }
  const KernelModel* model = KernelRegistry::standard().find(launch.kernel);
  if (model == nullptr) {
    return Internal("no model for kernel '" + launch.kernel + "'");
  }
  if (Status s = model->validate(launch); !s.ok()) return s;
  auto exec_time = model->execution_time(launch);
  if (!exec_time.ok()) return exec_time.status();
  if (config_.functional) {
    if (Status s = model->execute(launch, memory_); !s.ok()) return s;
  }
  ++kernel_launches_;
  const auto region_index =
      static_cast<unsigned>(region - regions_.data());
  const Interval interval =
      schedule_kernel_locked(region_index, ready, exec_time.value());
  if (launch.trace.is_valid() && trace::enabled()) {
    trace::Span span;
    span.track = config_.id;
    span.name = "kernel:" + launch.kernel;
    span.start = interval.start;
    span.end = interval.end;
    span.trace_id = launch.trace.trace_id;
    span.span_id = launch.trace.child(trace::salt::kKernel).span_id;
    span.parent_span_id = launch.trace.span_id;
    trace::record(std::move(span));
  }
  return interval;
}

Result<std::vector<Board::Interval>> Board::run_kernel_batch(
    const std::vector<KernelLaunch>& launches, vt::Time ready) {
  if (launches.empty()) {
    return InvalidArgument("empty kernel batch");
  }
  if (launches.size() == 1) {
    auto interval = run_kernel(launches.front(), ready);
    if (!interval.ok()) return interval.status();
    return std::vector<Interval>{interval.value()};
  }
  std::lock_guard lock(mutex_);
  const std::string& kernel = launches.front().kernel;
  for (const KernelLaunch& launch : launches) {
    if (launch.kernel != kernel) {
      return InvalidArgument("kernel batch mixes '" + kernel + "' and '" +
                             launch.kernel + "'");
    }
  }
  bool any_configured = false;
  for (const Region& region : regions_) {
    any_configured |= region.bitstream.has_value();
  }
  if (!any_configured) {
    return FailedPrecondition("board " + config_.id + " is not configured");
  }
  const Region* region = region_with_kernel_locked(kernel);
  if (region == nullptr) {
    return NotFound("kernel '" + kernel + "' not resident on board '" +
                    config_.id + "'");
  }
  const KernelModel* model = KernelRegistry::standard().find(kernel);
  if (model == nullptr) {
    return Internal("no model for kernel '" + kernel + "'");
  }
  // Validate and cost every launch before touching memory, so a bad launch
  // fails the whole batch with no partial functional effects.
  std::vector<vt::Duration> exec_times;
  exec_times.reserve(launches.size());
  for (const KernelLaunch& launch : launches) {
    if (Status s = model->validate(launch); !s.ok()) return s;
    auto exec_time = model->execution_time(launch);
    if (!exec_time.ok()) return exec_time.status();
    exec_times.push_back(exec_time.value());
  }
  if (config_.functional) {
    for (const KernelLaunch& launch : launches) {
      if (Status s = model->execute(launch, memory_); !s.ok()) return s;
    }
  }
  kernel_launches_ += launches.size();
  // Every model's execution_time includes the fixed launch overhead; the
  // followers ride the already-filled pipeline, so the pass pays it once.
  const vt::Duration overhead = kernel_launch_overhead();
  const vt::Duration zero = vt::Duration::nanos(0);
  std::vector<vt::Duration> shares;
  shares.reserve(launches.size());
  vt::Duration total = zero;
  for (std::size_t i = 0; i < exec_times.size(); ++i) {
    const vt::Duration share =
        i == 0 ? exec_times[i] : vt::max(exec_times[i] - overhead, zero);
    shares.push_back(share);
    total += share;
  }
  const auto region_index = static_cast<unsigned>(region - regions_.data());
  const Interval pass = schedule_kernel_locked(region_index, ready, total);
  std::vector<Interval> intervals;
  intervals.reserve(launches.size());
  vt::Time cursor = pass.start;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const Interval interval{cursor, cursor + shares[i]};
    cursor = interval.end;
    intervals.push_back(interval);
    const KernelLaunch& launch = launches[i];
    if (launch.trace.is_valid() && trace::enabled()) {
      trace::Span span;
      span.track = config_.id;
      span.name = "kernel:" + launch.kernel;
      span.start = interval.start;
      span.end = interval.end;
      span.trace_id = launch.trace.trace_id;
      span.span_id = launch.trace.child(trace::salt::kKernel).span_id;
      span.parent_span_id = launch.trace.span_id;
      trace::record(std::move(span));
    }
  }
  return intervals;
}

std::uint64_t Board::memory_capacity() const {
  std::lock_guard lock(mutex_);
  return memory_.capacity();
}

std::uint64_t Board::memory_used() const {
  std::lock_guard lock(mutex_);
  return memory_.used();
}

vt::Time Board::busy_until() const {
  std::lock_guard lock(mutex_);
  vt::Time latest = busy_until_;
  for (const Region& region : regions_) {
    latest = vt::max(latest, region.busy_until);
  }
  return latest;
}

vt::Duration Board::busy_total() const {
  std::lock_guard lock(mutex_);
  return busy_total_;
}

vt::Duration Board::busy_between(vt::Time from, vt::Time to) const {
  std::lock_guard lock(mutex_);
  vt::Duration total = vt::Duration::nanos(0);
  for (const Interval& interval : busy_log_) {
    const vt::Time lo = vt::max(interval.start, from);
    const vt::Time hi = interval.end < to ? interval.end : to;
    if (lo < hi) total += hi - lo;
  }
  return total;
}

std::uint64_t Board::reconfiguration_count() const {
  std::lock_guard lock(mutex_);
  return reconfigurations_;
}

std::uint64_t Board::kernel_launch_count() const {
  std::lock_guard lock(mutex_);
  return kernel_launches_;
}

Board::Interval Board::schedule_locked(vt::Time ready, vt::Duration exec,
                                       bool count_busy) {
  const vt::Time start = vt::max(ready, busy_until_);
  const vt::Time end = start + exec;
  busy_until_ = end;
  if (count_busy) {
    busy_total_ += exec;
    // Coalesce back-to-back intervals to bound the log size.
    if (!busy_log_.empty() && busy_log_.back().end == start) {
      busy_log_.back().end = end;
    } else {
      busy_log_.push_back(Interval{start, end});
    }
  }
  return Interval{start, end};
}

Board::Interval Board::schedule_kernel_locked(unsigned region_index,
                                              vt::Time ready,
                                              vt::Duration exec) {
  if (config_.pr_regions == 1) {
    // Classic mode: kernels and DMA share the one exclusive timeline.
    return schedule_locked(ready, exec);
  }
  Region& region = regions_[region_index];
  const vt::Time start = vt::max(ready, region.busy_until);
  const vt::Time end = start + exec;
  region.busy_until = end;
  busy_total_ += exec;
  busy_log_.push_back(Interval{start, end});
  return Interval{start, end};
}

}  // namespace bf::sim
