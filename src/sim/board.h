// Simulated FPGA board (Terasic DE5a-Net / Intel Arria-10 GX class).
//
// The board is a passive, thread-safe device: callers (the Native runtime or
// a Device Manager worker) ask it to schedule exclusive work at a given
// virtual-time readiness and it returns the modeled [start, end] interval,
// maintaining a single busy timeline — this is the physical serialization
// point that makes time-sharing meaningful. Busy intervals are recorded for
// the utilization metric (paper §III-C / §IV-B).
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/bitstream.h"
#include "sim/costmodel.h"
#include "sim/kernels.h"
#include "sim/memory.h"
#include "vt/time.h"

namespace bf::sim {

struct BoardConfig {
  std::string id;                 // e.g. "fpga-node-b"
  std::string node;               // hosting node name ("A", "B", "C")
  NodeProfile host;               // node profile (PCIe link, memcpy, ...)
  std::uint64_t memory_bytes = 8ULL * 1024 * 1024 * 1024;
  // When true, kernels perform real arithmetic on board memory; when false
  // only timing is modeled (used by large load experiments).
  bool functional = true;
  // Space-sharing (paper §V future work): number of partial-reconfiguration
  // regions. 1 = classic full-device time sharing (the paper's evaluated
  // mode). With N > 1 the board hosts up to N accelerators concurrently:
  // each region has its own execution timeline; DMA transfers still share
  // one engine.
  unsigned pr_regions = 1;
};

class Board {
 public:
  explicit Board(BoardConfig config);

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  [[nodiscard]] const std::string& id() const { return config_.id; }
  [[nodiscard]] const std::string& node() const { return config_.node; }
  [[nodiscard]] const NodeProfile& host() const { return config_.host; }
  [[nodiscard]] bool functional() const { return config_.functional; }

  // --- Configuration --------------------------------------------------------

  // Full-device programming. Wipes DDR and every PR region. Returns the
  // modeled reconfiguration interval (the board is exclusively busy for its
  // whole span).
  struct Interval {
    vt::Time start;
    vt::Time end;
    [[nodiscard]] vt::Duration duration() const { return end - start; }
  };
  Result<Interval> configure(const Bitstream& bitstream, vt::Time ready);

  // Partial reconfiguration of one region (space-sharing mode). Faster than
  // a full program and leaves DDR and the other regions untouched.
  Result<Interval> configure_region(unsigned region,
                                    const Bitstream& bitstream,
                                    vt::Time ready);

  // Loads `bitstream` with the board's cheapest mechanism: no-op when
  // already resident; a free (or round-robin victim) PR region in shell
  // mode; a full reprogram otherwise. Sets *wiped_memory when the path
  // taken invalidated DDR contents.
  Result<Interval> ensure_accelerator(const Bitstream& bitstream,
                                      vt::Time ready, bool* wiped_memory);

  [[nodiscard]] std::optional<Bitstream> bitstream() const;  // region 0
  [[nodiscard]] bool has_kernel(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> resident_accelerators() const;
  [[nodiscard]] unsigned region_count() const { return config_.pr_regions; }
  [[nodiscard]] unsigned free_region_count() const;

  // --- Data movement (PCIe) -------------------------------------------------

  Result<MemHandle> allocate(std::uint64_t size);
  Status release(MemHandle handle);

  // Host -> board transfer: performs the write and returns the exclusive
  // occupancy interval starting no earlier than `ready`.
  Result<Interval> write(MemHandle handle, std::uint64_t offset, ByteSpan data,
                         vt::Time ready);
  // Board -> host transfer.
  Result<Interval> read(MemHandle handle, std::uint64_t offset,
                        MutableByteSpan out, vt::Time ready);
  // Size-only transfer for a timing-only board, in either direction: the
  // bounds check and PCIe charge of write()/read() with no bytes moved.
  // FailedPrecondition on a functional board, whose memory must see them.
  Result<Interval> transfer(MemHandle handle, std::uint64_t offset,
                            std::uint64_t size, vt::Time ready);

  // --- Kernel execution -----------------------------------------------------

  // Validates the launch against the configured bitstream, executes it
  // functionally when enabled, and schedules its modeled time exclusively.
  Result<Interval> run_kernel(const KernelLaunch& launch, vt::Time ready);

  // Coalesced pass: executes several same-kernel launches back to back in
  // one exclusive occupancy, paying the fixed per-launch overhead
  // (kernel_launch_overhead()) once instead of once per launch. Functional
  // effects and per-launch modeled compute are unchanged. Returns one
  // sequential sub-interval per launch, in input order, partitioning the
  // pass. All launches must name the same kernel.
  Result<std::vector<Interval>> run_kernel_batch(
      const std::vector<KernelLaunch>& launches, vt::Time ready);

  // --- Introspection / metrics ----------------------------------------------

  [[nodiscard]] std::uint64_t memory_capacity() const;
  [[nodiscard]] std::uint64_t memory_used() const;
  [[nodiscard]] vt::Time busy_until() const;
  [[nodiscard]] vt::Duration busy_total() const;
  // Busy time overlapping [from, to] — the utilization numerator.
  [[nodiscard]] vt::Duration busy_between(vt::Time from, vt::Time to) const;
  [[nodiscard]] std::uint64_t reconfiguration_count() const;
  [[nodiscard]] std::uint64_t kernel_launch_count() const;

 private:
  // count_busy=false occupies the timeline without contributing to the
  // utilization metric (reconfiguration is not an OpenCL call, §III-C).
  Interval schedule_locked(vt::Time ready, vt::Duration exec,
                           bool count_busy = true);
  Result<Interval> transfer_locked(MemHandle handle, std::uint64_t offset,
                                   std::uint64_t size, vt::Time ready);

  struct Region {
    std::optional<Bitstream> bitstream;
    vt::Time busy_until;
  };
  // Kernel scheduling: unified timeline in single-region mode, per-region
  // timeline in shell mode. Requires mutex_ held.
  Interval schedule_kernel_locked(unsigned region, vt::Time ready,
                                  vt::Duration exec);
  [[nodiscard]] const Region* region_with_kernel_locked(
      const std::string& name) const;

  BoardConfig config_;
  mutable std::mutex mutex_;
  DeviceMemory memory_;
  std::vector<Region> regions_;
  unsigned next_victim_region_ = 0;
  vt::Time busy_until_ = vt::Time::zero();
  vt::Duration busy_total_ = vt::Duration::nanos(0);
  std::vector<Interval> busy_log_;
  std::uint64_t reconfigurations_ = 0;
  std::uint64_t kernel_launches_ = 0;
};

}  // namespace bf::sim
