// bf::faas: gateway, function instances and execution modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "loadgen/loadgen.h"
#include "sim/bitstream.h"
#include "testbed/testbed.h"
#include "workloads/sobel.h"

namespace bf::faas {
namespace {

workloads::WorkloadFactory sobel_factory() {
  return [] {
    return std::make_unique<workloads::SobelWorkload>(640, 480);
  };
}

// A cold start that uploads constant data with blocking writes, as AlexNet
// uploads its weights: every write is one central-queue task.
class UploadWorkload final : public workloads::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "upload"; }
  [[nodiscard]] std::string bitstream() const override {
    return sim::BitstreamLibrary::kSobel;
  }
  [[nodiscard]] std::string accelerator() const override { return "sobel"; }

  Status setup(ocl::Context& context) override {
    if (Status s = context.program(bitstream()); !s.ok()) return s;
    auto buffer = context.create_buffer(kUploadBytes);
    if (!buffer.ok()) return buffer.status();
    auto queue = context.create_queue();
    if (!queue.ok()) return queue.status();
    queue_ = std::move(queue.value());
    const Bytes data(kUploadBytes, 0x5a);
    for (int i = 0; i < kUploads; ++i) {
      auto write = queue_->enqueue_write(buffer.value(), 0, ByteSpan{data},
                                         /*blocking=*/true);
      if (!write.ok()) return write.status();
    }
    return Status::Ok();
  }
  Status handle_request(ocl::Context& context) override {
    (void)context;
    return Status::Ok();
  }
  void teardown() override { queue_.reset(); }
  [[nodiscard]] std::uint64_t request_bytes_in() const override { return 0; }
  [[nodiscard]] std::uint64_t request_bytes_out() const override { return 0; }

 private:
  static constexpr std::uint64_t kUploadBytes = 8 * kMiB;
  static constexpr int kUploads = 4;
  std::unique_ptr<ocl::CommandQueue> queue_;
};

workloads::WorkloadFactory upload_factory() {
  return [] { return std::make_unique<UploadWorkload>(); };
}

// Sequential warms of tenants that share one board. The later cold start is
// stamped from t=0, its uploads queue behind the earlier tenant's on the
// board, so its later uploads are stamped past the earlier tenant's idle
// warm-end cursor. Without parking, each such upload waits out the whole
// stall grace; the high grace makes a single fallback unmistakable.
class SequentialWarm : public ::testing::Test {
 protected:
  static constexpr std::chrono::seconds kGrace{30};

  SequentialWarm() : bed_(options()) {}

  static testbed::TestbedOptions options() {
    testbed::TestbedOptions options;
    options.policy.pack_tenants = true;  // every tenant on one board
    options.gate_stall_grace = kGrace;
    return options;
  }

  std::string device_of(const FunctionInstance& instance) {
    return bed_.registry().device_of_instance(instance.pod().spec.name)
        .value_or("");
  }

  // Warms each function in turn. After every warm, each manager's gate
  // bound must be back at the earliest clock of its warm instances: parking
  // never outlives Gateway::warm.
  void warm_in_turn(const std::vector<std::string>& functions) {
    const auto started = std::chrono::steady_clock::now();
    for (const std::string& function : functions) {
      ASSERT_TRUE(bed_.gateway().warm(function).ok());
      for (const std::string& node : bed_.node_names()) {
        vt::Time earliest = vt::Time::infinite();
        for (const std::string& f : functions) {
          for (const auto& instance : bed_.gateway().instances(f)) {
            if (instance->cold() ||
                device_of(*instance) != bed_.board(node).id()) {
              continue;
            }
            earliest = std::min(earliest, instance->now());
          }
        }
        EXPECT_EQ(bed_.manager(node).endpoint().gate().min_bound(), earliest)
            << "node " << node << " after warming " << function;
      }
    }
    EXPECT_LT(std::chrono::steady_clock::now() - started, kGrace / 10);
    std::uint64_t fallbacks = 0;
    for (const std::string& node : bed_.node_names()) {
      fallbacks += bed_.manager(node).stall_fallbacks();
    }
    EXPECT_EQ(fallbacks, 0u);
  }

  testbed::Testbed bed_;
};

TEST_F(SequentialWarm, CoTenantColdStartNeverWaitsOnIdleWarmTenant) {
  ASSERT_TRUE(bed_.deploy_blastfunction("first", upload_factory()).ok());
  ASSERT_TRUE(bed_.deploy_blastfunction("second", upload_factory()).ok());
  auto first = bed_.gateway().instance("first");
  auto second = bed_.gateway().instance("second");
  ASSERT_EQ(device_of(*first), device_of(*second));
  warm_in_turn({"first", "second"});
  // The pattern really occurred: the second cold start ended past the
  // first tenant's warm-end cursor.
  EXPECT_GT(second->now(), first->now());
}

TEST_F(SequentialWarm, ReplicaColdStartNeverWaitsOnWarmSiblingReplica) {
  ASSERT_TRUE(bed_.deploy_blastfunction("fn", upload_factory(), 2).ok());
  auto replicas = bed_.gateway().instances("fn");
  ASSERT_EQ(replicas.size(), 2u);
  ASSERT_EQ(device_of(*replicas[0]), device_of(*replicas[1]));
  warm_in_turn({"fn"});
  EXPECT_GT(replicas[1]->now(), replicas[0]->now());
}

TEST(Gateway, DeployCreatesInstances) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory(), 2).ok());
  EXPECT_EQ(bed.gateway().instance_count(), 2u);
  EXPECT_EQ(bed.gateway().instances("fn").size(), 2u);
  EXPECT_NE(bed.gateway().instance("fn", 0), nullptr);
  EXPECT_NE(bed.gateway().instance("fn", 1), nullptr);
  EXPECT_EQ(bed.gateway().instance("fn", 2), nullptr);
}

TEST(Gateway, DoubleDeployRejected) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory()).ok());
  EXPECT_EQ(bed.deploy_blastfunction("fn", sobel_factory()).code(),
            StatusCode::kAlreadyExists);
}

TEST(Gateway, InvokeUnknownFunctionFails) {
  testbed::Testbed bed;
  EXPECT_EQ(bed.gateway().invoke("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST(Gateway, InvokeServesRequest) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory()).ok());
  auto result = bed.gateway().invoke("fn");
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result.value().latency.ms(), 1.0);
  auto instance = bed.gateway().instance("fn");
  EXPECT_EQ(instance->requests_served(), 1u);
  EXPECT_EQ(instance->errors(), 0u);
}

TEST(Gateway, RemoveDeletesPodsAndInstances) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory(), 2).ok());
  ASSERT_TRUE(bed.gateway().remove("fn").ok());
  EXPECT_EQ(bed.gateway().instance_count(), 0u);
  EXPECT_EQ(bed.cluster().pod_count(), 0u);
  EXPECT_FALSE(bed.gateway().remove("fn").ok());
}

TEST(Gateway, ScaleUpAndDown) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory(), 1).ok());
  ASSERT_TRUE(bed.gateway().scale("fn", 3).ok());
  EXPECT_EQ(bed.gateway().instances("fn").size(), 3u);
  ASSERT_TRUE(bed.gateway().scale("fn", 1).ok());
  EXPECT_EQ(bed.gateway().instances("fn").size(), 1u);
}

TEST(FunctionInstance, ColdStartOnlyOnFirstInvokePersistent) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory()).ok());
  auto instance = bed.gateway().instance("fn");
  EXPECT_TRUE(instance->cold());
  auto first = instance->invoke();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(instance->cold());
  auto second = instance->invoke();
  ASSERT_TRUE(second.ok());
  // Cold start (programming ~1.6 s) dominates the first request only.
  EXPECT_GT(first.value().latency.ms(), 1000.0);
  EXPECT_LT(second.value().latency.ms(), 30.0);
}

TEST(FunctionInstance, ForkModePaysPerRequestOverhead) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_native("warm", sobel_factory(), "B",
                                ExecutionMode::kPersistent)
                  .ok());
  ASSERT_TRUE(bed.deploy_native("forked", sobel_factory(), "C",
                                ExecutionMode::kForkPerRequest)
                  .ok());
  auto warm = bed.gateway().instance("warm");
  auto forked = bed.gateway().instance("forked");
  // Warm both past their cold start / first fork.
  ASSERT_TRUE(warm->invoke().ok());
  ASSERT_TRUE(forked->invoke().ok());
  auto warm_result = warm->invoke();
  auto forked_result = forked->invoke();
  ASSERT_TRUE(warm_result.ok());
  ASSERT_TRUE(forked_result.ok());
  // Fork-per-request pays fork + context attach every time (paper's native
  // Sobel/MM latency penalty).
  EXPECT_GT(forked_result.value().latency.ms(),
            warm_result.value().latency.ms() + 5.0);
}

TEST(FunctionInstance, ClockAdvancesOnlyForward) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory()).ok());
  auto instance = bed.gateway().instance("fn");
  instance->advance_clock_to(vt::Time::seconds(5));
  EXPECT_EQ(instance->now(), vt::Time::seconds(5));
  instance->advance_clock_to(vt::Time::seconds(1));
  EXPECT_EQ(instance->now(), vt::Time::seconds(5));
}

TEST(FunctionInstance, MigrationRebindsToNewDevice) {
  testbed::Testbed bed;
  auto factory = sobel_factory();
  ASSERT_TRUE(bed.deploy_blastfunction("fn", factory).ok());
  auto before = bed.gateway().instance("fn");
  ASSERT_TRUE(before->invoke().ok());
  const std::string old_pod = before->pod().spec.name;
  // Simulate a registry-driven migration.
  auto replaced = bed.cluster().replace_pod(old_pod);
  ASSERT_TRUE(replaced.ok());
  auto after = bed.gateway().instance("fn");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after->pod().spec.name, old_pod);
  // The replacement instance serves requests (fresh cold start included).
  auto result = after->invoke();
  EXPECT_TRUE(result.ok()) << result.status().to_string();
}

}  // namespace
}  // namespace bf::faas
