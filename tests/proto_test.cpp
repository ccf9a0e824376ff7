// bf::proto: wire format and Device Manager message round trips.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/rng.h"
#include "proto/messages.h"
#include "proto/wire.h"

namespace bf::proto {
namespace {

// ---- varint / zigzag ---------------------------------------------------------

TEST(Wire, VarintRoundtrip) {
  for (std::uint64_t value :
       {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 1ULL << 21, 1ULL << 35,
        0xFFFFFFFFFFFFFFFFULL}) {
    Writer writer;
    writer.varint(value);
    Reader reader(ByteSpan{writer.bytes()});
    auto decoded = reader.read_varint();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), value);
    EXPECT_TRUE(reader.at_end());
  }
}

TEST(Wire, VarintEncodingSizes) {
  auto size_of = [](std::uint64_t value) {
    Writer writer;
    writer.varint(value);
    return writer.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(16383), 2u);
  EXPECT_EQ(size_of(16384), 3u);
  EXPECT_EQ(size_of(0xFFFFFFFFFFFFFFFFULL), 10u);
}

TEST(Wire, ZigzagRoundtrip) {
  for (std::int64_t value :
       std::initializer_list<std::int64_t>{
           0, -1, 1, -2, 2, -1000000, 1000000,
           std::numeric_limits<std::int64_t>::min(),
           std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(value)), value);
  }
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Wire, TruncatedVarintFails) {
  Bytes truncated = {0x80};  // continuation bit without payload
  Reader reader(ByteSpan{truncated});
  EXPECT_FALSE(reader.read_varint().ok());
}

TEST(Wire, OverlongVarintFails) {
  Bytes overlong(11, 0x80);
  Reader reader(ByteSpan{overlong});
  EXPECT_FALSE(reader.read_varint().ok());
}

TEST(Wire, StringAndBytesFields) {
  Writer writer;
  writer.field_string(1, "hello");
  Bytes blob = {9, 8, 7};
  writer.field_bytes(2, ByteSpan{blob});
  Reader reader(ByteSpan{writer.bytes()});

  auto h1 = reader.next_field();
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(h1.value().field, 1u);
  EXPECT_EQ(h1.value().type, WireType::kLengthDelimited);
  EXPECT_EQ(reader.read_string().value(), "hello");

  auto h2 = reader.next_field();
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(reader.read_bytes().value(), blob);
  EXPECT_TRUE(reader.at_end());
}

TEST(Wire, DoubleField) {
  Writer writer;
  writer.field_double(3, 3.14159);
  Reader reader(ByteSpan{writer.bytes()});
  auto header = reader.next_field();
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, WireType::kFixed64);
  EXPECT_DOUBLE_EQ(reader.read_double().value(), 3.14159);
}

TEST(Wire, SkipUnknownFields) {
  Writer writer;
  writer.field_uint(7, 42);          // varint
  writer.field_double(8, 1.5);       // fixed64
  writer.field_string(9, "ignore");  // length delimited
  writer.field_uint(1, 5);           // the field we want
  Reader reader(ByteSpan{writer.bytes()});
  std::uint64_t found = 0;
  while (!reader.at_end()) {
    auto header = reader.next_field();
    ASSERT_TRUE(header.ok());
    if (header.value().field == 1) {
      found = reader.read_varint().value();
    } else {
      ASSERT_TRUE(reader.skip(header.value().type).ok());
    }
  }
  EXPECT_EQ(found, 5u);
}

TEST(Wire, FieldZeroRejected) {
  Bytes bogus = {0x00};  // tag with field number 0
  Reader reader(ByteSpan{bogus});
  EXPECT_FALSE(reader.next_field().ok());
}

// Tag varint for `field` with wire type varint.
Bytes tag_bytes(std::uint64_t field) {
  Writer writer;
  writer.varint(field << 3);
  return writer.take();
}

TEST(Wire, FieldNumbersAboveProtobufMaximumRejected) {
  const Bytes max_tag = tag_bytes((1ULL << 29) - 1);
  Reader max_reader(ByteSpan{max_tag});
  auto max_header = max_reader.next_field();
  ASSERT_TRUE(max_header.ok());
  EXPECT_EQ(max_header.value().field, (1U << 29) - 1);

  for (std::uint64_t field : {1ULL << 29, (1ULL << 32) + 1}) {
    const Bytes tag = tag_bytes(field);
    Reader reader(ByteSpan{tag});
    auto header = reader.next_field();
    ASSERT_FALSE(header.ok()) << field;
    EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
  }

  // 2^32 + 1 would alias field 1 if narrowed to 32 bits before the check.
  Bytes aliased = tag_bytes((1ULL << 32) + 1);
  aliased.push_back(77);
  EXPECT_FALSE(decode<OpEnqueued>(ByteSpan{aliased}).ok());
}

// ---- message round trips --------------------------------------------------------

TEST(Messages, OpenSessionRoundtrip) {
  OpenSessionReq request;
  request.client_id = "sobel-1-0";
  request.use_shared_memory = true;
  auto decoded = reencode(request);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().client_id, "sobel-1-0");
  EXPECT_TRUE(decoded.value().use_shared_memory);
}

TEST(Messages, OpenSessionRespRoundtrip) {
  OpenSessionResp resp;
  resp.status = StatusMsg::from(Status::Ok());
  resp.session_id = 17;
  resp.shared_memory_granted = true;
  resp.device.id = "fpga-b";
  resp.device.vendor = "Intel";
  resp.device.platform = "a10gx_de5a_net";
  resp.device.node = "B";
  resp.device.accelerator = "sobel";
  resp.device.global_memory_bytes = 8ULL << 30;
  auto decoded = reencode(resp);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().session_id, 17u);
  EXPECT_TRUE(decoded.value().shared_memory_granted);
  EXPECT_EQ(decoded.value().device.id, "fpga-b");
  EXPECT_EQ(decoded.value().device.accelerator, "sobel");
  EXPECT_EQ(decoded.value().device.global_memory_bytes, 8ULL << 30);
}

TEST(Messages, StatusPropagatesError) {
  ProgramResp resp;
  resp.status = StatusMsg::from(NotFound("missing bitstream"));
  auto decoded = reencode(resp);
  ASSERT_TRUE(decoded.ok());
  const Status status = decoded.value().status.to_status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing bitstream");
}

TEST(Messages, EnqueueWriteRoundtrip) {
  EnqueueWriteReq request;
  request.op_id = 101;
  request.queue_id = 2;
  request.buffer_id = 3;
  request.offset = 4096;
  request.size = 1 << 20;
  auto decoded = reencode(request);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().op_id, 101u);
  EXPECT_EQ(decoded.value().offset, 4096u);
  EXPECT_EQ(decoded.value().size, 1u << 20);
}

TEST(Messages, WriteDataInlineAndShm) {
  WriteData inline_data;
  inline_data.op_id = 7;
  inline_data.size = 3;
  inline_data.data = {1, 2, 3};
  auto decoded = reencode(inline_data);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().data, (Bytes{1, 2, 3}));
  EXPECT_EQ(decoded.value().shm_slot, -1);

  WriteData shm_ref;
  shm_ref.op_id = 8;
  shm_ref.size = 1 << 20;
  shm_ref.shm_slot = 42;
  auto decoded_shm = reencode(shm_ref);
  ASSERT_TRUE(decoded_shm.ok());
  EXPECT_EQ(decoded_shm.value().shm_slot, 42);
  EXPECT_TRUE(decoded_shm.value().data.empty());
}

TEST(Messages, EnqueueKernelWithMixedArgs) {
  EnqueueKernelReq request;
  request.op_id = 5;
  request.queue_id = 1;
  request.kernel_id = 9;
  request.global_size = {1920, 1080, 1};
  KernelArgMsg buffer_arg;
  buffer_arg.kind = KernelArgMsg::Kind::kBuffer;
  buffer_arg.buffer_id = 33;
  KernelArgMsg int_arg;
  int_arg.kind = KernelArgMsg::Kind::kInt;
  int_arg.int_value = -1920;
  KernelArgMsg double_arg;
  double_arg.kind = KernelArgMsg::Kind::kDouble;
  double_arg.double_value = 0.5;
  request.args = {buffer_arg, int_arg, double_arg};

  auto decoded = reencode(request);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().args.size(), 3u);
  EXPECT_EQ(decoded.value().args[0].kind, KernelArgMsg::Kind::kBuffer);
  EXPECT_EQ(decoded.value().args[0].buffer_id, 33u);
  EXPECT_EQ(decoded.value().args[1].int_value, -1920);
  EXPECT_DOUBLE_EQ(decoded.value().args[2].double_value, 0.5);
  EXPECT_EQ(decoded.value().global_size[0], 1920u);
  EXPECT_EQ(decoded.value().global_size[2], 1u);
}

TEST(Messages, OpCompleteWithReadData) {
  OpComplete completion;
  completion.op_id = 77;
  completion.status = StatusMsg::from(Status::Ok());
  completion.data = Bytes(100, 0xEE);
  completion.size = 100;
  auto decoded = reencode(completion);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().data.size(), 100u);
  EXPECT_EQ(decoded.value().size, 100u);
  EXPECT_TRUE(decoded.value().status.to_status().ok());
}

TEST(Messages, FlushAndFinishRoundtrip) {
  FlushReq flush;
  flush.queue_id = 6;
  EXPECT_EQ(reencode(flush).value().queue_id, 6u);
  FinishReq finish;
  finish.op_id = 11;
  finish.queue_id = 6;
  auto decoded = reencode(finish);
  EXPECT_EQ(decoded.value().op_id, 11u);
  EXPECT_EQ(decoded.value().queue_id, 6u);
}

TEST(Messages, MethodNamesAndClassification) {
  EXPECT_EQ(to_string(Method::kOpenSession), "OpenSession");
  EXPECT_EQ(to_string(Method::kEnqueueKernel), "EnqueueKernel");
  EXPECT_TRUE(is_command_queue_method(Method::kFlush));
  EXPECT_TRUE(is_command_queue_method(Method::kWriteData));
  EXPECT_FALSE(is_command_queue_method(Method::kProgram));
  EXPECT_FALSE(is_command_queue_method(Method::kOpComplete));
}

TEST(Messages, DecodeGarbageFailsGracefully) {
  Bytes garbage = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                   0xFF, 0xFF, 0x01};
  auto decoded = decode<OpenSessionResp>(ByteSpan{garbage});
  EXPECT_FALSE(decoded.ok());
}

// ---- golden wire encodings ---------------------------------------------------
//
// Checked-in bytes for every message type. TransportCost charges by encoded
// size, so every modeled figure depends on these bytes: a codec change must
// reproduce them, never edit them.

// Lower-case hex of a message's wire encoding.
template <typename T>
std::string hex(const T& message) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t byte : encode(message)) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

// One fully-populated instance of each message: every field non-default,
// multi-byte varints, a negative zigzag and repeated fields with >1 entry.
void fill(StatusMsg& m) { m = StatusMsg::from(NotFound("missing bitstream")); }

void fill(DeviceDescriptor& m) {
  m.id = "fpga-b";
  m.name = "de5a_net_ddr4";
  m.vendor = "Intel";
  m.platform = "a10gx";
  m.node = "B";
  m.accelerator = "sobel";
  m.global_memory_bytes = 8ULL << 30;
}

// kInt with the other kinds' members set too: only int_value is sent.
void fill(KernelArgMsg& m) {
  m.kind = KernelArgMsg::Kind::kInt;
  m.buffer_id = 33;
  m.int_value = -1920;
  m.double_value = 0.5;
}

void fill(OpenSessionReq& m) {
  m.client_id = "sobel-1-0";
  m.use_shared_memory = true;
}

void fill(OpenSessionResp& m) {
  fill(m.status);
  m.session_id = 17;
  m.shared_memory_granted = true;
  fill(m.device);
}

void fill(ProgramReq& m) { m.bitstream_id = "sobel.aocx"; }

void fill(ProgramResp& m) {
  fill(m.status);
  m.reconfigured = true;
}

void fill(CreateBufferReq& m) { m.size = 1ULL << 22; }

void fill(CreateBufferResp& m) {
  fill(m.status);
  m.buffer_id = 300;
}

void fill(ReleaseBufferReq& m) { m.buffer_id = 300; }

void fill(CreateKernelReq& m) { m.name = "sobel"; }

void fill(CreateKernelResp& m) {
  fill(m.status);
  m.kernel_id = 9;
  m.arity = 4;
}

void fill(CreateQueueResp& m) {
  fill(m.status);
  m.queue_id = 129;
}

void fill(AckResp& m) { m.status = StatusMsg::from(Unavailable("draining")); }

void fill(HealthResp& m) {
  fill(m.status);
  m.queue_depth = 3;
  m.sessions = 4;
  m.ops_executed = 100000;
  m.accepting = false;
}

void fill(EnqueueWriteReq& m) {
  m.op_id = 101;
  m.queue_id = 2;
  m.buffer_id = 3;
  m.offset = 4096;
  m.size = 1 << 20;
  m.wait_op_ids = {99, 100};
  m.trace_id = 0xABCDEF;
  m.parent_span = 7;
}

void fill(WriteData& m) {
  m.op_id = 7;
  m.size = 3;
  m.shm_slot = 5;
  m.data = {1, 2, 3};
}

void fill(EnqueueReadReq& m) {
  m.op_id = 102;
  m.queue_id = 2;
  m.buffer_id = 4;
  m.offset = 128;
  m.size = 1 << 16;
  m.use_shared_memory = true;
  m.wait_op_ids = {101, 5000};
  m.trace_id = 0xABCDEF;
  m.parent_span = 8;
}

void fill(EnqueueKernelReq& m) {
  m.op_id = 5;
  m.queue_id = 1;
  m.kernel_id = 9;
  KernelArgMsg buffer_arg;
  buffer_arg.kind = KernelArgMsg::Kind::kBuffer;
  buffer_arg.buffer_id = 33;
  KernelArgMsg int_arg;
  fill(int_arg);
  KernelArgMsg double_arg;
  double_arg.kind = KernelArgMsg::Kind::kDouble;
  double_arg.double_value = 0.5;
  m.args = {buffer_arg, int_arg, double_arg, KernelArgMsg{}};
  m.global_size = {1920, 1080, 2};
  m.wait_op_ids = {4};
  m.trace_id = 77;
  m.parent_span = 3;
}

void fill(FlushReq& m) { m.queue_id = 6; }

void fill(FinishReq& m) {
  m.op_id = 11;
  m.queue_id = 6;
}

void fill(OpEnqueued& m) { m.op_id = 77; }

void fill(OpComplete& m) {
  m.op_id = 77;
  m.status = StatusMsg::from(Internal("kernel fault"));
  m.shm_slot = 3;
  m.data = {0xEE, 0xEE, 0xEE, 0xEE, 0xEE};
  m.size = 5;
}

template <typename T>
T full() {
  T message;
  fill(message);
  return message;
}

TEST(Golden, DefaultAndFullEncodings) {
  EXPECT_EQ(hex(StatusMsg{}), "0800");
  EXPECT_EQ(hex(full<StatusMsg>()),
      "080312116d697373696e672062697473747265616d");
  EXPECT_EQ(hex(DeviceDescriptor{}), "0a0012001a0022002a0032003800");
  EXPECT_EQ(hex(full<DeviceDescriptor>()),
      "0a06667067612d62120d646535615f6e65745f646472341a05496e74656c220561313067"
      "782a01423205736f62656c388080808020");
  EXPECT_EQ(hex(KernelArgMsg{}), "0800");
  EXPECT_EQ(hex(full<KernelArgMsg>()), "080218ff1d");
  EXPECT_EQ(hex(OpenSessionReq{}), "0a001000");
  EXPECT_EQ(hex(full<OpenSessionReq>()), "0a09736f62656c2d312d301001");
  EXPECT_EQ(hex(OpenSessionResp{}),
      "0a02080010001800220e0a0012001a0022002a0032003800");
  EXPECT_EQ(hex(full<OpenSessionResp>()),
      "0a15080312116d697373696e672062697473747265616d1011180122350a06667067612d"
      "62120d646535615f6e65745f646472341a05496e74656c220561313067782a0142320573"
      "6f62656c388080808020");
  EXPECT_EQ(hex(ProgramReq{}), "0a00");
  EXPECT_EQ(hex(full<ProgramReq>()), "0a0a736f62656c2e616f6378");
  EXPECT_EQ(hex(ProgramResp{}), "0a0208001000");
  EXPECT_EQ(hex(full<ProgramResp>()),
      "0a15080312116d697373696e672062697473747265616d1001");
  EXPECT_EQ(hex(CreateBufferReq{}), "0800");
  EXPECT_EQ(hex(full<CreateBufferReq>()), "0880808002");
  EXPECT_EQ(hex(CreateBufferResp{}), "0a0208001000");
  EXPECT_EQ(hex(full<CreateBufferResp>()),
      "0a15080312116d697373696e672062697473747265616d10ac02");
  EXPECT_EQ(hex(ReleaseBufferReq{}), "0800");
  EXPECT_EQ(hex(full<ReleaseBufferReq>()), "08ac02");
  EXPECT_EQ(hex(CreateKernelReq{}), "0a00");
  EXPECT_EQ(hex(full<CreateKernelReq>()), "0a05736f62656c");
  EXPECT_EQ(hex(CreateKernelResp{}), "0a02080010001800");
  EXPECT_EQ(hex(full<CreateKernelResp>()),
      "0a15080312116d697373696e672062697473747265616d10091804");
  EXPECT_EQ(hex(CreateQueueResp{}), "0a0208001000");
  EXPECT_EQ(hex(full<CreateQueueResp>()),
      "0a15080312116d697373696e672062697473747265616d108101");
  EXPECT_EQ(hex(AckResp{}), "0a020800");
  EXPECT_EQ(hex(full<AckResp>()), "0a0c080c1208647261696e696e67");
  EXPECT_EQ(hex(HealthResp{}), "0a0208001000180020002801");
  EXPECT_EQ(hex(full<HealthResp>()),
      "0a15080312116d697373696e672062697473747265616d1003180420a08d062800");
  EXPECT_EQ(hex(EnqueueWriteReq{}), "08001000180020002800");
  EXPECT_EQ(hex(full<EnqueueWriteReq>()),
      "086510021803208020288080404063406448ef9baf055007");
  EXPECT_EQ(hex(WriteData{}), "080010001801");
  EXPECT_EQ(hex(full<WriteData>()), "08071003180a2203010203");
  EXPECT_EQ(hex(EnqueueReadReq{}), "080010001800200028003000");
  EXPECT_EQ(hex(full<EnqueueReadReq>()),
      "086610021804208001288080043001406540882748ef9baf055008");
  EXPECT_EQ(hex(EnqueueKernelReq{}), "080010001800280130013801");
  EXPECT_EQ(hex(full<EnqueueKernelReq>()),
      "0805100118092204080110212205080218ff1d220b080321000000000000e03f22020800"
      "28800f30b80838024004484d5003");
  EXPECT_EQ(hex(FlushReq{}), "0800");
  EXPECT_EQ(hex(full<FlushReq>()), "0806");
  EXPECT_EQ(hex(FinishReq{}), "08001000");
  EXPECT_EQ(hex(full<FinishReq>()), "080b1006");
  EXPECT_EQ(hex(OpEnqueued{}), "0800");
  EXPECT_EQ(hex(full<OpEnqueued>()), "084d");
  EXPECT_EQ(hex(OpComplete{}), "08001202080018012800");
  EXPECT_EQ(hex(full<OpComplete>()),
      "084d1210080b120c6b65726e656c206661756c7418062205eeeeeeeeee2805");
}

// trace_id and parent_span travel together whenever trace_id != 0 (even
// with a zero parent) and not at all otherwise (even with a stray parent).
TEST(Golden, TraceContext) {
  auto write = full<EnqueueWriteReq>();
  auto read = full<EnqueueReadReq>();
  auto kernel = full<EnqueueKernelReq>();
  write.parent_span = read.parent_span = kernel.parent_span = 0;
  EXPECT_EQ(hex(write), "086510021803208020288080404063406448ef9baf055000");
  EXPECT_EQ(hex(read),
      "086610021804208001288080043001406540882748ef9baf055000");
  EXPECT_EQ(hex(kernel),
      "0805100118092204080110212205080218ff1d220b080321000000000000e03f22020800"
      "28800f30b80838024004484d5000");
  write.parent_span = read.parent_span = kernel.parent_span = 7;
  write.trace_id = read.trace_id = kernel.trace_id = 0;
  EXPECT_EQ(hex(write), "0865100218032080202880804040634064");
  EXPECT_EQ(hex(read), "0866100218042080012880800430014065408827");
  EXPECT_EQ(hex(kernel),
      "0805100118092204080110212205080218ff1d220b080321000000000000e03f22020800"
      "28800f30b80838024004");
}

TEST(Golden, KernelArgKinds) {
  KernelArgMsg arg;
  arg.kind = KernelArgMsg::Kind::kBuffer;
  EXPECT_EQ(hex(arg), "08011000");  // buffer_id 0 is still sent
  arg.buffer_id = 123456789;
  EXPECT_EQ(hex(arg), "080110959aef3a");
  arg.kind = KernelArgMsg::Kind::kInt;
  arg.int_value = 640;
  EXPECT_EQ(hex(arg), "080218800a");
  arg.kind = KernelArgMsg::Kind::kDouble;
  arg.double_value = -2.25;
  EXPECT_EQ(hex(arg), "08032100000000000002c0");
  arg.kind = KernelArgMsg::Kind::kUnset;
  EXPECT_EQ(hex(arg), "0800");
}

// The payload field sends data_view when set, else data, and is omitted
// when both are empty.
TEST(Golden, Payloads) {
  const Bytes viewed = {0xAA, 0xBB};
  WriteData write;
  write.op_id = 9;
  write.size = 4;
  write.data = {1, 2, 3, 4};
  EXPECT_EQ(hex(write), "080910041801220401020304");
  write.data_view = ByteSpan{viewed};
  EXPECT_EQ(hex(write), "0809100418012202aabb");
  write.data.clear();
  EXPECT_EQ(hex(write), "0809100418012202aabb");
  write.data_view = {};
  write.shm_slot = 12;
  EXPECT_EQ(hex(write), "080910041818");

  OpComplete done;
  done.op_id = 9;
  done.size = 4;
  done.data = {1, 2, 3, 4};
  EXPECT_EQ(hex(done), "08091202080018012204010203042804");
  done.data_view = ByteSpan{viewed};
  EXPECT_EQ(hex(done), "08091202080018012202aabb2804");
  done.data.clear();
  EXPECT_EQ(hex(done), "08091202080018012202aabb2804");
  done.data_view = {};
  done.shm_slot = 12;
  EXPECT_EQ(hex(done), "08091202080018182804");
}

TEST(Golden, FlushFinishAndStatusMessage) {
  FlushReq flush;
  flush.queue_id = 6;
  EXPECT_EQ(hex(flush), "0806");
  FinishReq finish;
  finish.op_id = 11;
  finish.queue_id = 6;
  EXPECT_EQ(hex(finish), "080b1006");

  EXPECT_EQ(hex(StatusMsg{3, ""}), "0803");
  EXPECT_EQ(hex(StatusMsg{3, "bad arg"}), "0803120762616420617267");
}

// Flush and Finish once carried a completion deadline (FlushReq field 2,
// FinishReq field 3). Bytes from an encoder that still sends it must decode,
// with the deadline skipped as an unknown field.
Bytes from_hex(std::string_view text) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(text.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(WireCompat, FlushAndFinishWithDeadlineStillDecode) {
  for (const std::string_view bytes : {"080610e807", "08061080f28ba809"}) {
    SCOPED_TRACE(bytes);
    auto flush = decode<FlushReq>(ByteSpan{from_hex(bytes)});
    ASSERT_TRUE(flush.ok()) << flush.status().to_string();
    EXPECT_EQ(flush.value().queue_id, 6u);
  }
  for (const std::string_view bytes : {"080b100618e807", "080b10061801"}) {
    SCOPED_TRACE(bytes);
    auto finish = decode<FinishReq>(ByteSpan{from_hex(bytes)});
    ASSERT_TRUE(finish.ok()) << finish.status().to_string();
    EXPECT_EQ(finish.value().op_id, 11u);
    EXPECT_EQ(finish.value().queue_id, 6u);
  }
}

// ---- codec properties --------------------------------------------------------

template <typename T>
class EveryMessage : public ::testing::Test {};

using AllMessages = ::testing::Types<
    StatusMsg, DeviceDescriptor, KernelArgMsg, OpenSessionReq,
    OpenSessionResp, ProgramReq, ProgramResp, CreateBufferReq,
    CreateBufferResp, ReleaseBufferReq, CreateKernelReq, CreateKernelResp,
    CreateQueueResp, AckResp, HealthResp, EnqueueWriteReq, WriteData,
    EnqueueReadReq, EnqueueKernelReq, FlushReq, FinishReq, OpEnqueued,
    OpComplete>;
TYPED_TEST_SUITE(EveryMessage, AllMessages);

TYPED_TEST(EveryMessage, DecodeReencodesToSameBytes) {
  for (const TypeParam& message : {TypeParam{}, full<TypeParam>()}) {
    const Bytes bytes = encode(message);
    auto decoded = decode<TypeParam>(ByteSpan{bytes});
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(hex(decoded.value()), hex(message));
  }
}

// Seeded byte mutations (bit flips, truncations, appended junk) of valid
// encodings. Decoding must never crash or read out of bounds (run under
// ASan), and an accepted mutant must reach a fixed point after one more
// encode/decode.
TYPED_TEST(EveryMessage, MutatedBytesDecodeSafely) {
  Rng rng(0xB1A57);
  const Bytes originals[] = {encode(TypeParam{}), encode(full<TypeParam>())};
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    Bytes bytes = originals[i % 2];
    for (std::uint64_t n = 1 + rng.next_below(3); n > 0; --n) {
      switch (rng.next_below(3)) {
        case 0:
          if (!bytes.empty()) {
            bytes[rng.next_below(bytes.size())] ^=
                static_cast<std::uint8_t>(1U << rng.next_below(8));
          }
          break;
        case 1:
          bytes.resize(rng.next_below(bytes.size() + 1));
          break;
        default:
          for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
            bytes.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
          }
      }
    }
    auto decoded = decode<TypeParam>(ByteSpan{bytes});
    if constexpr (std::is_same_v<TypeParam, OpComplete>) {
      auto viewed = decode_view(ByteSpan{bytes});
      ASSERT_EQ(viewed.ok(), decoded.ok());
      if (viewed.ok()) {
        EXPECT_EQ(hex(viewed.value()), hex(decoded.value()));
      }
    }
    if (!decoded.ok()) continue;
    ++accepted;
    const Bytes once = encode(decoded.value());
    auto again = decode<TypeParam>(ByteSpan{once});
    ASSERT_TRUE(again.ok()) << again.status().to_string();
    EXPECT_EQ(hex(again.value()), hex(decoded.value()));
  }
  EXPECT_GT(accepted, 0);
}

TEST(Messages, KnownFieldWithWrongWireTypeFails) {
  // OpenSessionReq.client_id (field 1) sent as a varint instead of a string.
  const Bytes bytes = {0x08, 0x00, 0x10, 0x01};
  auto decoded = decode<OpenSessionReq>(ByteSpan{bytes});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  // A nested message sent as a varint fails the same way.
  EXPECT_FALSE(decode<AckResp>(ByteSpan{Bytes{0x08, 0x00}}).ok());
}

TEST(Messages, UnknownFieldsSkipped) {
  Writer writer;
  writer.field_double(7, 1.5);
  writer.field_string(9, "ignored");
  writer.field_uint(1, 42);
  writer.field_uint(12, 5);
  auto decoded = decode<OpEnqueued>(ByteSpan{writer.bytes()});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().op_id, 42u);
}

TEST(Messages, BadKernelArgKindRejected) {
  EXPECT_TRUE(decode<KernelArgMsg>(ByteSpan{Bytes{0x08, 0x03}}).ok());
  EXPECT_FALSE(decode<KernelArgMsg>(ByteSpan{Bytes{0x08, 0x04}}).ok());
}

// A nested message seen twice is replaced, not merged: the second status
// has no message, so none survives.
TEST(Messages, RepeatedNestedMessageReplaces) {
  Writer writer;
  writer.field_bytes(2, ByteSpan{encode(StatusMsg{5, "first"})});
  writer.field_bytes(2, ByteSpan{encode(StatusMsg{3, ""})});
  auto decoded = decode<OpComplete>(ByteSpan{writer.bytes()});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status.code, 3u);
  EXPECT_EQ(decoded.value().status.message, "");
}

TEST(Messages, DecodeViewAliasesPayload) {
  const Bytes bytes = encode(full<OpComplete>());
  auto viewed = decode_view(ByteSpan{bytes});
  ASSERT_TRUE(viewed.ok());
  EXPECT_TRUE(viewed.value().data.empty());
  ASSERT_EQ(viewed.value().data_view.size(), 5u);
  EXPECT_GE(viewed.value().data_view.data(), bytes.data());
  EXPECT_LE(viewed.value().data_view.data() + 5, bytes.data() + bytes.size());

  auto copied = decode<OpComplete>(ByteSpan{bytes});
  ASSERT_TRUE(copied.ok());
  EXPECT_TRUE(copied.value().data_view.empty());
  EXPECT_EQ(copied.value().data, full<OpComplete>().data);
}

// Parameterized fuzz-lite: truncating a valid encoding at every byte
// boundary must never crash and must not return phantom success for
// length-delimited cuts.
class TruncationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TruncationTest, TruncatedEnqueueKernelNeverCrashes) {
  EnqueueKernelReq request;
  request.op_id = 5;
  request.kernel_id = 9;
  KernelArgMsg arg;
  arg.kind = KernelArgMsg::Kind::kBuffer;
  arg.buffer_id = 123456789;
  request.args = {arg};
  const Bytes full = encode(request);
  const std::size_t cut = GetParam();
  if (cut >= full.size()) GTEST_SKIP();
  Bytes truncated(full.begin(), full.begin() + cut);
  // May fail, must not crash.
  auto decoded = decode<EnqueueKernelReq>(ByteSpan{truncated});
  (void)decoded;
}

INSTANTIATE_TEST_SUITE_P(AllByteBoundaries, TruncationTest,
                         ::testing::Range<std::size_t>(0, 24));

}  // namespace
}  // namespace bf::proto
