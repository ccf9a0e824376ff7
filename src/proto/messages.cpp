#include "proto/messages.h"

#include <cstddef>
#include <functional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "proto/wire.h"

namespace bf::proto {

std::string_view to_string(Method method) {
  switch (method) {
    case Method::kOpenSession: return "OpenSession";
    case Method::kGetDeviceInfo: return "GetDeviceInfo";
    case Method::kProgram: return "Program";
    case Method::kCreateBuffer: return "CreateBuffer";
    case Method::kReleaseBuffer: return "ReleaseBuffer";
    case Method::kCreateKernel: return "CreateKernel";
    case Method::kCreateQueue: return "CreateQueue";
    case Method::kReleaseQueue: return "ReleaseQueue";
    case Method::kHealthCheck: return "HealthCheck";
    case Method::kEnqueueWrite: return "EnqueueWrite";
    case Method::kWriteData: return "WriteData";
    case Method::kEnqueueRead: return "EnqueueRead";
    case Method::kEnqueueKernel: return "EnqueueKernel";
    case Method::kFlush: return "Flush";
    case Method::kFinish: return "Finish";
    case Method::kOpEnqueued: return "OpEnqueued";
    case Method::kOpComplete: return "OpComplete";
  }
  return "Unknown";
}

bool is_idempotent(Method method) {
  switch (method) {
    case Method::kOpenSession:   // duplicate open re-acks the live session
    case Method::kGetDeviceInfo:
    case Method::kProgram:       // already-loaded bitstream is a no-op
    case Method::kHealthCheck:
      return true;
    default:
      return false;
  }
}

bool is_command_queue_method(Method method) {
  switch (method) {
    case Method::kEnqueueWrite:
    case Method::kWriteData:
    case Method::kEnqueueRead:
    case Method::kEnqueueKernel:
    case Method::kFlush:
    case Method::kFinish:
      return true;
    default:
      return false;
  }
}

// --- StatusMsg ---------------------------------------------------------------

StatusMsg StatusMsg::from(const Status& status) {
  return StatusMsg{static_cast<std::uint32_t>(status.code()),
                   status.message()};
}

Status StatusMsg::to_status() const {
  return Status(static_cast<StatusCode>(code), message);
}

namespace {

// --- Codecs ------------------------------------------------------------------
//
// A codec moves one value between a message member and the wire: kWire is
// the wire type its fields carry, put() writes one field, get() reads one
// field's value (the header already consumed). `view` asks payloads to alias
// the input instead of copying it out.

template <typename T>
void encode_fields(Writer& writer, const T& message);

// Stores a read result in `out`, or passes its error on.
template <typename V, typename R>
Status assign(Result<R>&& result, V& out) {
  if (!result.ok()) return result.status();
  out = static_cast<V>(std::move(result).value());
  return Status::Ok();
}

// A single value that Writer/Reader code directly.
template <WireType kType, auto kPut, auto kGet>
struct Scalar {
  static constexpr WireType kWire = kType;
  template <typename V>
  static void put(Writer& writer, std::uint32_t number, const V& value) {
    (writer.*kPut)(number, value);
  }
  template <typename V>
  static Status get(Reader& reader, V& out, bool /*view*/) {
    return assign((reader.*kGet)(), out);
  }
};

// Unsigned integers and bools (any non-zero varint decodes as true).
using Varint = Scalar<WireType::kVarint, &Writer::field_uint,
                      &Reader::read_varint>;
using Zigzag = Scalar<WireType::kVarint, &Writer::field_int,
                      &Reader::read_zigzag>;
using Fixed64 = Scalar<WireType::kFixed64, &Writer::field_double,
                       &Reader::read_double>;
using String = Scalar<WireType::kLengthDelimited, &Writer::field_string,
                      &Reader::read_string>;

// KernelArgMsg::kind; values past kDouble are rejected.
using Kind = KernelArgMsg::Kind;
struct ArgKind {
  static constexpr WireType kWire = WireType::kVarint;
  static void put(Writer& writer, std::uint32_t number, Kind kind) {
    writer.field_uint(number, static_cast<std::uint64_t>(kind));
  }
  static Status get(Reader& reader, Kind& out, bool view) {
    std::uint64_t raw = 0;
    if (Status s = Varint::get(reader, raw, view); !s.ok()) return s;
    if (raw > static_cast<std::uint64_t>(Kind::kDouble)) {
      return InvalidArgument("bad kernel arg kind");
    }
    out = static_cast<Kind>(raw);
    return Status::Ok();
  }
};

// A nested message. A second occurrence replaces the first (no merging).
struct Message {
  static constexpr WireType kWire = WireType::kLengthDelimited;
  template <typename M>
  static void put(Writer& writer, std::uint32_t number, const M& message) {
    Writer nested;
    encode_fields(nested, message);
    writer.field_bytes(number, ByteSpan{nested.bytes()});
  }
  template <typename M>
  static Status get(Reader& reader, M& out, bool /*view*/) {
    auto bytes = reader.read_bytes_view();
    if (!bytes.ok()) return bytes.status();
    return assign(decode<M>(bytes.value()), out);
  }
};

// One field per element: sent in order, appended on decode.
template <typename Codec>
struct Repeated {
  static constexpr WireType kWire = Codec::kWire;
  template <typename V>
  static void put(Writer& writer, std::uint32_t number,
                  const std::vector<V>& values) {
    for (const V& value : values) Codec::put(writer, number, value);
  }
  template <typename V>
  static Status get(Reader& reader, std::vector<V>& out, bool view) {
    V value{};
    if (Status s = Codec::get(reader, value, view); !s.ok()) return s;
    out.push_back(std::move(value));
    return Status::Ok();
  }
};

// The WriteData/OpComplete payload. It reads both data members, so its
// field's accessor is the whole message. Sends data_view when set, otherwise
// data, and nothing when both are empty; decodes into data, or with `view`
// into data_view.
struct Payload {
  static constexpr WireType kWire = WireType::kLengthDelimited;
  template <typename M>
  static void put(Writer& writer, std::uint32_t number, const M& message) {
    const ByteSpan payload =
        message.data_view.empty() ? ByteSpan{message.data} : message.data_view;
    if (!payload.empty()) writer.field_bytes(number, payload);
  }
  template <typename M>
  static Status get(Reader& reader, M& message, bool view) {
    return view ? assign(reader.read_bytes_view(), message.data_view)
                : assign(reader.read_bytes(), message.data);
  }
};

// --- Fields ------------------------------------------------------------------

// When a field is sent, given the message and the field's value.
constexpr auto always = [](const auto&, const auto&) { return true; };
constexpr auto if_set = [](const auto&, const auto& value) {
  return value != std::remove_cvref_t<decltype(value)>{};
};
// trace_id and parent_span travel together, only on traced requests.
constexpr auto if_traced = [](const auto& message, const auto&) {
  return message.trace_id != 0;
};
template <Kind kKind>
constexpr auto if_kind = [](const KernelArgMsg& arg, const auto&) {
  return arg.kind == kKind;
};

// Accessors a member pointer cannot express.
constexpr auto whole = [](auto& message) -> auto& { return message; };
template <std::size_t kAxis>
constexpr auto global_size = [](auto& request) -> auto& {
  return request.global_size[kAxis];
};

// One entry of a field list: its number, where its value lives (a member
// pointer or an accessor) and when it is sent; Codec gives its wire form.
template <typename Codec, typename Access, typename When>
struct Field {
  std::uint32_t number;
  Access access;
  When when;

  template <typename T>
  void put(Writer& writer, const T& message) const {
    const auto& value = std::invoke(access, message);
    if (when(message, value)) Codec::put(writer, number, value);
  }
  template <typename T>
  Status get(Reader& reader, WireType type, T& message, bool view) const {
    if (type != Codec::kWire) {
      return InvalidArgument("field " + std::to_string(number) +
                             " has the wrong wire type");
    }
    return Codec::get(reader, std::invoke(access, message), view);
  }
};

template <typename Codec, typename Access, typename When = decltype(always)>
constexpr Field<Codec, Access, When> field(std::uint32_t number, Access access,
                                           When when = always) {
  return {number, access, when};
}

// Each message's fields in ascending number order, specialized below.
template <typename T>
constexpr auto kFields = nullptr;

template <typename T>
constexpr bool strictly_ascending() {
  return std::apply(
      [](const auto&... field) {
        std::uint32_t previous = 0;
        return ((previous < field.number && (previous = field.number)) && ...);
      },
      kFields<T>);
}

template <typename T>
void encode_fields(Writer& writer, const T& message) {
  static_assert(strictly_ascending<T>());
  std::apply([&](const auto&... field) { (field.put(writer, message), ...); },
             kFields<T>);
}

// Decodes one field into `message`: the list entry numbered like the
// header, or a skip when T has no such field.
template <typename T, std::size_t kIndex = 0>
Status decode_field(Reader& reader, Reader::FieldHeader header, T& message,
                    bool view) {
  if constexpr (kIndex == std::tuple_size_v<decltype(kFields<T>)>) {
    return reader.skip(header.type);
  } else {
    const auto& field = std::get<kIndex>(kFields<T>);
    if (field.number == header.field) {
      return field.get(reader, header.type, message, view);
    }
    return decode_field<T, kIndex + 1>(reader, header, message, view);
  }
}

template <typename T>
Result<T> decode_fields(ByteSpan bytes, bool view) {
  T message;
  Reader reader(bytes);
  while (!reader.at_end()) {
    auto header = reader.next_field();
    if (!header.ok()) return header.status();
    Status status = decode_field(reader, header.value(), message, view);
    if (!status.ok()) return status;
  }
  return message;
}

// --- Field lists -------------------------------------------------------------

template <> constexpr auto kFields<StatusMsg> = std::tuple{
    field<Varint>(1, &StatusMsg::code),
    field<String>(2, &StatusMsg::message, if_set)};
template <> constexpr auto kFields<DeviceDescriptor> = std::tuple{
    field<String>(1, &DeviceDescriptor::id),
    field<String>(2, &DeviceDescriptor::name),
    field<String>(3, &DeviceDescriptor::vendor),
    field<String>(4, &DeviceDescriptor::platform),
    field<String>(5, &DeviceDescriptor::node),
    field<String>(6, &DeviceDescriptor::accelerator),
    field<Varint>(7, &DeviceDescriptor::global_memory_bytes)};
template <> constexpr auto kFields<KernelArgMsg> = std::tuple{
    field<ArgKind>(1, &KernelArgMsg::kind),
    field<Varint>(2, &KernelArgMsg::buffer_id, if_kind<Kind::kBuffer>),
    field<Zigzag>(3, &KernelArgMsg::int_value, if_kind<Kind::kInt>),
    field<Fixed64>(4, &KernelArgMsg::double_value, if_kind<Kind::kDouble>)};
template <> constexpr auto kFields<OpenSessionReq> = std::tuple{
    field<String>(1, &OpenSessionReq::client_id),
    field<Varint>(2, &OpenSessionReq::use_shared_memory)};
template <> constexpr auto kFields<OpenSessionResp> = std::tuple{
    field<Message>(1, &OpenSessionResp::status),
    field<Varint>(2, &OpenSessionResp::session_id),
    field<Varint>(3, &OpenSessionResp::shared_memory_granted),
    field<Message>(4, &OpenSessionResp::device)};
template <> constexpr auto kFields<ProgramReq> = std::tuple{
    field<String>(1, &ProgramReq::bitstream_id)};
template <> constexpr auto kFields<ProgramResp> = std::tuple{
    field<Message>(1, &ProgramResp::status),
    field<Varint>(2, &ProgramResp::reconfigured)};
template <> constexpr auto kFields<CreateBufferReq> = std::tuple{
    field<Varint>(1, &CreateBufferReq::size)};
template <> constexpr auto kFields<CreateBufferResp> = std::tuple{
    field<Message>(1, &CreateBufferResp::status),
    field<Varint>(2, &CreateBufferResp::buffer_id)};
template <> constexpr auto kFields<ReleaseBufferReq> = std::tuple{
    field<Varint>(1, &ReleaseBufferReq::buffer_id)};
template <> constexpr auto kFields<CreateKernelReq> = std::tuple{
    field<String>(1, &CreateKernelReq::name)};
template <> constexpr auto kFields<CreateKernelResp> = std::tuple{
    field<Message>(1, &CreateKernelResp::status),
    field<Varint>(2, &CreateKernelResp::kernel_id),
    field<Varint>(3, &CreateKernelResp::arity)};
template <> constexpr auto kFields<CreateQueueResp> = std::tuple{
    field<Message>(1, &CreateQueueResp::status),
    field<Varint>(2, &CreateQueueResp::queue_id)};
template <> constexpr auto kFields<AckResp> = std::tuple{
    field<Message>(1, &AckResp::status)};
template <> constexpr auto kFields<HealthResp> = std::tuple{
    field<Message>(1, &HealthResp::status),
    field<Varint>(2, &HealthResp::queue_depth),
    field<Varint>(3, &HealthResp::sessions),
    field<Varint>(4, &HealthResp::ops_executed),
    field<Varint>(5, &HealthResp::accepting)};
template <> constexpr auto kFields<EnqueueWriteReq> = std::tuple{
    field<Varint>(1, &EnqueueWriteReq::op_id),
    field<Varint>(2, &EnqueueWriteReq::queue_id),
    field<Varint>(3, &EnqueueWriteReq::buffer_id),
    field<Varint>(4, &EnqueueWriteReq::offset),
    field<Varint>(5, &EnqueueWriteReq::size),
    field<Repeated<Varint>>(8, &EnqueueWriteReq::wait_op_ids),
    field<Varint>(9, &EnqueueWriteReq::trace_id, if_traced),
    field<Varint>(10, &EnqueueWriteReq::parent_span, if_traced)};
template <> constexpr auto kFields<WriteData> = std::tuple{
    field<Varint>(1, &WriteData::op_id),
    field<Varint>(2, &WriteData::size),
    field<Zigzag>(3, &WriteData::shm_slot),
    field<Payload>(4, whole)};
template <> constexpr auto kFields<EnqueueReadReq> = std::tuple{
    field<Varint>(1, &EnqueueReadReq::op_id),
    field<Varint>(2, &EnqueueReadReq::queue_id),
    field<Varint>(3, &EnqueueReadReq::buffer_id),
    field<Varint>(4, &EnqueueReadReq::offset),
    field<Varint>(5, &EnqueueReadReq::size),
    field<Varint>(6, &EnqueueReadReq::use_shared_memory),
    field<Repeated<Varint>>(8, &EnqueueReadReq::wait_op_ids),
    field<Varint>(9, &EnqueueReadReq::trace_id, if_traced),
    field<Varint>(10, &EnqueueReadReq::parent_span, if_traced)};
template <> constexpr auto kFields<EnqueueKernelReq> = std::tuple{
    field<Varint>(1, &EnqueueKernelReq::op_id),
    field<Varint>(2, &EnqueueKernelReq::queue_id),
    field<Varint>(3, &EnqueueKernelReq::kernel_id),
    field<Repeated<Message>>(4, &EnqueueKernelReq::args),
    field<Varint>(5, global_size<0>),
    field<Varint>(6, global_size<1>),
    field<Varint>(7, global_size<2>),
    field<Repeated<Varint>>(8, &EnqueueKernelReq::wait_op_ids),
    field<Varint>(9, &EnqueueKernelReq::trace_id, if_traced),
    field<Varint>(10, &EnqueueKernelReq::parent_span, if_traced)};
template <> constexpr auto kFields<FlushReq> = std::tuple{
    field<Varint>(1, &FlushReq::queue_id)};
template <> constexpr auto kFields<FinishReq> = std::tuple{
    field<Varint>(1, &FinishReq::op_id),
    field<Varint>(2, &FinishReq::queue_id)};
template <> constexpr auto kFields<OpEnqueued> = std::tuple{
    field<Varint>(1, &OpEnqueued::op_id)};
template <> constexpr auto kFields<OpComplete> = std::tuple{
    field<Varint>(1, &OpComplete::op_id),
    field<Message>(2, &OpComplete::status),
    field<Zigzag>(3, &OpComplete::shm_slot),
    field<Payload>(4, whole),
    field<Varint>(5, &OpComplete::size)};

}  // namespace

// --- Codec entry points ------------------------------------------------------

template <typename T>
Bytes encode(const T& message) {
  Writer writer;
  encode_fields(writer, message);
  return writer.take();
}

template <typename T>
Result<T> decode(ByteSpan bytes) {
  return decode_fields<T>(bytes, /*view=*/false);
}

Result<OpComplete> decode_view(ByteSpan bytes) {
  return decode_fields<OpComplete>(bytes, /*view=*/true);
}

// Every message type gets the codec; any other type fails to link.
#define BF_PROTO_MESSAGE(T)          \
  template Bytes encode(const T&);   \
  template Result<T> decode(ByteSpan)
BF_PROTO_MESSAGE(StatusMsg);
BF_PROTO_MESSAGE(DeviceDescriptor);
BF_PROTO_MESSAGE(KernelArgMsg);
BF_PROTO_MESSAGE(OpenSessionReq);
BF_PROTO_MESSAGE(OpenSessionResp);
BF_PROTO_MESSAGE(ProgramReq);
BF_PROTO_MESSAGE(ProgramResp);
BF_PROTO_MESSAGE(CreateBufferReq);
BF_PROTO_MESSAGE(CreateBufferResp);
BF_PROTO_MESSAGE(ReleaseBufferReq);
BF_PROTO_MESSAGE(CreateKernelReq);
BF_PROTO_MESSAGE(CreateKernelResp);
BF_PROTO_MESSAGE(CreateQueueResp);
BF_PROTO_MESSAGE(AckResp);
BF_PROTO_MESSAGE(HealthResp);
BF_PROTO_MESSAGE(EnqueueWriteReq);
BF_PROTO_MESSAGE(WriteData);
BF_PROTO_MESSAGE(EnqueueReadReq);
BF_PROTO_MESSAGE(EnqueueKernelReq);
BF_PROTO_MESSAGE(FlushReq);
BF_PROTO_MESSAGE(FinishReq);
BF_PROTO_MESSAGE(OpEnqueued);
BF_PROTO_MESSAGE(OpComplete);
#undef BF_PROTO_MESSAGE

}  // namespace bf::proto
