// Protobuf-style wire format: varint / zigzag / length-delimited encoding.
//
// BlastFunction's control plane speaks gRPC+protobuf; this module is the
// serialization substrate for our gRPC analogue (bf::net). The format is the
// real protobuf wire format (tag = field<<3 | wiretype) so sizes — and hence
// the serialization cost model — are realistic.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace bf::proto {

enum class WireType : std::uint8_t {
  kVarint = 0,
  kFixed64 = 1,
  kLengthDelimited = 2,
  kFixed32 = 5,
};

class Writer {
 public:
  Writer() = default;

  // Pre-size the output buffer (e.g. before appending a large payload
  // field) so encoding never reallocates mid-message. Growth beyond the
  // inline capacity is served from the arena free lists (wire.cpp), so a
  // steady state of encode -> deliver -> arena::recycle(payload) never
  // touches the heap.
  void reserve(std::size_t capacity);

  void varint(std::uint64_t value);
  void tag(std::uint32_t field, WireType type);

  void field_uint(std::uint32_t field, std::uint64_t value);
  void field_int(std::uint32_t field, std::int64_t value);  // zigzag
  void field_bool(std::uint32_t field, bool value);
  void field_double(std::uint32_t field, double value);
  void field_string(std::uint32_t field, std::string_view value);
  void field_bytes(std::uint32_t field, ByteSpan value);

  [[nodiscard]] const Bytes& bytes() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  [[nodiscard]] bool at_end() const { return pos_ >= data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  // Reads the next field header. Fails on a truncated tag, an unsupported
  // wire type, or a field number outside protobuf's [1, 2^29 - 1].
  struct FieldHeader {
    std::uint32_t field = 0;
    WireType type = WireType::kVarint;
  };
  Result<FieldHeader> next_field();

  Result<std::uint64_t> read_varint();
  Result<std::int64_t> read_zigzag();
  Result<double> read_double();
  Result<std::string> read_string();
  Result<Bytes> read_bytes();

  // Zero-copy variant of read_bytes: a view into the reader's underlying
  // buffer, valid only while that buffer outlives the span.
  Result<ByteSpan> read_bytes_view();

  // Skips a field of the given wire type (unknown-field tolerance).
  Status skip(WireType type);

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;
};

// zigzag helpers exposed for tests.
constexpr std::uint64_t zigzag_encode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t value) {
  return static_cast<std::int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

}  // namespace bf::proto
