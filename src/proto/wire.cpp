#include "proto/wire.h"

#include <cstring>

#include "common/arena.h"

namespace bf::proto {
namespace {

// Largest field number protobuf allows.
constexpr std::uint64_t kMaxFieldNumber = (1ULL << 29) - 1;

}  // namespace

void Writer::reserve(std::size_t capacity) {
  if (capacity <= buffer_.capacity()) return;
  // Arena-backed growth: swap in a pooled buffer instead of letting Bytes
  // round-trip through the heap. The retired storage (typically the inline
  // block early in a message, or a smaller pooled buffer) goes back to its
  // free list.
  Bytes grown = arena::acquire(capacity);
  grown.resize_for_overwrite(buffer_.size());
  std::memcpy(grown.data(), buffer_.data(), buffer_.size());
  Bytes retired = std::move(buffer_);
  buffer_ = std::move(grown);
  arena::recycle(std::move(retired));
}

void Writer::varint(std::uint64_t value) {
  // Single-byte fast path: tags and small lengths dominate real messages.
  if (value < 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(value));
    return;
  }
  std::uint8_t encoded[10];
  std::size_t length = 0;
  while (value >= 0x80) {
    encoded[length++] = static_cast<std::uint8_t>(value) | 0x80U;
    value >>= 7;
  }
  encoded[length++] = static_cast<std::uint8_t>(value);
  buffer_.insert(buffer_.end(), encoded, encoded + length);
}

void Writer::tag(std::uint32_t field, WireType type) {
  varint((static_cast<std::uint64_t>(field) << 3) |
         static_cast<std::uint64_t>(type));
}

void Writer::field_uint(std::uint32_t field, std::uint64_t value) {
  tag(field, WireType::kVarint);
  varint(value);
}

void Writer::field_int(std::uint32_t field, std::int64_t value) {
  tag(field, WireType::kVarint);
  varint(zigzag_encode(value));
}

void Writer::field_bool(std::uint32_t field, bool value) {
  field_uint(field, value ? 1 : 0);
}

void Writer::field_double(std::uint32_t field, double value) {
  tag(field, WireType::kFixed64);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

void Writer::field_string(std::uint32_t field, std::string_view value) {
  field_bytes(field, as_bytes(value.data(), value.size()));
}

void Writer::field_bytes(std::uint32_t field, ByteSpan value) {
  // One reservation for tag + length + payload keeps large payload fields
  // from growing the buffer in doubling steps. Writer::reserve (not
  // Bytes::reserve) so the backing store comes from the arena free lists —
  // this is the encode that carries WriteData/OpComplete payloads, the
  // hot path's two biggest buffers.
  reserve(buffer_.size() + value.size() + 16);
  tag(field, WireType::kLengthDelimited);
  varint(value.size());
  buffer_.insert(buffer_.end(), value.begin(), value.end());
}

Result<Reader::FieldHeader> Reader::next_field() {
  auto header = read_varint();
  if (!header.ok()) return header.status();
  // Range-check before narrowing, so a huge number cannot alias a small one.
  const std::uint64_t field = header.value() >> 3;
  if (field == 0) return InvalidArgument("field number 0 is invalid");
  if (field > kMaxFieldNumber) {
    return InvalidArgument("field number " + std::to_string(field) +
                           " is above the protobuf maximum");
  }
  FieldHeader out;
  out.field = static_cast<std::uint32_t>(field);
  const auto type = static_cast<std::uint8_t>(header.value() & 0x7U);
  switch (type) {
    case 0: out.type = WireType::kVarint; break;
    case 1: out.type = WireType::kFixed64; break;
    case 2: out.type = WireType::kLengthDelimited; break;
    case 5: out.type = WireType::kFixed32; break;
    default:
      return InvalidArgument("unsupported wire type " + std::to_string(type));
  }
  return out;
}

Result<std::uint64_t> Reader::read_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 64) return InvalidArgument("varint too long");
    value |= static_cast<std::uint64_t>(byte & 0x7FU) << shift;
    if ((byte & 0x80U) == 0) return value;
    shift += 7;
  }
  return InvalidArgument("truncated varint");
}

Result<std::int64_t> Reader::read_zigzag() {
  auto raw = read_varint();
  if (!raw.ok()) return raw.status();
  return zigzag_decode(raw.value());
}

Result<double> Reader::read_double() {
  if (remaining() < 8) return InvalidArgument("truncated fixed64");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<std::string> Reader::read_string() {
  auto view = read_bytes_view();
  if (!view.ok()) return view.status();
  return std::string(view.value().begin(), view.value().end());
}

Result<Bytes> Reader::read_bytes() {
  auto view = read_bytes_view();
  if (!view.ok()) return view.status();
  // Pooled copy-out: large payload fields (WriteData bodies) reuse arena
  // storage; recycling the decoded value after use closes the loop.
  Bytes out = arena::acquire(view.value().size());
  out.resize_for_overwrite(view.value().size());
  if (!view.value().empty()) {
    std::memcpy(out.data(), view.value().data(), view.value().size());
  }
  return out;
}

Result<ByteSpan> Reader::read_bytes_view() {
  auto length = read_varint();
  if (!length.ok()) return length.status();
  if (length.value() > remaining()) {
    return InvalidArgument("truncated length-delimited field");
  }
  ByteSpan out = data_.subspan(pos_, length.value());
  pos_ += length.value();
  return out;
}

Status Reader::skip(WireType type) {
  switch (type) {
    case WireType::kVarint: {
      auto value = read_varint();
      return value.ok() ? Status::Ok() : value.status();
    }
    case WireType::kFixed64: {
      if (remaining() < 8) return InvalidArgument("truncated fixed64");
      pos_ += 8;
      return Status::Ok();
    }
    case WireType::kFixed32: {
      if (remaining() < 4) return InvalidArgument("truncated fixed32");
      pos_ += 4;
      return Status::Ok();
    }
    case WireType::kLengthDelimited: {
      auto value = read_bytes_view();
      return value.ok() ? Status::Ok() : value.status();
    }
  }
  return InvalidArgument("unknown wire type");
}

}  // namespace bf::proto
