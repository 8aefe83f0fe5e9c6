// Compact binary serialization for wire messages.
//
// The distributed layers (vsys/dvsys/tosys) exchange real encoded byte
// buffers over the simulated network rather than sharing C++ objects; this
// keeps the stack honest about what information actually crosses the wire
// and exercises encode/decode on every hop.
//
// Format: little-endian fixed-width integers, varuint-prefixed containers.
// Decoding is bounds-checked; malformed input throws DecodeError.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/labels.h"
#include "common/messages.h"
#include "common/types.h"
#include "common/view.h"

namespace dvs {

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& message)
      : std::runtime_error("decode error: " + message) {}
};

using Bytes = std::vector<std::byte>;

/// Append-only byte sink.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128-style variable-length unsigned integer (length prefixes).
  void varuint(std::uint64_t v);
  void str(const std::string& s);
  void bytes_field(const Bytes& b);
  /// Appends `n` bytes verbatim — no length prefix (datagram framing where
  /// the record boundary is the datagram itself).
  void raw(const std::byte* p, std::size_t n) {
    buffer_.insert(buffer_.end(), p, p + n);
  }

  void process_id(ProcessId p);
  void view_id(const ViewId& g);
  void process_set(const ProcessSet& s);
  void view(const View& v);
  void label(const Label& l);
  void app_msg(const AppMsg& a);
  void summary(const Summary& x);
  void client_msg(const ClientMsg& m);
  void msg(const Msg& m);

  [[nodiscard]] Bytes take() { return std::move(buffer_); }
  [[nodiscard]] const Bytes& buffer() const { return buffer_; }

  /// Drop the contents but keep the capacity — lets hot encode loops reuse
  /// one Writer instead of re-growing a fresh buffer per message.
  void clear() { buffer_.clear(); }
  void reserve(std::size_t n) { buffer_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

/// Bounds-checked byte source.
class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}
  /// Decodes `data` in place from byte `offset` on (an offset past the end
  /// reads as truncated input), so a scan over one large buffer never has
  /// to copy the part still to be read.
  Reader(const Bytes& data, std::size_t offset)
      : data_(data), pos_(std::min(offset, data.size())) {}
  /// Reader holds a reference to the buffer for its whole lifetime; binding
  /// it to a temporary would dangle after the full-expression, so decoding
  /// a temporary buffer must not compile. Name the buffer instead.
  explicit Reader(Bytes&&) = delete;
  Reader(Bytes&&, std::size_t) = delete;

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::uint64_t varuint();
  [[nodiscard]] std::string str();
  [[nodiscard]] Bytes bytes_field();

  /// Reads a varuint container count and validates it against the bytes
  /// remaining: each element occupies at least `min_element_bytes` on the
  /// wire, so a count that cannot possibly fit is a malformed length
  /// prefix — rejected as DecodeError *before* any reserve/allocation, so
  /// a corrupted length byte can never turn into a huge allocation attempt
  /// (std::length_error / bad_alloc) instead of a clean decode error.
  [[nodiscard]] std::uint64_t count(std::size_t min_element_bytes);

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Offset of the next byte to be read, from the start of the buffer.
  [[nodiscard]] std::size_t position() const { return pos_; }
  /// Steps over `n` bytes without decoding them.
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  [[nodiscard]] ProcessId process_id();
  [[nodiscard]] ViewId view_id();
  [[nodiscard]] ProcessSet process_set();
  [[nodiscard]] View view();
  [[nodiscard]] Label label();
  [[nodiscard]] AppMsg app_msg();
  [[nodiscard]] Summary summary();
  [[nodiscard]] ClientMsg client_msg();
  [[nodiscard]] Msg msg();

  /// True when every byte has been consumed.
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  /// Throw unless exhausted (call at the end of a decode).
  void expect_exhausted() const;

 private:
  void need(std::size_t n) const;

  const Bytes& data_;
  std::size_t pos_ = 0;
};

}  // namespace dvs
