#include "storage/wal.h"

#include <algorithm>
#include <array>

namespace dvs::storage {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(const std::byte* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    c = kCrcTable[(c ^ static_cast<std::uint8_t>(data[i])) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

std::uint32_t crc32(const Bytes& data) { return crc32(data.data(), data.size()); }

Bytes Wal::frame(std::uint8_t type,
                 const std::function<void(Writer&)>& encode) {
  // The payload is encoded once, straight into the record, behind a
  // one-byte length placeholder; a length that needs more varuint bytes
  // opens up in place (payloads of 128 bytes or more).
  Writer record;
  record.u8(kWalMagic);
  record.u8(type);
  record.u8(0);
  encode(record);
  Bytes out = record.take();
  Writer length;
  length.varuint(out.size() - 3);
  const Bytes& field = length.buffer();
  out.insert(out.begin() + 3, field.size() - 1, std::byte{0});
  std::copy(field.begin(), field.end(), out.begin() + 2);
  const std::uint32_t crc = crc32(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>(crc >> (8 * i)));
  }
  return out;
}

void Wal::append(std::uint8_t type,
                 const std::function<void(Writer&)>& encode) {
  const Bytes record = frame(type, encode);
  store_.append(key_, record);
  ++records_since_snapshot_;
  bytes_since_snapshot_ += record.size();
}

void Wal::snapshot(std::uint8_t type,
                   const std::function<void(Writer&)>& encode) {
  const Bytes record = frame(type, encode);
  store_.replace(key_, record);
  records_since_snapshot_ = 0;
  bytes_since_snapshot_ = 0;
  snapshot_bytes_ = record.size();
}

WalContents read_wal(const Bytes& log) {
  WalContents out;
  std::size_t offset = 0;
  while (offset < log.size()) {
    // Decode one record in place from log[offset..]; any framing failure
    // (bad magic, truncation mid-record, CRC mismatch) ends the clean
    // prefix.
    try {
      Reader r(log, offset);
      const std::uint8_t magic = r.u8();
      if (magic != kWalMagic) {
        out.corrupt_tail = true;
        break;
      }
      WalRecord rec;
      rec.type = r.u8();
      rec.payload = r.bytes_field();
      const std::size_t covered = r.position() - offset;
      const std::uint32_t want = crc32(log.data() + offset, covered);
      const std::uint32_t got = r.u32();
      if (want != got) {
        out.corrupt_tail = true;
        break;
      }
      offset += covered + 4;
      out.records.push_back(std::move(rec));
      out.bytes_consumed = offset;
    } catch (const DecodeError&) {
      out.corrupt_tail = true;
      break;
    }
  }
  return out;
}

WalContents read_wal(const StableStore& store, const std::string& key) {
  const std::optional<Bytes> log = store.load(key);
  if (!log.has_value()) return {};
  return read_wal(*log);
}

}  // namespace dvs::storage
