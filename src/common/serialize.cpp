#include "common/serialize.h"

namespace dvs {
namespace {

// Message-variant wire tags.
enum class MsgTag : std::uint8_t {
  kOpaque = 1,
  kLabeled = 2,
  kSummary = 3,
  kInfo = 4,
  kRegistered = 5,
  kState = 6,
};

}  // namespace

void Writer::u8(std::uint8_t v) { buffer_.push_back(static_cast<std::byte>(v)); }

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::varuint(std::uint64_t v) {
  while (v >= 0x80) {
    u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  u8(static_cast<std::uint8_t>(v));
}

void Writer::str(const std::string& s) {
  varuint(s.size());
  for (char c : s) buffer_.push_back(static_cast<std::byte>(c));
}

void Writer::bytes_field(const Bytes& b) {
  varuint(b.size());
  buffer_.insert(buffer_.end(), b.begin(), b.end());
}

void Writer::process_id(ProcessId p) { u32(p.value()); }

void Writer::view_id(const ViewId& g) {
  u64(g.epoch());
  process_id(g.origin());
}

void Writer::process_set(const ProcessSet& s) {
  varuint(s.size());
  for (ProcessId p : s) process_id(p);
}

void Writer::view(const View& v) {
  view_id(v.id());
  process_set(v.set());
}

void Writer::label(const Label& l) {
  view_id(l.id);
  u64(l.seqno);
  process_id(l.origin);
}

void Writer::app_msg(const AppMsg& a) {
  u64(a.uid);
  process_id(a.origin);
  str(a.payload);
}

void Writer::summary(const Summary& x) {
  varuint(x.con.size());
  for (const auto& [l, a] : x.con) {
    label(l);
    app_msg(a);
  }
  varuint(x.ord.size());
  for (const Label& l : x.ord) label(l);
  u64(x.next);
  view_id(x.high);
}

void Writer::client_msg(const ClientMsg& m) {
  msg(to_msg(m));
}

void Writer::msg(const Msg& m) {
  if (const auto* o = std::get_if<OpaqueMsg>(&m)) {
    u8(static_cast<std::uint8_t>(MsgTag::kOpaque));
    u64(o->uid);
    process_id(o->sender);
  } else if (const auto* l = std::get_if<LabeledAppMsg>(&m)) {
    u8(static_cast<std::uint8_t>(MsgTag::kLabeled));
    label(l->label);
    app_msg(l->msg);
  } else if (const auto* s = std::get_if<Summary>(&m)) {
    u8(static_cast<std::uint8_t>(MsgTag::kSummary));
    summary(*s);
  } else if (const auto* st = std::get_if<StateMsg>(&m)) {
    u8(static_cast<std::uint8_t>(MsgTag::kState));
    view_id(st->view);
    str(st->blob);
    u8(st->is_delta ? 1 : 0);
    if (st->is_delta) {
      view_id(st->base_view);
      varuint(st->keep_len);
    }
  } else if (const auto* i = std::get_if<InfoMsg>(&m)) {
    u8(static_cast<std::uint8_t>(MsgTag::kInfo));
    view(i->act);
    varuint(i->amb.size());
    for (const View& w : i->amb) view(w);
  } else {
    u8(static_cast<std::uint8_t>(MsgTag::kRegistered));
  }
}

void Reader::need(std::size_t n) const {
  if (n > data_.size() - pos_) throw DecodeError("truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t Reader::u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t Reader::varuint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw DecodeError("varuint overflow");
    const std::uint8_t b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::uint64_t Reader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = varuint();
  if (min_element_bytes > 0 && n > remaining() / min_element_bytes) {
    throw DecodeError("container count exceeds remaining input");
  }
  return n;
}

std::string Reader::str() {
  const std::uint64_t n = varuint();
  need(n);
  std::string s;
  s.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(data_[pos_++]));
  }
  return s;
}

Bytes Reader::bytes_field() {
  const std::uint64_t n = varuint();
  need(n);
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

ProcessId Reader::process_id() { return ProcessId{u32()}; }

ViewId Reader::view_id() {
  const std::uint64_t epoch = u64();
  const ProcessId origin = process_id();
  return ViewId{epoch, origin};
}

ProcessSet Reader::process_set() {
  const std::uint64_t n = count(4);  // u32 per member
  ProcessSet s;
  for (std::uint64_t i = 0; i < n; ++i) s.insert(process_id());
  return s;
}

View Reader::view() {
  const ViewId g = view_id();
  ProcessSet s = process_set();
  if (s.empty()) throw DecodeError("view with empty membership");
  return View{g, std::move(s)};
}

Label Reader::label() {
  Label l;
  l.id = view_id();
  l.seqno = u64();
  l.origin = process_id();
  return l;
}

AppMsg Reader::app_msg() {
  AppMsg a;
  a.uid = u64();
  a.origin = process_id();
  a.payload = str();
  return a;
}

Summary Reader::summary() {
  Summary x;
  // Minimum wire sizes: label = 24 (view_id 12 + u64 8 + u32 4), con entry
  // = label + minimal app_msg (u64 8 + u32 4 + empty str 1) = 37.
  const std::uint64_t ncon = count(37);
  for (std::uint64_t i = 0; i < ncon; ++i) {
    Label l = label();
    AppMsg a = app_msg();
    x.con.emplace(l, std::move(a));
  }
  const std::uint64_t nord = count(24);
  x.ord.reserve(nord);
  for (std::uint64_t i = 0; i < nord; ++i) x.ord.push_back(label());
  x.next = u64();
  x.high = view_id();
  return x;
}

ClientMsg Reader::client_msg() {
  Msg m = msg();
  if (!is_client(m)) throw DecodeError("expected client message");
  return to_client(m);
}

Msg Reader::msg() {
  switch (static_cast<MsgTag>(u8())) {
    case MsgTag::kOpaque: {
      OpaqueMsg o;
      o.uid = u64();
      o.sender = process_id();
      return o;
    }
    case MsgTag::kLabeled: {
      LabeledAppMsg l;
      l.label = label();
      l.msg = app_msg();
      return l;
    }
    case MsgTag::kSummary:
      return summary();
    case MsgTag::kInfo: {
      InfoMsg i;
      i.act = view();
      // Minimal view: view_id 12 + count 1 + one member 4 (views are
      // nonempty).
      const std::uint64_t n = count(17);
      i.amb.reserve(n);
      for (std::uint64_t k = 0; k < n; ++k) i.amb.push_back(view());
      return i;
    }
    case MsgTag::kRegistered:
      return RegisteredMsg{};
    case MsgTag::kState: {
      StateMsg st;
      st.view = view_id();
      st.blob = str();
      const std::uint8_t delta_flag = u8();
      if (delta_flag > 1) throw DecodeError("bad StateMsg delta flag");
      st.is_delta = delta_flag == 1;
      if (st.is_delta) {
        st.base_view = view_id();
        st.keep_len = varuint();
      }
      return st;
    }
  }
  throw DecodeError("unknown message tag");
}

void Reader::expect_exhausted() const {
  if (!exhausted()) throw DecodeError("trailing bytes after decode");
}

}  // namespace dvs
