#include "apps/state_machine.h"

#include <sstream>

#include "toimpl/dvs_to_to.h"

namespace dvs::apps {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // Mix in a separator so "ab"+"c" differs from "a"+"bc".
  h ^= 0xff;
  h *= 0x100000001b3ULL;
  return h;
}

}  // namespace

KvStateMachine replay_kv(const toimpl::DvsToTo& to) {
  KvStateMachine kv;
  for (std::uint64_t i = 1; i < to.nextreport() && i <= to.order().size();
       ++i) {
    auto it = to.content().find(to.order()[i - 1]);
    if (it != to.content().end()) kv.apply(it->second.payload);
  }
  return kv;
}

void KvStateMachine::mix(const std::string& command) {
  digest_ = fnv1a(digest_, command);
  ++applied_;
}

void KvStateMachine::apply(const std::string& command) {
  std::istringstream is(command);
  std::string op;
  std::string key;
  is >> op >> key;
  if (op == "put") {
    std::string value;
    std::getline(is, value);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    data_[key] = value;
  } else if (op == "del") {
    data_.erase(key);
  }
  mix(command);  // unknown ops still advance the history fingerprint
}

std::string KvStateMachine::snapshot() const {
  std::ostringstream os;
  for (const auto& [k, v] : data_) {
    os << k << "=" << v << ";";
  }
  return os.str();
}

std::string KvStateMachine::get(const std::string& key) const {
  auto it = data_.find(key);
  return it == data_.end() ? std::string{} : it->second;
}

void CounterStateMachine::apply(const std::string& command) {
  std::istringstream is(command);
  std::string op;
  std::uint64_t n = 0;
  is >> op >> n;
  if (op == "add") {
    balance_ += n;
  } else if (op == "sub") {
    balance_ = n > balance_ ? 0 : balance_ - n;
  }
  ++applied_;
}

std::string CounterStateMachine::snapshot() const {
  return std::to_string(balance_);
}

std::uint64_t CounterStateMachine::digest() const {
  return balance_ * 0x9e3779b97f4a7c15ULL + applied_;
}

}  // namespace dvs::apps
