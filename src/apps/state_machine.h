// Deterministic state machines for replication — the application side of
// the paper's coherent-data motivation.
//
// A StateMachine consumes an ordered stream of textual commands; replicas
// that apply the same command sequence reach the same state. digest()
// exposes a cheap fingerprint for consistency checks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace dvs::toimpl {
class DvsToTo;
}  // namespace dvs::toimpl

namespace dvs::apps {

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Applies one committed command. Must be deterministic.
  virtual void apply(const std::string& command) = 0;

  /// Full serialized state (used for snapshots / debugging).
  [[nodiscard]] virtual std::string snapshot() const = 0;

  /// Order-sensitive fingerprint of the applied history + state.
  [[nodiscard]] virtual std::uint64_t digest() const = 0;

  /// Number of commands applied so far.
  [[nodiscard]] virtual std::uint64_t applied() const = 0;
};

/// Key-value store; commands: "put <key> <value>", "del <key>".
/// Unknown commands are ignored deterministically.
class KvStateMachine final : public StateMachine {
 public:
  void apply(const std::string& command) override;
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::uint64_t digest() const override { return digest_; }
  [[nodiscard]] std::uint64_t applied() const override { return applied_; }

  [[nodiscard]] const std::map<std::string, std::string>& data() const {
    return data_;
  }
  [[nodiscard]] std::string get(const std::string& key) const;

 private:
  void mix(const std::string& command);

  std::map<std::string, std::string> data_;
  std::uint64_t applied_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

/// Rebuilds a KV replica from a TO automaton's reported order prefix
/// (positions 1 .. nextreport-1). A recovered or handed-off incarnation
/// never re-delivers that prefix, so its application state comes from the
/// durable order directly.
[[nodiscard]] KvStateMachine replay_kv(const toimpl::DvsToTo& to);

/// Bank-style counter machine; commands: "add <n>", "sub <n>" (saturating
/// at zero — withdrawal beyond the balance is a deterministic no-op, the
/// classical consistency example).
class CounterStateMachine final : public StateMachine {
 public:
  void apply(const std::string& command) override;
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::uint64_t digest() const override;
  [[nodiscard]] std::uint64_t applied() const override { return applied_; }

  [[nodiscard]] std::uint64_t balance() const { return balance_; }

 private:
  std::uint64_t balance_ = 0;
  std::uint64_t applied_ = 0;
};

}  // namespace dvs::apps
