// FileStableStore: a directory-backed StableStore for dvsd, benches and
// manual experiments. Each key maps to one file under the root directory:
// '/' in a key becomes '_', and '_', '%' and '\' are escaped as %5F, %25
// and %5C, so the mapping is injective ("p0/dvs" becomes "p0_dvs_.wal",
// "a_b" becomes "a%5Fb_.wal") and every key without those three characters
// keeps the file name it has always had.
//
// Appends go through one O_APPEND descriptor per journal key, held open
// from the moment the key's storage::Wal is constructed (the hold() hook;
// a key appended to without a hold is opened on its first append) until
// the store is destroyed, so an append is a single write(2) loop and a
// column's descriptor count stays constant while it runs. Replace goes
// through a temp file + rename, so a snapshot is either the old bytes or
// the new bytes, never a torn mix; a held descriptor is closed before the
// rename and reopened on the new file.
//
// Durability: every append/replace has reached the kernel (page cache)
// when it returns, so it survives the process being SIGKILLed; nothing is
// fsynced, so it does not survive a power loss or kernel crash.
//
// Simulation never uses this class (determinism across --jobs requires the
// in-memory store).
#pragma once

#include <map>
#include <string>

#include "storage/stable_store.h"

namespace dvs::storage {

class FileStableStore final : public StableStore {
 public:
  /// Creates `root` (and parents) if needed.
  explicit FileStableStore(std::string root);
  /// Closes every held descriptor.
  ~FileStableStore() override;

  FileStableStore(const FileStableStore&) = delete;
  FileStableStore& operator=(const FileStableStore&) = delete;

  /// Deletes every key file under the root (fresh-disk reset for benches)
  /// and closes the held descriptors; later appends reopen them.
  void wipe();

  [[nodiscard]] const std::string& root() const { return root_; }

  /// The file a key is stored in (exposed for tests).
  [[nodiscard]] std::string path_for(const std::string& key) const;

 protected:
  void do_hold(const std::string& key) override;
  void do_append(const std::string& key, const Bytes& data) override;
  void do_replace(const std::string& key, const Bytes& data) override;
  [[nodiscard]] std::optional<Bytes> do_load(
      const std::string& key) const override;

 private:
  /// The held O_APPEND descriptor for `key`, opening it on first use.
  int held_fd(const std::string& key);
  void close_held();

  std::string root_;
  std::map<std::string, int> held_;  // key -> O_APPEND descriptor
};

}  // namespace dvs::storage
