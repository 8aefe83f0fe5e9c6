#include "storage/file_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace dvs::storage {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail(const char* what, const std::string& key) {
  throw std::runtime_error(std::string("FileStableStore: ") + what + " " +
                           key + ": " + std::strerror(errno));
}

/// Writes all of `data` to `fd`, retrying short writes and EINTR.
void write_all(int fd, const Bytes& data, const std::string& key) {
  const std::byte* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed", key);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

int open_append(const std::string& path, const std::string& key) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot open", key);
  return fd;
}

}  // namespace

FileStableStore::FileStableStore(std::string root) : root_(std::move(root)) {
  fs::create_directories(root_);
}

FileStableStore::~FileStableStore() { close_held(); }

void FileStableStore::close_held() {
  for (const auto& [key, fd] : held_) ::close(fd);
  held_.clear();
}

std::string FileStableStore::path_for(const std::string& key) const {
  std::string flat;
  flat.reserve(key.size());
  for (const char c : key) {
    switch (c) {
      case '/': flat += '_'; break;
      case '_': flat += "%5F"; break;
      case '%': flat += "%25"; break;
      case '\\': flat += "%5C"; break;
      default: flat += c;
    }
  }
  return root_ + "/" + flat + "_.wal";
}

void FileStableStore::wipe() {
  close_held();
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (entry.is_regular_file() && entry.path().extension() == ".wal") {
      fs::remove(entry.path());
    }
  }
}

int FileStableStore::held_fd(const std::string& key) {
  auto it = held_.find(key);
  if (it == held_.end()) {
    it = held_.emplace(key, open_append(path_for(key), key)).first;
  }
  return it->second;
}

void FileStableStore::do_hold(const std::string& key) { (void)held_fd(key); }

void FileStableStore::do_append(const std::string& key, const Bytes& data) {
  write_all(held_fd(key), data, key);
}

void FileStableStore::do_replace(const std::string& key, const Bytes& data) {
  const std::string final_path = path_for(key);
  const std::string tmp_path = final_path + ".tmp";
  const int tmp =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp < 0) fail("cannot open", key);
  try {
    write_all(tmp, data, key);
  } catch (...) {
    ::close(tmp);
    throw;
  }
  ::close(tmp);
  // The held descriptor points at the file being replaced: close it before
  // the rename and reopen it on the new file.
  const auto it = held_.find(key);
  const bool was_held = it != held_.end();
  if (was_held) {
    ::close(it->second);
    held_.erase(it);
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    fail("rename failed", key);
  }
  if (was_held) held_.emplace(key, open_append(final_path, key));
}

std::optional<Bytes> FileStableStore::do_load(const std::string& key) const {
  std::ifstream in(path_for(key), std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) throw std::runtime_error("FileStableStore: load failed " + key);
  return data;
}

}  // namespace dvs::storage
