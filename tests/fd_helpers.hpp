// Descriptor accounting for the socket tests: how many descriptors this
// process holds, and a scoped lower soft limit to run an acceptor into
// EMFILE. Linux-only (/proc/self/fd).
#pragma once

#include <sys/resource.h>

#include <cstddef>
#include <filesystem>

namespace rota::testing {

inline std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

/// Lowers this process's soft descriptor limit for one scope.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ok_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFdLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  ScopedFdLimit(const ScopedFdLimit&) = delete;
  ScopedFdLimit& operator=(const ScopedFdLimit&) = delete;
  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

}  // namespace rota::testing
