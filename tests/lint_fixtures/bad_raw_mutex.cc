// lint-path: src/nad/bad_raw_mutex.cc
// Known-bad fixture for nadlint (scripts/nadlint/): raw std:: sync
// primitives outside src/common/. Never compiled; the linter self-test
// asserts every lint-expect line below is flagged.
#include <mutex>
#include <condition_variable>

namespace nadreg::nad {

struct BadConnState {
  std::mutex mu;               // lint-expect(raw-mutex)
  std::condition_variable cv;  // lint-expect(raw-mutex)
  int pending = 0;
};

inline void BadBump(BadConnState& s) {
  std::lock_guard lock(s.mu);  // lint-expect(raw-mutex)
  ++s.pending;
  s.cv.notify_all();
}

inline void BadWait(BadConnState& s) {
  std::unique_lock lock(s.mu);  // lint-expect(raw-mutex)
  s.cv.wait(lock, [&] { return s.pending > 0; });
}

}  // namespace nadreg::nad
