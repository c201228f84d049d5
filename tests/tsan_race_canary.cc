// ThreadSanitizer canary (DESIGN.md section 10).
//
// Default mode (no env var): two threads increment a counter under a
// std::mutex. This must be clean under TSan — it runs in the regular test
// suite and proves the canary binary itself carries no false positives.
//
// Negative mode (URSA_TSAN_NEGATIVE=1): the same increments race on a plain
// int with no synchronization. The CI TSan job runs this mode expecting a
// nonzero exit (TSAN_OPTIONS=halt_on_error=1), which proves the sanitizer is
// actually armed — a TSan job that cannot see a seeded race would pass
// vacuously forever.
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace {

constexpr int kIters = 100000;

int RunGuarded() {
  std::mutex mu;
  int counter = 0;
  auto body = [&mu, &counter] {
    for (int i = 0; i < kIters; ++i) {
      std::lock_guard<std::mutex> lock(mu);
      ++counter;
    }
  };
  std::thread a(body);
  std::thread b(body);
  a.join();
  b.join();
  if (counter != 2 * kIters) {
    std::fprintf(stderr, "guarded counter lost updates: %d\n", counter);
    return 1;
  }
  std::printf("guarded: %d increments, no race\n", counter);
  return 0;
}

int RunRacy() {
  int counter = 0;
  auto body = [&counter] {
    for (int i = 0; i < kIters; ++i) {
      ++counter;  // Intentional data race: TSan must flag this.
    }
  };
  std::thread a(body);
  std::thread b(body);
  a.join();
  b.join();
  std::printf("racy: counter=%d (expected TSan to abort before this line)\n", counter);
  return 0;
}

}  // namespace

int main() {
  const char* negative = std::getenv("URSA_TSAN_NEGATIVE");
  if (negative != nullptr && negative[0] == '1') {
    return RunRacy();
  }
  return RunGuarded();
}
