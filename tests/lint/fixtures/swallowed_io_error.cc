// Lint fixture: seeded `swallowed-io-error` violations (3 active, 1
// suppressed).  The typed *Outcome return value is the only failure channel
// of these calls, so dropping it swallows disk failures and I/O timeouts.
namespace sim {
template <typename T = void>
struct Task {};
}  // namespace sim

namespace fixture {

struct DiskOutcome {
  bool failed = false;
};
struct IoOutcome {
  int error = 0;
};

struct Array {
  sim::Task<DiskOutcome> access(unsigned long long offset,
                                unsigned long long bytes);
  IoOutcome flush();
};

inline sim::Task<> drive(Array& array) {
  co_await array.access(0, 4096);  // violation: outcome dropped despite await
  array.access(0, 512);            // violation: task and outcome dropped
  array.flush();                   // violation: plain call, outcome dropped
  co_await array.access(0, 64);    // paraio-lint: allow(swallowed-io-error)
  const DiskOutcome r = co_await array.access(0, 128);  // clean: bound
  (void)r.failed;
  if (array.flush().error != 0) {  // clean: inspected in the condition
    co_return;
  }
}

}  // namespace fixture
