// Integration test for the simulated-time race detector against the PFS
// shared-offset annotations in src/pfs/pfs.cpp: concurrent M_LOG writers
// contend on the shared file pointer at the same simulated instant, but the
// token-mutex acquire/release edges order them, so the detector must record
// the accesses and report no race.
#include "pfs/pfs.hpp"

#include <gtest/gtest.h>

#include "hw/machine.hpp"
#include "sim/engine.hpp"
#include "sim/race.hpp"

namespace paraio::pfs {
namespace {

using io::AccessMode;
using io::OpenOptions;

TEST(RaceIntegration, LogModeSharedOffsetIsOrderedByTokenMutex) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  Pfs fs(machine);
  sim::RaceDetector det(engine);

  auto writer = [&](io::NodeId node) -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kLog;
    o.create = true;
    auto f = co_await fs.open(node, "/log", o);
    co_await f->write(1000);
    co_await f->close();
  };
  engine.spawn(writer(0));
  engine.spawn(writer(1));
  engine.spawn(writer(2));
  engine.run();
  det.finish();

  // The annotation sites fired (one shared-offset write per node)...
  EXPECT_GE(det.access_count(), 3u);
  // ...and the token-mutex happens-before edges leave nothing unordered.
  EXPECT_TRUE(det.ok()) << det.report();
  EXPECT_EQ(fs.file_size("/log"), 3000u);
}

TEST(RaceIntegration, DetectorAbsentCostsNothing) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(2, 1));
  Pfs fs(machine);
  // No detector attached: the annotation sites in pfs.cpp must no-op.
  auto writer = [&](io::NodeId node) -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kLog;
    o.create = true;
    auto f = co_await fs.open(node, "/log", o);
    co_await f->write(100);
    co_await f->close();
  };
  engine.spawn(writer(0));
  engine.spawn(writer(1));
  engine.run();
  EXPECT_EQ(fs.file_size("/log"), 200u);
  EXPECT_EQ(engine.race_detector(), nullptr);
}

}  // namespace
}  // namespace paraio::pfs
